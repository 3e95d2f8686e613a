#!/usr/bin/env python3
"""Mount a scorer as a child process and decode through the wire protocol.

Usage:
    python3 demos/05_external_scorer.py

The decoder does not care where probabilities come from.  Anything that
answers newline-delimited JSON on stdin/stdout can drive it, one request
per beam step carrying every live prefix:

    handshake (server -> client): {"vocab_size": N, "protocol": 3}
    request   (client -> server): {"id": i, "context": [...],
                                   "parents": [p, ...], "tails": [[...], ...]}
    response  (server -> client): {"id": i, "logprobs": "<base64>", "rows": [r, ...]}

Prefix k of a request is prefix parents[k] of the previous request,
followed by tails[k]; parent -1 is the empty prefix.  So after the first
beam step each hypothesis costs one new id on the wire.  The response's
logprobs field is base64 of little-endian float64 values: the distinct
rows, N values each, in first-seen order; prefix k's row is row rows[k].
A request the server cannot answer gets {"id": i, "error": "..."}
instead; the server forgets the previous prefixes and goes on.

This script trains a small model, saves it, serves it from a child
process via serve_loop, and checks that decoding through the pipe gives
byte-identical output to decoding in process.
"""

import base64
import json
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np

from treegen import (
    DecodeConfig,
    ExternalScorer,
    decode,
    parse_mr,
    train_ngram,
    weather_ontology,
)
from treegen.weather import split_examples, synthesize_examples

ontology = weather_ontology()
examples = synthesize_examples(220, seed=13)
train, test = split_examples(examples, 200 / 220)
pairs = [(parse_mr(ex.mr, ontology), ex.annotated_response.split()) for ex in train]
model = train_ngram(pairs)

workdir = Path(tempfile.mkdtemp(prefix="treegen-demo-"))
model_path = workdir / "model.json"
model.save(model_path)

# The whole server: load a scorer, hand it to serve_loop.
server_path = workdir / "server.py"
server_path.write_text(textwrap.dedent("""\
    import sys
    from treegen import NGramModel, serve_loop

    model = NGramModel.load(sys.argv[1])
    serve_loop(model, sys.stdin, sys.stdout)
"""))
command = [sys.executable, str(server_path), str(model_path)]
print("server command:", " ".join(command[1:]), "\n")

# First, the frames themselves, by hand.
vocab = model.vocabulary


def send(request):
    print("request:   ", json.dumps(request))
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def show(response):
    if "error" in response:
        print("error:     ", json.dumps(response))
        return
    rows = np.frombuffer(base64.b64decode(response["logprobs"]), dtype="<f8")
    rows = rows.reshape(-1, len(vocab))
    print(f"response:   id={response['id']}, rows={response['rows']}, "
          f"logprobs=\"{response['logprobs'][:16]}...\" "
          f"({rows.shape[0]} distinct rows x {rows.shape[1]} float64, "
          f"row 0 = [{rows[0, 0]:.4f}, ...])")


# leaving the block closes both pipes and waits for the server to exit
with subprocess.Popen(
    command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
) as proc:
    print("handshake: ", proc.stdout.readline().strip())
    # the empty prefix and [it], both sent whole
    show(send({"id": 0, "context": [], "parents": [-1, -1],
               "tails": [[], vocab.encode(["it"])]}))
    # [it, will] and [it, is] extend prefix 1 of request 0 by one id each
    show(send({"id": 1, "context": [], "parents": [1, 1],
               "tails": [vocab.encode(["will"]), vocab.encode(["is"])]}))
    # request 1 held two prefixes, so parent 5 is refused; so is a request
    # without parents and tails
    show(send({"id": 2, "context": [], "parents": [5], "tails": [[]]}))
    show(send({"id": 3, "context": []}))
print()

# Now the adapter, which does the same bookkeeping and feeds the beam:
# one request per beam step, for every live hypothesis at once.
mr = parse_mr(test[0].mr, ontology)
config = DecodeConfig(beam_size=5)
with ExternalScorer(command, model.vocabulary) as remote:
    over_the_wire = decode(mr, remote, config).candidates
in_process = decode(mr, model, config).candidates

print("MR:       ", test[0].mr)
print("decoded:  ", " ".join(over_the_wire[0].tokens))
print()
# the floats travel exactly, so scores match to the last bit
match = over_the_wire == in_process
print(f"identical to the in-process decode, scores included: {match}")
if not match:
    sys.exit(1)
