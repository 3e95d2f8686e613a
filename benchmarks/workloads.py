"""The four workloads: set-up, the measured closed loop, output checks.

Each workload function returns a ``Result``: set-up times, per-operation
latencies, counts of attempted and failed operations, and whatever the
end-to-end and per-layer metrics are computed from.  One client on one
thread sends each request only when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import treegen.cli
from treegen import (
    DecodeConfig,
    DecodingFailed,
    ExternalScorer,
    canonicalize,
    check_tree,
    decode,
    linearize,
    weather_ontology,
)
from treegen.scorers import sequence_logprob

import inputs
from corrupt import surface
from skeleton_check import skeleton_accepts
from tracing import Tracer, TracedScorer

SETUP_REPS = 3
# a check-corpus set-up takes about 0.3 s; the median of more of them is steadier
CHECK_SETUP_REPS = 9
BEAM_SIZE = 10
SCORE_TOLERANCE = 1e-9
SERVER = Path(__file__).resolve().parent / "scorer_server.py"
ROUNDS = {
    "decode-corpus": inputs.corpus_rounds,
    "decode-repeated": inputs.repeated_rounds,
    "decode-external": inputs.anchored_rounds,
}


@dataclass
class Result:
    setup_s: list[float] = field(default_factory=list)
    synthesize_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    units: int = 0  # MRs decoded or corpus lines checked
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # operations whose outputs failed a check
    hypotheses: list[list[str]] = field(default_factory=list)
    references: list[list[list[str]]] = field(default_factory=list)
    server: dict = field(default_factory=dict)
    scorer: TracedScorer | None = None
    problems: list[str] = field(default_factory=list)

    def fail(self, label: str, problems: list[str], wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems)}")


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


# -- decode workloads --------------------------------------------------------


def check_decode(item: inputs.DecodeItem, result, model) -> list[str]:
    """Property checks on one decode; returns the problems found."""
    vocab = model.vocabulary
    mr_tokens = linearize(canonicalize(item.mr))
    context = vocab.encode(mr_tokens)
    max_length = 2 * len(mr_tokens) + 64  # DecodeConfig's default budget
    candidates = result.candidates
    problems = []
    if not 1 <= len(candidates) <= BEAM_SIZE:
        problems.append(f"{len(candidates)} candidates")
    if any(a.score < b.score for a, b in zip(candidates, candidates[1:])):
        problems.append("candidates out of score order")
    for rank, cand in enumerate(candidates):
        length = len(vocab.encode(cand.tokens)) + 1  # EOS
        if length > max_length:
            problems.append(f"candidate {rank} has {length} > {max_length} tokens")
        total = sequence_logprob(model, cand.tokens, context)
        if abs(total - cand.score) > SCORE_TOLERANCE:
            problems.append(f"candidate {rank} scores {cand.score}, recomputed {total}")
    if candidates:
        best = candidates[0].tokens
        if not check_tree(item.mr, best):
            problems.append("best candidate rejected by check_tree")
        if not skeleton_accepts(item.mr, best):
            problems.append("best candidate rejected by the skeleton checker")
    return problems


def _setup_decoder(seed: int, out: Result, workdir: Path, rep: int, external: bool):
    """Synthesize, train the scorer and, for decode-external, start the child."""
    ontology = weather_ontology()
    t0 = time.perf_counter()
    train = inputs.training_corpus()
    test = inputs.held_out(seed)
    synth_s = time.perf_counter() - t0
    model, train_s = _timed(inputs.train_scorer, train, ontology)
    out.synthesize_s.append(synth_s)
    out.train_s.append(train_s)
    server = None
    if external:
        model_path = workdir / f"model{rep}.json"
        model.save(model_path)
        report = workdir / f"server{rep}.json"
        command = [sys.executable, str(SERVER), str(model_path), str(report)]
        server = (ExternalScorer(command, model.vocabulary), report)
    return train, test, model, server


def run_decode(
    workload: str, seed: int, seconds: float, tracer: Tracer, workdir: Path
) -> Result:
    external = workload == "decode-external"
    out = Result()
    servers = []
    try:
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            train, test, model, server = _setup_decoder(seed, out, workdir, rep, external)
            rounds = ROUNDS[workload](train, test, weather_ontology(), seed)
            out.setup_s.append(time.perf_counter() - t0)
            if server is not None:
                servers.append(server)
        # only the last set-up's child serves; the others stop now
        for client, _ in servers[:-1]:
            client.close()
        scorer = servers[-1][0] if external else model
        if tracer.installed:
            scorer = out.scorer = TracedScorer(scorer, tracer, inputs.ORDER)
        with tracer.measuring():
            _decode_loop(rounds, scorer, model, seconds, tracer, out, external)
    finally:
        for client, _ in servers:
            client.close()
    # a child that died without writing its counts leaves the traced wire
    # metrics at 0; its failed decodes are already counted
    if external and servers[-1][1].is_file():
        out.server = json.loads(servers[-1][1].read_text(encoding="utf-8"))
    return out


def _decode_loop(rounds, scorer, model, seconds, tracer, out: Result, external: bool):
    config = DecodeConfig(beam_size=BEAM_SIZE)
    traced = isinstance(scorer, TracedScorer)
    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < seconds:
        for item in rounds[done % len(rounds)]:
            out.attempted += 1
            if traced:
                tracer.begin_op(item.label)
                scorer.begin_op()
            t0 = time.perf_counter()
            try:
                with tracer.span("beam.decode"):
                    result = decode(item.mr, scorer, config)
            except DecodingFailed as exc:
                out.fail(item.label, [f"DecodingFailed: {exc.reason}"], wrong=False)
                continue
            except Exception as exc:  # e.g. a broken scorer child
                out.fail(item.label, [f"decode raised {exc!r}"], wrong=False)
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if traced:
                    tracer.end_op()
                    scorer.end_op()
            out.latencies_s.append(elapsed)
            out.units += 1
            with tracer.paused():
                try:
                    problems = check_decode(item, result, model)
                    if external:
                        local = decode(item.mr, model, config)
                        if local.candidates != result.candidates:
                            problems.append("differs from the in-process decode")
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
            if problems:
                out.fail(item.label, problems)
                continue
            out.hypotheses.append(surface(result.candidates[0].tokens))
            out.references.append(item.references)
        done += 1


# -- check-corpus ------------------------------------------------------------


def run_check(seed: int, seconds: float, tracer: Tracer, workdir: Path) -> Result:
    out = Result()
    ontology = weather_ontology()
    for rep in range(CHECK_SETUP_REPS):
        t0 = time.perf_counter()
        batch_dir = workdir / f"setup{rep}"
        batch_dir.mkdir()
        examples, synth_s = _timed(inputs.check_examples, seed)
        batches = inputs.check_batches(examples, seed, ontology, batch_dir)
        out.setup_s.append(time.perf_counter() - t0)
        out.synthesize_s.append(synth_s)
        out.train_s.append(0.0)
    with tracer.measuring():
        _check_loop(batches, seconds, tracer, workdir, out)
    return out


def _check_loop(batches, seconds, tracer: Tracer, workdir: Path, out: Result) -> None:
    start = time.perf_counter()
    done = 0
    while done == 0 or time.perf_counter() - start < seconds:
        batch = batches[done % len(batches)]
        done += 1
        lines = len(batch.lines)
        out.attempted += lines
        if tracer.active:
            tracer.begin_op(batch.corpus.name)
        t0 = time.perf_counter()
        try:
            codes, files = _check_pipeline(batch, workdir, tracer)
        except Exception as exc:
            problems, wrong = {n: [f"pipeline raised {exc!r}"] for n in range(1, lines + 1)}, False
        else:
            out.latencies_s.append(time.perf_counter() - t0)
            out.units += lines
            with tracer.paused():
                try:
                    problems = _verify_check(batch, codes, files)
                except Exception as exc:
                    problems = {n: [f"check raised {exc!r}"] for n in range(1, lines + 1)}
            wrong = True
        finally:
            if tracer.active:
                tracer.end_op()
        for n, found in sorted(problems.items()):
            out.fail(f"{batch.corpus.name}:{n}", found, wrong)


def _check_pipeline(batch: inputs.CheckBatch, workdir: Path, tracer: Tracer):
    """validate -> delex -> relex -> evaluate through the CLI's main()."""
    files = {
        name: workdir / f"{batch.corpus.stem}.{name}"
        for name in ("report.json", "delex.jsonl", "relex.jsonl", "eval.json")
    }
    steps = [
        ("validate", ["--corpus", batch.corpus, "--report", files["report.json"]]),
        ("delex", ["--corpus", batch.corpus, "--out", files["delex.jsonl"]]),
        ("relex", ["--corpus", files["delex.jsonl"], "--out", files["relex.jsonl"]]),
        (
            "evaluate",
            [
                "--predictions", batch.predictions,
                "--corpus", files["relex.jsonl"],
                "--out", files["eval.json"],
            ],
        ),
    ]
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for command, argv in steps:
            with tracer.span(f"cli.{command}"):
                codes[command] = treegen.cli.main([command, *map(str, argv)])
    return codes, files


def _verify_check(batch: inputs.CheckBatch, codes: dict, files: dict) -> dict[int, list[str]]:
    """The problems found on each corpus line (1-based) that fails a check."""
    lines = len(batch.lines)
    expected = {"validate": 1, "delex": 0, "relex": 0, "evaluate": 0}
    if codes != expected:
        return {n: [f"exit codes {codes}"] for n in range(1, lines + 1)}
    flagged = {
        f["line"]
        for f in json.loads(files["report.json"].read_text(encoding="utf-8"))["failures"]
    }
    restored = files["relex.jsonl"].read_text(encoding="utf-8").splitlines()
    report = json.loads(files["eval.json"].read_text(encoding="utf-8"))
    valid = {e["index"] + 1 for e in report["per_example"] if e["tree_valid"]}
    whole = []
    found = {}
    if report["tree_accuracy"] != 1.0 or report["bleu4"] != 1.0:
        whole.append(
            f"references score tree accuracy {report['tree_accuracy']}, "
            f"BLEU-4 {report['bleu4']}"
        )
    if len(restored) != lines:
        whole.append(f"relex wrote {len(restored)} of {lines} lines")
    for n in range(1, lines + 1):
        problems = list(whole)
        if (n in flagged) != (n in batch.corrupted):
            problems.append("validate flag wrong")
        if n <= len(restored) and restored[n - 1] != batch.lines[n - 1]:
            problems.append("relex(delex(line)) differs")
        if n not in batch.corrupted and n not in valid:
            problems.append("reference not tree-valid in evaluate")
        if problems:
            found[n] = problems
    return found


def median(values):
    return statistics.median(values) if values else 0.0
