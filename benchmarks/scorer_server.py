"""Counting scorer server for the decode-external workload.

Usage:
    python3 benchmarks/scorer_server.py MODEL.json REPORT.json

Loads a saved n-gram model and answers the external-scorer wire protocol
through ``treegen.serve_loop`` on stdin/stdout.  Around that loop it
counts frames and bytes in each direction and times the scorer itself.
When its input ends, or on SIGTERM, it writes those counts to REPORT.json:

    {"frames_in": int, "frames_out": int, "bytes_in": int,
     "bytes_out": int, "busy_s": float}

frames_out includes the handshake; busy_s is time spent inside the
scorer's ``logprobs``, so the client's time in ``logprobs`` minus busy_s
is what the wire protocol costs.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treegen import NGramModel, serve_loop  # noqa: E402


class Counts:
    def __init__(self):
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.busy_s = 0.0


class CountingInput:
    def __init__(self, stream, counts: Counts):
        self._stream = stream
        self._counts = counts

    def __iter__(self):
        for line in self._stream:
            self._counts.frames_in += 1
            self._counts.bytes_in += len(line)  # the protocol is ASCII JSON
            yield line


class CountingOutput:
    def __init__(self, stream, counts: Counts):
        self._stream = stream
        self._counts = counts

    def write(self, text: str) -> int:
        self._counts.frames_out += text.count("\n")
        self._counts.bytes_out += len(text)
        return self._stream.write(text)

    def flush(self) -> None:
        self._stream.flush()


class TimedScorer:
    def __init__(self, inner, counts: Counts):
        self.vocabulary = inner.vocabulary
        self._inner = inner
        self._counts = counts

    def logprobs(self, prefix, context=None):
        t0 = time.perf_counter()
        try:
            return self._inner.logprobs(prefix, context)
        finally:
            self._counts.busy_s += time.perf_counter() - t0


def _terminate(signum, frame):
    raise SystemExit(0)


def main(model_path: str, report_path: str) -> None:
    counts = Counts()
    signal.signal(signal.SIGTERM, _terminate)
    try:
        model = NGramModel.load(model_path)
        serve_loop(
            TimedScorer(model, counts),
            CountingInput(sys.stdin, counts),
            CountingOutput(sys.stdout, counts),
        )
    except BrokenPipeError:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        partial = report_path + ".part"
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(vars(counts), fh)
        os.replace(partial, report_path)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
