"""treegen benchmark: four decode and check workloads.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: decode-corpus, decode-repeated, decode-external, check-corpus
(see benchmarks/README.md).  The inputs are generated from --seed; the
loop runs whole rounds until --seconds have passed.  Every output is
checked.  The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.
With --trace 1 the layer functions are wrapped and the metrics are the
per-layer ones; the per-operation spans go to
benchmarks/out/trace-<workload>-<seed>.json.

The package is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("decode-corpus", "decode-repeated", "decode-external", "check-corpus")


def _load_package():
    """Import treegen from this checkout's src/, or None."""
    if not (SRC / "treegen" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import treegen

    if Path(treegen.__file__).resolve().parent != SRC / "treegen":
        return None
    return treegen


def _peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(workload: str, result) -> dict:
    from workloads import median

    busy = sum(result.latencies_s)
    return {
        "setup_s": (median(result.setup_s), "s"),
        "mr_per_s": (result.units / busy if busy else 0.0, "MR/s"),
        "latency_p50_ms": (1000.0 * median(result.latencies_s), "ms"),
        "peak_rss_mb": (_peak_rss_mb(workload == "decode-external"), "MB"),
    }


def _quality(result) -> float:
    """BLEU-4 of the best candidates against the references (0: no decodes)."""
    from treegen import bleu4

    if result.hypotheses:
        return bleu4(result.hypotheses, result.references)
    return 0.0


# traced self times and call counts, reported per operation
PER_OP_TIMES = (
    "scorers.logprobs",
    "constraints.valid_structural_tokens",
    "constraints.min_completion_tokens",
    "constraints.advance",
    "constraints.check_tree",
    "constraints.build_constraints",
    "trees.parse_mr",
    "corpus.read_corpus",
    "corpus.write_corpus",
    "delex.delexicalize_example",
    "delex.relexicalize",
    "metrics.tree_accuracy",
    "metrics.bleu4",
    "metrics.diversity",
    "cli.validate",
    "cli.evaluate",
    "cli.delex",
    "cli.relex",
)
PER_OP_CALLS = (
    "scorers.logprobs",
    "constraints.valid_structural_tokens",
    "constraints.min_completion_tokens",
    "constraints.advance",
    "constraints.check_tree",
    "trees.parse_mr",
)


def per_layer(result, tracer, quality: float) -> dict:
    """Per-layer metrics; sums over the run are divided by the operations."""
    from workloads import median

    t = tracer
    ops = max(result.attempted, 1)
    scorer = result.scorer
    server = result.server
    wire_wait = t.self_s("scorers.logprobs") - server["busy_s"] if server else 0.0
    metrics = {
        f"{name}.s": (t.self_s(name) / ops, "s/op") for name in PER_OP_TIMES
    }
    metrics.update(
        {f"{name}.calls": (t.calls(name) / ops, "calls/op") for name in PER_OP_CALLS}
    )
    metrics.update(
        {
            "scorers.distinct_query_ratio": (
                scorer.distinct_queries / scorer.expansions
                if scorer and scorer.expansions
                else 0.0,
                "ratio",
            ),
            "scorers.frames": (
                (server.get("frames_in", 0) + server.get("frames_out", 0)) / ops,
                "frames/op",
            ),
            "scorers.wire_bytes": (
                (server.get("bytes_in", 0) + server.get("bytes_out", 0)) / ops,
                "bytes/op",
            ),
            "scorers.server_busy_s": (server.get("busy_s", 0.0) / ops, "s/op"),
            "scorers.wire_wait_s": (wire_wait / ops, "s/op"),
            "constraints.states_peak": (t.state_peak, "states"),
            "constraints.states_mean": (
                t.state_sum / t.state_calls if t.state_calls else 0.0,
                "states",
            ),
            "constraints.distinct_mask_ratio": (
                t.distinct_masks / t.state_calls if t.state_calls else 0.0,
                "ratio",
            ),
            "beam.decode.s": (t.total_s("beam.decode") / ops, "s/op"),
            "beam.self_s": (t.self_s("beam.decode") / ops, "s/op"),
            "beam.steps": ((scorer.steps if scorer else 0) / ops, "steps/op"),
            "beam.expansions": ((scorer.expansions if scorer else 0) / ops, "rows/op"),
            "beam.bleu4": (quality, "BLEU"),
            "weather.synthesize.s": (median(result.synthesize_s), "s"),
            "scorers.train_ngram.s": (median(result.train_s), "s"),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treegen benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _load_package() is None:
        print(f"error: no treegen package under {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer
    from workloads import run_check, run_decode

    tracer = Tracer()
    if args.trace:
        tracer.install()
    workdir = HERE / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload == "check-corpus":
            result = run_check(args.seed, args.seconds, tracer, workdir)
        else:
            result = run_decode(args.workload, args.seed, args.seconds, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(result, tracer, _quality(result))
        trace_path = HERE / "out" / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "totals": tracer.totals, "ops": tracer.ops}) + "\n",
            encoding="utf-8",
        )
        # the traced run's own throughput, for the tracing overhead
        for name, (value, unit) in end_to_end(args.workload, result).items():
            print(f"traced {name} = {value:.6g} {unit}", file=sys.stderr)
    else:
        metrics = end_to_end(args.workload, result)
    for problem in result.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", file=sys.stderr)
    line = {
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
