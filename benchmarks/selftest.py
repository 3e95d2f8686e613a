"""Self-test: the independent skeleton checker agrees with check_tree.

Usage:
    python3 benchmarks/selftest.py

For each of SEEDS it synthesizes a corpus of N examples and compares the two checkers on
every reference (both must accept), on every corrupted line the
check-corpus workload would use (both must reject), and on random span
edits of the references (both must agree, whichever way).  Exits 1 on
the first disagreement.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treegen import check_tree, weather_ontology  # noqa: E402
from treegen.weather import synthesize_examples  # noqa: E402

from corrupt import KINDS, span_edits, corrupted_lines  # noqa: E402
from skeleton_check import skeleton_accepts  # noqa: E402

SEEDS = (1, 2, 3)
N = 400


def _edits(tokens: list[str], rng: random.Random) -> list[list[str]]:
    """Six random span edits, including on spans whose label repeats.

    The corruption generator only edits label-unique spans, so that the
    result is always invalid; here every span is eligible, which also
    yields valid outputs (a deleted node with a realized twin is ellipsis).
    """
    out = []
    for kind in KINDS:
        out.extend(span_edits(kind, tokens, lambda label: True))
    rng.shuffle(out)
    return out[:6]


def main() -> int:
    ontology = weather_ontology()
    counts = {"reference": 0, "corrupted": 0, "edited": 0, "edited_valid": 0}
    for seed in SEEDS:
        rng = random.Random(seed)
        examples = synthesize_examples(N, seed)
        for example in examples:
            mr = example.mr_tree(ontology)
            tokens = example.annotated_response.split()
            if not (skeleton_accepts(mr, tokens) and check_tree(mr, tokens)):
                print(f"seed {seed}: reference disagreement: {example.annotated_response}")
                return 1
            counts["reference"] += 1
            for edited in _edits(tokens, rng):
                mine, theirs = skeleton_accepts(mr, edited), check_tree(mr, edited)
                if mine != theirs:
                    print(f"seed {seed}: edit disagreement ({mine} vs {theirs}):")
                    print(f"  MR:     {example.mr}")
                    print(f"  output: {' '.join(edited)}")
                    return 1
                counts["edited"] += 1
                counts["edited_valid"] += mine
        for kind, bad in corrupted_lines(examples, len(examples) // 4, ontology, rng):
            mr = bad.mr_tree(ontology)
            if skeleton_accepts(mr, bad.annotated_response) or check_tree(
                mr, bad.annotated_response
            ):
                print(f"seed {seed}: {kind} corruption accepted: {bad.annotated_response}")
                return 1
            counts["corrupted"] += 1
    print(
        f"agree on {counts['reference']} references, {counts['corrupted']} corrupted "
        f"lines and {counts['edited']} span edits ({counts['edited_valid']} of them valid)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
