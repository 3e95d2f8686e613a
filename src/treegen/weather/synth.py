"""End-to-end corpus synthesis: scenarios to JSONL files.

Example i draws every random decision from its own stream seeded with
(seed, i), so generation is order-independent and reruns are
byte-identical.  The train/test split interleaves deterministically.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from ..corpus import CorpusExample, write_corpus, write_json
from ..ontology import NodeKind, Ontology, weather_ontology
from ..trees import linearize, parse_mr, signature, to_string
from .forecast import generate_forecast
from .realize import realize
from .rules import build_mr
from .scenario import SynthConfig, sample_scenario


def synthesize_example(index: int, seed: int,
                       config: SynthConfig | None = None) -> CorpusExample:
    """Generate example `index` of the corpus keyed by `seed`."""
    config = config or SynthConfig()
    rng = random.Random(f"{seed}:{index}")
    scenario = sample_scenario(rng, config)
    forecast = generate_forecast(scenario, rng, config)
    mr = build_mr(scenario, forecast, config)
    annotated = realize(mr, rng, config.ellipsis_probability)
    return CorpusExample(
        query=scenario.query,
        context={
            "reference": scenario.reference.isoformat(sep=" "),
            "location": scenario.location,
        },
        mr=to_string(mr),
        response=" ".join(annotated.words()),
        annotated_response=" ".join(linearize(annotated)),
    )


def synthesize_examples(n: int, seed: int,
                        config: SynthConfig | None = None) -> list[CorpusExample]:
    if n < 1:
        raise ValueError(f"need at least one example, got {n}")
    config = config or SynthConfig()
    return [synthesize_example(i, seed, config) for i in range(n)]


def split_examples(
    examples: Sequence[CorpusExample], train_fraction: float = 0.8
) -> tuple[list[CorpusExample], list[CorpusExample]]:
    """Deterministic interleaved split; proportions hold on any prefix."""
    if not 0.0 < train_fraction <= 1.0:
        raise ValueError(f"train fraction {train_fraction} outside (0, 1]")
    # exact rational arithmetic, so 0.8 really means one test example in five
    test_fraction = 1 - Fraction(train_fraction).limit_denominator(1_000_000)
    num, den = test_fraction.numerator, test_fraction.denominator
    train: list[CorpusExample] = []
    test: list[CorpusExample] = []
    for i, example in enumerate(examples):
        if (i + 1) * num // den > i * num // den:
            test.append(example)
        else:
            train.append(example)
    return train, test


def _act_count(example: CorpusExample, ontology: Ontology) -> int:
    tree = parse_mr(example.mr, ontology)
    return sum(
        1 for node in tree.root.iter_nodes() if node.kind is NodeKind.ACT
    )


def corpus_stats(train: Sequence[CorpusExample],
                 test: Sequence[CorpusExample],
                 ontology: Ontology | None = None) -> dict:
    """Histogram and structure-coverage statistics for a split corpus."""
    ontology = ontology or weather_ontology()
    train_sigs = [signature(parse_mr(e.mr, ontology)) for e in train]
    test_sigs = [signature(parse_mr(e.mr, ontology)) for e in test]
    seen = set(train_sigs)
    histogram = Counter(
        _act_count(e, ontology) for e in (*train, *test)
    )
    unseen = (
        sum(1 for s in test_sigs if s not in seen) / len(test_sigs)
        if test_sigs
        else 0.0
    )
    return {
        "examples": len(train) + len(test),
        "train_examples": len(train),
        "test_examples": len(test),
        "act_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "unique_signatures": len(seen | set(test_sigs)),
        "unseen_skeleton_fraction": unseen,
    }


def synthesize_corpus(n: int, seed: int, out_dir: str | Path,
                      train_fraction: float = 0.8,
                      config: SynthConfig | None = None) -> dict:
    """Write train.jsonl / test.jsonl / stats.json, creating out_dir; returns the stats."""
    out = Path(out_dir)
    examples = synthesize_examples(n, seed, config)
    train, test = split_examples(examples, train_fraction)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(out / "train.jsonl", train)
    write_corpus(out / "test.jsonl", test)
    stats = corpus_stats(train, test)
    write_json(out / "stats.json", stats)
    return {
        "train_path": str(out / "train.jsonl"),
        "test_path": str(out / "test.jsonl"),
        "stats_path": str(out / "stats.json"),
        "stats": stats,
    }
