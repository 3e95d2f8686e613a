"""Seeded inputs for the four workloads.

The scorer's training corpus is fixed; everything else is a function of
the seed, and the same seed gives the same held-out MRs, rounds and corpus
batches.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from treegen import (
    MrTree,
    NodeKind,
    canonicalize,
    linearize,
    signature,
    train_ngram,
    write_corpus,
)
from treegen.trees import MrNode
from treegen.weather import synthesize_examples

from corrupt import corrupted_lines

# decode workloads: the scorer is trained once on a fixed corpus, like a
# deployed model; --seed draws the held-out MRs it is asked to realize
TRAIN_SEED = 190607220
N_TRAIN = 1600
N_TEST = 600
ORDER = 4
# MRs per decode round, one from each length stratum of the held-out set
ROUND_SIZE = 5
# rounds prepared for the signature-anchored workloads
ROUNDS = 40
# decode-repeated: JOIN sizes and act signatures
REPEATS = (2, 4, 6, 8)
REPEATED_SIGNATURES = 4
# check-corpus: batches, clean lines and corrupted lines per batch
CHECK_BATCHES = 4
CHECK_CLEAN = 88
CHECK_CORRUPT = 12
CHECK_EXAMPLES = 500


@dataclass
class DecodeItem:
    """One MR to decode, with the references its BLEU is taken against."""

    mr: MrTree
    references: list[list[str]]
    label: str


def mr_length(mr: MrTree) -> int:
    return len(linearize(canonicalize(mr)))


def train_scorer(train, ontology):
    pairs = [(ex.mr_tree(ontology), ex.annotated_response.split()) for ex in train]
    return train_ngram(pairs, order=ORDER)


def training_corpus():
    return synthesize_examples(N_TRAIN, TRAIN_SEED)


def held_out(seed: int):
    return synthesize_examples(N_TEST, seed)


def corpus_rounds(train, test, ontology, seed: int) -> list[list[DecodeItem]]:
    """Held-out MRs in rounds of equal length profile (``train`` is unused).

    The MRs are sorted by linearized length and cut into ROUND_SIZE
    strata of equal count; round r takes the r-th MR of each stratum,
    after a seeded shuffle inside every stratum.  Every round then spans
    the whole length range, so short runs and different seeds see the
    same mix.
    """
    rng = random.Random(f"corpus-rounds:{seed}")
    items = [
        DecodeItem(ex.mr_tree(ontology), [ex.response.split()], f"test[{i}]")
        for i, ex in enumerate(test)
    ]
    items.sort(key=lambda item: mr_length(item.mr))
    per = len(items) // ROUND_SIZE
    strata = [items[s * per : (s + 1) * per] for s in range(ROUND_SIZE)]
    for stratum in strata:
        rng.shuffle(stratum)
    return [[stratum[r] for stratum in strata] for r in range(per)]


def _by_signature(examples, name: str, ontology, keep=lambda tree: True) -> dict[str, list]:
    """signature -> [(label, example, MR)] for the examples ``keep`` admits."""
    groups: dict[str, list] = {}
    for i, ex in enumerate(examples):
        tree = ex.mr_tree(ontology)
        if keep(tree):
            groups.setdefault(signature(tree), []).append((f"{name}[{i}]", ex, tree))
    return groups


def _sources(chosen, train_groups, test_groups, rng) -> dict[str, list]:
    """Held-out MRs for each chosen signature, in seeded order.

    A signature missing from the held-out set takes its training MRs:
    the scorer conditions on the signature, not the values, so they cost
    the same to decode.
    """
    sources = {sig: list(test_groups.get(sig) or train_groups[sig]) for sig in chosen}
    for sig in chosen:
        rng.shuffle(sources[sig])
    return sources


def anchored_rounds(train, test, ontology, seed: int) -> list[list[DecodeItem]]:
    """Held-out MRs of fixed signatures spanning the length range.

    The training MRs are sorted by linearized length and cut into
    ROUND_SIZE strata of equal count; each stratum contributes its most
    common signature.  Round r holds one held-out MR of each of those
    signatures, drawn and ordered by the seed, so every round costs the
    same to decode whatever the seed.
    """
    rng = random.Random(f"anchored-rounds:{seed}")
    train_groups = _by_signature(train, "train", ontology)
    ranked = sorted(
        ((mr_length(tree), sig) for sig, group in train_groups.items() for _, _, tree in group)
    )
    per = len(ranked) // ROUND_SIZE
    chosen = []
    for s in range(ROUND_SIZE):
        counts = Counter(sig for _, sig in ranked[s * per : (s + 1) * per])
        chosen.append(min(counts, key=lambda sig: (-counts[sig], sig)))
    sources = _sources(chosen, train_groups, _by_signature(test, "test", ontology), rng)
    rounds = []
    for r in range(ROUNDS):
        row = []
        for sig in chosen:
            name, ex, tree = sources[sig][r % len(sources[sig])]
            row.append(DecodeItem(tree, [ex.response.split()], name))
        rng.shuffle(row)
        rounds.append(row)
    return rounds


def repeated_rounds(train, test, ontology, seed: int) -> list[list[DecodeItem]]:
    """JOINs of k identical INFORM acts, every (signature, k) pair per round.

    The scorer conditions on an MR's signature, not its values, so the
    cost of decoding a JOIN of k copies of an act is set by the act's
    signature and k.  The signatures are therefore fixed: the
    REPEATED_SIGNATURES most common ones among single-INFORM training
    examples.  The seed draws the acts (held-out examples whose whole MR
    is a single INFORM with one of those signatures) and the order of the
    pairs inside each round.  Realizing any number of the k copies from 1
    to k is valid (the rest are elided), so the references are the source
    response repeated 1..k times.
    """
    rng = random.Random(f"repeated-rounds:{seed}")

    def inform(tree):
        return tree.root.label == "INFORM"

    train_groups = _by_signature(train, "train", ontology, inform)
    chosen = sorted(train_groups, key=lambda sig: (-len(train_groups[sig]), sig))
    chosen = chosen[:REPEATED_SIGNATURES]
    sources = _sources(chosen, train_groups, _by_signature(test, "test", ontology, inform), rng)
    rounds = []
    for r in range(ROUNDS):
        row = []
        for sig in chosen:
            name, ex, tree = sources[sig][r % len(sources[sig])]
            words = ex.response.split()
            for k in REPEATS:
                row.append(
                    DecodeItem(
                        MrTree(MrNode(NodeKind.RELATION, "JOIN", (tree.root,) * k)),
                        [words * n for n in range(1, k + 1)],
                        f"{name} x{k}",
                    )
                )
        rng.shuffle(row)
        rounds.append(row)
    return rounds


@dataclass
class CheckBatch:
    """One corpus file for the check pipeline and what it must yield."""

    corpus: Path
    predictions: Path
    lines: list[str]
    corrupted: set[int]  # 1-based line numbers


def check_examples(seed: int):
    return synthesize_examples(CHECK_EXAMPLES, seed)


def check_batches(examples, seed: int, ontology, workdir: Path) -> list[CheckBatch]:
    """CHECK_BATCHES corpus files of clean and corrupted lines.

    Corrupted lines sit at seeded positions; each one is a corruption of
    an example outside the clean set, confirmed invalid by the
    independent checker.  The predictions file holds every clean line's
    annotated reference, indexed into the batch.
    """
    rng = random.Random(f"check-batches:{seed}")
    clean_count = CHECK_BATCHES * CHECK_CLEAN
    clean, pool = examples[:clean_count], examples[clean_count:]
    bad = [ex for _, ex in corrupted_lines(pool, CHECK_BATCHES * CHECK_CORRUPT, ontology, rng)]
    batches = []
    for b in range(CHECK_BATCHES):
        rows = clean[b * CHECK_CLEAN : (b + 1) * CHECK_CLEAN]
        rows = [(ex, False) for ex in rows]
        for ex in bad[b * CHECK_CORRUPT : (b + 1) * CHECK_CORRUPT]:
            rows.insert(rng.randrange(len(rows) + 1), (ex, True))
        corpus = workdir / f"batch{b}.jsonl"
        write_corpus(corpus, [ex for ex, _ in rows])
        predictions = workdir / f"batch{b}.predictions.jsonl"
        with open(predictions, "w", encoding="utf-8") as fh:
            for index, (ex, corrupt) in enumerate(rows):
                if not corrupt:
                    record = {
                        "index": index,
                        "tokens": ex.annotated_response.split(),
                        "failure": None,
                    }
                    fh.write(json.dumps(record) + "\n")
        batches.append(
            CheckBatch(
                corpus=corpus,
                predictions=predictions,
                lines=corpus.read_text(encoding="utf-8").splitlines(),
                corrupted={i + 1 for i, (_, corrupt) in enumerate(rows) if corrupt},
            )
        )
    return batches
