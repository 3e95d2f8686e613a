"""Evaluation: tree accuracy, corpus BLEU-4, diversity statistics.

BLEU is computed from integer n-gram counts with multi-reference
clipping and a brevity penalty, no smoothing, so corpus order cannot
change the score.  Entropies are in bits.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .constraints import check_tree
from .scorers import EmptyCorpus
from .trees import MrNode, MrTree

REPORT_VERSION = 1

# conditional bigram pairs are padded with a start marker so that the
# second-component marginal equals the token distribution exactly
_START = "<start>"


def tree_accuracy(
    pairs: Iterable[tuple[MrTree | MrNode, Sequence[str]]]
) -> tuple[float, list[bool]]:
    """Fraction of predictions accepted by their MR's constraint check."""
    flags = [check_tree(mr, tokens) for mr, tokens in pairs]
    if not flags:
        raise EmptyCorpus("no (mr, prediction) pairs")
    return sum(flags) / len(flags), flags


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_length(hyp_len: int, references: Sequence[Sequence[str]]) -> int:
    # ties go to the shorter reference
    return min((abs(len(r) - hyp_len), len(r)) for r in references)[1]


def bleu4(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[Sequence[str]]],
) -> float:
    """Corpus BLEU-4 with clipping and brevity penalty, unsmoothed.

    ``references[i]`` is the reference set for ``hypotheses[i]``.
    """
    if not hypotheses:
        raise EmptyCorpus("no hypotheses")
    if len(hypotheses) != len(references):
        raise ValueError("hypotheses and references must align")
    if any(not refs for refs in references):
        raise ValueError("every hypothesis needs at least one reference")
    matched = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, references):
        hyp = list(hyp)
        hyp_len += len(hyp)
        ref_len += _closest_ref_length(len(hyp), refs)
        for n in range(1, 5):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            best = Counter()
            for ref in refs:
                for gram, c in _ngrams(ref, n).items():
                    if c > best[gram]:
                        best[gram] = c
            total[n - 1] += sum(counts.values())
            matched[n - 1] += sum(min(c, best[gram]) for gram, c in counts.items())
    if hyp_len == 0 or any(t == 0 for t in total) or any(m == 0 for m in matched):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matched, total)) / 4
    brevity = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(brevity + log_precision)


@dataclass(frozen=True)
class DiversityRecord:
    unique_tokens: int
    unique_trigrams: int
    shannon_entropy_bits: float
    conditional_bigram_entropy_bits: float

    def to_json(self) -> dict:
        return {
            "unique_tokens": self.unique_tokens,
            "unique_trigrams": self.unique_trigrams,
            "shannon_entropy_bits": self.shannon_entropy_bits,
            "conditional_bigram_entropy_bits": self.conditional_bigram_entropy_bits,
        }


def _entropy_bits(counts: Counter) -> float:
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def diversity(corpus: Iterable[Sequence[str]]) -> DiversityRecord:
    """Token/trigram variety and entropy statistics of hypothesis text."""
    token_counts: Counter = Counter()
    trigrams: set = set()
    pair_counts: Counter = Counter()
    first_counts: Counter = Counter()
    for sentence in corpus:
        sentence = list(sentence)
        token_counts.update(sentence)
        trigrams.update(_ngrams(sentence, 3))
        prev = _START
        for token in sentence:
            pair_counts[(prev, token)] += 1
            first_counts[prev] += 1
            prev = token
    total = sum(pair_counts.values())
    conditional = 0.0
    if total:
        # H(W2|W1) = H(W1, W2) - H(W1)
        conditional = _entropy_bits(pair_counts) - _entropy_bits(first_counts)
    return DiversityRecord(
        unique_tokens=len(token_counts),
        unique_trigrams=len(trigrams),
        shannon_entropy_bits=_entropy_bits(token_counts),
        conditional_bigram_entropy_bits=conditional,
    )


@dataclass
class EvalReport:
    """Everything the evaluate step reports, JSON-serializable."""

    tree_accuracy: float
    bleu4: float
    diversity: DiversityRecord
    examples_evaluated: int
    per_example: list[dict] = field(default_factory=list)
    report_version: int = REPORT_VERSION

    def to_json(self) -> dict:
        return {
            "report_version": self.report_version,
            "tree_accuracy": self.tree_accuracy,
            "bleu4": self.bleu4,
            "diversity": self.diversity.to_json(),
            "examples_evaluated": self.examples_evaluated,
            "per_example": self.per_example,
        }
