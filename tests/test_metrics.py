"""Metric correctness against hand computations and direct-summation oracles.

The corpus BLEU check freezes a two-sentence example whose modified
n-gram precisions and brevity penalty were counted by hand; the entropy
checks recompute -sum(p log2 p) with independent loops.
"""

import math
import random
from collections import Counter

import pytest

from test_constraints import restaurant_example
from treegen.metrics import (
    DiversityRecord,
    EvalReport,
    bleu4,
    diversity,
    tree_accuracy,
)
from treegen.ontology import weather_ontology
from treegen.scorers import EmptyCorpus
from treegen.trees import parse_mr

ONT = weather_ontology()


class TestTreeAccuracy:
    def test_references_of_fixture_mrs_score_one(self):
        mr, valid_1, valid_2, _ = restaurant_example()
        accuracy, flags = tree_accuracy([(mr, valid_1), (mr, valid_2)])
        assert accuracy == 1.0
        assert flags == [True, True]

    def test_figure_outputs_two_of_three(self):
        mr, valid_1, valid_2, invalid_3 = restaurant_example()
        accuracy, flags = tree_accuracy(
            [(mr, valid_1), (mr, valid_2), (mr, invalid_3)]
        )
        assert accuracy == pytest.approx(2 / 3)
        assert flags == [True, True, False]

    def test_one_corrupted_among_ten(self):
        mr = parse_mr("[INFORM [temp 20 ] [humidity low ] ]", ONT)
        good = "[INFORM [temp 20 ] and [humidity low ] ]".split()
        bad = "[INFORM [temp 20 ] ]".split()  # humidity omitted, no twin
        pairs = [(mr, good)] * 9 + [(mr, bad)]
        accuracy, flags = tree_accuracy(pairs)
        assert accuracy == pytest.approx(0.9)
        assert flags.count(False) == 1

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyCorpus):
            tree_accuracy([])


H1 = "it will rain on friday night".split()
R1 = "it will rain on friday morning".split()
H2 = "sunny today".split()
R2 = "sunny and mild today".split()


class TestCorpusBleu:
    def test_identical_pair_scores_one(self):
        assert bleu4([R1], [[R1]]) == pytest.approx(1.0, abs=1e-12)

    def test_no_shared_fourgram_scores_zero(self):
        hyp = "the cat sat on the mat".split()
        ref = "the cat is on the mat".split()  # shares trigrams, no 4-gram
        assert bleu4([hyp], [[ref]]) == 0.0

    def test_two_sentence_corpus_matches_hand_computation(self):
        # counted by hand:
        #   p1 = (5+2)/(6+2) = 7/8    p2 = (4+0)/(5+1) = 2/3
        #   p3 = (3+0)/(4+0) = 3/4    p4 = (2+0)/(3+0) = 2/3
        #   c = 8, r = 10, BP = exp(1 - 10/8) = exp(-1/4)
        expected = math.exp(-0.25) * (7 / 8 * 2 / 3 * 3 / 4 * 2 / 3) ** 0.25
        got = bleu4([H1, H2], [[R1], [R2]])
        assert got == pytest.approx(expected, abs=1e-12)

    def test_corpus_order_does_not_matter(self):
        forward = bleu4([H1, H2], [[R1], [R2]])
        backward = bleu4([H2, H1], [[R2], [R1]])
        assert forward == backward

    def test_extra_reference_can_only_add_matches(self):
        hyp = "x y z w a b".split()
        ref_1 = "x y z w q".split()
        ref_2 = "z w a b c".split()
        single = bleu4([hyp], [[ref_1]])
        multi = bleu4([hyp], [[ref_1, ref_2]])
        assert multi > single

    def test_value_stays_in_unit_interval(self):
        rng = random.Random(31)
        words = "a b c d e".split()
        for _ in range(50):
            hyp = [rng.choice(words) for _ in range(rng.randint(4, 9))]
            ref = [rng.choice(words) for _ in range(rng.randint(4, 9))]
            score = bleu4([hyp], [[ref]])
            assert 0.0 <= score <= 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            bleu4([], [])

    def test_misaligned_references_rejected(self):
        with pytest.raises(ValueError):
            bleu4([H1], [])
        with pytest.raises(ValueError):
            bleu4([H1], [[]])


class TestDiversity:
    def test_single_repeated_token(self):
        record = diversity([["x", "x", "x", "x"]])
        assert record.unique_tokens == 1
        assert record.unique_trigrams == 1
        assert record.shannon_entropy_bits == 0.0
        assert record.conditional_bigram_entropy_bits == pytest.approx(0.0, abs=1e-12)

    def test_uniform_corpus_entropy_is_log2_v(self):
        v = 16
        corpus = [[f"t{i}"] for i in range(v)]
        record = diversity(corpus)
        assert record.shannon_entropy_bits == pytest.approx(math.log2(v), abs=1e-12)
        assert record.unique_tokens == v

    def test_conditional_entropy_hand_example(self):
        # pairs: (start,a) x2, (a,b), (a,c) -> H(W2|W1) = 0.5 bits
        record = diversity([["a", "b"], ["a", "c"]])
        assert record.conditional_bigram_entropy_bits == pytest.approx(0.5, abs=1e-12)
        assert record.shannon_entropy_bits == pytest.approx(1.5, abs=1e-12)

    def test_token_entropy_matches_direct_summation(self):
        rng = random.Random(7)
        corpus = [
            [rng.choice("pqrs") for _ in range(rng.randint(1, 9))] for _ in range(40)
        ]
        record = diversity(corpus)
        counts = Counter(t for s in corpus for t in s)
        total = sum(counts.values())
        direct = -sum(c / total * math.log2(c / total) for c in counts.values())
        assert record.shannon_entropy_bits == pytest.approx(direct, abs=1e-9)

    def test_conditional_entropy_matches_direct_summation(self):
        rng = random.Random(8)
        corpus = [
            [rng.choice("pqr") for _ in range(rng.randint(1, 7))] for _ in range(30)
        ]
        record = diversity(corpus)
        pairs = Counter()
        for sentence in corpus:
            prev = "<start>"
            for token in sentence:
                pairs[(prev, token)] += 1
                prev = token
        total = sum(pairs.values())
        firsts = Counter()
        for (w1, _), c in pairs.items():
            firsts[w1] += c
        direct = -sum(
            c / total * math.log2(c / firsts[w1]) for (w1, _), c in pairs.items()
        )
        assert record.conditional_bigram_entropy_bits == pytest.approx(direct, abs=1e-9)

    def test_conditional_never_exceeds_token_entropy(self):
        rng = random.Random(9)
        for _ in range(100):
            vocab = [f"w{i}" for i in range(rng.randint(2, 12))]
            corpus = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
                for _ in range(rng.randint(1, 25))
            ]
            record = diversity(corpus)
            assert (
                record.conditional_bigram_entropy_bits
                <= record.shannon_entropy_bits + 1e-12
            )

    def test_empty_corpus_is_all_zero(self):
        record = diversity([])
        assert record == DiversityRecord(0, 0, 0.0, 0.0)


class TestEvalReport:
    def test_json_shape_and_version(self):
        record = diversity([["a", "b"]])
        report = EvalReport(
            tree_accuracy=1.0,
            bleu4=0.5,
            diversity=record,
            examples_evaluated=1,
            per_example=[{"index": 0, "tree_valid": True}],
        )
        data = report.to_json()
        assert data["report_version"] == 1
        assert data["diversity"]["unique_tokens"] == 2
        assert data["per_example"][0]["tree_valid"] is True
