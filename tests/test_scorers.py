"""Scorer behaviour: uniform baseline, n-gram estimates, wire protocol.

N-gram probability values are cross-checked against a scalar
reimplementation of interpolated absolute discounting (oracles.ref_ngram_prob)
that recomputes counts from the raw streams on every call.
"""

import base64
import io
import json
import math
import os
import pickle
import subprocess
import sys
import time
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ref_ngram_prob
from treegen import scorers
from treegen.ontology import weather_ontology
from treegen.scorers import (
    EmptyCorpus,
    ExternalScorer,
    NGramModel,
    ProtocolViolation,
    ScorerUnavailable,
    UniformScorer,
    bind,
    sequence_logprob,
    serve_loop,
    train_ngram,
)
from treegen.trees import canonicalize, linearize, parse_mr
from treegen.vocab import UnknownToken, Vocabulary

ONT = weather_ontology()


def mk(text):
    return parse_mr(text, ONT)


def assert_normalized(vec, tolerance=1e-9):
    assert abs(float(np.exp(vec).sum()) - 1.0) <= tolerance


def whole(session, prefixes):
    """One session call that sends every prefix whole, from parent -1."""
    return session.logprobs([-1] * len(prefixes), prefixes)


class TestUniformScorer:
    def test_every_entry_log_inverse_vocab_size(self):
        vocab = Vocabulary.from_tokens(["a", "b", "c"])
        scorer = UniformScorer(vocab)
        vec = scorer.logprobs([], None)
        assert np.allclose(vec, -math.log(len(vocab)))
        assert_normalized(vec)

    def test_returned_vector_is_private_copy(self):
        scorer = UniformScorer(Vocabulary.from_tokens(["a"]))
        first = scorer.logprobs([], None)
        first[0] = 123.0
        second = scorer.logprobs([], None)
        assert second[0] != 123.0

    def test_out_of_vocabulary_prefix_id_raises(self):
        scorer = UniformScorer(Vocabulary.from_tokens(["a"]))
        with pytest.raises(UnknownToken):
            scorer.logprobs([999], None)


def single_sequence_model(repeats=1, order=2):
    corpus = [(None, ["a", "b", "c"])] * repeats
    return train_ngram(corpus, order=order)


class TestTrainNgram:
    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            train_ngram([])

    def test_single_sequence_b_dominates_after_a(self):
        model = single_sequence_model()
        vocab = model.vocabulary
        vec = model.logprobs(vocab.encode(["a"]))
        assert int(np.argmax(vec)) == vocab.encode(["b"])[0]
        assert_normalized(vec)

    def test_repetition_concentrates_mass(self):
        # discounting reserves D per distinct continuation, so a
        # single-path corpus reaches near-1 only with real counts
        model = single_sequence_model(repeats=100)
        vocab = model.vocabulary
        vec = model.logprobs(vocab.encode(["a"]))
        assert math.exp(vec[vocab.encode(["b"])[0]]) > 0.99

    def test_estimates_match_scalar_reference(self):
        corpus = [
            (None, ["a", "b", "c"]),
            (None, ["a", "b", "c"]),
            (None, ["a", "b", "c"]),
            (None, ["a", "b", "d"]),
        ]
        model = train_ngram(corpus, order=2)
        vocab = model.vocabulary
        streams = [vocab.encode(toks) + [vocab.eos_id] for _, toks in corpus]
        for ctx_tok, target_tok in [
            ("b", "c"),
            ("b", "d"),
            ("a", "b"),
            ("c", "a"),  # unseen continuation
        ]:
            target = vocab.encode([target_tok])[0]
            got = math.exp(model.logprobs(vocab.encode([ctx_tok]))[target])
            want = ref_ngram_prob(
                streams,
                order=2,
                discount=0.75,
                vocab_size=len(vocab),
                context=tuple(vocab.encode([ctx_tok])),
                target=target,
                bos=vocab.bos_id,
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_majority_continuation_scores_higher(self):
        corpus = [(None, ["a", "b", "c"])] * 3 + [(None, ["a", "b", "d"])]
        model = train_ngram(corpus, order=2)
        vocab = model.vocabulary
        vec = model.logprobs(vocab.encode(["b"]))
        assert vec[vocab.encode(["c"])[0]] > vec[vocab.encode(["d"])[0]]

    def test_normalization_across_contexts(self):
        corpus = [
            (None, "the rain stays mainly dry".split()),
            (None, "the rain stops".split()),
            (None, "dry and sunny".split()),
        ]
        model = train_ngram(corpus, order=3)
        vocab = model.vocabulary
        prefixes = [[], ["the"], ["the", "rain"], ["sunny"], ["dry", "and"]]
        for prefix in prefixes:
            assert_normalized(model.logprobs(vocab.encode(prefix)))

    def test_mr_tokens_enter_the_vocabulary(self):
        mr = mk("[INFORM [temp 20 ] ]")
        model = train_ngram([(mr, ["warm", "today"])])
        ids = model.vocabulary.encode(linearize(canonicalize(mr)))
        assert model.vocabulary.unk_id not in ids

    def test_invalid_hyperparameters_rejected(self):
        vocab = Vocabulary.from_tokens(["a"])
        with pytest.raises(ValueError):
            NGramModel(vocab, order=0)
        with pytest.raises(ValueError):
            NGramModel(vocab, discount=1.0)


class TestBackoff:
    def test_unseen_contexts_share_the_backoff_vector(self):
        corpus = [(None, ["x", "y", "z"]), (None, ["p", "y", "q"])]
        model = train_ngram(corpus, order=3)
        vocab = model.vocabulary
        # neither (z, y) nor (q, y) was seen; both fall back to (y,)
        a = model.logprobs(vocab.encode(["z", "y"]))
        b = model.logprobs(vocab.encode(["q", "y"]))
        assert np.array_equal(a, b)

    def test_clearing_top_level_reproduces_lower_order_model(self):
        corpus = [
            (None, "it will rain today".split()),
            (None, "it will snow today".split()),
            (None, "rain tomorrow".split()),
        ]
        tokens = sorted({t for _, toks in corpus for t in toks})
        vocab = Vocabulary.from_tokens(tokens)
        high = train_ngram(corpus, order=3, vocabulary=vocab)
        low = train_ngram(corpus, order=2, vocabulary=vocab)
        # reach into the count tables: the invariant is about the math,
        # not the public surface
        high._global.counts[2].clear()
        high._global.totals[2].clear()
        high._log_rows.clear()
        for prefix in [[], ["it"], ["it", "will"], ["rain", "tomorrow"]]:
            assert np.array_equal(
                high.logprobs(vocab.encode(prefix)),
                low.logprobs(vocab.encode(prefix)),
            )


class TestSignatureSubmodels:
    def build(self):
        mr_a = mk("[INFORM [temp 20 ] ]")
        mr_b = mk("[RECOMMEND [activity hike ] ]")
        corpus = [(mr_a, ["alpha", "beta", "gamma"])] * 6
        corpus += [(mr_b, ["delta", "epsilon", "zeta"])] * 6
        return mr_a, mr_b, train_ngram(corpus, order=3)

    def test_submodel_likes_its_own_style_more_than_global(self):
        mr_a, _, model = self.build()
        own = sequence_logprob(model, ["alpha", "beta", "gamma"], mr_a)
        blended = sequence_logprob(model, ["alpha", "beta", "gamma"], None)
        assert own > blended

    def test_tree_and_id_contexts_agree(self):
        mr_a, _, model = self.build()
        vocab = model.vocabulary
        ids = vocab.encode(linearize(canonicalize(mr_a)))
        prefix = vocab.encode(["alpha"])
        assert np.array_equal(
            model.logprobs(prefix, mr_a), model.logprobs(prefix, ids)
        )

    def test_rare_signature_uses_global_model(self):
        mr_a = mk("[INFORM [temp 20 ] ]")
        mr_c = mk("[ERROR [error_reason unknown ] ]")
        corpus = [(mr_a, ["alpha", "beta"])] * 6 + [(mr_c, ["oops"])] * 4
        model = train_ngram(corpus, order=2)
        vocab = model.vocabulary
        prefix = vocab.encode(["oops"])
        assert np.array_equal(
            model.logprobs(prefix, mr_c), model.logprobs(prefix, None)
        )


class TestSaveLoad:
    def test_round_trip_preserves_predictions(self, tmp_path):
        mr_a, _, model = TestSignatureSubmodels().build()
        path = tmp_path / "model.json"
        model.save(path)
        loaded = NGramModel.load(path)
        assert loaded.vocabulary == model.vocabulary
        vocab = model.vocabulary
        for prefix in [[], ["alpha"], ["alpha", "beta"], ["zeta"]]:
            for context in [None, mr_a]:
                assert np.array_equal(
                    loaded.logprobs(vocab.encode(prefix), context),
                    model.logprobs(vocab.encode(prefix), context),
                )

    def test_unknown_version_rejected(self, tmp_path):
        model = single_sequence_model()
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            NGramModel.load(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValueError):
            NGramModel.load(path)

    def test_missing_fields_rejected_by_name(self, tmp_path):
        path = tmp_path / "hollow.json"
        path.write_text(json.dumps({"format": "treegen-ngram", "version": 1}))
        with pytest.raises(ValueError, match="'vocabulary'"):
            NGramModel.load(path)

    @pytest.mark.parametrize("payload", [[], "model", 3, None])
    def test_payload_that_is_not_an_object_rejected(self, tmp_path, payload):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not a JSON object"):
            NGramModel.load(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update({"global": {"levels": 5}}), "global: 'levels'"),
            (lambda p: p.update({"global": []}), "'global' has type list"),
            (lambda p: p["global"]["levels"].pop(), "global: 'levels' must be a list of 2"),
            (lambda p: p["global"]["levels"].__setitem__(1, {}), "level 1 is not a list"),
            (lambda p: p["global"]["levels"][1].append([[4], 7]), "level 1 entry"),
            (lambda p: p["global"]["levels"][1].append([[4, 4], []]), "level 1 entry"),
            (lambda p: p["global"]["levels"][1].append([["a"], []]), "level 1 entry"),
            (lambda p: p["global"]["levels"][1].append([[4], [[5, "2"]]]), "count"),
            (lambda p: p["global"]["levels"][1].append([[4], [[99, 2]]]), "count"),
            (lambda p: p["global"]["levels"][1].append([[4], [[-1, 2]]]), "count"),
            (lambda p: p["global"]["levels"][1].append([[4], [[5, 0]]]), "count"),
            (lambda p: p["global"]["levels"][1].append([[4], [[5]]]), "count"),
            (lambda p: p.update({"signatures": {"( )": 5}}), "signature '\\( \\)'"),
            (lambda p: p.update({"signatures": []}), "'signatures' has type list"),
            (lambda p: p.update({"order": "2"}), "'order' has type str"),
            (lambda p: p.update({"order": True}), "'order' has type bool"),
            (lambda p: p.update({"discount": None}), "'discount' has type NoneType"),
            (lambda p: p.update({"min_signature_examples": 1.5}), "has type float"),
            (lambda p: p.update({"vocabulary": "abc"}), "'vocabulary' has type str"),
            (lambda p: p["vocabulary"].append(7), "only strings"),
            (lambda p: p.update({"discount": 2}), "discount must lie in"),
        ],
    )
    def test_fields_of_the_wrong_type_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        single_sequence_model(order=2).save(path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            NGramModel.load(path)


class TestBindMemo:
    def count_signatures(self, monkeypatch):
        calls = []
        real = scorers._context_signature

        def counting(vocabulary, context):
            calls.append(context)
            return real(vocabulary, context)

        monkeypatch.setattr(scorers, "_context_signature", counting)
        return calls

    def test_same_id_context_resolves_its_signature_once(self, monkeypatch):
        mr_a, mr_b, model = TestSignatureSubmodels().build()
        vocab = model.vocabulary
        ids_a = vocab.encode(linearize(canonicalize(mr_a)))
        calls = self.count_signatures(monkeypatch)
        prefix = vocab.encode(["alpha"])
        first = model.logprobs(prefix, ids_a)
        again = model.logprobs(prefix, list(ids_a))
        assert len(calls) == 1
        assert np.array_equal(first, again)
        assert np.array_equal(first, model.logprobs(prefix, mr_a))

    def test_memo_follows_the_last_context(self, monkeypatch):
        mr_a, mr_b, model = TestSignatureSubmodels().build()
        vocab = model.vocabulary
        prefix = vocab.encode(["alpha"])
        ids = {mr: vocab.encode(linearize(canonicalize(mr))) for mr in (mr_a, mr_b)}
        calls = self.count_signatures(monkeypatch)
        for mr in (mr_a, mr_b, mr_a, mr_a, mr_b):
            assert np.array_equal(model.logprobs(prefix, ids[mr]), model.logprobs(prefix, mr))
        # one per tree context, and one per change of id context
        assert len(calls) == 5 + 4

    def test_bad_context_raises_on_every_call(self):
        model = single_sequence_model()
        size = len(model.vocabulary)
        for _ in range(3):
            for bad in ([0, size], [-1]):
                with pytest.raises(UnknownToken):
                    model.bind(bad)
        assert model._last_bind is None

    def test_pickled_model_carries_no_memo(self):
        model = single_sequence_model(order=3)
        model.bind([0, 1])
        prefixes = [[], [4], [4, 5], [5, 4], [4]]
        want = whole(model.bind([0, 1]), prefixes)
        assert model._last_bind is not None
        assert model._log_rows
        clone = pickle.loads(pickle.dumps(model))
        assert clone._last_bind is None
        # an empty LRU that can still reorder: a --jobs worker's clone
        assert type(clone._log_rows) is OrderedDict and not clone._log_rows
        assert np.array_equal(clone.logprobs([], [0, 1]), model.logprobs([], [0, 1]))
        assert whole(clone.bind([0, 1]), prefixes).tobytes() == want.tobytes()
        assert whole(clone.bind([0, 1]), prefixes).tobytes() == want.tobytes()


class TestPerplexity:
    def test_trained_model_beats_uniform_on_training_data(self):
        corpus = [
            (None, "rain is likely today".split()),
            (None, "rain is unlikely today".split()),
            (None, "sunny all day".split()),
        ] * 3
        model = train_ngram(corpus, order=3)
        uniform = UniformScorer(model.vocabulary)

        # one token count for both, so lower perplexity is a higher total
        def total(scorer):
            return sum(sequence_logprob(scorer, tokens, context) for context, tokens in corpus)

        assert total(model) > total(uniform)


class LogprobsOnly:
    """A scorer with only the per-prefix ``logprobs``: the adapter path."""

    def __init__(self, inner):
        self.vocabulary = inner.vocabulary
        self._inner = inner
        self.calls = 0

    def logprobs(self, prefix, context=None):
        self.calls += 1
        return self._inner.logprobs(prefix, context)


class CountingBinder:
    """Wraps a scorer's ``bind``; counts binds and session calls."""

    def __init__(self, inner):
        self.vocabulary = inner.vocabulary
        self._inner = inner
        self.binds = 0
        self.requests: list[list[tuple[int, tuple[int, ...]]]] = []

    def logprobs(self, prefix, context=None):
        raise AssertionError("the per-prefix path was used")

    def bind(self, context=None):
        self.binds += 1
        inner = bind(self._inner, context)
        outer = self

        class Session:
            def logprobs(self, parents, tails):
                outer.requests.append([(p, tuple(t)) for p, t in zip(parents, tails)])
                return inner.logprobs(parents, tails)

        return Session()


class TestSessions:
    PREFIXES = [[], ["alpha"], ["alpha", "beta"], ["zeta", "alpha", "beta", "gamma"], ["alpha"]]

    def test_rows_equal_per_prefix_logprobs_bit_for_bit(self):
        mr_a, mr_b, model = TestSignatureSubmodels().build()
        vocab = model.vocabulary
        prefixes = [vocab.encode(p) for p in self.PREFIXES]
        for context in [None, mr_a, mr_b, vocab.encode(linearize(canonicalize(mr_a)))]:
            matrix = whole(model.bind(context), prefixes)
            assert matrix.shape == (len(prefixes), len(vocab))
            assert matrix.dtype == np.float64
            for row, prefix in zip(matrix, prefixes):
                assert np.array_equal(row, model.logprobs(prefix, context))
            lifted = whole(bind(LogprobsOnly(model), context), prefixes)
            assert np.array_equal(lifted, matrix)

    def test_rows_are_independent_of_the_memo(self):
        # the same context twice in one call, and again in a later call,
        # gives the same row, and writing to one answer leaves the next alone
        model = single_sequence_model(order=3)
        vocab = model.vocabulary
        session = model.bind(None)
        first = whole(session, [vocab.encode(["a"]), vocab.encode(["a"])])
        assert np.array_equal(first[0], first[1])
        first[0, 0] = 123.0
        again = session.logprobs([1], [[]])
        assert np.array_equal(again[0], first[1])

    def test_every_prefix_id_is_validated(self):
        model = single_sequence_model()
        size = len(model.vocabulary)
        session = model.bind(None)
        for bad in ([size], [-1], [0, 1, size + 5, 2]):
            with pytest.raises(UnknownToken) as info:
                whole(session, [[0], bad])
            assert info.value.args[0] == next(i for i in bad if not 0 <= i < size)

    def test_extending_prefix_with_a_bad_last_id_raises(self):
        model = single_sequence_model(order=3)
        size = len(model.vocabulary)
        for bad in (size, size + 3, -1):
            session = model.bind(None)
            whole(session, [[], [2]])
            session.logprobs([1], [[3]])  # [2, 3]
            with pytest.raises(UnknownToken) as info:
                session.logprobs([0, 0], [[4], [bad]])
            assert info.value.args[0] == bad

    def test_non_extending_prefix_is_checked_whole(self):
        model = single_sequence_model(order=3)
        size = len(model.vocabulary)
        session = model.bind(None)
        whole(session, [[2], [3]])
        # [2, size + 1, 3] is sent whole, from parent -1
        with pytest.raises(UnknownToken) as info:
            session.logprobs([0, -1], [[3], [2, size + 1, 3]])
        assert info.value.args[0] == size + 1
        with pytest.raises(UnknownToken) as info:
            whole(session, [[-1, 2, 3]])
        assert info.value.args[0] == -1

    @settings(max_examples=60, deadline=None)
    @given(
        order=st.integers(1, 4),
        steps=st.lists(
            st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)), max_size=5),
            max_size=8,
        ),
    )
    def test_incremental_rows_equal_a_fresh_session(self, order, steps):
        # each step extends rows of the step before (parent picked modulo
        # their count) or, from an empty step, starts a new prefix
        model = single_sequence_model(repeats=3, order=order)
        size = len(model.vocabulary)
        session = model.bind(None)
        whole(session, [()])
        previous = [()]
        for step in steps:
            parents = [pick % len(previous) if previous else -1 for pick, _ in step]
            tails = [(token % size,) for _, token in step]
            prefixes = [
                previous[p] + tail if p >= 0 else tail for p, tail in zip(parents, tails)
            ]
            matrix = session.logprobs(parents, tails)
            fresh = whole(model.bind(None), prefixes)
            assert matrix.tobytes() == fresh.tobytes()
            previous = prefixes

    def test_adapter_asks_once_per_prefix(self):
        double = LogprobsOnly(UniformScorer(Vocabulary.from_tokens(["a", "b"])))
        matrix = whole(bind(double, None), [[], [4], [4, 5]])
        assert matrix.shape == (3, len(double.vocabulary))
        assert double.calls == 3

    def test_empty_request_is_an_empty_matrix(self):
        model = single_sequence_model()
        assert model.bind(None).logprobs([], []).shape == (0, len(model.vocabulary))


class TestSessionInput:
    @pytest.mark.parametrize("lifted", [False, True], ids=["native", "adapter"])
    def test_bad_parents_raise_value_error_and_keep_the_rows(self, lifted):
        model = single_sequence_model(order=3)
        size = len(model.vocabulary)
        scorer = LogprobsOnly(model) if lifted else model
        session = bind(scorer, None)
        with pytest.raises(ValueError, match="parent 0 is not -1 or one of the 0 previous"):
            session.logprobs([0], [[4]])
        whole(session, [[], [4]])
        for parents in ([2], [-2], [0, 5]):
            with pytest.raises(ValueError, match=f"parent {parents[-1]} is not -1 or one of the 2"):
                session.logprobs(parents, [[4]] * len(parents))
        with pytest.raises(ValueError, match="2 parents but 1 tails"):
            session.logprobs([0, 1], [[4]])
        for bad in (size, -1):
            with pytest.raises(UnknownToken) as info:
                session.logprobs([1, 0], [[5], [4, bad]])
            assert info.value.args[0] == bad
        # every refused call left the rows of the last good one in place
        got = session.logprobs([1, 0], [[5], [5, 6]])
        assert got.tobytes() == whole(model.bind(None), [[4, 5], [5, 6]]).tobytes()


class TestLogRowLRU:
    CONTEXTS = {
        "a": mk("[INFORM [temp 20 ] ]"),
        "b": mk("[RECOMMEND [activity hike ] ]"),
        "rare": mk("[ERROR [error_reason unknown ] ]"),
        None: None,
    }

    def build(self, order, limit):
        a, b = self.CONTEXTS["a"], self.CONTEXTS["b"]
        corpus = [(a, "alpha beta gamma alpha beta".split())] * 6
        corpus += [(b, "delta epsilon zeta delta".split())] * 5
        corpus += [(self.CONTEXTS["rare"], "oops beta".split()), (None, "zeta beta alpha".split())]
        model = train_ngram(corpus, order=order)
        model._ROW_LIMIT = limit
        return model

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 4),
        calls=st.lists(
            st.tuples(
                st.sampled_from(sorted(CONTEXTS, key=str)),
                st.lists(st.lists(st.integers(0, 40), max_size=6), max_size=4),
            ),
            max_size=10,
        ),
    )
    def test_a_bound_of_three_rows_changes_no_row(self, order, calls):
        # signature sub-models, the global model, and ids the training
        # never put in a context, against a model that never evicts
        small, big = self.build(order, 3), self.build(order, 10**9)
        size = len(small.vocabulary)
        for name, prefixes in calls:
            prefixes = [[i % size for i in prefix] for prefix in prefixes]
            context = self.CONTEXTS[name]
            got = whole(small.bind(context), prefixes)
            assert got.tobytes() == whole(big.bind(context), prefixes).tobytes()
            assert len(small._log_rows) <= 3

    def test_bound_holds_after_every_call_and_evicts_the_least_recent(self):
        model = self.build(order=3, limit=2)
        vocab = model.vocabulary
        # three contexts the training saw, so each is its own row
        pairs = (["alpha", "beta"], ["beta", "gamma"], ["gamma", "alpha"])
        a, b, c = ([vocab.encode(pair)] for pair in pairs)
        for prefixes in (a, b, a, c):
            whole(model.bind(None), prefixes)
            assert len(model._log_rows) <= 2
        # a was read again after b, so b went first
        assert [ctx for _, ctx in model._log_rows] == [tuple(a[0]), tuple(c[0])]

    def test_unseen_contexts_share_one_row_object(self):
        corpus = [(None, ["x", "y", "z"]), (None, ["p", "y", "q"])]
        model = train_ngram(corpus, order=3)
        vocab = model.vocabulary
        # neither (z, y) nor (q, y) was seen; both score as (y,)
        rows = [
            model._log_row("", model._global, tuple(vocab.encode(pair)))
            for pair in (["z", "y"], ["q", "y"], ["y"])
        ]
        assert rows[0] is rows[1] is rows[2]
        assert list(model._log_rows) == [("", tuple(vocab.encode(["y"])))]
        assert not rows[0].flags.writeable


class TestSequenceLogprob:
    def per_token_sum(self, scorer, tokens, context):
        vocab = scorer.vocabulary
        ids = vocab.encode(tokens) + [vocab.eos_id]
        total = 0.0
        for pos, target in enumerate(ids):
            total += float(scorer.logprobs(ids[:pos], context)[target])
        return total

    def test_total_equals_per_token_sum_exactly(self):
        mr_a, _, model = TestSignatureSubmodels().build()
        for scorer in (model, LogprobsOnly(model)):
            for tokens in (["alpha", "beta", "gamma"], ["zeta"], [], ["gamma"] * 7):
                for context in (None, mr_a):
                    assert sequence_logprob(scorer, tokens, context) == self.per_token_sum(
                        scorer, tokens, context
                    )

    def test_one_bind_and_one_call_per_sequence(self):
        corpus = [(None, "rain is likely today".split()), (None, "sunny all day".split())]
        model = train_ngram(corpus, order=3)
        counting = CountingBinder(model)
        assert [sequence_logprob(counting, t, c) for c, t in corpus] == [
            sequence_logprob(model, t, c) for c, t in corpus
        ]
        assert counting.binds == len(corpus)
        assert [len(r) for r in counting.requests] == [5, 4]


UNIFORM_SERVER = """\
import base64, json, math, os, struct, sys, time
n = int(sys.argv[1])
mode = sys.argv[2] if len(sys.argv) > 2 else "ok"
with open(sys.argv[0] + ".pid", "w") as fh:
    fh.write(str(os.getpid()))
if mode == "mute":
    time.sleep(600)
handshake = {"vocab_size": n, "protocol": 3}
if mode == "no-protocol":
    del handshake["protocol"]
elif mode == "old-protocol":
    handshake["protocol"] = 2
print(json.dumps(handshake), flush=True)
if mode == "die":
    sys.exit(0)
if mode == "deaf":
    time.sleep(5)
    sys.exit(0)
previous = []
for line in sys.stdin:
    if mode == "hang":
        time.sleep(600)
    req = json.loads(line)
    rid = req["id"] + (1 if mode == "bad-id" else 0)
    if mode == "error":
        previous = []
        print(json.dumps({"id": rid, "error": "model not loaded"}), flush=True)
        continue
    previous = [
        (previous[p] if p >= 0 else []) + tail for p, tail in zip(req["parents"], req["tails"])
    ]
    per_prefix = [[math.log(1.0 / n)] * n for _ in previous]
    if mode == "bad-sum":
        per_prefix[-1] = [math.log(1.5 / n)] * n
    elif mode == "nan":
        per_prefix[-1][0] = float("nan")
    # each distinct row once, in first-seen order
    distinct, rows = [], []
    for row in per_prefix:
        packed = struct.pack("<%dd" % n, *row)
        if packed not in distinct:
            distinct.append(packed)
        rows.append(distinct.index(packed))
    raw = b"".join(distinct)
    if mode == "short":
        raw = raw[:-8]
    encoded = base64.b64encode(raw).decode()
    if mode == "bad-base64":
        encoded = "*" + encoded[1:]
    elif mode == "not-string":
        encoded = list(struct.unpack("<%dd" % (len(raw) // 8), raw))
    frame = {"id": rid, "logprobs": encoded, "rows": rows}
    if mode == "no-rows":
        del frame["rows"]
    elif mode == "rows-not-list":
        frame["rows"] = {"0": 0}
    elif mode == "rows-short":
        frame["rows"] = rows[:-1]
    elif mode == "rows-past-end":
        frame["rows"] = rows[:-1] + [len(distinct)]
    elif mode == "rows-negative":
        frame["rows"] = rows[:-1] + [-1]
    elif mode == "rows-not-int":
        frame["rows"] = rows[:-1] + [0.0]
    print(json.dumps(frame), flush=True)
"""


def spawn_args(tmp_path, size, mode="ok"):
    script = tmp_path / "server.py"
    script.write_text(UNIFORM_SERVER)
    return [sys.executable, str(script), str(size), mode]


class TestExternalScorer:
    def vocab(self):
        return Vocabulary.from_tokens(["w1", "w2", "w3"])

    def test_matches_in_process_uniform(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab)), vocab) as remote:
            local = UniformScorer(vocab)
            got = remote.logprobs(vocab.encode(["w1"]), [vocab.close_id])
            assert np.allclose(got, local.logprobs(vocab.encode(["w1"]), None))

    def test_one_request_scores_the_whole_batch(self, tmp_path):
        vocab = self.vocab()
        w1, w2 = vocab.encode(["w1", "w2"])
        with ExternalScorer(spawn_args(tmp_path, len(vocab)), vocab) as remote:
            matrix = whole(remote.bind([vocab.close_id]), [[], [w1], [w1, w2]])
            assert remote._next_id == 1
        assert matrix.shape == (3, len(vocab))
        assert np.array_equal(matrix, np.full((3, len(vocab)), math.log(1.0 / len(vocab))))

    def test_prefix_ids_checked_before_sending(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab)), vocab) as remote:
            with pytest.raises(UnknownToken):
                whole(remote.bind(None), [[], [len(vocab)]])
            assert remote._next_id == 0

    def test_only_new_tail_ids_are_sent_and_checked(self, tmp_path):
        vocab = self.vocab()
        size = len(vocab)
        with ExternalScorer(spawn_args(tmp_path, size), vocab) as remote:
            session = remote.bind(None)
            whole(session, [[4], [5, 6]])
            assert remote._sent == {(4,): 0, (5, 6): 1}
            # an extension is checked on its new id only; nothing is sent
            for bad in (size, -1):
                with pytest.raises(UnknownToken) as info:
                    session.logprobs([1, 0], [[4], [bad]])  # [5, 6, 4], [4, bad]
                assert info.value.args[0] == bad
            assert remote._next_id == 1
            assert remote._sent == {(4,): 0, (5, 6): 1}
            matrix = session.logprobs([1, 0, -1], [[4], [6], [6, 4]])
            assert remote._sent == {(5, 6, 4): 0, (4, 6): 1, (6, 4): 2}
        assert np.array_equal(matrix, np.full((3, size), math.log(1.0 / size)))

    def test_bad_parent_is_refused_before_sending(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab)), vocab) as remote:
            session = remote.bind(None)
            with pytest.raises(ValueError, match="parent 0 is not -1 or one of the 0"):
                session.logprobs([0], [[4]])
            whole(session, [[4]])
            with pytest.raises(ValueError, match="parent 1 is not -1 or one of the 1"):
                session.logprobs([1], [[5]])
            assert remote._next_id == 1
            assert session.logprobs([0], [[5]]).shape == (1, len(vocab))

    def test_handshake_size_mismatch(self, tmp_path):
        vocab = self.vocab()
        with pytest.raises(ProtocolViolation, match="vocab_size"):
            ExternalScorer(spawn_args(tmp_path, len(vocab) + 3), vocab)
        # the failed handshake closed the child: it has exited and been reaped
        pid = int((tmp_path / "server.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("mode", ["no-protocol", "old-protocol"])
    def test_handshake_without_protocol_3(self, tmp_path, mode):
        vocab = self.vocab()
        with pytest.raises(ProtocolViolation, match="protocol"):
            ExternalScorer(spawn_args(tmp_path, len(vocab), mode), vocab)

    def test_wrong_vector_length(self, tmp_path):
        vocab = self.vocab()
        size = len(vocab)
        with ExternalScorer(spawn_args(tmp_path, size, "short"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="bytes"):
                remote.logprobs([], None)
            # two equal rows travel as one, and that one is a float short
            with pytest.raises(
                ProtocolViolation, match=f"whole rows of {8 * size} bytes .* got {8 * size - 8}"
            ):
                whole(remote.bind(None), [[], []])

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("no-rows", "rows must be a list of 2 row indices"),
            ("rows-not-list", "rows must be a list of 2 row indices"),
            ("rows-short", "rows must be a list of 2 row indices"),
            ("rows-past-end", r"rows must index the 1 rows sent, got \[0, 1\]"),
            ("rows-negative", r"rows must index the 1 rows sent, got \[0, -1\]"),
            ("rows-not-int", r"rows must index the 1 rows sent, got \[0, 0.0\]"),
        ],
    )
    def test_bad_rows_field(self, tmp_path, mode, message):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), mode), vocab) as remote:
            with pytest.raises(ProtocolViolation, match=message):
                whole(remote.bind(None), [[], []])
            # the violation left the client referencing nothing: the next
            # request sends whole prefixes, which the double rebuilds
            with pytest.raises(ProtocolViolation, match="rows"):
                whole(remote.bind(None), [[0, 1], [0]])
            assert remote._sent == {}

    def test_rows_fan_distinct_rows_out_to_prefixes(self, tmp_path):
        vocab = self.vocab()
        size = len(vocab)
        with ExternalScorer(spawn_args(tmp_path, size, "nan"), vocab) as remote:
            # the last prefix's row differs from the two before it, so two
            # distinct rows travel, and the first bad prefix is named
            with pytest.raises(ProtocolViolation, match="row 2: probabilities sum to nan"):
                whole(remote.bind(None), [[], [4], [5]])

    def test_probability_sum_off_by_half(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "bad-sum"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="sum"):
                remote.logprobs([], None)
            with pytest.raises(ProtocolViolation, match="row 2: probabilities sum"):
                whole(remote.bind(None), [[], [], []])

    def test_nan_row(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "nan"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="row 1: probabilities sum to nan"):
                whole(remote.bind(None), [[], []])

    def test_invalid_base64(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "bad-base64"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="not base64"):
                remote.logprobs([], None)

    def test_logprobs_field_not_a_string(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "not-string"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="base64 string, got list"):
                remote.logprobs([], None)

    def test_error_frame(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "error"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="refused request 0: model not loaded"):
                remote.logprobs([], None)

    def test_response_id_mismatch(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "bad-id"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="id"):
                remote.logprobs([], None)

    def test_server_death_surfaces_as_unavailable(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "die"), vocab) as remote:
            with pytest.raises(ScorerUnavailable):
                remote.logprobs([], None)

    def test_silent_handshake_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scorers, "EXTERNAL_READ_TIMEOUT_S", 0.5)
        vocab = self.vocab()
        started = time.monotonic()
        with pytest.raises(ScorerUnavailable, match="no complete frame within 0.5 s"):
            ExternalScorer(spawn_args(tmp_path, len(vocab), "mute"), vocab)
        assert time.monotonic() - started < 5.0
        pid = int((tmp_path / "server.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_unanswered_request_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scorers, "EXTERNAL_READ_TIMEOUT_S", 0.5)
        vocab = self.vocab()
        remote = ExternalScorer(spawn_args(tmp_path, len(vocab), "hang"), vocab)
        started = time.monotonic()
        with pytest.raises(ScorerUnavailable, match="no complete frame within 0.5 s"):
            whole(remote.bind(None), [[], []])
        assert time.monotonic() - started < 5.0
        pid = int((tmp_path / "server.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        # the scorer is closed: later requests fail the same typed way
        with pytest.raises(ScorerUnavailable):
            remote.logprobs([], None)

    def test_unread_request_times_out(self, tmp_path, monkeypatch):
        # a request larger than the pipe buffer, to a child that never reads
        monkeypatch.setattr(scorers, "EXTERNAL_READ_TIMEOUT_S", 0.5)
        vocab = self.vocab()
        remote = ExternalScorer(spawn_args(tmp_path, len(vocab), "deaf"), vocab)
        prefixes = [vocab.encode(["w1"] * 200)] * 400
        started = time.monotonic()
        with pytest.raises(ScorerUnavailable, match="took no complete request within 0.5 s"):
            whole(remote.bind(None), prefixes)
        assert time.monotonic() - started < 3.0
        pid = int((tmp_path / "server.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        with pytest.raises(ScorerUnavailable):
            remote.logprobs([], None)

    def test_missing_executable_is_unavailable(self):
        with pytest.raises(ScorerUnavailable):
            ExternalScorer(["/nonexistent/scorer-binary"], self.vocab())


SERVE_LOOP_SERVER = """\
import sys
from treegen.scorers import NGramModel, serve_loop
serve_loop(NGramModel.load(sys.argv[1]), sys.stdin, sys.stdout)
"""


class TestServeLoop:
    def test_ngram_served_over_pipe_matches_local(self, tmp_path):
        mr_a, _, model = TestSignatureSubmodels().build()
        model_path = tmp_path / "model.json"
        model.save(model_path)
        script = tmp_path / "serve.py"
        script.write_text(SERVE_LOOP_SERVER)
        vocab = model.vocabulary
        context = vocab.encode(linearize(canonicalize(mr_a)))
        with ExternalScorer([sys.executable, str(script), str(model_path)], vocab) as remote:
            for prefix in [[], vocab.encode(["alpha"]), vocab.encode(["alpha", "beta"])]:
                assert np.allclose(
                    remote.logprobs(prefix, context),
                    model.logprobs(prefix, context),
                )

    def test_close_lets_the_child_exit_on_its_own(self, tmp_path):
        _, _, model = TestSignatureSubmodels().build()
        model_path = tmp_path / "model.json"
        model.save(model_path)
        script = tmp_path / "serve.py"
        script.write_text(SERVE_LOOP_SERVER)
        remote = ExternalScorer([sys.executable, str(script), str(model_path)], model.vocabulary)
        remote.logprobs([], None)
        remote.close()
        assert remote._proc.returncode == 0

    def test_out_of_range_context_is_refused_and_serving_goes_on(self, tmp_path):
        _, _, model = TestSignatureSubmodels().build()
        model_path = tmp_path / "model.json"
        model.save(model_path)
        script = tmp_path / "serve.py"
        script.write_text(SERVE_LOOP_SERVER)
        vocab = model.vocabulary
        with ExternalScorer([sys.executable, str(script), str(model_path)], vocab) as remote:
            with pytest.raises(ProtocolViolation, match=f"unknown token id {len(vocab) + 4}"):
                remote.logprobs([], [len(vocab) + 4])
            assert np.array_equal(remote.logprobs([], None), model.logprobs([], None))

    def test_loop_answers_in_process_streams(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        scorer = UniformScorer(vocab)
        request = json.dumps({"id": 7, "parents": [-1], "tails": [[]], "context": []})
        out = io.StringIO()
        serve_loop(scorer, io.StringIO(request + "\n"), out)
        handshake, response = [json.loads(l) for l in out.getvalue().splitlines()]
        assert handshake == {"vocab_size": len(vocab), "protocol": 3}
        assert response["id"] == 7
        assert response["rows"] == [0]
        row = np.frombuffer(base64.b64decode(response["logprobs"]), dtype="<f8")
        assert len(row) == len(vocab)
        assert np.array_equal(row, scorer.logprobs([], None))

    def test_malformed_requests_get_error_frames(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        scorer = UniformScorer(vocab)
        size = len(vocab)
        lines = [
            "{not json",
            "[1, 2]",
            json.dumps({"id": 1, "context": [], "parents": []}),
            json.dumps({"id": 2, "parents": [-1], "tails": [[]]}),
            json.dumps({"id": 3, "context": [], "parents": [-1, -1], "tails": [[0], [size]]}),
            json.dumps({"id": 4, "context": [], "parents": [-1], "tails": [["a"]]}),
            json.dumps({"id": 5, "context": "abc", "parents": [], "tails": []}),
            json.dumps({"id": 6, "context": [], "parents": [-1, -1], "tails": [[0], [1, 2]]}),
        ]
        out = io.StringIO()
        serve_loop(scorer, io.StringIO("\n".join(lines) + "\n"), out)
        frames = [json.loads(l) for l in out.getvalue().splitlines()][1:]
        assert [f.get("id") for f in frames] == [None, None, 1, 2, 3, 4, 5, 6]
        errors = [f["error"] for f in frames[:-1]]
        assert "not JSON" in errors[0]
        assert "not a JSON object" in errors[1]
        assert "'tails'" in errors[2]
        assert "'context'" in errors[3]
        assert errors[4] == f"unknown token id {size}"
        assert "token ids" in errors[5] and "token ids" in errors[6]
        assert "error" not in frames[-1]
        distinct = np.frombuffer(base64.b64decode(frames[-1]["logprobs"]), dtype="<f8")
        matrix = distinct.reshape(-1, size)[frames[-1]["rows"]]
        assert np.array_equal(matrix, np.full((2, size), -math.log(size)))


def serve(scorer, requests):
    """The frames serve_loop answers to these requests, handshake dropped."""
    out = io.StringIO()
    lines = "".join(json.dumps(r) + "\n" for r in requests)
    serve_loop(scorer, io.StringIO(lines), out)
    return [json.loads(l) for l in out.getvalue().splitlines()][1:]


def frame_matrix(frame, size):
    distinct = np.frombuffer(base64.b64decode(frame["logprobs"]), dtype="<f8")
    return distinct.reshape(-1, size)[frame["rows"]]


class TestServeLoopProtocol3:
    def request(self, rid, parents, tails, context=()):
        return {"id": rid, "context": list(context), "parents": parents, "tails": tails}

    def test_parents_rebuild_prefixes_of_the_previous_request(self):
        model = single_sequence_model(order=3)
        size = len(model.vocabulary)
        frames = serve(
            model,
            [
                self.request(0, [-1], [[]]),
                self.request(1, [0, 0, -1], [[4], [5], [6, 4]]),
                self.request(2, [2, 0, 1, -1], [[5], [5], [4], []]),
            ],
        )
        expected = [
            [()],
            [(4,), (5,), (6, 4)],
            [(6, 4, 5), (4, 5), (5, 4), ()],
        ]
        for frame, prefixes in zip(frames, expected):
            assert "error" not in frame
            want = whole(model.bind(None), prefixes)
            assert frame_matrix(frame, size).tobytes() == want.tobytes()

    def test_each_distinct_row_is_sent_once_in_first_seen_order(self):
        # order 2: the row depends on the last id alone
        model = single_sequence_model(order=2)
        size = len(model.vocabulary)
        (frame,) = serve(model, [self.request(0, [-1] * 5, [[4], [5, 4], [5], [], [6, 5]])])
        assert frame["rows"] == [0, 0, 1, 2, 1]
        distinct = np.frombuffer(base64.b64decode(frame["logprobs"]), dtype="<f8")
        assert len(distinct) == 3 * size
        want = whole(model.bind(None), [(4,), (5,), ()])
        assert distinct.tobytes() == want.tobytes()

    def test_hostile_parents_get_error_frames_and_clear_the_state(self):
        vocab = Vocabulary.from_tokens(["a", "b"])
        scorer = UniformScorer(vocab)
        frames = serve(
            scorer,
            [
                # a parent reference in the first request
                self.request(0, [0], [[4]]),
                self.request(1, [-1, -1], [[4], [5]]),
                # out of range: the previous request held two prefixes
                self.request(2, [2], [[4]]),
                # a good reference, but the error before cleared the state
                self.request(3, [0], [[4]]),
                self.request(4, [-1, -1], [[4], [5]]),
                self.request(5, ["0"], [[4]]),
                self.request(6, [-1], [[4]]),
                self.request(7, [1.0], [[4]]),
                self.request(8, [-1], [[4]]),
                self.request(9, [True], [[4]]),
                self.request(10, [-1], [[4]]),
                self.request(11, [0, 0], [[4]]),
                self.request(12, [-1], [[4]]),
                self.request(13, [-2], [[4]]),
                self.request(14, [-1], [[4]]),
                self.request(15, None, [[4]]),
                self.request(16, [-1], [[4]]),
                self.request(17, [0], [[5]]),
            ],
        )
        assert [f["id"] for f in frames] == list(range(18))
        refused = [f["id"] for f in frames if "error" in f]
        assert refused == [0, 2, 3, 5, 7, 9, 11, 13, 15]
        assert "not -1 or one of the 0 previous prefixes" in frames[0]["error"]
        assert "not -1 or one of the 2 previous prefixes" in frames[2]["error"]
        assert "not -1 or one of the 0 previous prefixes" in frames[3]["error"]
        for rid in (5, 7, 9, 15):
            assert frames[rid]["error"] == "parents must be a list of ints"
        assert frames[11]["error"] == "2 parents but 1 tails"
        assert "not -1 or one of the 1 previous prefixes" in frames[13]["error"]
        # serving went on: the last request extends the one before it
        assert frame_matrix(frames[17], len(vocab)).shape == (1, len(vocab))
