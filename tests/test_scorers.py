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
import subprocess
import sys
import time

import numpy as np
import pytest

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
    perplexity,
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
        assert int(np.argmax(vec)) == vocab.id_of("b")
        assert_normalized(vec)

    def test_repetition_concentrates_mass(self):
        # discounting reserves D per distinct continuation, so a
        # single-path corpus reaches near-1 only with real counts
        model = single_sequence_model(repeats=100)
        vocab = model.vocabulary
        vec = model.logprobs(vocab.encode(["a"]))
        assert math.exp(vec[vocab.id_of("b")]) > 0.99

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
            got = math.exp(model.logprobs(vocab.encode([ctx_tok]))[vocab.id_of(target_tok)])
            want = ref_ngram_prob(
                streams,
                order=2,
                discount=0.75,
                vocab_size=len(vocab),
                context=tuple(vocab.encode([ctx_tok])),
                target=vocab.id_of(target_tok),
                bos=vocab.bos_id,
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_majority_continuation_scores_higher(self):
        corpus = [(None, ["a", "b", "c"])] * 3 + [(None, ["a", "b", "d"])]
        model = train_ngram(corpus, order=2)
        vocab = model.vocabulary
        vec = model.logprobs(vocab.encode(["b"]))
        assert vec[vocab.id_of("c")] > vec[vocab.id_of("d")]

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
        high._cache.clear()
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


class TestPerplexity:
    def test_trained_model_beats_uniform_on_training_data(self):
        corpus = [
            (None, "rain is likely today".split()),
            (None, "rain is unlikely today".split()),
            (None, "sunny all day".split()),
        ] * 3
        model = train_ngram(corpus, order=3)
        uniform = UniformScorer(model.vocabulary)
        assert perplexity(model, corpus) < perplexity(uniform, corpus)

    def test_empty_evaluation_rejected(self):
        scorer = UniformScorer(Vocabulary.from_tokens(["a"]))
        with pytest.raises(EmptyCorpus):
            perplexity(scorer, [])


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
        self.requests: list[list[tuple[int, ...]]] = []

    def logprobs(self, prefix, context=None):
        raise AssertionError("the per-prefix path was used")

    def bind(self, context=None):
        self.binds += 1
        inner = bind(self._inner, context)
        outer = self

        class Session:
            def logprobs(self, prefixes):
                outer.requests.append([tuple(p) for p in prefixes])
                return inner.logprobs(prefixes)

        return Session()


class TestSessions:
    PREFIXES = [[], ["alpha"], ["alpha", "beta"], ["zeta", "alpha", "beta", "gamma"], ["alpha"]]

    def test_rows_equal_per_prefix_logprobs_bit_for_bit(self):
        mr_a, mr_b, model = TestSignatureSubmodels().build()
        vocab = model.vocabulary
        prefixes = [vocab.encode(p) for p in self.PREFIXES]
        for context in [None, mr_a, mr_b, vocab.encode(linearize(canonicalize(mr_a)))]:
            matrix = model.bind(context).logprobs(prefixes)
            assert matrix.shape == (len(prefixes), len(vocab))
            assert matrix.dtype == np.float64
            for row, prefix in zip(matrix, prefixes):
                assert np.array_equal(row, model.logprobs(prefix, context))
            lifted = bind(LogprobsOnly(model), context).logprobs(prefixes)
            assert np.array_equal(lifted, matrix)

    def test_rows_are_independent_of_the_memo(self):
        # the same context twice in one call, and again in a later call,
        # gives the same row, and writing to one answer leaves the next alone
        model = single_sequence_model(order=3)
        vocab = model.vocabulary
        session = model.bind(None)
        first = session.logprobs([vocab.encode(["a"]), vocab.encode(["a"])])
        assert np.array_equal(first[0], first[1])
        first[0, 0] = 123.0
        again = session.logprobs([vocab.encode(["a"])])
        assert np.array_equal(again[0], first[1])

    def test_every_prefix_id_is_validated(self):
        model = single_sequence_model()
        size = len(model.vocabulary)
        session = model.bind(None)
        for bad in ([size], [-1], [0, 1, size + 5, 2]):
            with pytest.raises(UnknownToken) as info:
                session.logprobs([[0], bad])
            assert info.value.args[0] == next(i for i in bad if not 0 <= i < size)

    def test_adapter_asks_once_per_prefix(self):
        double = LogprobsOnly(UniformScorer(Vocabulary.from_tokens(["a", "b"])))
        matrix = bind(double, None).logprobs([[], [4], [4, 5]])
        assert matrix.shape == (3, len(double.vocabulary))
        assert double.calls == 3

    def test_empty_request_is_an_empty_matrix(self):
        model = single_sequence_model()
        assert model.bind(None).logprobs([]).shape == (0, len(model.vocabulary))


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
        assert perplexity(counting, corpus) == perplexity(model, corpus)
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
handshake = {"vocab_size": n, "protocol": 2}
if mode == "no-protocol":
    del handshake["protocol"]
elif mode == "old-protocol":
    handshake["protocol"] = 1
print(json.dumps(handshake), flush=True)
if mode == "die":
    sys.exit(0)
for line in sys.stdin:
    if mode == "hang":
        time.sleep(600)
    req = json.loads(line)
    rid = req["id"] + (1 if mode == "bad-id" else 0)
    if mode == "error":
        print(json.dumps({"id": rid, "error": "model not loaded"}), flush=True)
        continue
    rows = [[math.log(1.0 / n)] * n for _ in req["prefixes"]]
    if mode == "short":
        rows[-1].pop()
    elif mode == "bad-sum":
        rows[-1] = [math.log(1.5 / n)] * n
    elif mode == "nan":
        rows[-1][0] = float("nan")
    floats = [x for row in rows for x in row]
    encoded = base64.b64encode(struct.pack("<%dd" % len(floats), *floats)).decode()
    if mode == "bad-base64":
        encoded = "*" + encoded[1:]
    elif mode == "not-string":
        encoded = floats
    print(json.dumps({"id": rid, "logprobs": encoded}), flush=True)
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
            got = remote.logprobs([vocab.id_of("w1")], [vocab.close_id])
            assert np.allclose(got, local.logprobs([vocab.id_of("w1")], None))

    def test_one_request_scores_the_whole_batch(self, tmp_path):
        vocab = self.vocab()
        w1, w2 = vocab.id_of("w1"), vocab.id_of("w2")
        with ExternalScorer(spawn_args(tmp_path, len(vocab)), vocab) as remote:
            matrix = remote.bind([vocab.close_id]).logprobs([[], [w1], [w1, w2]])
            assert remote._next_id == 1
        assert matrix.shape == (3, len(vocab))
        assert np.array_equal(matrix, np.full((3, len(vocab)), math.log(1.0 / len(vocab))))

    def test_prefix_ids_checked_before_sending(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab)), vocab) as remote:
            with pytest.raises(UnknownToken):
                remote.bind(None).logprobs([[], [len(vocab)]])
            assert remote._next_id == 0

    def test_handshake_size_mismatch(self, tmp_path):
        vocab = self.vocab()
        with pytest.raises(ProtocolViolation, match="vocab_size"):
            ExternalScorer(spawn_args(tmp_path, len(vocab) + 3), vocab)
        # the failed handshake closed the child: it has exited and been reaped
        pid = int((tmp_path / "server.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    @pytest.mark.parametrize("mode", ["no-protocol", "old-protocol"])
    def test_handshake_without_protocol_2(self, tmp_path, mode):
        vocab = self.vocab()
        with pytest.raises(ProtocolViolation, match="protocol"):
            ExternalScorer(spawn_args(tmp_path, len(vocab), mode), vocab)

    def test_wrong_vector_length(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "short"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="bytes"):
                remote.logprobs([], None)
            with pytest.raises(ProtocolViolation, match=f"{8 * 2 * len(vocab)} bytes"):
                remote.bind(None).logprobs([[], []])

    def test_probability_sum_off_by_half(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "bad-sum"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="sum"):
                remote.logprobs([], None)
            with pytest.raises(ProtocolViolation, match="row 2: probabilities sum"):
                remote.bind(None).logprobs([[], [], []])

    def test_nan_row(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "nan"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="row 1: probabilities sum to nan"):
                remote.bind(None).logprobs([[], []])

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
            remote.bind(None).logprobs([[], []])
        assert time.monotonic() - started < 5.0
        pid = int((tmp_path / "server.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
        # the scorer is closed: later requests fail the same typed way
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
        request = json.dumps({"id": 7, "prefixes": [[]], "context": []})
        out = io.StringIO()
        serve_loop(scorer, io.StringIO(request + "\n"), out)
        handshake, response = [json.loads(l) for l in out.getvalue().splitlines()]
        assert handshake == {"vocab_size": len(vocab), "protocol": 2}
        assert response["id"] == 7
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
            json.dumps({"id": 1, "context": []}),
            json.dumps({"id": 2, "prefixes": [[]]}),
            json.dumps({"id": 3, "context": [], "prefixes": [[0], [size]]}),
            json.dumps({"id": 4, "context": [], "prefixes": [["a"]]}),
            json.dumps({"id": 5, "context": "abc", "prefixes": []}),
            json.dumps({"id": 6, "context": [], "prefixes": [[0], [1, 2]]}),
        ]
        out = io.StringIO()
        serve_loop(scorer, io.StringIO("\n".join(lines) + "\n"), out)
        frames = [json.loads(l) for l in out.getvalue().splitlines()][1:]
        assert [f.get("id") for f in frames] == [None, None, 1, 2, 3, 4, 5, 6]
        errors = [f["error"] for f in frames[:-1]]
        assert "not JSON" in errors[0]
        assert "not a JSON object" in errors[1]
        assert "'prefixes'" in errors[2]
        assert "'context'" in errors[3]
        assert errors[4] == f"unknown token id {size}"
        assert "token ids" in errors[5] and "token ids" in errors[6]
        assert "error" not in frames[-1]
        matrix = np.frombuffer(base64.b64decode(frames[-1]["logprobs"]), dtype="<f8")
        assert np.array_equal(matrix.reshape(2, size), np.full((2, size), -math.log(size)))
