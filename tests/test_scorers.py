"""Scorer behaviour: uniform baseline, n-gram estimates, wire protocol.

N-gram probability values are cross-checked against a scalar
reimplementation of interpolated absolute discounting (oracles.ref_ngram_prob)
that recomputes counts from the raw streams on every call.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import ref_ngram_prob
from treegen.ontology import weather_ontology
from treegen.scorers import (
    EmptyCorpus,
    ExternalScorer,
    NGramModel,
    ProtocolViolation,
    ScorerUnavailable,
    UniformScorer,
    perplexity,
    sequence_logprob,
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


UNIFORM_SERVER = """\
import json, math, os, sys
n = int(sys.argv[1])
mode = sys.argv[2] if len(sys.argv) > 2 else "ok"
with open(sys.argv[0] + ".pid", "w") as fh:
    fh.write(str(os.getpid()))
print(json.dumps({"vocab_size": n}), flush=True)
if mode == "die":
    sys.exit(0)
for line in sys.stdin:
    req = json.loads(line)
    rid = req["id"] + (1 if mode == "bad-id" else 0)
    if mode == "short":
        vec = [math.log(1.0 / n)] * (n - 1)
    elif mode == "bad-sum":
        vec = [math.log(1.5 / n)] * n
    else:
        vec = [math.log(1.0 / n)] * n
    print(json.dumps({"id": rid, "logprobs": vec}), flush=True)
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

    def test_handshake_size_mismatch(self, tmp_path):
        vocab = self.vocab()
        with pytest.raises(ProtocolViolation, match="vocab_size"):
            ExternalScorer(spawn_args(tmp_path, len(vocab) + 3), vocab)
        # the failed handshake closed the child: it has exited and been reaped
        pid = int((tmp_path / "server.py.pid").read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_wrong_vector_length(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "short"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="entries"):
                remote.logprobs([], None)

    def test_probability_sum_off_by_half(self, tmp_path):
        vocab = self.vocab()
        with ExternalScorer(spawn_args(tmp_path, len(vocab), "bad-sum"), vocab) as remote:
            with pytest.raises(ProtocolViolation, match="sum"):
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

    def test_loop_answers_in_process_streams(self):
        import io

        vocab = Vocabulary.from_tokens(["a", "b"])
        scorer = UniformScorer(vocab)
        request = json.dumps({"id": 7, "prefix": [], "context": []})
        out = io.StringIO()
        from treegen.scorers import serve_loop

        serve_loop(scorer, io.StringIO(request + "\n"), out)
        handshake, response = [json.loads(l) for l in out.getvalue().splitlines()]
        assert handshake == {"vocab_size": len(vocab)}
        assert response["id"] == 7
        assert len(response["logprobs"]) == len(vocab)
