"""Beam search behaviour in all three modes.

The completeness check compares constrained decoding under a skeleton-only
uniform scorer against the brute-force realization enumerator, so the
decoder and the enumerator must agree on entire candidate sets.
"""

import math
import random
import sys

import numpy as np
import pytest

import treegen.beam
import treegen.constraints
from oracles import enumerate_valid_skeletons, random_mr
from treegen.beam import (
    Candidate,
    DecodeConfig,
    DecodeMode,
    DecodingFailed,
    decode,
    rerank_by_tree_accuracy,
)
from treegen.constraints import build_constraints, check_tree
from treegen.ontology import weather_ontology
from treegen.scorers import ExternalScorer, UniformScorer, bind, train_ngram
from treegen.trees import CLOSE, EOS, canonicalize, linearize, parse_mr
from treegen.vocab import Vocabulary
from treegen.weather import synthesize_examples

ONT = weather_ontology()


def mk(text):
    return parse_mr(text, ONT)


class SkeletonUniformScorer:
    """Uniform over structural tokens only; words get zero probability."""

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary
        ids = vocabulary.structural_ids
        self._vector = np.full(len(vocabulary), -np.inf)
        self._vector[list(ids)] = -math.log(len(ids))

    def logprobs(self, prefix, context=None):
        return self._vector.copy()


class OneWordScorer:
    """All probability mass on a single word; the stutter failure mode."""

    def __init__(self, vocabulary, word):
        self.vocabulary = vocabulary
        self._vector = np.full(len(vocabulary), -np.inf)
        self._vector[vocabulary.id_of(word)] = 0.0

    def logprobs(self, prefix, context=None):
        return self._vector.copy()


class WordedStructuralScorer:
    """90% of the mass spread over structural tokens, 10% over the rest.

    Words stay available but cost enough that bracket-building paths win;
    a flat uniform scorer would let tied word expansions starve them.
    """

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary
        structural = set(vocabulary.structural_ids)
        words = len(vocabulary) - len(structural)
        vec = np.empty(len(vocabulary))
        vec.fill(math.log(0.1 / words))
        vec[list(structural)] = math.log(0.9 / len(structural))
        self._vector = vec

    def logprobs(self, prefix, context=None):
        return self._vector.copy()


def vocab_for(mr, extra_words=()):
    return Vocabulary.from_tokens(list(linearize(canonicalize(mr))) + list(extra_words))


class TestDecodeConfig:
    def test_defaults(self):
        config = DecodeConfig()
        assert config.beam_size == 10
        assert config.mode is DecodeMode.CONSTRAINED
        assert config.length_penalty == 0.0
        assert config.max_length is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            DecodeConfig(max_length=1)
        for penalty in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                DecodeConfig(length_penalty=penalty)


class TestConstrainedMode:
    def test_every_candidate_passes_check_tree(self):
        mr = mk("[CONTRAST [INFORM [condition rain ] ] [INFORM [temp 70 ] ] ]")
        scorer = WordedStructuralScorer(vocab_for(mr, ["it", "will", "be"]))
        result = decode(mr, scorer, DecodeConfig(beam_size=5, max_length=24))
        assert result.candidates
        for candidate in result.candidates:
            assert candidate.tree_valid
            assert check_tree(mr, candidate.tokens)

    def test_emitted_skeletons_equal_enumerated_set(self):
        mr = mk(
            "[JOIN [INFORM [temp 20 ] [wind_speed 5 ] ]"
            " [INFORM [wind_speed 5 ] [humidity low ] ] ]"
        )
        expected = enumerate_valid_skeletons(mr)
        scorer = SkeletonUniformScorer(vocab_for(mr))
        config = DecodeConfig(beam_size=len(expected), max_length=64)
        result = decode(mr, scorer, config)
        emitted = {tuple(c.tokens) + (EOS,) for c in result.candidates}
        assert emitted == expected

    def test_enumerator_agreement_on_random_trees(self):
        rng = random.Random(404)
        checked = 0
        for _ in range(25):
            mr = random_mr(rng, ONT, max_nodes=6)
            expected = enumerate_valid_skeletons(mr)
            if len(expected) > 40:
                continue
            scorer = SkeletonUniformScorer(vocab_for(mr))
            result = decode(
                mr, scorer, DecodeConfig(beam_size=len(expected), max_length=80)
            )
            emitted = {tuple(c.tokens) + (EOS,) for c in result.candidates}
            assert emitted == expected
            checked += 1
        assert checked >= 15

    def test_scores_are_per_step_logprob_sums(self):
        mr = mk("[INFORM [temp 20 ] ]")
        scorer = SkeletonUniformScorer(vocab_for(mr))
        result = decode(mr, scorer, DecodeConfig(beam_size=4, max_length=16))
        step_cost = -math.log(len(scorer.vocabulary.structural_ids))
        for candidate in result.candidates:
            assert candidate.score == pytest.approx(
                step_cost * (len(candidate.tokens) + 1), abs=1e-9
            )

    def test_candidates_sorted_by_score_descending(self):
        mr = mk("[JOIN [INFORM [temp 20 ] ] [INFORM [temp 20 ] ] ]")
        scorer = SkeletonUniformScorer(vocab_for(mr))
        result = decode(mr, scorer, DecodeConfig(beam_size=8, max_length=40))
        scores = [c.score for c in result.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_decode_is_deterministic(self):
        mr = mk("[JOIN [INFORM [temp 20 ] ] [INFORM [humidity low ] ] ]")
        scorer = WordedStructuralScorer(vocab_for(mr, ["and", "also", "too"]))
        config = DecodeConfig(beam_size=6, max_length=30)
        first = decode(mr, scorer, config)
        second = decode(mr, scorer, config)
        assert first.candidates == second.candidates

    def test_trained_decode_is_deterministic(self):
        mr_a, _, model = TestTrainedDecode().build()
        config = DecodeConfig(beam_size=8)
        first = decode(mr_a, model, config)
        second = decode(mr_a, model, config)
        assert first.candidates == second.candidates

    def test_missing_structural_token_rejected(self):
        mr = mk("[INFORM [temp 20 ] ]")
        vocab = Vocabulary.from_tokens(["[INFORM", "word"])  # no [temp
        with pytest.raises(ValueError, match="missing structural"):
            decode(mr, UniformScorer(vocab))


class TestTrainedDecode:
    def build(self):
        mr_a = mk("[INFORM [temp 20 ] ]")
        resp_a = "[INFORM it will be [temp 20 ] degrees ]".split()
        mr_b = mk("[RECOMMEND [activity hike ] ]")
        resp_b = "[RECOMMEND consider a [activity hike ] today ]".split()
        corpus = [(mr_a, resp_a)] * 6 + [(mr_b, resp_b)] * 6
        return mr_a, resp_a, train_ngram(corpus, order=4)

    def test_top_candidate_reproduces_training_response(self):
        mr_a, resp_a, model = self.build()
        result = decode(mr_a, model, DecodeConfig(beam_size=10))
        assert list(result.candidates[0].tokens) == resp_a

    def test_unconstrained_top_matches_here_too(self):
        # the model is so peaked that even without masking the training
        # response wins
        mr_a, resp_a, model = self.build()
        result = decode(
            mr_a, model, DecodeConfig(beam_size=10, mode=DecodeMode.UNCONSTRAINED)
        )
        assert list(result.candidates[0].tokens) == resp_a
        assert result.candidates[0].tree_valid


class LogprobsOnly:
    """Hides a scorer's ``bind``, so the decode goes through the adapter."""

    def __init__(self, inner):
        self.vocabulary = inner.vocabulary
        self._inner = inner

    def logprobs(self, prefix, context=None):
        return self._inner.logprobs(prefix, context)


class CountingSessions:
    """Records every bind and the prefixes of every session call."""

    def __init__(self, inner):
        self.vocabulary = inner.vocabulary
        self._inner = inner
        self.binds = 0
        self.steps: list[list[tuple[int, ...]]] = []

    def logprobs(self, prefix, context=None):
        raise AssertionError("the decoder scored one prefix outside a session")

    def bind(self, context=None):
        self.binds += 1
        session = bind(self._inner, context)
        steps = self.steps

        class Session:
            def logprobs(self, prefixes):
                steps.append([tuple(p) for p in prefixes])
                return session.logprobs(prefixes)

        return Session()


MODES = list(DecodeMode)


class TestScorerSessions:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_one_bind_and_one_call_per_step(self, mode):
        mr_a, _, model = TestTrainedDecode().build()
        config = DecodeConfig(beam_size=4, mode=mode)
        counting = CountingSessions(model)
        result = decode(mr_a, counting, config)
        assert result.candidates == decode(mr_a, model, config).candidates
        assert counting.binds == 1
        assert counting.steps
        # call k scores the live hypotheses of step k: every prefix has k
        # ids, none repeats, and each extends a hypothesis of step k - 1
        for k, prefixes in enumerate(counting.steps):
            assert all(len(p) == k for p in prefixes)
            assert len(set(prefixes)) == len(prefixes) <= config.beam_size
            if k:
                assert {p[:-1] for p in prefixes} <= set(counting.steps[k - 1])
        assert counting.steps[0] == [()]
        # every finished candidate was a live hypothesis at each of its steps
        for candidate in result.candidates:
            ids = tuple(model.vocabulary.encode(candidate.tokens))
            for k in range(len(ids) + 1):
                assert ids[:k] in counting.steps[k]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_adapter_decode_equals_native_session_decode(self, mode):
        examples = synthesize_examples(126, seed=5)
        pairs = [(parse_mr(ex.mr, ONT), ex.annotated_response.split()) for ex in examples]
        model = train_ngram(pairs[:120])
        config = DecodeConfig(beam_size=6, mode=mode)
        for mr, _ in pairs[120:]:
            native = decode(mr, model, config).candidates
            lifted = decode(mr, LogprobsOnly(model), config).candidates
            assert lifted == native
            assert [c.score for c in lifted] == [c.score for c in native]


class TestBuildOnce:
    """One tracker per decode, and one check_tree call per candidate."""

    def count_builds(self, monkeypatch):
        calls = []

        def counting(mr):
            calls.append(mr)
            return build_constraints(mr)

        monkeypatch.setattr(treegen.beam, "build_constraints", counting)
        monkeypatch.setattr(treegen.constraints, "build_constraints", counting)
        return calls

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_build_constraints_runs_once_per_decode(self, mode, monkeypatch):
        mr_a, _, model = TestTrainedDecode().build()
        calls = self.count_builds(monkeypatch)
        checks = []

        def counting_check(mr, tokens):
            checks.append(tokens)
            return check_tree(mr, tokens)

        monkeypatch.setattr(treegen.beam, "check_tree", counting_check)
        result = decode(mr_a, model, DecodeConfig(beam_size=10, mode=mode))
        assert len(calls) == 1
        assert len(result.candidates) > 1
        # each candidate is checked once, rerank included
        assert len(checks) == len(result.candidates)
        for candidate in result.candidates:
            assert candidate.tree_valid == check_tree(mr_a, candidate.tokens)

    def test_failed_decode_checks_its_partial_with_the_same_tracker(self, monkeypatch):
        mr = mk("[INFORM [temp 20 ] ]")
        scorer = OneWordScorer(vocab_for(mr, ["be"]), "be")
        calls = self.count_builds(monkeypatch)
        with pytest.raises(DecodingFailed) as info:
            decode(mr, scorer, DecodeConfig(beam_size=3, max_length=12))
        assert info.value.partial is not None
        assert len(calls) == 1


class TestFailureModes:
    def test_degenerate_scorer_stutters_until_the_budget_wall(self):
        # the scorer refuses every structural token outright, so the
        # budget rule cannot rescue it: the hypothesis stutters words
        # while idling still fits (here 12 - 5 closure tokens = 7 steps)
        # and dies the moment only closing moves remain
        mr = mk("[INFORM [temp 20 ] ]")
        scorer = OneWordScorer(vocab_for(mr, ["be"]), "be")
        with pytest.raises(DecodingFailed) as info:
            decode(mr, scorer, DecodeConfig(beam_size=3, max_length=12))
        partial = info.value.partial
        assert partial is not None
        assert set(partial.tokens) == {"be"}
        assert len(partial.tokens) == 7
        assert not partial.tree_valid

    def test_flat_ties_are_rescued_by_budget_forcing(self):
        # a fully uniform scorer gives the tie-break no signal and word
        # expansions crowd the beam; the budget rule masks words at the
        # wall, so the bracket-building path finishes instead of starving
        mr = mk("[INFORM [temp 20 ] ]")
        scorer = UniformScorer(vocab_for(mr, ["w"]))
        result = decode(mr, scorer, DecodeConfig(beam_size=3, max_length=12))
        best = result.candidates[0]
        assert best.tree_valid
        assert len(best.tokens) < 12

    def test_max_length_shorter_than_any_realization(self):
        mr = mk("[JOIN [INFORM [temp 20 ] ] [INFORM [humidity low ] ] ]")
        scorer = SkeletonUniformScorer(vocab_for(mr))
        with pytest.raises(DecodingFailed):
            decode(mr, scorer, DecodeConfig(beam_size=4, max_length=3))


class TestRerank:
    def candidates_for(self, mr):
        valid = sorted(enumerate_valid_skeletons(mr))
        cands = []
        rng = random.Random(11)
        for i, seq in enumerate(valid[:4]):
            cands.append(Candidate(tuple(seq[:-1]), -float(i), True))
        for i in range(3):
            broken = ("[INFORM",) * (i + 1)  # never closes
            cands.append(Candidate(broken, -0.5 - i, False))
        rng.shuffle(cands)
        return cands

    def test_all_valid_keeps_order(self):
        mr = mk("[INFORM [temp 20 ] ]")
        valid = sorted(enumerate_valid_skeletons(mr))
        cands = [Candidate(tuple(seq[:-1]), -float(i), True) for i, seq in enumerate(valid)]
        assert rerank_by_tree_accuracy(cands) == cands

    def test_stable_partition_valid_first(self):
        mr = mk("[JOIN [INFORM [temp 20 ] ] [INFORM [humidity low ] ] ]")
        cands = self.candidates_for(mr)
        ranked = rerank_by_tree_accuracy(cands)
        flags = [c.tree_valid for c in ranked]
        assert flags == sorted(flags, reverse=True)
        # relative order within each class is the input order
        originals = [c.tokens for c in cands]
        for cls in (True, False):
            kept = [c.tokens for c in ranked if c.tree_valid is cls]
            want = [
                c.tokens for c in cands if check_tree(mr, c.tokens) is cls
            ]
            assert kept == want

    def test_matches_sort_by_validity_then_position_oracle(self):
        mr = mk("[JOIN [INFORM [temp 20 ] ] [INFORM [humidity low ] ] ]")
        rng = random.Random(77)
        for _ in range(20):
            cands = self.candidates_for(mr)
            rng.shuffle(cands)
            ranked = rerank_by_tree_accuracy(cands)
            order = sorted(
                range(len(cands)),
                key=lambda i: (not check_tree(mr, cands[i].tokens), i),
            )
            assert [c.tokens for c in ranked] == [cands[i].tokens for i in order]

    def test_rerank_mode_runs_end_to_end(self):
        mr = mk("[INFORM [temp 20 ] ]")
        scorer = UniformScorer(vocab_for(mr, ["word"]))
        result = decode(
            mr, scorer, DecodeConfig(beam_size=6, max_length=14, mode=DecodeMode.RERANK)
        )
        flags = [c.tree_valid for c in result.candidates]
        assert flags == sorted(flags, reverse=True)


class TestExternalScorerDecode:
    def test_uniform_wire_double_matches_in_process(self, tmp_path):
        mr = mk("[INFORM [temp 20 ] ]")
        vocab = vocab_for(mr, ["mild", "out"])
        script = tmp_path / "uniform.py"
        script.write_text(
            "import base64, json, math, struct, sys\n"
            "n = int(sys.argv[1])\n"
            'print(json.dumps({"vocab_size": n, "protocol": 2}), flush=True)\n'
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            '    rows = len(req["prefixes"])\n'
            '    raw = struct.pack("<%dd" % (rows * n), *[math.log(1.0 / n)] * (rows * n))\n'
            '    print(json.dumps({"id": req["id"],'
            ' "logprobs": base64.b64encode(raw).decode()}), flush=True)\n'
        )
        # flat scores give the unconstrained beam an immediate EOS path,
        # so both runs finish; the point is wire/in-process equality
        config = DecodeConfig(beam_size=5, max_length=16, mode=DecodeMode.UNCONSTRAINED)
        local = decode(mr, UniformScorer(vocab), config)
        with ExternalScorer([sys.executable, str(script), str(len(vocab))], vocab) as remote:
            piped = decode(mr, remote, config)
        assert [c.tokens for c in piped.candidates] == [c.tokens for c in local.candidates]
        for a, b in zip(piped.candidates, local.candidates):
            assert a.score == pytest.approx(b.score, abs=1e-9)
