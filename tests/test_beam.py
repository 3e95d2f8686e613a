"""Beam search behaviour in all three modes.

The completeness check compares constrained decoding under a skeleton-only
uniform scorer against the brute-force realization enumerator, so the
decoder and the enumerator must agree on entire candidate sets.
"""

import functools
import json
import math
import random
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import treegen.beam
import treegen.constraints
from oracles import enumerate_valid_skeletons, random_mr, ref_beam_decode
from treegen.beam import (
    Candidate,
    DecodeConfig,
    DecodeMode,
    DecodingFailed,
    _top_k,
    decode,
    rerank_by_tree_accuracy,
)
from treegen.constraints import (
    build_constraints,
    check_tree,
    initial_states,
    valid_structural_tokens,
)
from treegen.ontology import weather_ontology
from treegen.scorers import (
    ExternalScorer,
    ProtocolViolation,
    UniformScorer,
    bind,
    sequence_logprob,
    train_ngram,
)
from treegen.ontology import NodeKind
from treegen.trees import CLOSE, EOS, MrNode, MrTree, canonicalize, linearize, parse_mr
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
        self._vector[vocabulary.encode([word])[0]] = 0.0

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


class ScriptScorer:
    """Scores the next token of one fixed script at 0 and all else -inf.

    EOS is never scored, so a decode follows the script and then fails.
    """

    def __init__(self, vocabulary, script):
        self.vocabulary = vocabulary
        self._ids = vocabulary.encode(script)

    def logprobs(self, prefix, context=None):
        row = np.full(len(self.vocabulary), -np.inf)
        if len(prefix) < len(self._ids):
            row[self._ids[len(prefix)]] = 0.0
        return row


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
    """Records every bind, and every session call: its (parents, tails) in
    calls, and in steps the whole prefixes they stand for."""

    def __init__(self, inner):
        self.vocabulary = inner.vocabulary
        self._inner = inner
        self.binds = 0
        self.calls: list[tuple[list[int], list[tuple[int, ...]]]] = []
        self.steps: list[list[tuple[int, ...]]] = []

    def logprobs(self, prefix, context=None):
        raise AssertionError("the decoder scored one prefix outside a session")

    def bind(self, context=None):
        self.binds += 1
        session = bind(self._inner, context)
        calls, steps = self.calls, self.steps

        class Session:
            previous: list[tuple[int, ...]] = []

            def logprobs(self, parents, tails):
                calls.append((list(parents), [tuple(t) for t in tails]))
                self.previous = [
                    self.previous[p] + tuple(t) if p >= 0 else tuple(t)
                    for p, t in zip(parents, tails)
                ]
                steps.append(self.previous)
                return session.logprobs(parents, tails)

        return Session()


MODES = list(DecodeMode)


class RecurrentDouble:
    """A stateful scorer: its session keeps one running hash per row and
    reorders it by ``parents``, as a recurrent decoder reorders its hidden
    state; ``logprobs(prefix, context)`` recomputes the hash from the
    whole prefix.  Each row is a seeded draw from the hash alone."""

    def __init__(self, vocabulary):
        self.vocabulary = vocabulary
        self.size = len(vocabulary)

    @staticmethod
    def step(state, ids):
        for i in ids:
            state = (state * 1_000_003 + i + 1) % (2**61 - 1)
        return state

    def row(self, state):
        vec = np.random.default_rng(state).standard_normal(self.size) * 3.0
        return vec - np.logaddexp.reduce(vec)

    def logprobs(self, prefix, context=None):
        return self.row(self.step(self.step(7, context or ()), prefix))

    def bind(self, context=None):
        outer, start = self, self.step(7, context or ())

        class Session:
            states: list[int] = []

            def logprobs(self, parents, tails):
                self.states = [
                    outer.step(self.states[p] if p >= 0 else start, t)
                    for p, t in zip(parents, tails)
                ]
                return np.array([outer.row(h) for h in self.states]).reshape(-1, outer.size)

        return Session()


def decode_outcome(mr, scorer, config):
    """The candidates, or the DecodingFailed partial, of one decode."""
    try:
        return decode(mr, scorer, config).candidates
    except DecodingFailed as exc:
        return exc.partial


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

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_recurrent_session_reordered_by_parents_equals_whole_prefixes(self, mode):
        mr_a, _, model = TestTrainedDecode().build()
        double = RecurrentDouble(model.vocabulary)
        mrs = [mr_a, mk("[RECOMMEND [activity hike ] ]"), mk("[INFORM [temp 20 ] [temp 20 ] ]")]
        for mr in mrs:
            for beam_size in (1, 4):
                config = DecodeConfig(beam_size=beam_size, mode=mode, max_length=24)
                stateful = decode_outcome(mr, double, config)
                assert stateful == decode_outcome(mr, LogprobsOnly(double), config)


class TestBuildOnce:
    """One tracker per decode, and tree_valid from the decode's own walk.

    decode never checks a finished candidate again: every flag, the
    failed decode's partial included, equals a fresh check_tree.
    """

    def count_builds(self, monkeypatch):
        calls = []

        def counting(mr):
            calls.append(mr)
            return build_constraints(mr)

        monkeypatch.setattr(treegen.beam, "build_constraints", counting)
        monkeypatch.setattr(treegen.constraints, "build_constraints", counting)
        return calls

    def count_checks(self, monkeypatch):
        # check_tree runs through first_rejection, so this counts both
        checks = []
        original = treegen.constraints.first_rejection

        def counting(mr, output):
            checks.append(output)
            return original(mr, output)

        monkeypatch.setattr(treegen.constraints, "first_rejection", counting)
        return checks

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_build_constraints_runs_once_per_decode(self, mode, monkeypatch):
        mr_a, _, model = TestTrainedDecode().build()
        calls = self.count_builds(monkeypatch)
        checks = self.count_checks(monkeypatch)
        result = decode(mr_a, model, DecodeConfig(beam_size=10, mode=mode))
        assert len(calls) == 1
        assert len(result.candidates) > 1
        assert not hasattr(treegen.beam, "check_tree")
        assert checks == []
        monkeypatch.undo()
        for candidate in result.candidates:
            assert candidate.tree_valid == check_tree(mr_a, candidate.tokens)

    def test_failed_decode_checks_its_partial_with_the_same_tracker(self, monkeypatch):
        mr = mk("[INFORM [temp 20 ] ]")
        scorer = OneWordScorer(vocab_for(mr, ["be"]), "be")
        calls = self.count_builds(monkeypatch)
        checks = self.count_checks(monkeypatch)
        with pytest.raises(DecodingFailed) as info:
            decode(mr, scorer, DecodeConfig(beam_size=3, max_length=12))
        assert len(calls) == 1
        assert checks == []
        partial = info.value.partial
        assert partial.tree_valid == check_tree(mr, partial.tokens)


    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_one_constraint_read_per_state_set(self, mode, monkeypatch):
        # the decode's table asks the automaton once per distinct state
        # set, through the one traced function, and never per hypothesis
        reads = []

        def counting(tracker, states):
            reads.append(states)
            return valid_structural_tokens(tracker, states)

        monkeypatch.setattr(treegen.beam, "valid_structural_tokens", counting)
        for mr in (TestTrainedDecode().build()[0], repeated_join(4)):
            del reads[:]
            scorer = WordedStructuralScorer(vocab_for(mr, ["w"]))
            decode(mr, scorer, DecodeConfig(beam_size=10, mode=mode))
            assert reads and reads[0] == initial_states(build_constraints(mr))
            assert len(reads) == len(set(reads))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_cost_rows_only_in_constrained_mode(self, mode, monkeypatch):
        # only the constrained mask reads cost rows, so the other modes
        # build none; the successors are the same either way
        tables = []
        table_class = treegen.beam._StateTable

        class Recording(table_class):
            def __init__(self, *args):
                super().__init__(*args)
                tables.append(self)

        monkeypatch.setattr(treegen.beam, "_StateTable", Recording)
        for mr in (TestTrainedDecode().build()[0], repeated_join(3)):
            scorer = WordedStructuralScorer(vocab_for(mr, ["w"]))
            decode(mr, scorer, DecodeConfig(beam_size=10, mode=mode))
        assert len(tables) == 2
        for table in tables:
            assert table
            full = table_class(table.tracker, table.vocab, True)
            for states, (row, successors) in table.items():
                assert (row is None) == (mode is not DecodeMode.CONSTRAINED)
                assert successors == full[states][1]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("cut", [0, 1], ids=["whole", "unclosed"])
    def test_partial_verdict_comes_from_its_walk(self, mode, cut):
        # the script is the MR's linearization, whole or short of its last
        # Close; the partial is that script, valid exactly when whole
        mr = mk("[INFORM [temp 20 ] ]")
        whole = linearize(canonicalize(mr))
        script = whole[: len(whole) - cut]
        with pytest.raises(DecodingFailed) as info:
            decode(mr, ScriptScorer(vocab_for(mr), script), DecodeConfig(mode=mode))
        partial = info.value.partial
        assert partial.tokens == tuple(script)
        assert partial.tree_valid == (cut == 0) == check_tree(mr, script)


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

    @pytest.mark.xfail(
        strict=True,
        raises=DecodingFailed,
        reason="the budget mask prices full realization, not the shorter elided one",
    )
    def test_budget_admits_an_elided_realization_that_fits(self):
        # realizing one of the two identical acts takes 7 tokens plus EOS,
        # but min_completion_tokens prices both acts, so every first move
        # is masked under max_length 8 (up to 10; 11 fits both)
        mr = repeated_join(2)
        one_act = "[JOIN [INFORM [temp 20 ] ] ]".split()
        assert len(one_act) == 7 and check_tree(mr, one_act)
        result = decode(mr, UniformScorer(vocab_for(mr)), DecodeConfig(max_length=8))
        assert result.candidates[0].tree_valid

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


RECORDING_SERVER = """\
import sys
from treegen.scorers import NGramModel, serve_loop


class Recording:
    \"\"\"The request lines, written to a log as they are read.\"\"\"

    def __init__(self, stream, log):
        self._stream, self._log = stream, log

    def __iter__(self):
        for line in self._stream:
            self._log.write(line)
            self._log.flush()
            yield line


with open(sys.argv[2], "w") as log:
    serve_loop(NGramModel.load(sys.argv[1]), Recording(sys.stdin, log), sys.stdout)
"""


class TestExternalScorerDecode:
    def test_uniform_wire_double_matches_in_process(self, tmp_path):
        mr = mk("[INFORM [temp 20 ] ]")
        vocab = vocab_for(mr, ["mild", "out"])
        script = tmp_path / "uniform.py"
        script.write_text(
            "import base64, json, math, struct, sys\n"
            "n = int(sys.argv[1])\n"
            'print(json.dumps({"vocab_size": n, "protocol": 3}), flush=True)\n'
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            '    rows = len(req["tails"])\n'
            "    # every row is the same, so one travels\n"
            '    raw = struct.pack("<%dd" % n, *[math.log(1.0 / n)] * n) if rows else b""\n'
            '    print(json.dumps({"id": req["id"], "rows": [0] * rows,'
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


class TestProtocol3Decode:
    """Decodes over a serve_loop child that logs every request it reads."""

    def remote(self, tmp_path, model):
        model_path = tmp_path / "model.json"
        model.save(model_path)
        script = tmp_path / "recording.py"
        script.write_text(RECORDING_SERVER)
        log = tmp_path / "requests.jsonl"
        command = [sys.executable, str(script), str(model_path), str(log)]
        return ExternalScorer(command, model.vocabulary), log

    def requests(self, log):
        return [json.loads(line) for line in log.read_text().splitlines()]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_wire_decode_equals_in_process(self, tmp_path, mode):
        model, mrs = trained_pairs()
        config = DecodeConfig(beam_size=6, mode=mode)
        remote, log = self.remote(tmp_path, model)
        with remote:
            for mr in mrs[:6]:
                assert repr(outcome(mr, remote, config, decode)) == repr(
                    outcome(mr, model, config, decode)
                )
        # each decode's first step sends the empty prefix whole; every later
        # step extends the step before it, one new id per hypothesis
        requests = self.requests(log)
        firsts = [r for r in requests if r["parents"] == [-1] and r["tails"] == [[]]]
        assert len(firsts) == 6
        for r in requests:
            if r not in firsts:
                assert all(p >= 0 for p in r["parents"])
                assert all(len(t) == 1 for t in r["tails"])

    def test_two_sessions_interleaved_on_one_scorer(self, tmp_path):
        model, mrs = trained_pairs()
        config = DecodeConfig(beam_size=6)
        mr_a, mr_b = mrs[0], mrs[1]
        steps = {}
        for mr in (mr_a, mr_b):
            counting = CountingSessions(model)
            decode(mr, counting, config)
            steps[mr] = counting.calls
        remote, log = self.remote(tmp_path, model)
        with remote:
            sessions = {mr: remote.bind(mr) for mr in (mr_a, mr_b)}
            local = {mr: bind(model, mr) for mr in (mr_a, mr_b)}
            for k in range(max(len(steps[mr_a]), len(steps[mr_b]))):
                for mr in (mr_a, mr_b):
                    if k < len(steps[mr]):
                        got = sessions[mr].logprobs(*steps[mr][k])
                        want = local[mr].logprobs(*steps[mr][k])
                        assert got.tobytes() == want.tobytes()
        contexts = {tuple(r["context"]) for r in self.requests(log)}
        assert len(contexts) == 2

    def test_sequence_logprob_over_the_wire(self, tmp_path):
        examples = synthesize_examples(330, seed=3)
        pairs = [(parse_mr(ex.mr, ONT), ex.annotated_response.split()) for ex in examples]
        model, _ = trained_pairs()
        vocab = model.vocabulary
        remote, log = self.remote(tmp_path, model)
        with remote:
            for mr, tokens in pairs[300:306]:
                assert sequence_logprob(remote, tokens, mr) == sequence_logprob(
                    model, tokens, mr
                )
        # one request per sequence, holding each of its prefixes; the first
        # sends them whole, later ones reference the prefixes they share
        # with the sequence before
        previous = []
        requests = self.requests(log)
        for request, (_, tokens) in zip(requests, pairs[300:306], strict=True):
            ids = vocab.encode(tokens) + [vocab.eos_id]
            previous = [
                (previous[p] if p >= 0 else ()) + tuple(t)
                for p, t in zip(request["parents"], request["tails"])
            ]
            assert previous == [tuple(ids[:pos]) for pos in range(len(ids))]
        assert set(requests[0]["parents"]) == {-1}
        assert any(p >= 0 for r in requests[1:] for p in r["parents"])

    def test_decode_right_after_a_refused_request(self, tmp_path):
        model, mrs = trained_pairs()
        vocab = model.vocabulary
        config = DecodeConfig(beam_size=6)
        w1, w2 = vocab.encode(["it", "will"])
        remote, log = self.remote(tmp_path, model)
        with remote:
            session = remote.bind(mrs[0])
            session.logprobs([-1], [[]])
            session.logprobs([0], [[w1]])
            with pytest.raises(ProtocolViolation, match="unknown token id"):
                remote.logprobs([w1], [len(vocab) + 4])
            # the refusal cleared both ends: [w1] is not referenced now
            got = session.logprobs([0], [[w2]])
            assert got.tobytes() == bind(model, mrs[0]).logprobs([-1], [[w1, w2]]).tobytes()
            for mr in mrs[:3]:
                with pytest.raises(ProtocolViolation):
                    remote.logprobs([], [len(vocab) + 4])
                assert repr(outcome(mr, remote, config, decode)) == repr(
                    outcome(mr, model, config, decode)
                )
        requests = self.requests(log)
        assert requests[1]["parents"] == [0] and requests[1]["tails"] == [[w1]]
        assert requests[2]["parents"] == [-1] and requests[2]["tails"] == [[w1]]
        assert requests[3]["parents"] == [-1] and requests[3]["tails"] == [[w1, w2]]


class TiedScorer:
    """Rows drawn from the prefix alone, quantized so that ties abound.

    Some rows are all -inf, and some hold NaN and -inf entries; rows are
    kept, so two decodes that ask for one prefix get one row.
    """

    def __init__(self, vocabulary, seed, levels, dead, nan):
        self.vocabulary = vocabulary
        self._seed = seed
        self._levels = levels
        self._dead = dead
        self._nan = nan
        self._rows = {}

    def logprobs(self, prefix, context=None):
        prefix = tuple(prefix)
        row = self._rows.get(prefix)
        if row is None:
            rng = np.random.default_rng([self._seed, len(prefix), *prefix])
            size = len(self.vocabulary)
            if rng.random() < self._dead:
                row = np.full(size, -np.inf)
            else:
                row = -0.5 * rng.integers(0, self._levels, size)
                row[rng.random(size) < self._nan] = np.nan
                row[rng.random(size) < self._nan] = -np.inf
            self._rows[prefix] = row
        return row.copy()


def repeated_join(k, value="20"):
    act = MrNode(
        NodeKind.ACT, "INFORM", (MrNode(NodeKind.ARGUMENT, "temp", (), value),)
    )
    return MrTree(MrNode(NodeKind.RELATION, "JOIN", (act,) * k))


def outcome(mr, scorer, config, beam):
    """A decode's candidates, or its failure reason and partial."""
    try:
        return "ok", beam(mr, scorer, config).candidates
    except DecodingFailed as exc:
        return "failed", exc.reason, exc.partial


def assert_same_as_reference(mr, scorer, config):
    ours = outcome(mr, scorer, config, decode)
    ref = outcome(mr, scorer, config, ref_beam_decode)
    assert ours == ref
    # repr also tells scores apart that == calls equal, such as -0.0 and 0.0
    assert repr(ours) == repr(ref)


@functools.cache
def trained_pairs():
    """A small n-gram model and held-out MRs it covers, built once."""
    examples = synthesize_examples(330, seed=3)
    pairs = [(parse_mr(ex.mr, ONT), ex.annotated_response.split()) for ex in examples]
    return train_ngram(pairs[:300]), [mr for mr, _ in pairs[300:]]


configs = st.builds(
    DecodeConfig,
    beam_size=st.integers(1, 12),
    max_length=st.one_of(st.none(), st.integers(2, 20)),
    mode=st.sampled_from(MODES),
    length_penalty=st.sampled_from([0.0, 0.6, 1.0, -0.5]),
)


class TestArrayBeamMatchesReference:
    """decode against the list-of-tuples reference beam in tests/oracles.py."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.one_of(st.just(0), st.integers(2, 4)),
        config=configs,
        levels=st.sampled_from([1, 2, 4]),
        dead=st.sampled_from([0.0, 0.05, 0.3]),
        nan=st.sampled_from([0.0, 0.02, 0.2]),
    )
    def test_tied_scorer(self, seed, shape, config, levels, dead, nan):
        # shape 0: a random MR; otherwise a JOIN of that many identical acts
        if shape:
            mr = repeated_join(shape)
        else:
            mr = random_mr(random.Random(seed), ONT, max_nodes=6)
        scorer = TiedScorer(vocab_for(mr, ["w1", "w2", "w3"]), seed, levels, dead, nan)
        assert_same_as_reference(mr, scorer, config)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pick=st.integers(0, 29), config=configs)
    def test_trained_scorer(self, pick, config):
        model, mrs = trained_pairs()
        assert_same_as_reference(mrs[pick], model, config)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_budget_wall_and_all_dead_rows(self, mode):
        mr = mk("[INFORM [temp 20 ] ]")
        vocab = vocab_for(mr, ["be"])
        for max_length in (2, 3, 5, 12):
            config = DecodeConfig(beam_size=3, max_length=max_length, mode=mode)
            assert_same_as_reference(mr, OneWordScorer(vocab, "be"), config)
            assert_same_as_reference(mr, TiedScorer(vocab, 1, 1, 1.0, 0.0), config)


class TestSharedMemoDecode:
    """Decodes share one LRU of compiled moves; what it holds changes no output."""

    @pytest.mark.parametrize("bound", [treegen.constraints.MEMO_BOUND, 16])
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_warm_equals_cold(self, mode, bound, monkeypatch):
        model, mrs = trained_pairs()
        # repeated shapes: the same JOIN twice, and with other values; the
        # last MR has the JOINs' labels and tree but no twins
        mrs = mrs[:20] + [repeated_join(k, value) for k in (2, 3) for value in ("20", "21")]
        mrs.append(parse_mr("[JOIN [INFORM [temp 20 ] ] [INFORM [temp 21 ] ] ]", ONT))
        config = DecodeConfig(beam_size=10, mode=mode)
        monkeypatch.setattr(treegen.constraints, "MEMO_BOUND", bound)
        cold, compiled = [], 0
        for mr in mrs:
            fresh = OrderedDict()
            monkeypatch.setattr(treegen.constraints, "_MEMO", fresh)
            cold.append(outcome(mr, model, config, decode))
            compiled += len(fresh)
        # one memo warmed across every decode; a bound of 16 entries also
        # evicts entries while the decodes that compiled them still run
        memo = OrderedDict()
        monkeypatch.setattr(treegen.constraints, "_MEMO", memo)
        warm = [outcome(mr, model, config, decode) for mr in mrs]
        assert repr(warm) == repr(cold)
        assert memo and len(memo) <= bound
        if bound == treegen.constraints.MEMO_BOUND:
            # nothing evicted, so repeated shapes were compiled once
            assert len(memo) < compiled

    def test_blow_up_decode_never_holds_more_than_the_bound(self, monkeypatch):
        mr = repeated_join(4)
        scorer = TiedScorer(vocab_for(mr, ["w1", "w2"]), 7, 8, 0.0, 0.0)
        memo = OrderedDict()
        monkeypatch.setattr(treegen.constraints, "_MEMO", memo)
        monkeypatch.setattr(treegen.constraints, "MEMO_BOUND", 8)
        held = []

        def counted(tracker, states):
            entry = treegen.constraints.valid_structural_tokens(tracker, states)
            held.append(len(memo))
            return entry

        monkeypatch.setattr(treegen.beam, "valid_structural_tokens", counted)
        config = DecodeConfig(beam_size=10, mode=DecodeMode.CONSTRAINED)
        assert decode(mr, scorer, config).candidates
        # the decode read more state sets than the bound, and the memo
        # held at most the bound after every read
        assert len(held) > 8
        assert max(held) == 8


class TestTopK:
    """The partial selection against the head of a full stable argsort."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.5, -1.0, -2.5, -np.inf, np.nan, np.inf]),
            min_size=1,
            max_size=60,
        ),
        k=st.integers(1, 70),
    )
    def test_head_of_stable_argsort(self, values, k):
        flat = np.array(values)
        order = _top_k(flat.copy(), k)
        full = np.argsort(-flat, kind="stable")[:k]
        assert len(order) == len(full)

        def live(indices):
            # the beam reads up to the first -inf or NaN
            head = []
            for idx in indices.tolist():
                if flat[idx] == -np.inf or np.isnan(flat[idx]):
                    break
                head.append(idx)
            return head

        assert live(order) == live(full)
        if not np.isnan(flat).any():
            assert order.tolist() == full.tolist()

    def test_input_is_left_alone(self):
        flat = np.array([0.0, np.nan, -1.0])
        _top_k(flat, 1)
        assert np.isnan(flat[1])
