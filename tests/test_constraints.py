"""The acceptance automaton: construction, stepping, masking."""

import math
import random
from collections import OrderedDict
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treegen import constraints
from treegen.beam import _StateTable
from treegen.constraints import (
    ROOT,
    AlignmentState,
    advance,
    build_constraints,
    check_tree,
    first_rejection,
    initial_states,
    min_completion_tokens,
    valid_structural_tokens,
)
from treegen.ontology import ArgumentSpec, NodeKind, Ontology, weather_ontology
from treegen.trees import (
    CLOSE,
    EOS,
    MrNode,
    MrTree,
    linearize,
    open_token,
    parse_mr,
)
from treegen.vocab import Vocabulary

from oracles import enumerate_valid_skeletons, random_mr, ref_groups, ref_number_dfs

# a schematic ontology matching the two-act worked example
SCHEMA = Ontology(
    name="schematic",
    dialog_acts=frozenset({"INFORM", "RECOMMEND"}),
    discourse_relations=frozenset({"JOIN", "CONTRAST", "JUSTIFY"}),
    arguments=(
        ArgumentSpec("A"),
        ArgumentSpec("B"),
        ArgumentSpec("C"),
        ArgumentSpec("D"),
    ),
)

WEATHER = weather_ontology()

TWO_ACT_MR = parse_mr("[JOIN [INFORM [A ] [B ] ] [INFORM [B ] [D ] ] ]", SCHEMA)


def feed(tracker, tokens, states=None):
    """Advance through tokens, asserting that the automaton accepts each."""
    if states is None:
        states = initial_states(tracker)
    for token in tokens:
        states = advance(tracker, states, token)
        assert states, f"{token!r} rejected"
    return states


def automaton_accepted_set(mr):
    """Exhaustive breadth-first expansion of the automaton's language."""
    tracker = build_constraints(mr)
    labels = sorted({open_token(n.label) for n in mr.root.iter_nodes()})
    alphabet = labels + [CLOSE]
    accepted = set()
    frontier = [((), initial_states(tracker))]
    while frontier:
        nxt = []
        for prefix, states in frontier:
            if advance(tracker, states, EOS):
                accepted.add(prefix + (EOS,))
            for token in alphabet:
                survivors = advance(tracker, states, token)
                if survivors:
                    nxt.append((prefix + (token,), survivors))
        frontier = nxt
    return accepted


class TestBuildConstraints:
    def test_dfs_numbering_two_act_example(self):
        tracker = build_constraints(TWO_ACT_MR)
        labels = [n.label for n in tracker.nodes]
        assert labels == ["JOIN", "INFORM", "A", "B", "INFORM", "B", "D"]
        assert {i for i, label in enumerate(labels) if label == "INFORM"} == {1, 4}
        assert {i for i, label in enumerate(labels) if label == "B"} == {3, 5}
        assert tracker.parent_map[0] == ROOT
        assert tracker.children_map[0] == (1, 4)
        assert tracker.children_map[1] == (2, 3)
        assert tracker.children_map[4] == (5, 6)
        assert tracker.join_nodes == {0}

    def test_single_node_mr(self):
        tracker = build_constraints(MrTree(MrNode(NodeKind.ACT, "YES")))
        assert len(tracker.nodes) == 1
        assert tracker.children_map[0] == ()
        assert tracker.children_map[ROOT] == (0,)

    def test_dfs_consistency_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(500):
            tree = random_mr(rng, WEATHER, max_nodes=10)
            tracker = build_constraints(tree)
            nodes, parents = ref_number_dfs(tree.root)
            assert [n.label for n in tracker.nodes] == [n.label for n in nodes]
            assert [tracker.parent_map[i] for i in range(len(nodes))] == parents
            for idx in range(len(nodes)):
                kids = tracker.children_map[idx]
                assert list(kids) == [
                    j for j in range(len(nodes)) if parents[j] == idx
                ]


class TestEllipsisOptions:
    def test_two_act_example_groups(self):
        options = build_constraints(TWO_ACT_MR).ellipsis_options
        assert options[3] == {3, 5}
        assert options[5] == {3, 5}
        for idx in (0, 1, 2, 4, 6):
            assert options[idx] == {idx}

    def test_all_distinct_subtrees_are_singletons(self):
        mr = parse_mr("[INFORM [A x ] [B y ] [C z ] ]", SCHEMA)
        options = build_constraints(mr).ellipsis_options
        assert all(group == {idx} for idx, group in enumerate(options))

    def test_contrastive_weather_example_groups(self):
        mr, _ = contrastive_weather_pair()
        options = build_constraints(mr).ellipsis_options
        nodes, _ = ref_number_dfs(mr.root)
        date_ids = [i for i, n in enumerate(nodes) if n.label == "date_time"]
        loc_ids = [i for i, n in enumerate(nodes) if n.label == "location"]
        assert len(date_ids) == 2 and options[date_ids[0]] == set(date_ids)
        assert len(loc_ids) == 2 and options[loc_ids[0]] == set(loc_ids)

    def test_matches_pairwise_oracle_on_random_trees(self):
        rng = random.Random(13)
        for _ in range(300):
            tree = random_mr(rng, WEATHER, max_nodes=9, value_pool=("v",))
            options = build_constraints(tree).ellipsis_options
            assert dict(enumerate(options)) == ref_groups(tree.root)

    def test_every_group_contains_self(self):
        rng = random.Random(17)
        for _ in range(200):
            tree = random_mr(rng, WEATHER, max_nodes=9)
            for idx, group in enumerate(build_constraints(tree).ellipsis_options):
                assert idx in group


class TestAcceptToken:
    def test_identity_linearization_accepted(self):
        rng = random.Random(3)
        for _ in range(200):
            tree = random_mr(rng, WEATHER, max_nodes=10)
            assert check_tree(tree, linearize(tree))

    def test_words_accepted_unconditionally(self):
        tracker = build_constraints(TWO_ACT_MR)
        states = feed(tracker, ["[JOIN"])
        assert advance(tracker, states, "hello") == states

    def test_join_children_out_of_order_rejected(self):
        # opening the second INFORM's B first strands the first child:
        # it has no ellipsis twin, so the Open cannot be accepted
        mr = parse_mr("[JOIN [INFORM [A ] ] [INFORM [B ] ] ]", SCHEMA)
        tokens = ["[JOIN", "[INFORM", "[B"]
        assert tokens[first_rejection(mr, tokens)] == "[B"

    def test_fork_between_twin_acts_resolves_via_join_order(self):
        mr = parse_mr("[JOIN [INFORM [A ] ] [INFORM [A ] ] ]", SCHEMA)
        tracker = build_constraints(mr)
        states = feed(tracker, ("[JOIN", "[INFORM"))
        # the opened act could be either twin
        assert {s.parent for s in states} == {1, 3}
        states = feed(tracker, ("[A", CLOSE, CLOSE, "[INFORM"), states)
        # a second INFORM can only be the later child: the fork resolves
        assert {s.parent for s in states} == {3}

    def test_open_that_strands_a_unique_sibling_is_rejected_immediately(self):
        # the two INFORMs differ, so realizing the second one first would
        # strand the first with no twin; no alignment forks for it
        tracker = build_constraints(TWO_ACT_MR)
        states = feed(tracker, ("[JOIN", "[INFORM"))
        assert {s.parent for s in states} == {1}
        states = feed(tracker, ["[A"], states)
        assert {s.parent for s in states} == {2}

    def test_repetition_rejected(self):
        mr = parse_mr("[INFORM [A x ] [B y ] ]", SCHEMA)
        tracker = build_constraints(mr)
        states = feed(tracker, ("[INFORM", "[A", "x", CLOSE))
        assert not advance(tracker, states, "[A")

    def test_hallucinated_label_rejected(self):
        mr = parse_mr("[INFORM [A x ] ]", SCHEMA)
        tracker = build_constraints(mr)
        states = feed(tracker, ["[INFORM"])
        assert not advance(tracker, states, "[B")

    def test_omitting_unique_argument_rejected_at_close(self):
        mr = parse_mr("[INFORM [A x ] [B y ] ]", SCHEMA)
        tokens = ["[INFORM", "[A", "x", CLOSE, CLOSE]
        assert first_rejection(mr, tokens) == 4  # the second CLOSE

    def test_eos_before_root_completes_rejected(self):
        mr = parse_mr("[INFORM [A x ] ]", SCHEMA)
        tracker = build_constraints(mr)
        states = feed(tracker, ["[INFORM"])
        assert not advance(tracker, states, EOS)

    def test_empty_output_rejected(self):
        mr = parse_mr("[INFORM ]", SCHEMA)
        assert not check_tree(mr, [])

    @pytest.mark.parametrize(
        "output, pos",
        [
            ("[INFORM [temp 20 ] ]", None),
            ("[INFORM [temp 20 ] ] </s>", None),
            ("[INFORM [temp 20 ] ] </s> extra words", 6),
            ("[INFORM [temp 20 ] ] </s> </s>", 6),
            ("[INFORM [temp 20 ] ] </s> ]", 6),
            ("[INFORM [temp 20 ] ] </s> [INFORM [temp 20 ] ]", 6),
            ("[INFORM </s> [temp 20 ] ]", 1),
            ("[INFORM [temp 20 ] ] ] </s> extra", 5),
        ],
    )
    def test_nothing_may_follow_eos(self, output, pos):
        mr = parse_mr("[INFORM [temp 20 ] ]", WEATHER)
        assert first_rejection(mr, output) == pos
        assert first_rejection(mr, output.split()) == pos
        assert check_tree(mr, output) is (pos is None)

    def test_state_count_resolves_at_sequence_end(self):
        rng = random.Random(29)
        for _ in range(100):
            tree = random_mr(rng, WEATHER, max_nodes=9)
            tracker = build_constraints(tree)
            finals = feed(tracker, linearize(tree) + [EOS])
            assert any(s.parent == ROOT for s in finals)

    def test_monotone_rejection(self):
        mr = parse_mr("[INFORM [A x ] [B y ] ]", SCHEMA)
        bad = ["[INFORM", "[A", CLOSE, "[C"]
        pos = first_rejection(mr, bad)
        assert pos == 3
        for suffix in ([CLOSE], ["[B", CLOSE], ["w", CLOSE, CLOSE]):
            assert first_rejection(mr, bad + suffix) == 3


class TestEllipsisAcceptance:
    def test_either_twin_may_be_elided(self):
        # B appears in both acts; realizing it once is enough
        keep_first = "[JOIN [INFORM [A ] [B ] ] [INFORM [D ] ] ]"
        keep_second = "[JOIN [INFORM [A ] ] [INFORM [B ] [D ] ] ]"
        assert check_tree(TWO_ACT_MR, keep_first.split())
        assert check_tree(TWO_ACT_MR, keep_second.split())

    def test_eliding_both_twins_rejected(self):
        neither = "[JOIN [INFORM [A ] ] [INFORM [D ] ] ]"
        assert not check_tree(TWO_ACT_MR, neither.split())

    def test_eliding_whole_twin_act(self):
        mr = parse_mr("[JOIN [INFORM [A ] ] [INFORM [A ] ] ]", SCHEMA)
        assert check_tree(mr, "[JOIN [INFORM [A ] ] ]".split())
        assert not check_tree(mr, "[JOIN ]".split())

    def test_nested_twins_across_acts(self):
        mr = parse_mr(
            "[JOIN [INFORM [date_time [month September ] [day 29 ] ] "
            "[condition rain ] ] [INFORM [date_time [month September ] "
            "[day 29 ] ] [temp 50 ] ] ]",
            WEATHER,
        )
        out = (
            "[JOIN [INFORM [date_time [month September ] [day 29 ] ] "
            "[condition rain ] ] [INFORM [temp 50 ] ] ]"
        )
        assert check_tree(mr, out.split())


def restaurant_example():
    """A two-fact restaurant MR and three candidate realizations."""
    ont = Ontology(
        name="restaurant",
        dialog_acts=frozenset({"INFORM"}),
        discourse_relations=frozenset({"JOIN", "CONTRAST"}),
        arguments=(
            ArgumentSpec("name"),
            ArgumentSpec("eatType"),
            ArgumentSpec("customerrating"),
            ArgumentSpec("pricerange"),
        ),
    )
    mr = parse_mr(
        "[JOIN [INFORM [name The Punter ] [eatType coffee shop ] ] "
        "[CONTRAST [INFORM [customerrating low ] ] "
        "[INFORM [pricerange cheap ] ] ] ]",
        ont,
    )
    valid_1 = (
        "[JOIN [INFORM [name The Punter ] is a [eatType coffee shop ] ] "
        "[CONTRAST [INFORM with a [customerrating low ] customer rating ] "
        ", but [INFORM [pricerange cheap ] prices ] ] ]"
    ).split()
    # same content, non-JOIN children reordered (the INFORM's arguments)
    valid_2 = (
        "[JOIN [INFORM a [eatType coffee shop ] called [name The Punter ] ] "
        "[CONTRAST [INFORM it has a [customerrating low ] rating ] "
        "although [INFORM it is [pricerange cheap ] ] ] ]"
    ).split()
    # flat single INFORM: drops CONTRAST, gives INFORM illegal children
    invalid_3 = (
        "[JOIN [INFORM [name The Punter ] is a [eatType coffee shop ] "
        "with a [customerrating low ] rating and [pricerange cheap ] "
        "prices ] ]"
    ).split()
    return mr, valid_1, valid_2, invalid_3


def weather_with_cloud_coverage() -> Ontology:
    """The weather ontology with a ``cloud_coverage`` argument declared."""
    return Ontology(
        name=WEATHER.name,
        dialog_acts=WEATHER.dialog_acts,
        discourse_relations=WEATHER.discourse_relations,
        arguments=WEATHER.arguments + (ArgumentSpec("cloud_coverage"),),
        delexicalized=WEATHER.delexicalized,
    )


def contrastive_weather_pair():
    """A snow/rain contrast with repeated date and location arguments.

    The response elides the date in the first act (expressed in the second)
    and the location in the second act (expressed in the first).
    """
    ont = weather_with_cloud_coverage()
    mr = parse_mr(
        "[CONTRAST "
        "[INFORM [location [city Parker ] ] [condition_not snow ] "
        "[date_time [day 29 ] [month September ] [year 2018 ] ] ] "
        "[INFORM [date_time [day 29 ] [month September ] [year 2018 ] ] "
        "[location [city Parker ] ] [condition heavy rain showers ] "
        "[cloud_coverage partly cloudy ] "
        "[precip_chance_summary very likely chance ] ] ]",
        ont,
    )
    annotated = (
        "[CONTRAST [INFORM [location [city Parker ] ] is not expecting any "
        "[condition_not snow ] ] , but [INFORM "
        "[date_time [day 29 ] [month September ] [year 2018 ] ] there 's a "
        "[precip_chance_summary very likely chance ] of "
        "[condition heavy rain showers ] and it 'll be "
        "[cloud_coverage partly cloudy ] ] ]"
    ).split()
    return mr, annotated


class TestCheckTree:
    def test_restaurant_outputs(self):
        mr, valid_1, valid_2, invalid_3 = restaurant_example()
        assert check_tree(mr, valid_1)
        assert check_tree(mr, valid_2)
        assert not check_tree(mr, invalid_3)

    def test_restaurant_rejection_is_at_first_illegal_open(self):
        mr, _, _, invalid_3 = restaurant_example()
        pos = first_rejection(mr, invalid_3)
        assert invalid_3[pos] == "[customerrating"

    def test_contrastive_weather_example(self):
        mr, annotated = contrastive_weather_pair()
        assert check_tree(mr, annotated)

    def test_contrastive_example_requires_the_realized_date(self):
        # dropping the second act's date leaves the group fully elided
        mr, annotated = contrastive_weather_pair()
        start = annotated.index("[date_time")
        # the whole date_time span is 11 tokens: [date_time [day 29 ]
        # [month September ] [year 2018 ] ]
        span = annotated[start : start + 11]
        assert span[0] == "[date_time" and span[-1] == CLOSE
        stripped = annotated[:start] + annotated[start + 11 :]
        assert not check_tree(mr, stripped)

    def test_surface_variant_with_unexpressed_fields_is_rejected(self):
        # realizing the date as a colloquial word, or naming a chance
        # summary the MR does not carry, both break strict acceptance
        ont = weather_with_cloud_coverage()
        mr_as_displayed = parse_mr(
            "[CONTRAST "
            "[INFORM [location [city Parker ] ] [condition_not snow ] "
            "[date_time [day 29 ] [month September ] [year 2018 ] ] ] "
            "[INFORM [date_time [day 29 ] [month September ] [year 2018 ] ] "
            "[location [city Parker ] ] [condition heavy rain showers ] "
            "[cloud_coverage partly cloudy ] ] ]",
            ont,
        )
        annotated_as_displayed = (
            "[CONTRAST [INFORM [location [city Parker ] ] is not expecting any "
            "[condition_not snow ] ] , but [INFORM "
            "[date_time [colloquial today ] ] there 's a "
            "[precip_chance_summary very likely chance ] of "
            "[condition heavy rain showers ] and it 'll be "
            "[cloud_coverage partly cloudy ] ] ]"
        ).split()
        assert not check_tree(mr_as_displayed, annotated_as_displayed)

    def test_omitting_non_repeated_argument_fails(self):
        mr = parse_mr("[INFORM [condition sunny ] [temp 70 ] ]", WEATHER)
        assert not check_tree(mr, "[INFORM [condition sunny ] ]".split())


class TestOracleEquivalence:
    def test_accepted_language_matches_enumerator(self):
        rng = random.Random(101)
        covered_relations = set()
        saw_group = False
        for _ in range(80):
            tree = random_mr(rng, SCHEMA, max_nodes=7, value_pool=("v",))
            for node in tree.root.iter_nodes():
                if node.kind is NodeKind.RELATION:
                    covered_relations.add(node.label)
            groups = build_constraints(tree).ellipsis_options
            if any(len(g) > 1 for g in groups):
                saw_group = True
            assert automaton_accepted_set(tree) == enumerate_valid_skeletons(tree)
        assert saw_group
        assert {"JOIN"} <= covered_relations

    def test_nested_join_with_twin_acts(self):
        # skipping the outer first child and then the inner first child
        # exhausts their shared group; the automaton must refuse the second
        # skip immediately rather than accept a doomed prefix
        mr = parse_mr(
            "[JOIN [INFORM [A ] ] [JOIN [INFORM [A ] ] [RECOMMEND [B ] ] ] ]",
            SCHEMA,
        )
        tracker = build_constraints(mr)
        states = feed(tracker, ("[JOIN", "[JOIN"))
        # realizing the inner INFORM (eliding the identical outer one) is
        # fine, but jumping straight to RECOMMEND would consume both twins
        assert advance(tracker, states, "[INFORM")
        assert not advance(tracker, states, "[RECOMMEND")
        assert automaton_accepted_set(mr) == enumerate_valid_skeletons(mr)


class TestMaskScores:
    """The structural mask: valid_structural_tokens and its successor sets."""

    def test_valid_candidates_unchanged(self):
        tracker = build_constraints(TWO_ACT_MR)
        states = feed(tracker, ["[JOIN"])
        moves = valid_structural_tokens(tracker, states).moves
        assert "[INFORM" in moves
        successors, cost = moves["[INFORM"]
        assert successors == advance(tracker, states, "[INFORM")
        assert cost == min(min_completion_tokens(tracker, s) for s in successors)
        assert "hello" not in moves  # words are never listed, never masked

    def test_illegal_open_masked_to_neg_inf(self):
        mr, _, _, invalid_3 = restaurant_example()
        tracker = build_constraints(mr)
        pos = first_rejection(mr, invalid_3)
        states = feed(tracker, invalid_3[:pos])
        moves = valid_structural_tokens(tracker, states).moves
        assert invalid_3[pos] not in moves
        assert "word" not in moves

    def test_states_untouched_by_masking(self):
        tracker = build_constraints(TWO_ACT_MR)
        states = feed(tracker, ["[JOIN"])
        before = set(states)
        moves = valid_structural_tokens(tracker, states).moves
        assert set(states) == before
        assert moves and all(nxt != states for nxt, _ in moves.values())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_mask_complement_equals_viable_continuations(self, seed):
        rng = random.Random(seed)
        tree = random_mr(rng, SCHEMA, max_nodes=7, value_pool=("v",))
        accepted = enumerate_valid_skeletons(tree)
        prefixes = {seq[:i] for seq in accepted for i in range(len(seq))}
        tracker = build_constraints(tree)
        base = rng.choice(sorted(accepted))
        cut = rng.randrange(len(base))
        prefix = base[:cut]
        states = feed(tracker, prefix)
        labels = sorted({open_token(n.label) for n in tree.root.iter_nodes()})
        candidates = labels + [CLOSE, EOS, "[JUSTIFY", "someword"]
        moves = valid_structural_tokens(tracker, states).moves
        assert "someword" not in moves  # words are never masked
        viable = {
            token
            for token in candidates
            if prefix + (token,) in prefixes
            or (token == EOS and prefix + (EOS,) in accepted)
        }
        assert set(moves) == viable, (tree, prefix)
        for token, (successors, _) in moves.items():
            assert successors == advance(tracker, states, token), (tree, prefix, token)

        # the beam's budget prune is sound: every structural move its cost
        # row keeps still has an accepted skeleton that fits in the tokens
        # the budget leaves
        budget = rng.randrange(len(base) - cut + 2)
        vocab = Vocabulary.from_tokens(candidates)
        row, successors = _StateTable(tracker, vocab, costs=True)[states]
        kept = {vocab.token(i): successors[i] for i in vocab.structural_ids if row[i] <= budget}
        assert set(kept) <= set(moves)
        for token, successors in kept.items():
            assert successors == moves[token][0]
            if token == EOS:
                continue
            extended = prefix + (token,)
            assert any(
                seq[: len(extended)] == extended
                and len(seq) - len(extended) <= budget
                for seq in accepted
            ), (tree, prefix, token, budget)


def join_of_twins(rng, copies):
    """A JOIN of `copies` identical INFORM acts, so state sets hold several states."""
    labels = sorted(rng.sample("ABCD", rng.randint(1, 2 if copies <= 4 else 1)))
    args = tuple(MrNode(NodeKind.ARGUMENT, label, (), "v") for label in labels)
    return MrTree(MrNode(NodeKind.RELATION, "JOIN", (MrNode(NodeKind.ACT, "INFORM", args),) * copies))


def uncached_moves(tracker, states):
    """Every structural move with its cheapest completion, from advance alone.

    EOS needs nothing after it, so its cost is 0.
    """
    labels = sorted({open_token(n.label) for n in tracker.nodes})
    moves = []
    for token in labels + [CLOSE, EOS]:
        successors = advance(tracker, states, token)
        if successors:
            cost = 0 if token == EOS else min(min_completion_tokens(tracker, s) for s in successors)
            moves.append((token, successors, cost))
    return moves


class TestCompiledMoves:
    """The tracker's memo of moves and costs against the plain advance path."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([None, 2, 3, 4, 5, 6]))
    def test_memo_equals_uncached_reference(self, seed, copies):
        rng = random.Random(seed)
        if copies is None:
            tree = random_mr(rng, SCHEMA, max_nodes=7, value_pool=("v",))
        else:
            tree = join_of_twins(rng, copies)
        accepted = enumerate_valid_skeletons(tree)
        prefixes = sorted({seq[:i] for seq in accepted for i in range(len(seq))}, key=len)
        # one tracker for the whole walk, so later prefixes, and the second
        # read of each, hit the memo that earlier ones filled
        tracker = build_constraints(tree)
        walked = {(): initial_states(tracker)}
        for prefix in prefixes:
            if prefix:
                walked[prefix] = advance(tracker, walked[prefix[:-1]], prefix[-1])
            states = walked[prefix]
            idle = min(min_completion_tokens(tracker, s) for s in states)
            want = {
                token: (successors, cost)
                for token, successors, cost in uncached_moves(tracker, states)
            }
            for _ in range(2):
                got = valid_structural_tokens(tracker, states)
                assert got.moves == want, (tree, prefix)
            assert got.idle == idle, (tree, prefix)
        if copies is not None:
            assert max(len(states) for states in walked.values()) > 1

    def test_memo_entries_are_shared_by_shape(self):
        with fresh_memo() as memo:
            tracker = build_constraints(TWO_ACT_MR)
            states = feed(tracker, ["[JOIN"])
            first = valid_structural_tokens(tracker, states).moves
            assert list(memo) == [(tracker.shape_key, states)]
            # the same successor objects come back on every read
            again = valid_structural_tokens(tracker, states).moves
            assert again == first
            assert all(again[token][0] is first[token][0] for token in again)
            # a fresh tracker of the same shape reads the first one's
            # entries by identity; one of another shape reads none
            fresh = valid_structural_tokens(build_constraints(TWO_ACT_MR), states).moves
            assert all(fresh[token][0] is first[token][0] for token in fresh)
            assert len(memo) == 1
            other = build_constraints(parse_mr("[JOIN [INFORM [A ] ] ]", SCHEMA))
            assert other.shape_key != tracker.shape_key
            assert (other.shape_key, states) not in memo

    def test_queries_share_one_read_only_entry(self):
        with fresh_memo() as memo:
            tracker = build_constraints(TWO_ACT_MR)
            states = feed(tracker, ["[JOIN"])
            entry = valid_structural_tokens(tracker, states)
            # every query of the state set returns the memo's own entry,
            # not a copy of it
            assert valid_structural_tokens(tracker, states) is entry
            assert memo[(tracker.shape_key, states)] is entry
            # so no caller can write into the shared moves
            with pytest.raises(TypeError):
                entry.moves["[INFORM"] = (frozenset(), 0)
            with pytest.raises(TypeError):
                del entry.moves["[INFORM"]
            assert entry.moves["[INFORM"][0] == advance(tracker, states, "[INFORM")


class TestCostRows:
    """The beam's compiled mask against a mask rebuilt from advance alone."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([None, 2, 3, 4, 5, 6]))
    def test_row_over_budget_equals_rebuilt_mask(self, seed, copies):
        rng = random.Random(seed)
        if copies is None:
            tree = random_mr(rng, SCHEMA, max_nodes=7, value_pool=("v",))
        else:
            tree = join_of_twins(rng, copies)
        tracker = build_constraints(tree)
        full = linearize(tree)
        vocab = Vocabulary.from_tokens(full + ["[JUSTIFY", "someword"])
        structural = set(vocab.structural_ids)
        table = _StateTable(tracker, vocab, costs=True)
        # every reachable state set, and the empty set off the automaton
        reachable = {frozenset()}
        for seq in enumerate_valid_skeletons(tree):
            states = initial_states(tracker)
            reachable.add(states)
            for token in seq:
                states = advance(tracker, states, token)
                reachable.add(states)
        for states in reachable:
            row, successors = table[states]
            moves = {token: cost for token, _, cost in uncached_moves(tracker, states)}
            idle = min((min_completion_tokens(tracker, s) for s in states), default=math.inf)
            for budget in range(len(full) + 1):
                want = [
                    moves.get(token, math.inf) > budget if i in structural else idle > budget
                    for i, token in enumerate(vocab.tokens)
                ]
                assert (row > budget).tolist() == want, (tree, states, budget)
            # the walk's successors come from the same entry
            assert set(successors) == structural
            for i in structural:
                assert successors[i] == advance(tracker, states, vocab.token(i))
        if copies is not None:
            assert max(len(states) for states in reachable) > 1


class TestMinCompletionTokens:
    def test_initial_state_prices_the_bare_skeleton(self):
        # cheapest completion from scratch: one Open and one Close per
        # node plus EOS, which is exactly the linearized skeleton
        rng = random.Random(5)
        for _ in range(200):
            mr = random_mr(rng, WEATHER)
            tracker = build_constraints(mr)
            (state,) = initial_states(tracker)
            cost = min_completion_tokens(tracker, state)
            skeleton = [t for t in linearize(mr) if t == CLOSE or t.startswith("[")]
            assert cost == len(skeleton) + 1
            assert check_tree(mr, skeleton)

    def test_bound_fits_inside_any_accepted_suffix(self):
        # walking an accepted output, some alignment state must always be
        # finishable within the tokens that output still has left
        rng = random.Random(6)
        for _ in range(200):
            mr = random_mr(rng, WEATHER)
            tracker = build_constraints(mr)
            output = linearize(mr) + [EOS]
            states = initial_states(tracker)
            for pos, token in enumerate(output):
                remaining = len(output) - pos
                assert (
                    min(min_completion_tokens(tracker, s) for s in states)
                    <= remaining
                )
                states = advance(tracker, states, token)
            assert states

    def test_closed_out_state_costs_only_eos(self):
        mr = parse_mr("[INFORM [temp 20 ] ]", WEATHER)
        tracker = build_constraints(mr)
        states = feed(tracker, "[INFORM [temp 20 ] ]".split() + [EOS])
        assert all(s.parent == ROOT for s in states)
        assert min(min_completion_tokens(tracker, s) for s in states) == 1

    def test_budget_prunes_expensive_opens_but_keeps_closes(self):
        mr = parse_mr(
            "[JOIN [INFORM [temp 20 ] ] [INFORM [temp 20 ] ] ]", WEATHER
        )
        tracker = build_constraints(mr)
        states = initial_states(tracker)
        for token in "[JOIN [INFORM [temp 20 ] ]".split():
            states = advance(tracker, states, token)
        # after opening the second INFORM, the cheapest finish is its bare
        # temp, two closes, and EOS: 5 more tokens.  Eliding it instead
        # lets the JOIN close immediately.
        # a budget keeps the moves whose cost fits it
        moves = valid_structural_tokens(tracker, states).moves
        generous = {token for token, (_, cost) in moves.items() if cost <= 5}
        tight = {token for token, (_, cost) in moves.items() if cost <= 4}
        assert "[INFORM" in generous
        assert "[INFORM" not in tight
        assert CLOSE in tight


@contextmanager
def fresh_memo(bound=10**9):
    """Swap in an empty memo of compiled moves with this bound, then restore."""
    with pytest.MonkeyPatch.context() as patch:
        memo = OrderedDict()
        patch.setattr(constraints, "_MEMO", memo)
        patch.setattr(constraints, "MEMO_BOUND", bound)
        yield memo


def rename_values(node, rename):
    """The same tree with every value v replaced by rename[v]."""
    return MrNode(
        node.kind,
        node.label,
        tuple(rename_values(child, rename) for child in node.children),
        None if node.value is None else rename[node.value],
    )


def reachable_state_sets(tracker, tree):
    """Every state set some prefix of an accepted skeleton leads to."""
    reachable = set()
    for seq in enumerate_valid_skeletons(tree):
        states = initial_states(tracker)
        reachable.add(states)
        for token in seq:
            states = advance(tracker, states, token)
            reachable.add(states)
    return reachable


def shapes_held(memo):
    """The distinct shapes of the memo's entries, least recently used first."""
    return list(dict.fromkeys(shape for shape, _ in memo))


class TestSharedMemo:
    """One LRU of (shape, state set) entries, shared by every tracker of a shape."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([None, 2, 3, 4, 5]))
    def test_same_shape_other_values_reads_equal_advance(self, seed, copies):
        rng = random.Random(seed)
        if copies is None:
            tree = random_mr(rng, SCHEMA, max_nodes=7, value_pool=("v1", "v2"))
        else:
            tree = join_of_twins(rng, copies)
        # an injective renaming keeps the twin pattern, so the shape
        renamed = MrTree(rename_values(tree.root, {"v": "w", "v1": "x2", "v2": "x1"}))
        with fresh_memo() as memo:
            first = build_constraints(tree)
            for states in reachable_state_sets(first, tree):
                valid_structural_tokens(first, states)
            filled = dict(memo)
            second = build_constraints(renamed)
            assert second.shape_key == first.shape_key
            for states in reachable_state_sets(second, renamed):
                key = (second.shape_key, states)
                assert key in filled  # filled by the first tracker
                want = {
                    token: (successors, cost)
                    for token, successors, cost in uncached_moves(second, states)
                }
                got = valid_structural_tokens(second, states)
                assert got.moves == want, (renamed, states)
                idle = min(min_completion_tokens(second, s) for s in states)
                assert got.idle == idle
                assert memo[key] is filled[key]
            assert len(memo) == len(filled)

    def test_other_twin_pattern_shares_nothing(self):
        twins = parse_mr("[JOIN [INFORM [temp 20 ] ] [INFORM [temp 20 ] ] ]", WEATHER)
        apart = parse_mr("[JOIN [INFORM [temp 20 ] ] [INFORM [temp 21 ] ] ]", WEATHER)
        with fresh_memo() as memo:
            first = build_constraints(twins)
            for states in reachable_state_sets(first, twins):
                valid_structural_tokens(first, states)
            filled = len(memo)
            second = build_constraints(apart)
            assert second.shape_key != first.shape_key
            assert shapes_held(memo) == [first.shape_key]
            # twins may elide one act; distinct acts must both be realized
            reachable = reachable_state_sets(second, apart)
            for states in reachable:
                want = {
                    token: (successors, cost)
                    for token, successors, cost in uncached_moves(second, states)
                }
                assert valid_structural_tokens(second, states).moves == want
            assert shapes_held(memo) == [first.shape_key, second.shape_key]
            assert len(memo) == filled + len(reachable)

    def test_bound_holds_across_shapes(self):
        # shapes of 7, 21, 49 and 5 state sets against a bound of 60
        texts = ["[JOIN " + "[INFORM [temp 20 ] ] " * copies + "]" for copies in (1, 2, 3)]
        texts.append("[INFORM [temp 20 ] ]")
        with fresh_memo(bound=60) as memo:
            keys, reads = [], []
            for text in texts:
                tree = parse_mr(text, WEATHER)
                tracker = build_constraints(tree)
                keys.append(tracker.shape_key)
                for states in reachable_state_sets(tracker, tree):
                    valid_structural_tokens(tracker, states)
                    reads.append((tracker.shape_key, states))
                    assert len(memo) <= 60
            # the least recently used entries went first: all of the first
            # shape's, most of the second's
            assert len(reads) == 82
            assert list(memo) == reads[-60:]
            assert shapes_held(memo) == keys[1:]

    def test_oversize_memo_is_not_kept(self):
        tree = parse_mr("[JOIN " + "[INFORM [temp 20 ] ] " * 4 + "]", WEATHER)
        small = parse_mr("[INFORM [temp 20 ] ]", WEATHER)
        with fresh_memo(bound=8) as memo:
            tracker = build_constraints(tree)
            reachable = reachable_state_sets(tracker, tree)
            assert len(reachable) > 8
            reads = []
            for states in reachable:
                valid_structural_tokens(tracker, states)
                reads.append((tracker.shape_key, states))
            # only the blow-up shape's last 8 reads are held, not its whole set
            assert list(memo) == reads[-8:]
            # a shape that fits is kept, and pushes out the oldest entry
            kept = build_constraints(small)
            valid_structural_tokens(kept, initial_states(kept))
            assert list(memo) == reads[-7:] + [(kept.shape_key, initial_states(kept))]
            # the next tracker of the big shape compiles its first sets again
            again = build_constraints(tree)
            first = reads[0][1]
            assert (again.shape_key, first) not in memo
            valid_structural_tokens(again, first)
            assert list(memo)[-1] == (again.shape_key, first) and len(memo) == 8

    def test_reread_entry_survives_one_off_shapes(self):
        kept = build_constraints(parse_mr("[INFORM [temp 20 ] ]", WEATHER))
        idle = build_constraints(parse_mr("[INFORM [humidity 5 ] ]", WEATHER))
        with fresh_memo(bound=4) as memo:
            valid_structural_tokens(idle, initial_states(idle))
            valid_structural_tokens(kept, initial_states(kept))
            reread = (kept.shape_key, initial_states(kept))
            # a stream of one-off shapes, each read once between rereads
            for copies in range(2, 12):
                text = "[JOIN " + "[INFORM [temp 20 ] ] " * copies + "]"
                one_off = build_constraints(parse_mr(text, WEATHER))
                valid_structural_tokens(one_off, initial_states(one_off))
                valid_structural_tokens(kept, initial_states(kept))
                assert reread in memo and len(memo) <= 4
            assert (idle.shape_key, initial_states(idle)) not in memo
