"""Parsing, serialization and canonicalization."""

import random

import pytest

from treegen.ontology import NodeKind, UnknownLabel, weather_ontology, restaurant_ontology
from treegen.trees import (
    AnnotatedNode,
    EmptyInput,
    InvalidStructure,
    MrNode,
    MrTree,
    UnbalancedBrackets,
    annotated_to_mr,
    canonicalize,
    linearize,
    ordered_arguments,
    parse_linearized,
    parse_mr,
    signature,
    skeleton,
    structure_key,
    to_string,
    tokenize,
    validate,
)

from oracles import random_mr
from treegen.weather import synthesize_examples

WEATHER = weather_ontology()
RESTAURANT = restaurant_ontology()


def arg(label, value=None, children=()):
    return MrNode(NodeKind.ARGUMENT, label, tuple(children), value)


def act(label, *children):
    return MrNode(NodeKind.ACT, label, tuple(children))


def rel(label, *children):
    return MrNode(NodeKind.RELATION, label, tuple(children))


class TestParse:
    def test_single_act_round_trip(self):
        text = "[INFORM [condition sunny ] [temp 72 ] ]"
        tree = parse_mr(text, WEATHER)
        assert to_string(tree) == text

    def test_numeric_suffix_stripped(self):
        tree = parse_mr("[INFORM_1 [condition sunny ] ]", WEATHER)
        assert tree.root.label == "INFORM"

    def test_case_insensitive_labels(self):
        tree = parse_mr("[inform [CONDITION sunny ] ]", WEATHER)
        assert tree.root.label == "INFORM"
        assert tree.root.children[0].label == "condition"

    def test_multiple_roots_wrapped_in_join(self):
        tree = parse_mr("[YES ] [INFORM [condition rain ] ]", WEATHER)
        assert tree.root.label == "JOIN"
        assert tree.root.kind is NodeKind.RELATION
        assert [c.label for c in tree.root.children] == ["YES", "INFORM"]
        # and the wrapper is visible when serialized again
        assert to_string(tree).startswith("[JOIN [YES ]")

    def test_single_root_not_wrapped(self):
        tree = parse_mr("[INFORM [condition sunny ] ]", WEATHER)
        assert tree.root.label == "INFORM"

    def test_nested_subfields(self):
        tree = parse_mr(
            "[INFORM [date_time [day 29 ] [month September ] ] ]", WEATHER
        )
        dt = tree.root.children[0]
        assert dt.label == "date_time"
        assert [c.label for c in dt.children] == ["day", "month"]
        assert dt.children[0].value == "29"

    def test_unknown_label_raises(self):
        with pytest.raises(UnknownLabel):
            parse_mr("[INFORM [frobnicate x ] ]", WEATHER)

    def test_unbalanced_open_raises(self):
        with pytest.raises(UnbalancedBrackets):
            parse_mr("[INFORM [condition sunny ]", WEATHER)

    def test_unbalanced_close_raises(self):
        with pytest.raises(UnbalancedBrackets):
            parse_mr("[INFORM ] ]", WEATHER)

    def test_word_outside_node_raises(self):
        with pytest.raises(UnbalancedBrackets):
            parse_mr("hello [INFORM ]", WEATHER)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            parse_mr("", WEATHER)

    def test_act_under_argument_raises(self):
        with pytest.raises(InvalidStructure):
            parse_mr("[INFORM [condition [YES ] ] ]", WEATHER)

    def test_argument_at_top_level_raises(self):
        with pytest.raises(InvalidStructure):
            parse_mr("[condition sunny ]", WEATHER)

    def test_annotated_response_keeps_words(self):
        text = "[INFORM it will be [condition sunny ] all day ]"
        tree = parse_linearized(text, WEATHER)
        assert tree.words() == ["it", "will", "be", "sunny", "all", "day"]
        assert [c.label for c in tree.children()] == ["condition"]

    def test_valueless_leaf_argument_allowed(self):
        tree = parse_mr("[INFORM [condition ] ]", WEATHER)
        assert tree.root.children[0].value is None


class TestRoundTrip:
    def test_parse_after_linearize_is_identity_on_random_trees(self):
        rng = random.Random(4)
        for _ in range(1000):
            tree = random_mr(rng, WEATHER, max_nodes=12)
            assert parse_mr(linearize(tree), WEATHER) == tree

    def test_annotated_round_trip(self):
        text = (
            "[CONTRAST [INFORM [location [city Parker ] ] is not expecting any "
            "[condition_not snow ] ] , but [INFORM [date_time [colloquial today ] ] "
            "there 's a [condition heavy rain showers ] ] ]"
        )
        tree = parse_linearized(text, WEATHER)
        assert to_string(tree) == text


class TestValidate:
    def test_bracket_in_value_rejected(self):
        bad = MrTree(act("INFORM", arg("condition", "sunny ]")))
        with pytest.raises(InvalidStructure):
            validate(bad, WEATHER)

    def test_wrong_role_rejected(self):
        bad = MrTree(MrNode(NodeKind.ACT, "condition", ()))
        with pytest.raises(InvalidStructure):
            validate(bad, WEATHER)

    def test_value_and_children_rejected(self):
        bad = MrTree(
            act("INFORM", MrNode(NodeKind.ARGUMENT, "date_time",
                                 (arg("day", "29"),), "today"))
        )
        with pytest.raises(InvalidStructure):
            validate(bad, WEATHER)


class TestCanonicalize:
    def test_sorts_act_arguments_by_label(self):
        tree = MrTree(act("INFORM", arg("temp", "72"), arg("condition", "sunny")))
        out = canonicalize(tree)
        assert [c.label for c in out.root.children] == ["condition", "temp"]

    def test_equal_labels_tie_broken_by_subtree(self):
        tree = MrTree(act("INFORM", arg("condition", "windy"), arg("condition", "cold")))
        out = canonicalize(tree)
        assert [c.value for c in out.root.children] == ["cold", "windy"]

    def test_join_child_order_preserved(self):
        tree = MrTree(rel("JOIN", act("YES"), act("INFORM", arg("temp", "9"))))
        out = canonicalize(tree)
        assert [c.label for c in out.root.children] == ["YES", "INFORM"]

    def test_idempotent_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(300):
            tree = random_mr(rng, WEATHER, max_nodes=10)
            once = canonicalize(tree)
            assert canonicalize(once) == once


    def test_ordered_arguments_equals_label_then_structure_sort(self):
        # the same objects in the same order, so structurally identical
        # twins must keep their input order too
        cases = []
        for example in synthesize_examples(300, seed=31):
            tree = parse_mr(example.mr, WEATHER)
            cases += [n.children for n in tree.root.iter_nodes() if n.kind is NodeKind.ACT]
        rng = random.Random(12)
        for _ in range(300):
            tree = random_mr(rng, WEATHER, max_nodes=10)
            cases += [n.children for n in tree.root.iter_nodes() if n.kind is NodeKind.ACT]
        when = lambda *kids: arg("date_time", children=kids)  # noqa: E731
        cases += [
            (arg("temp", "30"), arg("temp", "20"), arg("condition", "rain"), arg("temp", "25")),
            (arg("temp", "20"), arg("humidity", "low"), arg("temp", "20"), arg("temp", "20")),
            (when(arg("weekday", "fri")), when(arg("day", "1")), when(arg("weekday", "fri"))),
            (when(arg("weekday", "sat"), arg("day", "2")), when(arg("weekday", "sat"))),
        ]
        for children in cases:
            for _ in range(3):
                shuffled = list(children)
                rng.shuffle(shuffled)
                want = sorted(shuffled, key=lambda c: (c.label, structure_key(c)))
                got = ordered_arguments(shuffled)
                assert [id(c) for c in got] == [id(c) for c in want]


class TestSignature:
    def test_values_do_not_matter(self):
        a = MrTree(act("INFORM", arg("condition", "sunny")))
        b = MrTree(act("INFORM", arg("condition", "cloudy")))
        assert signature(a) == signature(b)

    def test_argument_order_does_not_matter(self):
        a = MrTree(act("INFORM", arg("condition", "x"), arg("temp", "1")))
        b = MrTree(act("INFORM", arg("temp", "2"), arg("condition", "y")))
        assert signature(a) == signature(b)

    def test_structure_matters(self):
        a = MrTree(act("INFORM", arg("condition", "x")))
        b = MrTree(act("INFORM", arg("temp", "x")))
        assert signature(a) != signature(b)

    def test_skeleton_drops_values(self):
        tree = MrTree(act("INFORM", arg("condition", "heavy rain")))
        assert skeleton(tree) == ["[INFORM", "[condition", "]", "]"]


class TestAnnotatedProjection:
    def test_words_of_leaves_become_values(self):
        text = "[INFORM expect [condition heavy rain ] today ]"
        mr = annotated_to_mr(parse_linearized(text, WEATHER))
        assert mr == act("INFORM", arg("condition", "heavy rain"))

    def test_restaurant_labels_keep_their_case(self):
        tree = parse_mr("[INFORM [name Aromi ] [eatType coffee shop ] ]", RESTAURANT)
        assert [c.label for c in tree.root.children] == ["name", "eatType"]
