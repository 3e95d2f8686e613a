"""Template realization of weather MRs into annotated response trees.

Every leaf argument span contains exactly its MR value words; glue words
live outside the span (or between subfield spans inside a composite
argument), so projecting the annotated tree back to an MR reproduces the
input up to elided arguments.  Ellipsis drops an act-level argument only
while a structurally identical twin stays realized, which is precisely
the condition the acceptance automaton checks, so realized output always
passes check_tree against its source MR.
"""

from __future__ import annotations

import random

from ..constraints import ConstraintTracker, build_constraints
from ..ontology import NodeKind
from ..trees import AnnotatedNode, MrNode, MrTree

Item = AnnotatedNode | str


class NoTemplate(KeyError):
    """An act or argument combination the realizer has no phrasing for."""


# natural ordering of argument chunks within one act
_CHUNK_ORDER = (
    "condition", "condition_not", "location",
    "date_time", "date_time_range",
    "temp", "temp_high", "temp_low",
    "temp_high_summary", "temp_low_summary",
    "precip_chance", "wind_speed",
    "activity", "activity_not",
)

_PRECIP_NOUNS = frozenset({"rain", "snow", "fog", "thunderstorms"})


def _span(node: MrNode) -> AnnotatedNode:
    """Leaf argument span: exactly the value words."""
    return AnnotatedNode(
        NodeKind.ARGUMENT, node.label, tuple((node.value or "").split())
    )


def _pick(rng: random.Random, *variants: list[Item]) -> list[Item]:
    return variants[rng.randrange(len(variants))]


def _composite_span(node: MrNode, glue: dict[int, str] | None = None) -> AnnotatedNode:
    """Argument with subfields; glue maps child index -> word before it."""
    items: list[Item] = []
    for i, child in enumerate(node.children):
        if glue and i in glue:
            items.extend(glue[i].split())
        items.append(_span(child))
    return AnnotatedNode(NodeKind.ARGUMENT, node.label, tuple(items))


def _date_time_chunk(node: MrNode, rng: random.Random) -> list[Item]:
    labels = [c.label for c in node.children]
    span = _composite_span(node)
    if labels == ["colloquial"]:
        return [span]
    return ["on", span]


def _date_range_chunk(node: MrNode, rng: random.Random) -> list[Item]:
    # [from start... to end...] with the glue inside the range span
    glue = {0: "from"}
    for i, child in enumerate(node.children):
        if child.label.startswith("end_"):
            glue[i] = "to"
            break
    return [_composite_span(node, glue)]


def _condition_chunk(node: MrNode, rng: random.Random) -> list[Item]:
    if (node.value or "") in _PRECIP_NOUNS:
        return _pick(
            rng,
            ["there", "will", "be", _span(node)],
            ["expect", _span(node)],
        )
    return _pick(
        rng,
        ["it", "will", "be", _span(node)],
        ["skies", "will", "be", _span(node)],
    )


def _chunk(node: MrNode, rng: random.Random) -> list[Item]:
    label = node.label
    if label == "condition":
        return _condition_chunk(node, rng)
    if label == "condition_not":
        return _pick(
            rng,
            ["it", "will", "not", _span(node)],
            ["no", _span(node), "is", "expected"],
        )
    if label == "location":
        return _pick(rng, ["in", _composite_span(node)],
                     ["around", _composite_span(node)])
    if label == "date_time":
        return _date_time_chunk(node, rng)
    if label == "date_time_range":
        return _date_range_chunk(node, rng)
    if label == "temp":
        return _pick(
            rng,
            ["around", _span(node), "degrees"],
            ["near", _span(node), "degrees"],
        )
    if label == "temp_high":
        return _pick(
            rng,
            ["highs", "near", _span(node)],
            ["a", "high", "of", _span(node)],
        )
    if label == "temp_low":
        return _pick(
            rng,
            ["lows", "around", _span(node)],
            ["a", "low", "of", _span(node)],
        )
    if label == "temp_high_summary":
        return _pick(
            rng,
            ["highs", "in", "the", _span(node)],
            ["daytime", "temperatures", "in", "the", _span(node)],
        )
    if label == "temp_low_summary":
        return _pick(
            rng,
            ["lows", "in", "the", _span(node)],
            ["overnight", "lows", "in", "the", _span(node)],
        )
    if label == "wind_speed":
        return _pick(
            rng,
            ["winds", "around", _span(node), "mph"],
            ["breezy", "with", "winds", "near", _span(node), "mph"],
        )
    if label == "activity":
        return _pick(
            rng,
            ["a", "great", "time", "for", "a", _span(node)],
            ["a", _span(node), "sounds", "like", "a", "good", "idea"],
        )
    if label == "activity_not":
        return _pick(
            rng,
            ["not", "a", "good", "time", "for", "a", _span(node)],
            ["i", "would", "skip", "the", _span(node)],
        )
    raise NoTemplate(label)


def _precip_chunk(chance: MrNode | None, ptype: MrNode | None,
                  rng: random.Random) -> list[Item]:
    if chance is not None and ptype is not None:
        return ["a", _span(chance), "percent", "chance", "of", _span(ptype)]
    if chance is not None:
        return ["a", _span(chance), "percent", "chance", "of", "precipitation"]
    assert ptype is not None
    return _pick(
        rng,
        ["a", "chance", "of", _span(ptype)],
        ["some", _span(ptype), "possible"],
    )


def _error_items(act: MrNode, present: list[MrNode],
                 rng: random.Random) -> list[Item]:
    args = {node.label: node for node in present}
    needed = {"task", "bad_arg", "bad_value", "error_reason"}
    if set(args) != needed:
        raise NoTemplate(f"ERROR with arguments {sorted(args)}")
    task, bad_arg = _span(args["task"]), _span(args["bad_arg"])
    bad_value, reason = _span(args["bad_value"]), _span(args["error_reason"])
    reason_value = args["error_reason"].value or ""
    if reason_value == "unknown location":
        return _pick(
            rng,
            ["sorry", ",", bad_value, "is", "an", reason, "to", "me", ",",
             "check", "the", bad_arg, "and", "i", "can", task],
            ["sorry", ",", "i", "can", "not", task, "for", bad_value, ",",
             "that", bad_arg, "is", "an", reason, "to", "me"],
        )
    if reason_value == "beyond the forecast horizon":
        return _pick(
            rng,
            ["sorry", ",", bad_value, "from", "now", "is", reason, ",",
             "i", "can", "only", task, "for", "the", "coming", "week", ",",
             "try", "a", "nearer", bad_arg],
            ["that", bad_arg, "is", reason, ",", "i", "can", "not", task,
             bad_value, "out"],
        )
    return ["sorry", ",", "i", "can", "not", task, "because", "the",
            bad_arg, bad_value, "is", reason]


def _plan_ellipsis(tracker: ConstraintTracker, rng: random.Random,
                   probability: float) -> set[int]:
    """Choose argument nodes to elide, by DFS preorder id.

    Only direct children of acts are candidates, and a node is dropped
    only while another member of its identical-structure group is still
    realized and its act keeps at least one argument.
    """
    if probability <= 0.0:
        return set()
    nodes, parents = tracker.nodes, tracker.parent_map
    remaining = {
        i: len(node.children)
        for i, node in enumerate(nodes)
        if node.kind is NodeKind.ACT
    }
    dropped: set[int] = set()
    for i in range(len(nodes)):
        parent = parents[i]
        if parent < 0 or nodes[parent].kind is not NodeKind.ACT:
            continue
        group = tracker.ellipsis_options[i]
        if len(group) < 2:
            continue
        twin_alive = any(m != i and m not in dropped for m in group)
        if twin_alive and remaining[parent] > 1 and rng.random() < probability:
            dropped.add(i)
            remaining[parent] -= 1
    return dropped


def _render_act(tracker: ConstraintTracker, idx: int, dropped: set[int],
                rng: random.Random) -> AnnotatedNode:
    node = tracker.nodes[idx]
    present = [
        tracker.nodes[c] for c in tracker.children_map[idx] if c not in dropped
    ]

    if node.label == "ERROR":
        return AnnotatedNode(
            node.kind, node.label, tuple(_error_items(node, present, rng))
        )

    items: list[Item] = []
    if node.label == "YES":
        items.append("yes")
    elif node.label == "NO":
        items.append("no")

    by_label: dict[str, MrNode] = {}
    for child in present:
        if child.label in by_label:
            raise NoTemplate(f"duplicate argument {child.label!r}")
        by_label[child.label] = child

    chunks: list[list[Item]] = []
    handled: set[str] = set()
    for label in _CHUNK_ORDER:
        if label == "precip_chance":
            chance = by_label.get("precip_chance")
            ptype = by_label.get("precip_type")
            if chance is not None or ptype is not None:
                chunks.append(_precip_chunk(chance, ptype, rng))
                handled.update({"precip_chance", "precip_type"})
            continue
        child = by_label.get(label)
        if child is not None:
            chunks.append(_chunk(child, rng))
            handled.add(label)
    leftover = set(by_label) - handled
    if leftover:
        raise NoTemplate(f"{node.label} argument {sorted(leftover)}")

    for k, chunk in enumerate(chunks):
        if k:
            items.append(",")
        items.extend(chunk)
    return AnnotatedNode(node.kind, node.label, tuple(items))


def _is_bare_verdict(node: MrNode) -> bool:
    return node.kind is NodeKind.ACT and node.label in ("YES", "NO") \
        and not node.children


def _render(tracker: ConstraintTracker, idx: int, dropped: set[int],
            rng: random.Random) -> AnnotatedNode:
    node = tracker.nodes[idx]
    if node.kind is NodeKind.ACT:
        return _render_act(tracker, idx, dropped, rng)
    if node.kind is not NodeKind.RELATION:
        raise NoTemplate(f"cannot realize a bare {node.kind.value}")

    spans = [
        _render(tracker, c, dropped, rng) for c in tracker.children_map[idx]
    ]

    items: list[Item] = []
    if node.label == "JOIN":
        for child, span in zip(node.children, spans):
            items.append(span)
            items.append("," if _is_bare_verdict(child) else ".")
        if items and items[-1] == ",":
            items[-1] = "."
    elif node.label == "CONTRAST":
        if len(spans) != 2:
            raise NoTemplate(f"CONTRAST over {len(spans)} children")
        items = _pick(
            rng,
            [spans[0], ",", "but", spans[1]],
            [spans[0], ".", "however", ",", spans[1]],
        )
    elif node.label == "JUSTIFY":
        if len(spans) != 2:
            raise NoTemplate(f"JUSTIFY over {len(spans)} children")
        # nucleus first with "because", or evidence first with "so"
        items = _pick(
            rng,
            [spans[0], "because", spans[1]],
            [spans[1], ",", "so", spans[0]],
        )
    else:
        raise NoTemplate(node.label)
    return AnnotatedNode(node.kind, node.label, tuple(items))


def realize(mr: MrTree | MrNode, rng: random.Random | int,
            ellipsis_probability: float = 0.0) -> AnnotatedNode:
    """Render an MR as an annotated response tree.

    Deterministic under the rng; raises NoTemplate on labels or shapes
    outside the weather templates.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    tracker = build_constraints(mr)
    dropped = _plan_ellipsis(tracker, rng, ellipsis_probability)
    rendered = _render(tracker, 0, dropped, rng)
    if tracker.nodes[0].label != "JOIN":
        rendered = AnnotatedNode(
            rendered.kind, rendered.label, rendered.items + (".",)
        )
    return rendered
