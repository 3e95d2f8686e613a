"""Incremental acceptance automaton for tree-constrained decoding.

Given an MR, the automaton accepts exactly the token sequences whose bracket
skeleton realizes that MR: every node is either realized under its MR parent
or elided in favour of a structurally identical twin, children of JOIN nodes
appear in MR order, other children in any order, and nothing is repeated or
invented.  Surface words never alter the automaton state, so hallucinated
words inside a span are not detectable here.

Because one output prefix can align to an MR in several ways (e.g. two
identical INFORM subtrees), the automaton tracks a *set* of alignment
states and a token is accepted if any state survives it.

Ellipsis bookkeeping: a node becomes committed to ellipsis as soon as it is
skipped (passed over by JOIN ordering at an Open, or missing at its parent's
Close).  A commitment is allowed only while every affected same-value group
keeps at least one uncommitted member, since elided nodes cannot stand in
for other elided nodes.  Committing at skip time rather than at Close makes
single-step acceptance coincide with "some valid completion exists", which
is what score masking needs.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .trees import (
    CLOSE,
    EOS,
    MrNode,
    MrTree,
    as_tree,
    is_open,
    open_label,
    open_token,
    tokenize,
)

ROOT = -1  # sentinel parent id; the MR root (id 0) is its only child

# (shape, state set) entries held by the move memo; the least recently
# used entry is dropped first
MEMO_BOUND = 1024


@dataclass(frozen=True)
class ConstraintTracker:
    """Immutable per-MR constraint structures.

    Node ids are assigned in depth-first discovery order, root = 0; the
    parent of the root is the ROOT sentinel.  ellipsis_options[x] is the
    set of nodes whose subtrees are structurally identical to x's (same
    label, values and children recursively; always including x itself),
    grouped across the whole tree, not only among siblings, and
    group_mask[x] is that set as a bitmask over node ids.  Subtrees occupy
    contiguous id ranges, recorded in subtree_size.

    valid_structural_tokens answers each state set with one compiled
    entry, its completion cost and its moves, memoized per shape, not per
    tracker: every tracker whose MR has the same labels, tree and twin
    groups (shape_key) reads and fills the same entries of one
    process-wide LRU of at most MEMO_BOUND (shape, state set) entries.
    """

    nodes: tuple[MrNode, ...]
    parent_map: dict[int, int]
    children_map: dict[int, tuple[int, ...]]
    children_by_label: dict[tuple[int, str], tuple[int, ...]]
    ellipsis_options: tuple[frozenset[int], ...]
    group_mask: tuple[int, ...]
    join_nodes: frozenset[int]
    subtree_size: tuple[int, ...]

    @cached_property
    def shape_key(self) -> str:
        """(label, parent, smallest twin id) of every node, in id order.

        It fixes everything the automaton reads: children order, JOIN
        nodes, subtree sizes and twin groups, but not the values.  Built
        on first use, so trackers that never query moves (check_tree, the
        realizer) skip it, and kept as a string, whose hash is computed
        once where a tuple's would be recomputed from every node on each
        memo lookup.
        """
        return repr(
            tuple(
                (node.label, self.parent_map[idx], min(self.ellipsis_options[idx]))
                for idx, node in enumerate(self.nodes)
            )
        )


class AlignmentState(NamedTuple):
    """One way the consumed prefix can align to the MR.

    parent: id of the deepest currently-open node (ROOT before the first
    Open and after the final Close).  coverage: bitmask of realized node
    ids (bit i set when node i is realized).  elided: bitmask of ids
    committed to ellipsis.  The two masks are disjoint.
    """

    parent: int
    coverage: int
    elided: int


StateSet = frozenset[AlignmentState]


class _CompiledMoves(NamedTuple):
    """One state set's answer from valid_structural_tokens."""

    idle: int | float
    moves: Mapping[str, tuple[StateSet, int]]


# (shape_key, state set) -> its compiled moves, least recently used first
_MEMO: OrderedDict[tuple[str, StateSet], _CompiledMoves] = OrderedDict()


def _number_nodes(root: MrNode) -> tuple[list[MrNode], list[int], list[int]]:
    """DFS preorder numbering: returns (nodes, parents, subtree sizes)."""
    nodes: list[MrNode] = []
    parents: list[int] = []
    sizes: list[int] = []

    def visit(node: MrNode, parent: int) -> int:
        idx = len(nodes)
        nodes.append(node)
        parents.append(parent)
        sizes.append(1)
        for child in node.children:
            sizes[idx] += visit(child, idx)
        return sizes[idx]

    visit(root, ROOT)
    return nodes, parents, sizes


def build_constraints(mr: MrTree | MrNode) -> ConstraintTracker:
    """Precompute the constraint structures for one MR."""
    root = as_tree(mr).root
    nodes, parents, sizes = _number_nodes(root)
    n = len(nodes)

    children: dict[int, list[int]] = {i: [] for i in range(n)}
    children[ROOT] = [0]
    for idx in range(1, n):
        children[parents[idx]].append(idx)

    by_label: dict[tuple[int, str], list[int]] = {}
    for parent, kids in children.items():
        for kid in kids:
            by_label.setdefault((parent, nodes[kid].label), []).append(kid)

    # structurally identical subtrees share a class, numbered bottom-up from
    # each node's own fields and the classes of its children
    classes: dict[tuple, int] = {}
    class_of = [0] * n
    for idx in range(n - 1, -1, -1):
        node = nodes[idx]
        kids = tuple(class_of[c] for c in children[idx])
        key = (node.kind, node.label, node.value, kids)
        class_of[idx] = classes.setdefault(key, len(classes))
    members: list[list[int]] = [[] for _ in classes]
    masks = [0] * len(classes)
    for idx, cls in enumerate(class_of):
        members[cls].append(idx)
        masks[cls] |= 1 << idx
    groups = list(map(frozenset, members))

    join_ids = frozenset(
        idx for idx, node in enumerate(nodes) if node.label == "JOIN"
    )
    return ConstraintTracker(
        nodes=tuple(nodes),
        parent_map=dict(enumerate(parents)),
        children_map={p: tuple(kids) for p, kids in children.items()},
        children_by_label={k: tuple(v) for k, v in by_label.items()},
        ellipsis_options=tuple(map(groups.__getitem__, class_of)),
        group_mask=tuple(map(masks.__getitem__, class_of)),
        join_nodes=join_ids,
        subtree_size=tuple(sizes),
    )


def initial_states(tracker: ConstraintTracker) -> StateSet:
    return frozenset({AlignmentState(ROOT, 0, 0)})


def _commit(
    tracker: ConstraintTracker, elided: int, skipped: list[int]
) -> int | None:
    """Commit `skipped` to ellipsis; None if some group would be exhausted.

    A node can only be elided while a structurally identical twin remains
    uncommitted (elided nodes can't cover other nodes), so the whole batch
    is rejected if any member's group ends up fully committed.
    """
    if not skipped:
        return elided
    batch = elided
    for node_id in skipped:
        batch |= 1 << node_id
    for node_id in skipped:
        group = tracker.group_mask[node_id]
        if group & batch == group:
            return None
    return batch


def advance(
    tracker: ConstraintTracker, states: StateSet, token: str
) -> StateSet:
    """One automaton step; returns the surviving states (possibly empty)."""
    if token == EOS:
        return frozenset(
            s for s in states if s.parent == ROOT and s.coverage & 1
        )

    if token == CLOSE:
        survivors = set()
        for state in states:
            if state.parent == ROOT:
                continue
            up = tracker.parent_map[state.parent]
            done = state.coverage | state.elided
            missing = [
                c for c in tracker.children_map[state.parent] if not done >> c & 1
            ]
            elided = _commit(tracker, state.elided, missing)
            if elided is None:
                continue
            survivors.add(AlignmentState(up, state.coverage, elided))
        return frozenset(survivors)

    if is_open(token):
        label = open_label(token)
        survivors = set()
        for state in states:
            done = state.coverage | state.elided
            for cand in tracker.children_by_label.get((state.parent, label), ()):
                if done >> cand & 1:
                    continue
                elided = state.elided
                if state.parent in tracker.join_nodes:
                    siblings = tracker.children_map[state.parent]
                    pos = siblings.index(cand)
                    # JOIN children appear in MR order: nothing after the
                    # candidate may be realized yet, and everything skipped
                    # before it must be elidable.
                    if any(state.coverage >> c & 1 for c in siblings[pos + 1 :]):
                        continue
                    skipped = [c for c in siblings[:pos] if not done >> c & 1]
                    elided = _commit(tracker, state.elided, skipped)
                    if elided is None:
                        continue
                survivors.add(
                    AlignmentState(cand, state.coverage | 1 << cand, elided)
                )
        return frozenset(survivors)

    # surface word
    return states


def min_completion_tokens(tracker: ConstraintTracker, state: AlignmentState) -> int:
    """Tokens needed to finish from this state by the guaranteed route.

    Prices the closure that realizes every outstanding node with a bare
    Open/Close pair, closes the open chain bottom-up, and emits EOS; that
    sequence is legal from any reachable state (words are optional and
    full realization never needs an ellipsis commit).  Ellipsis can only
    make a completion shorter, so a hypothesis fits a token budget
    whenever this bound does.
    """
    if state.parent == ROOT and not state.coverage & 1:
        return 1 + 2 * tracker.subtree_size[0]
    total = 1  # EOS
    done = state.coverage | state.elided
    node = state.parent
    while node != ROOT:
        total += 1  # its Close
        for child in tracker.children_map[node]:
            if not done >> child & 1:
                total += 2 * tracker.subtree_size[child]
        node = tracker.parent_map[node]
    return total


def _cheapest(tracker: ConstraintTracker, states: StateSet) -> int | float:
    return min((min_completion_tokens(tracker, s) for s in states), default=math.inf)


def valid_structural_tokens(
    tracker: ConstraintTracker, states: StateSet
) -> _CompiledMoves:
    """The state set's compiled entry (idle, moves), read from the memo.

    idle: the fewest tokens, EOS included, that finish some state of the
    set (infinite for the empty set, which never finishes).  moves: a
    read-only map of each acceptable Open/Close/EOS token to the state
    set it leads to and that set's cheapest completion (0 for EOS, which
    needs nothing after it), so a caller that takes the move needs no
    second step, and a caller with a budget of tokens left keeps the moves
    whose cost fits it.  Surface words are always acceptable, leave the
    states unchanged, and are not listed.

    The entry is keyed by the tracker's shape and the state set and filled
    on first use by stepping every candidate Open, Close and EOS with
    advance; past MEMO_BOUND entries the least recently used one is
    dropped.  Every query returns the memo's own entry, whose moves are a
    read-only view, and its successor sets are the memo's own objects, so
    a beam that follows them hits the memo by identity on the next step.
    """
    key = (tracker.shape_key, states)
    entry = _MEMO.get(key)
    if entry is not None:
        _MEMO.move_to_end(key)
        return entry
    labels = {
        tracker.nodes[c].label
        for s in states
        for c in tracker.children_map[s.parent]
        if not (s.coverage | s.elided) >> c & 1
    }
    moves = {}
    for tok in [open_token(label) for label in labels] + [CLOSE]:
        survivors = advance(tracker, states, tok)
        if survivors:
            moves[tok] = (survivors, _cheapest(tracker, survivors))
    finished = advance(tracker, states, EOS)
    if finished:
        moves[EOS] = (finished, 0)
    entry = _MEMO[key] = _CompiledMoves(
        _cheapest(tracker, states), MappingProxyType(moves)
    )
    if len(_MEMO) > MEMO_BOUND:
        _MEMO.popitem(last=False)
    return entry


def _tokens_with_eos(output: str | Sequence[str]) -> list[str]:
    tokens = tokenize(output) if isinstance(output, str) else list(output)
    if not tokens or tokens[-1] != EOS:
        tokens.append(EOS)
    return tokens


def check_tree(mr: MrTree | MrNode, output: str | Sequence[str]) -> bool:
    """True iff the output's bracket skeleton realizes the MR exactly.

    Grouping and ellipsis are honoured; an EOS token is appended if the
    output does not already end with one, and nothing may follow an EOS.
    """
    return first_rejection(mr, output) is None


def first_rejection(mr: MrTree | MrNode, output: str | Sequence[str]) -> int | None:
    """Index of the first rejected token, or None if fully accepted.

    The first token after an accepted EOS is rejected, whatever it is.
    """
    tracker = build_constraints(mr)
    tokens = _tokens_with_eos(output)
    end = tokens.index(EOS) + 1
    states = initial_states(tracker)
    for pos, token in enumerate(tokens[:end]):
        states = advance(tracker, states, token)
        if not states:
            return pos
    return end if end < len(tokens) else None
