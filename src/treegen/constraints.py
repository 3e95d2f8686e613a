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
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True)
class ConstraintTracker:
    """Immutable per-MR constraint structures.

    Node ids are assigned in depth-first discovery order, root = 0; the
    parent of the root is the ROOT sentinel.  ellipsis_options[x] is the
    set of nodes whose subtrees are structurally identical to x's (same
    label, values and children recursively; always including x itself),
    grouped across the whole tree, not only among siblings.  Subtrees
    occupy contiguous id ranges, recorded in subtree_size.

    The tracker also memoizes, per state set, that set's structural moves
    and completion costs (see valid_structural_tokens); the memo lives as
    long as the tracker, which is one MR and usually one decode.
    """

    nodes: tuple[MrNode, ...]
    parent_map: dict[int, int]
    children_map: dict[int, tuple[int, ...]]
    children_by_label: dict[tuple[int, str], tuple[int, ...]]
    ellipsis_options: tuple[frozenset[int], ...]
    join_nodes: frozenset[int]
    subtree_size: tuple[int, ...]
    memo: dict[StateSet, _CompiledMoves] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )


class AlignmentState(NamedTuple):
    """One way the consumed prefix can align to the MR.

    parent: id of the deepest currently-open node (ROOT before the first
    Open and after the final Close).  coverage: realized node ids.
    elided: ids committed to ellipsis.  The two sets are disjoint.
    """

    parent: int
    coverage: frozenset[int]
    elided: frozenset[int]


StateSet = frozenset[AlignmentState]


class _CompiledMoves(NamedTuple):
    """A state set's structural moves, computed once per tracker.

    idle: fewest tokens, EOS included, that finish some state of the set
    (infinite for the empty set, which never finishes).  moves: each
    acceptable Open/Close/EOS token with the state set it leads to and
    that set's own cheapest completion; EOS needs nothing after it, so its
    cost is 0.
    """

    idle: int | float
    moves: tuple[tuple[str, StateSet, int], ...]


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
    for idx, cls in enumerate(class_of):
        members[cls].append(idx)
    groups = [frozenset(ids) for ids in members]

    join_ids = frozenset(
        idx for idx, node in enumerate(nodes) if node.label == "JOIN"
    )
    return ConstraintTracker(
        nodes=tuple(nodes),
        parent_map=dict(enumerate(parents)),
        children_map={p: tuple(kids) for p, kids in children.items()},
        children_by_label={k: tuple(v) for k, v in by_label.items()},
        ellipsis_options=tuple(groups[cls] for cls in class_of),
        join_nodes=join_ids,
        subtree_size=tuple(sizes),
    )


def initial_states(tracker: ConstraintTracker) -> StateSet:
    return frozenset({AlignmentState(ROOT, frozenset(), frozenset())})


def _commit(
    tracker: ConstraintTracker, elided: frozenset[int], skipped: list[int]
) -> frozenset[int] | None:
    """Commit `skipped` to ellipsis; None if some group would be exhausted.

    A node can only be elided while a structurally identical twin remains
    uncommitted (elided nodes can't cover other nodes), so the whole batch
    is rejected if any member's group ends up fully committed.
    """
    if not skipped:
        return elided
    batch = elided.union(skipped)
    for node_id in skipped:
        if tracker.ellipsis_options[node_id].issubset(batch):
            return None
    return batch


def advance(
    tracker: ConstraintTracker, states: StateSet, token: str
) -> StateSet:
    """One automaton step; returns the surviving states (possibly empty)."""
    if token == EOS:
        return frozenset(
            s for s in states if s.parent == ROOT and 0 in s.coverage
        )

    if token == CLOSE:
        survivors = set()
        for state in states:
            if state.parent == ROOT:
                continue
            up = tracker.parent_map[state.parent]
            missing = [
                c
                for c in tracker.children_map[state.parent]
                if c not in state.coverage and c not in state.elided
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
            for cand in tracker.children_by_label.get((state.parent, label), ()):
                if cand in state.coverage or cand in state.elided:
                    continue
                elided = state.elided
                if state.parent in tracker.join_nodes:
                    siblings = tracker.children_map[state.parent]
                    pos = siblings.index(cand)
                    # JOIN children appear in MR order: nothing after the
                    # candidate may be realized yet, and everything skipped
                    # before it must be elidable.
                    if any(c in state.coverage for c in siblings[pos + 1 :]):
                        continue
                    skipped = [
                        c
                        for c in siblings[:pos]
                        if c not in state.coverage and c not in state.elided
                    ]
                    elided = _commit(tracker, state.elided, skipped)
                    if elided is None:
                        continue
                survivors.add(
                    AlignmentState(cand, state.coverage | {cand}, elided)
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
    if state.parent == ROOT and 0 not in state.coverage:
        return 1 + 2 * tracker.subtree_size[0]
    total = 1  # EOS
    node = state.parent
    while node != ROOT:
        total += 1  # its Close
        for child in tracker.children_map[node]:
            if child not in state.coverage and child not in state.elided:
                total += 2 * tracker.subtree_size[child]
        node = tracker.parent_map[node]
    return total


def _cheapest(tracker: ConstraintTracker, states: StateSet) -> int | float:
    return min((min_completion_tokens(tracker, s) for s in states), default=math.inf)


def _compiled_moves(tracker: ConstraintTracker, states: StateSet) -> _CompiledMoves:
    """The state set's moves and costs, from the tracker's memo.

    The entry is keyed by the state set alone and filled on first use by
    stepping every candidate Open, Close and EOS with advance.  Successor
    sets are the memo's own objects, so a beam that follows them hits the
    memo by identity on the next step.
    """
    entry = tracker.memo.get(states)
    if entry is not None:
        return entry
    labels = {
        tracker.nodes[c].label
        for s in states
        for c in tracker.children_map[s.parent]
        if c not in s.coverage and c not in s.elided
    }
    moves = []
    for tok in [open_token(label) for label in labels] + [CLOSE]:
        survivors = advance(tracker, states, tok)
        if survivors:
            moves.append((tok, survivors, _cheapest(tracker, survivors)))
    finished = advance(tracker, states, EOS)
    if finished:
        moves.append((EOS, finished, 0))
    entry = _CompiledMoves(_cheapest(tracker, states), tuple(moves))
    tracker.memo[states] = entry
    return entry


def completion_cost(tracker: ConstraintTracker, states: StateSet) -> int | float:
    """Fewest tokens, EOS included, that finish some state of the set."""
    return _compiled_moves(tracker, states).idle


def valid_structural_tokens(
    tracker: ConstraintTracker, states: StateSet, budget: int | None = None
) -> dict[str, StateSet]:
    """The Open/Close/EOS tokens acceptable from this state set.

    Maps each acceptable token to the state set it leads to, so a caller
    that takes the move needs no second step.  Surface words are always
    acceptable, leave the states unchanged, and are not listed.
    ``budget`` (>= 0) is the number of tokens that may still follow the
    candidate; when given, tokens whose cheapest completion no longer
    fits are dropped (EOS needs nothing after it and always fits).  The
    moves and their costs come from the tracker's memo, so the budget is
    one comparison per move.
    """
    return {
        tok: nxt
        for tok, nxt, cost in _compiled_moves(tracker, states).moves
        if budget is None or cost <= budget
    }


def _tokens_with_eos(output: str | Sequence[str]) -> list[str]:
    tokens = tokenize(output) if isinstance(output, str) else list(output)
    if not tokens or tokens[-1] != EOS:
        tokens.append(EOS)
    return tokens


def check_tree(
    mr: MrTree | MrNode | ConstraintTracker, output: str | Sequence[str]
) -> bool:
    """True iff the output's bracket skeleton realizes the MR exactly.

    Grouping and ellipsis are honoured; an EOS token is appended if the
    output does not already end with one.  The MR may be given as its
    prebuilt tracker, which saves building one per check.
    """
    return first_rejection(mr, output) is None


def first_rejection(
    mr: MrTree | MrNode | ConstraintTracker, output: str | Sequence[str]
) -> int | None:
    """Index of the first rejected token, or None if fully accepted."""
    tracker = mr if isinstance(mr, ConstraintTracker) else build_constraints(mr)
    states = initial_states(tracker)
    for pos, token in enumerate(_tokens_with_eos(output)):
        states = advance(tracker, states, token)
        if not states:
            return pos
    return None
