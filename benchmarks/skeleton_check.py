"""Independent check that an output's bracket skeleton realizes an MR.

Written against the tree definitions only; it never calls
``treegen.constraints``, so the automaton and this checker can disagree.
The output's brackets are parsed into a label tree (surface words are
ignored) and matched onto the MR node by node.  A match is valid when:

* every output node maps to a distinct MR node with the same label under
  the image of its output parent (no repeats, no hallucinated nodes);
* the children of a JOIN appear in MR order;
* every MR node left unrealized under a realized parent is elided, which
  is allowed only while a structurally identical twin outside the set of
  elided nodes remains (ellipsis only in favour of an expressed twin).

The output is valid when some match is valid.  Matches are enumerated as
the sets of MR nodes they realize, since the ellipsis rule depends on
nothing else.
"""

from __future__ import annotations

from collections.abc import Sequence

from treegen.trees import CLOSE, EOS, OPEN_PREFIX, MrNode, MrTree

JOIN = "JOIN"


class _Out:
    __slots__ = ("label", "children")

    def __init__(self, label: str):
        self.label = label
        self.children: list[_Out] = []


def _parse_skeleton(tokens: Sequence[str]) -> _Out | None:
    """The single top-level bracket tree of the output, or None."""
    root: _Out | None = None
    stack: list[_Out] = []
    closed = False
    for pos, token in enumerate(tokens):
        if token == EOS:
            if stack or not closed:
                return None
            continue
        if token == CLOSE:
            if not stack:
                return None
            stack.pop()
            closed = not stack
        elif token.startswith(OPEN_PREFIX) and len(token) > 1:
            node = _Out(token[len(OPEN_PREFIX):])
            if stack:
                stack[-1].children.append(node)
            elif root is None:
                root = node
            else:
                return None  # a second top-level node
            stack.append(node)
    if stack or root is None:
        return None
    return root


def _structure(node: MrNode) -> tuple:
    return (
        node.kind.value,
        node.label,
        node.value,
        tuple(_structure(c) for c in node.children),
    )


class SkeletonChecker:
    """Per-MR tables; ``accepts(tokens)`` answers for one output."""

    def __init__(self, mr: MrTree | MrNode):
        root = mr.root if isinstance(mr, MrTree) else mr
        self.nodes: list[MrNode] = []
        self.parent: list[int] = []
        self.children: list[list[int]] = []

        def visit(node: MrNode, parent: int) -> None:
            idx = len(self.nodes)
            self.nodes.append(node)
            self.parent.append(parent)
            self.children.append([])
            if parent >= 0:
                self.children[parent].append(idx)
            for child in node.children:
                visit(child, idx)

        visit(root, -1)
        by_key: dict[tuple, list[int]] = {}
        for idx, node in enumerate(self.nodes):
            by_key.setdefault(_structure(node), []).append(idx)
        self.twins = [frozenset(by_key[_structure(n)]) for n in self.nodes]

    def _realized(self, out: _Out, m: int, memo: dict) -> set[frozenset[int]]:
        key = (id(out), m)
        if key in memo:
            return memo[key]
        kids = self.children[m]
        ordered = self.nodes[m].label == JOIN
        # Match the output children one at a time.  A partial match is
        # just the set of MR nodes realized so far: it tells which MR
        # children are taken and, under a JOIN, the last position used.
        partial: set[frozenset[int]] = {frozenset({m})}
        for child in out.children:
            grown: set[frozenset[int]] = set()
            for done in partial:
                floor = max((c for c in kids if c in done), default=-1) if ordered else -1
                for c in kids:
                    if c <= floor or c in done or self.nodes[c].label != child.label:
                        continue
                    for sub in self._realized(child, c, memo):
                        grown.add(done | sub)
            partial = grown
            if not partial:
                break
        memo[key] = partial
        return partial

    def _ellipsis_ok(self, realized: frozenset[int]) -> bool:
        elided = {
            x
            for x in range(1, len(self.nodes))
            if x not in realized and self.parent[x] in realized
        }
        return not any(self.twins[x] <= elided for x in elided)

    def accepts(self, tokens: Sequence[str]) -> bool:
        out = _parse_skeleton(list(tokens))
        if out is None or out.label != self.nodes[0].label:
            return False
        return any(self._ellipsis_ok(r) for r in self._realized(out, 0, {}))


def skeleton_accepts(mr: MrTree | MrNode, tokens: Sequence[str] | str) -> bool:
    if isinstance(tokens, str):
        tokens = tokens.split()
    return SkeletonChecker(mr).accepts(tokens)
