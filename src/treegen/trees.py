"""Tree-structured meaning representations and their linearized token form.

A meaning representation (MR) is a tree of discourse relations over dialog
acts over arguments; arguments either hold a value or nest subfields.  An
annotated response is the same tree shape with surface words interleaved.
Both serialize to a flat token sequence where `[LABEL` opens a node and `]`
closes it, so sequence models can emit trees token by token.

When an MR has several top-level nodes they are wrapped in one synthetic
JOIN so that every tree has a single root; the wrapper is visible in the
linearization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, Union

from .ontology import NodeKind, Ontology, UnknownLabel

OPEN_PREFIX = "["
CLOSE = "]"
EOS = "</s>"
JOIN_LABEL = "JOIN"


class TreeError(ValueError):
    """Base class for malformed meaning representations."""


class UnbalancedBrackets(TreeError):
    pass


class EmptyInput(TreeError):
    pass


class InvalidStructure(TreeError):
    """A node nests under a parent its kind does not allow."""


def open_token(label: str) -> str:
    return OPEN_PREFIX + label


def is_open(token: str) -> bool:
    return token.startswith(OPEN_PREFIX) and len(token) > 1


def open_label(token: str) -> str:
    return token[1:]


def tokenize(text: str) -> list[str]:
    """Split a linearized tree on whitespace."""
    return text.split()


@dataclass(frozen=True)
class MrNode:
    """One MR node.  Leaf arguments hold a value; other nodes hold children.

    Schematic MRs may leave a leaf argument valueless (value None).
    """

    kind: NodeKind
    label: str
    children: tuple["MrNode", ...] = ()
    value: str | None = None

    def iter_nodes(self) -> Iterator["MrNode"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())


@dataclass(frozen=True)
class MrTree:
    """A complete MR: a single root node (synthetic JOIN if needed)."""

    root: MrNode

    @staticmethod
    def from_nodes(nodes: Iterable[MrNode]) -> "MrTree":
        nodes = tuple(nodes)
        if not nodes:
            raise EmptyInput("meaning representation has no nodes")
        if len(nodes) == 1:
            return MrTree(nodes[0])
        return MrTree(MrNode(NodeKind.RELATION, JOIN_LABEL, children=nodes))


@dataclass(frozen=True)
class AnnotatedNode:
    """A response-tree node: labelled span whose items are words or subspans."""

    kind: NodeKind
    label: str
    items: tuple[Union["AnnotatedNode", str], ...] = ()

    def words(self) -> list[str]:
        out: list[str] = []
        for item in self.items:
            if isinstance(item, AnnotatedNode):
                out.extend(item.words())
            else:
                out.append(item)
        return out

    def children(self) -> tuple["AnnotatedNode", ...]:
        return tuple(i for i in self.items if isinstance(i, AnnotatedNode))


AnnotatedTree = AnnotatedNode

Tree = Union[MrTree, MrNode, AnnotatedNode]


def _root_of(tree: Tree) -> MrNode | AnnotatedNode:
    return tree.root if isinstance(tree, MrTree) else tree


def as_tree(tree: MrTree | MrNode) -> MrTree:
    return tree if isinstance(tree, MrTree) else MrTree(tree)


_ALLOWED_CHILD_KINDS = {
    NodeKind.RELATION: (NodeKind.RELATION, NodeKind.ACT),
    NodeKind.ACT: (NodeKind.ARGUMENT,),
    NodeKind.ARGUMENT: (NodeKind.ARGUMENT,),
}


def validate(tree: MrTree | MrNode, ontology: Ontology) -> None:
    """Check labels and nesting against an ontology.

    Raises UnknownLabel or InvalidStructure.  Valueless leaf arguments are
    allowed (schematic MRs); values must be bracket-free words.
    """
    root = _root_of(tree)
    if root.kind is NodeKind.ARGUMENT:
        raise InvalidStructure("root must be a dialog act or discourse relation")
    for node in root.iter_nodes():
        kind, canonical = ontology.classify(node.label)
        if kind is not node.kind or canonical != node.label:
            raise InvalidStructure(
                f"label {node.label!r} does not match its declared role"
            )
        for child in node.children:
            if child.kind not in _ALLOWED_CHILD_KINDS[node.kind]:
                raise InvalidStructure(
                    f"{child.kind.value} {child.label!r} cannot nest "
                    f"under {node.kind.value} {node.label!r}"
                )
        if node.value is not None:
            if node.children:
                raise InvalidStructure(
                    f"argument {node.label!r} has both a value and subfields"
                )
            for word in node.value.split():
                if word.startswith(OPEN_PREFIX) or word == CLOSE:
                    raise InvalidStructure(
                        f"value of {node.label!r} contains bracket tokens"
                    )


def linearize(tree: Tree) -> list[str]:
    """Serialize a tree to its token sequence ( `[LABEL` ... `]` )."""
    out: list[str] = []
    _linearize_into(_root_of(tree), out)
    return out


def _linearize_into(node: MrNode | AnnotatedNode, out: list[str]) -> None:
    out.append(open_token(node.label))
    if isinstance(node, AnnotatedNode):
        for item in node.items:
            if isinstance(item, AnnotatedNode):
                _linearize_into(item, out)
            else:
                out.append(item)
    else:
        for child in node.children:
            _linearize_into(child, out)
        if node.value is not None:
            out.extend(node.value.split())
    out.append(CLOSE)


def to_string(tree: Tree) -> str:
    return " ".join(linearize(tree))


def parse_linearized(
    tokens: str | Sequence[str], ontology: Ontology
) -> AnnotatedTree:
    """Parse a linearized tree (with or without surface words).

    Multiple top-level nodes are wrapped in a synthetic JOIN.  Raises
    UnbalancedBrackets, UnknownLabel, EmptyInput, or InvalidStructure.
    """
    if isinstance(tokens, str):
        tokens = tokenize(tokens)
    if not tokens:
        raise EmptyInput("no tokens")

    roots: list[AnnotatedNode] = []
    # stack of (kind, label, items) for every currently-open node
    stack: list[tuple[NodeKind, str, list[AnnotatedNode | str]]] = []
    for pos, token in enumerate(tokens):
        if is_open(token):
            kind, label = ontology.classify(open_label(token))
            if stack:
                parent_kind = stack[-1][0]
                if kind not in _ALLOWED_CHILD_KINDS[parent_kind]:
                    raise InvalidStructure(
                        f"{kind.value} {label!r} cannot nest under "
                        f"{parent_kind.value} {stack[-1][1]!r} (token {pos})"
                    )
            stack.append((kind, label, []))
        elif token == CLOSE:
            if not stack:
                raise UnbalancedBrackets(f"unmatched close bracket at token {pos}")
            kind, label, items = stack.pop()
            node = AnnotatedNode(kind, label, tuple(items))
            if stack:
                stack[-1][2].append(node)
            else:
                roots.append(node)
        else:
            if not stack:
                raise UnbalancedBrackets(
                    f"word {token!r} outside any node at token {pos}"
                )
            stack[-1][2].append(token)
    if stack:
        raise UnbalancedBrackets(f"{len(stack)} node(s) never closed")
    if not roots:
        raise EmptyInput("no nodes")
    for root in roots:
        if root.kind is NodeKind.ARGUMENT:
            raise InvalidStructure("top-level node must be an act or relation")
    if len(roots) == 1:
        return roots[0]
    _, join_label = ontology.classify(JOIN_LABEL)
    return AnnotatedNode(NodeKind.RELATION, join_label, tuple(roots))


def annotated_to_mr(node: AnnotatedNode) -> MrNode:
    """Project an annotated span to its MR node (words of leaves become values)."""
    children = node.children()
    if children:
        return MrNode(node.kind, node.label, tuple(annotated_to_mr(c) for c in children))
    words = node.words()
    value = " ".join(words) if words else None
    if node.kind is not NodeKind.ARGUMENT and value is not None:
        # acts/relations carry words only around children; a childless one
        # keeps no value
        value = None
    return MrNode(node.kind, node.label, (), value)


def parse_mr(tokens: str | Sequence[str], ontology: Ontology) -> MrTree:
    """Parse a linearized MR; words under leaf arguments become values."""
    annotated = parse_linearized(tokens, ontology)
    tree = MrTree(annotated_to_mr(annotated))
    validate(tree, ontology)
    return tree


def structure_key(node: MrNode) -> tuple:
    """Hashable key equal for structurally identical subtrees."""
    return (
        node.kind.value,
        node.label,
        node.value,
        tuple(structure_key(c) for c in node.children),
    )


def ordered_arguments(children: Iterable[MrNode]) -> list[MrNode]:
    """Arguments in canonical order: by label, then by serialized subtree.

    Equals a stable sort on ``(label, structure_key)``, but builds
    structure keys only when two arguments share a label.
    """
    ordered = sorted(children, key=attrgetter("label"))
    if len({c.label for c in ordered}) < len(ordered):
        # the label sort is stable, so twins keep their input order here too
        ordered.sort(key=lambda c: (c.label, structure_key(c)))
    return ordered


def canonicalize(tree: MrTree | MrNode) -> MrTree:
    """Sort argument children of each dialog act into a canonical order.

    Order is (label, serialized subtree); relation children keep their
    order (JOIN order is meaningful) and subfields keep declaration order.
    Subtrees already in canonical order are returned as they are.
    """

    def rec(node: MrNode) -> MrNode:
        children = tuple(rec(c) for c in node.children)
        if node.kind is NodeKind.ACT:
            children = tuple(ordered_arguments(children))
        if all(new is old for new, old in zip(children, node.children)):
            return node
        return replace(node, children=children)

    return MrTree(rec(_root_of(as_tree(tree))))


def skeleton(tree: MrTree | MrNode) -> list[str]:
    """Linearization with values dropped: the pure bracket structure."""

    out: list[str] = []

    def rec(node: MrNode) -> None:
        out.append(open_token(node.label))
        for child in node.children:
            rec(child)
        out.append(CLOSE)

    rec(_root_of(as_tree(tree)))
    return out


def signature(tree: MrTree | MrNode) -> str:
    """Canonical structure string: the skeleton of the canonicalized tree.

    Used to group training examples that share an MR shape; values (and so
    delexicalization) do not affect it.
    """
    return " ".join(skeleton(canonicalize(tree)))
