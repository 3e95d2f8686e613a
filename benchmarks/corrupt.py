"""Corrupted corpus lines for the check-corpus workload.

Each kind breaks exactly one rule of the skeleton language, on the
annotated response of an otherwise valid example:

* ``duplicate``: a leaf argument span whose label occurs once in the MR
  is repeated right after itself (no repeats);
* ``swap``: two adjacent, different children of a JOIN trade places
  (JOIN order);
* ``delete``: a span whose label occurs once in the MR, so it has no twin
  to be elided in favour of, is removed (ellipsis only with a twin).

The plain response is rebuilt from the corrupted annotation so that the
line stays internally consistent.  A corruption is used only after the
independent skeleton checker confirms that it no longer realizes the MR.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

from treegen.corpus import CorpusExample
from treegen.ontology import Ontology
from treegen.trees import CLOSE, OPEN_PREFIX, is_open

from skeleton_check import skeleton_accepts

KINDS = ("duplicate", "swap", "delete")


def surface(tokens) -> list[str]:
    """The words of an annotated token sequence, brackets dropped."""
    return [t for t in tokens if t != CLOSE and not is_open(t)]


def _spans(tokens: list[str]) -> list[tuple[int, int]]:
    """(open index, close index) of every bracketed span, in preorder."""
    spans = []
    stack = []
    for pos, token in enumerate(tokens):
        if is_open(token):
            stack.append(len(spans))
            spans.append([pos, -1])
        elif token == CLOSE:
            spans[stack.pop()][1] = pos
    return [(a, b) for a, b in spans]


def _children(spans: list[tuple[int, int]], parent: tuple[int, int]) -> list[tuple[int, int]]:
    inner = [s for s in spans if parent[0] < s[0] and s[1] < parent[1]]
    return [s for s in inner if not any(o[0] < s[0] and s[1] < o[1] for o in inner)]


def span_edits(kind: str, tokens: list[str], editable) -> list[list[str]]:
    """Every edit of one kind; ``editable(label)`` admits the spans to edit."""
    spans = _spans(tokens)
    out = []

    def eligible(span):
        return editable(tokens[span[0]][len(OPEN_PREFIX):])

    if kind == "duplicate":
        for a, b in spans[1:]:
            leaf = not any(is_open(t) for t in tokens[a + 1 : b])
            if leaf and eligible((a, b)):
                out.append(tokens[: b + 1] + tokens[a : b + 1] + tokens[b + 1 :])
    elif kind == "swap":
        for span in spans:
            if tokens[span[0]] != OPEN_PREFIX + "JOIN":
                continue
            kids = _children(spans, span)
            for (a1, b1), (a2, b2) in zip(kids, kids[1:]):
                if tokens[a1 : b1 + 1] == tokens[a2 : b2 + 1]:
                    continue
                out.append(
                    tokens[:a1]
                    + tokens[a2 : b2 + 1]
                    + tokens[b1 + 1 : a2]
                    + tokens[a1 : b1 + 1]
                    + tokens[b2 + 1 :]
                )
    elif kind == "delete":
        for a, b in spans[1:]:
            if eligible((a, b)):
                out.append(tokens[:a] + tokens[b + 1 :])
    else:
        raise ValueError(f"unknown corruption kind {kind!r}")
    return out


def corrupt_example(
    example: CorpusExample, kind: str, ontology: Ontology, rng: random.Random
) -> CorpusExample | None:
    """One corruption of the given kind, or None if the example has none."""
    mr = example.mr_tree(ontology)
    label_counts = Counter(node.label for node in mr.root.iter_nodes())
    options = span_edits(
        kind, example.annotated_response.split(), lambda label: label_counts[label] == 1
    )
    rng.shuffle(options)
    for tokens in options:
        if skeleton_accepts(mr, tokens):
            continue
        return dataclasses.replace(
            example, annotated_response=" ".join(tokens), response=" ".join(surface(tokens))
        )
    return None


def corrupted_lines(
    pool: list[CorpusExample], count: int, ontology: Ontology, rng: random.Random
) -> list[tuple[str, CorpusExample]]:
    """``count`` (kind, corrupted example) pairs, kinds in rotation."""
    out = []
    order = list(range(len(pool)))
    rng.shuffle(order)
    cursor = 0
    while len(out) < count:
        kind = KINDS[len(out) % len(KINDS)]
        for _ in range(len(order)):
            example = pool[order[cursor % len(order)]]
            cursor += 1
            bad = corrupt_example(example, kind, ontology, rng)
            if bad is not None:
                out.append((kind, bad))
                break
        else:
            raise RuntimeError(f"no example in the pool admits a {kind!r} corruption")
    return out
