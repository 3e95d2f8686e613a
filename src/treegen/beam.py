"""Beam-search decoding with optional tree-constraint masking.

Three modes: constrained masks structurally illegal tokens at every
expansion so only valid realizations survive; unconstrained is plain
beam search; rerank runs unconstrained and then stably moves tree-valid
candidates to the front.  Every mode walks each hypothesis through the
MR's automaton, reading one table entry per state set, and a candidate
is tree_valid when its EOS leaves a live alignment state; only the mask
differs between modes.  Ties break lexicographically on token ids.

Each step scores the live hypotheses in one session call, as row
parents[i] of the step before extended by the one id tails[i]; ids are
read back along the parents only for finished candidates and the partial.

Constrained mode masks a token, word or move, when its entry in the
state set's cost row (the fewest tokens that must follow it) exceeds the
tokens max_length leaves, steering hypotheses into closing brackets.
That cost prices full realization (min_completion_tokens), so an MR with
identical subtrees can fail under a max_length its shortest, elided
realization fits, until exact completion costs (ROADMAP.md) mend it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constraints import (
    ConstraintTracker,
    StateSet,
    build_constraints,
    initial_states,
    valid_structural_tokens,
)
from .scorers import Scorer, bind
from .trees import CLOSE, EOS, MrNode, MrTree, as_tree, canonicalize, linearize, open_token


class DecodeMode(enum.Enum):
    CONSTRAINED = "constrained"
    UNCONSTRAINED = "unconstrained"
    RERANK = "rerank"


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 10
    max_length: int | None = None  # None: 2 x MR linearization length + 64
    mode: DecodeMode = DecodeMode.CONSTRAINED
    length_penalty: float = 0.0

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_length is not None and self.max_length < 2:
            raise ValueError("max_length must be >= 2")
        if not math.isfinite(self.length_penalty):
            raise ValueError("length_penalty must be finite")


@dataclass(frozen=True)
class Candidate:
    """One finished hypothesis; tokens exclude the final EOS."""

    tokens: tuple[str, ...]
    score: float
    tree_valid: bool


@dataclass
class DecodeResult:
    candidates: list[Candidate]


class DecodingFailed(RuntimeError):
    """No hypothesis reached an accepted EOS within max_length."""

    def __init__(self, reason: str, partial: Candidate):
        super().__init__(reason)
        self.reason = reason
        self.partial = partial


def _require_tokens(vocab, tree: MrTree) -> None:
    needed = {open_token(node.label) for node in tree.root.iter_nodes()}
    needed.update((CLOSE, EOS))
    missing = sorted(tok for tok in needed if tok not in vocab)
    if missing:
        raise ValueError(f"scorer vocabulary is missing structural tokens: {missing}")


def _top_k(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, in stable descending order.

    Equal to the head of ``np.argsort(-flat, kind="stable")`` up to its
    first -inf or NaN; NaN ranks with -inf here, and the beam stops at
    either.  A partition finds the k-th value, and every entry at or
    above it, ties included, is then sorted stably.
    """
    neg = -flat
    neg[np.isnan(neg)] = np.inf
    if k >= neg.size:
        return np.argsort(neg, kind="stable")
    pool = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return pool[np.argsort(neg[pool], kind="stable")[:k]]


class _StateTable(dict):
    """One decode's state set -> (cost row, successor by token id).

    A cost counts the tokens that must still follow a token: the set's
    cheapest completion for a word, the successor's for a move (EOS 0),
    inf for any other structural id, whose successor is the empty set.
    A word keeps the states.  Only the constrained mask reads cost rows,
    so without `costs` the row is None.  Each fill makes one
    valid_structural_tokens query and unpacks the entry it returns: the
    set's cheapest completion (idle) and its moves.
    """

    def __init__(self, tracker: ConstraintTracker, vocab, costs: bool):
        self.tracker = tracker
        self.vocab = vocab
        self.template = None
        if costs:
            self.template = np.zeros(len(vocab))
            self.template[list(vocab.structural_ids)] = math.inf
        self.unmoved = dict.fromkeys(vocab.structural_ids, frozenset())

    def __missing__(self, states: StateSet) -> tuple[np.ndarray | None, dict[int, StateSet]]:
        idle, moves = valid_structural_tokens(self.tracker, states)
        ids = self.vocab.encode(list(moves))
        successors = dict(self.unmoved)
        successors.update(zip(ids, [nxt for nxt, _ in moves.values()]))
        row = None
        if self.template is not None:
            row = self.template + idle
            row[ids] = [cost for _, cost in moves.values()]
        return self.setdefault(states, (row, successors))


def _ids(steps: list[tuple[list[int], list[tuple[int]]]], hyp: int) -> tuple[int, ...]:
    """The ids of live hypothesis hyp, read back along its parents."""
    ids: list[int] = []
    for parents, tails in reversed(steps):
        ids += tails[hyp]
        hyp = parents[hyp]
    return tuple(ids[::-1])


def decode(
    mr: MrTree | MrNode, scorer: Scorer, config: DecodeConfig | None = None
) -> DecodeResult:
    """Beam-search a response for one MR.

    Raises DecodingFailed when nothing finishes in time; the exception
    carries the best unfinished hypothesis for diagnostics.
    """
    if config is None:
        config = DecodeConfig()
    vocab = scorer.vocabulary
    tree = canonicalize(as_tree(mr))
    _require_tokens(vocab, tree)
    mr_tokens = linearize(tree)
    max_length = config.max_length or 2 * len(mr_tokens) + 64

    constrained = config.mode is DecodeMode.CONSTRAINED
    tracker = build_constraints(tree)
    session = bind(scorer, vocab.encode(mr_tokens))
    table = _StateTable(tracker, vocab, constrained)
    size = len(vocab)

    # the beam as parallel lists: hypothesis i extends row parents[i] of
    # the step before by tails[i], and has a float64 total and alignment
    # states; steps[j] keeps the (parents, tails) of length j + 1
    parents, tails = [-1], [()]
    steps: list[tuple[list[int], list[tuple[int]]]] = []
    scores = np.zeros(1)
    state_sets: list[StateSet] = [initial_states(tracker)]
    # (ids, score, whether its EOS left a live alignment state)
    finished: list[tuple[tuple[int, ...], float, bool]] = []
    k = config.beam_size

    for length in range(max_length):  # every live hypothesis holds `length` ids
        if len(finished) >= k and not config.length_penalty:
            # log-probs are <= 0, so a live score only falls; once the
            # best live hypothesis is below the provisional cut it can
            # never enter the final ranking.  With a length penalty the
            # adjusted score is not monotone, so run out max_length.
            bound = sorted((s for _, s, _ in finished), reverse=True)[k - 1]
            if scores.max() < bound:
                break
        # a new matrix: the session's own rows are never written to
        grid = np.asarray(session.logprobs(parents, tails), dtype=np.float64) + scores[:, None]
        if constrained:
            # budget: tokens that may still follow the one chosen now.
            # Structural moves whose cheapest completion overruns it are
            # masked, and once idling would overrun it, words are masked
            # too, so surviving hypotheses always close out in time.
            budget = max_length - length - 1
            grid[np.array([table[states][0] for states in state_sets]) > budget] = -np.inf
        # ties go to the higher-ranked hypothesis, then the smaller token id
        flat = grid.ravel()
        order = _top_k(flat, k)
        parents, tails, next_scores, next_states = [], [], [], []
        for idx, total in zip(order.tolist(), flat[order].tolist()):
            if total == -math.inf or math.isnan(total):
                break
            hyp, token_id = divmod(idx, size)
            states = table[state_sets[hyp]][1].get(token_id, state_sets[hyp])
            if token_id == vocab.eos_id:
                finished.append((_ids(steps, hyp), total, bool(states)))
            else:
                parents.append(hyp)
                tails.append((token_id,))
                next_scores.append(total)
                next_states.append(states)
        if not parents:
            break
        steps.append((parents, tails))
        scores, state_sets = np.array(next_scores), next_states

    if not finished:
        best = int(scores.argmax())
        valid = bool(table[state_sets[best]][1][vocab.eos_id])
        partial = Candidate(tuple(vocab.decode(_ids(steps, best))), float(scores[best]), valid)
        raise DecodingFailed(f"no hypothesis finished within max_length={max_length}", partial)

    def rank_key(entry: tuple[tuple[int, ...], float, bool]):
        ids, score, _ = entry  # a penalty of 0 divides by exactly 1
        return (-score / (len(ids) + 1) ** config.length_penalty, ids)

    finished.sort(key=rank_key)
    candidates = [
        Candidate(tuple(vocab.decode(ids)), score, valid) for ids, score, valid in finished[:k]
    ]
    if config.mode is DecodeMode.RERANK:
        candidates = rerank_by_tree_accuracy(candidates)
    return DecodeResult(candidates)


def rerank_by_tree_accuracy(candidates: list[Candidate]) -> list[Candidate]:
    """Stable partition: tree-valid candidates first, score order kept.

    Reads each candidate's tree_valid flag, which decode sets from its
    automaton walk; nothing is checked again here.
    """
    return sorted(candidates, key=lambda c: not c.tree_valid)
