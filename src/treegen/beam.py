"""Beam-search decoding with optional tree-constraint masking.

Three modes: constrained masks structurally illegal tokens at every
expansion so only valid realizations survive; unconstrained is plain
beam search; rerank runs unconstrained and then stably moves tree-valid
candidates to the front.  Every mode checks each finished candidate once
against the MR and records the answer in its tree_valid flag, which
rerank reads.  Ties between equal-score expansions break
lexicographically on token ids, so decoding is deterministic.

Constrained mode also enforces the token budget: moves whose cheapest
remaining closure cannot fit in max_length are masked, words included,
so a hypothesis near the wall is steered into closing brackets instead
of running out mid-tree.  A constrained decode can then only fail when
the scorer itself zeroes out every budget-respecting continuation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .constraints import (
    StateSet,
    build_constraints,
    check_tree,
    completion_cost,
    initial_states,
    valid_structural_tokens,
)
from .scorers import Scorer, bind
from .trees import (
    CLOSE,
    EOS,
    MrNode,
    MrTree,
    as_tree,
    canonicalize,
    linearize,
    open_token,
)


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

    def __init__(self, reason: str, partial: Candidate | None = None):
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
    context = vocab.encode(mr_tokens)
    max_length = config.max_length or 2 * len(mr_tokens) + 64

    # rerank searches unconstrained; the tracker only checks its candidates
    constrained = config.mode is DecodeMode.CONSTRAINED
    tracker = build_constraints(tree)
    session = bind(scorer, context)
    structural = np.array(vocab.structural_ids)
    token_ids = {vocab.token(i): i for i in vocab.structural_ids}
    eos_id = vocab.eos_id
    size = len(vocab)

    # the beam as parallel lists: prefix ids, float64 totals, and each
    # hypothesis's alignment states (None when the search is unconstrained)
    prefixes: list[tuple[int, ...]] = [()]
    scores = np.zeros(1)
    state_sets: list[StateSet | None] = [initial_states(tracker) if constrained else None]
    last_prefixes, last_scores = prefixes, scores
    finished: list[tuple[tuple[int, ...], float]] = []
    # per decode: (states, moves kept, idling overruns) -> (blocked row,
    # structural id -> the state set it leads to).  A smaller budget only
    # drops moves, so the count of moves kept names the kept set.
    mask_rows: dict[tuple[StateSet, int, bool], tuple[np.ndarray, dict[int, StateSet]]] = {}
    k = config.beam_size

    for _ in range(max_length):
        if not prefixes:
            break
        last_prefixes, last_scores = prefixes, scores
        if len(finished) >= k and not config.length_penalty:
            # log-probs are <= 0, so a live score only falls; once the
            # best live hypothesis is below the provisional cut it can
            # never enter the final ranking.  With a length penalty the
            # adjusted score is not monotone, so run out max_length.
            bound = sorted((s for _, s in finished), reverse=True)[k - 1]
            if scores.max() < bound:
                break
        # a new matrix: the session's own rows are never written to
        grid = np.asarray(session.logprobs(prefixes), dtype=np.float64) + scores[:, None]
        # per hypothesis: structural token id -> the state set it leads to
        moves: list[dict[int, StateSet]] = []
        if constrained:
            blocked = []
            for ids, states in zip(prefixes, state_sets):
                # budget: tokens that may still follow the one chosen now.
                # Structural moves whose cheapest completion overruns it are
                # masked, and once idling would overrun it, words are masked
                # too, so surviving hypotheses always close out in time.
                budget = max_length - len(ids) - 1
                kept = valid_structural_tokens(tracker, states, budget=budget)
                starved = completion_cost(tracker, states) > budget
                key = (states, len(kept), starved)
                row = mask_rows.get(key)
                if row is None:
                    successors = {token_ids[token]: nxt for token, nxt in kept.items()}
                    mask = np.full(size, starved)
                    mask[structural] = True
                    mask[list(successors)] = False
                    row = mask_rows[key] = (mask, successors)
                blocked.append(row[0])
                moves.append(row[1])
            grid[np.array(blocked)] = -np.inf
        # ties go to the higher-ranked hypothesis, then the smaller token id
        flat = grid.ravel()
        order = _top_k(flat, k)
        next_prefixes: list[tuple[int, ...]] = []
        next_scores: list[float] = []
        next_states: list[StateSet | None] = []
        for idx, total in zip(order.tolist(), flat[order].tolist()):
            if total == -math.inf or math.isnan(total):
                break
            hyp, token_id = divmod(idx, size)
            ids = prefixes[hyp]
            if token_id == eos_id:
                finished.append((ids, total))
            else:
                next_prefixes.append(ids + (token_id,))
                next_scores.append(total)
                # words (and every token when unconstrained) keep the states
                states = state_sets[hyp]
                next_states.append(moves[hyp].get(token_id, states) if constrained else states)
        prefixes, scores, state_sets = next_prefixes, np.array(next_scores), next_states

    if not finished:
        partial = None
        if not prefixes:
            prefixes, scores = last_prefixes, last_scores
        if prefixes:
            best = max(range(len(prefixes)), key=scores.__getitem__)
            tokens = tuple(vocab.decode(prefixes[best]))
            partial = Candidate(tokens, float(scores[best]), check_tree(tracker, tokens))
        raise DecodingFailed(
            f"no hypothesis finished within max_length={max_length}", partial
        )

    def rank_key(entry: tuple[tuple[int, ...], float]):
        ids, score = entry
        if config.length_penalty:
            score = score / (len(ids) + 1) ** config.length_penalty
        return (-score, ids)

    finished.sort(key=rank_key)
    candidates = []
    for ids, score in finished[: config.beam_size]:
        tokens = tuple(vocab.decode(ids))
        candidates.append(Candidate(tokens, score, check_tree(tracker, tokens)))
    if config.mode is DecodeMode.RERANK:
        candidates = rerank_by_tree_accuracy(candidates)
    return DecodeResult(candidates)


def rerank_by_tree_accuracy(candidates: list[Candidate]) -> list[Candidate]:
    """Stable partition: tree-valid candidates first, score order kept.

    Reads each candidate's tree_valid flag, which decode sets with the
    MR's tracker; nothing is checked again here.
    """
    return [c for c in candidates if c.tree_valid] + [
        c for c in candidates if not c.tree_valid
    ]
