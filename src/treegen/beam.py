"""Beam-search decoding with optional tree-constraint masking.

Three modes: constrained masks structurally illegal tokens at every
expansion so only valid realizations survive; unconstrained is plain
beam search; rerank runs unconstrained and then stably moves tree-valid
candidates to the front.  Ties between equal-score expansions break
lexicographically on token ids, so decoding is deterministic.

Constrained mode also enforces the token budget: moves whose cheapest
remaining closure cannot fit in max_length are masked, words included,
so a hypothesis near the wall is steered into closing brackets instead
of running out mid-tree.  A constrained decode can then only fail when
the scorer itself zeroes out every budget-respecting continuation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .constraints import (
    StateSet,
    build_constraints,
    check_tree,
    initial_states,
    min_completion_tokens,
    valid_structural_tokens,
)
from .scorers import Scorer
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

    if config.mode is DecodeMode.RERANK:
        result = decode(mr, scorer, replace(config, mode=DecodeMode.UNCONSTRAINED))
        return DecodeResult(rerank_by_tree_accuracy(result.candidates, tree))

    constrained = config.mode is DecodeMode.CONSTRAINED
    tracker = build_constraints(tree)
    structural = np.array(vocab.structural_ids)
    eos_id = vocab.eos_id
    size = len(vocab)

    # hypothesis: (token ids, total logprob, alignment states or None)
    live = [((), 0.0, initial_states(tracker) if constrained else None)]
    last_live = live
    finished: list[tuple[tuple[int, ...], float]] = []

    for _ in range(max_length):
        if not live:
            break
        last_live = live
        if len(finished) >= config.beam_size and not config.length_penalty:
            # log-probs are <= 0, so a live score only falls; once the
            # best live hypothesis is below the provisional cut it can
            # never enter the final ranking.  With a length penalty the
            # adjusted score is not monotone, so run out max_length.
            bound = sorted((s for _, s in finished), reverse=True)[config.beam_size - 1]
            if max(score for _, score, _ in live) < bound:
                break
        rows = []
        # per hypothesis: structural token id -> the state set it leads to
        moves: list[dict[int, StateSet]] = []
        for ids, score, states in live:
            vec = np.asarray(scorer.logprobs(ids, context), dtype=float)
            successors: dict[int, StateSet] = {}
            if constrained:
                # budget: tokens that may still follow the one chosen now.
                # Structural moves whose cheapest completion overruns it are
                # masked, and once idling would overrun it, words are masked
                # too, so surviving hypotheses always close out in time.
                budget = max_length - len(ids) - 1
                successors = {
                    vocab.id_of(token): nxt
                    for token, nxt in valid_structural_tokens(
                        tracker, states, budget=budget
                    ).items()
                }
                allowed = list(successors)
                if min(min_completion_tokens(tracker, s) for s in states) > budget:
                    masked = np.full(size, -np.inf)
                else:
                    masked = vec.copy()
                    masked[structural] = -np.inf
                masked[allowed] = vec[allowed]
                vec = masked
            rows.append(score + vec)
            moves.append(successors)
        flat = np.concatenate(rows)
        # stable sort on the flattened (hypothesis, token) grid: ties go to
        # the higher-ranked hypothesis, then the smaller token id
        order = np.argsort(-flat, kind="stable")
        next_live = []
        taken = 0
        for idx in order:
            if taken >= config.beam_size:
                break
            total = float(flat[idx])
            if total == float("-inf") or np.isnan(total):
                break
            hyp, token_id = divmod(int(idx), size)
            ids, _, states = live[hyp]
            if token_id == eos_id:
                finished.append((ids, total))
            else:
                # words (and every token when unconstrained) keep the states
                new_states = moves[hyp].get(token_id, states)
                next_live.append((ids + (token_id,), total, new_states))
            taken += 1
        live = next_live

    if not finished:
        partial = None
        remains = live or last_live
        if remains:
            ids, score, _ = max(remains, key=lambda h: h[1])
            tokens = tuple(vocab.decode(ids))
            partial = Candidate(tokens, score, check_tree(tree, tokens))
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
        candidates.append(Candidate(tokens, score, check_tree(tree, tokens)))
    return DecodeResult(candidates)


def rerank_by_tree_accuracy(
    candidates: list[Candidate], mr: MrTree | MrNode
) -> list[Candidate]:
    """Stable partition: tree-valid candidates first, score order kept.

    Validity is recomputed here, so the input may come from any decoder.
    """
    tree = as_tree(mr)
    checked = [replace(c, tree_valid=check_tree(tree, c.tokens)) for c in candidates]
    return [c for c in checked if c.tree_valid] + [c for c in checked if not c.tree_valid]
