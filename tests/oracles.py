"""Independent reference implementations used to check the library.

Everything here is written directly against the tree definitions, without
reusing the automaton, so that the two sides can disagree.  The enumerator
characterizes valid realizations from first principles: pick a downward
closed set of realized nodes, make sure every boundary omission leaves a
structurally identical twin somewhere outside the omitted boundary set and
never exhausts a whole equality group, keep JOIN children in order, permute
everything else.

The reference beam is the exception: it is the plain list-of-tuples search
loop, with a full stable sort per step and a fresh mask row per
hypothesis, stepping the same automaton.  It pins the decoder's search,
not the automaton.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

import numpy as np

from treegen.beam import Candidate, DecodeConfig, DecodeMode, DecodeResult, DecodingFailed
from treegen.constraints import (
    build_constraints,
    check_tree,
    initial_states,
    valid_structural_tokens,
)
from treegen.ontology import NodeKind, Ontology
from treegen.scorers import bind
from treegen.trees import (
    CLOSE,
    EOS,
    MrNode,
    MrTree,
    as_tree,
    canonicalize,
    linearize,
    open_token,
)


def ref_structure_key(node: MrNode) -> tuple:
    return (
        node.kind.value,
        node.label,
        node.value,
        tuple(ref_structure_key(c) for c in node.children),
    )


def ref_number_dfs(root: MrNode) -> tuple[list[MrNode], list[int]]:
    """Preorder numbering: every node before its descendants, left to right."""
    nodes: list[MrNode] = []
    parents: list[int] = []

    def walk(node: MrNode, parent: int) -> None:
        idx = len(nodes)
        nodes.append(node)
        parents.append(parent)
        for child in node.children:
            walk(child, idx)

    walk(root, -1)
    return nodes, parents


def ref_groups(root: MrNode) -> dict[int, frozenset[int]]:
    """Structural-equality groups via an explicit pairwise comparison."""
    nodes, _ = ref_number_dfs(root)

    def equal(a: MrNode, b: MrNode) -> bool:
        if a.label != b.label or a.kind != b.kind or a.value != b.value:
            return False
        if len(a.children) != len(b.children):
            return False
        return all(equal(x, y) for x, y in zip(a.children, b.children))

    groups: dict[int, frozenset[int]] = {}
    for i, a in enumerate(nodes):
        members = frozenset(j for j, b in enumerate(nodes) if equal(a, b))
        groups[i] = members
    return groups


def enumerate_valid_skeletons(mr: MrTree | MrNode) -> set[tuple[str, ...]]:
    """All bracket-only token sequences (with EOS) that realize the MR."""
    root = mr.root if isinstance(mr, MrTree) else mr
    nodes, parents = ref_number_dfs(root)
    groups = ref_groups(root)
    n = len(nodes)
    children: dict[int, list[int]] = defaultdict(list)
    for idx in range(1, n):
        children[parents[idx]].append(idx)

    results: set[tuple[str, ...]] = set()

    def node_sequences(idx: int, realized: frozenset[int]) -> list[tuple[str, ...]]:
        """All realizations of the subtree at idx, given the realized set."""
        kids = [c for c in children[idx] if c in realized]
        parts = [node_sequences(c, realized) for c in kids]
        out: list[tuple[str, ...]] = []
        if nodes[idx].label == "JOIN" and nodes[idx].kind is NodeKind.RELATION:
            orders = [kids]  # JOIN children keep MR order
        else:
            orders = [list(p) for p in itertools.permutations(kids)]
        for order in orders:
            pos = {c: i for i, c in enumerate(kids)}
            seqs_in_order = [parts[pos[c]] for c in order]
            for combo in itertools.product(*seqs_in_order):
                seq: tuple[str, ...] = (open_token(nodes[idx].label),)
                for sub in combo:
                    seq = seq + sub
                seq = seq + (CLOSE,)
                out.append(seq)
        return out

    # enumerate downward-closed realized sets containing the root
    ids = list(range(n))

    def gen_realized(idx: int) -> list[frozenset[int]]:
        """Realized subsets of the subtree at idx, given idx realized."""
        options: list[list[frozenset[int]]] = []
        for c in children[idx]:
            child_sets = [frozenset()] + gen_realized(c)
            options.append(child_sets)
        combos: list[frozenset[int]] = []
        for chosen in itertools.product(*options):
            s = frozenset({idx}).union(*chosen) if chosen else frozenset({idx})
            combos.append(s)
        return combos

    for realized in gen_realized(0):
        # boundary omissions: unrealized nodes with a realized parent
        boundary = frozenset(
            idx
            for idx in ids
            if idx not in realized and (parents[idx] == -1 or parents[idx] in realized)
        )
        # every omission must leave a twin that is not itself a boundary
        # omission (interior nodes of an omitted subtree still count: they
        # were never elided, their ancestor was)
        if any(groups[idx].issubset(boundary) for idx in boundary):
            continue
        for seq in node_sequences(0, realized):
            results.add(seq + (EOS,))
    return results


def ref_ngram_prob(
    streams: list[list[int]],
    order: int,
    discount: float,
    vocab_size: int,
    context: tuple[int, ...],
    target: int,
    bos: int,
) -> float:
    """Scalar interpolated absolute-discounting estimate, from raw counts.

    Recomputes counts per call with plain dict arithmetic; no sharing with
    the library's vectorized tables.
    """
    padded = [[bos] * (order - 1) + s for s in streams]

    def level_counts(k: int) -> dict[tuple[int, ...], dict[int, int]]:
        table: dict[tuple[int, ...], dict[int, int]] = {}
        for stream in padded:
            for pos in range(order - 1, len(stream)):
                ctx = tuple(stream[pos - k : pos])
                bucket = table.setdefault(ctx, {})
                bucket[stream[pos]] = bucket.get(stream[pos], 0) + 1
        return table

    def prob(ctx: tuple[int, ...], w: int) -> float:
        if not ctx:
            bucket = level_counts(0).get((), {})
            total = sum(bucket.values())
            uniform = 1.0 / vocab_size
            if total == 0:
                return uniform
            reserved = discount * len(bucket) / total
            return max(bucket.get(w, 0) - discount, 0.0) / total + reserved * uniform
        bucket = level_counts(len(ctx)).get(ctx)
        if not bucket:
            return prob(ctx[1:], w)
        total = sum(bucket.values())
        reserved = discount * len(bucket) / total
        return max(bucket.get(w, 0) - discount, 0.0) / total + reserved * prob(ctx[1:], w)

    return prob(tuple(context[-(order - 1) :]) if order > 1 else (), target)


def random_mr(
    rng: random.Random,
    ontology: Ontology,
    max_nodes: int = 7,
    value_pool: tuple[str, ...] = ("v1", "v2"),
) -> MrTree:
    """A random ontology-valid MR with at most max_nodes nodes.

    Values are drawn from a small pool so that same-value groups are
    common; relation labels cover JOIN and the rest of the inventory.
    """
    acts = sorted(ontology.dialog_acts)
    relations = sorted(ontology.discourse_relations)
    arg_specs = [s for s in ontology.arguments if not s.subfields]
    nested_specs = [s for s in ontology.arguments if s.subfields]
    budget = rng.randint(1, max_nodes)

    def make_arg(remaining: int) -> tuple[MrNode, int]:
        if nested_specs and remaining >= 2 and rng.random() < 0.3:
            spec = rng.choice(nested_specs)
            n_sub = rng.randint(1, min(2, remaining - 1, len(spec.subfields)))
            subs = []
            for name in rng.sample(list(spec.subfields), n_sub):
                subs.append(
                    MrNode(NodeKind.ARGUMENT, name, (), rng.choice(value_pool))
                )
            subs.sort(key=lambda s: s.label)
            return MrNode(NodeKind.ARGUMENT, spec.name, tuple(subs)), 1 + n_sub
        spec = rng.choice(arg_specs)
        return (
            MrNode(NodeKind.ARGUMENT, spec.name, (), rng.choice(value_pool)),
            1,
        )

    def make_act(remaining: int) -> tuple[MrNode, int]:
        used = 1
        kids: list[MrNode] = []
        while remaining - used > 0 and rng.random() < 0.7:
            arg, cost = make_arg(remaining - used)
            if used + cost > remaining:
                break
            kids.append(arg)
            used += cost
        return MrNode(NodeKind.ACT, rng.choice(acts).upper(), tuple(kids)), used

    def make_node(remaining: int, depth: int) -> tuple[MrNode, int]:
        if remaining >= 3 and depth < 2 and rng.random() < 0.45:
            label = rng.choice(relations).upper()
            used = 1
            kids = []
            want = rng.randint(2, 3)
            for _ in range(want):
                if remaining - used < 1:
                    break
                child, cost = make_node(remaining - used, depth + 1)
                if used + cost > remaining:
                    break
                kids.append(child)
                used += cost
            if len(kids) >= 1:
                return MrNode(NodeKind.RELATION, label, tuple(kids)), used
        return make_act(remaining)

    node, _ = make_node(budget, 0)
    return MrTree(node)


def ref_beam_decode(mr: MrTree | MrNode, scorer, config: DecodeConfig) -> DecodeResult:
    """beam.decode as a list of (ids, score, states) tuples.

    Each step masks a copy of every hypothesis's row, concatenates the
    rows and takes the head of one stable argsort of the whole grid.
    """
    vocab = scorer.vocabulary
    tree = canonicalize(as_tree(mr))
    mr_tokens = linearize(tree)
    max_length = config.max_length or 2 * len(mr_tokens) + 64
    constrained = config.mode is DecodeMode.CONSTRAINED
    tracker = build_constraints(tree)
    session = bind(scorer, vocab.encode(mr_tokens))
    structural = np.array(vocab.structural_ids)
    token_ids = {vocab.token(i): i for i in vocab.structural_ids}
    size = len(vocab)

    live = [((), 0.0, initial_states(tracker) if constrained else None)]
    last_live = live
    finished = []
    for _ in range(max_length):
        if not live:
            break
        last_live = live
        if len(finished) >= config.beam_size and not config.length_penalty:
            bound = sorted((s for _, s in finished), reverse=True)[config.beam_size - 1]
            if max(score for _, score, _ in live) < bound:
                break
        rows = []
        moves = []
        # every prefix whole, from parent -1
        logprobs = session.logprobs([-1] * len(live), [ids for ids, _, _ in live])
        for (ids, score, states), vec in zip(live, logprobs):
            successors = {}
            if constrained:
                budget = max_length - len(ids) - 1
                idle, structural_moves = valid_structural_tokens(tracker, states)
                successors = {
                    token_ids[token]: nxt
                    for token, (nxt, cost) in structural_moves.items()
                    if cost <= budget
                }
                allowed = list(successors)
                if idle > budget:
                    masked = np.full(size, -np.inf)
                else:
                    masked = vec.copy()
                    masked[structural] = -np.inf
                masked[allowed] = vec[allowed]
                vec = masked
            rows.append(score + vec)
            moves.append(successors)
        flat = np.concatenate(rows)
        order = np.argsort(-flat, kind="stable")
        next_live = []
        for idx in order[: config.beam_size]:
            total = float(flat[idx])
            if total == float("-inf") or np.isnan(total):
                break
            hyp, token_id = divmod(int(idx), size)
            ids, _, states = live[hyp]
            if token_id == vocab.eos_id:
                finished.append((ids, total))
            else:
                next_live.append((ids + (token_id,), total, moves[hyp].get(token_id, states)))
        live = next_live

    if not finished:
        ids, score, _ = max(live or last_live, key=lambda h: h[1])
        tokens = tuple(vocab.decode(ids))
        partial = Candidate(tokens, score, check_tree(tree, tokens))
        raise DecodingFailed(f"no hypothesis finished within max_length={max_length}", partial)

    def rank_key(entry):
        ids, score = entry
        if config.length_penalty:
            score = score / (len(ids) + 1) ** config.length_penalty
        return (-score, ids)

    finished.sort(key=rank_key)
    candidates = []
    for ids, score in finished[: config.beam_size]:
        tokens = tuple(vocab.decode(ids))
        candidates.append(Candidate(tokens, score, check_tree(tree, tokens)))
    if config.mode is DecodeMode.RERANK:
        candidates = [c for c in candidates if c.tree_valid] + [
            c for c in candidates if not c.tree_valid
        ]
    return DecodeResult(candidates)
