"""Tracing from outside the program, for the benchmark's traced runs.

Nothing in ``treegen`` is edited.  Timing wrappers replace the module
attributes through which the package's modules call each other (so
``treegen.beam.advance``, ``treegen.constraints.advance`` and every other
binding of ``advance`` inside the package point at one wrapper), a scorer
proxy implements the ``Scorer`` protocol and times ``logprobs``, and the
benchmark opens spans of its own around its calls into each layer.

A span's self time is its duration minus the time of the spans nested in
it.  Spans are folded, as they close, into per-name totals and into one
record per benchmark operation (an MR decode or a corpus batch); all of it
stays in memory until the run writes it out.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# (module, function) pairs whose calls are traced, named "<module>.<function>"
LAYER_FUNCTIONS = (
    ("constraints", "valid_structural_tokens"),
    ("constraints", "min_completion_tokens"),
    ("constraints", "advance"),
    ("constraints", "check_tree"),
    ("constraints", "build_constraints"),
    ("trees", "parse_mr"),
    ("corpus", "read_corpus"),
    ("corpus", "write_corpus"),
    ("delex", "delexicalize_example"),
    ("delex", "relexicalize"),
    ("metrics", "tree_accuracy"),
    ("metrics", "bleu4"),
    ("metrics", "diversity"),
)


class Tracer:
    """Span and counter store; records only while ``active``."""

    def __init__(self):
        self.installed = False
        self.active = False
        self.totals: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.ops: list[dict] = []
        self._op_spans: dict[str, list] | None = None
        self._child_time: list[float] = []
        # alignment-state counters, fed by the valid_structural_tokens hook
        self.state_calls = 0
        self.state_sum = 0
        self.state_peak = 0
        self.distinct_masks = 0
        self._masks: set = set()

    # -- operations -------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self._op_spans = {}
        self.ops.append({"op": len(self.ops), "input": label, "spans": self._op_spans})
        self._masks = set()

    def end_op(self) -> None:
        self.distinct_masks += len(self._masks)
        self._masks = set()
        self._op_spans = None

    @contextmanager
    def measuring(self):
        """Trace the measured loop, if the wrappers are installed."""
        self.active = self.installed
        try:
            yield
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        """Run untraced (the benchmark's own output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- spans ------------------------------------------------------------

    def _close(self, name: str, t0: float) -> None:
        elapsed = time.perf_counter() - t0
        own = elapsed - self._child_time.pop()
        if self._child_time:
            self._child_time[-1] += elapsed
        for table in (self.totals, self._op_spans):
            if table is None:
                continue
            entry = table.get(name)
            if entry is None:
                table[name] = [1, own, elapsed]
            else:
                entry[0] += 1
                entry[1] += own
                entry[2] += elapsed

    def call(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, t0)

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        self._child_time.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, t0)

    def wrap(self, name: str, fn, on_call=None):
        def traced(*args, **kwargs):
            if self.active and on_call is not None:
                on_call(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- hooks ------------------------------------------------------------

    def _on_valid_structural_tokens(self, tracker, states, budget=None) -> None:
        size = len(states)
        self.state_calls += 1
        self.state_sum += size
        if size > self.state_peak:
            self.state_peak = size
        self._masks.add((states, budget))

    def install(self) -> None:
        """Point every package binding of each traced function at a wrapper."""
        hooks = {"valid_structural_tokens": self._on_valid_structural_tokens}
        importlib.import_module("treegen.cli")
        modules = [m for n, m in sys.modules.items() if n == "treegen" or n.startswith("treegen.")]
        for layer, fname in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(f"treegen.{layer}"), fname)
            wrapper = self.wrap(f"{layer}.{fname}", original, hooks.get(fname))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        self.installed = True

    # -- readout ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]


class TracedScorer:
    """Scorer proxy: times ``logprobs`` and counts what it is asked.

    A query is the last order-1 ids of the BOS-padded prefix: within one
    decode the MR signature is fixed, so this is the key under which an
    n-gram scorer looks its answer up.  Distinct queries are counted per
    decode, between ``begin_op`` and ``end_op``, so that their ratio to
    the calls does not depend on how many decodes a run holds.
    """

    def __init__(self, inner, tracer: Tracer, order: int):
        self.vocabulary = inner.vocabulary
        self._inner = inner
        self._tracer = tracer
        self._pad = [inner.vocabulary.bos_id] * (order - 1)
        self._width = order - 1
        self.queries: set = set()
        self.longest_prefix = -1
        self.distinct_queries = 0
        self.expansions = 0
        self.steps = 0

    def begin_op(self) -> None:
        self.queries = set()
        self.longest_prefix = -1

    def end_op(self) -> None:
        self.distinct_queries += len(self.queries)
        self.steps += self.longest_prefix + 1

    def logprobs(self, prefix, context=None):
        if self._tracer.active:
            tail = (self._pad + list(prefix[-self._width :]))[-self._width :] if self._width else []
            self.queries.add(tuple(tail))
            self.expansions += 1
            if len(prefix) > self.longest_prefix:
                self.longest_prefix = len(prefix)
        return self._tracer.call("scorers.logprobs", self._inner.logprobs, prefix, context)
