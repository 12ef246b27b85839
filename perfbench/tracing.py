"""Outside-in tracing for the benchmark's traced run.

Nothing under ``src/`` is edited to trace it.  :class:`Tracer.installed`
rebinds the module-level names that the engine's callers look up (for
example ``repro.chase.engine.all_extensions_of``) to timing wrappers and
restores the originals on exit.  Two kinds of boundary are recorded:

* **span layers** (``op``, ``ingest``, ``chase``, ``rewrite``,
  ``entail``, ``entail.chase``, ``cert``): one record per call, with
  name, start, end, parent span and the op id shared by every span of
  one op;
* **leaf layers** (``join``, ``activity``, ``sort``, ``egd.search``),
  which the chase calls up to 10^5 times per op: one aggregate record
  per (enclosing span, layer) holding the call count and busy time, so
  the trace stays a few records per span however hot the loop is.

A leaf entered while another leaf runs is not timed on its own (the sort
keys a compiled join computes while sorting index buckets belong to the
join), so the leaf layers never overlap and a span's self time is its
duration minus its direct child spans and leaf aggregates.
``plan.compile`` is the exception: it is counted wherever it runs, as
information about the leaf that called it, and is never subtracted.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

# One finished record: span id, layer name, op id, parent span id (0 at
# the root), start and end in perf_counter_ns, calls, busy ns.
Record = tuple[int, str, int, int, int, int, int, int]


class NullTracer:
    """The untraced run's tracer: every boundary is a no-op."""

    enabled = False

    def span(self, name: str):
        return nullcontext()

    def begin_op(self, op_id: int) -> None:
        pass


class _Frame:
    __slots__ = ("id", "name", "parent", "start", "leaves")

    def __init__(self, id_: int, name: str, parent: int, start: int):
        self.id = id_
        self.name = name
        self.parent = parent
        self.start = start
        # layer -> [calls, busy_ns, first_start, last_end]
        self.leaves: dict[str, list[int]] = {}


class Tracer:
    """Spans in memory, written out once by :meth:`write`."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.counts: Counter[str] = Counter()
        self.egd_bodies: set[int] = set()
        self.op_id = 0
        self._stack: list[_Frame] = []
        self._next_id = 1
        self._in_leaf = False

    # -- spans ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id

    def _open(self, name: str) -> _Frame:
        parent = self._stack[-1].id if self._stack else 0
        frame = _Frame(self._next_id, name, parent, perf_counter_ns())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> None:
        end = perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        self.records.append((
            frame.id, frame.name, self.op_id, frame.parent, frame.start,
            end, 1, end - frame.start,
        ))
        for name, (calls, busy, first, last) in frame.leaves.items():
            self.records.append((
                self._next_id, name, self.op_id, frame.id, first, last,
                calls, busy,
            ))
            self._next_id += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _add_leaf(
        self, frame: _Frame, name: str, start: int, end: int, call: bool
    ) -> None:
        agg = frame.leaves.get(name)
        if agg is None:
            frame.leaves[name] = [int(call), end - start, start, end]
        else:
            agg[0] += call
            agg[1] += end - start
            agg[3] = end

    # -- wrappers ------------------------------------------------------

    def wrap_span(
        self, name: str, fn: Callable[..., Any],
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_leaf(
        self, name: str, fn: Callable[..., Any],
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._in_leaf or not self._stack:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._in_leaf = False
                self._add_leaf(self._stack[-1], name, start, end, True)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_join(self, fn: Callable[..., Iterator[Any]]) -> Callable[..., Any]:
        """``all_extensions_of`` returns a lazy iterator, so the join's
        time is spent in ``next``: time each resume, not the call.  A
        conjunction that is the body of a registered egd is the egd
        violation scan (``egd.search``); any other is a tgd trigger join."""

        def traced(atoms: Any, *args: Any, **kwargs: Any) -> Any:
            it = fn(atoms, *args, **kwargs)
            if self._in_leaf or not self._stack:
                return it
            name = "egd.search" if id(atoms) in self.egd_bodies else "join"
            return self._timed_iter(name, it)

        return traced

    def _timed_iter(self, name: str, it: Iterator[Any]) -> Iterator[Any]:
        frame = self._stack[-1]
        first = True
        items = 0
        try:
            while True:
                self._in_leaf = True
                start = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    end = perf_counter_ns()
                    self._in_leaf = False
                    self._add_leaf(frame, name, start, end, first)
                    first = False
                items += 1
                yield item
        finally:
            self.counts[name + ".items"] += items
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def wrap_counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count calls and time them, without making them a child of
        anything (``plan.compile``)."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[name + ".calls"] += 1
                self.counts[name + ".ns"] += perf_counter_ns() - start

        return traced

    @contextmanager
    def installed(self, patches: list[tuple[Any, str, Callable[..., Any]]]):
        """Rebind ``module.attr`` to ``make(original)`` for each patch
        while the block runs."""
        originals = []
        try:
            for module, attr, make in patches:
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    # -- results -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per layer: calls, busy ns and self ns, with self time computed
        from the span records (duration minus direct children)."""
        children: Counter[int] = Counter()
        for _id, _name, _op, parent, _s, _e, _calls, busy in self.records:
            if parent:
                children[parent] += busy
        totals: dict[str, dict[str, int]] = {}
        for id_, name, _op, _parent, _s, _e, calls, busy in self.records:
            entry = totals.setdefault(name, {"calls": 0, "busy": 0, "self": 0})
            entry["calls"] += calls
            entry["busy"] += busy
            entry["self"] += busy - children[id_]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "op", "parent", "start_ns", "end_ns",
                  "calls", "busy_ns")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(dict(zip(fields, record))))
                handle.write("\n")


def engine_patches(tracer: Tracer) -> list[tuple[Any, str, Callable[..., Any]]]:
    """The names the traced run rebinds, one per layer boundary."""
    from repro.entailment.trivalent import TriBool

    # By module path: some package __init__ files re-export a function
    # under its module's name (repro.rewriting.rewrite).
    engine, implication, plans, rewrite, deciders = (
        importlib.import_module(f"repro.{name}") for name in (
            "chase.engine", "entailment.implication", "homomorphisms.plans",
            "rewriting.rewrite", "search.deciders",
        )
    )

    def count_reject(satisfied: bool) -> None:
        tracer.counts["activity.rejects"] += bool(satisfied)

    def count_unknown(verdict: object) -> None:
        tracer.counts["entail.unknown"] += verdict is TriBool.UNKNOWN

    def entail(fn: Callable[..., Any]) -> Callable[..., Any]:
        return tracer.wrap_span("entail", fn, count_unknown)

    return [
        (engine, "all_extensions_of", tracer.wrap_join),
        (engine, "satisfies_atoms",
         lambda fn: tracer.wrap_leaf("activity", fn, count_reject)),
        (engine, "element_sort_key", lambda fn: tracer.wrap_leaf("sort", fn)),
        (plans, "compile_plan",
         lambda fn: tracer.wrap_counted("plan.compile", fn)),
        (implication, "chase",
         lambda fn: tracer.wrap_span("entail.chase", fn)),
        (implication, "default_budget",
         lambda fn: tracer.wrap_span("cert", fn)),
        (implication, "entails", entail),
        (rewrite, "entails", entail),
        (deciders, "entails", entail),
    ]
