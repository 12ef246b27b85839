"""Mutable chase working state backed by a :class:`ColumnarStore`.

:class:`ColumnarState` is the ``backend="columnar"`` drop-in for the
chase engine's object-level ``_State``: the same attributes
(``schema`` / ``domain`` / ``relations`` / ``epoch`` / ``log`` /
``log_marks``), the same probe interface (``tuples`` / ``tuples_with``
and the sorted views), the same mutation protocol (``add`` /
``merge``).  The engine never branches on the backend — it just
constructs a different state class.

The object-level fact sets are kept alongside the store: ``tuples``
returns the same ``set`` objects the reference backend would, so the
interpreted matcher and the engine's bookkeeping behave identically,
while the compiled matcher discovers the store through
:meth:`columnar_kernel` and runs at ID level.  Facts are dual-written
(a set add plus an O(arity) column append).  The store is append-only,
so an egd merge rebuilds it from the rewritten fact sets, re-interning
the surviving elements in canonical order so value IDs stay
deterministic.  The log is kept across a merge: the merge appends the
rewritten facts it creates exactly as the reference backend does, so
both backends share one delta protocol and their counters stay in
parity.
"""

from __future__ import annotations

from ..chase.engine import _rewrite_mentions
from ..instances.instance import Instance
from ..lang.schema import Relation, Schema
from ..lang.terms import element_sort_key
from ..stats.relation import RelationStats
from .store import ColumnarStore

__all__ = ["ColumnarState"]


class ColumnarState:
    """Chase working state whose probe hot path is a columnar store.

    ``log_input`` logs the input facts in canonical order, as the
    reference backend does, for a chunked first sweep to slice."""

    def __init__(
        self, instance: Instance, schema: Schema, log_input: bool = False
    ) -> None:
        self.schema = schema
        self.domain: set[object] = set(instance.domain)
        self.relations: dict[Relation, set[tuple[object, ...]]] = {
            rel: set(
                instance.tuples(rel.name)
                if rel.name in instance.schema
                else ()
            )
            for rel in schema
        }
        self.epoch = 0
        self.log: list[tuple[Relation, tuple[object, ...]]] = []
        self.log_marks: dict[Relation, int] = {}
        kernel = instance.columnar_kernel()
        if kernel is not None:
            # The instance already carries an interned kernel: bootstrap
            # by C-level clone (extended to the combined schema) instead
            # of re-interning every fact.  Value IDs and row order then
            # follow the kernel's build order rather than the combined
            # schema's — an unobservable difference, since every output
            # and counter depends only on element identity, bucket sizes
            # and the absolute sort keys.
            self.store = kernel.clone(self.relations)
        else:
            self._rebuild()
        if log_input:
            for rel, tuples in self.relations.items():
                if tuples:
                    self.log.extend(
                        (rel, tup)
                        for tup in sorted(tuples, key=element_sort_key)
                    )
                    self.log_marks[rel] = len(self.log)

    def _rebuild(self) -> None:
        """Re-intern and re-append everything from the relation sets.

        Facts enter the store per relation in canonical element order
        (and relations in schema order), so the dense value IDs — and
        with them every sorted row view — are a pure function of the
        fact sets, independent of set-iteration order.
        """
        store = ColumnarStore(self.relations)
        for rel, tuples in self.relations.items():
            for tup in sorted(tuples, key=element_sort_key):
                store.append(rel, tup)
        self.store = store

    def columnar_kernel(self) -> ColumnarStore:
        """The live store — the hook the compiled search dispatches on."""
        return self.store

    # -- Instance-compatible probe interface ---------------------------

    def tuples(self, relation: Relation) -> set[tuple[object, ...]]:
        return self.relations[relation]

    def tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> tuple[tuple[object, ...], ...]:
        return self.store.tuples_with(relation, position, element)

    def relation_stats(self, relation: Relation) -> RelationStats:
        """The store's incrementally maintained statistics snapshot."""
        return self.store.relation_stats(relation)

    def sorted_tuples(
        self, relation: Relation
    ) -> tuple[tuple[object, ...], ...]:
        return self.store.sorted_tuples(relation)

    def sorted_tuples_with(
        self, relation: Relation, position: int, element: object
    ) -> tuple[tuple[object, ...], ...]:
        return self.store.sorted_tuples_with(relation, position, element)

    # -- mutation ------------------------------------------------------

    def snapshot(self) -> Instance:
        return Instance(
            self.schema, self.domain, self.relations, backend="columnar"
        )

    def fact_count(self) -> int:
        return sum(len(tuples) for tuples in self.relations.values())

    def add(self, relation: Relation, tup: tuple[object, ...]) -> bool:
        self.domain.update(tup)
        tuples = self.relations[relation]
        if tup in tuples:
            return False
        tuples.add(tup)
        self.epoch += 1
        self.store.append(relation, tup)
        log = self.log
        log.append((relation, tup))
        self.log_marks[relation] = len(log)
        return True

    def merge(self, keep: object, drop: object) -> None:
        """Replace ``drop`` by ``keep`` everywhere: rewrite the facts
        that mention ``drop``, log the new rewrites in canonical order,
        and rebuild the store."""
        self.domain.discard(drop)
        self.domain.add(keep)
        self.epoch += 1
        log = self.log
        for rel, hits, renamed in _rewrite_mentions(self, keep, drop):
            tuples = self.relations[rel]
            tuples.difference_update(hits)
            for tup in renamed:
                if tup not in tuples:
                    tuples.add(tup)
                    log.append((rel, tup))
                    self.log_marks[rel] = len(log)
        self._rebuild()
