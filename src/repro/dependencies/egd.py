"""Equality-generating dependencies (egds).

An egd is ``∀x̄ (φ(x̄) → x_i = x_j)`` with a non-empty, constant-free body
and ``x_i, x_j`` body variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from ..homomorphisms.search import all_extensions_of
from ..instances.instance import Instance
from ..lang.atoms import Atom, atoms_variables
from ..lang.schema import Relation, Schema
from ..lang.terms import Var
from .tgd import DependencyError, _align

__all__ = ["EGD", "KeyShape"]


class KeyShape(NamedTuple):
    """A functional dependency ``R: key_positions → value_position``,
    as recognised by :attr:`EGD.key_shape`."""

    relation: Relation
    key_positions: tuple[int, ...]
    value_position: int


@dataclass(frozen=True)
class EGD:
    """An immutable egd ``body → lhs = rhs``."""

    body: tuple[Atom, ...]
    lhs: Var
    rhs: Var

    def __init__(self, body: Iterable[Atom], lhs: Var, rhs: Var):
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        if not self.body:
            raise DependencyError("an egd body must be non-empty")
        body_vars = set(atoms_variables(self.body))
        for var in (lhs, rhs):
            if var not in body_vars:
                raise DependencyError(
                    f"egd equality variable {var} must occur in the body"
                )
        for atom in self.body:
            if atom.constants():
                raise DependencyError(f"egds are constant-free: {atom}")

    @cached_property
    def universal_variables(self) -> tuple[Var, ...]:
        return atoms_variables(self.body)

    @cached_property
    def key_shape(self) -> KeyShape | None:
        """The functional dependency this egd states, if it is shaped
        like one: ``R(x̄, y, ū), R(x̄, z, v̄) → y = z`` up to argument
        order, where both atoms are over one relation, each atom's
        arguments are pairwise-distinct variables, the shared variables
        x̄ (at least one) sit at the same *key* positions in both atoms,
        and ``lhs``/``rhs`` (either way round) sit at one non-key
        position.  ``None`` for every other egd.

        Such an egd is violated exactly by two facts of ``R`` that agree
        on the key positions and differ at the value position, which
        lets the chase check it per key group of the positional index
        (see :func:`repro.chase.engine._chase_egd`)."""
        if len(self.body) != 2 or self.lhs == self.rhs:
            return None
        first, second = self.body
        if first.relation != second.relation:
            return None
        for atom in self.body:
            if len(set(atom.args)) != len(atom.args):
                return None
        shared = set(first.args) & set(second.args)
        keys = tuple(
            pos for pos, arg in enumerate(first.args) if arg in shared
        )
        if not keys or any(first.args[pos] != second.args[pos] for pos in keys):
            return None
        pair = {self.lhs, self.rhs}
        for pos, arg in enumerate(first.args):
            if pos not in keys and {arg, second.args[pos]} == pair:
                return KeyShape(first.relation, keys, pos)
        return None

    @property
    def width(self) -> tuple[int, int]:
        return (len(self.universal_variables), 0)

    @property
    def is_trivial(self) -> bool:
        """``... → x = x`` — satisfied by every instance."""
        return self.lhs == self.rhs

    @property
    def schema(self) -> Schema:
        return Schema(atom.relation for atom in self.body)

    def satisfied_by(self, instance: Instance) -> bool:
        if self.is_trivial:
            return True
        inst = _align(instance, self.schema)
        return all(
            trigger[self.lhs] == trigger[self.rhs]
            for trigger in all_extensions_of(self.body, inst)
        )

    def violations(self, instance: Instance) -> list[Mapping[Var, object]]:
        if self.is_trivial:
            return []
        inst = _align(instance, self.schema)
        return [
            trigger
            for trigger in all_extensions_of(self.body, inst)
            if trigger[self.lhs] != trigger[self.rhs]
        ]

    def as_edd(self):
        """The egd viewed as a single-disjunct edd."""
        from .edd import EDD, EqualityDisjunct

        return EDD(self.body, (EqualityDisjunct(self.lhs, self.rhs),))

    def substitute(self, mapping: Mapping[Var, Var]) -> "EGD":
        return EGD(
            tuple(a.substitute(mapping) for a in self.body),
            mapping.get(self.lhs, self.lhs),
            mapping.get(self.rhs, self.rhs),
        )

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.body)
        return f"{body} -> {self.lhs} = {self.rhs}".replace("?", "")

    def __repr__(self) -> str:
        return f"EGD<{self}>"
