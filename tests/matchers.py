"""Run the production entry points on the reference matcher.

:mod:`repro.homomorphisms.reference` is the interpreted search the
compiled join plans were derived from; no module of the package
imports it.  Every search — query matching, instance homomorphisms,
and each chase, entailment or certificate built on them — goes through
one private point, ``repro.homomorphisms.search._match``.  Tests put
the oracle there with pytest's ``monkeypatch`` and compare the two
runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.homomorphisms import reference, search

MATCHERS = ("interpreted", "compiled")
"""Test labels: the reference interpreter and the production plans."""


def substitute(monkeypatch: pytest.MonkeyPatch, matcher: str) -> None:
    """Make every search run ``matcher`` until ``monkeypatch`` undoes."""
    if matcher == "interpreted":
        monkeypatch.setattr(search, "_match", reference.match)
    else:
        assert matcher == "compiled", matcher


@contextmanager
def matching(matcher: str) -> Iterator[None]:
    """:func:`substitute` for the duration of a ``with`` block."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        substitute(monkeypatch, matcher)
        yield
