"""Uniform pass/fail reports produced by every checker in the package.

A report is an ordered, immutable collection of named checks, built once
from a family's checks.  Each check is either required (its failure makes
the whole report fail) or an observation (recorded with a witness but
excluded from the overall verdict; used for identities that are expected to
fail outside special cases).  to_dict is a report's one rendering; the
command line writes its text summary from that.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import AxiomViolationError

__all__ = ["AxiomReport", "Check"]


class Check(NamedTuple):
    """One named flag; immutable, so reports can share it."""

    name: str
    ok: bool
    witness: tuple | None = None
    required: bool = True
    note: str | None = None


@functools.cache
def _passed(name: str, required: bool, note: str | None) -> Check:
    """The one passing check of its name, kind and note, shared by every report."""
    return Check(name, True, None, required, note)


def flag(name: str, mask: np.ndarray, required=True, note=None) -> Check:
    """The check of a law given as a boolean array over its domain; the
    witness is the first index tuple where the mask is False, in row-major
    order."""
    if np.count_nonzero(mask) == mask.size:
        return _passed(name, required, note)
    return Check(name, False, tuple(int(i) for i in np.argwhere(~mask)[0]), required, note)


class AxiomReport:
    """Ordered named checks with an overall verdict over the required ones.

    The checks are given once, at construction, where a repeated name is
    refused and the verdict and first failure are computed; the report can
    then be shared, since nothing changes it.
    """

    __slots__ = ("title", "_checks", "ok", "_first_failure")

    def __init__(self, title: str, checks=()):
        checks = tuple(checks)
        names = set()
        for c in checks:
            if c.name in names:
                raise ValueError(f"duplicate check name: {c.name}")
            names.add(c.name)
        first = next((c for c in checks if c.required and not c.ok), None)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "_checks", checks)
        object.__setattr__(self, "ok", first is None)
        object.__setattr__(self, "_first_failure", first)

    def __setattr__(self, name, value):
        raise AttributeError(f"an AxiomReport cannot be changed (setting {name!r})")

    def renamed(self, prefix: str) -> list[Check]:
        """The checks with prefix before each name; a passing check without a
        witness is the shared one of its new name."""
        return [
            _passed(prefix + c.name, c.required, c.note) if c.ok and c.witness is None
            else c._replace(name=prefix + c.name)
            for c in self._checks
        ]

    def checks(self) -> list[Check]:
        return list(self._checks)

    def __getitem__(self, name: str) -> Check:
        """The check of that name: how a caller reads one law's outcome."""
        for c in self._checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def first_failure(self) -> Check | None:
        return self._first_failure

    def require(self) -> None:
        """Raise AxiomViolationError at the first failing required check."""
        bad = self._first_failure
        if bad is not None:
            raise AxiomViolationError(bad.name, bad.witness)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": {
                c.name: {
                    "ok": c.ok,
                    "witness": list(c.witness) if c.witness is not None else None,
                    "required": c.required,
                    "note": c.note,
                }
                for c in self._checks
            },
        }

    def __repr__(self):
        n_ok = sum(1 for c in self._checks if c.ok)
        return f"<AxiomReport {self.title!r} {n_ok}/{len(self._checks)} ok>"
