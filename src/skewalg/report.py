"""Uniform pass/fail reports produced by every checker in the package.

A report is an ordered collection of named checks.  Each check is either
required (its failure makes the whole report fail) or an observation
(recorded with a witness but excluded from the overall verdict; used for
identities that are expected to fail outside special cases).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import AxiomViolationError


def _py(value):
    """Convert numpy scalars / nested tuples to plain Python for JSON output."""
    if value is None:
        return None
    if isinstance(value, (tuple, list)):
        return tuple(_py(v) for v in value)
    if isinstance(value, str):
        return value
    return int(value)


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


class AxiomReport:
    """Ordered named checks with an overall verdict over the required ones."""

    def __init__(self, title: str, checks=()):
        self.title = title
        self._checks: dict[str, Check] = {}
        for c in checks:
            self.add(c)

    def add(self, check: Check) -> None:
        if check.name in self._checks:
            raise ValueError(f"duplicate check name: {check.name}")
        self._checks[check.name] = check

    def record(self, name, ok, witness=None, required=True, note=None) -> None:
        if ok and witness is None:
            self.add(_passed(name, required, note))
        else:
            self.add(Check(name, bool(ok), _py(witness), required, note))

    def record_mask(self, name, mask: np.ndarray, required=True, note=None) -> None:
        """Record a law given as a boolean array over its domain; the witness
        is the first index tuple where the mask is False, in row-major order."""
        ok = bool(np.count_nonzero(mask) == mask.size)
        witness = None if ok else tuple(int(i) for i in np.argwhere(~mask)[0])
        self.record(name, ok, witness, required, note)

    def extend(self, other: "AxiomReport", prefix: str = "") -> None:
        """Add other's checks, renamed with prefix through record, so that the
        passing ones stay shared; without a prefix the same checks are shared."""
        checks = other._checks
        if prefix:
            renamed = AxiomReport(other.title)
            for c in checks.values():
                renamed.record(prefix + c.name, *c[1:])
            checks = renamed._checks
        if not self._checks.keys().isdisjoint(checks):
            raise ValueError(f"duplicate check name: {next(k for k in checks if k in self._checks)}")
        self._checks.update(checks)

    def copy(self) -> "AxiomReport":
        """A report over the same checks that can be extended on its own."""
        out = AxiomReport(self.title)
        out._checks = dict(self._checks)
        return out

    def checks(self) -> list[Check]:
        return list(self._checks.values())

    def __getitem__(self, name: str) -> Check:
        return self._checks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self._checks.values() if c.required)

    def failures(self) -> list[Check]:
        return [c for c in self._checks.values() if c.required and not c.ok]

    def observations(self) -> list[Check]:
        return [c for c in self._checks.values() if not c.required]

    def first_failure(self) -> Check | None:
        bad = self.failures()
        return bad[0] if bad else None

    def require(self) -> None:
        """Raise AxiomViolationError at the first failing required check."""
        bad = self.first_failure()
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
                for c in self._checks.values()
            },
        }

    def summary(self) -> str:
        lines = [f"{self.title}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self._checks.values():
            mark = "ok " if c.ok else "FAIL"
            tag = "" if c.required else " (observation)"
            extra = f" witness={c.witness}" if (not c.ok and c.witness is not None) else ""
            note = f" [{c.note}]" if c.note else ""
            lines.append(f"  [{mark}] {c.name}{tag}{extra}{note}")
        return "\n".join(lines)

    def __repr__(self):
        n_ok = sum(1 for c in self._checks.values() if c.ok)
        return f"<AxiomReport {self.title!r} {n_ok}/{len(self._checks)} ok>"
