"""Finite binary operation tables and the order structure of skew lattices.

Elements are the integers 0..n-1.  A binary operation is an n x n table in
row-major orientation: table[a][b] is the product of a (left operand) and b
(right operand).  A skew lattice is a pair of idempotent associative tables
(meet, join) satisfying the four absorption identities; its natural preorders
come in left/right flavours because neither operation is assumed commutative.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ElementIndexError
from .report import AxiomReport


def frozen(values) -> np.ndarray:
    """A read-only int64 copy of values.  Structures keep their tables this
    way, so a later write to the caller's array cannot change them."""
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def checked_index(i: int, n: int) -> int:
    """i if it lies in 0..n-1; numpy would read a negative index from the end."""
    if not 0 <= i < n:
        raise ElementIndexError(f"index {i} is outside 0..{n - 1}")
    return i


def _as_table(table) -> np.ndarray:
    arr = frozen(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operation table must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise ValueError("empty operation table")
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError("table entries must lie in 0..n-1")
    return arr


class OperationTable:
    """A total binary operation on {0..n-1}, stored row-major."""

    def __init__(self, table):
        self.array = _as_table(table)
        self.order = self.array.shape[0]

    def __call__(self, a: int, b: int) -> int:
        return int(self.array[checked_index(a, self.order), checked_index(b, self.order)])

    def tolist(self) -> list[list[int]]:
        return self.array.tolist()

    def __eq__(self, other):
        return isinstance(other, OperationTable) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.array.tobytes())

    def __repr__(self):
        return f"OperationTable(order={self.order})"


class SkewLatticeTable:
    """A pair of operation tables (meet, join) on the same carrier."""

    def __init__(self, meet: OperationTable, join: OperationTable):
        if not isinstance(meet, OperationTable):
            meet = OperationTable(meet)
        if not isinstance(join, OperationTable):
            join = OperationTable(join)
        if meet.order != join.order:
            raise ValueError("meet and join must share a carrier")
        self.meet = meet
        self.join = join
        self.order = meet.order

    @functools.cached_property
    def preorders(self) -> PreorderPair:
        """The four natural preorders straight from the definitions,
        unchecked and read-only, computed on first use and then kept."""
        idx = np.arange(self.order)[:, None]
        m, j = self.meet.array, self.join.array
        rels = np.array((m, m.T, j, j.T)) == idx
        rels.setflags(write=False)
        return PreorderPair(*rels)

    def __eq__(self, other):
        return (
            isinstance(other, SkewLatticeTable)
            and self.meet == other.meet
            and self.join == other.join
        )

    def __hash__(self):
        return hash((self.meet, self.join))

    def __repr__(self):
        return f"SkewLatticeTable(order={self.order})"


class GroupTable:
    """A finite group: one total operation with identity and inverses verified."""

    def __init__(self, table):
        self.table = table if isinstance(table, OperationTable) else OperationTable(table)
        self.order = self.table.order
        arr = self.table.array
        if not check_associative(self.table):
            raise ValueError("group table is not associative")
        identity = None
        for e in range(self.order):
            if np.array_equal(arr[e], np.arange(self.order)) and np.array_equal(
                arr[:, e], np.arange(self.order)
            ):
                identity = e
                break
        if identity is None:
            raise ValueError("group table has no identity")
        self.identity = identity
        inverse = np.full(self.order, -1, dtype=np.int64)
        for a in range(self.order):
            hits = np.nonzero(arr[a] == identity)[0]
            if len(hits) != 1 or arr[hits[0], a] != identity:
                raise ValueError(f"element {a} has no two-sided inverse")
            inverse[a] = hits[0]
        self.inverse = frozen(inverse)

    def __call__(self, a: int, b: int) -> int:
        return self.table(a, b)

    def inv(self, a: int) -> int:
        return int(self.inverse[checked_index(a, self.order)])

    def __eq__(self, other):
        return isinstance(other, GroupTable) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"GroupTable(order={self.order})"


@dataclass(frozen=True)
class PreorderPair:
    """The four natural preorders of a skew lattice as boolean matrices.

    le_left[a, b]  <=>  a = a ∧ b        ge_left[a, b]  <=>  a = a ∨ b
    le_right[a, b] <=>  a = b ∧ a        ge_right[a, b] <=>  a = b ∨ a

    A lattice computes its pair once, as SkewLatticeTable.preorders.
    """

    le_left: np.ndarray
    le_right: np.ndarray
    ge_left: np.ndarray
    ge_right: np.ndarray


@dataclass(frozen=True)
class GreensPair:
    """Green's R- and L-classes of an associative table, as sorted partitions."""

    r_classes: tuple[tuple[int, ...], ...]
    l_classes: tuple[tuple[int, ...], ...]
    r_class_of: tuple[int, ...]
    l_class_of: tuple[int, ...]


def padded(core) -> np.ndarray:
    """A read-only copy of core with a -1 border appended along every axis.

    numpy reads index -1 as the last position, so a gather through the
    padded table maps an undefined (-1) index to -1 again and holes flow
    through chained lookups without any masking.
    """
    core = np.asarray(core, dtype=np.int64)
    out = np.full(tuple(k + 1 for k in core.shape), -1, dtype=np.int64)
    out[(slice(-1),) * core.ndim] = core
    out.setflags(write=False)
    return out


def check_associative(t: OperationTable) -> bool:
    """True iff t(t(a,b),c) = t(a,t(b,c)) for all triples."""
    arr = t.array
    return bool(np.array_equal(arr[arr, :], arr[:, arr]))


def associativity_witness(t: OperationTable) -> tuple[int, int, int] | None:
    arr = t.array
    bad = np.argwhere(arr[arr, :] != arr[:, arr])
    if len(bad) == 0:
        return None
    a, b, c = bad[0]
    return int(a), int(b), int(c)


def check_band(t: OperationTable) -> bool:
    """True iff t is an idempotent semigroup."""
    return bool(np.array_equal(np.diag(t.array), np.arange(t.order))) and check_associative(t)


def check_skew_lattice(s: SkewLatticeTable) -> AxiomReport:
    """Check both band structures and the four absorption identities."""
    m, j = s.meet.array, s.join.array
    n = s.order
    idx = np.arange(n)
    col = idx[:, None]
    row = idx[None, :]
    report = AxiomReport("skew lattice")
    for name, t in (("meet", m), ("join", j)):
        report.record_mask(f"{name}_idempotent", np.diag(t) == idx)
        report.record_mask(f"{name}_associative", t[t, :] == t[:, t])
    # a ∨ (a ∧ b) = a
    report.record_mask("absorb_join_meet", j[col, m] == col)
    # a ∧ (a ∨ b) = a
    report.record_mask("absorb_meet_join", m[col, j] == col)
    # (a ∧ b) ∨ b = b
    report.record_mask("absorb_meet_then_join", j[m, row] == row)
    # (a ∨ b) ∧ b = b
    report.record_mask("absorb_join_then_meet", m[j, row] == row)
    return report


def natural_preorders(s: SkewLatticeTable) -> PreorderPair:
    """The four natural preorders; raises if the converse pairing fails.

    In a skew lattice le_left is the converse of ge_right and le_right the
    converse of ge_left; a violation signals the input is not a skew lattice.
    """
    pre = s.preorders
    pairing = AxiomReport("converse pairing")
    pairing.record_mask("le_left is not the converse of ge_right", pre.le_left == pre.ge_right.T)
    pairing.record_mask("le_right is not the converse of ge_left", pre.le_right == pre.ge_left.T)
    bad = pairing.first_failure()
    if bad is not None:
        raise ValueError(f"{bad.name} at {bad.witness}")
    return pre


def right_ideals(op: np.ndarray) -> np.ndarray:
    """member[s, v] = v in sS^1, the principal right ideal of s (identity
    adjoined); rows are equal iff Green's R-related. The transpose of op
    gives the left ideals S^1s."""
    m = op.shape[0]
    member = np.eye(m, dtype=bool)
    np.put_along_axis(member, op, True, axis=1)
    return member


def greens_relations(t: OperationTable) -> GreensPair:
    """Green's R and L partitions via principal one-sided ideals (identity adjoined)."""
    if not check_associative(t):
        raise ValueError(f"greens_relations needs an associative table; witness {associativity_witness(t)}")
    n = t.order

    def partition(ideals):
        keys = {}
        class_of = [0] * n
        for a in range(n):
            key = ideals[a].tobytes()
            keys.setdefault(key, []).append(a)
        classes = sorted(tuple(v) for v in keys.values())
        for i, cls in enumerate(classes):
            for a in cls:
                class_of[a] = i
        return tuple(classes), tuple(class_of)

    r_classes, r_of = partition(right_ideals(t.array))
    l_classes, l_of = partition(right_ideals(t.array.T))
    return GreensPair(r_classes, l_classes, r_of, l_of)


def left_zero(n: int) -> OperationTable:
    """The left-zero band: a * b = a."""
    return OperationTable(np.repeat(np.arange(n)[:, None], n, axis=1))


def right_zero(n: int) -> OperationTable:
    """The right-zero band: a * b = b."""
    return OperationTable(np.repeat(np.arange(n)[None, :], n, axis=0))


def chain_lattice(n: int) -> SkewLatticeTable:
    """The n-element chain 0 < 1 < ... < n-1 as a (commutative) skew
    lattice: meet is min, join is max."""
    idx = np.arange(n)
    return SkewLatticeTable(np.minimum(idx[:, None], idx), np.maximum(idx[:, None], idx))


def rectangular_skew(n: int) -> SkewLatticeTable:
    """The flat skew lattice with left-zero meet and right-zero join."""
    return SkewLatticeTable(left_zero(n), right_zero(n))
