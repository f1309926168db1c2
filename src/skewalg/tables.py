"""Finite binary operation tables and the order structure of skew lattices.

Elements are the integers 0..n-1.  A binary operation is an n x n table in
row-major orientation: table[a][b] is the product of a (left operand) and b
(right operand).  A skew lattice is a pair of idempotent associative tables
(meet, join) satisfying the four absorption identities; its natural preorders
come in left/right flavours because neither operation is assumed commutative.
Structures compare by value through one private base, _ByValue.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ElementIndexError
from .report import AxiomReport, flag

__all__ = [
    "GroupTable",
    "OperationTable",
    "SkewLatticeTable",
    "associativity_witness",
    "chain_lattice",
    "check_band",
    "check_skew_lattice",
    "greens_relations",
    "left_zero",
    "rectangular_skew",
    "right_zero",
]


def frozen(values) -> np.ndarray:
    """A read-only int64 copy of values.  Structures keep their tables this
    way, so a later write to the caller's array cannot change them."""
    arr = np.array(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def checked_index(i: int, n: int) -> int:
    """i as an int if it is an integer in 0..n-1; numpy would read a
    negative index from the end, a bool as a mask and a float as its own
    IndexError."""
    if isinstance(i, (bool, np.bool_)) or not hasattr(type(i), "__index__"):
        raise ElementIndexError(f"index {i!r} is not an integer")
    i = operator.index(i)
    if not 0 <= i < n:
        raise ElementIndexError(f"index {i} is outside 0..{n - 1}")
    return i


def out_of_range(arr: np.ndarray, lo: int, hi: int) -> bool:
    """True iff some entry of arr lies outside lo..hi-1; an empty arr has none."""
    return bool(arr.size) and bool(arr.min() < lo or arr.max() >= hi)


def _as_table(table) -> np.ndarray:
    arr = frozen(table)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operation table must be square, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        raise ValueError("empty operation table")
    if out_of_range(arr, 0, n):
        raise ValueError("table entries must lie in 0..n-1")
    return arr


class _ByValue:
    """Structure equality by value: two structures are equal when their
    classes read the same _values and each pair of values is array-equal;
    any other pair is left to the other operand, and so to identity.  No
    code keys anything by a structure, so none is hashable.  Each __repr__
    gives the class and size only, so a message never prints a table."""

    __hash__ = None

    def __eq__(self, other):
        if type(self)._values is not getattr(type(other), "_values", None):
            return NotImplemented
        return all(map(np.array_equal, self._values(), other._values()))


class OperationTable(_ByValue):
    """A total binary operation on {0..n-1}, stored row-major."""

    def __init__(self, table):
        self.array = _as_table(table)
        self.order = self.array.shape[0]

    def __call__(self, a: int, b: int) -> int:
        return int(self.array[checked_index(a, self.order), checked_index(b, self.order)])

    def tolist(self) -> list[list[int]]:
        return self.array.tolist()

    def _values(self):
        return (self.array,)

    def __repr__(self):
        return f"OperationTable(order={self.order})"


class SkewLatticeTable(_ByValue):
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

    def _values(self):
        return self.meet.array, self.join.array

    def __repr__(self):
        return f"SkewLatticeTable(order={self.order})"


class GroupTable(_ByValue):
    """A finite group: one total operation with identity and inverses verified."""

    def __init__(self, table):
        self.table = table if isinstance(table, OperationTable) else OperationTable(table)
        self.order = self.table.order
        arr = self.table.array
        if associativity_witness(self.table) is not None:
            raise ValueError("group table is not associative")
        idx = np.arange(self.order)
        neutral = np.flatnonzero((arr == idx).all(axis=1) & (arr.T == idx).all(axis=1))
        if not neutral.size:
            raise ValueError("group table has no identity")
        self.identity = identity = int(neutral[0])
        # hits[a, x]: a·x = e; the inverse of a is its one hit x, with x·a = e too
        hits = arr == identity
        inverse = hits.argmax(axis=1)
        bad = np.flatnonzero((hits.sum(axis=1) != 1) | (arr[inverse, idx] != identity))
        if bad.size:
            raise ValueError(f"element {bad[0]} has no two-sided inverse")
        self.inverse = frozen(inverse)

    def _values(self):
        return (self.table.array,)

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

    Indexing and ndarray.take read index -1 as the last position, so a
    gather from the padded table maps an undefined (-1) index to -1 again
    and holes flow through chained lookups without any masking.
    """
    core = np.asarray(core, dtype=np.int64)
    out = np.full(tuple(k + 1 for k in core.shape), -1, dtype=np.int64)
    out[(slice(-1),) * core.ndim] = core
    out.setflags(write=False)
    return out


def equal(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs == rhs with lhs defined: a hole (-1) that a padded gather leaves
    never satisfies a law."""
    return (lhs == rhs) & (lhs >= 0)


def associativity_witness(t: OperationTable) -> tuple[int, int, int] | None:
    """The first (a, b, c) in row-major order with (ab)c ≠ a(bc), else None."""
    arr = t.array
    return flag("associative", arr.take(arr, 0) == arr.take(arr, 1)).witness


def check_band(t: OperationTable) -> bool:
    """True iff t is an idempotent semigroup."""
    return bool(np.array_equal(t.array.diagonal(), np.arange(t.order))) and associativity_witness(t) is None


def check_skew_lattice(s: SkewLatticeTable) -> AxiomReport:
    """Check both band structures and the four absorption identities."""
    m, j = s.meet.array, s.join.array
    n = s.order
    idx = np.arange(n)
    col = idx[:, None]
    row = idx[None, :]
    checks = []
    for name, t in (("meet", m), ("join", j)):
        checks.append(flag(f"{name}_idempotent", t.diagonal() == idx))
        checks.append(flag(f"{name}_associative", t.take(t, 0) == t.take(t, 1)))
    # a ∨ (a ∧ b) = a
    checks.append(flag("absorb_join_meet", j[col, m] == col))
    # a ∧ (a ∨ b) = a
    checks.append(flag("absorb_meet_join", m[col, j] == col))
    # (a ∧ b) ∨ b = b
    checks.append(flag("absorb_meet_then_join", j[m, row] == row))
    # (a ∨ b) ∧ b = b
    checks.append(flag("absorb_join_then_meet", m[j, row] == row))
    return AxiomReport("skew lattice", checks)


def right_ideals(op: np.ndarray) -> np.ndarray:
    """member[s, v] = v in sS^1, the principal right ideal of s (identity
    adjoined); rows are equal iff Green's R-related. The transpose of op
    gives the left ideals S^1s."""
    m = op.shape[0]
    member = np.eye(m, dtype=bool)
    np.put_along_axis(member, op, True, axis=1)
    return member


def greens_r(op: np.ndarray) -> np.ndarray:
    """rel[s, t]: s R t, their principal right ideals sS^1 and tS^1 equal."""
    member = right_ideals(op)
    return (member[:, None, :] == member[None, :, :]).all(axis=2)


def greens_l(op: np.ndarray) -> np.ndarray:
    """rel[s, t]: s L t, their principal left ideals S^1s and S^1t equal."""
    return greens_r(op.T)


def greens_relations(t: OperationTable) -> GreensPair:
    """Green's R and L partitions, each class numbered by the rank of its
    least member."""
    witness = associativity_witness(t)
    if witness is not None:
        raise ValueError(f"greens_relations needs an associative table; witness {witness}")

    def partition(rel):
        # a row's first True is the least member of its class
        least, class_of = np.unique(rel.argmax(axis=1), return_inverse=True)
        return tuple(tuple(np.flatnonzero(rel[a]).tolist()) for a in least), tuple(class_of.tolist())

    r_classes, r_of = partition(greens_r(t.array))
    l_classes, l_of = partition(greens_l(t.array))
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
