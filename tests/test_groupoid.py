import random

import numpy as np
import pytest
from oracles import groupoid_laws, groupoid_units

from skewalg import (
    FiniteGroupoid,
    GroupTable,
    MalformedSystemError,
    UndefinedCompositionError,
    check_groupoid,
    discrete_groupoid,
    group_groupoid,
    pair_groupoid,
)


def test_discrete_groupoid_has_only_identities():
    g = discrete_groupoid(3)
    assert g.morphism_count == 3
    assert check_groupoid(g).ok
    assert list(g.identity_of) == [0, 1, 2]
    for f in range(3):
        assert g.compose(f, f) == f
        assert g.invert(f) == f


def test_group_groupoid_is_one_object_groupoid():
    g = group_groupoid(GroupTable([[0, 1], [1, 0]]))
    assert g.object_count == 1
    assert g.morphism_count == 2
    assert check_groupoid(g).ok
    assert g.compose(1, 1) == 0


def test_pair_groupoid_composition_and_inverse():
    # morphisms are ordered pairs (i, j), composing when endpoints meet
    g = pair_groupoid(3)
    assert g.object_count == 3
    assert g.morphism_count == 9
    assert check_groupoid(g).ok
    report = check_groupoid(g)
    assert report["associativity"].ok
    for f in range(9):
        i, j = int(g.dom[f]), int(g.cod[f])
        back = g.invert(f)
        assert int(g.dom[back]) == j and int(g.cod[back]) == i
        assert g.compose(f, back) == g.identity_of[i]


def test_composition_outside_pattern_raises():
    g = discrete_groupoid(2)
    with pytest.raises(UndefinedCompositionError):
        g.compose(0, 1)


def test_mismatched_table_shapes_are_rejected():
    with pytest.raises(MalformedSystemError):
        FiniteGroupoid(1, [0, 0], [0], [[0, -1], [-1, 1]], [0, 1])


def test_out_of_range_entries_are_rejected():
    with pytest.raises(MalformedSystemError):
        FiniteGroupoid(1, [0], [2], [[0]], [0])


def test_check_groupoid_flags_broken_inverse():
    # two objects, two crossing arrows wired as their own inverses
    g = FiniteGroupoid(
        2,
        dom=[0, 1, 0, 1],
        cod=[0, 1, 1, 0],
        comp=[
            [0, -1, 2, -1],
            [-1, 1, -1, 3],
            [-1, 2, -1, 0],
            [3, -1, 1, -1],
        ],
        inv=[0, 1, 2, 3],
    )
    report = check_groupoid(g)
    assert not report.ok
    assert not report["inverse_laws"].ok


def test_check_groupoid_flags_wrong_composition_pattern():
    g = discrete_groupoid(2)
    comp = g.comp.copy()
    comp[0, 1] = 1  # composing across distinct objects must stay undefined
    broken = FiniteGroupoid(2, g.dom, g.cod, comp, g.inv)
    assert not check_groupoid(broken)["composition_pattern"].ok


def test_identity_of_reports_missing_units():
    # delete object 1's identity behaviour by rewiring composition
    g = FiniteGroupoid(2, [0, 1], [0, 1], [[0, -1], [-1, 0]], [0, 1])
    assert g.identity_of[0] == 0
    assert g.identity_of[1] == -1
    assert not check_groupoid(g).ok


def test_groupoid_laws_match_scalar_oracle_on_suite_and_mutants(suite):
    # witnesses included: the first failing tuple in row-major order
    rng = random.Random(1810)
    for inst in suite:
        g = inst.system.groupoid
        m = g.morphism_count
        variants = [g]
        for _ in range(3):
            comp, inv = g.comp.copy(), g.inv.copy()
            if rng.random() < 0.7:
                comp[rng.randrange(m), rng.randrange(m)] = rng.randrange(-1, m)
            else:
                inv[rng.randrange(m)] = rng.randrange(m)
            variants.append(FiniteGroupoid(g.object_count, g.dom, g.cod, comp, inv))
        for h in variants:
            n, dom, cod = h.object_count, h.dom.tolist(), h.cod.tolist()
            comp, inv = h.comp.tolist(), h.inv.tolist()
            assert h.identity_of.tolist() == groupoid_units(n, dom, cod, comp), inst.name
            assert check_groupoid(h).to_dict() == groupoid_laws(n, dom, cod, comp, inv), inst.name
