import itertools
import random

import numpy as np
import pytest
from oracles import groupoid_laws, groupoid_units, pair_groupoid_tables

from skewalg import (
    FiniteGroupoid,
    GroupTable,
    MalformedSystemError,
    chain_lattice,
    check_groupoid,
    discrete_system,
    generate_model_suite,
    group_system,
)


def pair_groupoid(n):
    """The pair groupoid on n objects, from the scalar oracle's tables."""
    dom, cod, comp, inv = pair_groupoid_tables(n)
    return FiniteGroupoid(n, dom, cod, np.reshape(comp, (n * n, n * n)), inv)


def test_discrete_groupoid_has_only_identities():
    g = discrete_system(chain_lattice(3)).groupoid
    assert g.morphism_count == 3
    assert check_groupoid(g).ok
    assert list(g.identity_of) == [0, 1, 2]
    for f in range(3):
        assert g.comp[f, f] == f
        assert g.inv[f] == f


def test_group_groupoid_is_one_object_groupoid():
    g = group_system(GroupTable([[0, 1], [1, 0]])).groupoid
    assert g.object_count == 1
    assert g.morphism_count == 2
    assert check_groupoid(g).ok
    assert g.comp[1, 1] == 0


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
        back = g.inv[f]
        assert int(g.dom[back]) == j and int(g.cod[back]) == i
        assert g.comp[f, back] == g.identity_of[i]


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
    g = discrete_system(chain_lattice(2)).groupoid
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


def test_identities_are_derived_on_first_read_and_kept_read_only():
    g = pair_groupoid(2)
    assert "identity_of" not in vars(g)
    units = g.identity_of
    assert units.tolist() == [0, 3] and not units.flags.writeable
    assert g.identity_of is units
    # a suite build derives none: only the checkers read the units
    assert not any("identity_of" in vars(inst.system.groupoid) for inst in generate_model_suite())


def test_no_table_offers_two_units_at_one_object():
    # if e and e' were both units at one object, e then e' would be e' and
    # e at once; checked over every table of two loops at one object
    for cells in itertools.product(range(-1, 2), repeat=4):
        comp = np.reshape(cells, (2, 2)).tolist()
        units = [e for e in range(2) if all(comp[e][f] == f == comp[f][e] for f in range(2))]
        assert len(units) <= 1
        g = FiniteGroupoid(1, [0, 0], [0, 0], comp, [0, 1])
        assert g.identity_of.tolist() == groupoid_units(1, [0, 0], [0, 0], comp) == (units or [-1])


def test_groupoid_laws_match_scalar_oracle_on_suite_and_mutants(suite):
    # witnesses included: the first failing tuple in row-major order; the
    # suite's groupoids and the pair groupoids on 0..5 objects pass
    rng = random.Random(1810)
    named = [(inst.name, inst.system.groupoid) for inst in suite]
    for name, g in named + [(f"pair {n}", pair_groupoid(n)) for n in range(6)]:
        assert check_groupoid(g).ok, name
        m = g.morphism_count
        variants = [g]
        for _ in range(3 if m else 0):
            comp, inv = g.comp.copy(), g.inv.copy()
            if rng.random() < 0.7:
                comp[rng.randrange(m), rng.randrange(m)] = rng.randrange(-1, m)
            else:
                inv[rng.randrange(m)] = rng.randrange(m)
            variants.append(FiniteGroupoid(g.object_count, g.dom, g.cod, comp, inv))
        for h in variants:
            n, dom, cod = h.object_count, h.dom.tolist(), h.cod.tolist()
            comp, inv = h.comp.tolist(), h.inv.tolist()
            assert h.identity_of.tolist() == groupoid_units(n, dom, cod, comp), name
            assert check_groupoid(h).to_dict() == groupoid_laws(n, dom, cod, comp, inv), name
