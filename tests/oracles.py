"""Independent brute-force oracles the tests freeze their numbers against.

Everything here works on plain nested lists and tuples with scalar loops,
deliberately sharing no table machinery with the package: counts and
witnesses produced by these functions are what the library must reproduce.
"""

from itertools import permutations, product


def idempotent_tables(n):
    """Every n x n table with x*x = x, as tuples of row tuples."""
    cells = [(i, j) for i in range(n) for j in range(n) if i != j]
    for values in product(range(n), repeat=len(cells)):
        table = [[i] * n for i in range(n)]
        for (i, j), v in zip(cells, values):
            table[i][j] = v
        yield tuple(tuple(row) for row in table)


def is_associative(table):
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def brute_force_bands(n):
    """All labeled idempotent associative tables of order n."""
    return [t for t in idempotent_tables(n) if is_associative(t)]


def relabel(table, perm):
    n = len(table)
    inverse = [0] * n
    for i, p in enumerate(perm):
        inverse[p] = i
    return tuple(
        tuple(perm[table[inverse[i]][inverse[j]]] for j in range(n))
        for i in range(n)
    )


def relabel_unary(u, perm):
    inverse = [0] * len(u)
    for i, p in enumerate(perm):
        inverse[p] = i
    return tuple(perm[u[inverse[i]]] for i in range(len(u)))


def least_relabelling(n, binops, unops=()):
    """The least relabelling of the tables over all permutations of
    range(n), flattened into one tuple: the binary tables row-major, then
    the unary maps."""
    best = None
    for perm in permutations(range(n)):
        key = tuple(v for t in binops for row in relabel(t, perm) for v in row)
        key += tuple(v for u in unops for v in relabel_unary(u, perm))
        if best is None or key < best:
            best = key
    return best


def count_classes(tables):
    """Number of isomorphism classes, by explicit permutation orbits."""
    if not tables:
        return 0
    n = len(tables[0])
    seen = set()
    classes = 0
    for t in tables:
        if t in seen:
            continue
        classes += 1
        for perm in permutations(range(n)):
            seen.add(relabel(t, perm))
    return classes


def absorption_holds(meet, join):
    n = len(meet)
    for a in range(n):
        for b in range(n):
            if join[a][meet[a][b]] != a:
                return False
            if meet[a][join[a][b]] != a:
                return False
            if join[meet[a][b]][b] != b:
                return False
            if meet[join[a][b]][b] != b:
                return False
    return True


def brute_force_skew_lattices(n):
    """All labeled (meet, join) band pairs satisfying the absorption laws."""
    bands = brute_force_bands(n)
    return [
        (m, j) for m in bands for j in bands if absorption_holds(m, j)
    ]


def count_skew_classes(pairs):
    """Isomorphism classes of skew lattices, one permutation on both tables."""
    if not pairs:
        return 0
    n = len(pairs[0][0])
    seen = set()
    classes = 0
    for m, j in pairs:
        if (m, j) in seen:
            continue
        classes += 1
        for perm in permutations(range(n)):
            seen.add((relabel(m, perm), relabel(j, perm)))
    return classes


def associativity_ok(t, a, b, n):
    """Partial associativity test after cell (a, b) of t was filled.

    Checks every triple whose evaluation touches cell (a, b) and whose
    intermediate products are all already decided (-1 means undecided):
    (a, b, z) and (x, a, b) for every x and z, then (x, y, b) with xy = a
    and (a, y, z) with yz = b, each of the last two with ab on one side.
    That is at most 2n + 2n² triples, read from the rows, instead of a scan
    of all n³.
    """
    ab = t[a][b]
    if ab < 0:
        return True  # every such triple reads the undecided cell (a, b)
    row_a, row_b, row_ab = t[a], t[b], t[ab]
    for z in range(n):  # (ab)z against a(bz)
        bz = row_b[z]
        if bz >= 0:
            left, right = row_ab[z], row_a[bz]
            if left != right and left >= 0 and right >= 0:
                return False
    for row_x in t:  # (xa)b against x(ab)
        xa = row_x[a]
        if xa >= 0:
            left, right = t[xa][b], row_x[ab]
            if left != right and left >= 0 and right >= 0:
                return False
    for row_x in t:  # (xy)b = ab against x(yb), where xy = a
        for y, xy in enumerate(row_x):
            if xy == a and t[y][b] >= 0:
                right = row_x[t[y][b]]
                if right != ab and right >= 0:
                    return False
    for y, row_y in enumerate(t):  # (ay)z against a(yz) = ab, where yz = b
        ay = row_a[y]
        if ay >= 0:
            for z, yz in enumerate(row_y):
                if yz == b:
                    left = t[ay][z]
                    if left != ab and left >= 0:
                        return False
    return True


def fill_tables(n, candidates):
    """Every table on range(n) whose cells, the diagonal included, filled
    depth first in row-major order, take their values from candidates(a, b)
    and pass associativity_ok after each cell."""
    t = [[-1] * n for _ in range(n)]
    cells = [(a, b) for a in range(n) for b in range(n)]
    out = []

    def fill(k):
        if k == len(cells):
            out.append([row[:] for row in t])
            return
        a, b = cells[k]
        for v in candidates(a, b):
            t[a][b] = v
            if associativity_ok(t, a, b, n):
                fill(k + 1)
        t[a][b] = -1

    fill(0)
    return out


def fill_roots(allowed):
    """(root, table) for each root of a nested-list mask allowed[r][a][b][v],
    in root order, each root's tables by fill_tables over its mask."""
    n = len(allowed[0])
    return [
        (r, table)
        for r, mask in enumerate(allowed)
        for table in fill_tables(n, lambda a, b: [v for v in range(n) if mask[a][b][v]])
    ]


def join_candidates(meet):
    """candidates(a, b) for the joins over a band meet: the v with a∧v = a
    and v∧b = b, with cells (a, a∧b) and (a∧b, b) narrowed to the one value
    that a∨(a∧b) = a and (a∧b)∨b = b fix (two fixes can leave none)."""
    n = len(meet)
    cells = [(a, b) for a in range(n) for b in range(n)]
    fits = {
        (a, b): [v for v in range(n) if meet[a][v] == a and meet[v][b] == b]
        for a, b in cells
    }
    for a, b in cells:
        m = meet[a][b]
        for cell, fixed in (((a, m), a), ((m, b), b)):
            fits[cell] = [v for v in fits[cell] if v == fixed]
    return lambda a, b: fits[a, b]


class PairOracle:
    """Scalar arithmetic on explicit (u, a) pairs for a group acting on a
    band pair; the yardstick for every semidirect construction."""

    def __init__(self, group, meet, join, act):
        self.group = [list(r) for r in group]
        self.meet = [list(r) for r in meet]
        self.join = [list(r) for r in join]
        self.act = [list(r) for r in act]
        n = len(self.group)
        self.identity = next(
            e for e in range(n)
            if all(self.group[e][x] == x and self.group[x][e] == x for x in range(n))
        )
        self.inv = [
            next(y for y in range(n) if self.group[x][y] == self.identity)
            for x in range(n)
        ]

    def pairs(self):
        return [
            (u, a) for u in range(len(self.group)) for a in range(len(self.meet))
        ]

    def mul(self, s, t, op):
        # (u,a)(v,b) = (uv, a^v . b)
        (u, a), (v, b) = s, t
        return (self.group[u][v], op[self.act[a][v]][b])

    def wedge(self, s, t):
        return self.mul(s, t, self.meet)

    def vee(self, s, t):
        return self.mul(s, t, self.join)

    def star(self, s):
        u, a = s
        w = self.inv[u]
        return (w, self.act[a][w])


def automorphism_perms(tables, n):
    """All permutations of range(n) preserving every table in the list."""
    out = []
    for perm in permutations(range(n)):
        if all(relabel(t, perm) == t for t in tables):
            out.append(perm)
    return out


def brute_force_action_maps(group, identity, meet, join):
    """Every right action of the group on the band pair, found by assigning
    a band automorphism to each group element and filtering the
    anti-homomorphism law directly; returns action tables act[a][u]."""
    ng, nb = len(group), len(meet)
    auts = automorphism_perms([tuple(tuple(r) for r in meet),
                               tuple(tuple(r) for r in join)], nb)
    ident = tuple(range(nb))
    out = []
    for assign in product(range(len(auts)), repeat=ng):
        f = [auts[k] for k in assign]
        if f[identity] != ident:
            continue
        # a^{uv} = (a^u)^v means f(uv) = f(v) after f(u)
        if any(
            f[group[u][v]] != tuple(f[v][f[u][a]] for a in range(nb))
            for u in range(ng)
            for v in range(ng)
        ):
            continue
        out.append(tuple(tuple(f[u][a] for u in range(ng)) for a in range(nb)))
    return out


def orbit_representatives(actions, group, meet, join):
    """The first action of each equivalence class under relabeling the
    group by one of its automorphisms and the band by one of its
    automorphisms, in the order given."""
    if not actions:
        return []
    ng, nb = len(group), len(meet)
    gauts = automorphism_perms([tuple(tuple(r) for r in group)], ng)
    bauts = automorphism_perms(
        [tuple(tuple(r) for r in meet), tuple(tuple(r) for r in join)], nb
    )
    seen = set()
    firsts = []
    for act in actions:
        if act in seen:
            continue
        firsts.append(act)
        for tau in gauts:
            for sigma in bauts:
                sigma_inv = [0] * nb
                for i, p in enumerate(sigma):
                    sigma_inv[p] = i
                moved = tuple(
                    tuple(sigma_inv[act[sigma[a]][tau[u]]] for u in range(ng))
                    for a in range(nb)
                )
                seen.add(moved)
    return firsts


def action_orbit_count(actions, group, meet, join):
    """Equivalence classes of actions under relabeling the group by one of
    its automorphisms and the band by one of its automorphisms."""
    return len(orbit_representatives(actions, group, meet, join))


def action_law_witnesses(act, group, identity, meet, join):
    """The first failing index tuple of each action law on the table
    act[a][u], in row-major order, or None where the law holds: a^e = a
    over (a,), a^{uv} = (a^u)^v over (a, u, v), and preservation of meet,
    then join, over (a, b, u)."""
    ng, nb = len(group), len(meet)
    cells = [(a, b, u) for a in range(nb) for b in range(nb) for u in range(ng)]
    return {
        "identity_action": next(((a,) for a in range(nb) if act[a][identity] != a), None),
        "composition_action": next(
            (
                (a, u, v)
                for a in range(nb) for u in range(ng) for v in range(ng)
                if act[act[a][u]][v] != act[a][group[u][v]]
            ),
            None,
        ),
        "automorphism_meet": next(
            ((a, b, u) for a, b, u in cells if act[meet[a][b]][u] != meet[act[a][u]][act[b][u]]),
            None,
        ),
        "automorphism_join": next(
            ((a, b, u) for a, b, u in cells if act[join[a][b]][u] != join[act[a][u]][act[b][u]]),
            None,
        ),
    }


def enumerate_actions_loop(group, identity, meet, join, perms, gens, words):
    """Every candidate table one at a time: each assignment of a permutation
    in perms to each generator, in itertools.product order, folded along
    the generator words (element -> tuple of generators, with the
    generating set taken from the caller so the candidate order matches),
    and kept when no action law has a witness."""
    ng, nb = len(group), len(meet)
    kept = []
    for assignment in product(range(len(perms)), repeat=len(gens)):
        chosen = dict(zip(gens, (perms[k] for k in assignment)))
        columns = []
        for u in range(ng):
            perm = tuple(range(nb))
            for g in words[u]:
                perm = tuple(chosen[g][perm[a]] for a in range(nb))
            columns.append(perm)
        act = tuple(tuple(columns[u][a] for u in range(ng)) for a in range(nb))
        if not any(action_law_witnesses(act, group, identity, meet, join).values()):
            kept.append(act)
    return kept


def _first(bad, *sizes):
    """The first index tuple, in row-major order over the given ranges,
    where bad holds; None where it holds nowhere."""
    return next((c for c in product(*(range(k) for k in sizes)) if bad(*c)), None)


def biband_axiom_witnesses(join, meet, star):
    """Every check_axioms flag in report order, as (name, first row-major
    witness or None), each law scanned by loops straight from its statement.
    J and M are the two products, s* the star."""
    n = len(star)

    def J(a, b):
        return join[a][b]

    def M(a, b):
        return meet[a][b]

    def S(a):
        return star[a]

    law = []
    # (s∘t)∘u = s∘(t∘u)
    for name, T in (("join", J), ("meet", M)):
        law.append((f"assoc_{name}", _first(lambda s, t, u: T(T(s, t), u) != T(s, T(t, u)), n, n, n)))
    # s** = s
    law.append(("star_involution", _first(lambda s: S(S(s)) != s, n)))
    # s∨s* = s∧s*, and that element is its own star
    law.append(("positive_parts_agree", _first(lambda s: J(s, S(s)) != M(s, S(s)), n)))
    law.append(("positive_part_fixed", _first(lambda s: S(M(s, S(s))) != M(s, S(s)), n)))
    # (s∘s*)∘s = s
    for name, T in (("join", J), ("meet", M)):
        law.append((f"regularity_{name}", _first(lambda s: T(T(s, S(s)), s) != s, n)))
    # s∘s = s implies s* = s
    for name, T in (("meet", M), ("join", J)):
        law.append((f"idempotent_self_star_{name}", _first(lambda s: T(s, s) == s and S(s) != s, n)))
    # s∨s*∨(s∧t*∧t) = s and s∧s*∧(s∨t*∨t) = s, over (s, t)
    law.append(("absorb_join_meet", _first(lambda s, t: J(J(s, S(s)), M(M(s, S(t)), t)) != s, n, n)))
    law.append(("absorb_meet_join", _first(lambda s, t: M(M(s, S(s)), J(J(s, S(t)), t)) != s, n, n)))
    # (t∧t*∧s)∨(s*∨s) = s and (t∨t*∨s)∧(s*∧s) = s, over (s, t)
    law.append(("absorb_meet_then_join", _first(lambda s, t: J(M(M(t, S(t)), s), J(S(s), s)) != s, n, n)))
    law.append(("absorb_join_then_meet", _first(lambda s, t: M(J(J(t, S(t)), s), M(S(s), s)) != s, n, n)))

    # y = (s∘s*)∘t gives y∘t* = y∘y*, over (s, t)
    def prefix_bad(T):
        def bad(s, t):
            y = T(T(s, S(s)), t)
            return T(y, S(t)) != T(y, S(y))
        return bad

    # y = t∘(s*∘s) gives t*∘y = y*∘y, over (s, t)
    def suffix_bad(T):
        def bad(s, t):
            y = T(t, T(S(s), s))
            return T(S(t), y) != T(S(y), y)
        return bad

    for name, T in (("join", J), ("meet", M)):
        law.append((f"domain_prefix_{name}", _first(prefix_bad(T), n, n)))
    for name, T in (("join", J), ("meet", M)):
        law.append((f"range_suffix_{name}", _first(suffix_bad(T), n, n)))

    # s*∨s = t∨t* (s, t composable) gives p∘p* = s∘s* and p*∘p = t*∘t for
    # p = s∘t, in either product, over (s, t)
    def composable(s, t):
        return J(S(s), s) == J(t, S(t))

    for name, T in (("join", J), ("meet", M)):
        def positive_bad(s, t):
            p = T(s, t)
            return composable(s, t) and T(p, S(p)) != T(s, S(s))

        def negative_bad(s, t):
            p = T(s, t)
            return composable(s, t) and T(S(p), p) != T(S(t), t)

        law.append((f"composable_positive_{name}", _first(positive_bad, n, n)))
        law.append((f"composable_negative_{name}", _first(negative_bad, n, n)))
    # s*∨s = t∨t* (s, t composable) gives s∧t = s∨t, over (s, t)
    law.append(("composable_products_agree", _first(lambda s, t: composable(s, t) and M(s, t) != J(s, t), n, n)))
    return law


def brute_force_biband_algebras(n):
    """Every (join, meet, star) on range(n) with two associative tables and
    an involution for which biband_axiom_witnesses finds no witness."""
    tables = (tuple(c[i : i + n] for i in range(0, n * n, n)) for c in product(range(n), repeat=n * n))
    semigroups = [t for t in tables if is_associative(t)]
    involutions = [p for p in permutations(range(n)) if all(p[p[s]] == s for s in range(n))]
    return [
        (join, meet, star)
        for join in semigroups
        for meet in semigroups
        for star in involutions
        if all(witness is None for _, witness in biband_axiom_witnesses(join, meet, star))
    ]


def partial_table_witnesses(n, dom, cod, op, left, right, side):
    """The *_defined_iff and *_endpoints flags of one side of check_structure
    as {name: first row-major witness or None}: side "meet" with op the meet
    and left/right the partial restL/restR (left[a][g], right[g][a]), side
    "join" with the join and extL/extR. Each table is scanned in its own
    orientation; -1 entries are undefined."""
    m = len(dom)
    lname, rname = ("restL", "restR") if side == "meet" else ("extL", "extR")

    def lrel(a, b):  # a leL b (a geL b on the join side)
        return op[a][b] == a

    def rrel(a, b):  # a leR b (a geR b)
        return op[b][a] == a

    def left_iff(a, g):
        return (left[a][g] >= 0) != lrel(a, dom[g])

    def right_iff(g, a):
        return (right[g][a] >= 0) != rrel(a, cod[g])

    # a defined _a|g runs from a to an object below cod g
    def left_ends(a, g):
        h = left[a][g]
        return h >= 0 and not (dom[h] == a and lrel(cod[h], cod[g]))

    # a defined g|_a runs from an object below dom g to a
    def right_ends(g, a):
        h = right[g][a]
        return h >= 0 and not (cod[h] == a and rrel(dom[h], dom[g]))

    return {
        f"{lname}_defined_iff": _first(left_iff, n, m),
        f"{lname}_endpoints": _first(left_ends, n, m),
        f"{rname}_defined_iff": _first(right_iff, m, n),
        f"{rname}_endpoints": _first(right_ends, m, n),
    }


def reconstruct_skeleton(join, meet, star):
    """The object data reconstruct derives from an algebra, by the dict
    double loop: (objects, object_index, obj_meet, obj_join, dom, cod),
    objects in first-occurrence order of s∨s*; or, where reconstruct must
    raise SkeletonNotClosedError, the message it must raise with."""
    n = len(star)
    d_el = [join[s][star[s]] for s in range(n)]
    r_el = [join[star[s]][s] for s in range(n)]
    objects, object_index = [], {}
    for el in d_el:
        if el not in object_index:
            object_index[el] = len(objects)
            objects.append(el)
    for el in r_el:
        if el not in object_index:
            return f"codomain element {el} is not an object"
    nb = len(objects)
    obj_meet = [[0] * nb for _ in range(nb)]
    obj_join = [[0] * nb for _ in range(nb)]
    for i in range(nb):
        for j in range(nb):
            me, jo = meet[objects[i]][objects[j]], join[objects[i]][objects[j]]
            if me not in object_index or jo not in object_index:
                return f"objects not closed under the operations at {(i, j)}"
            obj_meet[i][j] = object_index[me]
            obj_join[i][j] = object_index[jo]
    dom = [object_index[e] for e in d_el]
    cod = [object_index[e] for e in r_el]
    return objects, object_index, obj_meet, obj_join, dom, cod


def pair_groupoid_tables(n):
    """(dom, cod, comp, inv) of the pair groupoid on n objects: one morphism
    (i, j) from i to j for each ordered pair, numbered in row-major order,
    with (i, j)(j, k) = (i, k), -1 where the ends do not meet, and
    (i, j)^-1 = (j, i)."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    number = {pair: f for f, pair in enumerate(pairs)}
    comp = [[number[f[0], g[1]] if f[1] == g[0] else -1 for g in pairs] for f in pairs]
    return [i for i, _ in pairs], [j for _, j in pairs], comp, [number[j, i] for i, j in pairs]


def groupoid_units(n, dom, cod, comp):
    """units[b] = the morphism acting as identity at object b, or -1."""
    m = len(dom)
    units = [-1] * n
    for e in range(m):
        b = dom[e]
        if cod[e] != b or comp[e][e] != e:
            continue
        if all(
            (dom[f] != b or comp[e][f] == f) and (cod[f] != b or comp[f][e] == f)
            for f in range(m)
        ):
            units[b] = e
    return units


def groupoid_laws(n, dom, cod, comp, inv):
    """The groupoid-law report as AxiomReport.to_dict() lays it out: each
    law scanned by nested loops, witness = first failing index tuple."""
    m = len(dom)
    units = groupoid_units(n, dom, cod, comp)
    checks = {}

    def record(name, witness, required=True):
        checks[name] = {
            "ok": witness is None,
            "witness": list(witness) if witness is not None else None,
            "required": required,
            "note": None,
        }

    def first(bad, arity=1, size=m):
        cells = product(range(size), repeat=arity)
        return next((c for c in cells if bad(*c)), None)

    def pattern_bad(f, h):
        v = comp[f][h]
        if (v >= 0) != (cod[f] == dom[h]):
            return True
        return v >= 0 and (dom[v] != dom[f] or cod[v] != cod[h])

    record("composition_pattern", first(pattern_bad, 2))

    def assoc_bad(f, h, k):
        fh, hk = comp[f][h], comp[h][k]
        if fh < 0 or hk < 0:
            return False
        left, right = comp[fh][k], comp[f][hk]
        return left >= 0 and right >= 0 and left != right

    record("associativity", first(assoc_bad, 3))

    missing = first(lambda b: units[b] < 0, size=n)
    if missing is None:
        missing = first(
            lambda f: comp[units[dom[f]]][f] != f or comp[f][units[cod[f]]] != f
        )
    record("identities", missing)

    def inverse_bad(f):
        fi = inv[f]
        if dom[fi] != cod[f] or cod[fi] != dom[f]:
            return True
        return comp[f][fi] != units[dom[f]] or comp[fi][f] != units[cod[f]]

    record("inverse_laws", first(inverse_bad))
    record("involution", first(lambda f: inv[inv[f]] != f), required=False)
    record(
        "anti_involution",
        first(lambda f, h: comp[f][h] >= 0 and inv[comp[f][h]] != comp[inv[h]][inv[f]], 2),
        required=False,
    )
    unit_set = {e for e in units if e >= 0}
    record(
        "idempotents_are_identities",
        first(lambda f: (comp[f][f] == f) != (f in unit_set)),
        required=False,
    )
    required_ok = all(c["ok"] for c in checks.values() if c["required"])
    return {"title": "groupoid laws", "ok": required_ok, "checks": checks}


def unary_maps(meet, join, star):
    """The star and the one-sided products x -> i∧x, x∧i, i∨x, x∨i, as lists."""
    n = len(star)
    maps = [list(star)]
    for table in (meet, join):
        maps.extend(list(table[i]) for i in range(n))
        maps.extend([table[x][i] for x in range(n)] for i in range(n))
    return maps


def greedy_separating_congruence(meet, join, star):
    """The largest idempotent-separating congruence of a (2,2,1)-algebra,
    by a greedy join of principal congruences, plus a maximality flag.

    A pair (s, t) is adopted when the congruence it generates on top of the
    current one still separates the idempotents; a second pass then checks
    that no pair outside the result generates a separating congruence on
    its own.  Returns (set of frozenset classes, is_maximum).
    """
    n = len(star)
    maps = unary_maps(meet, join, star)
    idem = [x for x in range(n) if meet[x][x] == x or join[x][x] == x]
    pos = [meet[x][star[x]] for x in range(n)]
    neg = [meet[star[x]][x] for x in range(n)]

    def find(parent, x):
        while parent[x] != x:
            x = parent[x]
        return x

    def close(parent, s, t):
        work = [(s, t)]
        while work:
            x, y = work.pop()
            rx, ry = find(parent, x), find(parent, y)
            if rx != ry:
                parent[ry] = rx
                work.extend((m[x], m[y]) for m in maps)

    def separating(parent):
        return len({find(parent, e) for e in idem}) == len(idem)

    def candidates(parent):
        # merging s, t forces s∧s* ~ t∧t* and s*∧s ~ t*∧t
        return [
            (s, t)
            for s in range(n)
            for t in range(s + 1, n)
            if pos[s] == pos[t] and neg[s] == neg[t] and find(parent, s) != find(parent, t)
        ]

    parent = list(range(n))
    changed = True
    while changed:
        changed = False
        for s, t in candidates(parent):
            if find(parent, s) == find(parent, t):
                continue
            trial = parent.copy()
            close(trial, s, t)
            if separating(trial):
                parent, changed = trial, True

    is_max = True
    for s, t in candidates(parent):
        solo = list(range(n))
        close(solo, s, t)
        if separating(solo):
            is_max = False
            break

    classes = {}
    for x in range(n):
        classes.setdefault(find(parent, x), set()).add(x)
    return {frozenset(c) for c in classes.values()}, is_max


def largest_congruence_inside_parts(meet, join, star):
    """Table filling, as in Myhill-Nerode DFA minimisation: s and t are kept
    apart when s∧s*, s*∧s differ from t∧t*, t*∧t, or when some star or
    one-sided product sends them to a pair already kept apart.  The pairs
    never kept apart form the largest congruence inside E; returned as a
    set of frozenset classes."""
    n = len(star)
    maps = unary_maps(meet, join, star)
    parts = [(meet[x][star[x]], meet[star[x]][x]) for x in range(n)]
    apart = {(s, t) for s in range(n) for t in range(n) if parts[s] != parts[t]}
    changed = True
    while changed:
        changed = False
        for s in range(n):
            for t in range(n):
                if (s, t) not in apart and any((m[s], m[t]) in apart for m in maps):
                    apart.add((s, t))
                    changed = True
    return {frozenset(t for t in range(n) if (s, t) not in apart) for s in range(n)}


def order_axioms(n, dom, cod, comp, op, left, right, side):
    """The restriction report (side "meet": op the meet, left/right the
    partial restL/restR) or the extension report (side "join": the join,
    extL/extR) as AxiomReport.to_dict() lays it out. Each law is scanned by
    nested loops straight from its statement; witness = first failing index
    tuple. Entries of -1 are undefined and fail every law they reach."""
    m = len(dom)
    units = groupoid_units(n, dom, cod, comp)
    lname, rname = ("restL", "restR") if side == "meet" else ("extL", "extR")
    checks = {}

    def at(table, i, j):
        return -1 if i < 0 or j < 0 else table[i][j]

    def lt(a, g):  # a∧g: restrict g to a∧dom g
        return -1 if g < 0 else at(left, op[a][dom[g]], g)

    def rt(g, a):  # g∧a: corestrict g to cod g∧a
        return -1 if g < 0 else at(right, g, op[cod[g]][a])

    def dom_of(f):
        return -1 if f < 0 else dom[f]

    def cod_of(f):
        return -1 if f < 0 else cod[f]

    def same(x, *ys):
        return x >= 0 and all(x == y for y in ys)

    def lrel(a, b):  # a leL b (a geL b on the join side): a = a∧b
        return op[a][b] == a

    def rrel(a, b):  # a leR b: a = b∧a
        return op[b][a] == a

    def record(name, bad, *sizes):
        cells = product(*(range(s) for s in sizes))
        witness = next((c for c in cells if bad(*c)), None)
        checks[name] = {
            "ok": witness is None,
            "witness": list(witness) if witness is not None else None,
            "required": True,
            "note": None,
        }

    record(f"{lname}_identity", lambda g: lt(dom[g], g) != g, m)
    record(f"{rname}_identity", lambda g: rt(g, cod[g]) != g, m)

    # a leL b => _a|i_b = i_a; the join side reads a geR b => a∨i_b = i_(a∨b)
    if side == "meet":
        record(f"{lname}_preorder", lambda a, b: lrel(a, b) and not same(lt(a, units[b]), units[a]), n, n)
        record(f"{rname}_preorder", lambda a, b: rrel(a, b) and not same(rt(units[b], a), units[a]), n, n)
    else:
        record(f"{lname}_preorder", lambda a, b: rrel(a, b) and not same(lt(a, units[b]), units[op[a][b]]), n, n)
        record(f"{rname}_preorder", lambda a, b: lrel(a, b) and not same(rt(units[b], a), units[op[b][a]]), n, n)

    # a leL b leL dom g => _a|g = _(a∧b)|g = _a|(_b|g)
    def ltrans_bad(a, b, g):
        if not (lrel(a, b) and lrel(b, dom[g])):
            return False
        return not same(lt(a, g), lt(op[a][b], g), lt(a, lt(b, g)))

    record(f"{lname}_transitivity", ltrans_bad, n, n, m)

    # a leR b leR cod g => g|_a = g|_(b∧a) = (g|_b)|_a
    def rtrans_bad(a, b, g):
        if not (rrel(a, b) and rrel(b, cod[g])):
            return False
        return not same(rt(g, a), rt(g, op[b][a]), rt(rt(g, b), a))

    record(f"{rname}_transitivity", rtrans_bad, n, n, m)

    # _a|(f∘g) = (_a|f)∘(_(cod _a|f)|g) whenever f∘g is defined
    def lcomp_bad(a, f, g):
        if comp[f][g] < 0:
            return False
        h1 = lt(a, f)
        h2 = -1 if h1 < 0 else lt(cod[h1], g)
        return not same(lt(a, comp[f][g]), at(comp, h1, h2))

    record(f"{lname}_composition", lcomp_bad, n, m, m)

    # (f∘g)|_d = (f|_(dom g|_d))∘(g|_d) whenever f∘g is defined
    def rcomp_bad(f, g, d):
        if comp[f][g] < 0:
            return False
        h2 = rt(g, d)
        h1 = -1 if h2 < 0 else rt(f, dom[h2])
        return not same(rt(comp[f][g], d), at(comp, h1, h2))

    record(f"{rname}_composition", rcomp_bad, m, m, n)

    # (a∧b)∧g = a∧(b∧g) and (g∧a)∧b = g∧(a∧b)
    record(f"{side}_chain_left", lambda a, b, g: not same(lt(op[a][b], g), lt(a, lt(b, g))), n, n, m)
    record(f"{side}_chain_right", lambda g, a, b: not same(rt(rt(g, a), b), rt(g, op[a][b])), m, n, n)

    # dom(a∧g) = a∧dom g and cod(g∧a) = (cod g)∧a
    record(f"{side}_endpoint_left", lambda a, g: not same(dom_of(lt(a, g)), op[a][dom[g]]), n, m)
    record(f"{side}_endpoint_right", lambda g, a: not same(cod_of(rt(g, a)), op[cod[g]][a]), m, n)

    # (a∧f)∧b = a∧(f∧b)
    record(f"{side}_compatibility", lambda a, f, b: not same(rt(lt(a, f), b), lt(a, rt(f, b))), n, m, n)

    title = "restriction axioms" if side == "meet" else "extension axioms"
    return {"title": title, "ok": all(c["ok"] for c in checks.values()), "checks": checks}


def refine_colours(n, binops, unops):
    """Iterated invariant refinement of one structure given as lists: a
    stable colour per element, hashed from the idempotent profile, the
    sorted (colour of x.y, colour of y) pairs of each row and column and
    the colours of the unary images, until a round adds no class."""
    colours = [0] * n
    for op in binops:
        colours = [hash((c, op[x][x] == x)) for x, c in enumerate(colours)]
    classes = len(set(colours))
    for _ in range(n):
        new = []
        for x in range(n):
            parts = [colours[x]]
            for op in binops:
                parts.append(tuple(sorted((colours[op[x][y]], colours[y]) for y in range(n))))
                parts.append(tuple(sorted((colours[op[y][x]], colours[y]) for y in range(n))))
            for u in unops:
                parts.append(colours[u[x]])
            new.append(hash(tuple(parts)))
        colours, before = new, classes
        classes = len(set(colours))
        if classes == before:
            break
    return colours


def least_isomorphism(n, binops_a, unops_a, binops_b, unops_b):
    """Least bijection in lexicographic order carrying every operation of a
    onto b, as a tuple, or None.  Plain backtracking over images in
    increasing order; an image must have the source's refine_colours
    colour, and after each step every cell whose operands and value are
    all assigned is tested."""
    colours_a = refine_colours(n, binops_a, unops_a)
    colours_b = refine_colours(n, binops_b, unops_b)
    if sorted(colours_a) != sorted(colours_b):
        return None
    candidates = [[y for y in range(n) if colours_b[y] == colours_a[x]] for x in range(n)]
    image = [-1] * n
    used = [False] * n

    def consistent(x, y):
        def img(w):
            if w < x:
                return image[w]
            return y if w == x else -1

        for op_a, op_b in zip(binops_a, binops_b):
            for z in range(x + 1):
                iz = img(z)
                v = img(op_a[x][z])
                if v >= 0 and op_b[y][iz] != v:
                    return False
                v = img(op_a[z][x])
                if v >= 0 and op_b[iz][y] != v:
                    return False
            # cells among earlier elements whose value is x itself
            for z1 in range(x):
                for z2 in range(x):
                    if op_a[z1][z2] == x and op_b[image[z1]][image[z2]] != y:
                        return False
        for u_a, u_b in zip(unops_a, unops_b):
            v = img(u_a[x])
            if v >= 0 and u_b[y] != v:
                return False
            for z in range(x):
                if u_a[z] == x and u_b[image[z]] != y:
                    return False
        return True

    def search(x):
        if x == n:
            return True
        for y in candidates[x]:
            if used[y] or not consistent(x, y):
                continue
            image[x] = y
            used[y] = True
            if search(x + 1):
                return True
            image[x] = -1
            used[y] = False
        return False

    return tuple(image) if search(0) else None


def side_ops(dom, cod, comp, op, left, right):
    """One side of a restriction system as scalar functions: a∧g (the left
    table at a∧dom g), g∧a (the right table at cod g∧a) and the
    pseudoproduct f∧g = (f∧c)∘(c∧g) at c = cod f∧dom g; on the join side
    read ∨ for ∧. A -1 argument, or a -1 entry on the way, gives -1."""

    def lt(a, g):
        return -1 if a < 0 or g < 0 else left[op[a][dom[g]]][g]

    def rt(g, a):
        return -1 if a < 0 or g < 0 else right[g][op[cod[g]][a]]

    def pp(f, g):
        if f < 0 or g < 0:
            return -1
        c = op[cod[f]][dom[g]]
        h1, h2 = right[f][c], left[c][g]
        return -1 if h1 < 0 or h2 < 0 else comp[h1][h2]

    return lt, rt, pp


class _Checks:
    """Flags in the order recorded, laid out as AxiomReport.to_dict(); the
    witness of each is the first row-major tuple where its law fails."""

    def __init__(self, title):
        self.title = title
        self.checks = {}

    def record(self, name, bad, *sizes, required=True, note=None):
        witness = _first(bad, *sizes)
        self.checks[name] = {
            "ok": witness is None,
            "witness": list(witness) if witness is not None else None,
            "required": required,
            "note": note,
        }

    def to_dict(self):
        ok = all(c["ok"] for c in self.checks.values() if c["required"])
        return {"title": self.title, "ok": ok, "checks": self.checks}


def _same(x, *ys):
    return x >= 0 and all(x == y for y in ys)


def linking_axiom(n, dom, cod, comp, inv, meet, join, restL, restR, extL, extR):
    """The check_linking report, each law scanned by nested loops from its
    statement. ∧ is the meet side (restL, restR), ∨ the join side (extL,
    extR); -1 entries are undefined, and an undefined value fails every law."""
    m = len(dom)
    units = groupoid_units(n, dom, cod, comp)
    mlt, mrt, _ = side_ops(dom, cod, comp, meet, restL, restR)
    jlt, jrt, jpp = side_ops(dom, cod, comp, join, extL, extR)
    out = _Checks("linking axiom")
    # f = (a∧f)∨(cod f), and ff* = (a∧f)∨f*, over (a, f)
    out.record("linking_meet_join", lambda a, f: jrt(mlt(a, f), cod[f]) != f, n, m)
    out.record(
        "linking_equiv_pseudo", lambda a, f: not _same(jpp(mlt(a, f), inv[f]), units[dom[f]]), n, m,
    )
    # f = (dom f)∨(f∧a), f = (a∨f)∧(cod f) and f = (dom f)∧(f∨a)
    out.record("linking_lateral", lambda a, f: jlt(dom[f], mrt(f, a)) != f, n, m)
    out.record("linking_order_dual", lambda a, f: mrt(jlt(a, f), cod[f]) != f, n, m)
    out.record("linking_order_lateral", lambda a, f: mlt(dom[f], jrt(f, a)) != f, n, m)
    # (a∧i_b)∨b = i_b, over (a, b)
    out.record(
        "idempotent_absorption", lambda a, b: not _same(jrt(mlt(a, units[b]), b), units[b]), n, n,
    )
    return out.to_dict()


def derived_identities(n, dom, cod, comp, inv, meet, join, restL, restR, extL, extR):
    """The verify_derived_identities report, each law scanned by nested
    loops from its statement, the meet side's flag before the join side's.
    -1 entries are undefined and fail every law they reach, the observations
    included: two undefined sides do not agree."""
    m = len(dom)
    units = groupoid_units(n, dom, cod, comp)
    unit_set = {e for e in units if e >= 0}
    sides = [
        ("meet", "restriction", "restrict", meet, side_ops(dom, cod, comp, meet, restL, restR)),
        ("join", "extension", "extend", join, side_ops(dom, cod, comp, join, extL, extR)),
    ]
    out = _Checks("derived identities")

    def cod_of(f):
        return -1 if f < 0 else cod[f]

    def dom_of(f):
        return -1 if f < 0 else dom[f]

    def inv_of(f):
        return -1 if f < 0 else inv[f]

    def plus_minus(pp):
        return (lambda s: -1 if s < 0 else pp(s, inv[s])), (lambda s: -1 if s < 0 else pp(inv[s], s))

    # every lambda below is scanned by record before the loop moves on
    for name, _, _, _, (lt, rt, pp) in sides:  # (f∧e)∧g = f∧(e∧g)
        out.record(
            f"mixed_assoc_{name}", lambda f, e, g: not _same(pp(rt(f, e), g), pp(f, lt(e, g))), m, n, m,
        )
    for name, _, _, _, (lt, rt, pp) in sides:  # e^(f∧g) = (e^f)^g, e^f = cod(e∧f)
        out.record(
            f"action_chain_{name}",
            lambda e, f, g: not _same(cod_of(lt(e, pp(f, g))), cod_of(lt(cod_of(lt(e, f)), g))),
            n, m, m,
        )
    for name, _, verb, _, (lt, rt, pp) in sides:  # e∧(f∧g) = (e∧f)∧g
        out.record(
            f"{verb}_into_product_{name}", lambda e, f, g: not _same(lt(e, pp(f, g)), pp(lt(e, f), g)), n, m, m,
        )
    for name, _, _, _, (lt, rt, pp) in sides:
        out.record(f"assoc_{name}", lambda f, g, h: not _same(pp(pp(f, g), h), pp(f, pp(g, h))), m, m, m)
    for name, _, _, _, (lt, rt, pp) in sides:  # f∧g = f∘g where f∘g is defined
        out.record(f"extends_composition_{name}", lambda f, g: comp[f][g] >= 0 and pp(f, g) != comp[f][g], m, m)
    for name, _, _, op, (lt, rt, pp) in sides:  # i_a∧i_b = i_(a∧b)
        out.record(
            f"identity_product_{name}", lambda a, b: not _same(pp(units[a], units[b]), units[op[a][b]]), n, n,
        )
    for name, _, _, _, (lt, rt, pp) in sides:  # f∧f = f iff f is an identity
        out.record(f"idempotents_{name}", lambda f: (pp(f, f) == f) != (f in unit_set), m)
    for name, _, _, _, (lt, rt, pp) in sides:  # g∧g*∧g = g
        out.record(f"regularity_{name}", lambda g: pp(pp(g, inv[g]), g) != g, m)

    for name, _, _, _, (lt, rt, pp) in sides:
        plus, minus = plus_minus(pp)

        def bad_i(s):  # s+ and s- are idempotents, each its own plus and minus
            p, q = plus(s), minus(s)
            return not (
                p >= 0 and q >= 0 and pp(p, p) == p and plus(p) == p and minus(p) == p
                and pp(q, q) == q and minus(q) == q and plus(q) == q
            )

        out.record(f"skehr_{name}_i", bad_i, m)
        # s+∧s = s = s∧s-
        out.record(f"skehr_{name}_ii", lambda s: pp(plus(s), s) != s or pp(s, minus(s)) != s, m)
        # s∧s = s gives s+ = s = s-
        out.record(f"skehr_{name}_iii", lambda s: pp(s, s) == s and (plus(s) != s or minus(s) != s), m)
        # (s∧t)+ = (s∧t+)+ and (s∧t)- = (s-∧t)-
        out.record(
            f"skehr_{name}_iv",
            lambda s, t: not (
                _same(plus(pp(s, t)), plus(pp(s, plus(t)))) and _same(minus(pp(s, t)), minus(pp(minus(s), t)))
            ),
            m, m,
        )
        # (s+∧t)+ = s+∧t+ and (s∧t-)- = s-∧t-
        out.record(
            f"skehr_{name}_v",
            lambda s, t: not (
                _same(plus(pp(plus(s), t)), pp(plus(s), plus(t)))
                and _same(minus(pp(s, minus(t))), pp(minus(s), minus(t)))
            ),
            m, m,
        )

    for name, noun, _, _, (lt, rt, pp) in sides:  # (a∧f)* = (a^f)∧f*
        out.record(
            f"invert_{noun}", lambda a, f: not _same(inv_of(lt(a, f)), lt(cod_of(lt(a, f)), inv[f])), n, m,
        )
    for name, _, _, op, (lt, rt, pp) in sides:  # a^(i_b) = a∧b
        out.record(f"identity_action_{name}", lambda a, b: not _same(cod_of(lt(a, units[b])), op[a][b]), n, n)
    for name, _, _, _, (lt, rt, pp) in sides:  # (a∧f)∧f* = (a∧f)∧(a∧f)*
        out.record(
            f"range_invariance_{name}",
            lambda a, f: not _same(pp(lt(a, f), inv[f]), pp(lt(a, f), inv_of(lt(a, f)))),
            n, m,
        )

    lt, rt, pp = sides[0][4]
    plus, minus = plus_minus(pp)
    out.record(
        "obs_restriction_identity_left", lambda s, t: not _same(pp(plus(pp(s, t)), s), pp(s, plus(t))), m, m,
        required=False, note="(s∧t)+∧s = s∧t+: holds only over a semilattice of objects",
    )
    out.record(
        "obs_restriction_identity_right", lambda s, t: not _same(pp(t, minus(pp(s, t))), pp(minus(s), t)), m, m,
        required=False, note="t∧(s∧t)- = s-∧t: holds only over a semilattice of objects",
    )
    out.record(
        "obs_action_inverse", lambda f, a: not _same(cod_of(lt(a, f)), dom_of(rt(inv[f], a))), m, n,
        required=False, note="a^f = ^(f^-1)|a is not an axiom",
    )
    out.record(
        "obs_restrict_swap", lambda a, f: not _same(lt(a, f), rt(f, cod_of(lt(a, f)))), n, m,
        required=False, note="_a|f = f|_(a^f) is not an axiom",
    )
    return out.to_dict()


def plus_minus_calculus(join, meet, star):
    """The check_skehr report, each law scanned by loops from its statement:
    the five plus/minus statements for the meet, then for the join, with
    s+ = s∘s* and s- = s*∘s in that product; then, over the meet, the star
    swapping the two parts, the Green's positions of s+, s- and s*, and s*
    as the one inverse of s sitting at them. Green's R (L) relates two
    elements with equal principal right (left) ideals, identity adjoined."""
    n = len(star)
    out = _Checks("plus minus calculus")
    for name, table in (("meet", meet), ("join", join)):
        def T(a, b):
            return table[a][b]

        def plus(s):
            return T(s, star[s])

        def minus(s):
            return T(star[s], s)

        def bad_i(s):  # s+ and s- are idempotents, each its own plus and minus
            p, q = plus(s), minus(s)
            return not (
                T(p, p) == p and plus(p) == p and minus(p) == p
                and T(q, q) == q and minus(q) == q and plus(q) == q
            )

        out.record(f"skehr_{name}_i", bad_i, n)
        # s+∘s = s = s∘s-
        out.record(f"skehr_{name}_ii", lambda s: T(plus(s), s) != s or T(s, minus(s)) != s, n)
        # s∘s = s gives s+ = s = s-
        out.record(f"skehr_{name}_iii", lambda s: T(s, s) == s and (plus(s) != s or minus(s) != s), n)
        # (s∘t)+ = (s∘t+)+ and (s∘t)- = (s-∘t)-
        out.record(
            f"skehr_{name}_iv",
            lambda s, t: plus(T(s, t)) != plus(T(s, plus(t))) or minus(T(s, t)) != minus(T(minus(s), t)),
            n, n,
        )
        # (s+∘t)+ = s+∘t+ and (s∘t-)- = s-∘t-
        out.record(
            f"skehr_{name}_v",
            lambda s, t: plus(T(plus(s), t)) != T(plus(s), plus(t))
            or minus(T(s, minus(t))) != T(minus(s), minus(t)),
            n, n,
        )

    def M(a, b):
        return meet[a][b]

    def plus(s):
        return M(s, star[s])

    def minus(s):
        return M(star[s], s)

    right = [{a} | {M(a, x) for x in range(n)} for a in range(n)]
    left = [{a} | {M(x, a) for x in range(n)} for a in range(n)]

    def R(a, b):
        return right[a] == right[b]

    def L(a, b):
        return left[a] == left[b]

    # (s*)+ = s- and (s*)- = s+
    out.record(
        "star_swaps_sides",
        lambda s: M(star[s], star[star[s]]) != minus(s) or M(star[star[s]], star[s]) != plus(s),
        n,
    )
    # s+ R s L s-, and s+ L s* R s-
    out.record(
        "green_positions",
        lambda s: not (R(plus(s), s) and L(s, minus(s)) and L(plus(s), star[s]) and R(star[s], minus(s))),
        n,
    )

    # the inverses x of s (s∧x∧s = s, x∧s∧x = x) with s+ L x R s- are s* alone
    def located(s):
        return [
            x for x in range(n)
            if M(M(s, x), s) == s and M(M(x, s), x) == x and L(plus(s), x) and R(x, minus(s))
        ]

    out.record("star_unique_inverse", lambda s: located(s) != [star[s]], n)
    return out.to_dict()

def single_cell_mutants(table):
    """Every copy of the table with exactly one cell changed, as lists."""
    n = len(table)
    for a, b, v in product(range(n), repeat=3):
        if v != table[a][b]:
            mutant = [list(row) for row in table]
            mutant[a][b] = v
            yield mutant


def first_associativity_failure(table):
    """The first (a, b, c) in row-major order with (ab)c != a(bc), or None."""
    n = len(table)
    return next(
        (
            (a, b, c)
            for a, b, c in product(range(n), repeat=3)
            if table[table[a][b]][c] != table[a][table[b][c]]
        ),
        None,
    )


def group_identity_and_inverses(table):
    """(identity, inverses) by a scalar search: the first two-sided identity,
    then for each element its one right inverse, which must be a left
    inverse too. Raises ValueError with GroupTable's text at the first
    failure, associativity checked first."""
    n = len(table)
    if first_associativity_failure(table) is not None:
        raise ValueError("group table is not associative")
    identity = next(
        (e for e in range(n) if all(table[e][x] == x and table[x][e] == x for x in range(n))), None
    )
    if identity is None:
        raise ValueError("group table has no identity")
    inverse = []
    for a in range(n):
        hits = [x for x in range(n) if table[a][x] == identity]
        if len(hits) != 1 or table[hits[0]][a] != identity:
            raise ValueError(f"element {a} has no two-sided inverse")
        inverse.append(hits[0])
    return identity, inverse


def greens_partitions(table):
    """(r_classes, l_classes, r_class_of, l_class_of) of an associative
    table: elements keyed by their principal right ideal aS^1 (left ideal
    S^1a) in a dict, the classes sorted and numbered in that order. Raises
    greens_relations's ValueError on a non-associative table."""
    witness = first_associativity_failure(table)
    if witness is not None:
        raise ValueError(f"greens_relations needs an associative table; witness {witness}")
    n = len(table)

    def partition(ideal):
        keys = {}
        for a in range(n):
            keys.setdefault(frozenset(ideal(a)) | {a}, []).append(a)
        classes = tuple(sorted(tuple(members) for members in keys.values()))
        class_of = [0] * n
        for i, members in enumerate(classes):
            for a in members:
                class_of[a] = i
        return classes, tuple(class_of)

    r_classes, r_of = partition(lambda a: table[a])
    l_classes, l_of = partition(lambda a: [table[x][a] for x in range(n)])
    return r_classes, l_classes, r_of, l_of


def inverses_loop(meet, s):
    """Every x with s∧x∧s = s and x∧s∧x = x, by a scan over x."""
    return [x for x in range(len(meet)) if meet[meet[s][x]][s] == s and meet[meet[x][s]][x] == x]
