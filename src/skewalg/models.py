"""Semidirect products of groups acting by automorphisms on skew lattices.

Every construction here starts from a GroupAction: a group G, a skew lattice
B, and a right action table act[a, u] = a^u whose maps a -> a^u preserve
both band operations. From one action we build

  * the pair algebra on G x B with (u,a)(v,b) = (uv, a^v . b) for each band
    operation and star (u,a)* = (u^-1, a^{u^-1}),
  * the groupoid with objects B and morphisms (b, g) : b -> b^g, carrying
    the restriction and extension operators by object-wise conjugation,
  * the congruence kernels K_a collected from the largest congruence of the
    pair algebra that separates idempotents.

generate_model_suite instantiates the whole catalog of small groups against
every skew lattice up to the bound, deduplicated up to simultaneous group
and band automorphisms; this suite is the test-bed for every checker in the
package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import BiBandAlgebra
from .enumeration import enumerate_skew_lattices
from .errors import ActionInvalidError, BoundExceededError
from .groupoid import FiniteGroupoid
from .isomorphism import automorphisms_of, group_automorphisms
from .report import AxiomReport
from .system import RestrictionSystem
from .tables import GroupTable, SkewLatticeTable

__all__ = [
    "GROUP_CATALOG",
    "GroupAction",
    "ModelInstance",
    "SemidirectAlgebra",
    "check_action",
    "congruence_kernels",
    "cyclic_group",
    "enumerate_actions",
    "generate_model_suite",
    "klein_four",
    "normal_form_report",
    "semidirect_algebra",
    "semidirect_groupoid",
    "symmetric_group3",
    "trivial_action",
]

MAX_SUITE_GROUP = 6
MAX_SUITE_BAND = 4


def cyclic_group(n: int) -> GroupTable:
    """Addition modulo n."""
    idx = np.arange(n)
    return GroupTable((idx[:, None] + idx[None, :]) % n)


def klein_four() -> GroupTable:
    return GroupTable([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def symmetric_group3() -> GroupTable:
    """Permutations of three points in lexicographic order, (p.q)(x) = p(q(x))."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms
    ]
    return GroupTable(table)


GROUP_CATALOG: dict[str, GroupTable] = {
    "C1": cyclic_group(1),
    "C2": cyclic_group(2),
    "C3": cyclic_group(3),
    "C4": cyclic_group(4),
    "V4": klein_four(),
    "S3": symmetric_group3(),
}


class GroupAction:
    """A right action of a group on a skew lattice: act[a, u] = a^u."""

    def __init__(self, group: GroupTable, lattice: SkewLatticeTable, act):
        if not isinstance(lattice, SkewLatticeTable):
            lattice = SkewLatticeTable(*lattice)
        act = np.asarray(act, dtype=np.int64)
        if act.shape != (lattice.order, group.order):
            raise ActionInvalidError(
                f"action table must have shape {(lattice.order, group.order)}, "
                f"got {act.shape}"
            )
        if act.size and (act.min() < 0 or act.max() >= lattice.order):
            raise ActionInvalidError("action entries out of range")
        act.setflags(write=False)
        self.group = group
        self.lattice = lattice
        self.act = act

    @property
    def group_order(self) -> int:
        return self.group.order

    @property
    def band_order(self) -> int:
        return self.lattice.order

    def __eq__(self, other):
        if not isinstance(other, GroupAction):
            return NotImplemented
        return (
            self.group == other.group
            and self.lattice == other.lattice
            and np.array_equal(self.act, other.act)
        )

    def __repr__(self):
        return f"GroupAction(|G|={self.group_order}, |B|={self.band_order})"


def trivial_action(group: GroupTable, lattice: SkewLatticeTable) -> GroupAction:
    act = np.repeat(np.arange(lattice.order)[:, None], group.order, axis=1)
    return GroupAction(group, lattice, act)


def check_action(action: GroupAction) -> AxiomReport:
    """Identity and composition laws plus, per group element, preservation
    of both band operations."""
    report = AxiomReport("group action")
    act = action.act
    gt = action.group.table.array
    mt = action.lattice.meet.array
    jt = action.lattice.join.array
    nb = action.band_order

    report.record_mask("identity_action", act[:, action.group.identity] == np.arange(nb))
    report.record_mask("composition_action", act[act] == act[:, gt])
    report.record_mask("automorphism_meet", act[mt] == mt[act[:, None, :], act[None, :, :]])
    report.record_mask("automorphism_join", act[jt] == jt[act[:, None, :], act[None, :, :]])
    return report


def _guard(action: GroupAction) -> None:
    report = check_action(action)
    if not report.ok:
        bad = report.first_failure()
        raise ActionInvalidError(f"action fails {bad.name} at {bad.witness}")


class SemidirectAlgebra(BiBandAlgebra):
    """Pair algebra on G x B; element u*|B| + a encodes (u, a)."""

    def __init__(self, action: GroupAction):
        _guard(action)
        gt = action.group.table.array
        ginv = action.group.inverse
        mt = action.lattice.meet.array
        jt = action.lattice.join.array
        act = action.act
        nb = action.band_order
        m = action.group_order * nb
        i = np.arange(m)
        u, a = i // nb, i % nb

        heads = gt[u[:, None], u[None, :]] * nb
        twisted = act[a[:, None], u[None, :]]
        meet = heads + mt[twisted, a[None, :]]
        join = heads + jt[twisted, a[None, :]]
        star = ginv[u] * nb + act[a, ginv[u]]
        super().__init__(join, meet, star)
        self.action = action

    def encode(self, u: int, a: int) -> int:
        return u * self.action.band_order + a

    def decode(self, s: int) -> tuple[int, int]:
        return divmod(s, self.action.band_order)


def semidirect_algebra(action: GroupAction) -> SemidirectAlgebra:
    """The (2,2,1)-algebra on pairs (u, a) with (u,a)(v,b) = (uv, a^v . b)."""
    return SemidirectAlgebra(action)


def semidirect_groupoid(action: GroupAction) -> RestrictionSystem:
    """Objects B, morphisms (b, g) : b -> b^g encoded as b*|G| + g.

    Composition multiplies the group parts when endpoints match; the four
    operator tables act object-wise, e.g. restricting (b,g) to a <=_L b
    gives (a∧b, g) and corestricting to c <=_R b^g gives (c^{g^-1}, g).
    """
    _guard(action)
    gt = action.group.table.array
    ginv = action.group.inverse
    mt = action.lattice.meet.array
    jt = action.lattice.join.array
    act = action.act
    nb, ng = action.band_order, action.group_order
    m = nb * ng
    i = np.arange(m)
    b, g = i // ng, i % ng
    obj = np.arange(nb)

    dom = b
    cod = act[b, g]
    comp = np.where(
        cod[:, None] == dom[None, :], b[:, None] * ng + gt[g[:, None], g[None, :]], -1
    )
    inv = cod * ng + ginv[g]

    le_left = mt == obj[:, None]
    le_right = mt.T == obj[:, None]
    ge_left = jt == obj[:, None]
    ge_right = jt.T == obj[:, None]

    restL = np.where(le_left[:, dom], mt[obj[:, None], dom[None, :]] * ng + g[None, :], -1)
    extL = np.where(ge_left[:, dom], jt[obj[:, None], dom[None, :]] * ng + g[None, :], -1)
    back = act[obj[None, :], ginv[g][:, None]] * ng + g[:, None]
    restR = np.where(le_right[obj[None, :], cod[:, None]], back, -1)
    extR = np.where(ge_right[obj[None, :], cod[:, None]], back, -1)

    groupoid = FiniteGroupoid(nb, dom, cod, comp, inv)
    return RestrictionSystem(groupoid, action.lattice, restL, restR, extL, extR)


def _generating_set(group: GroupTable) -> list[int]:
    gt = group.table.array

    def closure(seed: set[int]) -> set[int]:
        reach = set(seed)
        frontier = list(reach)
        while frontier:
            x = frontier.pop()
            for y in list(reach):
                for v in (int(gt[x, y]), int(gt[y, x])):
                    if v not in reach:
                        reach.add(v)
                        frontier.append(v)
        return reach

    gens: list[int] = []
    reach = closure({int(group.identity)})
    for g in range(group.order):
        if g not in reach:
            gens.append(g)
            reach = closure(reach | {g})
    return gens


def _element_words(group: GroupTable, gens: list[int]) -> dict[int, tuple[int, ...]]:
    gt = group.table.array
    words: dict[int, tuple[int, ...]] = {int(group.identity): ()}
    queue = [int(group.identity)]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = int(gt[x, g])
            if y not in words:
                words[y] = words[x] + (g,)
                queue.append(y)
    return words


def enumerate_actions(group: GroupTable, lattice: SkewLatticeTable) -> list[GroupAction]:
    """Every action of the group on the skew lattice, one table each.

    An action assigns each group element an automorphism of the lattice with
    a^{uv} = (a^u)^v, so the assignment is determined by the images of a
    generating set; all combinations are tried and validated.
    """
    auts = automorphisms_of(lattice)
    gens = _generating_set(group)
    words = _element_words(group, gens)
    n = group.order
    nb = lattice.order
    identity_perm = tuple(range(nb))
    out: list[GroupAction] = []
    for assignment in itertools.product(range(len(auts)), repeat=len(gens)):
        chosen = {g: auts[k] for g, k in zip(gens, assignment)}
        act = np.empty((nb, n), dtype=np.int64)
        for u in range(n):
            # phi(x.g) = phi(g) o phi(x), so fold the word right-to-left
            perm = identity_perm
            for g in words[u]:
                perm = tuple(chosen[g][perm[a]] for a in range(nb))
            act[:, u] = perm
        candidate = GroupAction(group, lattice, act)
        if check_action(candidate).ok:
            out.append(candidate)
    return out


def dedupe_actions(actions: list[GroupAction]) -> list[GroupAction]:
    """One representative per orbit under Aut(G) x Aut(B) relabelings."""
    if not actions:
        return []
    group = actions[0].group
    lattice = actions[0].lattice
    gauts = group_automorphisms(group)
    bauts = automorphisms_of(lattice)
    seen: set[bytes] = set()
    out: list[GroupAction] = []
    for action in actions:
        act = action.act
        best = None
        for tau in gauts:
            tau = np.asarray(tau)
            for sigma in bauts:
                sigma = np.asarray(sigma)
                sigma_inv = np.empty_like(sigma)
                sigma_inv[sigma] = np.arange(len(sigma))
                moved = sigma_inv[act[sigma[:, None], tau[None, :]]]
                key = moved.tobytes()
                if best is None or key < best:
                    best = key
        if best not in seen:
            seen.add(best)
            out.append(action)
    return out


@dataclass(frozen=True)
class ModelInstance:
    name: str
    action: GroupAction
    algebra: SemidirectAlgebra
    system: RestrictionSystem


def generate_model_suite(
    max_group: int = MAX_SUITE_GROUP, max_band: int = MAX_SUITE_BAND
) -> list[ModelInstance]:
    """All catalog groups against all skew lattices up to the bound, every
    action up to equivalence, each instance in algebra and groupoid form."""
    if max_group > MAX_SUITE_GROUP:
        raise BoundExceededError(
            f"group bound {max_group} exceeds catalog maximum {MAX_SUITE_GROUP}"
        )
    if max_band > MAX_SUITE_BAND:
        raise BoundExceededError(
            f"band bound {max_band} exceeds configured maximum {MAX_SUITE_BAND}"
        )
    lattices = {nb: enumerate_skew_lattices(nb) for nb in range(1, max_band + 1)}
    suite: list[ModelInstance] = []
    for gname, group in GROUP_CATALOG.items():
        if group.order > max_group:
            continue
        for nb, band_lattices in lattices.items():
            for bi, lattice in enumerate(band_lattices):
                actions = dedupe_actions(enumerate_actions(group, lattice))
                for k, action in enumerate(actions):
                    name = f"{gname}xB{nb}.{bi}a{k}"
                    suite.append(
                        ModelInstance(
                            name,
                            action,
                            semidirect_algebra(action),
                            semidirect_groupoid(action),
                        )
                    )
    return suite


def _translation_maps(S: BiBandAlgebra) -> list[np.ndarray]:
    """Unary maps every congruence must respect: star plus one-sided
    multiplication by each fixed element, for both operations."""
    n = S.order
    maps = [S.star]
    for table in (S.meet.array, S.join.array):
        maps.extend(table[i, :] for i in range(n))
        maps.extend(table[:, i] for i in range(n))
    return maps


def _find(parent: list[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _close(parent: list[int], maps, seed) -> None:
    """Merge the seed pairs and everything compatibility forces: when two
    classes join, each translation map must identify their images too."""
    work = list(seed)
    while work:
        x, y = work.pop()
        if _find(parent, x) == _find(parent, y):
            continue
        parent[_find(parent, y)] = _find(parent, x)
        work.extend((int(m[x]), int(m[y])) for m in maps)


def _max_idempotent_separating_congruence(S: BiBandAlgebra):
    """Class labels of the largest congruence of the full (2,2,1)-algebra
    whose classes contain at most one idempotent, plus a certificate.

    Greedy join of principal congruences: a pair is adopted when the
    congruence it generates on top of the current one still separates the
    idempotents.  The result is maximal by construction; it is the unique
    maximum iff no pair outside it generates a separating congruence on
    its own, which the second pass checks and reports.
    """
    n = S.order
    maps = _translation_maps(S)
    mt, jt, st = S.meet.array, S.join.array, S.star
    idx = np.arange(n)
    idem = np.flatnonzero((mt[idx, idx] == idx) | (jt[idx, idx] == idx))
    pos, neg = mt[idx, st], mt[st, idx]

    def separating(parent):
        roots = {_find(parent, int(e)) for e in idem}
        return len(roots) == len(idem)

    def doomed(s, t):
        # merging s,t forces s∧s* ~ t∧t* and s*∧s ~ t*∧t; if either is a
        # pair of distinct idempotents, no separating congruence holds s~t
        return pos[s] != pos[t] or neg[s] != neg[t]

    parent = list(range(n))
    changed = True
    while changed:
        changed = False
        for s in range(n):
            for t in range(s + 1, n):
                if doomed(s, t) or _find(parent, s) == _find(parent, t):
                    continue
                trial = parent.copy()
                _close(trial, maps, [(s, t)])
                if separating(trial):
                    parent = trial
                    changed = True

    is_max = True
    for s in range(n):
        for t in range(s + 1, n):
            if doomed(s, t) or _find(parent, s) == _find(parent, t):
                continue
            solo = list(range(n))
            _close(solo, maps, [(s, t)])
            if separating(solo):
                is_max = False
                break
        if not is_max:
            break

    labels = np.asarray([_find(parent, x) for x in range(n)])
    return np.unique(labels, return_inverse=True)[1], is_max


def congruence_kernels(action: GroupAction):
    """Per-object kernels K_a = {u : (u,a) ~ (1,a)} under the largest
    idempotent-separating congruence of the pair algebra, with a report on
    the chain K_a ⊆ K_{a∨b} ⊆ K_{(a∨b)∧b} = K_b, equality of all kernels,
    and normality of the common kernel.
    """
    _guard(action)
    S = semidirect_algebra(action)
    labels, is_max = _max_idempotent_separating_congruence(S)
    gt = action.group.table.array
    ginv = action.group.inverse
    jt = action.lattice.join.array
    mt = action.lattice.meet.array
    e = int(action.group.identity)
    nb, ng = action.band_order, action.group_order

    kernels = {
        a: frozenset(
            u for u in range(ng) if labels[S.encode(u, a)] == labels[S.encode(e, a)]
        )
        for a in range(nb)
    }

    report = AxiomReport("congruence kernels")
    report.record("congruence_maximum_exists", is_max, None if is_max else (0,))
    chain_lo = all(
        kernels[a] <= kernels[int(jt[a, b])] for a in range(nb) for b in range(nb)
    )
    report.record("chain_lower", chain_lo, None if chain_lo else (0,))
    chain_hi = all(
        kernels[int(jt[a, b])] <= kernels[int(mt[jt[a, b], b])]
        for a in range(nb)
        for b in range(nb)
    )
    report.record("chain_upper", chain_hi, None if chain_hi else (0,))
    closes = all(int(mt[jt[a, b], b]) == b for a in range(nb) for b in range(nb))
    report.record("chain_closes", closes, None if closes else (0,))
    first = kernels[0]
    equal = all(kernels[a] == first for a in range(nb))
    report.record("kernels_equal", equal, None if equal else (0,))
    normal = all(
        int(gt[gt[w, u], ginv[w]]) in first for w in range(ng) for u in first
    )
    report.record("kernel_normal", normal, None if normal else (0,))
    return kernels, report


def _top_of(lattice: SkewLatticeTable):
    mt, jt = lattice.meet.array, lattice.join.array
    idx = np.arange(lattice.order)
    for t in range(lattice.order):
        if (
            (mt[t, :] == idx).all()
            and (mt[:, t] == idx).all()
            and (jt[t, :] == t).all()
            and (jt[:, t] == t).all()
        ):
            return t
    return None


def _bottom_of(lattice: SkewLatticeTable):
    mt, jt = lattice.meet.array, lattice.join.array
    idx = np.arange(lattice.order)
    for z in range(lattice.order):
        if (
            (jt[z, :] == idx).all()
            and (jt[:, z] == idx).all()
            and (mt[z, :] == z).all()
            and (mt[:, z] == z).all()
        ):
            return z
    return None


def normal_form_report(action: GroupAction) -> AxiomReport:
    """(u,a) = u∧a with u embedded as (u, top), and (u,a) = u∨a with u
    embedded as (u, bottom); each checked only when the needed extreme
    element exists, otherwise recorded as skipped."""
    _guard(action)
    S = semidirect_algebra(action)
    e = int(action.group.identity)
    nb, ng = action.band_order, action.group_order
    report = AxiomReport("normal form")

    top = _top_of(action.lattice)
    if top is None:
        report.record(
            "normal_form_meet", True, required=False, note="skipped: objects have no top"
        )
    else:
        mt = S.meet.array
        ok = all(
            mt[S.encode(u, top), S.encode(e, a)] == S.encode(u, a)
            for u in range(ng)
            for a in range(nb)
        )
        report.record("normal_form_meet", ok, None if ok else (0,))

    bottom = _bottom_of(action.lattice)
    if bottom is None:
        report.record(
            "normal_form_join",
            True,
            required=False,
            note="skipped: objects have no bottom",
        )
    else:
        jt = S.join.array
        ok = all(
            jt[S.encode(u, bottom), S.encode(e, a)] == S.encode(u, a)
            for u in range(ng)
            for a in range(nb)
        )
        report.record("normal_form_join", ok, None if ok else (0,))
    return report
