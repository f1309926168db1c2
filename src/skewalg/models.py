"""Semidirect products of groups acting by automorphisms on skew lattices.

Every construction here starts from a GroupAction: a group G, a skew lattice
B, and a right action table act[a, u] = a^u whose maps a -> a^u preserve
both band operations. From one action we build

  * the pair algebra on G x B with (u,a)(v,b) = (uv, a^v . b) for each band
    operation and star (u,a)* = (u^-1, a^{u^-1}),
  * the groupoid with objects B and morphisms (b, g) : b -> b^g, carrying
    the restriction and extension operators by object-wise conjugation,
  * the congruence kernels K_a collected from the largest congruence of the
    pair algebra that separates idempotents.  That congruence is computed
    by partition refinement (Moore's algorithm, as in DFA minimisation):
    start from the pairs with equal s∧s* and s*∧s and split classes by the
    classes of their images under the star and every one-sided product
    until nothing splits; a certificate then checks that the partition is a
    congruence, separates the idempotents, and contains every congruence
    that does.

The discrete system over a lattice and the one-object system of a group
are the groupoids of trivial actions: the one-element group on the
lattice, and the group on the one-element lattice.

generate_model_suite instantiates the whole catalog of small groups against
every skew lattice up to the bound, deduplicated up to simultaneous group
and band automorphisms (computed once per group and per lattice); this
suite is the test-bed for every checker in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import BiBandAlgebra
from .enumeration import enumerate_skew_lattices
from .errors import ActionInvalidError, BoundExceededError
from .groupoid import FiniteGroupoid
from .isomorphism import automorphisms_of, least_rows, lex_keys, relabellings
from .report import AxiomReport
from .system import RestrictionSystem
from .tables import GroupTable, SkewLatticeTable, frozen

__all__ = [
    "GROUP_CATALOG",
    "GroupAction",
    "ModelInstance",
    "SemidirectAlgebra",
    "check_action",
    "congruence_kernels",
    "cyclic_group",
    "dedupe_actions",
    "discrete_system",
    "enumerate_actions",
    "generate_model_suite",
    "group_system",
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
        act = frozen(act)
        if act.shape != (lattice.order, group.order):
            raise ActionInvalidError(
                f"action table must have shape {(lattice.order, group.order)}, "
                f"got {act.shape}"
            )
        if act.size and (act.min() < 0 or act.max() >= lattice.order):
            raise ActionInvalidError("action entries out of range")
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
    if not isinstance(lattice, SkewLatticeTable):
        lattice = SkewLatticeTable(*lattice)
    act = np.repeat(np.arange(lattice.order)[:, None], group.order, axis=1)
    return GroupAction(group, lattice, act)


_ACTION_LAWS = ("identity_action", "composition_action", "automorphism_meet", "automorphism_join")


def _action_laws(acts, group: GroupTable, lattice: SkewLatticeTable) -> list[np.ndarray]:
    """The masks of _ACTION_LAWS over a stack acts[c, a, u] of candidate
    action tables, each led by the candidate axis c: a^e = a over (a),
    a^{uv} = (a^u)^v over (a, u, v), and (a∧b)^u = a^u ∧ b^u, then the same
    for ∨, over (a, b, u)."""
    gt = group.table.array
    mt, jt = lattice.meet.array, lattice.join.array
    pairs = acts[:, :, None, :], acts[:, None, :, :]
    return [
        acts[..., group.identity] == np.arange(lattice.order),
        acts[np.arange(len(acts))[:, None, None], acts] == acts[..., gt],
        acts[:, mt, :] == mt[pairs],
        acts[:, jt, :] == jt[pairs],
    ]


def check_action(action: GroupAction) -> AxiomReport:
    """Identity and composition laws plus, per group element, preservation
    of both band operations."""
    report = AxiomReport("group action")
    for name, mask in zip(_ACTION_LAWS, _action_laws(action.act[None], action.group, action.lattice)):
        report.record_mask(name, mask[0])
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
        self._build(action)

    @classmethod
    def _of_checked(cls, action: GroupAction) -> "SemidirectAlgebra":
        """The algebra of an action that has already passed the action laws."""
        algebra = cls.__new__(cls)
        algebra._build(action)
        return algebra

    def _build(self, action: GroupAction) -> None:
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
    return _semidirect_groupoid(action)


def _semidirect_groupoid(action: GroupAction) -> RestrictionSystem:
    """semidirect_groupoid of an action that has already passed the action laws."""
    gt = action.group.table.array
    ginv = action.group.inverse
    mt = action.lattice.meet.array
    jt = action.lattice.join.array
    act = action.act
    nb, ng = action.band_order, action.group_order
    m = nb * ng
    i = np.arange(m)
    b, g = i // ng, i % ng

    dom = b
    cod = act[b, g]
    comp = np.where(
        cod[:, None] == dom[None, :], b[:, None] * ng + gt[g[:, None], g[None, :]], -1
    )
    inv = cod * ng + ginv[g]

    obj = np.arange(nb)[:, None]
    back = act[obj.T, ginv[g][:, None]] * ng + g[:, None]
    groupoid = FiniteGroupoid(nb, dom, cod, comp, inv)
    return RestrictionSystem.on_regions(
        groupoid, action.lattice, [(op[obj, dom] * ng + g, back) for op in (mt, jt)]
    )


# a trivial action passes every action law whatever its tables, so the two
# systems below skip the guard
def discrete_system(objects: SkewLatticeTable) -> RestrictionSystem:
    """Identity morphisms only; the operators act by the object operations."""
    return _semidirect_groupoid(trivial_action(cyclic_group(1), objects))


def group_system(group: GroupTable) -> RestrictionSystem:
    """A group as a one-object system; all four operators are trivial."""
    return _semidirect_groupoid(trivial_action(group, SkewLatticeTable([[0]], [[0]])))


def _element_words(group: GroupTable) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """A generating set, each generator the least element outside the
    subgroup of those before it, and a shortest word in them for every
    element, found breadth first from the identity."""
    gt = group.table.array
    gens: list[int] = []
    while True:
        words: dict[int, tuple[int, ...]] = {int(group.identity): ()}
        queue = [int(group.identity)]
        while queue:
            x = queue.pop(0)
            for g in gens:
                y = int(gt[x, g])
                if y not in words:
                    words[y] = words[x] + (g,)
                    queue.append(y)
        missing = [g for g in range(group.order) if g not in words]
        if not missing:
            return gens, words
        gens.append(missing[0])


def enumerate_actions(group: GroupTable, lattice: SkewLatticeTable) -> list[GroupAction]:
    """Every action of the group on the skew lattice, one table each.

    An action assigns each group element an automorphism of the lattice with
    a^{uv} = (a^u)^v, so the assignment is determined by the images of a
    generating set; every combination is built as one stack of candidate
    tables, the action laws are evaluated over the whole stack, and the
    candidates that pass all of them are kept in product order.
    """
    return _enumerate_actions(group, lattice, automorphisms_of(lattice))


def _enumerate_actions(group, lattice, auts) -> list[GroupAction]:
    gens, words = _element_words(group)
    nb = lattice.order
    perms = np.asarray(auts, dtype=np.int64)
    # picks[c, j]: the automorphism candidate c assigns to generator j
    picks = np.array(list(itertools.product(range(len(auts)), repeat=len(gens))), dtype=np.intp)
    chosen = dict(zip(gens, perms[picks.T]))
    identity = np.broadcast_to(np.arange(nb), (len(picks), nb))
    columns = []
    for u in range(group.order):
        # phi(x.g) = phi(g) o phi(x), so fold the word right-to-left
        perm = identity
        for g in words[u]:
            perm = np.take_along_axis(chosen[g], perm, axis=1)
        columns.append(perm)
    acts = np.stack(columns, axis=-1)
    ok = np.ones(len(acts), dtype=bool)
    for mask in _action_laws(acts, group, lattice):
        ok &= mask.reshape(len(acts), -1).all(axis=1)
    return [GroupAction(group, lattice, act) for act in acts[ok]]


def dedupe_actions(actions: list[GroupAction]) -> list[GroupAction]:
    """One representative per orbit under Aut(G) x Aut(B) relabelings.
    Every action must have the first action's group and lattice."""
    if not actions:
        return []
    group, lattice = actions[0].group, actions[0].lattice
    if any(a.group != group or a.lattice != lattice for a in actions):
        raise ValueError("dedupe_actions needs actions of one group on one lattice")
    return _dedupe_actions(actions, automorphisms_of(group), automorphisms_of(lattice))


def _dedupe_actions(actions, gauts, bauts) -> list[GroupAction]:
    """The first action of each orbit, in input order.  One relabellings
    gather renames every action by each (σ, τ) in Aut(B) x Aut(G),
    act'[a, u] = σ^-1(act[σ(a), τ(u)]); an action's least_rows names its orbit."""
    sigma = np.repeat(np.asarray(bauts), len(gauts), axis=0)
    tau = np.tile(np.asarray(gauts), (len(bauts), 1))
    moved = relabellings(np.array([a.act for a in actions]), sigma, tau, np.argsort(sigma, axis=1))
    keys = lex_keys(least_rows(moved.reshape(*moved.shape[:2], -1)))
    return [actions[i] for i in np.sort(np.unique(keys, return_index=True)[1])]


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
    # automorphisms are computed once per lattice and per group, not per pair
    lattices = {
        nb: [(lattice, automorphisms_of(lattice)) for lattice in enumerate_skew_lattices(nb)]
        for nb in range(1, max_band + 1)
    }
    suite: list[ModelInstance] = []
    for gname, group in GROUP_CATALOG.items():
        if group.order > max_group:
            continue
        gauts = automorphisms_of(group)
        for nb, band_lattices in lattices.items():
            for bi, (lattice, bauts) in enumerate(band_lattices):
                actions = _dedupe_actions(
                    _enumerate_actions(group, lattice, bauts), gauts, bauts
                )
                # every kept action passed the action laws while
                # enumerated, so the builders below skip the guard
                for k, action in enumerate(actions):
                    name = f"{gname}xB{nb}.{bi}a{k}"
                    suite.append(
                        ModelInstance(
                            name,
                            action,
                            SemidirectAlgebra._of_checked(action),
                            _semidirect_groupoid(action),
                        )
                    )
    return suite


def _unary_images(S: BiBandAlgebra) -> np.ndarray:
    """Column k holds the k-th of the 4n+1 unary maps every congruence must
    respect: the star, then x -> i∧x, x∧i, i∨x, x∨i for each element i."""
    mt, jt = S.meet.array, S.join.array
    return np.hstack([S.star[:, None], mt.T, mt, jt.T, jt])


def _max_idempotent_separating_congruence(S: BiBandAlgebra):
    """Class labels of the largest congruence of the full (2,2,1)-algebra
    whose classes contain at most one idempotent, plus its per-element
    certificate.

    Moore refinement, as in DFA minimisation (Howie's μ for semigroups):
    start from E = {(s,t) : s∧s* = t∧t* and s*∧s = t*∧t} and split classes
    by the labels of their images under every unary map until the class
    count stops growing.  The result is the coarsest refinement of E that
    every map respects, i.e. the largest congruence inside E.
    """
    n = S.order
    mt, st = S.meet.array, S.star
    idx = np.arange(n)
    images = _unary_images(S)
    rows, count = np.stack([mt[idx, st], mt[st, idx]], axis=1), -1
    while True:
        # one label per distinct row: equal rows have equal byte keys
        labels = np.unique(lex_keys(rows), return_inverse=True)[1]
        grown = labels.max(initial=-1) + 1
        if grown == count:
            return labels, _certificate(S, labels)
        rows, count = np.hstack([labels[:, None], labels[images]]), grown


def _certificate(S: BiBandAlgebra, labels) -> np.ndarray:
    """Per element x, whether x passes the certificate that the refined
    `labels` are the maximum idempotent-separating congruence:

      * the images of x under every unary map lie in the classes of the
        images of the first element of its class (a congruence);
      * x is not an idempotent whose class holds an earlier idempotent
        (the congruence separates idempotents);
      * x∧x* and x*∧x are idempotents, so an idempotent-separating
        congruence only identifies pairs whose parts agree and lies in E.

    Applied to the largest congruence inside E, all True makes it the
    maximum.
    """
    images = _unary_images(S)
    n = S.order
    mt, jt, st = S.meet.array, S.join.array, S.star
    _, first, labels = np.unique(labels, return_index=True, return_inverse=True)
    idx = np.arange(n)
    idem = (mt[idx, idx] == idx) | (jt[idx, idx] == idx)
    idem_at = np.flatnonzero(idem)
    lone = ~idem
    lone[idem_at[np.unique(labels[idem_at], return_index=True)[1]]] = True
    compatible = (labels[images] == labels[images[first[labels]]]).all(axis=1)
    return compatible & lone & idem[mt[idx, st]] & idem[mt[st, idx]]


def congruence_kernels(action: GroupAction):
    """Per-object kernels K_a = {u : (u,a) ~ (1,a)} under the largest
    idempotent-separating congruence of the pair algebra, with a report on
    the chain K_a ⊆ K_{a∨b} ⊆ K_{(a∨b)∧b} = K_b, equality of all kernels,
    and normality of the common kernel.

    congruence_maximum_exists records _certificate and names the first
    element of the pair algebra that fails it; the chain flags
    carry the first failing (a, b), kernels_equal the first object a whose
    kernel differs from K_0, and kernel_normal the first (w, u) with u in
    K_0 but w u w^-1 outside it.
    """
    S = semidirect_algebra(action)
    labels, certified = _max_idempotent_separating_congruence(S)
    gt = action.group.table.array
    ginv = action.group.inverse
    jt = action.lattice.join.array
    mt = action.lattice.meet.array
    e = int(action.group.identity)
    nb, ng = action.band_order, action.group_order

    # member[a, u]: (u, a) lies in the class of (1, a)
    grid = labels.reshape(ng, nb).T
    member = grid == grid[:, [e]]
    kernels = {a: frozenset(np.flatnonzero(member[a]).tolist()) for a in range(nb)}

    def within(sub, sup):
        return (~member[sub] | member[sup]).all(axis=-1)

    upper = mt[jt, np.arange(nb)[None, :]]
    first = member[0]
    conjugates = gt[gt, ginv[:, None]]

    report = AxiomReport("congruence kernels")
    report.record_mask("congruence_maximum_exists", certified)
    report.record_mask("chain_lower", within(np.arange(nb)[:, None], jt))
    report.record_mask("chain_upper", within(jt, upper))
    report.record_mask("chain_closes", upper == np.arange(nb)[None, :])
    report.record_mask("kernels_equal", (member == first).all(axis=1))
    report.record_mask("kernel_normal", ~first[None, :] | first[conjugates])
    return kernels, report


def _extreme(neutral: np.ndarray, absorbing: np.ndarray):
    """The first element that is two-sided neutral for one operation and
    two-sided absorbing for the other, or None: the top is neutral for meet
    and absorbing for join, the bottom the other way round."""
    idx = np.arange(len(neutral))
    found = np.flatnonzero(
        (neutral == idx).all(axis=1)
        & (neutral.T == idx).all(axis=1)
        & (absorbing == idx[:, None]).all(axis=1)
        & (absorbing.T == idx[:, None]).all(axis=1)
    )
    return int(found[0]) if found.size else None


def normal_form_report(action: GroupAction) -> AxiomReport:
    """(u,a) = u∧a with u embedded as (u, top), and (u,a) = u∨a with u
    embedded as (u, bottom); each checked only when the needed extreme
    element exists, otherwise recorded as skipped.  A failing flag names
    the first (u, a) where the product differs from (u, a)."""
    S = semidirect_algebra(action)
    e = int(action.group.identity)
    nb, ng = action.band_order, action.group_order
    pair = np.arange(ng * nb).reshape(ng, nb)
    report = AxiomReport("normal form")

    mt, jt = action.lattice.meet.array, action.lattice.join.array
    for name, extreme, table, missing in (
        ("normal_form_meet", _extreme(mt, jt), S.meet.array, "top"),
        ("normal_form_join", _extreme(jt, mt), S.join.array, "bottom"),
    ):
        if extreme is None:
            report.record(
                name, True, required=False, note=f"skipped: objects have no {missing}"
            )
        else:
            report.record_mask(name, table[pair[:, [extreme]], pair[[e], :]] == pair)
    return report
