"""Gamps: pregamps with a distinguished inner partial subalgebra.

Implements the property zoo (strong, distance-generated, congruence-tractable,
congruence n-permutable, and their lattice variants; the distance and cutting
properties hold through a semilattice map phi, the identity by default),
realizations, quotients, the four forgetful/embedding functors, chains, and
the buttress construction of diagrams of finite subgamps."""

from itertools import combinations

from .errors import NotIdealInduced, NotStrong, WrongSignature, cross_check
from .palg import (
    PalgMorphism,
    UNDEFINED,
    chain_cocone,
    image_palg,
    is_lattice_signature,
    is_palg_isomorphism,
    is_strong_sub,
    undefined_tuple,
)
from .pregamp import (
    PregampMorphism,
    canonical_embedding as pregamp_embedding,
    induced_pregamp_morphism,
    is_congruence_tractable_morphism,
    pga,
    quotient_pregamp,
    sub_pregamp,
    tractability_verdict,
)
from .semilattice import SemMorphism, is_ideal_induced
from .util import Verdict, kept, shortest_path, sort_key, sorted_elements
from . import congruence as _cong


class Gamp:
    """Inner partial subalgebra together with its ambient pregamp."""

    def __init__(self, inner, pregamp):
        self.inner = inner
        self.pregamp = pregamp

    @property
    def outer(self):
        return self.pregamp.carrier

    @property
    def sem(self):
        return self.pregamp.sem

    def delta(self, x, y):
        return self.pregamp.delta(x, y)

    def __eq__(self, other):
        return (
            isinstance(other, Gamp)
            and self.inner == other.inner
            and self.pregamp == other.pregamp
        )

    def __repr__(self):
        return f"Gamp(inner {len(self.inner)}, outer {len(self.outer)}, sem {len(self.sem)})"

    def is_lattice_signature(self):
        return is_lattice_signature(self.outer)


class GampMorphism:
    """Pregamp morphism whose carrier part maps the inner part inside the
    target's inner part."""

    def __init__(self, source, target, f, fsem):
        self.source = source
        self.target = target
        self.pg = PregampMorphism(source.pregamp, target.pregamp, f, fsem)

    def validate(self):
        """The pregamp check, then the inner image's; returns the morphism."""
        self.pg.validate()
        if not image_palg(self.f, self.source.inner).is_partial_sub_of(self.target.inner):
            raise ValueError("inner part not preserved")
        return self

    @property
    def f(self):
        return self.pg.f

    @property
    def fsem(self):
        return self.pg.fsem

    def after(self, other):
        return GampMorphism(
            other.source, self.target, self.f.after(other.f), self.fsem.after(other.fsem)
        )

    def __eq__(self, other):
        return isinstance(other, GampMorphism) and self.pg == other.pg

    def __repr__(self):
        return f"GampMorphism({self.f!r})"

    @classmethod
    def identity(cls, g):
        return cls(g, g, PalgMorphism.identity(g.outer), SemMorphism.identity(g.sem))


def canonical_embedding(sub, g):
    """Inclusion morphism of a subgamp."""
    pm = pregamp_embedding(sub.pregamp, g.pregamp)
    return GampMorphism(sub, g, pm.f, pm.fsem)


def is_subgamp(sub, g):
    return (
        sub.inner.is_partial_sub_of(g.inner)
        and sub.outer.is_partial_sub_of(g.outer)
        and set(sub.sem.elements) <= set(g.sem.elements)
        and all(
            sub.delta(x, y) == g.delta(x, y)
            for x in sub.outer.universe
            for y in sub.outer.universe
        )
    )


class Realization:
    """Ambient total algebra with a semilattice embedding matching the
    distance to principal congruences."""

    def __init__(self, ambient, chi):
        self.ambient = ambient
        self.chi = chi

    @property
    def isomorphic(self):
        return self.chi.is_injective() and self.chi.is_surjective()


def check_realization(g, r):
    """Containment, embedding and the principal-congruence equation, by scan."""
    if not r.ambient.is_total():
        return False
    if not g.outer.is_partial_sub_of(r.ambient):
        return False
    if r.chi.source != g.sem:
        return False
    try:
        r.chi.validate()
    except ValueError:
        return False
    if not r.chi.is_injective():
        return False
    for x in g.outer.universe:
        for y in g.outer.universe:
            if r.chi(g.delta(x, y)) != _cong.principal_congruence(r.ambient, x, y):
                return False
    return True


def ga(algebra):
    """The gamp of a total algebra: inner part equal to the whole algebra.
    One per algebra object, kept on the algebra like its pregamp."""
    pg = pga(algebra)
    return kept(algebra, "_ga", lambda: Gamp(algebra, pg))


def ga_mor(f):
    return GampMorphism(ga(f.source), ga(f.target), f, _cong.conc_morphism(f))


def cg(g):
    return g.sem


def pggr(g):
    return g.pregamp


def pggl(g):
    """Inner pregamp: the inner part with the restricted distance. When the
    inner part is the whole carrier, as in every ga gamp, that is the
    pregamp itself; otherwise it is built once per gamp object and kept."""
    if g.inner is g.pregamp.carrier:
        return g.pregamp
    return kept(g, "_pggl", lambda: sub_pregamp(g.pregamp, g.inner, g.sem))


def pggl_mor(fm):
    inner, at = fm.source.inner, fm.target.inner.point
    return PregampMorphism(
        pggl(fm.source), pggl(fm.target),
        PalgMorphism(inner, fm.target.inner, [at[fm.f(x)] for x in inner.universe]),
        fm.fsem,
    )


def pggr_mor(fm):
    return fm.pg


# ---------------------------------------------------------------------------
# chains


def is_chain(g, xs):
    """Sequence of inner elements whose pairwise meets are defined in the
    outer part and realize the comparabilities: x meet y = x for x before
    y, one way round only, where the interpolants of
    congruence.chain_interpolants need y meet x = x as well."""
    if not g.is_lattice_signature():
        raise WrongSignature("chains require the lattice signature")
    xs = list(xs)
    for i, x in enumerate(xs):
        if x not in g.inner:
            return False
        for y in xs[i:]:
            if g.outer.apply("meet", (x, y)) != x:
                return False
    return True


def presqueordre_facts(g, xs):
    """For a chain of a strong lattice gamp: both-orders lattice equations and
    the two displayed distance laws. Raises NotStrong when the gamp is not."""
    if not check_property(g, "strong"):
        raise NotStrong("the almost-order facts require a strong gamp")
    xs = list(xs)
    cross_check(is_chain(g, xs), "input must be a chain")
    n = len(xs)
    apply = g.outer.apply
    for i in range(n):
        for j in range(i, n):
            a, b = xs[i], xs[j]
            cross_check(apply("meet", (a, b)) == a == apply("meet", (b, a)), f"chain meet at {(a, b)}")
            cross_check(apply("join", (a, b)) == b == apply("join", (b, a)), f"chain join at {(a, b)}")
    S = g.sem
    for i in range(n):
        for j in range(i, n):
            for k in range(i, j + 1):
                for k2 in range(k, j + 1):
                    d = g.delta(xs[k], xs[k2])
                    cross_check(S.leq(d, g.delta(xs[i], xs[j])), f"distance law at {(i, j)}")
            total = S.join_all(g.delta(xs[k], xs[k + 1]) for k in range(i, j))
            cross_check(g.delta(xs[i], xs[j]) == total, f"distance sum at {(i, j)}")
    return True


# ---------------------------------------------------------------------------
# gamp properties


def _dg_values(g, chains_only):
    vals = []
    els = list(g.inner.universe)
    for i, x in enumerate(els):
        for y in els[i + 1 :]:
            if chains_only and not (is_chain(g, [x, y]) or is_chain(g, [y, x])):
                continue
            vals.append(g.delta(x, y))
    return vals


def _check_distance_generated(g, phi, chains_only):
    if chains_only and not g.is_lattice_signature():
        raise WrongSignature("chain form requires the lattice signature")
    target = phi.target
    gen = target.join_closure(phi(v) for v in _dg_values(g, chains_only))
    if gen == frozenset(target.elements):
        return Verdict.true()
    missing = sorted_elements(set(target.elements) - gen)[0]
    return Verdict.false(missing)


def _check_tractable(g, phi, m_cap):
    """Property (4)/(4'): instances over inner points, term chains in the outer
    part, equalities up to the phi-kernel. The instances read the pregamp's
    own distance rows, which hold the inner part's."""
    outer, zero = g.outer.universe, phi.target.index(phi.target.zero)
    in_kernel = [i == zero for i in phi.to_between(g.sem, phi.target)]
    # kernel-sized jumps are allowed between chain steps
    kernel_pairs = [
        (outer[i], outer[j])
        for i, row in enumerate(g.pregamp.dist_rows)
        for j, k in enumerate(row)
        if i < j and in_kernel[k]
    ]
    points = list(g.inner.universe)
    return tractability_verdict(g.pregamp, points, phi, m_cap, lambda x: x, g.outer, kernel_pairs)


def _check_n_permutable(g, n, lattice_form):
    """Property (8) or the lattice-specific strengthening.

    Every (n+1)-tuple of inner points needs interpolants among the outer
    points; small instances only. A failure names its reason and tuple.
    """
    if n is None:
        raise ValueError("n-permutability needs n")
    if n < 1:
        raise ValueError("n must be positive")
    if lattice_form and not g.is_lattice_signature():
        raise WrongSignature("lattice permutability requires the lattice signature")
    failures = _cong._chain_condition_failures(g.pregamp, g.inner.universe, n, lattice_form)
    failure = next(failures, None)
    return Verdict.true() if failure is None else Verdict.false(failure)


def check_property(g, which, n=None, m_cap=2, phi=None):
    """Dispatch for the gamp property zoo; see the module docstring.

    distance_generated(_chains) and congruence_tractable hold through phi, a
    semilattice morphism out of g.sem (default: its identity); passing phi to
    any other property raises ValueError. congruence_tractable is true or
    false over the instances of at most m_cap generating pairs, with m_cap
    reported in the verdict's bounds; the others are decided exactly on
    finite gamps.
    """
    if which in ("distance_generated", "distance_generated_chains", "congruence_tractable"):
        phi = SemMorphism.identity(g.sem) if phi is None else phi
        if which == "congruence_tractable":
            return _check_tractable(g, phi, m_cap)
        return _check_distance_generated(
            g, phi, chains_only=(which == "distance_generated_chains")
        )
    if phi is not None:
        raise ValueError(f"gamp property {which!r} takes no phi")
    if which == "strong":
        ok = is_strong_sub(g.inner, g.outer)
        return Verdict.true() if ok else Verdict.false()
    if which == "n_permutable":
        return _check_n_permutable(g, n, lattice_form=False)
    if which == "lattice_n_permutable":
        return _check_n_permutable(g, n, lattice_form=True)
    raise ValueError(f"unknown gamp property {which!r}")


# ---------------------------------------------------------------------------
# morphism properties


def check_morphism_property(fm, which, x_cap=3, phi=None):
    """strong / operational / cuttable / cuttable_chains for a gamp morphism.

    The cuttable pair holds through phi, a semilattice morphism out of the
    target's semilattice (default: its identity); passing phi to strong or
    operational raises ValueError.
    """
    if which in ("cuttable", "cuttable_chains"):
        phi = SemMorphism.identity(fm.target.sem) if phi is None else phi
        return _check_cuttable(fm, phi, chains=(which == "cuttable_chains"), x_cap=x_cap)
    if phi is not None:
        raise ValueError(f"morphism property {which!r} takes no phi")
    if which == "strong":
        img = image_palg(fm.f)
        ok = img.is_partial_sub_of(fm.target.inner) and is_strong_sub(
            img, fm.target.inner
        )
        return Verdict.true() if ok else Verdict.false()
    if which == "operational":
        # the image first, then the target's other inner elements
        pool = dict.fromkeys([*map(fm.f, fm.source.outer.universe), *fm.target.inner.universe])
        missing = undefined_tuple(fm.target.outer, list(pool))
        return Verdict.true() if missing is None else Verdict.false(missing)
    raise ValueError(f"unknown morphism property {which!r}")


def _check_cuttable(fm, phi, chains, x_cap):
    """Congruence-cuttable (with chains) through phi.

    Image a partial sublattice of the target's inner part; for each small
    X inside phi's target and each source pair under the X-join bound, a walk
    (or chain) inside the inner part whose steps have phi-distance under some
    member of X. Distances and down-sets are read on indices, through S's
    join_rows. X matters only through the union of its down-sets, the
    allowed steps, and its join, which picks the pairs and is the join of
    that union; so an X whose union was already checked is skipped, and the
    first failing X does not change. For each set of allowed steps, what an
    image point reaches is read, as a bit mask, from one adjacency mask
    per inner point, and one chain search runs per endpoints. The first
    failing (x, y, X) is named in source-pair order. x_cap must be at least
    0 (else ValueError).
    """
    if x_cap < 0:
        raise ValueError("x_cap must be at least 0")
    if chains and not fm.target.is_lattice_signature():
        raise WrongSignature("chain cutting requires the lattice signature")
    bounds = {"x_cap": x_cap}
    img = image_palg(fm.f)
    if not img.is_partial_sub_of(fm.target.inner):
        return Verdict.false("image not inside the inner part", bounds)
    tgt, S = fm.target, phi.target
    J, zero = S.join_rows, S.index(S.zero)
    inner = list(tgt.inner.universe)
    # the phi-distances of inner points, which hold the image, as indices
    # into S, and the down-set of each element of S as a bit mask
    outer, at = tgt.outer, tgt.outer.point
    to_s = phi.to_between(tgt.sem, S)
    rows = [tgt.pregamp.dist_rows[at[a]] for a in inner]
    dist = [[to_s[row[at[b]]] for b in inner] for row in rows]
    downs = [sum(1 << v for v in range(len(S)) if J[v][u] == u) for u in range(len(S))]
    pos = tgt.inner.point
    pairs = []
    for x in fm.source.outer.universe:
        for y in fm.source.outer.universe:
            fx, fy = fm.f(x), fm.f(y)
            ends = (outer.apply("meet", (fx, fy)), outer.apply("join", (fx, fy))) if chains else (None, None)
            pairs.append((x, y, pos[fx], pos[fy], dist[pos[fx]][pos[fy]], ends))
    order = sorted(range(len(S)), key=lambda u: sort_key(S.elements[u]))
    checked = set()  # the allowed steps of the X already walked

    # X ranges over nonempty finite subsets: the empty instance would force
    # the phi-kernel to be trivial on images, which no proper quotient
    # projection can satisfy.
    for r in range(1, x_cap + 1):
        for combo in combinations(order, r):
            bound, allowed = zero, 0
            for u in combo:
                bound, allowed = J[bound][u], allowed | downs[u]
            if allowed in checked:
                continue
            checked.add(allowed)
            xset = tuple(map(S.elements.__getitem__, combo))
            steps, reach, walks = None, {}, {}  # adjacency masks, reach by start, walks by endpoints

            def step_ok(a, b):
                return allowed >> dist[pos[a]][pos[b]] & 1

            for x, y, i, j, d, (m, top) in pairs:
                if J[d][bound] != bound:
                    continue
                if not chains:
                    if i not in reach:
                        if steps is None:
                            steps = [
                                sum(1 << v for v, e in enumerate(row) if allowed >> e & 1) for row in dist
                            ]
                        seen = todo = 1 << i
                        while todo:
                            low = todo & -todo
                            new = steps[low.bit_length() - 1] & ~seen
                            seen, todo = seen | new, todo ^ low | new
                        reach[i] = seen
                    if not reach[i] >> j & 1:
                        return Verdict.false((x, y, xset), bounds)
                    continue
                if m is UNDEFINED or top is UNDEFINED:
                    return Verdict.false(("endpoints undefined", x, y, xset), bounds)
                if (m, top) not in walks:
                    walks[(m, top)] = _chain_walk(fm.target, m, top, step_ok)
                if not walks[(m, top)]:
                    return Verdict.false((x, y, xset), bounds)
    return Verdict.true(None, bounds)


def _chain_walk(g, lo, hi, step_ok):
    """Chain lo = c0 < c1 < ... < ck = hi of inner elements with allowed steps.

    Chain comparability only requires the one-sided meet equations, exactly
    as in the chain definition. Whether a chain extends by v depends on all
    its members, so the search runs over (last element, members) states.
    """
    if lo == hi:
        return True
    if not (lo in g.inner and hi in g.inner):
        return False
    inner = list(g.inner.universe)
    at, meets = g.outer.point, g.outer.tables["meet"]

    def below(a, b):
        return meets.get((at[a], at[b])) == at[a]

    def extensions(state):
        u, members = state
        for v in inner:
            if v not in members and all(below(w, v) for w in members) and step_ok(u, v):
                yield ((hi, None) if v == hi else (v, members | {v})), None

    return shortest_path((lo, frozenset([lo])), (hi, None), extensions) is not None


# ---------------------------------------------------------------------------
# quotients


def quotient_gamp(g, ideal):
    """Quotient gamp, its projection, and nothing else; preservation facts are
    checked by the callers and the test suite."""
    qpg, proj = quotient_pregamp(g.pregamp, ideal)
    inner_q = image_palg(proj.f, g.inner)
    qg = Gamp(inner_q, qpg)
    return qg, GampMorphism(g, qg, proj.f, proj.fsem)


def induced_gamp_morphism(fm, pi, pj):
    """Descend a gamp morphism along the quotient projections pi and pj of
    its ends (induced_pregamp_morphism on the pregamp parts)."""
    ind = induced_pregamp_morphism(fm.pg, pi.pg, pj.pg)
    return GampMorphism(pi.target, pj.target, ind.f, ind.fsem)


# ---------------------------------------------------------------------------
# chain colimits


def gamp_chain_colimit(morphisms, window=1, expect_algebra=False):
    """Colimit of a finite chain of gamps: the top object with its cocone.

    Reports stabilization over the window; with expect_algebra, checks the
    partial-lifting colimit fact: stable strong plus tractable links force the
    result to be an algebra gamp, and the total algebra is returned alongside.
    """
    morphisms = list(morphisms)
    top, cocone = chain_cocone(morphisms, GampMorphism.identity)
    tail = morphisms[-window:] if window > 0 else []
    stabilized = all(
        is_palg_isomorphism(f.f) and f.fsem.is_injective() and f.fsem.is_surjective()
        for f in tail
    )
    extracted = None
    if expect_algebra and stabilized and tail:
        strong_links = all(bool(check_morphism_property(f, "strong")) for f in tail)
        tractable_links = all(
            bool(is_congruence_tractable_morphism(f.pg)) for f in tail
        )
        if strong_links and tractable_links:
            cross_check(top.outer.is_total(), "stable strong chain must close the operations")
            cross_check(
                set(top.inner.universe) == set(top.outer.universe),
                "inner part must exhaust the carrier",
            )
            extracted = top.outer
    return top, cocone, stabilized, extracted


# ---------------------------------------------------------------------------
# buttress


def _principal_pair_cover(cs, theta, comparable_only, algebra):
    """Pairs whose principal congruences join to theta; greedy cover."""
    pairs = []
    universe = algebra.universe
    if comparable_only:
        meets, points = algebra.tables["meet"], range(len(universe))
        pool = [(universe[i], universe[j]) for i in points for j in points if i != j and meets[(i, j)] == i]
    else:
        pool = [(x, y) for i, x in enumerate(universe) for y in universe[i + 1 :]]
    acc = cs.zero
    for (x, y) in pool:
        p = cs.principal(x, y)
        if cs.leq(p, theta) and not cs.leq(p, acc):
            pairs.append((x, y))
            acc = cs.join(acc, p)
            if acc == theta:
                break
    cross_check(acc == theta, "principal pairs must cover the congruence")
    return pairs


def buttress(
    algebra,
    poset,
    phis,
    with_chains=False,
    n_permutable=None,
    m_cap=2,
):
    """Diagram of finite subgamps of the gamp of a finite algebra.

    phis maps each poset element p to an ideal-induced morphism from the
    compact congruences of the algebra onto a finite semilattice. Every node
    is the algebra's own pregamp (the whole algebra, the principal distance
    and Conc A) with an inner part, and every arrow is the inclusion. A
    minimal node's inner part holds the pairs of a greedy principal cover of
    one lift of each value of phi (comparable pairs only, with chains); every
    other node's inner part is the whole algebra. m_cap, the bound on the
    tractability instances checked, must be at least 0 (else ValueError).

    Postconditions (ideal-induced restrictions, node and arrow properties)
    are re-verified by the property checkers before returning, each
    distinct check once per call (_verify_buttress): a check is a function
    of its inputs, so nodes and arrows with equal inputs share a verdict.
    """
    from .diagram import Diagram, checked

    cs = _cong.conc(algebra)
    for p in poset.elements:
        ok, _ = is_ideal_induced(phis[p])
        if not ok:
            raise NotIdealInduced(f"phi at node {p!r} is not ideal-induced")
        if phis[p].source != cs:
            raise ValueError("phis must start at the algebra's compact congruences")
    if n_permutable is not None:
        ok, _ = _cong.is_n_permutable(algebra, n_permutable)
        if not ok:
            raise ValueError(f"base algebra is not {n_permutable}-permutable")

    whole = ga(algebra)
    if with_chains and not whole.is_lattice_signature():
        raise WrongSignature("chains require the lattice signature")
    nodes = {}
    for r in poset.elements:
        if any(poset.lt(p, r) for p in poset.elements):
            nodes[r] = whole
            continue
        phi = phis[r]
        inner = set()
        for s in phi.target.elements:
            theta = next(t for t in cs.elements if phi(t) == s)
            for (x, y) in _principal_pair_cover(cs, theta, with_chains, algebra):
                inner.update((x, y))
        inner_alg = algebra.restrict_full(inner or {algebra.universe[0]})
        nodes[r] = Gamp(inner_alg, whole.pregamp)

    arrows = {}
    for p in poset.elements:
        for q in poset.elements:
            if poset.leq(p, q):
                arrows[(p, q)] = canonical_embedding(nodes[p], nodes[q])

    diagram = checked(Diagram(poset, nodes, arrows))
    # the entry check ran property (8)'s element-wise pass on the whole gamp
    ran = n_permutable is not None and _cong.elementwise_runs(algebra, n_permutable)
    decided = whole if ran else None
    _verify_buttress(diagram, phis, with_chains, n_permutable, m_cap, decided)
    return diagram


def _verify_buttress(diagram, phis, with_chains, n_permutable, m_cap, decided):
    """Re-verify buttress's postconditions, deciding each distinct check
    once: a check is a function of its inputs, so equal inputs share the
    verdict of the first, and a failure still names the first node or arrow
    in order. Each phis[p] was found ideal-induced on entry and starts at
    the algebra's Conc, so its restriction to a node whose semilattice is
    that Conc is the same map and is not decided again. The checks that do
    not read phi run once per distinct node object (the nodes above the
    minimal ones share one gamp); those that read it, once per node object
    and equal restriction. An arrow is the inclusion of its ends, so its
    checks run once per pair of end objects and equal phi. Property (8) is
    not decided again on decided, the node gamp (or None) on which
    buttress's entry is_n_permutable already ran the element-wise pass."""
    poset = diagram.poset
    checked = set()  # ids of the node gamps whose phi-free checks ran
    seen = set()  # (ids of the node gamp or arrow ends, restricted phi) already checked
    for p in poset.elements:
        g = diagram.objects[p]
        phi_p = phis[p].restrict(g.sem)
        fails = f"buttress node {p!r} fails"
        ok = g.sem is _cong.conc(g.outer) or is_ideal_induced(phi_p)[0]
        cross_check(ok, f"{fails}: phi restriction stays ideal-induced")
        first = id(g) not in checked
        checked.add(id(g))
        if first:
            cross_check(check_property(g, "strong"), f"{fails}: strong")
        if (id(g), phi_p) not in seen:
            seen.add((id(g), phi_p))
            for which in ("distance_generated", "congruence_tractable") + (
                ("distance_generated_chains",) if with_chains else ()
            ):
                cross_check(check_property(g, which, m_cap=m_cap, phi=phi_p), f"{fails}: {which}")
        if n_permutable is not None and first:
            if g is not decided:
                ok = check_property(g, "n_permutable", n=n_permutable)
                cross_check(ok, f"{fails}: permutable")
            if g.is_lattice_signature():
                ok = check_property(g, "lattice_n_permutable", n=n_permutable)
                cross_check(ok, f"{fails}: lattice permutable")
    for (p, q), arrow in diagram.arrows.items():
        source, target = diagram.objects[p], diagram.objects[q]
        phi_q = phis[q].restrict(target.sem)
        if p == q or (id(source), id(target), phi_q) in seen:
            continue
        seen.add((id(source), id(target), phi_q))
        fails = f"buttress arrow {(p, q)!r} fails"
        cross_check(is_subgamp(source, target), f"{fails}: subgamp")
        x_cap = len(phi_q.target.elements)
        cross_check(check_morphism_property(arrow, "strong"), f"{fails}: strong")
        for which in ("cuttable",) + (("cuttable_chains",) if with_chains else ()):
            ok = check_morphism_property(arrow, which, x_cap=x_cap, phi=phi_q)
            cross_check(ok, f"{fails}: {which}")
