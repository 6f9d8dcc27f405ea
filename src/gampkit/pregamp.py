"""Partial algebras with semilattice-valued distances: axioms, the functor
from total algebras, quotients, induced morphisms, identity satisfaction."""

from itertools import chain, combinations, compress, count, product, repeat
from operator import getitem, ne

from .errors import IdealNotMapped, cross_check
from .palg import (
    LATTICE_IDENTITIES,
    PalgMorphism,
    compile_identities,
    first_counterexamples,
    image_palg,
    is_lattice_algebra,
    is_lattice_signature,
    is_palg_isomorphism,
    product_closure,
)
from .semilattice import (
    SemIdeal,
    SemMorphism,
    enumerate_ideals,
    induced_morphism,
    is_ideal_induced,
    ker0,
    quotient,
)
from .util import Verdict, factor_through, kept
from . import congruence as _cong


class Pregamp:
    """Carrier partial algebra with a distance into a join-semilattice.

    The distance is held once, as the index matrix dist_rows; delta reads it
    through the carrier's point index, and from_dist converts a label table. The
    distance axioms (separation, symmetry, triangle, compatibility with
    every defined operation) are what make quotients by semilattice ideals
    work; check_axioms verifies them on indices, reading dist_rows and the
    semilattice's join_rows. On a total carrier it decides compatibility
    from the carrier's translation maps; otherwise its per-cell check,
    _first_incompatible, decides it, and the candidate enumerator runs that
    check too. The chain condition of congruence reads the same two tables.
    """

    def __init__(self, carrier, dist_rows, sem):
        """dist_rows[i][j] indexes in sem.elements the distance of the
        carrier's points i and j; kept as given, so pga shares Conc's."""
        n, m = len(carrier), len(sem)
        if len(dist_rows) != n or any(len(row) != n for row in dist_rows):
            raise ValueError(f"distance rows are not {n}x{n}")
        if n and not all(0 <= min(row) and max(row) < m for row in dist_rows):
            raise ValueError("distance rows leave the semilattice's elements")
        self.carrier, self.dist_rows, self.sem = carrier, dist_rows, sem

    @classmethod
    def from_dist(cls, carrier, dist, sem):
        """The pregamp of a label table, (x, y) -> distance, over every pair
        of the carrier's points; pairs outside the carrier are not read."""
        for x, y in product(carrier.universe, repeat=2):
            if (x, y) not in dist:
                raise ValueError(f"distance not total at {(x, y)}")
            if dist[(x, y)] not in sem:
                raise ValueError(f"distance {dist[(x, y)]!r} at {(x, y)} not in semilattice")
        universe = carrier.universe
        return cls(carrier, [[sem.index(dist[(x, y)]) for y in universe] for x in universe], sem)

    def delta(self, x, y):
        point = self.carrier.point
        return self.sem.elements[self.dist_rows[point[x]][point[y]]]

    def __eq__(self, other):
        """Equal carriers and semilattices, compared as sets, and the same
        distance at every pair, whatever the order of points and elements."""
        if self is other:
            return True
        if not isinstance(other, Pregamp) or (self.carrier, self.sem) != (other.carrier, other.sem):
            return False
        # other's rows, read in this pregamp's point and element order
        relabel = [self.sem.index(a) for a in other.sem.elements]
        at = list(map(other.carrier.point.__getitem__, self.carrier.universe))
        return all(
            list(row) == [relabel[theirs[j]] for j in at]
            for row, theirs in zip(self.dist_rows, map(other.dist_rows.__getitem__, at))
        )

    def __repr__(self):
        return f"Pregamp({len(self.carrier)} points over {len(self.sem)} distances)"


def _first_not_below(J, values, bounds):
    """The first position k at which values[k] <= bounds[k] fails in the
    order of the join rows J, or None."""
    joined = map(getitem, map(J.__getitem__, values), bounds)
    return next(compress(count(), map(ne, joined, bounds)), None)


def _first_incompatible(D, J, zero, row, value, columns, values):
    """The first position k at which the cell row -> value breaks
    compatibility with the cell (column entries at k) -> values[k], or None:
    d(value, values[k]) must lie below the join over the slots s of
    d(row[s], columns[s][k]). Points index D, distances index J."""
    # the join of d(a_s, b_s) over the slots, for each other cell
    bounds = [zero] * len(values)
    for a, column in zip(row, columns):
        slot = map(D[a].__getitem__, column)
        bounds = list(map(getitem, map(J.__getitem__, bounds), slot))
    return _first_not_below(J, map(D[value].__getitem__, values), bounds)


def _non_expanding(D, J, rows):
    """Whether every map, a column of the translation rows, is
    non-expanding: d(t x, t y) <= d(x, y) in the join rows J for all
    x < y. Points index D, distances index J."""
    for t in zip(*rows):
        for x, (tx, near) in enumerate(zip(t, D)):
            image = map(D[tx].__getitem__, t[x + 1 :])
            if _first_not_below(J, image, near[x + 1 :]) is not None:
                return False
    return True


def _first_incompatible_cells(A, D, J, zero):
    """The first pair of defined cells of one operation that breaks
    compatibility, as (name, args1, args2) in the order of the argument
    tuples' reprs in labels, or None. O(|A|^(2 ar)) per operation."""

    def label(row):
        return tuple(map(A.universe.__getitem__, row))

    for name, table in A.tables.items():
        rows = sorted(table, key=lambda row: repr(label(row)))
        values = list(map(table.__getitem__, rows))
        columns = list(zip(*rows))
        for row1, v1 in zip(rows, values):
            k = _first_incompatible(D, J, zero, row1, v1, columns, values)
            if k is not None:
                return name, label(row1), label(rows[k])
    return None


def check_axioms(pg):
    """Verify the four distance axioms.

    Returns (True, None) or (False, violation) with the axiom name and the
    offending tuple: the first in universe order, and for compatibility in
    the order of the argument tuples' reprs.

    On a total carrier compatibility is decided as "every map of the
    carrier's translation_rows is non-expanding", in O(maps·|A|^2). That is
    exact once the triangle inequality holds: two cells are joined by a path
    of cells that differ in one slot, single-slot compatibility is
    non-expansion of every one-step translation, and each of those is a
    composite of the kept maps. When a map expands, its own cells differ in
    one slot, so the ordered pair loop, which partial carriers always run,
    finds the first violation and names it.
    """
    A, S, D, J = pg.carrier, pg.sem, pg.dist_rows, pg.sem.join_rows
    universe, zero, n = A.universe, S.index(S.zero), len(A)
    for i, j in product(range(n), repeat=2):
        if (D[i][j] == zero) != (i == j):
            return False, ("separation", (universe[i], universe[j]))
        if D[i][j] != D[j][i]:
            return False, ("symmetry", (universe[i], universe[j]))
    # d being symmetric by now, (i, j) and (j, i) fail together, and i = j
    # never fails: the pairs i < j in universe order meet the same first
    # failure as all pairs do
    for i, j in combinations(range(n), 2):
        # d(i, l) v d(l, j) for every l
        bounds = list(map(getitem, map(J.__getitem__, D[i]), D[j]))
        l = _first_not_below(J, repeat(D[i][j], n), bounds)
        if l is not None:
            return False, ("triangle", (universe[i], universe[j], universe[l]))
    total = A.is_total()
    if total and _non_expanding(D, J, A.translation_rows):
        return True, None
    violation = _first_incompatible_cells(A, D, J, zero)
    cross_check(
        violation is not None or not total, "an expanding translation broke no pair of cells"
    )
    return (True, None) if violation is None else (False, ("compatibility", violation))


def is_distance_generated(pg):
    """Distance-generation: the distances join-generate the semilattice."""
    els = pg.sem.elements
    gen = pg.sem.join_closure(map(els.__getitem__, set(chain.from_iterable(pg.dist_rows))))
    return gen == frozenset(els)


class PregampMorphism:
    """Pair of a partial-algebra morphism and a semilattice morphism that
    intertwines the distances."""

    def __init__(self, source, target, f, fsem):
        self.source = source
        self.target = target
        self.f = f
        self.fsem = fsem

    def validate(self):
        src, tgt = self.source, self.target
        if self.f.source != src.carrier or self.f.target != tgt.carrier:
            raise ValueError("carrier morphism endpoints do not match")
        if self.fsem.source != src.sem or self.fsem.target != tgt.sem:
            raise ValueError("semilattice morphism endpoints do not match")
        # tD[f[i]][f[j]] == fs[sD[i][j]] for every pair of points
        f = self.f.to_between(src.carrier, tgt.carrier)
        fs = self.fsem.to_between(src.sem, tgt.sem)
        tD = tgt.dist_rows
        for i, row in enumerate(src.dist_rows):
            images, pushed = map(tD[f[i]].__getitem__, f), map(fs.__getitem__, row)
            j = next(compress(count(), map(ne, images, pushed)), None)
            if j is not None:
                universe = src.carrier.universe
                raise ValueError(f"distance not intertwined at {(universe[i], universe[j])}")
        return self

    def after(self, other):
        return PregampMorphism(
            other.source, self.target, self.f.after(other.f), self.fsem.after(other.fsem)
        )

    def __eq__(self, other):
        return (
            isinstance(other, PregampMorphism)
            and self.f == other.f
            and self.fsem == other.fsem
        )

    def __repr__(self):
        return f"PregampMorphism({self.f!r}, {self.fsem!r})"

    @classmethod
    def identity(cls, pg):
        return cls(pg, pg, PalgMorphism.identity(pg.carrier), SemMorphism.identity(pg.sem))


def pga(algebra):
    """The pregamp of a total algebra: its principal-congruence distance into
    Conc A, whose own matrix its dist_rows are. One per algebra object, kept
    on the algebra like its Conc."""
    cs = _cong.conc(algebra)
    return kept(algebra, "_pga", lambda: Pregamp(algebra, cs.dist_rows, cs))


def pga_mor(f):
    """Functor action on a total-algebra morphism."""
    return PregampMorphism(pga(f.source), pga(f.target), f, _cong.conc_morphism(f))


def sub_pregamp(pg, subalgebra, subsem=None):
    """Sub-pregamp on a partial subalgebra, over a join-subsemilattice
    containing the restricted distances. Its rows are read from dist_rows
    through the point index and mapped into the subsemilattice's indices."""
    if not subalgebra.is_partial_sub_of(pg.carrier):
        raise ValueError("not a partial subalgebra of the carrier")
    D, els = pg.dist_rows, pg.sem.elements
    at = list(map(pg.carrier.point.__getitem__, subalgebra.universe))
    used = {D[i][j] for i in at for j in at}
    if subsem is None:
        subsem = pg.sem.sub(pg.sem.join_closure(map(els.__getitem__, used)))
    elif not all(els[k] in subsem for k in used):
        raise ValueError("subsemilattice misses restricted distances")
    to_sub = [subsem.index(a) if a in subsem else None for a in els]
    return Pregamp(subalgebra, [[to_sub[D[i][j]] for j in at] for i in at], subsem)


def canonical_embedding(sub, pg):
    A, S = pg.carrier, pg.sem
    return PregampMorphism(
        sub, pg,
        PalgMorphism(sub.carrier, A, map(A.point.__getitem__, sub.carrier.universe)),
        SemMorphism(sub.sem, S, map(S.index, sub.sem.elements)),
    )


def _ideal_classes(pg, top):
    """For each point's index, the index of the first point at a distance
    inside the ideal from it: its class's representative. The ideal is the
    down-set of the element at index top; reads dist_rows, and decides
    membership in the ideal in join_rows."""
    D, J = pg.dist_rows, pg.sem.join_rows
    inside = [row[top] == top for row in J]
    return [next(j for j, row in enumerate(D) if inside[row[i]]) for i in range(len(D))]


def _quotient_carrier(pg, ideal):
    """The carrier of pg/I and the map of the carrier's indices to their
    classes' representatives: points are identified when their distance
    lies in the ideal, classes labeled by their first universe member
    (_ideal_classes, already that map), and definedness sets and tables
    push forward (image_palg)."""
    A = pg.carrier
    classes = _ideal_classes(pg, pg.sem.index(ideal.top))
    return image_palg(PalgMorphism(A, A, classes)), classes


def quotient_pregamp(pg, ideal):
    """Quotient by an ideal of the distance semilattice; pg must satisfy
    check_axioms, which makes "distance in the ideal" a congruence.

    The carrier is _quotient_carrier's; the projection is ideal-induced
    with 0-kernel the given ideal. Reads dist_rows.
    """
    qsem, sproj = quotient(pg.sem, ideal)
    qalg, classes = _quotient_carrier(pg, ideal)
    A, D, to_q = pg.carrier, pg.dist_rows, sproj.to
    kept = list(dict.fromkeys(classes))  # qalg's points, as carrier indices
    qpg = Pregamp(qalg, [[to_q[D[i][j]] for j in kept] for i in kept], qsem)
    at = {r: k for k, r in enumerate(kept)}
    onto = PalgMorphism(A, qalg, map(at.__getitem__, classes))
    return qpg, PregampMorphism(pg, qpg, onto, sproj).validate()


def induced_pregamp_morphism(fm, pi, pj):
    """Descend a morphism along the quotient projections pi and pj of its
    ends; well-defined exactly when the semilattice part maps the source
    ideal into the target ideal. The square with the projections commutes."""
    fsem = induced_morphism(fm.fsem, pi.fsem, pj.fsem)
    src, tgt, qsrc, qtgt = fm.source.carrier, fm.target.carrier, pi.target, pj.target
    values = map(pj.f.to_between(tgt, qtgt.carrier).__getitem__, fm.f.to_between(src, tgt))
    to, bad = factor_through(pi.f.to_between(src, qsrc.carrier), values, len(qsrc.carrier))
    if bad is not None:
        raise IdealNotMapped(f"carrier map not well-defined at class of {src.universe[bad]!r}")
    carrier_map = PalgMorphism(qsrc.carrier, qtgt.carrier, to)
    induced = PregampMorphism(qsrc, qtgt, carrier_map, fsem).validate()
    cross_check(induced.after(pi) == pj.after(fm), "induced morphism square must commute")
    return induced


def ker0_pg(fm):
    return ker0(fm.fsem)


def is_ideal_induced_pg(fm):
    """Image equals the target as partial algebras and the semilattice part is
    ideal-induced; cross-checked against the quotient-isomorphism criterion."""
    definitional = (
        image_palg(fm.f) == fm.target.carrier and is_ideal_induced(fm.fsem)[0]
    )
    _, pi = quotient_pregamp(fm.source, ker0_pg(fm))
    _, pj = quotient_pregamp(fm.target, SemIdeal.zero(fm.target.sem))
    try:
        induced = induced_pregamp_morphism(fm, pi, pj)
    except IdealNotMapped:
        via_quotient = False
    else:
        via_quotient = (
            is_palg_isomorphism(induced.f)
            and induced.fsem.is_injective()
            and induced.fsem.is_surjective()
        )
    cross_check(definitional == via_quotient, "ideal-induced criteria disagree")
    return definitional


# Most ideals whose quotients an identity check walks through.
IDEAL_BOUND = 4096


def _every_image_satisfies(pg, compiled):
    """Whether every ideal quotient of a pregamp on a total carrier is a
    homomorphic image of a carrier that satisfies every compiled identity,
    and so satisfies them too (Birkhoff 1935). False when either part
    fails, or the carrier is partial, whose quotients can gain definedness.

    The carrier's part: LATTICE_IDENTITIES on the lattice signature is
    is_lattice_algebra's kept verdict; any other list is one kernel call on
    the carrier, or on each distinct factor of a nonempty recorded product,
    since a product satisfies an identity iff each factor does. The
    quotients' part: for each semilattice element m, the class map of the
    ideal below m (_ideal_classes) agrees on t(u) and t(rep u) for every map
    t of translation_rows, so its kernel is closed under every translation
    and is a congruence, and the quotient is the carrier's image under it.
    """
    A = pg.carrier
    if not A.is_total():
        return False
    if compiled is compile_identities(LATTICE_IDENTITIES) and is_lattice_signature(A):
        if not is_lattice_algebra(A):
            return False
    else:
        algebras = A.factors if A.factors and A.universe else (A,)
        for B in dict.fromkeys(algebras):
            found = first_counterexamples(compiled, range(len(B)), B.tables)
            if any(ce is not None for ce in found):
                return False
    rows = A.translation_rows
    for top in range(len(pg.sem)):
        rep = _ideal_classes(pg, top)
        images = [list(map(rep.__getitem__, row)) for row in rows]
        if any(images[u] != images[r] for u, r in enumerate(rep)):
            return False
    return True


def _first_variety_failure(pg, compiled):
    """The first identity of the compiled list that some ideal quotient
    fails, with the first such ideal and that quotient's first
    counterexample, as (position, ideal, counterexample); None if every
    quotient satisfies every identity.

    On a total carrier whose quotients are all images of it, and which
    satisfies the list, that is None with no quotient built
    (_every_image_satisfies). Otherwise one kernel call per ideal checks
    every identity still in question. The quotient's carrier is the
    carrier's tables pushed forward through the ideal's classes
    (_ideal_classes, the map _quotient_carrier uses) over the class
    representatives, in the order they first appear, as image_palg lists
    them; nothing else is built per ideal. A failure settles every later
    identity, so the later calls check only the identities before it.
    More than IDEAL_BOUND ideals raise TooManyIdeals on either path.
    """
    # above the bound the walk's enumerate_ideals raises
    if len(pg.sem) <= IDEAL_BOUND and _every_image_satisfies(pg, compiled):
        return None
    A = pg.carrier
    tables = A.tables
    failure, upto = None, len(compiled.sides)
    for ideal in enumerate_ideals(pg.sem, bound=IDEAL_BOUND):
        if not upto:
            break
        rep = _ideal_classes(pg, pg.sem.index(ideal.top))
        pushed = {
            name: {tuple(map(rep.__getitem__, args)): rep[v] for args, v in table.items()}
            for name, table in tables.items()
        }
        found = first_counterexamples(compiled, dict.fromkeys(rep), pushed, upto)
        for i, ce in enumerate(found):
            if ce is not None:
                failure, upto = (i, ideal, tuple(map(A.universe.__getitem__, ce))), i
                break
    return failure


def is_pregamp_of(pg, identities):
    """Membership in the variety cut out by the named identity list; the
    witness is the first failing identity with its first failing ideal and
    that quotient's first counterexample. The list is compiled once, and
    each ideal quotient is checked against every identity in one pass."""
    compiled = compile_identities(identities)
    failure = _first_variety_failure(pg, compiled)
    if failure is None:
        return True, None
    i, ideal, ce = failure
    return False, (compiled.names[i], (ideal, ce))


def chain_connectivity(algebra, pairs, extra=()):
    """Connected components of the term chains along the given pairs, with
    the extra pairs joined but not closed; returns the find function.

    On a partial carrier the components are those of the joint-evaluation
    closure, since definedness decides which chains exist. On a total one
    the transitive closure of that reflexive compatible relation is a
    congruence, so they are the classes of Cg(pairs) (Mal'cev).
    """
    index = algebra.point
    if algebra.is_total():
        uf = _cong._UnionFind(_cong._closure_labels(algebra, pairs))
        linked = extra
    else:
        uf = _cong._UnionFind(range(len(index)))
        linked = chain(product_closure(algebra, pairs), extra)
    for x, y in linked:
        uf.union(index[x], index[y])
    return lambda x: uf.find(index[x])


def tractability_verdict(pg, points, sem_phi, m_cap, f, carrier, extra=()):
    """Every instance phi(delta(x,y)) <= join phi(delta(xk,yk)), over at most
    m_cap unordered pairs of the points, must be met by term chains in
    carrier along the f-images of its generating pairs, with the extra pairs
    joined. The first failure, by pair count, then pair tuple, then member
    (x, y) in point order, is witnessed as (x, y, chosen).

    Runs on indices: phi o delta over the points is one index matrix, read
    through the target's join_rows. Per bound the members are kept with a
    spanning forest of their images, at most |points| - 1 edges: a partition
    holds every member iff it holds every forest edge. On a total carrier
    each image pair is closed once (_closure_labels), and an instance's
    partition is the union-find join of its pairs' labels with the extra
    pairs' partition, since Con A is a sublattice of Eq A: Cg(P u Q) is the
    equivalence join of Cg(P) and Cg(Q). A partial carrier runs
    chain_connectivity per set of image pairs, since the joint-evaluation
    closure does not split by pair. An instance whose bound and partition
    already passed is not checked again. A failure is re-decided by
    chain_connectivity, and both must name the same member.
    """
    if m_cap < 0:
        raise ValueError("m_cap must be at least 0")
    bounds = {"m_cap": m_cap}
    T, points, universe = sem_phi.target, list(points), carrier.universe
    J, n = T.join_rows, len(points)
    at, node = pg.carrier.point, carrier.point
    to_t = sem_phi.to_between(pg.sem, T)
    rows = [pg.dist_rows[at[x]] for x in points]
    D = [[to_t[row[at[y]]] for y in points] for row in rows]
    img = [node[f(x)] for x in points]
    # the pairs that generate instances, none when instances have no pairs
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)] if m_cap else []
    forests = {}  # bound -> (members, spanning forest of their images)

    def members_of(b):
        if b not in forests:
            members = [(x, y) for x in range(n) for y in range(n) if J[D[x][y]][b] == b]
            uf = _cong._UnionFind(range(len(universe)))
            forest = [(img[x], img[y]) for x, y in members if uf.union(img[x], img[y])]
            forests[b] = members, forest
        return forests[b]

    # an instance's partition depends on its pairs only through their keys:
    # the id of each pair's closure on a total carrier, the image pair on a
    # partial one
    spans = [tuple(sorted((img[i], img[j]))) for i, j in pool]
    if carrier.is_total():
        uf = _cong._UnionFind(range(len(universe)))
        for x, y in extra:
            uf.union(node[x], node[y])
        base, ids, closed = uf.labels(), {}, {}
        for u, v in dict.fromkeys(spans):
            labels = _cong._closure_labels(carrier, [(universe[u], universe[v])])
            closed[(u, v)] = ids.setdefault(labels, len(ids))
        pair_keys, congruences = list(map(closed.__getitem__, spans)), list(ids)

        def partition(key):
            uf = _cong._UnionFind(base)
            for c in key:
                for x, label in enumerate(congruences[c]):
                    if label != x:
                        uf.union(x, label)
            return uf.labels()
    else:
        pair_keys = spans

        def partition(key):
            pairs = [(universe[u], universe[v]) for u, v in key]
            return list(map(chain_connectivity(carrier, pairs, extra), universe))

    pair_dist = [D[i][j] for i, j in pool]
    zero, passed, partitions = T.index(T.zero), set(), {}
    for m in range(m_cap + 1):
        for combo in combinations(range(len(pool)), m):
            b = zero
            for k in combo:
                b = J[b][pair_dist[k]]
            key = frozenset(map(pair_keys.__getitem__, combo))
            if (b, key) in passed:
                continue
            if key not in partitions:
                partitions[key] = partition(key)
            labels = partitions[key]
            members, forest = members_of(b)
            if all(labels[u] == labels[v] for u, v in forest):
                passed.add((b, key))
                continue
            x, y = next((x, y) for x, y in members if labels[img[x]] != labels[img[y]])
            chosen = tuple((points[i], points[j]) for i, j in map(pool.__getitem__, combo))
            find = chain_connectivity(carrier, [(f(u), f(v)) for u, v in chosen], extra)
            again = next(
                ((x, y) for x, y in members if find(f(points[x])) != find(f(points[y]))), None
            )
            cross_check(again == (x, y), "tractability: per-pair closures and chains disagree")
            return Verdict.false((points[x], points[y], chosen), bounds)
    return Verdict.true(None, bounds)


def is_congruence_tractable_morphism(fm, m_cap=2):
    """Bounded congruence-tractability of a pregamp morphism.

    For every source instance delta(x,y) <= join delta(xk,yk) with at most
    m_cap pairs, a defined term chain from f(x) to f(y) along the image
    pairs must exist in the target. Chain existence per instance is decided
    exactly: by the closure of simultaneous evaluations on a partial target,
    by the generated congruence on a total one. The tuple-length cap is the
    only approximation and is reported in the verdict bounds.
    """
    ident = SemMorphism.identity(fm.source.sem)
    points = list(fm.source.carrier.universe)
    return tractability_verdict(fm.source, points, ident, m_cap, fm.f, fm.target.carrier)

