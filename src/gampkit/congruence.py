"""Congruences of finite total algebras: principal congruences, the compact
congruence semilattice, Mal'cev witness chains, quotients, n-permutability."""

from dataclasses import dataclass
from itertools import count, product

from .errors import NotTotal, TooLarge, cross_check
from .palg import UNDEFINED, PalgMorphism, Term, _irreducibles, image_palg, is_lattice_algebra
from .semilattice import JoinSemilattice, SemMorphism
from .util import bfs, shortest_path, sort_key


class Congruence:
    """Partition of an algebra's universe, compatible with all operations.

    Stored as a frozenset of frozenset blocks plus a block lookup; hashable
    and order-comparable via refinement.
    """

    __slots__ = ("blocks", "_block_of", "_key")

    def __init__(self, blocks):
        self.blocks = frozenset(frozenset(b) for b in blocks)
        self._block_of = {}
        for b in self.blocks:
            for x in b:
                self._block_of[x] = b
        self._key = None

    def same(self, x, y):
        return self._block_of[x] is self._block_of[y]

    def block(self, x):
        return self._block_of[x]

    def _sort_key(self):
        if self._key is None:
            self._key = tuple(
                sorted(tuple(sorted(map(sort_key, b))) for b in self.blocks)
            )
        return self._key

    def __eq__(self, other):
        return self is other or (isinstance(other, Congruence) and self.blocks == other.blocks)

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        blocks = sorted((sorted(b, key=sort_key) for b in self.blocks), key=lambda b: sort_key(tuple(b)))
        return "Congruence(" + " | ".join(",".join(map(str, b)) for b in blocks) + ")"

    @classmethod
    def identity(cls, universe):
        return cls([{x} for x in universe])


def _require_total(algebra):
    if not algebra.is_total():
        raise NotTotal("operation requires a total algebra")


class _UnionFind:
    """Disjoint sets over range(n) as a parent list, seeded with range(n) or
    with canonical labels. Every root is the least index of its class."""

    def __init__(self, parent):
        self.parent = list(parent)

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self.parent[ry] = rx
        return True

    def labels(self):
        """The canonical labels: index i holds the least index of its class."""
        return tuple(map(self.find, range(len(self.parent))))


def _closure_labels(algebra, pairs, known=None):
    """The canonical labels of the least congruence containing the pairs.

    Worklist closure under the algebra's translation rows: every merge of u
    and v is propagated through each of its maps, which generate the
    one-step unary translations by composition (on a lattice: meets with
    the meet-irreducibles and joins with the join-irreducibles), and a
    partition closed under maps is closed under their composites. Chained
    translations are covered by transitivity of the union-find, which is
    the standard generation argument. The closure runs on universe
    indices.

    known maps index pairs (i, j), i < j, to the canonical labels of
    Theta(u_i, u_j), u the universe, already closed. A merge of such a pair
    merges the whole of that congruence instead of following its
    translations: it lies in the closure, and it holds every translation of
    its own pairs (Freese, "Computing congruences efficiently", Algebra
    Universalis 59, 2008).
    """
    _require_total(algebra)
    point, rows = algebra.point, algebra.translation_rows
    known = known or {}
    uf = _UnionFind(range(len(rows)))
    union, parent = uf.union, uf.parent
    work = [(point[x], point[y]) for x, y in pairs]
    while work:
        u, v = work.pop()
        # equal parents mean one class already: the cheap, common case
        if parent[u] != parent[v] and union(u, v):
            labels = known.get((u, v) if u < v else (v, u))
            if labels is None:
                work.extend(set(zip(rows[u], rows[v])))
            else:
                for x, label in enumerate(labels):
                    if label != x:
                        union(x, label)
    return uf.labels()


def _from_labels(universe, labels):
    """The Congruence with the given canonical labels, its blocks built in
    universe order."""
    classes = {}
    for x, label in zip(universe, labels):
        classes.setdefault(label, []).append(x)
    return Congruence(classes.values())


def congruence_closure(algebra, pairs):
    """Least congruence containing the given pairs."""
    return _from_labels(algebra.universe, _closure_labels(algebra, pairs))


def principal_congruence(algebra, x, y):
    """Least congruence identifying x and y."""
    return congruence_closure(algebra, [(x, y)])


def is_congruence(algebra, partition):
    """Definitional check: equivalence compatible with every operation, on
    universe indices."""
    _require_total(algebra)
    if isinstance(partition, Congruence):
        theta = partition
    else:
        theta = Congruence(partition)
    if theta._block_of.keys() != algebra.point.keys():  # not a partition of the universe
        return False
    block = list(map(theta.block, algebra.universe))
    points = range(len(block))
    for name, ar in algebra.stype.symbols:
        if ar == 0:
            continue
        table = algebra.tables[name]
        for args1 in product(points, repeat=ar):
            for args2 in product(points, repeat=ar):
                if all(block[a] is block[b] for a, b in zip(args1, args2)):
                    if block[table[args1]] is not block[table[args2]]:
                        return False
    return True


def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def all_congruences_bruteforce(algebra, bound=7):
    """Every compatible partition, by exhausting all partitions of the universe.

    Deliberately independent of the closure machinery; this is the oracle
    the principal-congruence computation is checked against.
    """
    _require_total(algebra)
    if len(algebra.universe) > bound:
        raise TooLarge(f"brute force capped at {bound} elements")
    out = []
    for part in _set_partitions(algebra.universe):
        theta = Congruence(part)
        if is_congruence(algebra, theta):
            out.append(theta)
    return sorted(out, key=lambda t: t._sort_key())


def least_congruence_bruteforce(algebra, x, y, bound=7):
    """Oracle for principal congruences: meet of all congruences containing (x, y)."""
    candidates = [t for t in all_congruences_bruteforce(algebra, bound) if t.same(x, y)]
    best = candidates[0]
    for t in candidates[1:]:
        best = con_meet(best, t)
    cross_check(is_congruence(algebra, best), "meet of congruences must be a congruence")
    return best


def con_meet(a, b):
    """Meet of congruences: blockwise intersection."""
    blocks = []
    for ba in a.blocks:
        for bb in b.blocks:
            c = ba & bb
            if c:
                blocks.append(c)
    return Congruence(blocks)


# The one size bound on Con(A), in elements of A; `gampkit conc --bound` is
# the only override.
CON_BOUND = 160


def _require_con_bound(algebra, bound):
    """Refuse an algebra whose Con is not built: partial, or over the bound."""
    _require_total(algebra)
    if len(algebra.universe) > bound:
        raise TooLarge(f"con_lattice capped at {bound} elements (got {len(algebra.universe)})")


def con_lattice(algebra, bound=CON_BOUND):
    """All congruences of a small finite total algebra, in a fixed order."""
    return sorted(conc(algebra, bound).elements, key=Congruence._sort_key)


def _principal_labels(algebra):
    """The principal congruences of a finite total algebra by closures: the
    distinct canonical label tuples found, the zero first, and the matrix of
    the position of Theta(u_i, u_j) among them, u the universe. Every pair
    of distinct points is closed once, in (i, j) order, and each closure
    merges the congruences of the pairs closed before it whole."""
    universe = algebra.universe
    n = len(universe)
    found = [tuple(range(n))]
    position = {found[0]: 0}
    pairs = [[0] * n for _ in range(n)]
    known = {}
    for i, x in enumerate(universe):
        for j in range(i + 1, n):
            labels = known[(i, j)] = _closure_labels(algebra, [(x, universe[j])], known)
            k = pairs[i][j] = pairs[j][i] = position.setdefault(labels, len(found))
            if k == len(found):
                found.append(labels)
    return found, pairs


def _closure_con(algebra):
    """Con of any finite total algebra by closures: the principal
    congruences (_principal_labels), then the join of each two distinct
    nonzero label tuples found, taken once by a union-find seeded with one
    of them.

    Returns the elements as canonical label tuples, the zero first, the
    principal matrix (the position of Theta(u_i, u_j) among them, u the
    universe) and the join matrix on positions.
    """
    found, pairs = _principal_labels(algebra)
    position = {labels: k for k, labels in enumerate(found)}
    table = {}
    for i, a in enumerate(found):  # found grows while it is walked
        table[(i, i)] = table[(i, 0)] = table[(0, i)] = i
        for j in range(1, i):
            uf = _UnionFind(a)
            for x, label in enumerate(found[j]):
                if label != x:
                    uf.union(x, label)
            join = uf.labels()
            k = position.setdefault(join, len(found))
            if k == len(found):
                found.append(join)
            table[(i, j)] = table[(j, i)] = k
    joins = [[table[(i, j)] for j in range(len(found))] for i in range(len(found))]
    return found, pairs, joins


def _day_relation(irreducibles, below, join, n):
    """Day's relation D on the join-irreducibles, as masks over their
    positions: bit s of rows[t] is set iff s != t and J_s D J_t, that is
    J_s <= J_t v p but not J_s <= (J_t)_* v p for some p. Collapsing J_t to
    its lower cover then collapses J_s to its own. below[x] is the mask of
    the join-irreducibles under x."""
    rows = []
    for t, (k, star) in enumerate(irreducibles):
        row = 0
        for p in range(n):
            row |= below[join[(k, p)]] & ~below[join[(star, p)]]
        rows.append(row & ~(1 << t))
    return rows


def _mask_labels(masks, mask):
    """The canonical labels of the congruence whose join-irreducible set is
    mask: u_x and u_y are related iff masks[x][y], the set of Theta(u_x,
    u_y), lies inside it."""
    labels = [None] * len(masks)
    outside = ~mask
    for x, row in enumerate(masks):
        if labels[x] is None:
            for y, m in enumerate(row):
                if not m & outside:
                    labels[y] = x
    return tuple(labels)


def _lattice_con(algebra):
    """Con of a finite lattice from its join-irreducibles, with no closure
    (Day, Canad. J. Math. 31, 1979; Freese, Proc. AMS 125, 1997).

    A congruence is the set of join-irreducibles j it collapses to j_*, a
    set closed under "k in it and j D k give j"; the closed sets are the
    unions of the closures of the single k, which are the masks of
    Theta(k_*, k). Theta(a, b) is the union of those of the j under a v b
    and not under a meet b. Join is union. Returns the canonical labels of
    the elements, the zero first, the principal matrix (positions among the
    elements) and the join matrix on positions.

    Cross-check, which raises under python -O too: the closure of each pair
    (k_*, k) has the partition of k's closed mask.
    """
    universe = algebra.universe
    n = len(universe)
    meet, join = algebra.tables["meet"], algebra.tables["join"]
    irreducibles = _irreducibles(meet, join, n)
    below = [0] * n
    for t, (j, _) in enumerate(irreducibles):
        for u in range(n):
            if meet[(j, u)] == j:
                below[u] |= 1 << t
    closed = [row | 1 << t for t, row in enumerate(_day_relation(irreducibles, below, join, n))]
    for s in range(len(closed)):  # Warshall, on bitmask rows
        for t, mask in enumerate(closed):
            if mask >> s & 1:
                closed[t] = mask | closed[s]
    unions = {}

    def union(cut):
        if cut not in unions:
            unions[cut] = 0
            for t, mask in enumerate(closed):
                if cut >> t & 1:
                    unions[cut] |= mask
        return unions[cut]

    masks = [
        [union(below[join[(a, b)]] & ~below[meet[(a, b)]]) for b in range(n)] for a in range(n)
    ]
    found = {0: None}
    for mask in closed:
        for other in list(found):
            found.setdefault(other | mask)
    found = list(found)
    position = {mask: i for i, mask in enumerate(found)}
    labels = [_mask_labels(masks, mask) for mask in found]
    for (k, star), mask in zip(irreducibles, closed):
        cross_check(
            _closure_labels(algebra, [(universe[star], universe[k])]) == labels[position[mask]],
            "Theta(j_*, j) disagrees with Day's relation",
        )
    pairs = [[position[m] for m in row] for row in masks]
    joins = [[position[a | b] for b in found] for a in found]
    return labels, pairs, joins


def _order_keys(universe, labels, elements):
    """Set each congruence's sort key, given its canonical labels, from keys
    computed once per universe point, and return the keys that order the
    congruences as (len(universe) - len(blocks), _sort_key()) would: the
    blocks on the points' dense ranks in sort_key order compare as the
    blocks on their sort keys do."""
    keys = list(map(sort_key, universe))
    distinct = sorted(set(keys))
    rank = dict(zip(distinct, count()))
    ranks = [rank[k] for k in keys]
    order = []
    for theta, t in zip(elements, labels):
        classes = {}
        for r, label in zip(ranks, t):
            classes.setdefault(label, []).append(r)
        blocks = sorted(tuple(sorted(c)) for c in classes.values())
        theta._key = tuple(tuple(map(distinct.__getitem__, b)) for b in blocks)
        order.append((len(universe) - len(blocks), blocks))
    return order


class ConcSemilattice(JoinSemilattice):
    """Semilattice of compact congruences, with the principal-congruence
    generator map and its all-pairs distance table.

    On a lattice, Con comes from the join-irreducibles (_lattice_con): an
    element is a mask over J(L), join is union, and no closure runs but the
    cross-check. On any other algebra every pair of points is closed once
    and the elements are the join closure of the principal congruences
    (_closure_con). Either way the principal distance is kept as dist_rows,
    dist_rows[i][j] the index in elements of Theta(u_i, u_j), u the
    universe, and the join is passed on as the semilattice's join_rows. One
    Congruence is built per element, so every join, the zero and every
    congruence principal() or generated() returns is the semilattice's own
    element object.
    """

    def __init__(self, algebra, bound=CON_BOUND):
        _require_con_bound(algebra, bound)
        self.algebra = algebra
        universe = algebra.universe
        build = _lattice_con if is_lattice_algebra(algebra) else _closure_con
        labels, pairs, joins = build(algebra)
        elements = [_from_labels(universe, t) for t in labels]
        keys = _order_keys(universe, labels, elements)
        order = sorted(range(len(elements)), key=keys.__getitem__)
        rank = sorted(range(len(order)), key=order.__getitem__)  # rank[order[r]] == r
        rows = [[rank[joins[a][b]] for b in order] for a in order]
        super().__init__([elements[k] for k in order], elements[0], rows, validate=False)
        self.dist_rows = [[rank[k] for k in row] for row in pairs]

    def generated(self, pairs):
        """The element generated by the given pairs of the algebra: Cg of a
        set of pairs is the join of their principal congruences."""
        point, D, J = self.algebra.point, self.dist_rows, self.join_rows
        k = self._index[self.zero]
        for x, y in pairs:
            k = J[k][D[point[x]][point[y]]]
        return self.elements[k]

    def principal(self, x, y):
        return self.generated([(x, y)])


def conc(algebra, bound=CON_BOUND):
    """The join-semilattice of compact congruences of a finite algebra.

    For a finite algebra this carries the whole congruence lattice; the
    elements are Congruence values and the generator map is exposed as
    .principal(x, y).
    """
    return ConcSemilattice(algebra, bound)


def conc_morphism(f, source_conc=None, target_conc=None):
    """Image of a total-algebra morphism under the compact-congruence functor.

    Sends a congruence to the congruence generated by the images of its
    pairs; on principal congruences this is Theta(f(x), f(y)) extended
    join-linearly. Images are the target's own element objects, generated
    on the target semilattice's own algebra.
    """
    src = source_conc if source_conc is not None else conc(f.source)
    tgt = target_conc if target_conc is not None else conc(f.target)
    cross_check(
        f.target is tgt.algebra or f.target == tgt.algebra,
        "Conc target is not the Conc of the map's target",
    )
    to = []
    for theta in src.elements:
        pairs = {(f(next(iter(b))), f(x)) for b in theta.blocks for x in b}
        to.append(tgt.index(tgt.generated(pairs)))
    return SemMorphism(src, tgt, to)


def quotient_algebra(algebra, theta):
    """Total quotient algebra, classes labeled by their first universe member."""
    _require_total(algebra)
    first = {}
    reps = [first.setdefault(theta.block(x), i) for i, x in enumerate(algebra.universe)]
    q = image_palg(PalgMorphism(algebra, algebra, reps, validate=False))
    at = {r: k for k, r in enumerate(dict.fromkeys(reps))}  # q's points are the reps, in order
    return q, PalgMorphism(algebra, q, map(at.__getitem__, reps), validate=False)


def _bits(mask):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _relational_n_permutable(algebra, n, congruences):
    """The first pair (alpha, beta) of the congruences, in nested-loop
    order, with alpha o beta o alpha o ... != beta o alpha o beta o ...
    (n factors each), as (False, pair), or (True, None).

    Composition convention, pinned globally: (a o b) relates x to z when
    some y has (x, y) in b and (y, z) in a, so the rightmost factor acts
    first. The composites are computed per point as bitmasks over the
    universe: each factor saturates the mask with its blocks, memoised by
    (factor, mask). A pair fails exactly when its reverse does, and
    comparable congruences permute, so only incomparable pairs i < j are
    composed; the first failing pair is the same.
    """
    index = algebra.point
    blocks = []  # blocks[t][i]: the mask of u_i's block in congruences[t]
    for theta in congruences:
        row = [0] * len(index)
        for block in theta.blocks:
            mask = sum(1 << index[x] for x in block)
            for x in block:
                row[index[x]] = mask
        blocks.append(row)
    saturated = {}

    def saturate(t, mask):
        # the union of the blocks of congruences[t] that meet mask
        if (t, mask) not in saturated:
            row, out, rest = blocks[t], 0, mask
            while rest:
                block = row[(rest & -rest).bit_length() - 1]
                out |= block
                rest &= ~block
            saturated[(t, mask)] = out
        return saturated[(t, mask)]

    def composite(s, t):
        first, *rest = reversed([s if k % 2 == 0 else t for k in range(n)])
        out = []
        for mask in blocks[first]:
            for f in rest:
                mask = saturate(f, mask)
            out.append(mask)
        return out

    for i, a in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            b = blocks[j]
            if all(p | q == q for p, q in zip(a, b)) or all(p | q == p for p, q in zip(a, b)):
                continue
            if composite(i, j) != composite(j, i):
                return False, (congruences[i], congruences[j])
    return True, None


def _interpolants(D, J, M, n, first, last, even, odd, middle):
    """The one interpolant search, on carrier indices.

    D is a pregamp's distance matrix (dist_rows) and J its semilattice's
    join rows; every distance and join is an index into sem.elements.
    Yields, in product(middle, repeat=n-1) order, every ys with ys[0] =
    first and ys[n] = last whose every step D[ys[k]][ys[k+1]] lies, in J,
    under the opposite-parity join of the tuple's steps: odd for even k,
    even for odd k. With the carrier's meet table M on indices, only chains
    are yielded: M[ys[i], ys[j]] = ys[i] both ways round for all i <= j, an
    undefined cell (None) failing. Depth first: a prefix is cut at its first
    failing chain pair, which is checked against last too, or step.
    """

    def chained(a, b):
        return M.get((a, b)) == a and M.get((b, a)) == a

    if M is None:
        candidates = middle
    elif chained(first, first) and chained(first, last) and chained(last, last):
        candidates = [y for y in middle if chained(first, y) and chained(y, y) and chained(y, last)]
    else:
        return
    bounds = [odd if k % 2 == 0 else even for k in range(n)]
    ys = [first] * n + [last]
    end = bounds[n - 1]

    def extend(k):
        # ys[:k] is a passing prefix; place ys[k]
        step, bound = D[ys[k - 1]], bounds[k - 1]
        for y in candidates:
            if M is not None and not all(chained(ys[i], y) for i in range(1, k)):
                continue
            if J[step[y]][bound] != bound:
                continue
            ys[k] = y
            if k < n - 1:
                yield from extend(k + 1)
            elif J[D[y][last]][end] == end:
                yield tuple(ys)

    if n > 1:
        yield from extend(1)
    elif J[D[first][last]][end] == end:
        yield first, last


def _parity_joins(D, J, xs, zero):
    """The joins of the even and of the odd steps of the index tuple xs."""
    parity = [zero, zero]
    for k in range(len(xs) - 1):
        parity[k % 2] = J[parity[k % 2]][D[xs[k]][xs[k + 1]]]
    return parity


def chain_interpolants(pg, xs, first, last, middle, chains=False):
    """Interpolants of the chain condition in the pregamp pg for the tuple
    xs = (x0, ..., xn) of carrier points.

    Yields, in product(middle, repeat=n-1) order, every ys with ys[0] = first
    and ys[n] = last whose every step delta(ys[k], ys[k+1]) lies under the
    join of the opposite-parity steps of xs. The search reads pg.dist_rows
    and the semilattice's join_rows. With chains, only chains of the
    carrier's meet table are yielded: ys[i] meet ys[j] = ys[i] both ways
    round for all i <= j, undefined cells failing (gamp.is_chain asks one
    way round only).
    """
    universe, index, tables = pg.carrier.universe, pg.carrier.point, pg.carrier.tables
    D, J = pg.dist_rows, pg.sem.join_rows
    xs = [index[x] for x in xs]
    even, odd = _parity_joins(D, J, xs, pg.sem.index(pg.sem.zero))
    M = tables["meet"] if chains else None
    middle = [index[y] for y in middle]
    for ys in _interpolants(D, J, M, len(xs) - 1, index[first], index[last], even, odd, middle):
        yield tuple(universe[i] for i in ys)


def _stepper(D, J, within=None):
    """The one step of an interpolant path, on carrier indices: step(bound,
    mask) is the mask of the points y with D[x][y] under bound in J for
    some x in the mask, and in within[x] too when within is given. Its rows
    and images are kept for the caller's call only."""
    under = {}  # bound -> [mask of the points y one step under it from x, for each x]
    image = {}  # (bound, mask) -> the points one step under bound from the mask

    def step(bound, mask):
        if bound not in under:
            rows = [sum(1 << y for y, d in enumerate(row) if J[d][bound] == bound) for row in D]
            under[bound] = rows if within is None else list(map(int.__and__, rows, within))
        if (bound, mask) not in image:
            rows, out = under[bound], 0
            for x in _bits(mask):
                out |= rows[x]
            image[(bound, mask)] = out
        return image[(bound, mask)]

    return step


def _upward_paths(D, J, meet, n):
    """The interpolant search of the lattice chain condition on a carrier
    that is a lattice, as reachability: has(first, last, even, odd) is true
    iff _interpolants with the meet table would yield a chain. Meet both
    ways round is the lattice order, which is transitive, so a chain of
    interpolants is a path of n upward steps from first to last, step k
    under odd for even k and under even for odd k; an upward path that
    ends at last stays inside [first, last]."""
    points = range(len(D))
    up = [sum(1 << y for y in points if meet[(x, y)] == x) for x in points]
    step = _stepper(D, J, up)

    def has(first, last, even, odd):
        reached = 1 << first
        for k in range(n):
            reached = step(odd if k % 2 == 0 else even, reached)
        return reached >> last & 1

    return has


def _chain_verdict(D, J, n, inner, zero):
    """The verdict pass of the chain condition, on carrier indices.

    D is a pregamp's distance matrix (dist_rows) and J its semilattice's
    join rows. A prefix of an (n+1)-tuple of inner points has the state (x0,
    even, odd), the joins of its even and of its odd steps; a forward pass
    keeps, per state, the mask of the prefixes' last points, each step
    taken from those points' rows of D grouped by distance. Returns, for
    each state of a whole tuple, (ends, reached): ends the mask of the
    tuples' last points, reached the mask of the points reached from x0 by
    an interpolant, a path of n steps through any carrier points whose k-th
    step lies under odd for even k and under even for odd k. A tuple has
    interpolants iff its last point is in reached.
    """
    at = []  # at[x]: distance -> mask of the inner points at that distance from x
    for row in D:
        by = {}
        for y in inner:
            by[row[y]] = by.get(row[y], 0) | 1 << y
        at.append(by)
    spread = {}  # mask of points -> distance -> mask of inner points at it from one of them

    def spread_of(mask):
        if mask not in spread:
            by = {}
            for x in _bits(mask):
                for d, ys in at[x].items():
                    by[d] = by.get(d, 0) | ys
            spread[mask] = by.items()
        return spread[mask]

    states = {(x0, zero, zero): 1 << x0 for x0 in inner}
    for k in range(n):
        p, following = k % 2, {}
        for (x0, *parity), mask in states.items():
            row = J[parity[p]]
            for d, ys in spread_of(mask):
                parity[p] = row[d]
                state = (x0, *parity)
                following[state] = following.get(state, 0) | ys
        states = following

    step = _stepper(D, J)
    verdict = {}
    for (x0, even, odd), ends in states.items():
        reached = 1 << x0
        for k in range(n):
            reached = step(odd if k % 2 == 0 else even, reached)
        verdict[(x0, even, odd)] = ends, reached
    return verdict


def _chain_condition_failures(pg, inner, n, lattice_form=False):
    """The (n+1)-tuples of inner points of the pregamp pg without
    interpolants among all its carrier points, as (reason, xs) in product
    order.

    In the lattice form the interpolants run from x0 meet xn to x0 join xn,
    read in the carrier's tables, and must be chains; a tuple whose
    endpoints are not defined both ways round, or differ between them,
    fails with "endpoints undefined". On a carrier that is a lattice the
    chains are the upward paths of its order, found by reachability
    (_upward_paths); any other carrier runs the _interpolants search.
    Otherwise they run from x0 to xn, and the verdict pass (_chain_verdict)
    decides first: the walk below runs only when it finds a failure, and
    reads its reached masks. The tuples are walked depth first on carrier
    indices, with the parity joins of each prefix's steps carried as
    indices. The search depends on a tuple only through its endpoints and
    those two joins, so it runs once per such key.
    """
    universe, index, tables = pg.carrier.universe, pg.carrier.point, pg.carrier.tables
    D, J = pg.dist_rows, pg.sem.join_rows
    zero = pg.sem.index(pg.sem.zero)
    inner = [index[x] for x in inner]
    if lattice_form:
        M, N = tables["meet"], tables["join"]
        if is_lattice_algebra(pg.carrier):
            has = _upward_paths(D, J, M, n)
        else:
            middle = range(len(universe))

            def has(x0, xn, even, odd):
                return next(_interpolants(D, J, M, n, x0, xn, even, odd, middle), None) is not None
    else:
        M = None
        verdict = _chain_verdict(D, J, n, inner, zero)
        if all(not ends & ~reached for ends, reached in verdict.values()):
            return

        def has(x0, xn, even, odd):
            return verdict[(x0, even, odd)][1] >> xn & 1

    xs = [None] * (n + 1)
    failing = {}  # (first, last, even, odd) -> no interpolant

    def endpoints(x0, xn):
        if M is None:
            return x0, xn
        m1, m2, j1, j2 = M.get((x0, xn)), M.get((xn, x0)), N.get((x0, xn)), N.get((xn, x0))
        if None in (m1, m2, j1, j2) or m1 != m2 or j1 != j2:
            return None
        return m1, j1

    def walk(k, parity):
        # xs[:k] is placed, and parity holds the joins of its even and odd steps
        step, p = D[xs[k - 1]], (k - 1) % 2
        row, joined = J[parity[p]], list(parity)
        if k < n:
            for x in inner:
                xs[k] = x
                joined[p] = row[step[x]]
                yield from walk(k + 1, joined)
            return
        for x, end in zip(inner, ends):
            xs[n] = x
            if end is None:
                yield "endpoints undefined", tuple(universe[i] for i in xs)
                continue
            joined[p] = row[step[x]]
            key = (*end, *joined)
            if key not in failing:
                failing[key] = not has(*key)
            if failing[key]:
                yield "no interpolants", tuple(universe[i] for i in xs)

    for x0 in inner:
        xs[0] = x0
        ends = [endpoints(x0, x) for x in inner]
        yield from walk(1, (zero, zero))


def _elementwise_n_permutable(algebra, n, cong_sl):
    """Chain condition: every (n+1)-tuple admits interpolants y with the
    parity containments between generated congruences."""
    from .pregamp import pga  # pregamp imports this module

    pg = pga(algebra, cong_sl)
    for _, xs in _chain_condition_failures(pg, algebra.universe, n):
        return False, xs
    return True, None


# Largest |A|^(2n) for which is_n_permutable also runs the element-wise
# chain condition as a cross-check.
ELEMENTWISE_LIMIT = 2_000_000


def is_n_permutable(algebra, n, cs=None):
    """Congruence n-permutability, by relational composition of congruence
    pairs, over the algebra's Conc, which is cs when given.

    The element-wise chain characterization is run as well whenever the
    instance fits under ELEMENTWISE_LIMIT, and the two answers must agree.
    Returns (bool, witness) where the witness is a violating congruence pair
    or tuple.

    A recorded product of lattices is also decided by its factors: lattices
    are congruence-distributive, so Con of the product is the product of
    the factors' Cons (Fraser-Horn, Proc. AMS 26, 1970), composites of
    product congruences are taken coordinatewise, and the product is
    n-permutable iff every factor is. Over ELEMENTWISE_LIMIT a product so
    found n-permutable is answered without its Conc; otherwise the
    relational check runs, gives the witness and must agree.
    """
    _require_total(algebra)
    if n < 2:
        raise ValueError("n must be at least 2")
    size = len(algebra.universe)
    cost = size ** (n + 1) * max(1, size ** (n - 1))
    by_factors = None
    if algebra.factors is not None and all(map(is_lattice_algebra, algebra.factors)):
        by_factors = all(is_n_permutable(f, n)[0] for f in dict.fromkeys(algebra.factors))
        if by_factors and cost > ELEMENTWISE_LIMIT:
            return True, None
    cs = conc(algebra) if cs is None else cs
    congruences = sorted(cs.elements, key=Congruence._sort_key)
    ok_rel, wit_rel = _relational_n_permutable(algebra, n, congruences)
    cross_check(by_factors in (None, ok_rel), "factorwise and relational permutability disagree")
    if cost <= ELEMENTWISE_LIMIT:
        ok_el, _ = _elementwise_n_permutable(algebra, n, cs)
        cross_check(ok_rel == ok_el, "n-permutability characterizations disagree")
    return (ok_rel, wit_rel)


@dataclass
class MalcevWitness:
    """Term chain certifying a principal-congruence containment.

    Terms are over 2m + len(params) variables: slots 0..m-1 take the left
    generator entries, m..2m-1 the right ones, the rest the parameters.
    """

    n: int
    params: tuple
    terms: tuple
    m: int

    def _env(self, xs, ys):
        return tuple(xs) + tuple(ys) + tuple(self.params)

    def validate(self, algebra, x, y, xs, ys):
        fwd = self._env(xs, ys)
        rev = self._env(ys, xs)
        first = self.terms[0].eval(algebra, fwd)
        last = self.terms[-1].eval(algebra, fwd)
        if first is UNDEFINED or first != x:
            return False
        if last is UNDEFINED or last != y:
            return False
        for j in range(self.n):
            a = self.terms[j].eval(algebra, rev)
            b = self.terms[j + 1].eval(algebra, fwd)
            if a is UNDEFINED or b is UNDEFINED or a != b:
                return False
        return True


@dataclass
class NoContainment:
    """The relational containment Theta(x,y) <= join Theta(xi,yi) fails."""

    theta: Congruence


@dataclass
class UnknownAtBound:
    """Containment holds but no witness surfaced within the stated bounds."""

    bounds: dict


def _translations(algebra, depth_bound):
    """Unary polynomial maps up to the given composition depth.

    Returns {value-tuple: parent}, in the order the maps were found, parent
    being None for the identity or (inner-tuple, (name, pos, params)) for one
    basic translation applied on top of an already-found map.
    """
    universe, point = algebra.universe, algebra.point
    steps = [
        (algebra.tables[name], name, pos, params, tuple(map(point.__getitem__, params)))
        for name, ar in algebra.stype.symbols
        for pos in range(ar)
        for params in product(universe, repeat=ar - 1)
    ]

    def translate(f):
        at = tuple(map(point.__getitem__, f))
        for table, name, pos, params, ps in steps:
            yield tuple(universe[table[ps[:pos] + (x,) + ps[pos:]]] for x in at), (name, pos, params)

    parents = {}
    for _ in bfs(tuple(universe), translate, parents, depth_bound):
        pass
    return parents


def malcev_witness(algebra, x, y, xs, ys, depth_bound=3, param_bound=16):
    """Search for the term chain behind Theta(x,y) <= join of Theta(xi,yi).

    First decides the containment relationally; then hunts for a chain of
    unary-polynomial translation steps between x and y, each step moving
    along one generator pair, and packages it into the multi-variable term
    format with fresh parameter slots. Sound by construction: a returned
    witness always validates. Inconclusive searches report bounds, which
    must be at least 0 (else ValueError).
    """
    _require_total(algebra)
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != len(ys):
        raise ValueError("generator tuples must have equal length")
    if depth_bound < 0 or param_bound < 0:
        raise ValueError("depth_bound and param_bound must be at least 0")
    m = len(xs)
    theta = congruence_closure(algebra, list(zip(xs, ys)))
    if not theta.same(x, y):
        return NoContainment(theta)

    if x == y:
        # degenerate chain: one constant term pinned to x by a parameter
        t = Term.v(2 * m)
        return MalcevWitness(1, (x,), (t, t), m)

    universe = algebra.universe
    trans = _translations(algebra, depth_bound)
    edges = {}
    for f in trans:
        fmap = dict(zip(universe, f))
        for i in range(m):
            a, b = fmap[xs[i]], fmap[ys[i]]
            if a != b:
                edges.setdefault(a, []).append((b, i, False, f))
                edges.setdefault(b, []).append((a, i, True, f))
    path = shortest_path(
        x, y, lambda u: ((v, step) for v, *step in sorted(edges.get(u, []), key=repr))
    )
    if path is None:
        return UnknownAtBound({"depth_bound": depth_bound, "param_bound": param_bound})

    # package: term j evaluates to u_j forward and u_{j+1} under swapped blocks
    params = []
    slot_of = {}

    def param_slot(c):
        if c not in slot_of:
            slot_of[c] = 2 * m + len(params)
            params.append(c)
        return slot_of[c]

    def translation_term(f, argument):
        """Rebuild f as a term applied to `argument`, via the BFS parent chain."""
        parent = trans[f]
        if parent is None:
            return argument
        inner_f, (name, pos, ps) = parent
        inner = translation_term(inner_f, argument)
        args = [Term.v(param_slot(c)) for c in ps]
        args.insert(pos, inner)
        return Term.app(name, *args)

    terms = []
    for _, _, (i, swapped, f) in path:
        base = Term.v(m + i) if swapped else Term.v(i)
        terms.append(translation_term(f, base))
    terms.append(Term.v(param_slot(y)))
    if len(params) > param_bound:
        return UnknownAtBound({"depth_bound": depth_bound, "param_bound": param_bound})
    witness = MalcevWitness(len(path), tuple(params), tuple(terms), m)
    cross_check(witness.validate(algebra, x, y, xs, ys), "constructed witness must validate")
    return witness
