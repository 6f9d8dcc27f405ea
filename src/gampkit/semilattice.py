"""Finite join-semilattices with zero: ideals, quotients, ideal-induced maps."""

from functools import cached_property
from itertools import compress, count
from operator import attrgetter, ne

from .errors import InvalidIdeal, IdealNotMapped, TooManyIdeals, cross_check
from .util import IndexMap, bfs, factor_through, sort_key, sorted_elements


class JoinSemilattice:
    """A finite join-semilattice with zero.

    Elements are opaque hashable ids. The join is held once, as the index
    matrix join_rows: join_rows[i][j] is the index of elements[i] v
    elements[j], so i <= j iff join_rows[i][j] == j. join, leq and join_all
    read it through the element index; from_table converts a label table.
    """

    def __init__(self, elements, zero, join_rows, validate=True):
        self.elements = tuple(elements)
        self.zero = zero
        n = len(self.elements)
        if len(join_rows) != n or any(len(row) != n for row in join_rows):
            raise ValueError(f"join rows are not {n}x{n}")
        if n and not all(0 <= min(row) and max(row) < n for row in join_rows):
            raise ValueError("join rows leave the elements")
        self.join_rows = join_rows
        self._index = {x: i for i, x in enumerate(self.elements)}
        if validate:
            self.validate()

    @classmethod
    def from_table(cls, elements, zero, table):
        """The semilattice of a label table, (x, y) -> x v y, over every pair
        of elements; the axioms are checked."""
        els = tuple(elements)
        index = {x: i for i, x in enumerate(els)}
        if len(index) != len(els):
            raise ValueError("duplicate elements")
        if zero not in index:
            raise ValueError("zero not an element")
        for x in els:
            for y in els:
                v = table.get((x, y))
                if v is None or v not in index:
                    raise ValueError(f"join table not total at {(x, y)}")
        return cls(els, zero, [[index[table[(x, y)]] for y in els] for x in els])

    def validate(self):
        els, J = self.elements, self.join_rows
        if len(self._index) != len(els):
            raise ValueError("duplicate elements")
        if self.zero not in self._index:
            raise ValueError("zero not an element")
        zero_row = J[self._index[self.zero]]
        for x, row in enumerate(J):
            if zero_row[x] != x:
                raise ValueError(f"zero not neutral at {els[x]}")
            if row[x] != x:
                raise ValueError(f"join not idempotent at {els[x]}")
            for y, xy in enumerate(row):
                if xy != J[y][x]:
                    raise ValueError(f"join not commutative at {(els[x], els[y])}")
                # the first z with (x v y) v z != x v (y v z)
                z = next(compress(count(), map(ne, J[xy], map(row.__getitem__, J[y]))), None)
                if z is not None:
                    raise ValueError(f"join not associative at {(els[x], els[y], els[z])}")

    def join(self, x, y):
        index = self._index
        return self.elements[self.join_rows[index[x]][index[y]]]

    def join_all(self, xs):
        index, J = self._index, self.join_rows
        k = index[self.zero]
        for x in xs:
            k = J[k][index[x]]
        return self.elements[k]

    def leq(self, x, y):
        j = self._index[y]
        return self.join_rows[self._index[x]][j] == j

    def index(self, x):
        return self._index[x]

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        """Equal zeros and element sets, and the same join of every pair,
        whatever the order of elements."""
        if self is other:
            return True
        if not isinstance(other, JoinSemilattice) or self.zero != other.zero:
            return False
        if self._index.keys() != other._index.keys():
            return False
        # other's rows, read in this semilattice's element order
        relabel = list(map(self._index.__getitem__, other.elements))
        at = list(map(other._index.__getitem__, self.elements))
        return all(
            list(row) == [relabel[theirs[j]] for j in at]
            for row, theirs in zip(self.join_rows, map(other.join_rows.__getitem__, at))
        )

    def __hash__(self):
        return hash((frozenset(self.elements), self.zero))

    def __repr__(self):
        return f"JoinSemilattice({len(self.elements)} elements)"

    def join_closure(self, subset):
        """Smallest join-closed subset containing `subset` and zero: the walk
        from zero that joins one generator per step."""
        gens = set(subset)
        return frozenset(bfs(self.zero, lambda x: ((self.join(x, g), g) for g in gens), {}))

    def sub(self, subset):
        """Join-subsemilattice on a join-closed subset containing zero."""
        subset = set(subset)
        if self.zero not in subset:
            raise ValueError("subsemilattice must contain zero")
        els, J = self.elements, self.join_rows
        kept = sorted(map(self._index.__getitem__, subset))
        position = {i: k for k, i in enumerate(kept)}
        for i in kept:
            for j in kept:
                if J[i][j] not in position:
                    raise ValueError(f"subset not join-closed at {(els[i], els[j])}")
        rows = [[position[J[i][j]] for j in kept] for i in kept]
        return JoinSemilattice([els[i] for i in kept], self.zero, rows, validate=False)

    @classmethod
    def chain(cls, k):
        """Chain 0 < 1 < ... < k-1 as a join-semilattice."""
        return cls(range(k), 0, [[max(x, y) for y in range(k)] for x in range(k)], validate=False)

    @classmethod
    def product(cls, s, t):
        els = [(x, y) for x in s.elements for y in t.elements]
        m = len(t)
        rows = [
            [k * m + l for k in s_row for l in t_row]
            for s_row in s.join_rows
            for t_row in t.join_rows
        ]
        return cls(els, (s.zero, t.zero), rows, validate=False)


class SemIdeal:
    """Downward-closed, join-closed, zero-containing subset of a semilattice."""

    def __init__(self, sem, carrier, validate=True):
        self.sem = sem
        self.carrier = frozenset(carrier)
        if validate:
            self.validate()

    def validate(self):
        sem = self.sem
        if sem.zero not in self.carrier:
            raise InvalidIdeal("ideal must contain zero")
        for x in self.carrier:
            if x not in sem:
                raise InvalidIdeal(f"{x!r} not an element")
            for y in self.carrier:
                if sem.join(x, y) not in self.carrier:
                    raise InvalidIdeal(f"not join-closed at {(x, y)}")
        for x in sem.elements:
            for y in self.carrier:
                if sem.leq(x, y) and x not in self.carrier:
                    raise InvalidIdeal(f"not downward closed at {x} <= {y}")

    @cached_property
    def top(self):
        """The join of the ideal, whose down-set it is."""
        return self.sem.join_all(self.carrier)

    def __contains__(self, x):
        return x in self.carrier

    def __eq__(self, other):
        return isinstance(other, SemIdeal) and self.carrier == other.carrier and self.sem == other.sem

    def __hash__(self):
        return hash(self.carrier)

    def __repr__(self):
        return f"SemIdeal({sorted_elements(self.carrier)!r})"

    @classmethod
    def generated(cls, sem, gens):
        """Least ideal containing `gens`: the down-set of their join. Every
        ideal of a finite semilattice is principal, the down-set of its top."""
        top = sem.join_all(gens)
        ideal = cls(sem, {x for x in sem.elements if sem.leq(x, top)}, validate=False)
        ideal.top = top
        return ideal

    @classmethod
    def zero(cls, sem):
        return cls(sem, {sem.zero}, validate=False)


class SemMorphism(IndexMap):
    """Join- and zero-preserving map between finite join-semilattices, held
    once as the index list to (IndexMap), as PalgMorphism holds its map."""

    _labels, _positions = attrgetter("elements"), attrgetter("_index")

    @classmethod
    def from_map(cls, source, target, mapping):
        """The morphism of a label map, source element -> target element,
        validated; an element whose image is missing or outside the target
        is named."""
        for x in source.elements:
            if x not in mapping or mapping[x] not in target:
                raise ValueError(f"map not total at {x!r}")
        return cls(source, target, [target.index(mapping[x]) for x in source.elements])

    def validate(self):
        s, t, to = self.source, self.target, self.to
        if to[s.index(s.zero)] != t.index(t.zero):
            raise ValueError("zero not preserved")
        # to[k] == T[to[i]][to[j]] for k the join of i and j in the source
        T = t.join_rows
        for x, row, image in zip(s.elements, s.join_rows, to):
            joined, images = map(to.__getitem__, row), map(T[image].__getitem__, to)
            j = next(compress(count(), map(ne, joined, images)), None)
            if j is not None:
                raise ValueError(f"join not preserved at {(x, s.elements[j])}")

    def apply_set(self, xs):
        return set(map(self, xs))

    def after(self, other):
        """Composition self o other."""
        if other.target != self.source:
            raise ValueError("morphisms not composable")
        first = other.to_between(other.source, self.source)
        return SemMorphism(other.source, self.target, map(self.to.__getitem__, first), validate=False)

    def __hash__(self):
        # what equal maps share in any element order: the ends' sizes and
        # the image's
        return hash((len(self.source), len(self.target), len(set(self.to))))

    def restrict(self, sub):
        """Restriction to a join-subsemilattice of the source."""
        to = [self.to[self.source.index(x)] for x in sub.elements]
        return SemMorphism(sub, self.target, to, validate=False)


def ker0(phi):
    """0-kernel of a morphism: the ideal of elements mapped to zero."""
    zero = phi.target.index(phi.target.zero)
    carrier = {x for x, i in zip(phi.source.elements, phi.to) if i == zero}
    return SemIdeal(phi.source, carrier, validate=False)


def quotient(sem, ideal):
    """Quotient by the congruence x ~ y iff x v u = y v u for some u in the ideal.

    The ideal is the down-set of its top m, so x ~ y iff x v m = y v m.
    Classes are labeled by their first member in element order. Returns the
    quotient semilattice and the canonical projection, whose 0-kernel is the
    ideal.
    """
    if not isinstance(ideal, SemIdeal) or ideal.sem != sem:
        raise InvalidIdeal("ideal must belong to the semilattice")
    ideal.validate()
    els, J, top = sem.elements, sem.join_rows, sem.index(ideal.top)
    first = {}
    reps = [first.setdefault(row[top], i) for i, row in enumerate(J)]
    classes = [i for i, r in enumerate(reps) if r == i]
    position = {i: k for k, i in enumerate(classes)}
    rows = [[position[reps[J[a][b]]] for b in classes] for a in classes]
    zero = els[reps[sem.index(sem.zero)]]
    q = JoinSemilattice([els[i] for i in classes], zero, rows, validate=False)
    return q, SemMorphism(sem, q, map(position.__getitem__, reps), validate=False)


def induced_morphism(phi, ps, pt):
    """The map S/I -> T/J sending a/I to phi(a)/J, where ps: S -> S/I and
    pt: T -> T/J are the quotient projections. It is well-defined exactly
    when phi(I) is inside J, since I is the class of zero."""
    s, t = phi.source, phi.target
    values = map(pt.to_between(t, pt.target).__getitem__, phi.to)
    to, bad = factor_through(ps.to_between(s, ps.target), values, len(ps.target))
    if bad is not None:
        raise IdealNotMapped(f"phi(I) is not inside J: no induced map at class of {s.elements[bad]!r}")
    return SemMorphism(ps.target, pt.target, to)


def is_ideal_induced(phi):
    """Decide whether phi is (up to isomorphism) a quotient projection.

    Runs both the definitional check (surjective, and every identified pair
    has a join-absorbing z with phi(z) = 0) and the quotient-by-0-kernel
    isomorphism criterion, and insists they agree. Returns (bool, witness):
    the witness maps identified pairs to their absorbers on success, or names
    the failure on refusal.
    """
    s, t = phi.source, phi.target
    definitional = True
    witness = {}
    if not phi.is_surjective():
        definitional = False
        witness = ("not surjective", None)
    else:
        els, J, to, zero = s.elements, s.join_rows, phi.to, t.index(t.zero)
        kernel = [z for z, i in enumerate(to) if i == zero]
        for a, x in enumerate(els):
            for b, y in enumerate(els):
                if to[a] == to[b] and sort_key(x) < sort_key(y):
                    for z in kernel:
                        if J[a][z] == J[b][z]:
                            witness[(x, y)] = els[z]
                            break
                    else:
                        definitional = False
                        witness = ("no absorber", (x, y))
                        break
            if not definitional:
                break

    _, ps = quotient(s, ker0(phi))
    _, pt = quotient(t, SemIdeal.zero(t))
    induced = induced_morphism(phi, ps, pt)
    via_quotient = induced.is_injective() and induced.is_surjective()
    cross_check(definitional == via_quotient, "ideal-induced characterizations disagree")
    return definitional, witness


def enumerate_ideals(sem, bound=None):
    """All ideals of a finite semilattice, in deterministic (size, id) order.

    Each ideal is the down-set of its top, so there is one per element;
    more than `bound` ideals raise TooManyIdeals.
    """
    if bound is not None and len(sem) > bound:
        raise TooManyIdeals(f"more than {bound} ideals")
    ideals = [SemIdeal.generated(sem, [x]) for x in sem.elements]
    return sorted(
        ideals, key=lambda i: (len(i.carrier), tuple(sorted(sem.index(x) for x in i.carrier)))
    )
