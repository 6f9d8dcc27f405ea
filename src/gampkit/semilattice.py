"""Finite join-semilattices with zero: ideals, quotients, ideal-induced maps."""

from functools import cached_property

from .errors import InvalidIdeal, IdealNotMapped, TooManyIdeals, cross_check
from .util import bfs, sort_key, sorted_elements


class JoinSemilattice:
    """A finite join-semilattice with zero.

    Elements are opaque hashable ids; the order is derived from the join
    table (x <= y iff x v y == y), which is the single source of truth. A
    subclass that passes no join table supplies `_join` itself.
    """

    def __init__(self, elements, zero, join_table, validate=True):
        self.elements = tuple(elements)
        self.zero = zero
        if join_table is not None:
            self._join = dict(join_table)
        self._index = {x: i for i, x in enumerate(self.elements)}
        if validate:
            self.validate()

    def validate(self):
        els = self.elements
        if len(set(els)) != len(els):
            raise ValueError("duplicate elements")
        if self.zero not in self._index:
            raise ValueError("zero not an element")
        for x in els:
            for y in els:
                v = self._join.get((x, y))
                if v is None or v not in self._index:
                    raise ValueError(f"join table not total at {(x, y)}")
        for x in els:
            if self._join[(self.zero, x)] != x:
                raise ValueError(f"zero not neutral at {x}")
            if self._join[(x, x)] != x:
                raise ValueError(f"join not idempotent at {x}")
            for y in els:
                if self._join[(x, y)] != self._join[(y, x)]:
                    raise ValueError(f"join not commutative at {(x, y)}")
                for z in els:
                    if self._join[(self._join[(x, y)], z)] != self._join[(x, self._join[(y, z)])]:
                        raise ValueError(f"join not associative at {(x, y, z)}")

    def join(self, x, y):
        return self._join[(x, y)]

    def join_all(self, xs):
        v = self.zero
        for x in xs:
            v = self.join(v, x)
        return v

    def leq(self, x, y):
        return self._join[(x, y)] == y

    def index(self, x):
        return self._index[x]

    @cached_property
    def join_rows(self):
        """The join table on indices into elements: join_rows[i][j] is the
        index of elements[i] v elements[j], so i <= j iff join_rows[i][j] == j.
        Built on first use and kept: nothing changes the join table after
        construction."""
        index, els = self._index, self.elements
        return [[index[self._join[(x, y)]] for y in els] for x in els]

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, JoinSemilattice) or self.zero != other.zero:
            return False
        if self.elements == other.elements:
            # one element order: the join tables agree iff their index rows do
            return self.join_rows == other.join_rows
        return set(self.elements) == set(other.elements) and self._join == other._join

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
        table = {}
        for x in subset:
            for y in subset:
                v = self._join[(x, y)]
                if v not in subset:
                    raise ValueError(f"subset not join-closed at {(x, y)}")
                table[(x, y)] = v
        order = [x for x in self.elements if x in subset]
        return JoinSemilattice(order, self.zero, table, validate=False)

    @classmethod
    def chain(cls, k):
        """Chain 0 < 1 < ... < k-1 as a join-semilattice."""
        els = list(range(k))
        table = {(x, y): max(x, y) for x in els for y in els}
        return cls(els, 0, table, validate=False)

    @classmethod
    def product(cls, s, t):
        els = [(x, y) for x in s.elements for y in t.elements]
        table = {
            ((x1, y1), (x2, y2)): (s.join(x1, x2), t.join(y1, y2))
            for (x1, y1) in els
            for (x2, y2) in els
        }
        return cls(els, (s.zero, t.zero), table, validate=False)


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


class SemMorphism:
    """Join- and zero-preserving map between finite join-semilattices."""

    def __init__(self, source, target, mapping, validate=True):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        if validate:
            self.validate()

    def validate(self):
        s, t, m = self.source, self.target, self.mapping
        for x in s.elements:
            if x not in m or m[x] not in t:
                raise ValueError(f"map not total at {x!r}")
        if m[s.zero] != t.zero:
            raise ValueError("zero not preserved")
        for x in s.elements:
            for y in s.elements:
                if m[s.join(x, y)] != t.join(m[x], m[y]):
                    raise ValueError(f"join not preserved at {(x, y)}")

    def __call__(self, x):
        return self.mapping[x]

    def apply_set(self, xs):
        return {self.mapping[x] for x in xs}

    def is_surjective(self):
        return set(self.mapping.values()) >= set(self.target.elements)

    def is_injective(self):
        vals = list(self.mapping[x] for x in self.source.elements)
        return len(set(vals)) == len(vals)

    def after(self, other):
        """Composition self o other."""
        if other.target != self.source:
            raise ValueError("morphisms not composable")
        return SemMorphism(
            other.source, self.target,
            {x: self.mapping[other.mapping[x]] for x in other.source.elements},
            validate=False,
        )

    def __eq__(self, other):
        return (
            isinstance(other, SemMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __repr__(self):
        return f"SemMorphism({len(self.source)}->{len(self.target)})"

    @classmethod
    def identity(cls, sem):
        return cls(sem, sem, {x: x for x in sem.elements}, validate=False)

    def restrict(self, sub):
        """Restriction to a join-subsemilattice of the source."""
        return SemMorphism(sub, self.target, {x: self.mapping[x] for x in sub.elements}, validate=False)


def ker0(phi):
    """0-kernel of a morphism: the ideal of elements mapped to zero."""
    carrier = {x for x in phi.source.elements if phi(x) == phi.target.zero}
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
    top = ideal.top
    first = {}
    reps = {x: first.setdefault(sem.join(x, top), x) for x in sem.elements}
    classes = [x for x in sem.elements if reps[x] == x]
    table = {(a, b): reps[sem.join(a, b)] for a in classes for b in classes}
    q = JoinSemilattice(classes, reps[sem.zero], table, validate=False)
    proj = SemMorphism(sem, q, {x: reps[x] for x in sem.elements}, validate=False)
    return q, proj


def induced_morphism(phi, ps, pt):
    """The map S/I -> T/J sending a/I to phi(a)/J, where ps: S -> S/I and
    pt: T -> T/J are the quotient projections. It is well-defined exactly
    when phi(I) is inside J, since I is the class of zero."""
    mapping = {}
    for a in phi.source.elements:
        c = ps(a)
        v = pt(phi(a))
        if mapping.setdefault(c, v) != v:
            raise IdealNotMapped(f"phi(I) is not inside J: no induced map at class of {a!r}")
    return SemMorphism(ps.target, pt.target, mapping)


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
        kernel = [z for z in s.elements if phi(z) == t.zero]
        for x in s.elements:
            for y in s.elements:
                if sort_key(x) < sort_key(y) and phi(x) == phi(y):
                    for z in kernel:
                        if s.join(x, z) == s.join(y, z):
                            witness[(x, y)] = z
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
