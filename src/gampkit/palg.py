"""Finite partial algebras: term evaluation with definedness, subalgebra
calculus, identity satisfaction, images, and stabilizing chain colimits."""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, product
from math import prod
from operator import attrgetter, eq, ne

from .errors import NotComposable, NotSubset, NotTotal, cross_check
from .util import IndexMap


class _Undefined:
    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()


@dataclass(frozen=True)
class SimilarityType:
    """Finite list of operation symbols with arities."""

    symbols: tuple

    def __post_init__(self):
        names = [n for n, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names")

    def arity(self, name):
        for n, a in self.symbols:
            if n == name:
                return a
        raise KeyError(name)


LATTICE_TYPE = SimilarityType((("meet", 2), ("join", 2)))


class PartialAlgebra:
    """A finite universe with per-symbol definedness sets and partial tables.

    The operations are held once, as index tables: tables[name] maps a tuple
    of argument indices to the index of the value, in the order given, and
    its key set is the symbol's definedness set. point maps each element to
    its index in universe. The constructor refuses a repeated element, an
    entry of the wrong arity and an index outside the universe; from_ops
    converts label tables, and ops reads them back. Structures compare by
    structural equality on (type, universe-as-set, tables in labels), which
    is what the image/preimage laws are stated in terms of.
    """

    def __init__(self, stype, universe, tables):
        self.stype = stype
        self.universe = tuple(universe)
        self.point = {x: i for i, x in enumerate(self.universe)}
        if len(self.point) != len(self.universe):
            raise ValueError("duplicate universe elements")
        # the factor algebras when this is a direct product; set by product only
        self.factors = None
        if tables is None:  # from product only: see the tables property
            return
        self.tables = {name: dict(table) for name, table in tables.items()}
        for name, _ in stype.symbols:
            self.tables.setdefault(name, {})
        points = set(range(len(self.universe)))
        for name, table in self.tables.items():
            ar = stype.arity(name)
            if set(map(len, table)) <= {ar} and points.issuperset(chain(table.values(), *table)):
                continue
            for args, val in table.items():  # the first bad entry, for the message
                if len(args) != ar:
                    raise ValueError(f"{name}: arity mismatch at {args}")
                if val not in points or not points.issuperset(args):
                    raise ValueError(f"{name}: entry {args}->{val} leaves the universe")

    @classmethod
    def from_ops(cls, stype, universe, ops):
        """The algebra of label tables, ops[name] mapping argument tuples to
        values, in their order; a bad entry is named in labels."""
        universe = tuple(universe)
        point = cls(stype, universe, {}).point  # a repeated element is refused first
        tables = {}
        for name, table in ops.items():
            ar, tables[name] = stype.arity(name), {}
            for args, val in table.items():
                if len(args) != ar:
                    raise ValueError(f"{name}: arity mismatch at {args}")
                if val not in point or not all(map(point.__contains__, args)):
                    raise ValueError(f"{name}: entry {args}->{val} leaves the universe")
                tables[name][tuple(map(point.__getitem__, args))] = point[val]
        return cls(stype, universe, tables)

    @property
    def ops(self):
        """The tables in labels, {name: {argument tuple: value}}, rebuilt on
        each read: a view for export, never stored."""
        u = self.universe
        return {
            name: {tuple(map(u.__getitem__, args)): u[v] for args, v in table.items()}
            for name, table in self.tables.items()
        }

    @cached_property
    def tables(self):
        """A product's tables, built from its factors' tables on first read
        and kept: argument tuples in itertools.product order, as product()
        documents, each index in mixed radix over the factors' indices. Every
        other algebra's tables are set by the constructor."""
        sizes, strides = self._radix
        n = len(self.universe)
        digits = list(map(self.coordinate, range(len(sizes))))
        tables = {}
        for name, ar in self.stype.symbols:
            factor_tables = [f.tables[name] for f in self.factors]
            if not ar:
                tables[name] = {(): sum(s * t[()] for s, t in zip(strides, factor_tables))}
                continue
            table = tables[name] = {}
            for lead in product(range(n), repeat=ar - 1):
                # the values over the last argument, in universe order: each
                # factor's row, scaled by its stride, added in product order
                values = [0]
                for t, size, stride, d in zip(factor_tables, sizes, strides, digits):
                    head = tuple(map(d.__getitem__, lead))
                    row = [stride * t[head + (x,)] for x in range(size)]
                    values = [v + r for v in values for r in row]
                table.update(zip([lead + (u,) for u in range(n)], values))
        return tables

    @cached_property
    def translation_rows(self):
        """For each element u of a total algebra, by index, the indices of
        u's images under unary maps whose composites include every one-step
        unary translation (an operation, u in one slot, parameters in the
        others), so a partition closed under these maps is closed under all
        translations.

        On a lattice the maps are x -> x meet m for meet-irreducible m and
        x -> x join j for join-irreducible j: every c is the meet of the
        meet-irreducibles above it and the join of the join-irreducibles
        below it. A recorded product of lattices lifts its factors' maps
        coordinatewise and builds no tables. Any other algebra keeps each
        distinct one-step translation, in (operation, slot, parameters)
        order. Compiled on first use and kept: nothing changes an algebra's
        tables after construction.

        Two readers: congruence closure merges along these maps, and
        pregamp.check_axioms decides compatibility of a distance as "every
        map is non-expanding", exact given the triangle inequality, since a
        composite of non-expanding maps is non-expanding."""
        n = len(self.universe)
        if self.factors is not None and all(map(is_lattice_algebra, self.factors)):
            columns = self._lifted_columns()
        elif is_lattice_algebra(self):
            meet, join = self.tables["meet"], self.tables["join"]
            columns = [
                tuple(table[(u, c)] for u in range(n))
                for table, other in ((meet, join), (join, meet))
                for c, _ in _irreducibles(other, table, n)
            ]
        else:
            columns = dict.fromkeys(
                tuple(t[ps[:pos] + (u,) + ps[pos:]] for u in range(n))
                for name, ar in self.stype.symbols
                for t in (self.tables[name],)
                for pos in range(ar)
                for ps in product(range(n), repeat=ar - 1)
            )
        return list(zip(*columns)) or [()] * n

    def _lifted_columns(self):
        """The factors' translation maps, each acting on its own coordinate
        of a product's universe indices (mixed radix in product order) and
        fixing the others."""
        digits = map(self.coordinate, range(len(self.factors)))
        return [
            tuple(i + (col[d] - d) * stride for i, d in enumerate(ds))
            for f, stride, ds in zip(self.factors, self._radix[1], digits)
            for col in zip(*f.translation_rows)
        ]

    def coordinate(self, t):
        """Digit t of each universe index of a recorded product, in universe
        order: the index in factor t of each element's coordinate t. It is
        the index list of the projection onto factor t."""
        sizes, strides = self._radix
        return [d for d in range(sizes[t]) for _ in range(strides[t])] * prod(sizes[:t])

    @cached_property
    def _lattice_verdict(self):
        """is_lattice_algebra's verdict, decided on first use and kept."""
        if not is_lattice_signature(self) or not self.is_total():
            return False
        # a nonempty product is a lattice iff each factor is: lattices form a
        # variety, and each factor is a projection image of the product
        by_factors = None
        if self.factors and self.universe:
            by_factors = all(map(is_lattice_algebra, self.factors))
        if by_factors is not None and len(self) > LATTICE_CHECK_BOUND:
            return by_factors
        ok = _is_lattice_order(self)
        if len(self) <= LATTICE_CHECK_BOUND:
            found = first_counterexamples(
                compile_identities(LATTICE_IDENTITIES), range(len(self)), self.tables
            )
            by_identities = all(ce is None for ce in found)
            cross_check(ok == by_identities, "meet order and lattice identities disagree")
            cross_check(by_factors in (None, ok), "a product and its factors disagree on lattice-ness")
        return ok

    def apply(self, name, args):
        """The value of one table entry, or UNDEFINED, read through point."""
        key = tuple(map(self.point.get, args))
        value = None if None in key else self._lookup(name, key)
        return UNDEFINED if value is None else self.universe[value]

    def _lookup(self, name, key):
        """One entry's value index by argument indices, or None; off the
        factors, building nothing, on a product whose tables are not built."""
        if self.factors is None or "tables" in self.__dict__:
            return self.tables[name].get(key)
        return self._from_factors(name, key)

    def _from_factors(self, name, key):
        """A product's entry off its factors, one digit of each index per
        factor: they are total, so it is defined iff the arity is right."""
        value = 0
        for f, size, stride in zip(self.factors, *self._radix):
            v = f._lookup(name, tuple(i // stride % size for i in key))
            if v is None:
                return None
            value += stride * v
        return value

    def is_total(self):
        # product() checks its factors total, so a product is total: answered
        # without building its tables
        if self.factors is not None:
            return True
        n = len(self.universe)
        return all(len(self.tables[name]) == n ** ar for name, ar in self.stype.symbols)

    def __contains__(self, x):
        return x in self.point

    def __len__(self):
        return len(self.universe)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PartialAlgebra) or self.stype != other.stype:
            return False
        return self.is_partial_sub_of(other) and other.is_partial_sub_of(self)

    def __hash__(self):
        # what equal algebras share: the type, the size and each table's
        # size, n^arity on a product, which is total
        n, total = len(self.universe), self.factors is not None
        sizes = tuple(n ** ar if total else len(self.tables[name]) for name, ar in self.stype.symbols)
        return hash((self.stype, n, sizes))

    def __repr__(self):
        kind = "total" if self.is_total() else "partial"
        return f"PartialAlgebra({len(self.universe)} elements, {kind})"

    def is_partial_sub_of(self, other):
        """Definedness contained and tables agreeing: each table, read in
        other's indices through one relabelling list, is part of other's.
        Two nonempty recorded products are decided factor by factor: every
        coordinate ranges over its whole factor."""
        if self.stype != other.stype:
            return False
        if self.factors and other.factors and self.universe and other.universe:
            pairs = zip(self.factors, other.factors)
            return len(self.factors) == len(other.factors) and all(a.is_partial_sub_of(b) for a, b in pairs)
        relabel = list(map(other.point.get, self.universe))
        if None in relabel:
            return False
        same = relabel == list(range(len(relabel)))
        for name, table in self.tables.items():
            if not same:
                table = {tuple(map(relabel.__getitem__, k)): relabel[v] for k, v in table.items()}
            if not table.items() <= other.tables[name].items():
                return False
        return True

    def restrict_full(self, subset):
        """Induced full partial subalgebra on a subset of the universe."""
        subset = frozenset(subset)
        if not subset.issubset(self.point):
            raise NotSubset("subset leaves the universe")
        kept = [x for x in self.universe if x in subset]
        position = {self.point[x]: k for k, x in enumerate(kept)}  # old index -> new
        tables = {}
        for name, table in self.tables.items():
            tables[name] = {}
            for args, val in table.items():
                new = tuple(map(position.get, args))
                if None not in new and val in position:
                    tables[name][new] = position[val]
        return PartialAlgebra(self.stype, kept, tables)

    @classmethod
    def total_from_fn(cls, stype, universe, fns):
        universe = list(universe)
        cells = {name: product(universe, repeat=ar) for name, ar in stype.symbols}
        ops = {name: {args: fns[name](*args) for args in cells[name]} for name in cells}
        return cls.from_ops(stype, universe, ops)

    @classmethod
    def product(cls, algebras):
        """Direct product of total algebras of one similarity type.

        The universe is the tuples of factor elements in itertools.product
        order, and each table lists its argument tuples in that order too.
        Every factor must be total (else NotTotal), and there must be at
        least one factor, all of one similarity type (else ValueError). The
        result records the factors in `factors`, and in `_radix` their sizes
        and the stride of each factor's digit in universe indices, the first
        factor the most significant; only this constructor sets them, and
        nothing changes a product's tables afterwards, so a product always
        equals the direct product of its recorded factors. The tables
        are built on the first read of `tables` (or of the `ops` view);
        is_total(), hashing, comparing a product with itself or with another
        nonempty product, and apply() before that read do not read them.
        """
        algebras = list(algebras)
        if not algebras:
            raise ValueError("product of no algebras")
        stype = algebras[0].stype
        if any(a.stype != stype for a in algebras):
            raise ValueError("product factors of different similarity types")
        for i, a in enumerate(algebras):
            if not a.is_total():
                raise NotTotal(f"product factor {i} is partial")
        alg = cls(stype, product(*(a.universe for a in algebras)), None)
        alg.factors = tuple(algebras)
        sizes = [len(a) for a in algebras]
        alg._radix = sizes, [prod(sizes[t + 1 :]) for t in range(len(sizes))]
        return alg


class Term:
    """Term tree over numbered variables; evaluation propagates definedness."""

    __slots__ = ("kind", "var", "name", "args")

    def __init__(self, kind, var=None, name=None, args=()):
        self.kind = kind
        self.var = var
        self.name = name
        self.args = tuple(args)

    @classmethod
    def v(cls, i):
        return cls("var", var=i)

    @classmethod
    def app(cls, name, *args):
        return cls("app", name=name, args=args)

    def eval(self, algebra, env):
        if self.kind == "var":
            return env[self.var]
        vals = []
        for a in self.args:
            v = a.eval(algebra, env)
            if v is UNDEFINED:
                return UNDEFINED
            vals.append(v)
        return algebra.apply(self.name, vals)

    def __eq__(self, other):
        return (
            isinstance(other, Term)
            and self.kind == other.kind
            and self.var == other.var
            and self.name == other.name
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.kind, self.var, self.name, self.args))

    def __repr__(self):
        if self.kind == "var":
            return f"v{self.var}"
        return f"{self.name}({', '.join(map(repr, self.args))})"


def meet(a, b):
    return Term.app("meet", a, b)


def join(a, b):
    return Term.app("join", a, b)


LATTICE_IDENTITIES = (
    ("meet-idempotent", meet(Term.v(0), Term.v(0)), Term.v(0)),
    ("join-idempotent", join(Term.v(0), Term.v(0)), Term.v(0)),
    ("meet-commutative", meet(Term.v(0), Term.v(1)), meet(Term.v(1), Term.v(0))),
    ("join-commutative", join(Term.v(0), Term.v(1)), join(Term.v(1), Term.v(0))),
    ("meet-associative", meet(meet(Term.v(0), Term.v(1)), Term.v(2)), meet(Term.v(0), meet(Term.v(1), Term.v(2)))),
    ("join-associative", join(join(Term.v(0), Term.v(1)), Term.v(2)), join(Term.v(0), join(Term.v(1), Term.v(2)))),
    ("meet-absorption", meet(Term.v(0), join(Term.v(0), Term.v(1))), Term.v(0)),
    ("join-absorption", join(Term.v(0), meet(Term.v(0), Term.v(1))), Term.v(0)),
)

MODULAR_LAW = (
    meet(Term.v(0), join(Term.v(1), meet(Term.v(0), Term.v(2)))),
    join(meet(Term.v(0), Term.v(1)), meet(Term.v(0), Term.v(2))),
)


# Largest source on which PalgMorphism.validate cross-checks its factorwise
# verdict against the exhaustive check of every table entry, and largest
# product target whose factor lookups it cross-checks against the tables.
FACTORWISE_CHECK_BOUND = 36


class PalgMorphism(IndexMap):
    """Total map preserving every defined operation.

    Held once, as the index list to (IndexMap) into the target's universe;
    from_map converts a label map and calling the morphism reads a label.
    Maps out of a recorded product are decided factorwise when they are
    coordinatewise; otherwise, and whenever a factor map fails, every table
    entry is checked, so a failure always names the first failing entry.
    A product target is read entry by entry off its factors, so maps into a
    power do not build its tables.
    """

    _labels, _positions = attrgetter("universe"), attrgetter("point")

    @classmethod
    def from_map(cls, source, target, mapping):
        """The morphism of a label map, source element -> target element,
        validated; an element whose image is missing or outside the target
        is named."""
        at = target.point
        for x in source.universe:
            if mapping.get(x) not in at:
                raise ValueError(f"map not into target at {x!r}")
        return cls(source, target, [at[mapping[x]] for x in source.universe])

    def validate(self):
        if self.source.stype != self.target.stype:
            raise ValueError("similarity types differ")
        factorwise = self._factorwise_verdict()
        if factorwise and len(self.source) > FACTORWISE_CHECK_BOUND:
            return
        try:
            self._check_tables()
        except ValueError:
            cross_check(factorwise is not True, "factorwise check passed a map the tables refute")
            raise
        cross_check(factorwise is not False, "factorwise check refuted a map the tables pass")

    def _factorwise_verdict(self):
        """Decide a map out of a recorded product factor by factor.

        Applies when every target coordinate (the whole value, for a target
        that is not a recorded product) depends on one source coordinate
        only, which is checked on every element's index digits. Then the
        map is a morphism iff every factor map is, since the factors are
        total: True or False. None when the source is not a nonempty
        recorded product or the map is not coordinatewise.
        """
        src, tgt, to = self.source, self.target, self.to
        if src.factors is None or not src.universe:
            return None
        if tgt.factors is None:
            tfactors, tdigits = (tgt,), [to]
        else:
            tfactors = tgt.factors
            tdigits = [[i // stride % size for i in to] for size, stride in zip(*tgt._radix)]
        sdigits = list(map(src.coordinate, range(len(src.factors))))
        factor_maps = []
        for tf, tcol in zip(tfactors, tdigits):
            for sf, scol, stride in zip(src.factors, sdigits, src._radix[1]):
                # read off where the other digits are 0, then checked everywhere
                g = [tcol[d * stride] for d in range(len(sf))]
                if all(map(eq, map(g.__getitem__, scol), tcol)):
                    factor_maps.append((sf, tf, g))
                    break
            else:
                return None
        for sf, tf, g in factor_maps:
            try:
                PalgMorphism(sf, tf, g)
            except ValueError:
                return False
        return True

    def _check_tables(self):
        """Every defined source entry maps to a defined, equal target entry;
        raises ValueError at the first that does not. The target is read
        through _lookup, so a product target's tables are not built; on a
        product of at most FACTORWISE_CHECK_BOUND elements the factor
        lookups run whether or not its tables are built, and are
        cross-checked against the tables."""
        target = self.target
        if target.factors is not None and len(target) <= FACTORWISE_CHECK_BOUND:
            failure = self._first_failure(target._from_factors)
            tables = target.tables
            by_tables = self._first_failure(lambda name, key: tables[name].get(key))
            cross_check(failure == by_tables, "factor lookups and the product's tables disagree")
        else:
            failure = self._first_failure(target._lookup)
        if failure:
            raise ValueError(failure)

    def _first_failure(self, lookup):
        """The message for the first defined source entry whose image under
        lookup(name, target index tuple), a target index or None, is
        undefined or not the image of its value, in table order; None if
        there is none. Entries are named in labels."""
        source, to = self.source, self.to
        for name, table in source.tables.items():
            for args, val in table.items():
                tv = lookup(name, tuple(map(to.__getitem__, args)))
                if tv is None or tv != to[val]:
                    what = "defined in source but image undefined" if tv is None else "not preserved"
                    return f"{name}{tuple(map(source.universe.__getitem__, args))} {what}"
        return None

    def after(self, other):
        if other.target != self.source:
            raise NotComposable("morphisms not composable")
        first = other.to_between(other.source, self.source)
        return PalgMorphism(other.source, self.target, map(self.to.__getitem__, first), validate=False)


def is_strong_sub(sub, algebra):
    """Strong partial subalgebra: every tuple over the subset is defined in the ambient."""
    if not all(map(algebra.point.__contains__, sub.universe)):
        raise NotSubset("not a subset")
    return sub.is_partial_sub_of(algebra) and undefined_tuple(algebra, sub.universe) is None


def is_strong_morphism(f):
    """Image tuples all defined in the target."""
    return undefined_tuple(f.target, set(map(f, f.source.universe))) is None


def undefined_tuple(algebra, points):
    """The first (name, args) that the algebra leaves undefined, in symbol
    order and then product order over points, or None."""
    at = list(map(algebra.point.__getitem__, points))
    for name, ar in algebra.stype.symbols:
        table = algebra.tables[name]
        for args in product(at, repeat=ar):
            if args not in table:
                return name, tuple(map(algebra.universe.__getitem__, args))
    return None


def image_palg(f, sub=None):
    """Image of a partial subalgebra: defined exactly on images of defined tuples."""
    if sub is None:
        sub = f.source
    elif not sub.is_partial_sub_of(f.source):
        raise NotSubset("sub is not a partial subalgebra of the source")
    to = f.to if sub is f.source else [f.to[f.source.point[x]] for x in sub.universe]
    kept = list(dict.fromkeys(to))  # the image's points, as target indices
    at = {y: k for k, y in enumerate(kept)}
    img = list(map(at.__getitem__, to))  # sub index -> image index
    tables = {
        name: {tuple(map(img.__getitem__, args)): img[val] for args, val in table.items()}
        for name, table in sub.tables.items()
    }
    return PartialAlgebra(f.source.stype, map(f.target.universe.__getitem__, kept), tables)


def preimage_palg(f, sub):
    """Preimage of a partial subalgebra of the target.

    The full restriction of the source to the preimage, cut down to the
    tuples whose image tuple is defined in sub: for a morphism the value of
    such a tuple lands in the preimage anyway. This is the reading under
    which f^{-1}(f(A)) = A holds.
    """
    if not sub.is_partial_sub_of(f.target):
        raise NotSubset("sub is not a partial subalgebra of the target")
    in_sub = [sub.point.get(f.target.universe[i]) for i in f.to]  # source index -> sub index
    pre = f.source.restrict_full(x for x, j in zip(f.source.universe, in_sub) if j is not None)
    img = [in_sub[f.source.point[x]] for x in pre.universe]  # pre index -> sub index
    tables = {
        name: {args: v for args, v in table.items() if tuple(map(img.__getitem__, args)) in sub.tables[name]}
        for name, table in pre.tables.items()
    }
    return PartialAlgebra(pre.stype, pre.universe, tables)


# Most cells a column of the identity kernel holds in one block, unless one
# value of the first variable alone needs more.
IDENTITY_CELLS = 1 << 12


class _Identities:
    """An identity list compiled for first_counterexamples.

    nodes: the distinct subterms of all identities as one DAG in evaluation
    order (arguments first), each (name, arguments, variables) with the
    variables a sorted tuple and each argument (node, stretch plan to this
    node's grid); a variable is (None, (), (v,)). sides: per identity, its
    two sides' nodes with their plans to the joint grid, the joint
    variables and its variable count k. reads: per identity, the nodes it
    reads in evaluation order, split into those without and those with the
    first variable.
    """

    __slots__ = ("names", "nodes", "sides", "reads")

    def __init__(self, identities):
        self.names, self.nodes, self.sides, self.reads = [], [], [], []
        number, seen, below = {}, {}, []  # below: the nodes each node reads

        def node(t):
            # memoized by object first: Term.__hash__ walks the whole term
            if id(t) not in seen:
                if t.kind == "var":
                    key, args, vs = (None, t.var), (), (t.var,)
                else:
                    key = (t.name, tuple(map(node, t.args)))
                    vs = tuple(sorted({v for a in key[1] for v in self.nodes[a][2]}))
                    args = tuple((a, _plan(self.nodes[a][2], vs)) for a in key[1])
                if key not in number:
                    number[key] = len(self.nodes)
                    below.append({len(self.nodes)}.union(*(below[a] for a, _ in args)))
                    self.nodes.append((key[0], args, vs))
                seen[id(t)] = number[key]
            return seen[id(t)]

        for name, t1, t2 in identities:
            left, right = node(t1), node(t2)
            joint = tuple(sorted({*self.nodes[left][2], *self.nodes[right][2]}))
            self.names.append(name)
            self.sides.append((
                left, _plan(self.nodes[left][2], joint), right, _plan(self.nodes[right][2], joint),
                joint, joint[-1] + 1 if joint else 0,
            ))
            reads = sorted(below[left] | below[right])
            self.reads.append(tuple(
                [j for j in reads if (0 in self.nodes[j][2]) == first] for first in (False, True)
            ))


def compile_identities(identities):
    """Compile a list of (name, t1, t2) identities for first_counterexamples.
    LATTICE_IDENTITIES is compiled once, at import: passing it returns that."""
    if identities is LATTICE_IDENTITIES:
        return _LATTICE_COMPILED
    return _Identities(identities)


def _plan(have, want):
    """How a column over the grid of the variables `have` becomes a column
    over the grid of `want`, a sorted superset: per added variable v in
    increasing order, (v, the number of variables after it so far, whether
    none comes before it). None when nothing is added."""
    steps = []
    for v in want:
        if v not in have:
            after = sum(w > v for w in have)
            steps.append((v, after, after == len(have)))
            have = (*have, v)
    return tuple(steps) or None


def _stretch(col, plan, n, b):
    """Apply a _plan: each added variable repeats every run of cells over
    the variables after it once per value. Grids are in product order; the
    first variable ranges over b block heads, every other over n points."""
    for v, after, leading in plan:
        size = b if v == 0 else n
        if leading:
            col = col * size
        elif not after:
            # each cell `size` times in a row: one strided copy per repeat
            out = [None] * (len(col) * size)
            for r in range(size):
                out[r::size] = col
            col = out
        else:
            inner = n**after
            col = list(chain.from_iterable(col[i : i + inner] * size for i in range(0, len(col), inner)))
    return col


_LATTICE_COMPILED = _Identities(LATTICE_IDENTITIES)


def first_counterexamples(compiled, points, tables, upto=None):
    """Each identity's first counterexample in product order over the points,
    or None where it holds, for the first `upto` identities of the compiled
    list (all by default). An identity holds when its sides agree wherever
    both are defined.

    tables maps each operation to its table from argument tuples of points
    to the value point. Every subterm is one column over the grid of its own
    variables, with None where it is undefined, a key no table has; a column
    is stretched to its parents' grids. Subterms without the first variable
    are evaluated once. The rest are evaluated per block of consecutive
    values of the first variable, so that a column holds at most
    IDENTITY_CELLS cells unless one value needs more: small carriers are one
    block. An identity that failed is not evaluated again. A counterexample
    is a tuple of k points, the first point where a variable is unused.
    """
    nodes, sides, reads = compiled.nodes, compiled.sides[:upto], compiled.reads
    points = list(points)
    n = len(points)
    found = [None] * len(sides)
    cols = {}

    def evaluate(live, heads, first):
        b = len(heads)
        for j in sorted({j for i in live for j in reads[i][first]}):
            name, args, vs = nodes[j]
            if name is None:
                cols[j] = heads if first else points
            elif args:
                arg_cols = [cols[a] if plan is None else _stretch(cols[a], plan, n, b) for a, plan in args]
                cols[j] = list(map(tables[name].get, zip(*arg_cols)))
            else:
                cols[j] = [tables[name].get(())]

    def compare(live, heads, start):
        b = len(heads)
        for i in live:
            left, lplan, right, rplan, joint, k = sides[i]
            c1 = cols[left] if lplan is None else _stretch(cols[left], lplan, n, b)
            c2 = cols[right] if rplan is None else _stretch(cols[right], rplan, n, b)
            if c1 == c2:
                continue
            for pos in compress(count(), map(ne, c1, c2)):
                if c1[pos] is not None and c2[pos] is not None:
                    value = {}
                    for v in reversed(joint):
                        pos, d = divmod(pos, b if v == 0 else n)
                        value[v] = points[start + d] if v == 0 else points[d]
                    found[i] = tuple(value.get(v, points[0]) for v in range(k))
                    break

    # with no points only a ground identity has an assignment to check
    live = [i for i, side in enumerate(sides) if n or not side[5]]
    evaluate(live, [], False)
    compare([i for i in live if 0 not in sides[i][4]], [], 0)
    live = [i for i in live if 0 in sides[i][4]]
    if live:
        width = max(len(sides[i][4]) for i in live)
        b = max(1, IDENTITY_CELLS // n ** (width - 1))
        for start in range(0, n, b):
            live = [i for i in live if found[i] is None]
            if not live:
                break
            heads = points[start : start + b]
            evaluate(live, heads, True)
            compare(live, heads, start)
    return found


def satisfies_identity(algebra, t1, t2):
    """True iff t1 and t2 agree wherever both are defined; else the first
    counterexample tuple in product order over the universe. One call of
    first_counterexamples on the index tables."""
    universe = algebra.universe
    [found] = first_counterexamples(
        compile_identities([(None, t1, t2)]), range(len(universe)), algebra.tables
    )
    return (True, None) if found is None else (False, tuple(map(universe.__getitem__, found)))


# Largest algebra on which is_lattice_algebra cross-checks its order verdict
# against the lattice identities.
LATTICE_CHECK_BOUND = 8


def _is_lattice_order(algebra):
    """Lattice-ness of a total algebra in the lattice signature, from its meet
    order u <= v iff meet(u, v) = u: a partial order in which meet(u, v) is
    the glb and join(u, v) the lub of u and v. Down-sets and up-sets are
    bitmasks over universe indices."""
    meet_t, join_t = algebra.tables["meet"], algebra.tables["join"]
    n = len(algebra)
    cells = list(product(range(n), repeat=2))
    down, up = [0] * n, [0] * n
    for u, v in cells:
        if meet_t[(u, v)] == u:
            down[v] |= 1 << u
            up[u] |= 1 << v
    # reflexive and antisymmetric: only u is both below and above u. The meet
    # equation then makes <= transitive: u <= v gives down(u) = down(u) & down(v)
    if any(below & up[u] != 1 << u for u, below in enumerate(down)):
        return False
    return all(
        down[meet_t[(u, v)]] == down[u] & down[v] and up[join_t[(u, v)]] == up[u] & up[v]
        for u, v in cells
    )


def _irreducibles(meet, join, n):
    """The join-irreducibles of a finite lattice, given by its meet and join
    tables on indices, each with its unique lower cover j_*, as (j, j_*) in
    index order. The join of the elements strictly below j is j_* when j is
    join-irreducible and j itself otherwise; nothing lies below the bottom,
    which is not join-irreducible. With the tables swapped: the
    meet-irreducibles, each with its unique upper cover."""
    strictly_below = [[] for _ in range(n)]
    for (u, v), m in meet.items():
        if m == u != v:
            strictly_below[v].append(u)
    out = []
    for j, us in enumerate(strictly_below):
        if us:
            star = us[0]
            for u in us:
                star = join[(star, u)]
            if star != j:
                out.append((j, star))
    return out


def is_lattice_signature(algebra):
    """The algebra's operations are exactly the binary meet and join."""
    return dict(algebra.stype.symbols) == {"meet": 2, "join": 2}


def is_lattice_algebra(algebra):
    """Total algebra in the lattice signature satisfying all lattice identities.

    Decided from the meet order, or above LATTICE_CHECK_BOUND elements for a
    nonempty recorded product from its factors, without building its
    tables; within the bound the identities are evaluated too, and every
    verdict that applies is cross-checked against the others. The
    verdict is kept on the algebra, so each algebra is decided once: nothing
    changes its tables after construction.
    """
    return algebra._lattice_verdict


def is_palg_isomorphism(f):
    """Bijective morphism that also reflects definedness."""
    if not (f.is_injective() and f.is_surjective()):
        return False
    inv = sorted(range(len(f.to)), key=f.to.__getitem__)  # by target index
    return all(
        tuple(map(inv.__getitem__, args)) in f.source.tables[name]
        for name, table in f.target.tables.items()
        for args in table
    )


@dataclass
class ChainColimit:
    obj: PartialAlgebra
    cocone: list
    stabilized: bool


def chain_cocone(morphisms, identity):
    """Top object and cocone of a finite composable chain of morphisms; the
    cocone's k-th leg runs from the k-th object to the top, ending with
    identity(top)."""
    if not morphisms:
        raise NotComposable("empty chain")
    for f, g in zip(morphisms, morphisms[1:]):
        if f.target != g.source:
            raise NotComposable("chain does not compose")
    top = morphisms[-1].target
    cocone = []
    acc = identity(top)
    for f in reversed(morphisms):
        acc = acc.after(f)
        cocone.append(acc)
    cocone.reverse()
    cocone.append(identity(top))
    return top, cocone


def chain_colimit(morphisms, window=1):
    """Colimit of a finite chain A0 -> A1 -> ... -> Am with stabilization report.

    For a finite prefix the colimit is the final object with the pushed
    structure (every defined tuple of an earlier stage pushes into a defined
    tuple of the last). The last `window` links count as stable when they are
    isomorphisms of partial algebras; when they are moreover strong, the
    colimit of the simulated endless chain is total, which is cross-checked.
    """
    morphisms = list(morphisms)
    top, cocone = chain_cocone(morphisms, PalgMorphism.identity)
    tail = morphisms[-window:] if window > 0 else []
    stabilized = all(is_palg_isomorphism(f) for f in tail)
    if stabilized and tail and all(is_strong_morphism(f) for f in tail):
        cross_check(top.is_total(), "stable strong tail must yield a total colimit")
    return ChainColimit(top, cocone, stabilized)


def product_closure(algebra, pairs):
    """Pairs of simultaneous term evaluations under two substitutions.

    The least set of pairs that contains the diagonal, the given pairs and
    their swaps, and is closed under every operation applied componentwise
    wherever both component tuples are defined. Each member is exactly
    (t(sigma), t(sigma')) for one term t with parameters, so reachability
    along these pairs decides term-chain existence with definedness. The
    closure runs on universe indices.
    """
    at, universe = algebra.point, algebra.universe
    members = {(i, i) for i in range(len(universe))}
    for a, b in pairs:
        members |= {(at[a], at[b]), (at[b], at[a])}
    fresh = set(members)
    ops = [(algebra.tables[name], ar) for name, ar in algebra.stype.symbols if ar]
    while fresh:
        old = members - fresh
        new = set()
        for table, ar in ops:
            # semi-naive: only tuples touching a fresh pair can yield new
            # pairs; slot k holds the first fresh one
            candidates = chain.from_iterable(
                product(*[old] * k, fresh, *[members] * (ar - k - 1)) for k in range(ar)
            )
            for args in candidates:
                lv = table.get(tuple(p[0] for p in args))
                if lv is None:
                    continue
                rv = table.get(tuple(p[1] for p in args))
                if rv is not None:
                    new.add((lv, rv))
        fresh = new - members
        members |= fresh
    return {(universe[a], universe[b]) for a, b in members}
