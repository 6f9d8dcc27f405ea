"""Finite partial algebras: term evaluation with definedness, subalgebra
calculus, identity satisfaction, images, and stabilizing chain colimits."""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, product, repeat
from operator import eq, ne

from .errors import NotComposable, NotSubset, NotTotal, cross_check


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

    ops maps a symbol name to {input tuple: value}; the definedness set of a
    symbol is exactly the key set of its table. Structures compare by
    structural equality on (type, universe-as-set, tables), which is what the
    image/preimage laws are stated in terms of.
    """

    def __init__(self, stype, universe, ops, validate=True):
        self.stype = stype
        self.universe = tuple(universe)
        if ops is not None:  # None from product only: see the ops property
            self.ops = {name: dict(table) for name, table in ops.items()}
            for name, _ in stype.symbols:
                self.ops.setdefault(name, {})
        self._uset = frozenset(self.universe)
        # the factor algebras when this is a direct product; set by product only
        self.factors = None
        if validate:
            self.validate()

    @cached_property
    def ops(self):
        """A product's tables, built from its recorded factors on first read
        and kept: the argument tuples of each table in itertools.product
        order, as product() documents. Every other algebra's tables are set
        by the constructor."""
        algebras = self.factors
        universe = self.universe
        ops = {}
        for name, ar in self.stype.symbols:
            tables = [a.ops[name] for a in algebras]
            if not ar:
                ops[name] = {(): tuple(t[()] for t in tables)}
                continue
            table = ops[name] = {}
            for lead in product(universe, repeat=ar - 1):
                # each factor's row of values over its last argument; their
                # product lists the row's values in universe order
                heads = zip(*lead) if lead else repeat(())
                rows = [
                    [t[h + (x,)] for x in a.universe] for t, a, h in zip(tables, algebras, heads)
                ]
                table.update(zip([lead + (u,) for u in universe], product(*rows)))
        return ops

    def validate(self):
        if len(self._uset) != len(self.universe):
            raise ValueError("duplicate universe elements")
        for name, table in self.ops.items():
            ar = self.stype.arity(name)
            for args, val in table.items():
                if len(args) != ar:
                    raise ValueError(f"{name}: arity mismatch at {args}")
                if not set(args) <= self._uset or val not in self._uset:
                    raise ValueError(f"{name}: entry {args}->{val} leaves the universe")

    @cached_property
    def translation_rows(self):
        """The index map of a total algebra's universe, and for each element u
        the indices of u's images under unary maps whose composites include
        every one-step unary translation (an operation, u in one slot,
        parameters in the others), so a partition closed under these maps
        is closed under all translations.

        On a lattice the maps are x -> x meet m for meet-irreducible m and
        x -> x join j for join-irreducible j: every c is the meet of the
        meet-irreducibles above it and the join of the join-irreducibles
        below it. A recorded product of lattices lifts its factors' maps
        coordinatewise and builds neither its tables nor its index tables.
        Any other algebra keeps each distinct one-step translation, in
        (operation, slot, parameters) order. Compiled on first use and
        kept: nothing changes an algebra's tables after construction.

        Two readers: congruence closure merges along these maps, and
        pregamp.check_axioms decides compatibility of a distance as "every
        map is non-expanding", exact given the triangle inequality, since a
        composite of non-expanding maps is non-expanding."""
        universe = self.universe
        index = {x: i for i, x in enumerate(universe)}
        if self.factors is not None and all(map(is_lattice_algebra, self.factors)):
            columns = self._lifted_columns()
        elif is_lattice_algebra(self):
            n, tables = len(universe), self.index_tables[1]
            meet, join = tables["meet"], tables["join"]
            columns = [
                tuple(table[(u, c)] for u in range(n))
                for table, other in ((meet, join), (join, meet))
                for c, _ in _irreducibles(other, table, n)
            ]
        else:
            columns = dict.fromkeys(
                tuple(index[t[ps[:pos] + (u,) + ps[pos:]]] for u in universe)
                for name, ar in self.stype.symbols
                for t in (self.ops[name],)
                for pos in range(ar)
                for ps in product(universe, repeat=ar - 1)
            )
        return index, list(zip(*columns)) or [()] * len(universe)

    def _lifted_columns(self):
        """The factors' translation maps, each acting on its own coordinate
        of a product's universe indices (mixed radix in product order) and
        fixing the others."""
        sizes = [len(f) for f in self.factors]
        strides = [1] * len(sizes)
        for t in range(len(sizes) - 1, 0, -1):
            strides[t - 1] = strides[t] * sizes[t]
        points = range(len(self.universe))
        return [
            tuple(i + (col[i // stride % size] - i // stride % size) * stride for i in points)
            for f, size, stride in zip(self.factors, sizes, strides)
            for col in zip(*f.translation_rows[1])
        ]

    @cached_property
    def index_tables(self):
        """The index map of the universe, and for each operation its table on
        indices: a dict from argument index tuples to the value's index.
        Compiled on first use and kept, as translation_rows is."""
        index = {x: i for i, x in enumerate(self.universe)}
        return index, {
            name: {tuple(map(index.__getitem__, args)): index[v] for args, v in table.items()}
            for name, table in self.ops.items()
        }

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
                compile_identities(LATTICE_IDENTITIES), range(len(self)), self.index_tables[1]
            )
            by_identities = all(ce is None for ce in found)
            cross_check(ok == by_identities, "meet order and lattice identities disagree")
            cross_check(by_factors in (None, ok), "a product and its factors disagree on lattice-ness")
        return ok

    def apply(self, name, args):
        """The value of one table entry, or UNDEFINED. A product whose tables
        are not built answers from its factors and builds nothing."""
        if self.factors is None or "ops" in self.__dict__:
            return self.ops[name].get(tuple(args), UNDEFINED)
        return self._from_factors(name, tuple(args))

    def _from_factors(self, name, args):
        """A product's entry read off its factors, one coordinate per factor:
        the factors are total, so it is defined exactly when every argument
        lies in the universe and the arity is right."""
        if not all(map(self._uset.__contains__, args)):
            return UNDEFINED
        coords = zip(*args) if args else repeat(())
        value = tuple(f.apply(name, c) for f, c in zip(self.factors, coords))
        return UNDEFINED if UNDEFINED in value else value

    def is_total(self):
        # product() checks its factors total, so a product is total: answered
        # without building its tables
        if self.factors is not None:
            return True
        n = len(self.universe)
        return all(len(self.ops[name]) == n ** self.stype.arity(name) for name, _ in self.stype.symbols)

    def __contains__(self, x):
        return x in self._uset

    def __len__(self):
        return len(self.universe)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PartialAlgebra) or self.stype != other.stype:
            return False
        if self.factors and other.factors and self.universe and other.universe:
            # nonempty products are equal exactly when their factors are,
            # pair by pair: the factors are their coordinates
            return len(self.factors) == len(other.factors) and all(map(eq, self.factors, other.factors))
        return self._uset == other._uset and self.ops == other.ops

    def __hash__(self):
        if self.factors is not None:  # total: each table has n^arity entries
            n = len(self.universe)
            sizes = ((name, n ** ar) for name, ar in self.stype.symbols)
        else:
            sizes = ((name, len(t)) for name, t in self.ops.items())
        return hash((self.stype, self._uset, tuple(sorted(sizes))))

    def __repr__(self):
        kind = "total" if self.is_total() else "partial"
        return f"PartialAlgebra({len(self.universe)} elements, {kind})"

    def is_partial_sub_of(self, other):
        """Definedness contained and tables agreeing."""
        if not self._uset <= other._uset or self.stype != other.stype:
            return False
        for name, table in self.ops.items():
            for args, val in table.items():
                if other.ops[name].get(args) != val:
                    return False
        return True

    def restrict_full(self, subset):
        """Induced full partial subalgebra on a subset of the universe."""
        subset = frozenset(subset)
        if not subset <= self._uset:
            raise NotSubset("subset leaves the universe")
        ops = {}
        for name, table in self.ops.items():
            ops[name] = {
                args: val
                for args, val in table.items()
                if set(args) <= subset and val in subset
            }
        order = [x for x in self.universe if x in subset]
        return PartialAlgebra(self.stype, order, ops, validate=False)

    @classmethod
    def total_from_fn(cls, stype, universe, fns):
        universe = list(universe)
        ops = {}
        for name, ar in stype.symbols:
            ops[name] = {args: fns[name](*args) for args in product(universe, repeat=ar)}
        return cls(stype, universe, ops, validate=False)

    @classmethod
    def product(cls, algebras):
        """Direct product of total algebras of one similarity type.

        The universe is the tuples of factor elements in itertools.product
        order, and each table lists its argument tuples in that order too.
        Every factor must be total (else NotTotal), and there must be at
        least one factor, all of one similarity type (else ValueError). The
        result records the factors in `factors`; only this constructor sets
        it, and nothing changes a product's tables afterwards, so a product
        always equals the direct product of its recorded factors. The tables
        are built on the first read of `ops`; is_total(), hashing, comparing
        a product with itself or with another nonempty product, and apply()
        before that read do not read them.
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
        alg = cls(stype, product(*(a.universe for a in algebras)), None, validate=False)
        alg.factors = tuple(algebras)
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


class PalgMorphism:
    """Total map preserving every defined operation.

    Maps out of a recorded product are decided factorwise when they are
    coordinatewise; otherwise, and whenever a factor map fails, every table
    entry is checked, so a failure always names the first failing entry.
    A product target is read entry by entry through apply, so maps into a
    power do not build its tables.
    """

    def __init__(self, source, target, mapping, validate=True):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        if validate:
            self.validate()

    def validate(self):
        if self.source.stype != self.target.stype:
            raise ValueError("similarity types differ")
        for x in self.source.universe:
            if self.mapping.get(x) not in self.target:
                raise ValueError(f"map not into target at {x!r}")
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
        only, which is checked on every element. Then the map is a morphism
        iff every factor map is, since the factors are total: True or False.
        None when the source is not a nonempty recorded product or the map
        is not coordinatewise.
        """
        src, tgt = self.source, self.target
        if src.factors is None or not src.universe:
            return None
        images = [self.mapping[x] for x in src.universe]
        if tgt.factors is None:
            tfactors, images = (tgt,), [(y,) for y in images]
        else:
            tfactors = tgt.factors
        factor_maps = []
        for j, tf in enumerate(tfactors):
            for i, sf in enumerate(src.factors):
                g = {}
                if all(g.setdefault(x[i], y[j]) == y[j] for x, y in zip(src.universe, images)):
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
        through apply, so a product target's tables are not built; on a
        product of at most FACTORWISE_CHECK_BOUND elements the factor
        lookups run whether or not its tables are built, and are
        cross-checked against the tables."""
        target = self.target
        if target.factors is not None and len(target) <= FACTORWISE_CHECK_BOUND:
            failure = self._first_failure(target._from_factors)
            tables = target.ops
            by_tables = self._first_failure(lambda name, im: tables[name].get(im, UNDEFINED))
            cross_check(failure == by_tables, "factor lookups and the product's tables disagree")
        else:
            failure = self._first_failure(target.apply)
        if failure:
            raise ValueError(failure)

    def _first_failure(self, lookup):
        """The message for the first defined source entry whose image under
        lookup(name, image tuple) is undefined or not the image of its
        value, in table order; None if there is none."""
        m = self.mapping
        for name, table in self.source.ops.items():
            for args, val in table.items():
                tv = lookup(name, tuple(map(m.__getitem__, args)))
                if tv is UNDEFINED:
                    return f"{name}{args} defined in source but image undefined"
                if tv != m[val]:
                    return f"{name}{args} not preserved"
        return None

    def __call__(self, x):
        return self.mapping[x]

    def apply_tuple(self, args):
        return tuple(self.mapping[a] for a in args)

    def is_injective(self):
        vals = [self.mapping[x] for x in self.source.universe]
        return len(set(vals)) == len(vals)

    def is_surjective(self):
        return {self.mapping[x] for x in self.source.universe} == set(self.target.universe)

    def after(self, other):
        if other.target != self.source:
            raise NotComposable("morphisms not composable")
        return PalgMorphism(
            other.source, self.target,
            {x: self.mapping[other.mapping[x]] for x in other.source.universe},
            validate=False,
        )

    def __eq__(self, other):
        return (
            isinstance(other, PalgMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"PalgMorphism({len(self.source)}->{len(self.target)})"

    @classmethod
    def identity(cls, algebra):
        return cls(algebra, algebra, {x: x for x in algebra.universe}, validate=False)


def is_strong_sub(sub, algebra):
    """Strong partial subalgebra: every tuple over the subset is defined in the ambient."""
    if not sub._uset <= algebra._uset:
        raise NotSubset("not a subset")
    return sub.is_partial_sub_of(algebra) and undefined_tuple(algebra, sub.universe) is None


def is_strong_morphism(f):
    """Image tuples all defined in the target."""
    return undefined_tuple(f.target, set(map(f, f.source.universe))) is None


def undefined_tuple(algebra, points):
    """The first (name, args) that the algebra leaves undefined, in symbol
    order and then product order over points, or None."""
    for name, ar in algebra.stype.symbols:
        table = algebra.ops[name]
        for args in product(points, repeat=ar):
            if args not in table:
                return name, args
    return None


def image_palg(f, sub=None):
    """Image of a partial subalgebra: defined exactly on images of defined tuples."""
    if sub is None:
        sub = f.source
    elif not sub.is_partial_sub_of(f.source):
        raise NotSubset("sub is not a partial subalgebra of the source")
    universe = []
    seen = set()
    for x in sub.universe:
        v = f(x)
        if v not in seen:
            seen.add(v)
            universe.append(v)
    ops = {}
    for name, table in sub.ops.items():
        t = {}
        for args, val in table.items():
            t[f.apply_tuple(args)] = f(val)
        ops[name] = t
    return PartialAlgebra(f.source.stype, universe, ops, validate=False)


def preimage_palg(f, sub):
    """Preimage of a partial subalgebra of the target.

    Defined on tuples that are defined in the source and whose image tuple is
    defined in sub; the value then automatically lands in the preimage. This
    is the reading under which f^{-1}(f(A)) = A holds.
    """
    if not sub.is_partial_sub_of(f.target):
        raise NotSubset("sub is not a partial subalgebra of the target")
    universe = [x for x in f.source.universe if f(x) in sub]
    uset = set(universe)
    ops = {}
    for name, table in f.source.ops.items():
        t = {}
        for args, val in table.items():
            if set(args) <= uset and f.apply_tuple(args) in sub.ops[name]:
                t[args] = val
        ops[name] = t
    return PartialAlgebra(f.source.stype, universe, ops, validate=False)


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
        compile_identities([(None, t1, t2)]), range(len(universe)), algebra.index_tables[1]
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
    meet_t, join_t = algebra.ops["meet"], algebra.ops["join"]
    index = {x: i for i, x in enumerate(algebra.universe)}
    cells = list(product(enumerate(algebra.universe), repeat=2))
    down, up = [0] * len(index), [0] * len(index)
    for (u, x), (v, y) in cells:
        if meet_t[(x, y)] == x:
            down[v] |= 1 << u
            up[u] |= 1 << v
    # reflexive and antisymmetric: only u is both below and above u. The meet
    # equation then makes <= transitive: u <= v gives down(u) = down(u) & down(v)
    if any(below & up[u] != 1 << u for u, below in enumerate(down)):
        return False
    return all(
        down[index[meet_t[(x, y)]]] == down[u] & down[v]
        and up[index[join_t[(x, y)]]] == up[u] & up[v]
        for (u, x), (v, y) in cells
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
    inv = {f(x): x for x in f.source.universe}
    for name, table in f.target.ops.items():
        for args in table:
            pre = tuple(inv[a] for a in args)
            if pre not in f.source.ops[name]:
                return False
    return True


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
    along these pairs decides term-chain existence with definedness.
    """
    members = {(x, x) for x in algebra.universe}
    for a, b in pairs:
        members |= {(a, b), (b, a)}
    fresh = set(members)
    ops = [(algebra.ops[name], ar) for name, ar in algebra.stype.symbols if ar]
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
                lv = table.get(tuple(p[0] for p in args), UNDEFINED)
                if lv is UNDEFINED:
                    continue
                rv = table.get(tuple(p[1] for p in args), UNDEFINED)
                if rv is not UNDEFINED:
                    new.add((lv, rv))
        fresh = new - members
        members |= fresh
    return members
