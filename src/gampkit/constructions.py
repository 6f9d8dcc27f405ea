"""Concrete small lattices, the two commuting squares built from a base
lattice and a chain, verification of their stated facts, and a refutation
engine that executes the no-permutable-extension proof as a checked program."""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, product

from .errors import (
    BudgetExceeded,
    HypothesisFailed,
    PreconditionFailed,
    SearchExhausted,
    StepFailed,
    TooLarge,
    UnknownName,
    cross_check,
)
from .palg import (
    LATTICE_IDENTITIES,
    LATTICE_TYPE,
    PalgMorphism,
    PartialAlgebra,
    UNDEFINED,
    is_lattice_algebra,
)
from .poset import FinitePoset
from .semilattice import SemMorphism, ker0
from .pregamp import Pregamp, _first_incompatible, _first_not_below, check_axioms, is_pregamp_of
from .gamp import (
    Gamp,
    GampMorphism,
    check_property,
    pggl,
    pggl_mor,
)
from .diagram import (
    Diagram, DiagramIdeal, NaturalTransformation, apply_functor, is_operational_diagram,
    quotient_diagram,
)
from .util import assignments, sort_key
from . import congruence as _cong


# ---------------------------------------------------------------------------
# named lattices


@dataclass
class NamedLattice:
    name: str
    algebra: PartialAlgebra
    special: dict = field(default_factory=dict)


def lattice_from_covers(elements, covers):
    """Total lattice algebra from a Hasse diagram; meets and joins must exist."""
    poset = FinitePoset.from_covers(elements, covers)

    def meet_fn(a, b):
        lower = [c for c in elements if poset.leq(c, a) and poset.leq(c, b)]
        tops = [c for c in lower if all(poset.leq(d, c) for d in lower)]
        if len(tops) != 1:
            raise ValueError(f"no meet for {(a, b)}")
        return tops[0]

    def join_fn(a, b):
        upper = [c for c in elements if poset.leq(a, c) and poset.leq(b, c)]
        bots = [c for c in upper if all(poset.leq(c, d) for d in upper)]
        if len(bots) != 1:
            raise ValueError(f"no join for {(a, b)}")
        return bots[0]

    alg = PartialAlgebra.total_from_fn(
        LATTICE_TYPE, elements, {"meet": meet_fn, "join": join_fn}
    )
    cross_check(is_lattice_algebra(alg), "covers must give a lattice")
    return alg


def _chain_lattice(k):
    els = list(range(k))
    return PartialAlgebra.total_from_fn(LATTICE_TYPE, els, {"meet": min, "join": max})


def dual_lattice(algebra):
    tables = {"meet": algebra.tables["join"], "join": algebra.tables["meet"]}
    return PartialAlgebra(algebra.stype, algebra.universe, tables)


_BUILDERS = {}


def _register(name):
    def deco(fn):
        _BUILDERS[name] = fn
        return fn

    return deco


@_register("two")
def _build_two():
    alg = _chain_lattice(2)
    return NamedLattice("two", alg, {"zero": 0, "one": 1})


@_register("M3")
def _build_m3():
    els = ["0", "x1", "x2", "x3", "1"]
    covers = [("0", a) for a in ("x1", "x2", "x3")] + [(a, "1") for a in ("x1", "x2", "x3")]
    alg = lattice_from_covers(els, covers)
    return NamedLattice("M3", alg, {"zero": "0", "one": "1", "x1": "x1", "x2": "x2", "x3": "x3"})


@_register("N5")
def _build_n5():
    els = ["0", "a", "b", "c", "1"]
    covers = [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")]
    alg = lattice_from_covers(els, covers)
    return NamedLattice("N5", alg, {"zero": "0", "one": "1"})


@_register("L2")
def _build_l2():
    els = ["0", "u", "v", "x1", "x2", "x3", "1"]
    covers = [
        ("0", "u"), ("0", "v"),
        ("u", "x1"), ("u", "x3"), ("v", "x2"), ("v", "x3"),
        ("x1", "1"), ("x2", "1"), ("x3", "1"),
    ]
    alg = lattice_from_covers(els, covers)
    return NamedLattice("L2", alg, {"zero": "0", "one": "1", "x1": "x1", "x2": "x2", "x3": "x3"})


@_register("L3")
def _build_l3():
    els = ["0", "x1", "w", "x2", "y", "x3", "1"]
    covers = [
        ("0", "x1"), ("0", "w"),
        ("w", "x2"), ("w", "x3"),
        ("x1", "y"), ("x2", "y"),
        ("y", "1"), ("x3", "1"),
    ]
    alg = lattice_from_covers(els, covers)
    return NamedLattice("L3", alg, {"zero": "0", "one": "1", "x1": "x1", "x2": "x2", "x3": "x3"})


@_register("L4")
def _build_l4():
    els = ["0", "x1", "x2", "x3", "v", "1"]
    covers = [
        ("0", "x1"), ("0", "x2"), ("0", "x3"),
        ("x1", "v"), ("x2", "v"),
        ("v", "1"), ("x3", "1"),
    ]
    alg = lattice_from_covers(els, covers)
    return NamedLattice("L4", alg, {"zero": "0", "one": "1", "x1": "x1", "x2": "x2", "x3": "x3"})


def _build_xk(which):
    xk = f"x{which}"
    els = ["0", "m", xk, "x3", "1"]
    covers = [("0", "m"), ("m", xk), ("m", "x3"), (xk, "1"), ("x3", "1")]
    alg = lattice_from_covers(els, covers)
    return NamedLattice(f"X{which}", alg, {"zero": "0", "one": "1", xk: xk, "x3": "x3"})


_BUILDERS["X1"] = lambda: _build_xk(1)
_BUILDERS["X2"] = lambda: _build_xk(2)


def build_named(name):
    """Named lattice registry; supports chain:k, dual:NAME and power:NAME:k
    with k >= 1. Any other spec raises UnknownName naming it."""
    if name in _BUILDERS:
        return _BUILDERS[name]()
    kind, _, rest = name.partition(":")
    if kind == "chain":
        k = _count(name, rest)
        alg = _chain_lattice(k)
        return NamedLattice(name, alg, {"zero": 0, "one": k - 1})
    if kind == "dual":
        base = build_named(rest)
        special = dict(base.special)
        special["zero"], special["one"] = special.get("one"), special.get("zero")
        return NamedLattice(name, dual_lattice(base.algebra), special)
    if kind == "power" and rest.count(":") == 1:
        base_name, k = rest.split(":")
        k = _count(name, k)
        base = build_named(base_name)
        alg = PartialAlgebra.product([base.algebra] * k)
        special = {key: tuple([val] * k) for key, val in base.special.items() if val is not None}
        return NamedLattice(name, alg, special)
    raise _unknown(name)


def _count(name, token):
    """The exponent or length k of a spec, which must be a decimal k >= 1."""
    if token.isdecimal() and int(token) >= 1:
        return int(token)
    raise _unknown(name)


def _unknown(name):
    return UnknownName(
        f"unknown lattice {name!r}: expected one of {', '.join(sorted(_BUILDERS))}, "
        "chain:k with k >= 1, dual:NAME or power:NAME:k with k >= 1"
    )


# ---------------------------------------------------------------------------
# the two squares

SQUARE_NODES = ("b", "l", "r", "t")


@dataclass
class UnliftableSquare:
    """The inclusion square inside the base lattice and its chain-powered
    companion, with the isotone-surjection index set and the per-index
    projection transformations."""

    n: int
    base: NamedLattice
    x_square: Diagram
    a_square: Diagram
    cuts: tuple  # (i, j) encodings of the isotone surjections
    projections: dict  # (i, j) -> dict node -> PalgMorphism A_node -> X_node

    @property
    def chain_algebra(self):
        return self.a_square.objects["b"]

    @cached_property
    def ga_square(self):
        """The algebra gamps of the companion square, built on first use; their
        pregamps are its PGA image, which every candidate's inner pregamps
        must match on the nose."""
        return apply_functor(self.a_square, "GA")


def _sublattice(base_alg, subset, name):
    sub = base_alg.restrict_full(subset)
    if not sub.is_total():
        raise HypothesisFailed(f"{name} is not closed under the operations")
    return sub


def _count_isotone_surjections(chain, target):
    """Isotone surjections from a chain onto a lattice algebra, by brute
    force on the target's indices."""
    meet, points = target.tables["meet"], range(len(target))
    count = 0
    for vals in product(points, repeat=len(chain.universe)):
        isotone = all(meet[(u, v)] == u for u, v in zip(vals, vals[1:]))
        if isotone and len(set(vals)) == len(points):
            count += 1
    return count


def build_square(base, n):
    """Both squares over the square poset, from a base lattice with marked
    elements and a chain of length n.

    Hypotheses: x1 meet x2 = 0, x3 join x1 = x3 join x2 = 1 and 0 < x3 < 1
    in the base; violations raise with the failing relation. The surjection
    index set is materialized and its size checked against an independent
    brute count of the isotone surjections onto X0. A power over
    POWER_BOUND elements is refused with TooLarge before anything is built.
    """
    if isinstance(base, str):
        base = build_named(base)
    K = base.algebra
    sp = base.special
    missing = [k for k in ("x1", "x2", "x3") if k not in sp]
    if missing:
        raise HypothesisFailed(f"{base.name} lacks the marked elements {', '.join(missing)}")
    zero, one = sp["zero"], sp["one"]
    x1, x2, x3 = sp["x1"], sp["x2"], sp["x3"]
    if K.apply("meet", (x1, x2)) != zero:
        raise HypothesisFailed("x1 meet x2 = 0 fails")
    for xk in (x1, x2):
        if K.apply("join", (x3, xk)) != one:
            raise HypothesisFailed(f"x3 join {xk} = 1 fails")
    if x3 in (zero, one):
        raise HypothesisFailed("0 < x3 < 1 fails")
    if n < 2:
        raise HypothesisFailed("n must be at least 2")

    m13 = K.apply("meet", (x1, x3))
    m23 = K.apply("meet", (x2, x3))
    x0 = _sublattice(K, {zero, x3, one}, "X0")
    xk_algs = {
        "b": x0,
        "l": _sublattice(K, {zero, m13, x1, x3, one}, "X1"),
        "r": _sublattice(K, {zero, m23, x2, x3, one}, "X2"),
        "t": K,
    }
    for node in ("l", "r", "t"):
        size = len(xk_algs[node]) ** (n * (n - 1) // 2)
        if size > POWER_BOUND:
            raise TooLarge(
                f"power at node {node} has {size:,} elements, over POWER_BOUND = {POWER_BOUND:,}"
            )
    poset = FinitePoset.square()

    def incl(a, b):
        """The inclusion of a in b; of a power in a power, its factor
        inclusion on every index digit."""
        if a.factors is None:
            return PalgMorphism(a, b, map(b.point.__getitem__, a.universe))
        factor, to = incl(a.factors[0], b.factors[0]).to, [0]
        for _ in a.factors:
            to = [i * len(b.factors[0]) + j for i in to for j in factor]
        return PalgMorphism(a, b, to)

    x_square = Diagram.from_generators(
        poset,
        xk_algs,
        {
            (p, q): incl(xk_algs[p], xk_algs[q])
            for (p, q) in [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]
        },
    )

    chain = _chain_lattice(n + 1)
    cuts = tuple((i, j) for i in range(n - 1) for j in range(i + 1, n))
    surjections = _count_isotone_surjections(chain, x0)
    cross_check(len(cuts) == n * (n - 1) // 2 == surjections, "cuts are the surjections onto X0")
    t_maps = {}
    for (i, j) in cuts:
        t_maps[(i, j)] = {
            k: (zero if k <= i else (x3 if k <= j else one)) for k in chain.universe
        }

    powers = {
        node: PartialAlgebra.product([xk_algs[node]] * len(cuts)) for node in ("l", "r", "t")
    }
    a_algs = {"b": chain, "l": powers["l"], "r": powers["r"], "t": powers["t"]}

    def chain_map(node):
        return PalgMorphism.from_map(
            chain, a_algs[node],
            {k: tuple(t_maps[c][k] for c in cuts) for k in chain.universe},
        )

    a_square = Diagram.from_generators(
        poset,
        a_algs,
        {
            ("b", "l"): chain_map("l"),
            ("b", "r"): chain_map("r"),
            ("l", "t"): incl(a_algs["l"], a_algs["t"]),
            ("r", "t"): incl(a_algs["r"], a_algs["t"]),
        },
    )

    projections = {}
    for idx, c in enumerate(cuts):
        comps = {"b": PalgMorphism.from_map(chain, x0, t_maps[c])}
        for node in ("l", "r", "t"):
            comps[node] = PalgMorphism(a_algs[node], xk_algs[node], a_algs[node].coordinate(idx))
        projections[c] = comps
    return UnliftableSquare(n, base, x_square, a_square, cuts, projections)


def _atoms_of_boolean(cs):
    zero = cs.zero
    atoms = [a for a in cs.elements if a != zero and all(
        not (cs.leq(b, a) and b != zero and b != a) for b in cs.elements
    )]
    return atoms


def _is_boolean_with_atoms(cs, expected_atoms):
    atoms = _atoms_of_boolean(cs)
    if sorted(map(sort_key, atoms)) != sorted(map(sort_key, expected_atoms)):
        return False
    if len(cs) != 2 ** len(atoms):
        return False
    seen = set()
    for subset_bits in range(2 ** len(atoms)):
        chosen = [a for k, a in enumerate(atoms) if subset_bits >> k & 1]
        seen.add(cs.join_all(chosen))
    return len(seen) == len(cs)


# Largest power X^(n(n-1)/2) that build_square builds, in elements: L2 at
# n = 4 has 7^6 = 117,649 at its top node, M3 at n = 5 has 4^10 at node l.
POWER_BOUND = 200_000


def _wing_principals(cs, xk, special):
    """Theta(x3, 1) and Theta(1, xk) read from a wing's Conc, and whether
    they meet trivially."""
    t1 = cs.principal(special["x3"], special["one"])
    t2 = cs.principal(special["one"], xk)
    return t1, t2, _cong.con_meet(t1, t2) == cs.zero


def verify_square_facts(square):
    """The stated finite facts about the two squares, read from one Conc per
    lattice they are about: the chain and the factors X_l, X_r and X_t.

    (a) the two principal congruences at the marked elements meet trivially
    in each wing; (b) the chain's congruence lattice is Boolean on the cover
    atoms; (c) every node is congruence (n+1)-permutable: the chain directly,
    and each power X^T exactly through its factor X. Lattices are
    congruence-distributive, so Con(X^T) = Con(X)^T (Fraser-Horn, Proc. AMS
    26, 1970) and alternating composites of product congruences are taken
    coordinatewise: X^T is (n+1)-permutable iff X is. A node l, r or t that
    is not a power of a lattice raises HypothesisFailed. (d) both squares
    commute and each projection family is a natural transformation.
    """
    n = square.n
    report = {"n": n, "base": square.base.name, "facts": {}}
    sp = square.base.special
    lattices = {"b": square.chain_algebra}
    for node in ("l", "r", "t"):
        factor = lattices[node] = square.x_square.objects[node]
        factors = square.a_square.objects[node].factors or ()
        if not (is_lattice_algebra(factor) and factors and all(f == factor for f in factors)):
            raise HypothesisFailed(f"node {node} is not a power of a lattice")
    concs = {node: _cong.conc(alg) for node, alg in lattices.items()}

    # (a)
    fact_a = {
        node: _wing_principals(concs[node], sp[xk], sp)[2]
        for node, xk in (("l", "x1"), ("r", "x2"))
    }
    report["facts"]["meet_of_principals_zero"] = fact_a

    # (b)
    cs = concs["b"]
    expected = [cs.principal(k, k + 1) for k in range(n)]
    report["facts"]["chain_con_boolean"] = _is_boolean_with_atoms(cs, expected)

    # (c)
    fact_c = {
        node: {"ok": _cong.is_n_permutable(alg, n + 1, concs[node])[0]}
        for node, alg in lattices.items()
    }
    report["facts"]["nodes_n_plus_1_permutable"] = fact_c

    # (d)
    ok_x, _ = square.x_square.validate()
    ok_a, _ = square.a_square.validate()
    natural = {}
    for c in square.cuts:
        try:
            NaturalTransformation(square.a_square, square.x_square, square.projections[c])
            natural[str(c)] = True
        except ValueError:
            natural[str(c)] = False
    report["facts"]["squares_commute"] = ok_x and ok_a
    report["facts"]["projections_natural"] = natural

    report["ok"] = (
        all(fact_a.values())
        and report["facts"]["chain_con_boolean"]
        and all(v["ok"] for v in fact_c.values())
        and report["facts"]["squares_commute"]
        and all(natural.values())
    )
    return report


# ---------------------------------------------------------------------------
# candidates and the refutation engine


@dataclass
class CandidateSquare:
    """Gamp diagram over the companion diagram's poset whose inner-pregamp
    image is its algebra gamp diagram on the nose."""

    diagram: Diagram
    label: str = ""


@dataclass
class TraceStep:
    name: str
    detail: object
    ok: bool = True


@dataclass
class RefutationCertificate:
    """Full trace of the executed proof: the chain, the permutability
    interpolants, the violation indices, the chosen surjection, the ideal
    family, and the final inequality that direct computation refutes."""

    chain: tuple
    interpolants: tuple
    index_i: int
    index_j: int
    cut: tuple
    ideals: dict
    final_inequality: tuple
    steps: list

    def validate(self, square):
        """Re-run every recorded step check; the final inequality must fail in
        the chain's congruence semilattice."""
        cross_check(all(s.ok for s in self.steps), "a recorded step failed")
        cs = square.ga_square.objects["b"].sem
        lhs, rhs_parts = self.final_inequality
        rhs = cs.join_all(rhs_parts)
        return not cs.leq(lhs, rhs)


def _require(cond, reason, detail=None):
    if not cond:
        raise PreconditionFailed(reason, detail)


def _node_conditions(g, n):
    """The conditions on one node of a candidate, in order, each computed
    when it is reached: the distance axioms, the lattice variety, then
    lattice n-permutability up to its first deficient tuple. Yields
    (reason, ok, violation); the enumerator's node checks and the
    preconditions both walk it."""
    yield ("distance-axioms", *check_axioms(g.pregamp))
    yield ("lattice-variety", *is_pregamp_of(g.pregamp, LATTICE_IDENTITIES))
    v = check_property(g, "lattice_n_permutable", n=n)
    yield "lattice-n-permutable", bool(v), v.witness


def _candidate_preconditions(expected, diagram, n):
    """All stated preconditions on a candidate diagram over the algebra gamp
    diagram `expected`, checked exhaustively at every node of the index
    poset: each node's axioms and variety, the inner images of nodes and
    arrows, operational arrows, then each node's n-permutability."""
    _require(diagram.poset == expected.poset, "index-poset")
    ok, viol = diagram.validate()
    _require(ok, "diagram", viol)
    nodes = diagram.poset.elements
    pending = {p: _node_conditions(diagram.objects[p], n) for p in nodes}
    for p in nodes:
        for reason, ok, viol in islice(pending[p], 2):  # the axioms and the variety
            _require(ok, reason, (p, viol))
    for p in nodes:
        _require(pggl(diagram.objects[p]) == expected.objects[p].pregamp, "inner-image", p)
    for pq, arrow in diagram.arrows.items():
        _require(pggl_mor(arrow) == expected.arrows[pq].pg, "inner-image-arrow", pq)
    ok, viol = is_operational_diagram(diagram)
    _require(ok, "operational", viol)
    for p in nodes:
        for reason, ok, viol in pending[p]:
            _require(ok, reason, (p, viol))


def refute_candidate(square, cand, n, precheck=True):
    """Execute the no-extension proof on a candidate, checking every step.

    Raises PreconditionFailed when the candidate is not a valid operational,
    lattice congruence n-permutable gamp square over the algebra square.
    After that, every derived (in)equality of the proof is recomputed on the
    candidate's tables; any failure raises StepFailed naming the step, which
    signals an implementation bug or a genuine counterexample. A completed
    trace ends in an inequality that direct computation of the chain's
    congruences refutes, packaged as a certificate.
    """
    steps = []

    def record(name, detail, ok=True):
        steps.append(TraceStep(name, detail, ok))
        if not ok:
            raise StepFailed(name, detail)

    chain = square.chain_algebra
    _require(len(chain) == n + 1, "chain-length", (len(chain), n + 1))
    if precheck:
        _candidate_preconditions(square.ga_square, cand.diagram, n)
    diagram = cand.diagram

    a = list(chain.universe)
    g0 = diagram.objects["b"]
    cs0 = g0.sem
    d0 = g0.delta

    first = g0.outer.apply("meet", (a[0], a[n]))
    last = g0.outer.apply("join", (a[0], a[n]))
    ys = None
    if first is not UNDEFINED and last is not UNDEFINED:
        outer = sorted(g0.outer.universe, key=sort_key)
        ys = next(_cong.chain_interpolants(g0.pregamp, a, first, last, outer, chains=True), None)
    record("witness", ys, ys is not None)
    b = list(ys)
    record("witness-endpoints", (b[0], b[n]), b[0] == a[0] and b[n] == a[n])

    for k in range(n):
        bound = cs0.join(d0(a[0], a[k]), d0(a[k + 1], a[n]))
        record(
            f"between-endpoints[{k}]", (d0(b[k], b[k + 1]), bound),
            cs0.leq(d0(b[k], b[k + 1]), bound),
        )

    bad = [i for i in range(n) if not cs0.leq(d0(a[i], b[i + 1]), d0(a[0], a[i]))]
    record("minimal-index", bad, bool(bad))
    i = min(bad)
    record("comparison", i, cs0.leq(d0(a[0], b[i]), d0(a[0], a[i])))
    record("step-escape", i, not cs0.leq(d0(b[i], b[i + 1]), d0(a[0], a[i])))

    conc_chain = square.ga_square.objects["b"].sem
    atoms = [conc_chain.principal(k, k + 1) for k in range(n)]
    record("chain-boolean", None, _is_boolean_with_atoms(conc_chain, atoms))
    js = [
        j
        for j in range(n)
        if cs0.leq(atoms[j], d0(b[i], b[i + 1]))
        and not cs0.leq(atoms[j], d0(a[0], a[i]))
    ]
    record("atom-index", js, bool(js))
    j = min(js)
    record("index-parity", (i, j), j > i and (i - j) % 2 != 0)

    cut = (i, j)
    record("surjection", cut, cut in square.cuts)

    # ideal family from the projection kernels
    proj = square.projections[cut]
    xcs = {p: _cong.conc(square.x_square.objects[p]) for p in SQUARE_NODES}
    conc_proj = {
        p: _cong.conc_morphism(proj[p], diagram.objects[p].sem, xcs[p]) for p in SQUARE_NODES
    }
    ideals = {p: ker0(conc_proj[p]) for p in SQUARE_NODES}
    dideal = DiagramIdeal(diagram, ideals)
    qdiagram, qtransform = quotient_diagram(diagram, dideal, validate=False)
    record("quotient", {p: len(qdiagram.objects[p].outer) for p in SQUARE_NODES})

    # the induced comparison with the inclusion square is an equivalence
    xi = {}
    for p in SQUARE_NODES:
        xk_alg = square.x_square.objects[p]
        qg = qdiagram.objects[p]
        proj_q = qtransform.components[p]
        fwd = {}
        for x in diagram.objects[p].inner.universe:
            fwd[proj_q.f(x)] = proj[p](x)
        ok = set(fwd.keys()) == set(qg.inner.universe) and len(set(fwd.values())) == len(fwd)
        record(f"equivalence-carrier[{p}]", None, ok and set(fwd.values()) == set(xk_alg.universe))
        xi[p] = {v: k for k, v in fwd.items()}

    xi_sem = {}
    for p in SQUARE_NODES:
        qg = qdiagram.objects[p]
        fwd = {}
        proj_q = qtransform.components[p]
        for t in diagram.objects[p].sem.elements:
            fwd[proj_q.fsem(t)] = conc_proj[p](t)
        ok = len(set(fwd.values())) == len(fwd) and set(fwd.keys()) == set(qg.sem.elements)
        record(f"equivalence-sem[{p}]", None, ok)
        xi_sem[p] = {v: k for k, v in fwd.items()}

    # claim instance data at the quotient's bottom node
    zero_el = square.base.special["zero"]
    one_el = square.base.special["one"]
    x3_el = square.base.special["x3"]
    proj0 = qtransform.components["b"]
    y = proj0.f(b[i + 1])
    qg0 = qdiagram.objects["b"]
    o0, m0, e0 = xi["b"][zero_el], xi["b"][x3_el], xi["b"][one_el]
    record(
        "claim-distance",
        (qg0.delta(o0, y), qg0.delta(m0, e0)),
        qg0.sem.leq(qg0.delta(o0, y), qg0.delta(m0, e0)),
    )
    record("claim-meet-top", None, qg0.outer.apply("meet", (y, e0)) == y)

    # walk the claim through the wings into the top node
    marked = {"l": square.base.special["x1"], "r": square.base.special["x2"]}
    pushed = {}
    for node in ("l", "r"):
        arrow = qdiagram.arrows[("b", node)]
        gk = qdiagram.objects[node]
        yk = arrow.f(y)
        ok_el = xi[node][zero_el]
        ck = xi[node][marked[node]]
        ek = xi[node][one_el]
        x3k = xi[node][x3_el]
        apply_k = gk.outer.apply
        wk = apply_k("meet", (yk, ck))
        record(f"claim-definedness[{node}]", (yk, ck), wk is not UNDEFINED)
        record(f"claim-zero-meet[{node}]", None, apply_k("meet", (ok_el, ck)) == ok_el)
        S = gk.sem
        record(
            f"claim-eq1a[{node}]",
            None,
            S.leq(gk.delta(ok_el, wk), gk.delta(ok_el, yk)),
        )
        record(
            f"claim-eq1b[{node}]",
            None,
            S.leq(gk.delta(yk, wk), S.join(gk.delta(yk, ok_el), gk.delta(ok_el, wk))),
        )
        record(
            f"claim-eq1c[{node}]",
            None,
            S.leq(gk.delta(ok_el, yk), gk.delta(x3k, ek)),
        )
        record(f"claim-top-meet[{node}]", None, apply_k("meet", (yk, ek)) == yk)
        record(
            f"claim-eq2[{node}]",
            None,
            S.leq(gk.delta(yk, wk), gk.delta(ek, ck)),
        )
        t1, t2, meet_zero = _wing_principals(xcs[node], marked[node], square.base.special)
        record(f"claim-meet-fact[{node}]", None, meet_zero)
        chi_val = {v: k for k, v in xi_sem[node].items()}[gk.delta(yk, wk)]
        record(
            f"claim-meet-conclusion[{node}]",
            chi_val,
            xcs[node].leq(chi_val, t1) and xcs[node].leq(chi_val, t2),
        )
        record(f"claim-separation[{node}]", (yk, wk), yk == wk)
        pushed[node] = yk

    arrow_lt = qdiagram.arrows[("l", "t")]
    arrow_rt = qdiagram.arrows[("r", "t")]
    y3a = arrow_lt.f(pushed["l"])
    y3b = arrow_rt.f(pushed["r"])
    record("claim-square-agree", (y3a, y3b), y3a == y3b)
    y3 = y3a
    gt = qdiagram.objects["t"]
    o3 = xi["t"][zero_el]
    x13 = xi["t"][square.base.special["x1"]]
    x23 = xi["t"][square.base.special["x2"]]
    apply_t = gt.outer.apply
    record("claim-x1x2", None, apply_t("meet", (x13, x23)) == o3)
    record("claim-meet-x1", None, apply_t("meet", (y3, x13)) == y3)
    record("claim-meet-x2", None, apply_t("meet", (y3, x23)) == y3)
    m3 = apply_t("meet", (y3, o3))
    record("claim-meet-zero-defined", (y3, o3), m3 is not UNDEFINED)
    record("claim-assoc", (m3, y3), m3 == y3)
    record("claim-zero-below", None, apply_t("meet", (o3, y3)) == o3)
    v3 = apply_t("join", (o3, y3))
    record("claim-join-defined", (o3, y3), v3 is not UNDEFINED)
    record("claim-absorb1", v3, v3 == y3)
    v3b = apply_t("join", (y3, o3))
    record("claim-commute", (v3, v3b), v3b is not UNDEFINED and v3b == v3)
    record("claim-absorb2", m3, m3 == o3)
    record("claim-collapse", (y3, o3), y3 == o3)

    ksem = qdiagram.arrows[("b", "t")].fsem
    kernel = {d for d in qg0.sem.elements if ksem(d) == qdiagram.objects["t"].sem.zero}
    record("claim-kernel", sorted(map(sort_key, kernel)), kernel == {qg0.sem.zero})
    record("claim-conclusion", (y, o0), qg0.delta(y, o0) == qg0.sem.zero and y == o0)

    # back upstairs: membership in the bottom ideal and the final inequality
    record("consclaim-membership", None, d0(a[0], b[i + 1]) in ideals["b"])
    rhs_parts = (
        conc_chain.principal(a[0], a[i]),
        conc_chain.principal(a[i + 1], a[j]),
        conc_chain.principal(a[j + 1], a[n]),
    )
    record(
        "consclaim-bound",
        None,
        cs0.leq(d0(a[0], b[i + 1]), cs0.join_all(rhs_parts)),
    )
    record(
        "final-link-triangle",
        None,
        cs0.leq(
            d0(b[i], b[i + 1]),
            cs0.join(d0(b[i], a[0]), d0(a[0], b[i + 1])),
        ),
    )
    final_lhs = atoms[j]
    final_rhs = (conc_chain.principal(a[0], a[j]), conc_chain.principal(a[j + 1], a[n]))
    cert = RefutationCertificate(
        chain=tuple(a),
        interpolants=tuple(b),
        index_i=i,
        index_j=j,
        cut=cut,
        ideals={p: sorted(map(sort_key, ideals[p].carrier)) for p in SQUARE_NODES},
        final_inequality=(final_lhs, final_rhs),
        steps=steps,
    )
    refuted = not conc_chain.leq(final_lhs, conc_chain.join_all(final_rhs))
    record("final-contradiction", cert.final_inequality, refuted)
    return cert


# ---------------------------------------------------------------------------
# candidate enumeration


@dataclass
class CandidateOutcome:
    """One item of the exhaustive stream: either a fully materialized
    candidate or a pruned branch with the violated constraint."""

    status: str  # "candidate" or "pruned"
    reason: str = ""
    candidate: object = None
    detail: object = None


def algebra_square_candidate(square):
    """The candidate whose gamps are the algebra gamps of the square itself."""
    return CandidateSquare(square.ga_square, "algebra-square")


class _NodeState:
    """Partial outer structure of one node during enumeration, on indices.

    D is the distance matrix on indices into cs.elements: the inner points
    0..n-1 in inner-universe order, then the pad, once placed, at n. It
    starts as the inner pregamp's dist_rows. place_row replaces D by a new
    matrix and never changes it in place, since the snapshots of gamp() alias
    it as their dist_rows. Inner cells are fixed; decided cells accumulate,
    keyed by indices like the inner tables; checks are incremental where
    cheap and full at node completion.
    """

    def __init__(self, inner, cs, dist_rows, pad):
        self.inner, self.cs, self.inner_rows, self.pad = inner, cs, dist_rows, pad
        self.index = {x: i for i, x in enumerate([*inner.universe, pad])}
        self.J, self.zero = cs.join_rows, cs.index(cs.zero)
        self.cells = {}  # (op, a, b) -> value, on indices
        self.place_row(None)

    def place_row(self, row):
        """Put the pad at index n with the given distances to the inner
        points, or, for None, leave the node without a pad."""
        self.pads, self.D = [], self.inner_rows
        if row is not None:
            self.pads = [self.pad]
            self.D = [[*r, d] for r, d in zip(self.D, row)] + [[*row, self.zero]]

    def universe(self):
        return list(self.inner.universe) + self.pads

    def cell(self, op, a, b):
        """The value of a cell on indices, decided or inner, or None."""
        v = self.cells.get((op, a, b))
        return self.inner.tables[op].get((a, b)) if v is None else v

    def compatible_with(self, op, a, b, v):
        """Distance axiom for operations between the new cell and every
        defined cell of op, by check_axioms' own per-cell routine."""
        decided = [((a2, b2), v2) for (o, a2, b2), v2 in self.cells.items() if o == op]
        args, values = zip(*self.inner.tables[op].items(), *decided)
        return _first_incompatible(self.D, self.J, self.zero, (a, b), v, zip(*args), values) is None

    def quick_identities_ok(self, op, a, b, v):
        """Local instances touching the new cell: idempotence, commutativity,
        one-step absorption."""
        other = "join" if op == "meet" else "meet"
        # each cell, where it is defined, must hold the value the new one asks
        asked = ((op, b, a, v), (other, v, b, b), (other, a, v, a))
        return (a != b or v == a) and all(self.cell(o, x, y) in (None, w) for o, x, y, w in asked)

    def tables(self):
        """The inner meet and join tables overlaid with the decided cells."""
        tables = {op: dict(self.inner.tables[op]) for op in ("meet", "join")}
        for (op, a, b), v in self.cells.items():
            tables[op][(a, b)] = v
        return tables

    def gamp(self):
        """The node as it stands: its inner part in the decided outer structure."""
        alg = PartialAlgebra(LATTICE_TYPE, self.universe(), self.tables())
        return Gamp(self.inner, Pregamp(alg, self.D, self.cs), validate=False)

    def node_checks(self, label, n):
        """The node conditions of a candidate; None when fine, a pruning
        outcome at the first failure otherwise."""
        for reason, ok, viol in _node_conditions(self.gamp(), n):
            if not ok:
                if reason == "lattice-n-permutable":
                    viol = viol[1]  # the deficient tuple
                return CandidateOutcome("pruned", reason, detail=(label, viol))


def _nonzero_row_options(state):
    """The pad's distance rows, as index lists over the inner points, by
    entrywise backtracking on nonzero distances: each triangle through the
    pad is checked with check_axioms' own _first_not_below."""
    D, J = state.D, state.J
    nonzero = [d for d in range(len(J)) if d != state.zero]

    def fits(row, x):
        # the triangles pad, x, y for each y placed before x: each side below the others' join
        d = row[x]
        return all(
            _first_not_below(J, (d, dy, dxy), (J[dy][dxy], J[d][dxy], J[d][dy])) is None
            for dy, dxy in zip(row.values(), D[x][:x])
        )

    return [list(row.values()) for row in assignments(range(len(state.inner)), nonzero, fits)]


def _witness_options(state, pg, xs, n):
    """For each interpolant vector of one tuple, the meet cells on indices
    that it forces, unless one clashes with a decided cell. The search reads
    the distances of pg, a snapshot of the node with every pad row decided;
    cells added since it was taken change no distance."""
    first = state.inner.apply("meet", (xs[0], xs[n]))
    last = state.inner.apply("join", (xs[0], xs[n]))
    options = []
    for ys in _cong.chain_interpolants(pg, xs, first, last, pg.carrier.universe):
        at = list(map(state.index.__getitem__, ys))
        forced = {}
        for i in range(n + 1):
            for j in range(i, n + 1):
                forced[("meet", at[i], at[j])] = at[i]
                forced[("meet", at[j], at[i])] = at[i]
        if all(state.cell(op, a, b) in (None, v) for (op, a, b), v in forced.items()):
            options.append(forced)
    return options


def _deficient_tuples(state, pg, n):
    """Tuples with no interpolants realized by the already-decided structure
    of pg, a snapshot of the node: no chain in its current meets."""
    failures = _cong._chain_condition_failures(pg, state.inner.universe, n, lattice_form=True)
    return [xs for _, xs in failures]


def _try_add_cells(state, forced):
    """Add cells, on indices, with the incremental checks; returns the undo
    list or None."""
    added = []
    for (op, a, b), v in forced.items():
        cur = state.cell(op, a, b)
        if cur is None and state.quick_identities_ok(op, a, b, v) and state.compatible_with(op, a, b, v):
            state.cells[(op, a, b)] = v
            added.append((op, a, b))
        elif cur != v:  # a decided cell clashes, or a check failed
            _undo_cells(state, added)
            return None
    return added


def _undo_cells(state, added):
    for k in added:
        del state.cells[k]


# Search nodes one enumeration may visit before it gives up.
MAX_NODES = 5_000_000


def enumerate_candidates(square, n, size_bound=1):
    """Exhaustive stream of padded candidate diagrams at the given bound.

    Enumerates, with constraint propagation, the minimal candidates: outer
    carriers extend the inner algebras by at most size_bound fresh elements
    per node; the decided cells are exactly those forced by operationality,
    by morphism preservation, and by a chosen permutability interpolant per
    witness-deficient tuple; distance rows and arrow images range over all
    axiom-consistent choices. Every candidate at the bound extends one of
    these cellwise with the same rows, and every rejection check is monotone
    under adding cells, so exhausting this stream refutes every candidate at
    the bound. Pads at non-minimal nodes appear exactly when an arrow image
    requires them; a pad never hit by an arrow can only serve as witness
    room, and the nodes here already witness their tuples internally.

    Nodes are placed one at a time along a linear extension of the poset;
    square-commutes prunes a branch where two routes of a lower pad disagree.
    Yields CandidateOutcome items in a fixed order: materialized candidates,
    and pruned branches tagged with the violated constraint. Only padding
    bounds 0 and 1 are supported; the carrier cap of padded enumeration is
    checked before the first item.
    """
    if size_bound < 0 or size_bound > 1:
        raise BudgetExceeded("only padding bounds 0 and 1 are implemented")
    poset = square.a_square.poset
    a_algs = square.a_square.objects
    if size_bound == 1 and any(len(a.universe) > 16 for a in a_algs.values()):
        raise BudgetExceeded(
            "padded enumeration is a desk-scale tool; a node carrier exceeds 16"
        )
    yield CandidateOutcome("candidate", candidate=algebra_square_candidate(square))
    if size_bound == 0:
        return

    gas = square.ga_square
    conc_f = {pq: m.fsem for pq, m in gas.arrows.items()}

    counter = {"nodes": 0}

    def tick():
        counter["nodes"] += 1
        if counter["nodes"] > MAX_NODES:
            raise SearchExhausted("search nodes of the candidate enumeration", MAX_NODES)

    order = poset.linear_extension()
    pads = {p: f"p{p}" for p in order}
    states = {
        p: _NodeState(a_algs[p], g.sem, g.pregamp.dist_rows, pads[p])
        for p, g in gas.objects.items()
    }
    covers = poset.covers()
    lower = {q: [p for (p, q2) in covers if q2 == q] for q in order}
    inner_maps = {
        (p, q): {x: square.a_square.arrows[(p, q)](x) for x in a_algs[p].universe}
        for (p, q) in covers
    }
    arrow_maps = {}  # cover arrow -> index list of the current placement
    reach = {}  # node -> {pad at or below it: its image there}

    def stage(k):
        """Place order[k]: each lower cover's pad goes to an inner element or
        to the node's own pad, which a minimal node always carries."""
        if k == len(order):
            yield materialize_candidate()
            return
        node = order[k]
        if not lower[node]:
            reach[node] = {pads[node]: pads[node]}
            yield from place_arrows(k, {})
            return
        images = [*states[node].inner.universe, pads[node]]
        choices = [
            [{pads[p]: v} for v in images] if states[p].pads else [{}]
            for p in lower[node]
        ]
        for picks in product(*choices):
            tick()
            maps = {
                (p, node): {**inner_maps[(p, node)], **pick}
                for p, pick in zip(lower[node], picks)
            }
            seen, clashes = {}, []  # lower pad -> its image; disagreeing routes
            for (p, _), m in maps.items():
                for pad, x in reach[p].items():
                    if seen.setdefault(pad, m[x]) != m[x]:
                        clashes.append((seen[pad], m[x]))
            if clashes:
                yield CandidateOutcome("pruned", "square-commutes", detail=clashes[0])
                continue
            if pads[node] in seen.values():
                seen[pads[node]] = pads[node]
            reach[node] = seen
            yield from place_arrows(k, maps)

    def close(k):
        """The node checks of order[k], then the next stage."""
        bad = states[order[k]].node_checks(order[k], n)
        if bad is not None:
            yield bad
            return
        yield from stage(k + 1)

    def choose_witnesses(k, pg, deficient, idx):
        if idx == len(deficient):
            yield from close(k)
            return
        state = states[order[k]]
        xs = deficient[idx]
        progressed = False
        for forced in _witness_options(state, pg, xs, n):
            tick()
            added = _try_add_cells(state, forced)
            if added is None:
                continue
            progressed = True
            yield from choose_witnesses(k, pg, deficient, idx + 1)
            _undo_cells(state, added)
        if not progressed:
            yield CandidateOutcome("pruned", "lattice-n-permutable", detail=(order[k], xs))

    def place_arrows(k, maps):
        """Place the arrows maps[(p, node)] into node = order[k].

        In order: distance equivariance over all pairs of each source, which
        also forces the distance row of the node's pad when an arrow hits it;
        the pad rows agreeing with that forced row; the source cells pushed
        along the maps; the operational fill of the node, or at a minimal
        node the witness choice.
        """
        node = order[k]
        state = states[node]
        pad = len(state.inner)  # the pad's index
        used_pad = pads[node] in reach[node]
        state.place_row(None)
        state.cells = {}
        placed = tuple(m[pads[p]] for (p, _), m in maps.items() if pads[p] in m)
        forced_row = {}  # inner index -> the pad's distance to it
        images = {}  # lower node -> the index here of each of its points
        for (p, _), m in maps.items():
            src, push = states[p], conc_f[(p, node)].to
            image = images[p] = arrow_maps[(p, node)] = [state.index[m[x]] for x in src.universe()]
            for u, r in zip(image, src.D):
                for v, d in zip(image, r):
                    want = push[d]
                    if pad in (u, v) and u != v:
                        ok = forced_row.setdefault(v if u == pad else u, want) == want
                    else:
                        ok = want == (state.zero if u == v else state.D[u][v])
                    if not ok:
                        yield CandidateOutcome(
                            "pruned", "distance-equivariance", detail=(node, placed)
                        )
                        return
        rows = [None]
        if used_pad:
            rows = [
                row
                for row in _nonzero_row_options(state)
                if all(row[x] == d for x, d in forced_row.items())
            ]
            if not rows and maps:  # a minimal node without rows has no arrow to blame
                yield CandidateOutcome(
                    "pruned", "distance-equivariance", detail=(node, placed)
                )
                return
        for row in rows:
            tick()
            state.place_row(row)
            added = []
            for p, _ in maps:
                more = _push_cells(state, states[p].cells, images[p])
                if more is None:
                    _undo_cells(state, added)
                    yield CandidateOutcome("pruned", "morphism", detail=(node, placed))
                    break
                added += more
            else:
                if maps:
                    yield from fill_node(k)
                else:
                    # one snapshot per placed row: its pad row is decided
                    pg = state.gamp().pregamp
                    yield from choose_witnesses(k, pg, _deficient_tuples(state, pg, n), 0)
                _undo_cells(state, added)

    def _push_cells(state, src_cells, image):
        # image: the index here of each source point
        forced = {}
        for (op, a, b), v in src_cells.items():
            key = (op, image[a], image[b])
            val = image[v]
            if forced.setdefault(key, val) != val:
                return None
        return _try_add_cells(state, forced)

    def fill_node(k):
        """Operationality: fill every cell over the inner part and the
        propagated pad, then close the node."""
        node = order[k]
        state = states[node]
        ix = state.index
        pool = sorted({*state.inner.universe, *state.pads}, key=sort_key)
        cells = product(("meet", "join"), pool, pool)
        missing = [(op, a, b) for op, a, b in cells if state.cell(op, ix[a], ix[b]) is None]

        def fill(idx):
            if idx == len(missing):
                yield from close(k)
                return
            op, a, b = missing[idx]
            hit = False
            for v in range(len(state.universe())):
                tick()
                added = _try_add_cells(state, {(op, ix[a], ix[b]): v})
                if added is None:
                    continue
                hit = True
                yield from fill(idx + 1)
                _undo_cells(state, added)
            if not hit:
                yield CandidateOutcome(
                    "pruned", "operational-cell", detail=(node, (op, a, b))
                )

        yield from fill(0)

    def materialize_candidate():
        gamps = {p: states[p].gamp() for p in order}
        try:
            cover_arrows = {
                (p, q): GampMorphism(
                    gamps[p], gamps[q],
                    PalgMorphism(gamps[p].outer, gamps[q].outer, to),
                    SemMorphism(gamps[p].sem, gamps[q].sem, conc_f[(p, q)].to),
                )
                for (p, q), to in arrow_maps.items()
            }
            diagram = Diagram.from_generators(poset, gamps, cover_arrows)
        except ValueError as e:
            return CandidateOutcome("pruned", "morphism", detail=str(e))
        padded = [p for p in order if states[p].pads]
        return CandidateOutcome(
            "candidate",
            candidate=CandidateSquare(diagram, f"padded[{','.join(padded)}]"),
        )

    yield from stage(0)
