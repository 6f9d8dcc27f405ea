import os
import subprocess
import sys
import textwrap
from itertools import chain, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gampkit
from gampkit import build_named
from gampkit import palg
from gampkit.congruence import _UnionFind
from gampkit.errors import CrossCheckFailed, NotComposable, NotTotal
from gampkit.palg import (
    LATTICE_IDENTITIES,
    LATTICE_TYPE,
    MODULAR_LAW,
    PalgMorphism,
    PartialAlgebra,
    SimilarityType,
    Term,
    UNDEFINED,
    chain_colimit,
    image_palg,
    is_lattice_algebra,
    is_palg_isomorphism,
    is_strong_morphism,
    is_strong_sub,
    meet,
    join,
    preimage_palg,
    product_closure,
    satisfies_identity,
)
from gampkit.pregamp import chain_connectivity
from conftest import label_map, unvalidated


V = Term.v


def sparse_algebra():
    """Two-element partial algebra with a single defined meet."""
    return PartialAlgebra.from_ops(LATTICE_TYPE, ["a", "b"], {"meet": {("a", "b"): "a"}, "join": {}})


class TestEvalTerm:
    def test_variable(self, m3):
        assert V(0).eval(m3, ("x1",)) == "x1"

    def test_empty_definedness(self):
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, [0, 1], {})
        t = meet(V(0), V(1))
        for x in alg.universe:
            for y in alg.universe:
                assert t.eval(alg, (x, y)) is UNDEFINED

    def test_absorption_in_m3(self, m3):
        # (v0 meet v1) join v1 evaluates to v1 on the total lattice
        t = join(meet(V(0), V(1)), V(1))
        for x in m3.universe:
            for y in m3.universe:
                assert t.eval(m3, (x, y)) == y

    def test_def_set_propagation(self):
        alg = sparse_algebra()
        t = meet(V(0), V(1))
        tuples = product(alg.universe, repeat=2)
        defined = {args for args in tuples if t.eval(alg, args) is not UNDEFINED}
        assert defined == {("a", "b")}


class TestSubalgebras:
    def test_total_is_full_and_strong_in_itself(self, m3):
        assert m3.restrict_full(m3.universe) == m3
        assert is_strong_sub(m3, m3)

    def test_bare_subset_with_ops_undefined_is_not_full(self, chain3):
        bare = PartialAlgebra.from_ops(LATTICE_TYPE, [0, 1], {})
        # 0 meet 1 = 0 lands inside the subset, so the full subalgebra defines it
        full = chain3.restrict_full({0, 1})
        assert full.ops["meet"][(0, 1)] == 0
        assert full != bare

    def test_bounds_with_all_ops_are_strong(self, m3):
        sub = m3.restrict_full({"0", "1"})
        assert is_strong_sub(sub, m3)


class TestImagePreimage:
    def test_identity_image(self, m3):
        f = PalgMorphism.identity(m3)
        assert image_palg(f) == m3

    def test_preimage_of_image_is_identity(self, m3, chain3):
        # collapse the chain onto {0, 1} inside itself
        f = PalgMorphism.from_map(chain3, chain3, {0: 0, 1: 0, 2: 2})
        assert preimage_palg(f, image_palg(f)) == chain3

    def test_composition_law(self, m3, chain3):
        f = PalgMorphism.from_map(chain3, chain3, {0: 0, 1: 0, 2: 2})
        g = PalgMorphism.from_map(chain3, chain3, {0: 0, 1: 2, 2: 2})
        gf = g.after(f)
        sub = chain3.restrict_full({0, 1})
        assert image_palg(gf, sub) == image_palg(g, image_palg(f, sub))

    def test_image_of_sub_under_inclusion(self, m3):
        sub = m3.restrict_full({"0", "x1", "1"})
        inc = PalgMorphism.from_map(sub, m3, {x: x for x in sub.universe})
        assert image_palg(inc) == sub


def nvars(t):
    """One more than the largest variable of the term, 0 if it has none."""
    return t.var + 1 if t.kind == "var" else max(map(nvars, t.args), default=0)


def brute_satisfies_identity(algebra, t1, t2):
    """Reference for satisfies_identity: evaluate both terms by Term.eval on
    every label tuple, in product order."""
    n = max(nvars(t1), nvars(t2))
    for args in product(algebra.universe, repeat=n):
        v1 = t1.eval(algebra, args)
        if v1 is UNDEFINED:
            continue
        v2 = t2.eval(algebra, args)
        if v2 is UNDEFINED:
            continue
        if v1 != v2:
            return False, args
    return True, None


# One operation of each arity up to 3, for random identities.
CGFH_TYPE = SimilarityType((("c", 0), ("g", 1), ("f", 2), ("h", 3)))
LABELS = ["p", ("q",), "r0", ("s", 1), frozenset({"t"})]


@st.composite
def cgfh_algebras(draw, sizes=(1, 2, 3, 3), holes=1):
    """A partial algebra of CGFH_TYPE on a size drawn from sizes of shuffled
    non-integer labels; each cell is undefined, with weight holes, or one
    of the labels, each with weight 2."""
    universe = draw(st.permutations(LABELS))[: draw(st.sampled_from(sizes))]
    cell = st.sampled_from([*universe, *universe, *[None] * holes])
    ops = {}
    for name, ar in CGFH_TYPE.symbols:
        cells = {args: draw(cell) for args in product(universe, repeat=ar)}
        ops[name] = {args: v for args, v in cells.items() if v is not None}
    return PartialAlgebra.from_ops(CGFH_TYPE, universe, ops)


@st.composite
def cgfh_terms(draw, nvars, depth=3):
    """A term of CGFH_TYPE over variables below nvars, at most depth deep;
    leaves are variables or, always with 0 variables, the constant c."""
    ar = draw(st.integers(-1, 3)) if depth else -1
    if ar < 0:
        var = draw(st.integers(-1, nvars - 1)) if nvars else -1
        return V(var) if var >= 0 else Term.app("c")
    name = CGFH_TYPE.symbols[ar][0]
    return Term.app(name, *(draw(cgfh_terms(nvars, depth - 1)) for _ in range(ar)))


@st.composite
def identities(draw):
    """Two random terms over at most 3 variables; the second may reuse the
    first as one object twice."""
    nvars = draw(st.integers(0, 3))
    t1 = draw(cgfh_terms(nvars))
    t2 = draw(st.one_of(cgfh_terms(nvars), st.just(Term.app("f", t1, t1))))
    return t1, t2


@st.composite
def terms_over(draw, variables, depth=3):
    """A term of CGFH_TYPE whose variables lie in the given tuple, at most
    depth deep; a leaf is one of the variables or the constant c."""
    ar = draw(st.integers(-1, 3)) if depth else -1
    if ar < 0:
        var = draw(st.sampled_from([*variables, None]))
        return Term.app("c") if var is None else V(var)
    name = CGFH_TYPE.symbols[ar][0]
    return Term.app(name, *(draw(terms_over(variables, depth - 1)) for _ in range(ar)))


@st.composite
def identity_lists(draw):
    """One to four named identities of CGFH_TYPE, each over a random subset
    of v0, v1, v2, so that some skip v0 and some are ground; a side may
    apply g to a side of an earlier identity, so subterms are shared."""
    identities, sides = [], []
    for i in range(draw(st.integers(1, 4))):
        variables = draw(st.lists(st.integers(0, 2), unique=True, max_size=3))
        fresh = terms_over(tuple(sorted(variables)))
        t1 = draw(st.one_of(fresh, st.sampled_from(sides).map(lambda t: Term.app("g", t))) if sides else fresh)
        t2 = draw(st.one_of(fresh, st.just(Term.app("f", t1, t1))))
        identities.append((f"law {i}", t1, t2))
        sides += [t1, t2]
    return identities


class TestIdentities:
    @settings(max_examples=300, deadline=None)
    @given(cgfh_algebras(sizes=(0, 1, 2, 3, 3)), identity_lists(), st.booleans(), st.integers(0, 4))
    def test_kernel_matches_the_label_loop(self, alg, identities, one_cell, upto):
        # every identity of one compiled list in one call, against the label
        # loop identity by identity; with one cell per block, every value of
        # the first variable is its own block
        compiled = palg.compile_identities(identities)
        cells = 1 if one_cell else palg.IDENTITY_CELLS
        with mock.patch.object(palg, "IDENTITY_CELLS", cells):
            found = palg.first_counterexamples(compiled, range(len(alg)), alg.tables)
            some = palg.first_counterexamples(compiled, range(len(alg)), alg.tables, upto)
        assert len(found) == len(identities) and some == found[:upto]
        for (_, t1, t2), ce in zip(identities, found):
            ok, witness = brute_satisfies_identity(alg, t1, t2)
            assert (ce is None) == ok
            assert ok or tuple(alg.universe[i] for i in ce) == witness

    def test_identity_skipping_the_first_variable(self):
        # f(v2, c) = v2 fails first at v2 = "b"; the unused v0 and v1 take
        # the first point
        stype = SimilarityType((("c", 0), ("f", 2)))
        alg = PartialAlgebra.from_ops(stype, ["a", "b"], {"c": {(): "a"}, "f": {(x, "a"): "a" for x in "ab"}})
        law = (Term.app("f", V(2), Term.app("c")), V(2))
        for cells in (1, palg.IDENTITY_CELLS):
            with mock.patch.object(palg, "IDENTITY_CELLS", cells):
                assert satisfies_identity(alg, *law) == (False, ("a", "a", "b"))
        assert brute_satisfies_identity(alg, *law) == (False, ("a", "a", "b"))

    def test_lattice_identities_compiled_once(self, fixture_lattices):
        # the import-time compilation is shared, its subterms are distinct,
        # and one call answers the whole list as the one-identity calls do
        compiled = palg.compile_identities(LATTICE_IDENTITIES)
        assert compiled is palg.compile_identities(LATTICE_IDENTITIES)
        keys = [(name, tuple(a for a, _ in args), vs) for name, args, vs in compiled.nodes]
        # v0, v1, v2, the two idempotent sides, the four commutative ones,
        # three per associative law and the two absorbing ones: meet(v0, v1)
        # and join(v0, v1) are shared across laws
        assert len(set(keys)) == len(keys) == 3 + 2 + 4 + 3 + 3 + 2
        for alg in fixture_lattices.values():
            found = palg.first_counterexamples(compiled, range(len(alg)), alg.tables)
            assert found == [None] * len(LATTICE_IDENTITIES)
        n5 = fixture_lattices["N5"]
        laws = [*LATTICE_IDENTITIES, ("modular", *MODULAR_LAW)]
        [*holds, ce] = palg.first_counterexamples(palg.compile_identities(laws), range(5), n5.tables)
        assert holds == [None] * len(LATTICE_IDENTITIES)
        assert (False, tuple(n5.universe[i] for i in ce)) == satisfies_identity(n5, *MODULAR_LAW)

    @settings(max_examples=300, deadline=None)
    @given(cgfh_algebras(), identities())
    def test_columns_match_the_label_loop(self, alg, terms):
        assert satisfies_identity(alg, *terms) == brute_satisfies_identity(alg, *terms)

    def test_lattice_corpus_matches_the_label_loop(self, fixture_lattices):
        laws = [(t1, t2) for _, t1, t2 in LATTICE_IDENTITIES] + [MODULAR_LAW]
        laws += [(join(V(0), V(1)), meet(V(1), V(2)))]
        for alg in fixture_lattices.values():
            for t1, t2 in laws:
                assert satisfies_identity(alg, t1, t2) == brute_satisfies_identity(alg, t1, t2)

    def test_lattice_corpus_in_one_value_blocks(self, fixture_lattices):
        # one cell per block: each value of the first variable is a block,
        # and a counterexample's first value is read off its block
        laws = [(t1, t2) for _, t1, t2 in LATTICE_IDENTITIES] + [MODULAR_LAW]
        laws += [(join(V(0), V(1)), meet(V(1), V(2))), (meet(V(1), V(2)), V(0))]
        with mock.patch.object(palg, "IDENTITY_CELLS", 1):
            for alg in fixture_lattices.values():
                for t1, t2 in laws:
                    assert satisfies_identity(alg, t1, t2) == brute_satisfies_identity(alg, t1, t2)

    def test_constants_only(self):
        # zero variables: one evaluation, whatever the universe
        stype = SimilarityType((("c", 0), ("d", 0), ("g", 1)))
        alg = PartialAlgebra.from_ops(stype, ["a", "b"], {"c": {(): "a"}, "d": {(): "b"}, "g": {("a",): "b"}})
        c, d = Term.app("c"), Term.app("d")
        assert satisfies_identity(alg, Term.app("g", c), d) == (True, None)
        assert satisfies_identity(alg, c, d) == (False, ())
        assert satisfies_identity(alg, Term.app("g", d), c) == (True, None)
        empty = PartialAlgebra.from_ops(stype, [], {})
        assert satisfies_identity(empty, c, d) == satisfies_identity(empty, V(0), d) == (True, None)

    def test_vacuous_with_empty_definedness(self):
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, [0, 1], {})
        ok, _ = satisfies_identity(alg, meet(V(0), V(1)), join(V(0), V(1)))
        assert ok

    def test_n5_fails_modular_law(self, n5):
        ok, witness = satisfies_identity(n5, *MODULAR_LAW)
        assert not ok
        t1, t2 = MODULAR_LAW
        assert t1.eval(n5, witness) != t2.eval(n5, witness)
        # the classic pentagon assignment is among the failures
        assert t1.eval(n5, ("c", "b", "a")) != t2.eval(n5, ("c", "b", "a"))

    def test_m3_satisfies_lattice_axioms(self, m3):
        for _, t1, t2 in LATTICE_IDENTITIES:
            ok, _ = satisfies_identity(m3, t1, t2)
            assert ok
        assert is_lattice_algebra(m3)


class TestMorphisms:
    def test_into_total_is_strong(self, m3, chain3):
        f = PalgMorphism.from_map(chain3, m3, {0: "0", 1: "x3", 2: "1"})
        assert is_strong_morphism(f)

    def test_inclusion_of_sparse_sub_not_strong(self, chain3):
        bare = PartialAlgebra.from_ops(LATTICE_TYPE, [0, 2], {})
        f = PalgMorphism.from_map(bare, chain3, {0: 0, 2: 2})
        assert is_strong_morphism(f)  # target total
        sparse_target = PartialAlgebra.from_ops(LATTICE_TYPE, [0, 2], {"meet": {(0, 0): 0}, "join": {}})
        g = PalgMorphism.from_map(bare, sparse_target, {0: 0, 2: 2})
        assert not is_strong_morphism(g)

    def test_embedding_iso_iff_image_equals_target(self, chain3):
        # brute force over small instances
        sub_full = chain3.restrict_full({0, 1})
        inc = PalgMorphism.from_map(sub_full, chain3, {0: 0, 1: 1})
        assert not is_palg_isomorphism(inc)
        ident = PalgMorphism.identity(chain3)
        assert is_palg_isomorphism(ident)
        assert image_palg(ident) == chain3


def table_algebra(meets, joins):
    """A lattice-signature algebra on range(len(meets)) from row-major tables."""
    u = range(len(meets))
    ops = {
        "meet": {(a, b): meets[a][b] for a in u for b in u},
        "join": {(a, b): joins[a][b] for a in u for b in u},
    }
    return PartialAlgebra.from_ops(LATTICE_TYPE, list(u), ops)


def by_identities(alg):
    return all(satisfies_identity(alg, t1, t2)[0] for _, t1, t2 in LATTICE_IDENTITIES)


@st.composite
def lattice_signature_algebras(draw):
    """A total algebra in the lattice signature on 1 to 4 elements: random
    tables, or a chain or the square 2x2 on shuffled positions, with at most
    one cell of one table redrawn."""
    size = draw(st.integers(1, 4))
    shapes = ["random", "chain", "square"] if size == 4 else ["random", "chain"]
    shape = draw(st.sampled_from(shapes))
    u = range(size)
    if shape == "random":
        meets = [[draw(st.sampled_from(u)) for _ in u] for _ in u]
        joins = [[draw(st.sampled_from(u)) for _ in u] for _ in u]
        return table_algebra(meets, joins)
    # codes: chain positions, or 2-bit vectors of the square
    low, high = (min, max) if shape == "chain" else (int.__and__, int.__or__)
    code = draw(st.permutations(list(u)))
    at = {c: x for x, c in enumerate(code)}
    meets = [[at[low(code[a], code[b])] for b in u] for a in u]
    joins = [[at[high(code[a], code[b])] for b in u] for a in u]
    if draw(st.booleans()):
        table = draw(st.sampled_from([meets, joins]))
        table[draw(st.sampled_from(u))][draw(st.sampled_from(u))] = draw(st.sampled_from(u))
    return table_algebra(meets, joins)


class TestLatticeOrder:
    @settings(max_examples=300, deadline=None)
    @given(lattice_signature_algebras())
    def test_order_check_is_the_identity_check(self, alg):
        assert palg._is_lattice_order(alg) == by_identities(alg) == is_lattice_algebra(alg)

    def test_meet_order_not_antisymmetric(self):
        # meet(u, v) = u everywhere: each element lies below the other
        alg = table_algebra([[0, 0], [1, 1]], [[0, 1], [0, 1]])
        assert not palg._is_lattice_order(alg) and not is_lattice_algebra(alg)

    def test_meet_order_not_transitive(self):
        # 0 <= 1 <= 2, but meet(0, 2) = 1, so not 0 <= 2; the meet equation
        # refutes it, as down(1) is not down(0) & down(2)
        meets = [[0, 0, 1], [0, 1, 1], [1, 1, 2]]
        joins = [[max(a, b) for b in range(3)] for a in range(3)]
        alg = table_algebra(meets, joins)
        assert not palg._is_lattice_order(alg) and not is_lattice_algebra(alg)

    def test_join_not_the_lub(self):
        # the 3-chain with min as meet, but join(0, 1) = 2 above the lub 1
        meets = [[min(a, b) for b in range(3)] for a in range(3)]
        joins = [[0, 2, 2], [2, 1, 2], [2, 2, 2]]
        alg = table_algebra(meets, joins)
        assert not palg._is_lattice_order(alg) and not is_lattice_algebra(alg)

    def test_wrong_arity_is_not_a_lattice(self):
        stype = SimilarityType((("meet", 1), ("join", 1)))
        alg = PartialAlgebra.total_from_fn(stype, [0], {"meet": lambda a: a, "join": lambda a: a})
        assert not is_lattice_algebra(alg)

    @pytest.mark.parametrize("lie", [False, True])
    def test_lying_order_check_is_a_cross_check_failure(self, m3, lie):
        # a fresh M3: the shared fixture's verdict is already kept
        if not lie:
            alg = PartialAlgebra.from_ops(LATTICE_TYPE, m3.universe, m3.ops)
        else:
            alg = table_algebra([[0, 0], [1, 1]], [[0, 1], [0, 1]])
        with mock.patch.object(palg, "_is_lattice_order", lambda alg: lie):
            with pytest.raises(CrossCheckFailed):
                is_lattice_algebra(alg)

    def test_verdict_is_decided_once_per_algebra(self, m3):
        first, second = (PartialAlgebra.from_ops(LATTICE_TYPE, m3.universe, m3.ops) for _ in range(2))
        decided = []
        order_check = palg._is_lattice_order
        with mock.patch.object(
            palg, "_is_lattice_order", lambda alg: decided.append(alg) or order_check(alg)
        ), mock.patch.object(
            palg, "first_counterexamples", wraps=palg.first_counterexamples
        ) as kernel:
            assert all(is_lattice_algebra(alg) for alg in (first, first, second, first, second))
        assert [id(alg) for alg in decided] == [id(first), id(second)]
        # the identity cross-check runs with the first decision of each: one
        # kernel call for all the lattice identities, on the algebra's tables
        assert kernel.call_count == 2
        for call, alg in zip(kernel.call_args_list, (first, second)):
            compiled, points, tables = call.args
            assert compiled.names == [name for name, _, _ in LATTICE_IDENTITIES]
            assert list(points) == list(range(len(alg))) and tables is alg.tables

    def test_cross_check_survives_optimize(self):
        code = textwrap.dedent(
            """
            import sys
            from gampkit import build_named, palg
            from gampkit.errors import CrossCheckFailed

            palg._is_lattice_order = lambda alg: False
            try:
                palg.is_lattice_algebra(build_named("M3").algebra)
            except CrossCheckFailed:
                print("optimize", sys.flags.optimize, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(gampkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.split() == ["optimize", "1", "raised"]

    def test_large_algebra_skips_the_identities(self):
        # past LATTICE_CHECK_BOUND the order check alone decides; a flat
        # copy, since a recorded product is decided by its factors
        power = build_named("power:M3:2").algebra
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, power.universe, power.ops)
        with mock.patch.object(palg, "first_counterexamples", side_effect=AssertionError):
            assert is_lattice_algebra(alg)

    def test_large_product_is_decided_by_its_factors(self, m3):
        # past LATTICE_CHECK_BOUND a nonempty product is a lattice iff each
        # factor is, and neither its tables nor its meet order are built
        nonlattice = table_algebra([[0, 0], [1, 1]], [[0, 1], [0, 1]])
        assert is_lattice_algebra(m3)
        power = PartialAlgebra.product([m3, m3, m3])
        with mock.patch.object(palg, "_is_lattice_order", side_effect=AssertionError):
            assert is_lattice_algebra(power)
        assert "tables" not in vars(power)
        mixed = PartialAlgebra.product([nonlattice, m3])
        assert not is_lattice_algebra(mixed) and not palg._is_lattice_order(mixed)

    def test_small_product_cross_checks_its_factors(self):
        # within the bound every verdict runs: a factor's kept verdict that
        # disagrees with the product's own is a cross-check failure
        two = build_named("two").algebra
        liar = PartialAlgebra.from_ops(LATTICE_TYPE, two.universe, two.ops)
        vars(liar)["_lattice_verdict"] = False
        assert is_lattice_algebra(PartialAlgebra.product([two, two]))
        with pytest.raises(CrossCheckFailed, match="factors disagree"):
            is_lattice_algebra(PartialAlgebra.product([liar, two]))
        # an empty product is vacuously a lattice, whatever its factors are
        empty = PartialAlgebra.from_ops(LATTICE_TYPE, [], {})
        nonlattice = table_algebra([[0, 0], [1, 1]], [[0, 1], [0, 1]])
        assert is_lattice_algebra(PartialAlgebra.product([empty, nonlattice]))


# Random factors for the product properties: one binary and one unary op;
# with ternary, also a ternary op h.
FG_TYPE = SimilarityType((("f", 2), ("g", 1)))
FGH_TYPE = SimilarityType((("f", 2), ("g", 1), ("h", 3)))


@st.composite
def fg_algebras(draw, max_size=3, total=True, ternary=False):
    size = draw(st.integers(1, max_size))
    u = list(range(size))
    value = st.sampled_from(u)
    ops = {"f": {(a, b): draw(value) for a in u for b in u}, "g": {(a,): draw(value) for a in u}}
    if ternary:
        ops["h"] = {args: draw(value) for args in product(u, repeat=3)}
    if not total:
        ops = {name: {k: v for k, v in t.items() if draw(st.booleans())} for name, t in ops.items()}
    return PartialAlgebra.from_ops(FGH_TYPE if ternary else FG_TYPE, u, ops)


def elementwise_product(algebras):
    """The direct product table by table, one entry and one coordinate at a
    time: the reference that PartialAlgebra.product must reproduce."""
    universe = list(product(*(a.universe for a in algebras)))
    ops = {}
    for name, ar in algebras[0].stype.symbols:
        ops[name] = {
            args: tuple(a.ops[name][tuple(arg[i] for arg in args)] for i, a in enumerate(algebras))
            for args in product(universe, repeat=ar)
        }
    return universe, ops


def table_error(f):
    """The message of the exhaustive table check of f, or None."""
    try:
        f._check_tables()
    except ValueError as e:
        return str(e)
    return None


def validate_error(f):
    try:
        f.validate()
    except ValueError as e:
        return str(e)
    return None


class TestProduct:
    def test_tables_match_elementwise_definition_in_key_order(self, m3):
        alg = build_named("power:M3:2").algebra
        universe, ops = elementwise_product([m3, m3])
        assert list(alg.universe) == universe
        for name in ("meet", "join"):
            assert list(alg.ops[name].items()) == list(ops[name].items())

    def test_records_factors(self, m3, chain3):
        alg = PartialAlgebra.product([m3, chain3])
        assert alg.factors == (m3, chain3)
        assert m3.factors is None
        assert alg.restrict_full(alg.universe).factors is None

    def test_constants_are_multiplied(self):
        stype = SimilarityType((("c", 0), ("g", 1)))
        a = PartialAlgebra.from_ops(stype, [0, 1], {"c": {(): 1}, "g": {(0,): 1, (1,): 0}})
        b = PartialAlgebra.from_ops(stype, ["x"], {"c": {(): "x"}, "g": {("x",): "x"}})
        alg = PartialAlgebra.product([a, b])
        assert alg.ops["c"] == {(): (1, "x")}
        assert list(alg.ops["g"].items()) == list(elementwise_product([a, b])[1]["g"].items())

    def test_rejects_no_factors(self):
        with pytest.raises(ValueError, match="no algebras"):
            PartialAlgebra.product([])

    def test_rejects_mixed_similarity_types(self, m3):
        other = PartialAlgebra.total_from_fn(FG_TYPE, [0], {"f": lambda a, b: 0, "g": lambda a: 0})
        with pytest.raises(ValueError, match="similarity types"):
            PartialAlgebra.product([m3, other])

    def test_rejects_partial_factor(self, m3):
        with pytest.raises(NotTotal, match="factor 1"):
            PartialAlgebra.product([m3, sparse_algebra()])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(fg_algebras(), min_size=1, max_size=3))
    def test_tables_match_elementwise_definition(self, factors):
        alg = PartialAlgebra.product(factors)
        universe, ops = elementwise_product(factors)
        plain = PartialAlgebra.from_ops(alg.stype, universe, ops)
        # hashing, totality and self-comparison answer before the tables are built
        assert hash(alg) == hash(plain)
        assert alg.is_total() == plain.is_total()
        assert alg == alg
        assert "tables" not in vars(alg)
        assert list(alg.universe) == universe
        assert {n: list(t.items()) for n, t in alg.ops.items()} == {
            n: list(t.items()) for n, t in ops.items()
        }
        assert alg == plain and plain == alg
        assert hash(alg) == hash(plain)


class TestFactorwiseMorphisms:
    """Maps out of recorded products: the factorwise path must agree with
    the exhaustive table loop on every verdict and every message."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_factorwise_agrees_with_exhaustive(self, data):
        src = PartialAlgebra.product(data.draw(st.lists(fg_algebras(), min_size=1, max_size=3)))
        k = len(src.factors)
        kind = data.draw(st.sampled_from(["projection", "coordinatewise", "arbitrary"]))
        if kind == "projection":
            i = data.draw(st.integers(0, k - 1))
            tgt = src.factors[i]
            mapping = {x: x[i] for x in src.universe}
        elif kind == "coordinatewise":
            picks, tfactors = [], []
            for _ in range(data.draw(st.integers(1, 3))):
                i = data.draw(st.integers(0, k - 1))
                sf = src.factors[i]
                if data.draw(st.booleans()):
                    tf, g = sf, {a: a for a in sf.universe}
                else:
                    tf = data.draw(fg_algebras())
                    g = {a: data.draw(st.sampled_from(tf.universe)) for a in sf.universe}
                picks.append((i, g))
                tfactors.append(tf)
            if len(picks) == 1 and data.draw(st.booleans()):
                # a plain target, possibly partial: the value reads one coordinate
                (i, g), = picks
                tgt = data.draw(fg_algebras(total=False))
                g = {a: data.draw(st.sampled_from(tgt.universe)) for a in g}
                mapping = {x: g[x[i]] for x in src.universe}
            else:
                tgt = PartialAlgebra.product(tfactors)
                mapping = {x: tuple(g[x[i]] for i, g in picks) for x in src.universe}
        else:
            tgt = data.draw(st.sampled_from([src, src.factors[0], data.draw(fg_algebras())]))
            mapping = {x: data.draw(st.sampled_from(tgt.universe)) for x in src.universe}
        f = unvalidated(src, tgt, mapping)
        expected = table_error(f)
        verdict = f._factorwise_verdict()
        if kind != "arbitrary":
            assert verdict is not None
        if verdict is not None:
            assert verdict == (expected is None)
        assert validate_error(f) == expected
        # the factorwise path alone, as on a source past the cross-check bound
        with mock.patch.object(palg, "FACTORWISE_CHECK_BOUND", 0):
            assert validate_error(f) == expected

    def test_disagreement_is_a_cross_check_failure(self, m3):
        src = PartialAlgebra.product([m3, m3])
        f = unvalidated(src, m3, {x: x[0] for x in src.universe})
        with mock.patch.object(PalgMorphism, "_factorwise_verdict", lambda self: False):
            with pytest.raises(CrossCheckFailed):
                f.validate()

    def test_non_coordinatewise_map_is_left_to_the_tables(self, m3):
        src = PartialAlgebra.product([m3, m3])
        meets = m3.ops["meet"]
        f = unvalidated(src, src, {x: (meets[x], x[1]) for x in src.universe})
        assert f._factorwise_verdict() is None
        assert validate_error(f) == table_error(f) is not None
        swap = unvalidated(src, src, {x: x[::-1] for x in src.universe})
        assert swap._factorwise_verdict() is True


# Random factors for the product lookups: a constant, a unary and a binary op.
CGF_TYPE = SimilarityType((("c", 0), ("g", 1), ("f", 2)))


@st.composite
def cgf_algebras(draw, max_size=4):
    u = list(range(draw(st.integers(1, max_size))))
    value = st.sampled_from(u)
    return PartialAlgebra.from_ops(CGF_TYPE, u, {
        "c": {(): draw(value)},
        "g": {(a,): draw(value) for a in u},
        "f": {args: draw(value) for args in product(u, repeat=2)},
    })


def plain_twin(factors):
    """The product of the factors with its tables built and no factors
    recorded, so that every lookup reads the tables."""
    alg = PartialAlgebra.product(factors)
    return PartialAlgebra(alg.stype, alg.universe, alg.tables)


@st.composite
def maps_into_products(draw):
    """(source, factors, mapping): a homomorphism from a source into the
    product of the factors, a diagonal or a tuple of factor maps, and with
    one point's image changed in about half the draws."""
    factors = draw(st.lists(cgf_algebras(), min_size=1, max_size=3))
    if draw(st.booleans()):
        a = factors[0]
        factors = [a] * len(factors)
        src, mapping = a, {x: (x,) * len(factors) for x in a.universe}
    else:
        # each factor map is arbitrary; the source keeps an entry only where
        # some value makes every factor map preserve it
        u = list(range(draw(st.integers(1, 3))))
        maps = [{x: draw(st.sampled_from(f.universe)) for x in u} for f in factors]
        mapping = {x: tuple(h[x] for h in maps) for x in u}
        ops = {}
        for name, ar in CGF_TYPE.symbols:
            ops[name] = {}
            for args in product(u, repeat=ar):
                image = tuple(
                    f.apply(name, [h[a] for a in args]) for f, h in zip(factors, maps)
                )
                fits = [v for v in u if mapping[v] == image]
                if fits and draw(st.booleans()):
                    ops[name][args] = draw(st.sampled_from(fits))
        src = PartialAlgebra.from_ops(CGF_TYPE, u, ops)
    if draw(st.booleans()):
        x = draw(st.sampled_from(src.universe))
        mapping[x] = tuple(draw(st.sampled_from(f.universe)) for f in factors)
    return src, factors, mapping


class TestProductLookups:
    """A product whose tables are not built answers apply from its factors,
    and maps into it are checked through apply: the reference is the same
    product with its tables built."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(cgf_algebras(), min_size=1, max_size=3), st.data())
    def test_apply_matches_the_tables(self, factors, data):
        alg = PartialAlgebra.product(factors)
        tables = PartialAlgebra.product(factors).ops
        for name, ar in CGF_TYPE.symbols:
            for args in product(alg.universe, repeat=ar):
                assert alg.apply(name, args) == tables[name][args]
        # outside the universe: a foreign element in one slot, or a wrong arity
        x = data.draw(st.sampled_from(alg.universe))
        slot = data.draw(st.integers(0, len(factors) - 1))
        foreign = data.draw(st.sampled_from([
            x[:slot] + (99,) + x[slot + 1:], x + x[:1], x[:-1], "x", 99,
        ]))
        assert alg.apply("g", [foreign]) is UNDEFINED
        assert alg.apply("f", [x, foreign]) is UNDEFINED
        assert alg.apply("f", [foreign, x]) is UNDEFINED
        assert alg.apply("f", [x]) is UNDEFINED
        assert alg.apply("g", []) is UNDEFINED
        assert alg.apply("c", [x]) is UNDEFINED
        assert "tables" not in vars(alg)

    @settings(max_examples=200, deadline=None)
    @given(maps_into_products())
    def test_maps_into_a_product_match_the_tables(self, case):
        src, factors, mapping = case
        expected = validate_error(unvalidated(src, plain_twin(factors), mapping))
        assert expected is None or expected.endswith("not preserved")
        tgt = PartialAlgebra.product(factors)
        assert validate_error(unvalidated(src, tgt, mapping)) == expected
        # on a target past the cross-check bound only the factors are read
        tgt = PartialAlgebra.product(factors)
        with mock.patch.object(palg, "FACTORWISE_CHECK_BOUND", 0):
            assert validate_error(unvalidated(src, tgt, mapping)) == expected
        assert "tables" not in vars(tgt)

    def test_diagonal_into_a_large_power_builds_no_tables(self, m3):
        power = PartialAlgebra.product([m3] * 3)
        assert len(power) > palg.FACTORWISE_CHECK_BOUND
        PalgMorphism.from_map(m3, power, {x: (x,) * 3 for x in m3.universe})
        assert "tables" not in vars(power)
        bad = {x: (x, x, "0" if x == "x1" else x) for x in m3.universe}
        expected = validate_error(unvalidated(m3, plain_twin([m3] * 3), bad))
        assert expected.endswith("not preserved")
        assert validate_error(unvalidated(m3, power, bad)) == expected
        assert "tables" not in vars(power)

    def test_disagreement_is_a_cross_check_failure_under_optimize(self):
        # factor lookups that contradict the tables on a small power raise,
        # also with asserts stripped
        code = textwrap.dedent(
            """
            import sys
            from gampkit import build_named, palg
            from gampkit.errors import CrossCheckFailed

            m3 = build_named("M3").algebra
            power = palg.PartialAlgebra.product([m3, m3])
            palg.PartialAlgebra._from_factors = lambda self, name, key: 0  # ("0", "0")
            try:
                palg.PalgMorphism.from_map(m3, power, {x: (x, x) for x in m3.universe})
            except CrossCheckFailed:
                print("optimize", sys.flags.optimize, "raised")
            """
        )
        src = os.path.dirname(os.path.dirname(gampkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.split() == ["optimize", "1", "raised"]


def rebuilt(alg):
    """An equal copy of a plain algebra: a new object, its universe reversed."""
    return PartialAlgebra.from_ops(alg.stype, reversed(alg.universe), alg.ops)


class TestProductEquality:
    """Two recorded products compare by their factors, pair by pair; the
    reference is the comparison of their plain twins' tables."""

    def test_equal_powers_build_no_tables(self):
        a, b = build_named("power:M3:3").algebra, build_named("power:M3:3").algebra
        assert a is not b and a == b
        assert "tables" not in vars(a) and "tables" not in vars(b)

    def test_unequal_factors(self, m3, n5):
        power = build_named("power:M3:3").algebra
        assert power != PartialAlgebra.product([m3, m3, n5])
        assert power != PartialAlgebra.product([m3, m3])
        assert "tables" not in vars(power)

    def test_one_recorded_side_compares_tables(self, m3):
        power = PartialAlgebra.product([m3, m3])
        assert power == plain_twin([m3, m3]) and plain_twin([m3, m3]) == power
        assert "tables" in vars(power)

    def test_an_empty_factor_empties_the_product(self, m3, n5):
        empty = PartialAlgebra.from_ops(LATTICE_TYPE, [], {})
        assert PartialAlgebra.product([empty, m3]) == PartialAlgebra.product([n5, empty, n5])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(cgf_algebras(max_size=3), min_size=1, max_size=3), st.data())
    def test_matches_the_tables(self, factors, data):
        kind = data.draw(st.sampled_from(["rebuilt", "replace", "extend", "shorten"]))
        others = [rebuilt(f) for f in factors]
        if kind == "replace":
            others[data.draw(st.integers(0, len(factors) - 1))] = data.draw(cgf_algebras(3))
        elif kind == "extend":
            others.insert(data.draw(st.integers(0, len(factors))), data.draw(cgf_algebras(3)))
        elif kind == "shorten" and len(others) > 1:
            others.pop(data.draw(st.integers(0, len(factors) - 1)))
        left, right = PartialAlgebra.product(factors), PartialAlgebra.product(others)
        expected = plain_twin(factors) == plain_twin(others)
        assert expected or kind != "rebuilt"
        assert (left == right) == (right == left) == expected
        assert "tables" not in vars(left) and "tables" not in vars(right)


    def test_equal_powers_are_partial_subs_by_their_factors(self):
        a, b = build_named("power:M3:3").algebra, build_named("power:M3:3").algebra
        assert a.is_partial_sub_of(b) and b.is_partial_sub_of(a)
        assert "tables" not in vars(a) and "tables" not in vars(b)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(cgf_algebras(max_size=3), min_size=1, max_size=3), st.data())
    def test_partial_sub_matches_the_label_loop(self, factors, data):
        # products of equal, unequal and wider factors, and a partial
        # subalgebra of a product, against the label loop on plain twins
        kind = data.draw(st.sampled_from(["rebuilt", "replace", "extend", "shorten", "wider", "sub"]))
        others, i = [rebuilt(f) for f in factors], data.draw(st.integers(0, len(factors) - 1))
        if kind == "replace":
            others[i] = data.draw(cgf_algebras(3))
        elif kind == "extend":
            others.insert(i, data.draw(cgf_algebras(3)))
        elif kind == "shorten" and len(others) > 1:
            others.pop(i)
        elif kind == "wider":
            others[i] = data.draw(extensions(factors[i]))
        left = PartialAlgebra.product(factors)
        if kind == "sub":
            kept = data.draw(st.sets(st.sampled_from(left.universe)))
            right = PartialAlgebra.product(factors).restrict_full(kept)
            b = as_labels(right)
        else:
            right, b = PartialAlgebra.product(others), as_labels(plain_twin(others))
        a = as_labels(plain_twin(factors))
        assert left.is_partial_sub_of(right) == label_is_partial_sub_of(a, b)
        assert kind == "sub" or "tables" not in vars(left) and "tables" not in vars(right)
        assert right.is_partial_sub_of(left) == label_is_partial_sub_of(b, a)
        assert kind not in ("rebuilt", "wider") or left.is_partial_sub_of(right)


@st.composite
def extensions(draw, alg):
    """A total algebra with alg as a partial subalgebra: one or two points
    more, each new cell of a random value."""
    universe = [*alg.universe, *range(len(alg), len(alg) + draw(st.integers(1, 2)))]
    value, ops = st.sampled_from(universe), alg.ops
    return PartialAlgebra.from_ops(alg.stype, universe, {
        name: {a: ops[name][a] if a in ops[name] else draw(value) for a in product(universe, repeat=ar)}
        for name, ar in alg.stype.symbols
    })


class TestChainColimit:
    def test_constant_identity_chain(self, m3):
        f = PalgMorphism.identity(m3)
        res = chain_colimit([f, f, f], window=2)
        assert res.obj == m3
        assert res.stabilized

    def test_increasing_full_subalgebras(self, m3):
        s1 = m3.restrict_full({"0"})
        s2 = m3.restrict_full({"0", "x1"})
        s3 = m3.restrict_full({"0", "x1", "1"})
        f1 = PalgMorphism.from_map(s1, s2, {"0": "0"})
        f2 = PalgMorphism.from_map(s2, s3, {x: x for x in s2.universe})
        res = chain_colimit([f1, f2], window=1)
        assert res.obj == s3
        assert not res.stabilized

    def test_strong_stable_tail_gives_total(self, m3):
        f = PalgMorphism.identity(m3)
        res = chain_colimit([f, f], window=2)
        assert res.obj.is_total()

    def test_not_composable(self, m3, chain3):
        with pytest.raises(NotComposable):
            chain_colimit([PalgMorphism.identity(m3), PalgMorphism.identity(chain3)])

    def test_pushed_definedness_and_identities(self, chain3):
        # definedness of terms in the colimit is the union of pushed
        # definedness, and identities persist
        s1 = chain3.restrict_full({0, 1})
        f = PalgMorphism.from_map(s1, chain3, {0: 0, 1: 1})
        res = chain_colimit([f], window=1)
        t = meet(V(0), V(1))

        def def_set(alg):
            tuples = product(alg.universe, repeat=2)
            return {args for args in tuples if t.eval(alg, args) is not UNDEFINED}

        pushed = {tuple(map(f, args)) for args in def_set(s1)} | def_set(chain3)
        assert def_set(res.obj) == pushed
        for _, t1, t2 in LATTICE_IDENTITIES:
            ok1, _ = satisfies_identity(s1, t1, t2)
            ok2, _ = satisfies_identity(chain3, t1, t2)
            okc, _ = satisfies_identity(res.obj, t1, t2)
            assert not (ok1 and ok2) or okc


def naive_product_closure(algebra, pairs):
    """product_closure as its docstring defines it, by brute-force rounds:
    the diagonal, the pairs and their swaps, closed under every operation
    applied componentwise wherever both component tuples are defined."""
    closure = {(x, x) for x in algebra.universe} | set(pairs) | {(b, a) for a, b in pairs}
    while True:
        step = set(closure)
        for name, ar in algebra.stype.symbols:
            table = algebra.ops[name]
            for args in product(closure, repeat=ar):
                left, right = tuple(p[0] for p in args), tuple(p[1] for p in args)
                if left in table and right in table:
                    step.add((table[left], table[right]))
        if step == closure:
            return closure
        closure = step


def classes(alg, find):
    """The partition of alg's universe that the find function induces."""
    blocks = {}
    for x in alg.universe:
        blocks.setdefault(find(x), set()).add(x)
    return {frozenset(b) for b in blocks.values()}


class TestTermChains:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_closure_is_the_naive_fixpoint(self, data):
        alg = data.draw(fg_algebras(max_size=4, total=False, ternary=True))
        element = st.sampled_from(alg.universe)
        pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
        assert product_closure(alg, pairs) == naive_product_closure(alg, pairs)

    def test_closure_reaches_the_last_slot_of_a_ternary_operation(self):
        # (4, 0) comes only from h((0,0), (0,0), (2,3)), in the second round,
        # where the one fresh pair sits in the last slot; random draws reach
        # such a case in about one algebra in a thousand
        h = {(0, 0, 0): 2, (1, 1, 1): 3, (0, 0, 2): 4, (0, 0, 3): 0}
        alg = PartialAlgebra.from_ops(SimilarityType((("h", 3),)), list(range(5)), {"h": h})
        closure = product_closure(alg, [(0, 1)])
        assert (4, 0) in closure and closure == naive_product_closure(alg, [(0, 1)])

    def test_chain_search_in_total_chain(self, chain3):
        find = chain_connectivity(chain3, [(0, 1), (1, 2)])
        assert find(0) == find(2)

    def test_chain_search_respects_definedness(self):
        alg = sparse_algebra()
        find = chain_connectivity(alg, [])
        assert find("a") != find("b")
        find = chain_connectivity(alg, [("a", "b")])
        assert find("a") == find("b")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_total_carrier_classes_are_the_closure_classes(self, data):
        # a total carrier takes Cg(pairs) instead of the joint-evaluation
        # closure: the classes must be those of the closure, extra joined
        alg = data.draw(fg_algebras(max_size=4, total=True, ternary=True))
        element = st.sampled_from(alg.universe)
        pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
        extra = data.draw(st.lists(st.tuples(element, element), max_size=2))
        index = {x: i for i, x in enumerate(alg.universe)}
        oracle = _UnionFind(range(len(alg.universe)))
        for x, y in chain(product_closure(alg, pairs), extra):
            oracle.union(index[x], index[y])
        assert classes(alg, chain_connectivity(alg, pairs, extra)) == classes(
            alg, lambda x: oracle.find(index[x])
        )

    def test_extra_pairs_are_joined_not_closed(self, m3):
        # Cg(0, x1) is everything in the simple lattice M3, but a joined
        # extra pair links only its own two ends
        with mock.patch("gampkit.pregamp.product_closure", side_effect=AssertionError):
            find = chain_connectivity(m3, [], extra=[("0", "x1")])
        assert find("0") == find("x1")
        assert find("1") != find("0")
        assert len(classes(m3, chain_connectivity(m3, [("0", "x1")]))) == 1


# ---------------------------------------------------------------------------
# The label loops that PartialAlgebra and its readers ran before the tables
# were held on indices, kept as references. A label algebra is a triple
# (type, universe, {name: {argument tuple: value}}) with every symbol listed.

LABEL_STYLES = ("names", "integers")


def style_labels(style, numbers):
    """Shuffled non-integer labels, or integers out of index order, where a
    label table could pass for an index table."""
    return [f"e{k}" for k in numbers] if style == "names" else list(numbers)


def as_labels(alg):
    return alg.stype, alg.universe, alg.ops


def in_order(ops):
    """The tables with their entries in order, for comparing orders too."""
    return {name: list(table.items()) for name, table in ops.items()}


def label_validate(stype, universe, ops):
    """The constructor's check as a loop over label tables: its message, or
    None."""
    uset = frozenset(universe)
    if len(uset) != len(universe):
        return "duplicate universe elements"
    for name, table in ops.items():
        ar = stype.arity(name)
        for args, val in table.items():
            if len(args) != ar:
                return f"{name}: arity mismatch at {args}"
            if not set(args) <= uset or val not in uset:
                return f"{name}: entry {args}->{val} leaves the universe"
    return None


def label_is_partial_sub_of(a, b):
    if not set(a[1]) <= set(b[1]) or a[0] != b[0]:
        return False
    return all(b[2][name].get(args) == val for name, t in a[2].items() for args, val in t.items())


def label_eq(a, b):
    return a[0] == b[0] and set(a[1]) == set(b[1]) and a[2] == b[2]


def label_restrict_full(a, subset):
    stype, universe, ops = a
    return stype, tuple(x for x in universe if x in subset), {
        name: {args: val for args, val in t.items() if set(args) <= subset and val in subset}
        for name, t in ops.items()
    }


def label_image(a, mapping):
    stype, universe, ops = a
    tables = {}
    for name, t in ops.items():
        tables[name] = {}
        for args, val in t.items():
            tables[name][tuple(map(mapping.__getitem__, args))] = mapping[val]
    return stype, tuple(dict.fromkeys(map(mapping.__getitem__, universe))), tables


def label_preimage(a, mapping, sub):
    stype, universe, ops = a
    kept = [x for x in universe if mapping[x] in sub[1]]
    return stype, tuple(kept), {
        name: {
            args: val for args, val in t.items()
            if set(args) <= set(kept) and tuple(map(mapping.__getitem__, args)) in sub[2][name]
        }
        for name, t in ops.items()
    }


def label_first_failure(a, mapping, lookup):
    for name, table in a[2].items():
        for args, val in table.items():
            tv = lookup(name, tuple(map(mapping.__getitem__, args)))
            if tv is UNDEFINED:
                return f"{name}{args} defined in source but image undefined"
            if tv != mapping[val]:
                return f"{name}{args} not preserved"
    return None


def label_undefined_tuple(a, points):
    for name, ar in a[0].symbols:
        for args in product(points, repeat=ar):
            if args not in a[2][name]:
                return name, args
    return None


def label_is_lattice_order(a):
    _, universe, ops = a
    meet_t, join_t = ops["meet"], ops["join"]
    index = {x: i for i, x in enumerate(universe)}
    cells = list(product(enumerate(universe), repeat=2))
    down, up = [0] * len(index), [0] * len(index)
    for (u, x), (v, y) in cells:
        if meet_t[(x, y)] == x:
            down[v] |= 1 << u
            up[u] |= 1 << v
    if any(below & up[u] != 1 << u for u, below in enumerate(down)):
        return False
    return all(
        down[index[meet_t[(x, y)]]] == down[u] & down[v]
        and up[index[join_t[(x, y)]]] == up[u] & up[v]
        for (u, x), (v, y) in cells
    )


def label_is_congruence(a, blocks):
    stype, universe, ops = a
    block = {x: b for b in blocks for x in b}
    if set(block) != set(universe):
        return False
    for name, ar in stype.symbols:
        if ar:
            for args1 in product(universe, repeat=ar):
                for args2 in product(universe, repeat=ar):
                    if all(block[x] is block[y] for x, y in zip(args1, args2)):
                        if block[ops[name][args1]] is not block[ops[name][args2]]:
                            return False
    return True


@st.composite
def label_tables(draw, stype, universe, total=False):
    """Label tables over the universe, every symbol listed, cells in a
    shuffled order, each kept (all of them when total) with a random value."""
    ops = {}
    for name, ar in stype.symbols:
        cells = list(product(universe, repeat=ar)) if universe else []
        cells = draw(st.permutations(cells))
        value = st.sampled_from(universe) if universe else st.nothing()
        ops[name] = {args: draw(value) for args in cells if total or draw(st.booleans())}
    return ops


@st.composite
def labelled_algebras(draw, stype=CGF_TYPE, total=False, max_size=4, style=None):
    """(algebra, label tables it was built from, style)."""
    style = style or draw(st.sampled_from(LABEL_STYLES))
    size = draw(st.integers(1, max_size))
    universe = style_labels(style, draw(st.permutations(range(size))))
    ops = draw(label_tables(stype, universe, total))
    return PartialAlgebra.from_ops(stype, universe, ops), ops, style


@st.composite
def variants(draw, a, style):
    """A label algebra near a: its points reordered, entries dropped, points
    and entries added, a value changed, each or not, so that it is equal to
    a, above it, below it or unrelated."""
    stype, universe, ops = a
    universe = list(draw(st.permutations(universe)))
    ops = {name: dict(draw(st.permutations(list(t.items())))) for name, t in ops.items()}
    if draw(st.booleans()):
        ops = {name: {k: v for k, v in t.items() if draw(st.booleans())} for name, t in ops.items()}
    if draw(st.booleans()):
        universe += style_labels(style, range(len(universe), len(universe) + draw(st.integers(1, 2))))
        more = draw(label_tables(stype, universe))
        ops = {name: {**more[name], **t} for name, t in ops.items()}
    cells = [(name, args) for name, t in ops.items() for args in t]
    if cells and draw(st.booleans()):
        name, args = draw(st.sampled_from(cells))
        ops[name][args] = draw(st.sampled_from(universe))
    return stype, tuple(universe), ops


def construction_error(build):
    try:
        build()
    except ValueError as e:
        return str(e)
    return None


class TestLabelReferences:
    """The index code against the label loops it replaced, in both label
    styles."""

    @settings(max_examples=100, deadline=None)
    @given(labelled_algebras())
    def test_from_ops_reads_back_its_input(self, case):
        alg, ops, _ = case
        assert in_order(alg.ops) == in_order(ops)
        assert all(alg.apply(name, args) == v for name, t in ops.items() for args, v in t.items())

    @settings(max_examples=200, deadline=None)
    @given(labelled_algebras(), st.sampled_from(["none", "repeat", "arity", "value", "argument"]), st.data())
    def test_construction_checks_match_the_label_loop(self, case, fault, data):
        alg, ops, style = case
        universe = list(alg.universe)
        foreign = style_labels(style, [len(universe)])[0]
        ops = {name: dict(t) for name, t in ops.items()}
        if fault == "repeat":
            universe.append(data.draw(st.sampled_from(universe)))
        elif fault != "none":
            x = universe[0]
            cell = {"arity": ("f", (x,)), "value": ("g", (x,)), "argument": ("f", (x, foreign))}[fault]
            ops[cell[0]][cell[1]] = foreign if fault == "value" else x
        expected = label_validate(CGF_TYPE, universe, ops)
        assert construction_error(lambda: PartialAlgebra.from_ops(CGF_TYPE, universe, ops)) == expected
        # the same tables on indices, a foreign label at the first index past
        # the universe: as label tables over range(n) they fail alike
        n = len(universe)
        number = {x: i for i, x in enumerate(universe)}
        index_ops = {
            name: {tuple(number.get(x, n) for x in args): number.get(v, n) for args, v in t.items()}
            for name, t in ops.items()
        }
        expected = label_validate(CGF_TYPE, range(n), index_ops)
        if fault == "repeat":
            expected = "duplicate universe elements"
        assert construction_error(lambda: PartialAlgebra(CGF_TYPE, universe, index_ops)) == expected

    @settings(max_examples=200, deadline=None)
    @given(labelled_algebras(), st.data())
    def test_sub_and_equality_match_the_label_loop(self, case, data):
        a, _, style = case
        b = data.draw(variants(as_labels(a), style))
        other = PartialAlgebra.from_ops(*b)
        for x, y, lx, ly in ((a, other, as_labels(a), b), (other, a, b, as_labels(a))):
            assert x.is_partial_sub_of(y) == label_is_partial_sub_of(lx, ly)
            assert (x == y) == label_eq(lx, ly)
        if a == other:
            assert hash(a) == hash(other)

    @settings(max_examples=150, deadline=None)
    @given(labelled_algebras(), st.data())
    def test_restrict_full_matches_the_label_loop(self, case, data):
        a, _, _ = case
        subset = frozenset(data.draw(st.sets(st.sampled_from(a.universe))))
        expected = label_restrict_full(as_labels(a), subset)
        restricted = a.restrict_full(subset)
        assert as_labels(restricted)[:2] == expected[:2]
        assert in_order(restricted.ops) == in_order(expected[2])

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LABEL_STYLES).flatmap(
        lambda style: st.tuples(labelled_algebras(style=style), labelled_algebras(style=style))
    ), st.data())
    def test_maps_match_the_label_loops(self, pair, data):
        (a, _, _), (b, b_ops, _) = pair
        mapping = {x: data.draw(st.sampled_from(b.universe)) for x in a.universe}
        f = unvalidated(a, b, mapping)
        by_labels = label_first_failure(
            as_labels(a), mapping, lambda name, im: b_ops[name].get(im, UNDEFINED)
        )
        assert f._first_failure(b._lookup) == by_labels
        image, expected = image_palg(f), label_image(as_labels(a), mapping)
        assert as_labels(image)[:2] == expected[:2] and in_order(image.ops) == in_order(expected[2])
        points = data.draw(st.lists(st.sampled_from(b.universe), unique=True))
        assert palg.undefined_tuple(b, points) == label_undefined_tuple(as_labels(b), points)
        kept = data.draw(st.sets(st.sampled_from(b.universe)))
        sub = b.restrict_full(kept)
        sub = PartialAlgebra.from_ops(b.stype, sub.universe, {
            name: {k: v for k, v in t.items() if data.draw(st.booleans())} for name, t in sub.ops.items()
        })
        stype, kept, tables = label_preimage(as_labels(a), mapping, as_labels(sub))
        # where f is no morphism, an entry whose value leaves the preimage is
        # not kept; the label loop kept it, outside the universe
        tables = {name: {k: v for k, v in t.items() if v in kept} for name, t in tables.items()}
        pre = preimage_palg(f, sub)
        assert as_labels(pre)[:2] == (stype, kept) and in_order(pre.ops) == in_order(tables)

    @settings(max_examples=200, deadline=None)
    @given(lattice_signature_algebras(), st.sampled_from(LABEL_STYLES), st.data())
    def test_lattice_order_matches_the_label_loop(self, alg, style, data):
        labels = style_labels(style, data.draw(st.permutations(range(len(alg)))))
        name = dict(zip(alg.universe, labels))
        relabelled = PartialAlgebra.from_ops(LATTICE_TYPE, labels, {
            op: {tuple(map(name.get, args)): name[v] for args, v in t.items()} for op, t in alg.ops.items()
        })
        assert palg._is_lattice_order(relabelled) == label_is_lattice_order(as_labels(relabelled))
        assert palg._is_lattice_order(relabelled) == palg._is_lattice_order(alg)

    @settings(max_examples=150, deadline=None)
    @given(labelled_algebras(total=True, max_size=3), st.data())
    def test_is_congruence_matches_the_label_loop(self, case, data):
        from gampkit.congruence import is_congruence

        a, _, _ = case
        ids = [data.draw(st.integers(0, len(a) - 1)) for _ in a.universe]
        blocks = [frozenset(x for x, i in zip(a.universe, ids) if i == k) for k in set(ids)]
        assert is_congruence(a, blocks) == label_is_congruence(as_labels(a), blocks)


# ---------------------------------------------------------------------------
# The label loops that PalgMorphism ran while it held a label dict, kept as
# references for the index lists that replaced it.


def label_factorwise_verdict(src, tgt, mapping):
    """_factorwise_verdict on label tuples: each target coordinate read off
    one source coordinate, then every factor map checked."""
    if src.factors is None or not src.universe:
        return None
    images = [mapping[x] for x in src.universe]
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
    return all(label_map_validate(sf, tf, g) is None for sf, tf, g in factor_maps)


def label_map_validate(src, tgt, mapping):
    """PalgMorphism's construction check on a label map: its message, or
    None; every table entry read through apply."""
    if src.stype != tgt.stype:
        return "similarity types differ"
    for x in src.universe:
        if mapping.get(x) not in tgt:
            return f"map not into target at {x!r}"
    return label_first_failure(as_labels(src), mapping, lambda name, im: tgt.apply(name, im))


@st.composite
def labelled_maps(draw, style):
    """(source, target, mapping) in one label style: maps out of and into
    products of labelled total algebras, or between labelled partial ones;
    a projection, a diagonal, a coordinate swap or a random map, with one
    image changed in about a third of the draws."""

    def algebra(total):
        return draw(labelled_algebras(total=total, max_size=3, style=style))[0]

    def power():
        return PartialAlgebra.product([algebra(True)] * draw(st.integers(1, 2)))

    kind = draw(st.sampled_from(["projection", "diagonal", "swap", "random"]))
    if kind == "projection":
        src = PartialAlgebra.product([algebra(True) for _ in range(draw(st.integers(1, 2)))])
        i = draw(st.integers(0, len(src.factors) - 1))
        tgt, mapping = src.factors[i], {x: x[i] for x in src.universe}
    elif kind == "diagonal":
        src = algebra(True)
        tgt = PartialAlgebra.product([src] * draw(st.integers(1, 2)))
        mapping = {x: (x,) * len(tgt.factors) for x in src.universe}
    elif kind == "swap":
        src = PartialAlgebra.product([algebra(True), algebra(True)])
        tgt = PartialAlgebra.product(src.factors[::-1])
        mapping = {x: x[::-1] for x in src.universe}
    else:
        src = draw(st.sampled_from([power, lambda: algebra(False)]))()
        tgt = draw(st.sampled_from([power, lambda: algebra(False)]))()
        mapping = {x: draw(st.sampled_from(tgt.universe)) for x in src.universe}
    if draw(st.sampled_from([False, False, True])):
        mapping[draw(st.sampled_from(src.universe))] = draw(st.sampled_from(tgt.universe))
    return src, tgt, mapping


class TestMorphismLabelReferences:
    """The index lists against the label loops they replaced, in both label
    styles."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LABEL_STYLES).flatmap(labelled_maps))
    def test_validate_matches_the_label_loop(self, case):
        src, tgt, mapping = case
        expected = label_map_validate(src, tgt, mapping)
        f = unvalidated(src, tgt, mapping)
        assert f._factorwise_verdict() == label_factorwise_verdict(src, tgt, mapping)
        assert table_error(f) == label_first_failure(
            as_labels(src), mapping, lambda name, im: tgt.apply(name, im)
        )
        assert validate_error(f) == expected
        assert construction_error(lambda: PalgMorphism.from_map(src, tgt, mapping)) == expected
        # the factorwise path alone, as on a source past the cross-check bound
        with mock.patch.object(palg, "FACTORWISE_CHECK_BOUND", 0):
            assert validate_error(f) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LABEL_STYLES).flatmap(
        lambda style: st.tuples(*[labelled_algebras(max_size=3, style=style)] * 3)
    ), st.data())
    def test_after_equality_and_bijectivity_match_the_label_loops(self, triple, data):
        (a, _, _), (b, _, _), (c, _, _) = triple
        f = {x: data.draw(st.sampled_from(b.universe)) for x in a.universe}
        g = {y: data.draw(st.sampled_from(c.universe)) for y in b.universe}
        # the second map starts at an equal copy of b, its points reversed
        fm, gm = unvalidated(a, b, f), unvalidated(rebuilt(b), c, g)
        assert label_map(gm.after(fm)) == {x: g[f[x]] for x in a.universe}
        assert fm.is_injective() == (len(set(f.values())) == len(f))
        assert fm.is_surjective() == (set(f.values()) == set(b.universe))
        other = dict(f)
        if data.draw(st.booleans()):
            other[data.draw(st.sampled_from(a.universe))] = data.draw(st.sampled_from(b.universe))
        again = unvalidated(rebuilt(a), rebuilt(b), other)
        assert (fm == again) == (again == fm) == (f == other)
        if c != a:
            with pytest.raises(NotComposable):
                fm.after(gm)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(LABEL_STYLES).flatmap(
        lambda style: st.tuples(*[labelled_algebras(max_size=4, style=style)] * 2)
    ), st.data())
    def test_from_map_reads_back_its_map(self, pair, data):
        # out of an algebra with no entries every map is a morphism
        (a, _, style), (b, _, _) = pair
        bare = PartialAlgebra.from_ops(a.stype, a.universe, {})
        mapping = {x: data.draw(st.sampled_from(b.universe)) for x in a.universe}
        f = PalgMorphism.from_map(bare, b, mapping)
        assert all(f(x) == mapping[x] for x in a.universe)
        assert f.to == [b.point[mapping[x]] for x in a.universe]
        foreign = style_labels(style, [len(b)])[0]
        x = data.draw(st.sampled_from(a.universe))
        for broken in ({**mapping, x: foreign}, {k: v for k, v in mapping.items() if k != x}):
            assert construction_error(lambda: PalgMorphism.from_map(bare, b, broken)) == label_map_validate(
                bare, b, broken
            )

    @pytest.mark.parametrize("to", [[0, 1], [0, 1, 2, 3], [0, 1, 5], [0, -1, 2], [0, 1, None], [0, 1.0, 2]])
    def test_constructor_refuses_a_list_of_the_wrong_length_or_range(self, chain3, to):
        with pytest.raises(ValueError, match="map is not 3 indices below 3"):
            PalgMorphism(chain3, chain3, to)
