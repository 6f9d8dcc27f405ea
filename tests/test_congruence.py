import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations, compress, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gampkit
from gampkit import build_named, congruence
from gampkit.cli import run
from gampkit.congruence import (
    _chain_condition_failures,
    _chain_verdict,
    _closure_labels,
    _elementwise_n_permutable,
    _from_labels,
    _interpolants,
    _parity_joins,
    _principal_labels,
    _relational_n_permutable,
    _upward_paths,
    CON_BOUND,
    ConcSemilattice,
    ELEMENTWISE_LIMIT,
    Congruence,
    MalcevWitness,
    NoContainment,
    UnknownAtBound,
    all_congruences_bruteforce,
    chain_interpolants,
    con_lattice,
    con_meet,
    conc,
    conc_morphism,
    congruence_closure,
    is_congruence,
    is_n_permutable,
    malcev_witness,
    principal_congruence,
    quotient_algebra,
)
from gampkit.errors import CrossCheckFailed, GampkitError, NotTotal, TooLarge
from gampkit.gamp import check_property, ga
from gampkit.palg import LATTICE_TYPE, UNDEFINED, PalgMorphism, PartialAlgebra, SimilarityType
from gampkit.pregamp import Pregamp, pga
from gampkit.semilattice import JoinSemilattice, SemIdeal, is_ideal_induced, ker0, quotient
from conftest import label_dist, label_map
from oracles import least_congruence_bruteforce
from test_pregamp import coded_pregamps


class TestPrincipal:
    def test_reflexive_pair(self, m3):
        theta = principal_congruence(m3, "x1", "x1")
        assert theta == Congruence.identity(m3.universe)

    def test_m3_simple(self, m3):
        theta = principal_congruence(m3, "0", "x1")
        assert theta == Congruence([m3.universe])

    def test_x1_meet_of_marked_principals_is_zero(self, x1):
        t1 = principal_congruence(x1, "1", "x1")
        t2 = principal_congruence(x1, "x3", "1")
        assert con_meet(t1, t2) == Congruence.identity(x1.universe)

    def test_requires_total(self):
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, [0, 1], {})
        with pytest.raises(NotTotal):
            principal_congruence(alg, 0, 1)

    def test_against_bruteforce_oracle(self, fixture_lattices):
        for name, alg in fixture_lattices.items():
            if len(alg.universe) > 6:
                continue
            for x in alg.universe:
                for y in alg.universe:
                    fast = principal_congruence(alg, x, y)
                    slow = least_congruence_bruteforce(alg, x, y)
                    assert fast == slow, (name, x, y)


class TestConLattice:
    def test_two(self, fixture_lattices):
        assert len(con_lattice(fixture_lattices["two"])) == 2

    def test_chain_boolean(self, fixture_lattices):
        # an (n+1)-element chain has a Boolean congruence lattice on n atoms
        for k in (3, 4, 5):
            alg = fixture_lattices[f"chain:{k}"]
            assert len(con_lattice(alg)) == 2 ** (k - 1)

    def test_m3_simple(self, m3):
        assert len(con_lattice(m3)) == 2

    def test_matches_bruteforce(self, fixture_lattices):
        for name, alg in fixture_lattices.items():
            if len(alg.universe) > 6:
                continue
            fast = set(con_lattice(alg))
            slow = set(all_congruences_bruteforce(alg))
            assert fast == slow, name


class TestConc:
    def test_two_point(self, fixture_lattices):
        cs = conc(fixture_lattices["two"])
        assert len(cs) == 2

    def test_chain3_is_square(self, chain3):
        cs = conc(chain3)
        assert len(cs) == 4
        atoms = [cs.principal(0, 1), cs.principal(1, 2)]
        assert cs.join(atoms[0], atoms[1]) == Congruence([chain3.universe])

    def test_x1_cross_check(self, x1):
        cs = conc(x1)
        assert set(cs.elements) == set(con_lattice(x1))
        assert len(cs) == 8

    def test_generator_map(self, x1):
        cs = conc(x1)
        for a in x1.universe:
            for b in x1.universe:
                assert cs.principal(a, b) == principal_congruence(x1, a, b)
        assert label_dist(pga(x1)) == {
            (a, b): principal_congruence(x1, a, b) for a in x1.universe for b in x1.universe
        }

    def test_each_join_computed_once(self, x1, monkeypatch):
        # off lattices the builder joins each pair of nonzero label tuples
        # once, seeding the union-find with one of them (a closure seeds it
        # with range(n)), and building Conc joins nothing again
        reduct = _join_reduct(x1)
        joins = _count_label_joins(monkeypatch)
        cs = conc(reduct)
        k = len(cs) - 1
        assert k > 2 and len(joins) == k * (k - 1) // 2
        everything = all_congruences_bruteforce(reduct)
        for a in cs.elements:
            for b in cs.elements:
                upper = [t for t in everything if con_meet(a, t) == a and con_meet(b, t) == b]
                assert cs.join(a, b) == _least(upper)

    def test_closes_each_pair_once_off_lattices(self, x1, monkeypatch):
        # the principal table is kept at build time: principal() and the
        # delta of pga run no closure of their own
        reduct = _join_reduct(x1)
        closures = _count_calls(monkeypatch, "_closure_labels")
        cs = conc(reduct)
        dist, zero = label_dist(pga(reduct)), cs.principal("x1", "x1")
        n = len(reduct.universe)
        assert len(closures) == n * (n - 1) // 2 and zero is cs.zero
        assert dist == {
            (a, b): principal_congruence(reduct, a, b)
            for a in reduct.universe for b in reduct.universe
        }

    @pytest.mark.parametrize("name", ["M3", "N5", "X1", "chain:5", "power:M3:2", "power:X1:2"])
    def test_lattice_closes_only_its_join_irreducibles(self, name, monkeypatch):
        # on a lattice Con comes from Day's relation on J(L): the closures
        # are the cross-check's, one per join-irreducible, and no label
        # tuples are joined
        alg = build_named(name).algebra
        closures = _count_calls(monkeypatch, "_closure_labels")
        joins = _count_label_joins(monkeypatch)
        cs = conc(alg)
        label_dist(pga(alg)), cs.generated([(alg.universe[0], alg.universe[-1])])
        assert len(closures) == len(_brute_join_irreducibles(alg)) and joins == []

    def test_dropped_day_edge_fails_the_cross_check(self, monkeypatch):
        # a fresh N5: the session fixture's Conc may be built and kept already
        n5 = build_named("N5").algebra
        dropped = _drop_first_day_edge(congruence._day_relation)
        monkeypatch.setattr(congruence, "_day_relation", dropped)
        with pytest.raises(CrossCheckFailed, match="Day's relation"):
            conc(n5)

    def test_dropped_day_edge_fails_the_cross_check_under_optimize(self):
        code = textwrap.dedent(
            """
            import sys
            from gampkit import build_named, congruence
            from gampkit.errors import CrossCheckFailed

            real = congruence._day_relation

            def dropped(*args):
                rows = real(*args)
                t = next(t for t, row in enumerate(rows) if row)
                rows[t] &= rows[t] - 1
                return rows

            congruence._day_relation = dropped
            try:
                congruence.conc(build_named("N5").algebra)
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


def _join_reduct(alg):
    """The join-semilattice reduct of a lattice: not a lattice algebra, so
    its Con is built by closures."""
    stype = SimilarityType((("join", 2),))
    return PartialAlgebra.from_ops(stype, alg.universe, {"join": dict(alg.ops["join"])})


def _count_calls(monkeypatch, name):
    """Record the arguments of each call of congruence.<name>."""
    calls, real = [], getattr(congruence, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(congruence, name, spy)
    return calls


def _count_label_joins(monkeypatch):
    """Record each union-find seeded with a label tuple: one join of two
    congruences (a closure seeds it with range(n))."""
    joins = []

    class Spy(congruence._UnionFind):
        def __init__(self, parent):
            if isinstance(parent, tuple):
                joins.append(parent)
            super().__init__(parent)

    monkeypatch.setattr(congruence, "_UnionFind", Spy)
    return joins


def _drop_first_day_edge(real):
    """_day_relation without the first edge of its first nonempty row."""

    def dropped(*args):
        rows = real(*args)
        t = next(t for t, row in enumerate(rows) if row)
        rows[t] &= rows[t] - 1
        return rows

    return dropped


def _brute_join_irreducibles(alg):
    """The elements with exactly one lower cover, from the meet order."""
    meet = alg.ops["meet"]
    lt = {(u, v) for u in alg.universe for v in alg.universe if u != v and meet[(u, v)] == u}
    return [
        v for v in alg.universe
        if sum(
            1 for u in alg.universe
            if (u, v) in lt and not any((u, w) in lt and (w, v) in lt for w in alg.universe)
        ) == 1
    ]


def _is_own_element(cs, theta):
    return any(theta is e for e in cs.elements)


def _assert_canonical(alg):
    cs = conc(alg)
    assert _is_own_element(cs, cs.zero)
    for x in alg.universe:
        for y in alg.universe:
            assert _is_own_element(cs, cs.principal(x, y))
    for a in cs.elements:
        for b in cs.elements:
            assert _is_own_element(cs, cs.join(a, b))


@pytest.mark.parametrize("name", ["two", "chain:3", "M3", "N5", "X1", "X2"])
def test_conc_objects_are_canonical(name, fixture_lattices):
    _assert_canonical(fixture_lattices[name])
    cs = conc(fixture_lattices[name])
    image = conc_morphism(PalgMorphism.identity(fixture_lattices[name]))
    assert all(_is_own_element(cs, image(t)) for t in cs.elements)


class TestOneConcPerAlgebra:
    def test_conc_pga_and_ga_are_kept_on_the_algebra(self):
        alg = build_named("X1").algebra
        assert conc(alg) is conc(alg)
        assert pga(alg) is pga(alg) and pga(alg).sem is conc(alg)
        assert ga(alg) is ga(alg) and ga(alg).pregamp is pga(alg)

    def test_bound_is_checked_on_every_call(self):
        alg = build_named("X1").algebra
        conc(alg)
        with pytest.raises(TooLarge, match=r"capped at 4 elements \(got 5\)"):
            conc(alg, bound=len(alg) - 1)


class TestConcMorphism:
    def test_identity(self, m3):
        f = PalgMorphism.identity(m3)
        cm = conc_morphism(f)
        assert all(cm(t) == t for t in cm.source.elements)

    def test_functoriality(self, chain3, m3):
        f = PalgMorphism.from_map(chain3, m3, {0: "0", 1: "x3", 2: "1"})
        g = PalgMorphism.identity(m3)
        assert label_map(conc_morphism(g.after(f))) == label_map(conc_morphism(g).after(conc_morphism(f)))

    def test_surjection_is_ideal_induced_with_stated_kernel(self, chain3):
        theta = principal_congruence(chain3, 0, 1)
        q, proj = quotient_algebra(chain3, theta)
        cm = conc_morphism(proj)
        ok, _ = is_ideal_induced(cm)
        assert ok
        below = {t for t in cm.source.elements if con_meet(t, theta) == t}
        assert ker0(cm).carrier == frozenset(below)

    def test_target_universe_order_is_the_target_concs(self, x1):
        # an equal algebra listing its universe in another order has a Conc
        # of its own, with the principal matrix in its own order, and the
        # images are generated on it
        reordered = PartialAlgebra.from_ops(x1.stype, list(reversed(x1.universe)), x1.ops)
        assert reordered == x1
        cs, target = conc(x1), conc(reordered)
        assert target is not cs and target.algebra is reordered
        point = reordered.point
        for x in x1.universe:
            for y in x1.universe:
                assert target.elements[target.dist_rows[point[x]][point[y]]] == cs.principal(x, y)
        image = conc_morphism(PalgMorphism.from_map(x1, reordered, {x: x for x in x1.universe}))
        assert image.source is cs and image.target is target
        for theta in cs.elements:
            assert image(theta).blocks == theta.blocks
            assert _is_own_element(target, image(theta))

    def test_diagonal_embedding_injective_on_principals(self, chain3):
        prod = PartialAlgebra.product([chain3, chain3])
        f = PalgMorphism.from_map(chain3, prod, {x: (x, x) for x in chain3.universe})
        cm = conc_morphism(f)
        principals = {cm.source.principal(x, y) for x in chain3.universe for y in chain3.universe}
        images = {cm(t) for t in principals}
        assert len(images) == len(principals)


class TestQuotientAlgebra:
    def test_identity_theta(self, m3):
        q, _ = quotient_algebra(m3, Congruence.identity(m3.universe))
        assert q == m3

    def test_full_theta(self, m3):
        q, _ = quotient_algebra(m3, Congruence([m3.universe]))
        assert len(q.universe) == 1

    def test_x1_quotient(self, x1):
        theta = principal_congruence(x1, "x3", "1")
        q, proj = quotient_algebra(x1, theta)
        assert len(q.universe) == len(theta.blocks)
        cm = conc_morphism(proj)
        ok, _ = is_ideal_induced(cm)
        assert ok

    def test_quotients_preserve_n_permutability(self, fixture_lattices):
        for name in ("chain:3", "M3", "X1"):
            alg = fixture_lattices[name]
            for n in (2, 3):
                ok, _ = is_n_permutable(alg, n)
                if not ok:
                    continue
                for theta in con_lattice(alg):
                    q, _ = quotient_algebra(alg, theta)
                    ok_q, _ = is_n_permutable(q, n)
                    assert ok_q, (name, n, theta)


def _compose_relation(rel, theta):
    """theta o rel as a successor map: x -> union of theta-blocks over rel[x]."""
    out = {}
    for x, ys in rel.items():
        acc = set()
        for y in ys:
            acc |= theta.block(y)
        out[x] = acc
    return out


def alternating_composite(alpha, beta, n, universe):
    """Reference for the relational check: alpha o beta o alpha o ... with n
    factors, as sets, the rightmost factor acting first."""
    rel = {x: {x} for x in universe}
    factors = [alpha if i % 2 == 0 else beta for i in range(n)]
    for theta in reversed(factors):
        rel = _compose_relation(rel, theta)
    return rel


def brute_relational_n_permutable(algebra, n, congruences):
    """Reference for _relational_n_permutable: every ordered pair composed
    both ways round, as sets."""
    for alpha in congruences:
        for beta in congruences:
            left = alternating_composite(alpha, beta, n, algebra.universe)
            right = alternating_composite(beta, alpha, n, algebra.universe)
            if left != right:
                return False, (alpha, beta)
    return True, None


class TestNPermutable:
    def test_two_trivially_permutable(self, fixture_lattices):
        ok, _ = is_n_permutable(fixture_lattices["two"], 2)
        assert ok

    def test_chain_not_2_but_3_permutable(self, chain3):
        ok2, witness = is_n_permutable(chain3, 2)
        assert not ok2 and witness is not None
        ok3, _ = is_n_permutable(chain3, 3)
        assert ok3

    def test_m3_permutable(self, m3):
        ok, _ = is_n_permutable(m3, 2)
        assert ok

    def test_composite_convention(self, chain3):
        alpha = principal_congruence(chain3, 0, 1)
        beta = principal_congruence(chain3, 1, 2)
        # alpha o beta applies beta first: from 0, beta reaches only 0, and
        # alpha takes 0 to {0, 1}, so 2 stays out of reach
        rel = alternating_composite(alpha, beta, 2, chain3.universe)
        assert rel[0] == {0, 1}
        rel_rev = alternating_composite(beta, alpha, 2, chain3.universe)
        assert 2 in rel_rev[0]


@st.composite
def small_unary_binary_algebras(draw):
    size = draw(st.integers(1, 4))
    u = list(range(size))
    # a narrow value range gives tables with repeats, hence proper
    # congruences and algebras that are not permutable
    value = st.integers(0, draw(st.integers(0, size - 1)))
    f = draw(st.lists(value, min_size=size * size, max_size=size * size))
    g = draw(st.lists(value, min_size=size, max_size=size))
    ops = {
        "f": {(a, b): f[a * size + b] for a in u for b in u},
        "g": {(a,): g[a] for a in u},
    }
    return PartialAlgebra.from_ops(SimilarityType((("f", 2), ("g", 1))), u, ops)


def _closure_system(sets, points):
    """The lattice of a family of subsets of points closed under
    intersection, the whole set added: meet is intersection, join the least
    member above the union. Every finite lattice is one of these."""
    family = {frozenset(points)}
    for s in sets:
        family |= {s & t for t in family} | {frozenset(s)}
    family = sorted(family, key=lambda s: (len(s), sorted(s)))

    def join(a, b):
        return min((c for c in family if a | b <= c), key=len)

    ops = {"meet": lambda a, b: a & b, "join": join}
    return PartialAlgebra.total_from_fn(LATTICE_TYPE, family, ops)


@st.composite
def random_lattices(draw):
    """Down-set lattices of random posets on at most four points (these are
    distributive), lattices of random closure systems on four points, and
    products of two lattices of the corpus."""
    kind = draw(st.sampled_from(["down-sets", "closure system", "product"]))
    if kind == "product":
        names = st.sampled_from(["two", "chain:3", "chain:4", "M3", "N5", "X1", "X2"])
        a, b = build_named(draw(names)).algebra, build_named(draw(names)).algebra
        return PartialAlgebra.product([a, b])
    points = range(draw(st.integers(1, 4)))
    if kind == "closure system":
        sets = draw(st.lists(st.frozensets(st.sampled_from(points)), max_size=6))
        return _closure_system(sets, points)
    below = {(i, j) for i in points for j in points if i < j and draw(st.booleans())}
    for k, i, j in product(points, repeat=3):  # transitive closure, k outermost
        if (i, k) in below and (k, j) in below:
            below.add((i, j))
    downsets = [
        frozenset(compress(points, bits)) for bits in product((0, 1), repeat=len(points))
    ]
    downsets = [d for d in downsets if all(i in d for i, j in below if j in d)]
    ops = {"meet": lambda a, b: a & b, "join": lambda a, b: a | b}
    return PartialAlgebra.total_from_fn(LATTICE_TYPE, downsets, ops)


def closure_conc(alg):
    """Conc built by closures of every pair, as for a non-lattice: the
    reference the join-irreducible builder is checked against. It is built
    directly, since conc returns the Conc the algebra keeps."""
    with mock.patch.object(congruence, "is_lattice_algebra", return_value=False):
        return ConcSemilattice(alg)


def image_pairs(f, theta):
    """The images under f of the pairs that generate theta: each point of a
    block paired with the block's first point."""
    return [(f(next(iter(b))), f(x)) for b in theta.blocks for x in b]


@settings(max_examples=60, deadline=None)
@given(random_lattices(), st.data())
def test_lattice_conc_matches_the_closure_builder(alg, data):
    fast, slow = conc(alg), closure_conc(alg)
    assert slow is not fast
    assert fast.elements == slow.elements and fast.zero == slow.zero
    assert fast.join_rows == slow.join_rows
    assert fast.dist_rows == slow.dist_rows
    assert label_dist(pga(alg)) == label_dist(Pregamp(alg, slow.dist_rows, slow))
    assert con_lattice(alg) == sorted(slow.elements, key=Congruence._sort_key)
    points = st.sampled_from(alg.universe)
    for _ in range(3):
        pairs = data.draw(st.lists(st.tuples(points, points), max_size=4))
        assert fast.generated(pairs) == slow.generated(pairs)
    _, q = quotient_algebra(alg, data.draw(st.sampled_from(fast.elements)))
    slow_q = closure_conc(q.target)
    image = conc_morphism(q)
    assert all(image(t) == slow_q.generated(image_pairs(q, t)) for t in slow.elements)
    _assert_canonical(alg)


def generated_by_closure(cs, pairs):
    """Reference for ConcSemilattice.generated: the closure of the pairs,
    found among the elements, as the non-lattice path did before generated
    became a fold of the two matrices."""
    return cs.elements[cs.index(congruence_closure(cs.algebra, pairs))]


@st.composite
def random_products(draw):
    """Products of two simple random algebras, as in the kernels benchmark:
    not lattices, so their Con is built by closures, and small, since the
    factors are simple."""
    simple = small_unary_binary_algebras().filter(
        lambda a: len(all_congruences_bruteforce(a)) == 2
    )
    return PartialAlgebra.product([draw(simple), draw(simple)])


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_products(), random_lattices()), st.data())
def test_generated_matches_the_closure_reference(alg, data):
    cs = conc(alg)
    els = cs.elements
    assert cs.join_rows == [[cs.index(_label_join(alg, a, b)) for b in els] for a in els]
    points = st.sampled_from(alg.universe)
    for _ in range(3):
        pairs = data.draw(st.lists(st.tuples(points, points), max_size=4))
        assert cs.generated(pairs) is generated_by_closure(cs, pairs)
    _, q = quotient_algebra(alg, data.draw(st.sampled_from(cs.elements)))
    cq = conc(q.target)
    image = conc_morphism(q)
    for theta in cs.elements:
        assert image(theta) is generated_by_closure(cq, image_pairs(q, theta))


@settings(max_examples=40, deadline=None)
@given(small_unary_binary_algebras())
def test_permutability_characterizations_agree_on_random_algebras(alg):
    # is_n_permutable cross-checks the relational answer against the
    # element-wise one itself; comparing here as well keeps the check under -O
    for n in (2, 3):
        ok, _ = is_n_permutable(alg, n)
        ok_el, _ = _elementwise_n_permutable(alg, n)
        assert ok == ok_el, n


CORPUS = ("two", "chain:3", "chain:4", "M3", "N5", "X1", "X2", "L2", "L3", "L4")


@st.composite
def corpus_lattice_products(draw):
    """The factors of a product of one to three corpus lattices, chains
    included: the longest prefix of the drawn names whose product is within
    CON_BOUND and has at most 64 congruences, since the relational check
    composes every pair of them."""
    factors, size, cons = [], 1, 1
    for name in draw(st.lists(st.sampled_from(CORPUS), min_size=1, max_size=3)):
        factor = build_named(name).algebra
        size, cons = size * len(factor), cons * len(conc(factor))
        if size > CON_BOUND or cons > 64:
            break
        factors.append(factor)
    return factors


@settings(max_examples=40, deadline=None)
@given(corpus_lattice_products(), st.integers(2, 4))
def test_a_product_of_lattices_is_permutable_iff_its_factors_are(factors, n):
    # lattices are congruence-distributive, so Con of the product is the
    # product of the Cons and composites are taken coordinatewise: the rule
    # that the square's fact (c) and is_n_permutable read each product by.
    # The relational check on the product's own Con is the reference.
    alg = PartialAlgebra.product(factors)
    found = is_n_permutable(alg, n)
    relational = _relational_n_permutable(alg, n, con_lattice(alg))
    assert relational[0] == all(is_n_permutable(f, n)[0] for f in factors)
    # a product that fails keeps the relational path's witness
    assert found == relational


def test_a_permutable_power_over_the_limit_builds_no_conc(monkeypatch):
    # decided by its factor alone: neither the power's Con nor its tables
    chain4 = build_named("chain:4").algebra
    alg = PartialAlgebra.product([chain4] * 3)
    assert len(alg) ** 8 > ELEMENTWISE_LIMIT
    built = _count_calls(monkeypatch, "ConcSemilattice")
    assert is_n_permutable(alg, 4) == (True, None)
    assert [args[0] for args in built] == [chain4]
    assert "tables" not in vars(alg)


def test_factorwise_and_relational_permutability_are_cross_checked(monkeypatch):
    # chain:3 squared is not 2-permutable, and its factor says so too
    alg = PartialAlgebra.product([build_named("chain:3").algebra] * 2)
    real = congruence._relational_n_permutable

    def flipped(algebra, n, congruences):
        found = real(algebra, n, congruences)
        return (not found[0], None) if algebra is alg else found

    monkeypatch.setattr(congruence, "_relational_n_permutable", flipped)
    with pytest.raises(CrossCheckFailed, match="factorwise and relational"):
        is_n_permutable(alg, 2)


def test_the_product_rule_has_both_outcomes():
    # a chain:3 factor fails 2-permutability, and so does every product with it
    chain3, m3, l4 = (build_named(name).algebra for name in ("chain:3", "M3", "L4"))
    assert is_n_permutable(chain3, 2)[0] is False
    assert is_n_permutable(PartialAlgebra.product([m3, chain3, l4]), 2)[0] is False
    assert is_n_permutable(PartialAlgebra.product([m3, l4]), 2)[0] is True
    assert is_n_permutable(PartialAlgebra.product([m3, chain3, l4]), 3)[0] is True


@settings(max_examples=40, deadline=None)
@given(small_unary_binary_algebras())
def test_principal_congruence_matches_bruteforce_on_random_algebras(alg):
    for x in alg.universe:
        for y in alg.universe:
            assert principal_congruence(alg, x, y) == least_congruence_bruteforce(alg, x, y)
    _assert_canonical(alg)


# Non-integer labels, shuffled, so that a universe index read as a label (or
# a label as an index) cannot pass unseen.
LABELS = ("d", ("a", 1), "b", "c")


@st.composite
def small_labelled_algebras(draw):
    """Algebras of at most 4 elements on shuffled non-integer labels, with a
    constant, a unary and a ternary operation."""
    size = draw(st.integers(1, 4))
    u = draw(st.permutations(LABELS))[:size]
    # values from a prefix of the universe, as above, for proper congruences
    value = st.sampled_from(u[: draw(st.integers(1, size))])
    g = draw(st.lists(value, min_size=size, max_size=size))
    t = draw(st.lists(value, min_size=size**3, max_size=size**3))
    ops = {
        "c": {(): draw(st.sampled_from(u))},
        "g": dict(zip(product(u, repeat=1), g)),
        "t": dict(zip(product(u, repeat=3), t)),
    }
    return PartialAlgebra.from_ops(SimilarityType((("c", 0), ("g", 1), ("t", 3))), u, ops)


def _least(congruences):
    """The least of the given congruences, which must exist."""
    least = [t for t in congruences if all(con_meet(t, s) == t for s in congruences)]
    assert len(least) == 1
    return least[0]


@settings(max_examples=60, deadline=None)
@given(small_labelled_algebras(), st.data())
def test_closure_matches_bruteforce_on_labelled_algebras(alg, data):
    element = st.sampled_from(alg.universe)
    pairs = data.draw(st.lists(st.tuples(element, element), min_size=1, max_size=3))
    everything = all_congruences_bruteforce(alg)
    above = [t for t in everything if all(t.same(x, y) for x, y in pairs)]
    assert congruence_closure(alg, pairs) == _least(above)


@settings(max_examples=60, deadline=None)
@given(small_labelled_algebras())
def test_conc_joins_match_bruteforce_on_labelled_algebras(alg):
    everything = all_congruences_bruteforce(alg)
    cs = conc(alg)
    assert set(cs.elements) == set(everything)
    for a in cs.elements:
        for b in cs.elements:
            upper = [t for t in everything if con_meet(a, t) == a and con_meet(b, t) == b]
            assert cs.join(a, b) == _least(upper)


@settings(max_examples=40, deadline=None)
@given(small_labelled_algebras(), st.data())
def test_conc_is_a_functor_on_labelled_algebras(alg, data):
    c0 = conc(alg)
    identity = conc_morphism(PalgMorphism.identity(alg))
    assert all(identity(t) == t for t in c0.elements)
    # two successive quotient projections and their composite
    q1_alg, q1 = quotient_algebra(alg, data.draw(st.sampled_from(c0.elements)))
    c1 = conc(q1_alg)
    q2_alg, q2 = quotient_algebra(q1_alg, data.draw(st.sampled_from(c1.elements)))
    c2 = conc(q2_alg)
    f1, f2 = conc_morphism(q1), conc_morphism(q2)
    q = q2.after(q1)
    f = conc_morphism(q)
    assert label_map(f) == label_map(f2.after(f1))
    for x in alg.universe:
        for y in alg.universe:
            assert f(c0.principal(x, y)) == c2.principal(q(x), q(y))
            assert f1(c0.principal(x, y)) == c1.principal(q1(x), q1(y))


def brute_chain_interpolants(sem, dist, xs, first, last, middle, meets=None):
    """Reference for chain_interpolants: every candidate of
    product(middle, repeat=n-1), each checked whole, chain first."""
    n = len(xs) - 1
    steps = [dist[(xs[i], xs[i + 1])] for i in range(n)]
    even, odd = sem.join_all(steps[0::2]), sem.join_all(steps[1::2])
    bounds = [odd if k % 2 == 0 else even for k in range(n)]
    for mid in product(middle, repeat=n - 1):
        ys = (first,) + mid + (last,)
        if meets is not None and not all(
            meets.get((a, b), UNDEFINED) == a and meets.get((b, a), UNDEFINED) == a
            for i, a in enumerate(ys)
            for b in ys[i:]
        ):
            continue
        if all(sem.leq(dist[(ys[k], ys[k + 1])], bounds[k]) for k in range(n)):
            yield ys


def brute_chain_condition_failures(sem, dist, inner, outer, n, meets=None, joins=None):
    """Reference for _chain_condition_failures: every tuple of
    product(inner, repeat=n+1), searched on its own."""
    failures = []
    for xs in product(inner, repeat=n + 1):
        first, last = xs[0], xs[n]
        if meets is not None:
            m1, m2 = meets.get((first, last), UNDEFINED), meets.get((last, first), UNDEFINED)
            j1, j2 = joins.get((first, last), UNDEFINED), joins.get((last, first), UNDEFINED)
            if UNDEFINED in (m1, m2, j1, j2) or m1 != m2 or j1 != j2:
                failures.append(("endpoints undefined", xs))
                continue
            first, last = m1, j1
        if next(brute_chain_interpolants(sem, dist, xs, first, last, outer, meets), None) is None:
            failures.append(("no interpolants", xs))
    return failures


def _pregamp_over(universe, dist, sem, meets=None, joins=None):
    """A pregamp with the given distance whose carrier holds the given meet
    and join tables, undefined where a table has no cell."""
    ops = {"meet": meets or {}, "join": joins or {}}
    return Pregamp.from_dist(PartialAlgebra.from_ops(LATTICE_TYPE, universe, ops), dist, sem)


def _assert_memo_exact(alg, n, meets):
    cs = conc(alg)
    dist = label_dist(pga(alg))
    universe = alg.universe
    pg = _pregamp_over(universe, dist, cs, meets)
    for table in (None, meets):
        for xs in product(universe, repeat=n + 1):
            first, last = xs[0], xs[n]
            expected = next(brute_chain_interpolants(cs, dist, xs, first, last, universe, table), None)
            found = chain_interpolants(pg, xs, first, last, universe, chains=table is not None)
            assert next(found, None) == expected, (xs, table is None)
    failures = brute_chain_condition_failures(cs, dist, universe, universe, n)
    expected = (False, failures[0][1]) if failures else (True, None)
    assert _elementwise_n_permutable(alg, n) == expected


@settings(max_examples=40, deadline=None)
@given(small_unary_binary_algebras())
def test_first_interpolants_equal_the_search_on_random_algebras(alg):
    # the binary table stands in for a meet table: only its cells are read
    for n in (2, 3):
        _assert_memo_exact(alg, n, alg.ops["f"])


# chain:3 is not 2-permutable, so its first failing tuple is compared too
@pytest.mark.parametrize("name", ["two", "chain:3", "chain:4", "M3", "N5", "X1", "X2"])
def test_first_interpolants_equal_the_search_on_named_lattices(name, fixture_lattices):
    alg = fixture_lattices[name]
    _assert_memo_exact(alg, 2, alg.ops["meet"])


@st.composite
def partial_order_tables(draw, universe):
    """A meet or join table of a random linear order of the universe, with
    random cells left undefined and others overwritten by random values."""
    rank = {x: i for i, x in enumerate(draw(st.permutations(universe)))}
    pick = min if draw(st.booleans()) else max
    cells = list(product(universe, repeat=2))
    modes = draw(st.lists(st.sampled_from("-==?"), min_size=len(cells), max_size=len(cells)))
    junk = draw(st.lists(st.sampled_from(universe), min_size=len(cells), max_size=len(cells)))
    table = {}
    for (a, b), mode, value in zip(cells, modes, junk):
        if mode == "=":
            table[(a, b)] = pick(a, b, key=rank.__getitem__)
        elif mode == "?":
            table[(a, b)] = value
    return table


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_unary_binary_algebras(), small_labelled_algebras()), st.data())
def test_interpolant_search_matches_brute_force_on_partial_tables(alg, data):
    # the search runs on carrier indices: labels that are not indices, and a
    # middle and inner points out of universe order, catch a mix-up
    universe = alg.universe
    cs = conc(alg)
    dist = label_dist(pga(alg))
    meets = data.draw(partial_order_tables(universe))
    joins = data.draw(partial_order_tables(universe))
    pg = _pregamp_over(universe, dist, cs, meets, joins)
    middle = data.draw(st.permutations(universe))
    inner = data.draw(st.permutations(universe))[: data.draw(st.integers(1, len(universe)))]
    for n in (1, 2, 3):
        for table in (None, meets):
            for xs in product(inner, repeat=n + 1):
                for first, last in ((xs[0], xs[n]), (xs[n], xs[0])):
                    expected = list(
                        brute_chain_interpolants(cs, dist, xs, first, last, middle, table)
                    )
                    found = chain_interpolants(pg, xs, first, last, middle, table is not None)
                    assert list(found) == expected, (n, xs, first, last, table is None)
        for tables in ((), (meets, joins)):
            assert list(_chain_condition_failures(pg, inner, n, bool(tables))) == (
                brute_chain_condition_failures(cs, dist, inner, universe, n, *tables)
            ), (n, bool(tables))


def _unmemoized_witnesses(g, n, lattice_form):
    meets, joins = g.outer.ops["meet"], g.outer.ops["join"]
    outer, dist = list(g.outer.universe), label_dist(g.pregamp)
    witnesses = {}
    for xs in product(g.inner.universe, repeat=n + 1):
        if lattice_form:
            first, last, table = meets[(xs[0], xs[n])], joins[(xs[0], xs[n])], meets
        else:
            first, last, table = xs[0], xs[n], None
        witnesses[xs] = next(
            brute_chain_interpolants(g.sem, dist, xs, first, last, outer, table), None
        )
    return witnesses


@pytest.mark.parametrize("name", ["two", "chain:3", "M3", "N5", "X1", "X2"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("which", ["n_permutable", "lattice_n_permutable"])
def test_n_permutable_witnesses_unchanged(which, name, n, fixture_lattices):
    g = ga(fixture_lattices[name])
    v = check_property(g, which, n)
    expected = _unmemoized_witnesses(g, n, which == "lattice_n_permutable")
    failing = [xs for xs, ys in expected.items() if ys is None]
    if failing:
        assert v.status == "false" and v.witness == ("no interpolants", failing[0])
    else:
        assert v.status == "true" and v.witness is None


@st.composite
def random_distance_pregamps(draw):
    """Pregamps of 1 to 5 points on non-integer labels whose distance table
    is drawn at random into the subsets of range(k) under union, elements
    shuffled: no axiom need hold, as the chain search reads any table."""
    k = draw(st.integers(1, 3))
    subsets = [frozenset(c) for r in range(k + 1) for c in combinations(range(k), r)]
    joins = {(a, b): a | b for a in subsets for b in subsets}
    sem = JoinSemilattice.from_table(draw(st.permutations(subsets)), frozenset(), joins)
    universe = draw(st.permutations(LABELS + ("e",)))[: draw(st.integers(1, 5))]
    value = st.sampled_from(subsets)
    return _pregamp_over(universe, {(x, y): draw(value) for x in universe for y in universe}, sem)


def walk_verdict(pg, inner, n):
    """Reference for _chain_verdict: every (n+1)-tuple of the inner indices
    in turn, its state (x0, even, odd) from _parity_joins, and the reached
    points of each state found one by one with the tuple walk's search."""
    D, J = pg.dist_rows, pg.sem.join_rows
    zero = pg.sem.index(pg.sem.zero)
    middle = range(len(D))
    verdict = {}
    for xs in product(inner, repeat=n + 1):
        even, odd = _parity_joins(D, J, xs, zero)
        state = (xs[0], even, odd)
        if state not in verdict:
            searches = (_interpolants(D, J, None, n, xs[0], y, even, odd, middle) for y in middle)
            reached = sum(1 << y for y, found in enumerate(searches) if next(found, None))
            verdict[state] = [0, reached]
        verdict[state][0] |= 1 << xs[n]
    return {state: tuple(masks) for state, masks in verdict.items()}


@settings(max_examples=300, deadline=None)
@given(st.one_of(coded_pregamps(), random_distance_pregamps()), st.data())
def test_chain_verdict_matches_the_tuple_walk(pregamp, data):
    # the forward pass and the reachability per final state against the
    # tuple walk; then the failures, whose walk reads the verdict, against
    # the label reference
    pg = pregamp[0] if isinstance(pregamp, tuple) else pregamp
    universe = pg.carrier.universe
    index = pg.carrier.point
    size = data.draw(st.integers(1, min(4, len(universe))))
    inner = data.draw(st.permutations(universe))[:size]
    for n in range(1, 5 if len(universe) <= 5 else 4):
        indices = [index[x] for x in inner]
        zero = pg.sem.index(pg.sem.zero)
        forward, reached = _chain_verdict(pg.dist_rows, pg.sem.join_rows, n, indices, zero)
        verdict = {
            (x0, *key): (ends, reached(x0, *key))
            for x0 in indices
            for key, ends in forward(x0).items()
        }
        assert verdict == walk_verdict(pg, indices, n), n
        assert list(_chain_condition_failures(pg, inner, n)) == (
            brute_chain_condition_failures(pg.sem, label_dist(pg), inner, universe, n)
        ), n


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(small_unary_binary_algebras(), small_labelled_algebras(), random_products()),
    st.data(),
)
def test_relational_check_matches_the_composite_loop(alg, data):
    # the witness pair is compared too, in Con's order and in a shuffled one
    congruences = con_lattice(alg)
    shuffled = data.draw(st.permutations(congruences))
    for n in (2, 3, 4):
        for congs in (congruences, shuffled):
            found = _relational_n_permutable(alg, n, congs)
            assert found == brute_relational_n_permutable(alg, n, congs), n


@st.composite
def unrestricted_algebras(draw):
    """Total algebras of 1 to 8 elements with a binary, a unary and a
    constant operation, their tables drawn over the whole universe or over
    a prefix of it."""
    size = draw(st.integers(1, 8))
    u = list(range(size))
    value = st.integers(0, draw(st.sampled_from([size - 1, draw(st.integers(0, size - 1))])))
    f = draw(st.lists(value, min_size=size * size, max_size=size * size))
    g = draw(st.lists(value, min_size=size, max_size=size))
    ops = {
        "f": {(a, b): f[a * size + b] for a in u for b in u},
        "g": {(a,): g[a] for a in u},
        "c": {(): draw(value)},
    }
    return PartialAlgebra.from_ops(SimilarityType((("f", 2), ("g", 1), ("c", 0))), u, ops)


@settings(max_examples=400, deadline=None)
@given(unrestricted_algebras())
def test_reused_closures_match_per_pair_closures(alg):
    # each pair closed on its own, with nothing known, in the builder's order
    u = alg.universe
    closed = [[_closure_labels(alg, [(x, y)]) for y in u] for x in u]
    found, pairs = _principal_labels(alg)
    assert [[found[k] for k in row] for row in pairs] == closed
    first_seen = [closed[i][j] for i in range(len(u)) for j in range(i + 1, len(u))]
    assert found == list(dict.fromkeys([tuple(range(len(u))), *first_seen]))


def test_a_known_pair_merges_its_whole_congruence(chain3):
    # what is known about a pair is taken as it stands: here a congruence
    # larger than Theta(0, 1), which the closure then returns
    assert _closure_labels(chain3, [(0, 1)]) == (0, 0, 2)
    assert _closure_labels(chain3, [(0, 1)], {(0, 1): (0, 0, 0)}) == (0, 0, 0)
    assert _closure_labels(chain3, [(1, 0)], {(0, 1): (0, 0, 0)}) == (0, 0, 0)
    assert _closure_labels(chain3, [(1, 2)], {(0, 1): (0, 0, 0)}) == (0, 1, 1)


def all_translation_rows(alg):
    """Reference for PartialAlgebra.translation_rows: the images of each
    element under every distinct one-step unary translation, read off the
    tables."""
    universe, ops = alg.universe, alg.ops
    index = {x: i for i, x in enumerate(universe)}
    columns = dict.fromkeys(
        tuple(index[ops[name][ps[:pos] + (u,) + ps[pos:]]] for u in universe)
        for name, ar in alg.stype.symbols
        for pos in range(ar)
        for ps in product(universe, repeat=ar - 1)
    )
    return list(zip(*columns)) or [()] * len(universe)


def _relabelled(alg, labels):
    """The lattice alg with its universe renamed to the given labels, in
    turn, and listed in sorted label order: with shuffled labels, universe
    indices are neither labels nor the lattice's own order."""
    name = dict(zip(alg.universe, labels))
    ops = {
        op: {tuple(map(name.get, args)): name[v] for args, v in table.items()}
        for op, table in alg.ops.items()
    }
    return PartialAlgebra.from_ops(alg.stype, sorted(labels), ops)


@st.composite
def relabelled_lattices(draw):
    """Random lattices on shuffled non-integer labels, alone or as both
    factors of a recorded product."""
    def one():
        alg = draw(random_lattices().filter(lambda a: a.factors is None))
        labels = [f"e{k}" for k in draw(st.permutations(range(len(alg))))]
        return _relabelled(alg, labels)

    return PartialAlgebra.product([one(), one()]) if draw(st.booleans()) else one()


NAMED_PRODUCTS = ("power:M3:2", "power:X1:2", "power:N5:2", "power:two:3", "power:M3:3")


@settings(max_examples=60, deadline=None)
@given(st.one_of(relabelled_lattices(), st.sampled_from(NAMED_PRODUCTS)), st.data())
def test_irreducible_translations_close_like_all_translations(alg, data):
    # the rows from J(L) and M(L), or lifted from a product's factors,
    # against every one-step translation and the brute-force least congruence
    if isinstance(alg, str):
        alg = build_named(alg).algebra
    reference = PartialAlgebra(alg.stype, alg.universe, alg.tables)
    vars(reference)["translation_rows"] = all_translation_rows(reference)
    assert len(alg.translation_rows[0]) <= len(reference.translation_rows[0])
    points = st.sampled_from(alg.universe)
    for _ in range(3):
        pairs = data.draw(st.lists(st.tuples(points, points), min_size=1, max_size=2))
        labels = _closure_labels(alg, pairs)
        assert labels == _closure_labels(reference, pairs), pairs
        if len(alg) <= 7 and len(pairs) == 1:
            assert _from_labels(alg.universe, labels) == least_congruence_bruteforce(alg, *pairs[0])


def test_m3_cubed_closes_through_eighteen_maps():
    # three atoms and three coatoms per factor, lifted to each coordinate
    alg = build_named("power:M3:3").algebra
    assert len(alg.translation_rows[0]) == 18


def test_principal_congruence_on_a_power_builds_no_tables():
    # the lifted rows read the factors only, which keeps peak memory down
    alg = build_named("power:M3:3").algebra
    u = alg.universe
    for y in u[1:5]:
        principal_congruence(alg, u[0], y)
    assert "tables" not in vars(alg)


@pytest.mark.parametrize("name", CORPUS)
def test_upward_paths_match_the_interpolant_search(name):
    # every key (first, last, even, odd) of the lattice's own pregamp
    alg = build_named(name).algebra
    pg = pga(alg)
    D, J, M = pg.dist_rows, pg.sem.join_rows, alg.tables["meet"]
    points, sem = range(len(alg)), range(len(pg.sem))
    for n in (1, 2, 3):
        has = _upward_paths(D, J, M, n)
        for first, last, even, odd in product(points, points, sem, sem):
            search = _interpolants(D, J, M, n, first, last, even, odd, points)
            expected = next(search, None) is not None
            assert bool(has(first, last, even, odd)) == expected, (n, first, last, even, odd)


def _label_join(alg, a, b):
    """The join of two congruences by a closure of their pairs."""
    pairs = [(x, y) for theta in (a, b) for blk in theta.blocks for x in blk for y in blk]
    return congruence_closure(alg, pairs)


@pytest.mark.parametrize("name", ["two", "chain:4", "M3", "N5", "X1", "power:M3:2", "X1 reduct"])
def test_conc_answers_from_join_rows(name):
    # join, leq and join_all against closures of the labels' pairs; the
    # join_rows are the only join table
    if name == "X1 reduct":
        alg = _join_reduct(build_named("X1").algebra)
    else:
        alg = build_named(name).algebra
    cs = conc(alg)
    els = cs.elements
    for a in els:
        for b in els:
            joined = cs.join(a, b)
            assert joined is els[cs.index(_label_join(alg, a, b))]
            assert cs.leq(a, b) == all(b.same(x, y) for blk in a.blocks for x in blk for y in blk)
            assert cs.join_all([a, b, a]) is joined and cs.join_all([]) is cs.zero
    sems = (cs, quotient(cs, SemIdeal.zero(cs))[0], cs.sub([cs.zero]), JoinSemilattice.chain(2))
    assert not any(hasattr(s, "_join") for s in sems)
    assert cs == conc(alg) and cs != JoinSemilattice.chain(len(els))


class TestMalcev:
    def test_equal_endpoints(self, chain3):
        w = malcev_witness(chain3, 1, 1, (0,), (1,))
        assert isinstance(w, MalcevWitness) and w.n == 1
        assert w.validate(chain3, 1, 1, (0,), (1,))

    def test_chain_through_middle(self, chain3):
        w = malcev_witness(chain3, 0, 2, (0, 1), (1, 2))
        assert isinstance(w, MalcevWitness)
        assert w.validate(chain3, 0, 2, (0, 1), (1, 2))

    def test_no_containment(self, chain3):
        res = malcev_witness(chain3, 0, 2, (0,), (1,))
        assert isinstance(res, NoContainment)

    def test_m3_simple_witness(self, m3):
        w = malcev_witness(m3, "0", "1", ("0",), ("x1",))
        assert isinstance(w, MalcevWitness)
        assert w.validate(m3, "0", "1", ("0",), ("x1",))

    def test_unknown_at_tiny_bound(self, m3):
        res = malcev_witness(m3, "x2", "x3", ("0",), ("x1",), depth_bound=0)
        assert isinstance(res, (UnknownAtBound, MalcevWitness))
        if isinstance(res, MalcevWitness):
            assert res.validate(m3, "x2", "x3", ("0",), ("x1",))

    @pytest.mark.parametrize("bounds", [{"depth_bound": -1}, {"param_bound": -1}])
    def test_negative_bound_is_refused(self, m3, bounds):
        with pytest.raises(ValueError, match="at least 0"):
            malcev_witness(m3, "x1", "0", ("x2",), ("0",), **bounds)
        # a bound of 0 is a valid, if tight, search
        bounds = {key: 0 for key in bounds}
        res = malcev_witness(m3, "x1", "0", ("x2",), ("0",), **bounds)
        assert isinstance(res, (UnknownAtBound, MalcevWitness))

    def test_randomized_soundness(self, fixture_lattices):
        rng = random.Random(7)
        names = sorted(fixture_lattices)
        for _ in range(150):
            alg = fixture_lattices[rng.choice(names)]
            els = list(alg.universe)
            x, y = rng.choice(els), rng.choice(els)
            m = rng.randint(1, 2)
            xs = tuple(rng.choice(els) for _ in range(m))
            ys = tuple(rng.choice(els) for _ in range(m))
            res = malcev_witness(alg, x, y, xs, ys)
            theta = principal_congruence(alg, x, y) if x != y else None
            if isinstance(res, MalcevWitness):
                assert res.validate(alg, x, y, xs, ys)
            elif isinstance(res, NoContainment):
                assert not congruence_closure(alg, list(zip(xs, ys))).same(x, y)


class TestCrossChecks:
    def test_cross_check_failure_is_an_internal_error(self, m3, monkeypatch, tmp_path):
        assert not issubclass(CrossCheckFailed, (GampkitError, ValueError))
        real = congruence._elementwise_n_permutable
        monkeypatch.setattr(
            congruence, "_elementwise_n_permutable",
            lambda alg, n: (not real(alg, n)[0], None),
        )
        with pytest.raises(CrossCheckFailed):
            is_n_permutable(m3, 2)
        path = tmp_path / "m3.json"
        path.write_text('{"named": "M3"}')
        assert run(["permutable", str(path)]) == 4

    def test_cross_check_survives_optimize(self):
        code = textwrap.dedent(
            """
            import sys
            from gampkit import build_named, congruence
            from gampkit.errors import CrossCheckFailed

            real = congruence._elementwise_n_permutable
            congruence._elementwise_n_permutable = (
                lambda alg, n: (not real(alg, n)[0], None)
            )
            try:
                congruence.is_n_permutable(build_named("M3").algebra, 2)
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

    def test_product_cross_checks_survive_optimize(self):
        # on a product of lattices within ELEMENTWISE_LIMIT the element-wise
        # and the factorwise verdicts are both checked against the relational one
        code = textwrap.dedent(
            """
            import sys
            from gampkit import build_named, congruence
            from gampkit.errors import CrossCheckFailed
            from gampkit.palg import PartialAlgebra

            chain3 = build_named("chain:3").algebra
            product = PartialAlgebra.product([chain3, chain3])
            real = {name: getattr(congruence, name) for name in (
                "_elementwise_n_permutable", "_relational_n_permutable")}
            for name, f in real.items():
                def flipped(alg, n, *args, f=f):
                    found = f(alg, n, *args)
                    return (not found[0], None) if alg is product else found
                setattr(congruence, name, flipped)
                try:
                    congruence.is_n_permutable(product, 2)
                except CrossCheckFailed as e:
                    print(sys.flags.optimize, str(e).split()[0])
                setattr(congruence, name, f)
            """
        )
        src = os.path.dirname(os.path.dirname(gampkit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.split() == ["1", "n-permutability", "1", "factorwise"]


def assert_conc_order_from_point_keys(alg):
    """Conc's element order and every element's sort key, set from keys
    computed once per point, equal what Congruence._sort_key computes from
    the blocks on a fresh object, and the order it sorts by."""
    cs = conc(alg)
    keys = [Congruence(t.blocks)._sort_key() for t in cs.elements]
    assert [t._key for t in cs.elements] == keys
    n = len(alg.universe)
    ranked = sorted(range(len(keys)), key=lambda k: (n - len(cs.elements[k].blocks), keys[k]))
    assert ranked == list(range(len(keys)))


@pytest.mark.parametrize(
    "name", ["two", "chain:3", "chain:4", "chain:5", "M3", "N5", "X1", "X2", "power:M3:2", "power:X1:3"]
)
def test_conc_order_from_point_keys(name):
    assert_conc_order_from_point_keys(build_named(name).algebra)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_labelled_algebras(), small_unary_binary_algebras()))
def test_conc_order_from_point_keys_on_random_algebras(alg):
    assert_conc_order_from_point_keys(alg)
