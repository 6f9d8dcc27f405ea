import random
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gampkit import build_named, pregamp
from gampkit.congruence import conc, principal_congruence
from gampkit.errors import CrossCheckFailed, IdealNotMapped, TooManyIdeals
from gampkit.palg import (
    LATTICE_IDENTITIES,
    LATTICE_TYPE,
    MODULAR_LAW,
    PalgMorphism,
    PartialAlgebra,
    SimilarityType,
    Term,
    first_counterexamples,
)
from gampkit.pregamp import (
    Pregamp,
    PregampMorphism,
    _quotient_carrier,
    canonical_embedding,
    chain_connectivity,
    check_axioms,
    is_congruence_tractable_morphism,
    is_distance_generated,
    is_ideal_induced_pg,
    is_pregamp_of,
    induced_pregamp_morphism,
    pga,
    pga_mor,
    pregamp_isomorphisms,
    pregamp_satisfies_identity,
    quotient_pregamp,
    sub_pregamp,
    tractability_verdict,
)
from gampkit.semilattice import JoinSemilattice, SemIdeal, SemMorphism, enumerate_ideals, quotient
from gampkit.util import Verdict
from conftest import label_dist, label_map, unvalidated
from test_palg import (
    CGFH_TYPE, LABEL_STYLES, brute_satisfies_identity, cgfh_algebras, identity_lists,
    labelled_algebras, rebuilt, style_labels,
)
from test_semilattice import (
    assert_descent_matches_reference,
    assert_quotient_matches_reference,
    brute_generated,
    induced_by_ideals,
    renamed,
    reordered,
)


V = Term.v


def theta_pregamp(algebra):
    return pga(algebra)


def commutativity_gap_fixture():
    """Pregamp satisfying meet-commutativity that loses it in a quotient.

    One binary operation defined on (a, b) and (c, a) only; collapsing b and
    c creates both orders with different values.
    """
    stype = SimilarityType((("meet", 2),))
    alg = PartialAlgebra.from_ops(
        stype, ["a", "b", "c"], {"meet": {("a", "b"): "b", ("c", "a"): "a"}}
    )
    sem = JoinSemilattice.chain(3)
    dist = {}
    for x in alg.universe:
        for y in alg.universe:
            if x == y:
                dist[(x, y)] = 0
            elif {x, y} == {"b", "c"}:
                dist[(x, y)] = 1
            else:
                dist[(x, y)] = 2
    return Pregamp.from_dist(alg, dist, sem)


def brute_check_axioms(pg):
    """Reference for check_axioms: the four axioms on labels, through the
    semilattice's join_all and leq, in the same order."""
    A, S, d = pg.carrier, pg.sem, label_dist(pg)
    for x in A.universe:
        for y in A.universe:
            if (d[(x, y)] == S.zero) != (x == y):
                return False, ("separation", (x, y))
            if d[(x, y)] != d[(y, x)]:
                return False, ("symmetry", (x, y))
    for x in A.universe:
        for y in A.universe:
            for z in A.universe:
                if not S.leq(d[(x, y)], S.join(d[(x, z)], d[(z, y)])):
                    return False, ("triangle", (x, y, z))
    for name, table in A.ops.items():
        tuples = sorted(table.keys(), key=repr)
        for args1 in tuples:
            for args2 in tuples:
                bound = S.join_all(d[(a, b)] for a, b in zip(args1, args2))
                if not S.leq(d[(table[args1], table[args2])], bound):
                    return False, ("compatibility", (name, args1, args2))
    return True, None


CGF_TYPE = SimilarityType((("c", 0), ("g", 1), ("f", 2)))
AXIOMS = ("separation", "symmetry", "triangle", "compatibility")


@st.composite
def coded_pregamps(draw, axioms=(None, *AXIOMS)):
    """(pregamp, planted axiom or None). The points are the codes of a
    product of k factors of 2 or 3 letters, in shuffled order; the distance
    of two codes is the set of coordinates where they differ, in the
    semilattice of subsets of range(k) under union (elements shuffled).
    Every operation acts coordinatewise by random factor tables, so all four
    axioms hold; cells may be dropped to make the carrier partial, and then
    one violation of the axiom drawn from `axioms` is planted."""
    rnd = draw(st.randoms(use_true_random=False))
    k = draw(st.sampled_from([2, 3]))
    factors = ["abc"[: draw(st.integers(2, 3 if k == 2 else 2))] for _ in range(k)]
    codes = draw(st.permutations(list(product(*factors))))
    subsets = [frozenset(c) for r in range(k + 1) for c in combinations(range(k), r)]
    joins = {(a, b): a | b for a in subsets for b in subsets}
    sem = JoinSemilattice.from_table(draw(st.permutations(subsets)), frozenset(), joins)
    dist = {(x, y): frozenset(s for s in range(k) if x[s] != y[s]) for x in codes for y in codes}
    keep = 1.0 if draw(st.booleans()) else rnd.random()
    ops = {}
    for name, ar in CGF_TYPE.symbols:
        fs = [{args: rnd.choice(f) for args in product(f, repeat=ar)} for f in factors]
        ops[name] = {
            args: tuple(fs[s][tuple(a[s] for a in args)] for s in range(k))
            for args in product(codes, repeat=ar)
            if rnd.random() < keep
        }
    axiom = draw(st.sampled_from(axioms))
    x, y, z = rnd.sample(codes, 3)
    one, two = frozenset({0}), frozenset({1})
    if axiom == "separation":
        w = rnd.choice([x, y])
        dist[(x, w)] = dist[(w, x)] = rnd.choice(subsets[1:]) if w == x else frozenset()
    elif axiom == "symmetry":
        dist[(x, y)] = rnd.choice([e for e in subsets[1:] if e != dist[(y, x)]])
    elif axiom == "triangle":
        for pair in ((x, z), (z, y)):
            dist[pair] = dist[pair[::-1]] = one
        dist[(x, y)] = dist[(y, x)] = two
    elif axiom == "compatibility":
        # g(x) = x and g(x') = y', x' and y' x with coordinate 0 and 1 changed
        x0 = (rnd.choice([c for c in factors[0] if c != x[0]]),) + x[1:]
        y1 = x[:1] + (rnd.choice([c for c in factors[1] if c != x[1]]),) + x[2:]
        ops["g"] = {(x,): x, (x0,): y1}
    return Pregamp.from_dist(PartialAlgebra.from_ops(CGF_TYPE, codes, ops), dist, sem), axiom


@st.composite
def labelled_lattices(draw):
    """Lattices of random closure systems on three points (meet is
    intersection, join the least member above the union), on shuffled
    non-integer labels and listed in label order, so that universe indices
    are neither labels nor the lattice's order."""
    points = range(3)
    family = {frozenset(points)}
    for s in draw(st.lists(st.frozensets(st.sampled_from(points)), max_size=5)):
        family |= {s & t for t in family} | {s}
    name = dict(zip(family, (f"e{k}" for k in draw(st.permutations(range(len(family)))))))

    def join(a, b):
        return name[min((c for c in family if a | b <= c), key=len)]

    ops = {
        "meet": {(name[a], name[b]): name[a & b] for a in family for b in family},
        "join": {(name[a], name[b]): join(a, b) for a in family for b in family},
    }
    return PartialAlgebra.from_ops(LATTICE_TYPE, sorted(name.values()), ops)


# factor lists whose product has at most 12 elements, for the label loop
SMALL_PRODUCTS = (
    ("two", "two"), ("two", "chain:3"), ("chain:3", "chain:3"), ("two", "M3"),
    ("N5", "two"), ("two", "two", "two"), ("two", "chain:3", "two"),
)


@st.composite
def total_pregamps(draw):
    """(pregamp on a total carrier, carrier kind, distance source). The
    carrier is a labelled lattice, a recorded product of named lattices
    (rebuilt from its factors after pga, so its tables are not built), or a
    total algebra of CGFH_TYPE (nullary, unary, binary and ternary
    operations). The distance is pga's; pga's with two points swapped,
    which plants a compatibility violation unless the swap is an
    automorphism; or random and symmetric, zero exactly on the diagonal."""
    kind = draw(st.sampled_from(["lattice", "product", "other"]))
    if kind == "lattice":
        A = draw(labelled_lattices())
    elif kind == "product":
        A = PartialAlgebra.product([build_named(f).algebra for f in draw(st.sampled_from(SMALL_PRODUCTS))])
    else:
        A = draw(cgfh_algebras(sizes=(1, 2, 3, 4), holes=0))
    pg, u = pga(A), A.universe
    source = draw(st.sampled_from(["pga", "planted", "random"]))
    dist = label_dist(pg)
    if source == "planted" and len(u) > 1:
        x, y = draw(st.permutations(u))[:2]
        swap = {x: y, y: x}
        dist = {(a, b): pg.delta(swap.get(a, a), swap.get(b, b)) for a in u for b in u}
    elif source == "random":
        nonzero = [e for e in pg.sem.elements if e != pg.sem.zero]
        for i, a in enumerate(u):
            for b in u[i + 1 :]:
                dist[(a, b)] = dist[(b, a)] = draw(st.sampled_from(nonzero))
    carrier = PartialAlgebra.product(A.factors) if kind == "product" else A
    return Pregamp.from_dist(carrier, dist, pg.sem), kind, source


class TestDistanceRows:
    @pytest.mark.parametrize("name", ["chain:3", "M3", "X1", "power:N5:2"])
    def test_equality_ignores_point_and_element_order(self, name):
        pg = pga(build_named(name).algebra)
        A, S = pg.carrier, pg.sem
        carrier = PartialAlgebra.from_ops(A.stype, A.universe[::-1], A.ops)
        joins = {(a, b): S.join(a, b) for a in S.elements for b in S.elements}
        sem = JoinSemilattice.from_table(S.elements[::-1], S.zero, joins)
        dist = label_dist(pg)
        assert Pregamp.from_dist(carrier, dist, sem) == pg == Pregamp.from_dist(carrier, dist, sem)
        x, y = A.universe[:2]
        dist[(x, y)] = dist[(y, x)] = next(e for e in S.elements if e != dist[(x, y)])
        assert Pregamp.from_dist(carrier, dist, sem) != pg != Pregamp.from_dist(carrier, dist, sem)

    def test_constructor_checks_shape_and_range(self, chain3):
        sem = JoinSemilattice.chain(2)
        rows = [[int(x != y) for y in range(3)] for x in range(3)]
        assert Pregamp(chain3, rows, sem).delta(0, 2) == 1
        for bad in (rows[:2], [*rows[:2], [1, 0]], [*rows[:2], [1, 1, 2]], [*rows[:2], [1, 1, -1]]):
            with pytest.raises(ValueError):
                Pregamp(chain3, bad, sem)
        with pytest.raises(ValueError, match="not total"):
            Pregamp.from_dist(chain3, {(0, 0): 0}, sem)
        with pytest.raises(ValueError, match="not in semilattice"):
            Pregamp.from_dist(chain3, {(x, y): 2 for x in range(3) for y in range(3)}, sem)


class TestAxioms:
    @settings(max_examples=200, deadline=None)
    @given(total_pregamps())
    def test_total_carriers_match_the_label_loop(self, case):
        pg, kind, source = case
        verdict = check_axioms(pg)
        if verdict[0] or verdict[1][0] != "compatibility":
            # decided by the translation maps: a product's are its factors'
            assert "tables" not in vars(pg.carrier) or kind != "product"
        assert verdict == brute_check_axioms(pg)
        assert verdict == (True, None) or source != "pga"

    @pytest.mark.parametrize("name", ["chain:3", "M3", "N5", "power:M3:2"])
    def test_passing_total_carriers_run_no_pair_loop(self, name):
        pg = pga(build_named(name).algebra)
        with mock.patch.object(pregamp, "_first_incompatible_cells", side_effect=AssertionError):
            assert check_axioms(pg) == (True, None)

    def test_expanding_translation_reports_the_pair_loop_violation(self, chain3):
        # distances of 0 and 1 swapped: x -> x join 1 sends (0, 2) at the
        # distance Theta(1, 2) to (1, 2) at the distance Theta(0, 2)
        pg = pga(chain3)
        swap = {0: 1, 1: 0, 2: 2}
        u = chain3.universe
        dist = {(a, b): pg.delta(swap[a], swap[b]) for a in u for b in u}
        swapped = Pregamp.from_dist(chain3, dist, pg.sem)
        verdict = check_axioms(swapped)
        assert verdict == brute_check_axioms(swapped)
        assert verdict[1][0] == "compatibility"
        with mock.patch.object(pregamp, "_first_incompatible_cells", return_value=None):
            with pytest.raises(CrossCheckFailed, match="expanding translation"):
                check_axioms(swapped)

    @settings(max_examples=200, deadline=None)
    @given(coded_pregamps())
    def test_indices_match_the_label_loop(self, planted):
        pg, axiom = planted
        verdict = check_axioms(pg)
        assert verdict == brute_check_axioms(pg)
        assert verdict[0] == (axiom is None)
        assert axiom is None or verdict[1][0] == axiom

    def test_corpus_pregamps_match_the_label_loop(self, fixture_lattices):
        pgs = [commutativity_gap_fixture()]
        for alg in fixture_lattices.values():
            pg = pga(alg)
            pgs += [quotient_pregamp(pg, ideal)[0] for ideal in enumerate_ideals(pg.sem)]
        for pg in pgs:
            assert check_axioms(pg) == brute_check_axioms(pg) == (True, None)

    def test_pga_passes_and_generates(self, m3):
        pg = theta_pregamp(m3)
        ok, _ = check_axioms(pg)
        assert ok
        assert is_distance_generated(pg)

    def test_constant_zero_violates_separation(self):
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, [0, 1], {})
        sem = JoinSemilattice.chain(2)
        pg = Pregamp.from_dist(alg, {(x, y): 0 for x in (0, 1) for y in (0, 1)}, sem)
        ok, viol = check_axioms(pg)
        assert not ok and viol[0] == "separation"

    def test_theta_distance_on_chain(self, chain3):
        pg = theta_pregamp(chain3)
        ok, _ = check_axioms(pg)
        assert ok
        assert len(pg.sem) == 4


def brute_quotient_pregamp(pg, ideal):
    """Reference for quotient_pregamp: the label loop over delta, with the
    tables pushed forward by hand. Returns the universe, the tables, the
    distances and the carrier projection."""
    _, sproj = quotient(pg.sem, ideal)
    A = pg.carrier
    rep = {x: next(y for y in A.universe if pg.delta(y, x) in ideal) for x in A.universe}
    universe = [x for x in A.universe if rep[x] == x]
    ops = {
        name: {tuple(rep[a] for a in args): rep[val] for args, val in table.items()}
        for name, table in A.ops.items()
    }
    dist = {(x, y): sproj(pg.delta(x, y)) for x in universe for y in universe}
    return universe, ops, dist, rep


def assert_quotients_match_references(pg):
    """Every ideal quotient of pg against the label references, dict orders
    included, the semilattice part and the ideal's generation too."""
    for ideal in enumerate_ideals(pg.sem):
        assert brute_generated(pg.sem, ideal.carrier) == ideal.carrier
        assert_quotient_matches_reference(pg.sem, ideal)
        q, proj = quotient_pregamp(pg, ideal)
        universe, ops, dist, rep = brute_quotient_pregamp(pg, ideal)
        assert list(q.carrier.universe) == universe
        assert [(n, list(t.items())) for n, t in q.carrier.ops.items()] == [
            (n, list(t.items())) for n, t in ops.items()
        ]
        assert list(label_dist(q).items()) == list(dist.items())
        assert list(label_map(proj.f).items()) == list(rep.items())


class TestQuotientReferences:
    @settings(max_examples=60, deadline=None)
    @given(coded_pregamps(axioms=[None]))
    def test_coded_quotients_match_the_label_loop(self, planted):
        assert_quotients_match_references(planted[0])

    def test_corpus_quotients_match_the_label_loop(self, fixture_lattices):
        for alg in fixture_lattices.values():
            assert_quotients_match_references(pga(alg))


class TestPGA:
    def test_two(self, fixture_lattices):
        pg = pga(fixture_lattices["two"])
        assert len(pg.carrier) == 2 and len(pg.sem) == 2

    def test_functoriality_on_composites(self, chain3, m3):
        f = PalgMorphism.from_map(chain3, m3, {0: "0", 1: "x3", 2: "1"})
        g = PalgMorphism.identity(m3)
        pf, pgm = pga_mor(f), pga_mor(g)
        comp = pgm.after(pf)
        direct = pga_mor(g.after(f), source_pg=pf.source, target_pg=pgm.target)
        assert comp == direct

    def test_cpg_of_pga_is_conc(self, x1):
        pg = pga(x1)
        assert pg.sem == conc(x1)
        # pga keeps Conc's own matrix, given or built
        assert pg.dist_rows is pg.sem.dist_rows and pga(x1, pg.sem).dist_rows is pg.sem.dist_rows


class TestQuotient:
    def test_trivial_ideal(self, m3):
        pg = theta_pregamp(m3)
        q, proj = quotient_pregamp(pg, SemIdeal.zero(pg.sem))
        assert len(q.carrier) == len(pg.carrier)
        assert is_ideal_induced_pg(proj)

    def test_full_ideal_collapses(self, m3):
        pg = theta_pregamp(m3)
        q, _ = quotient_pregamp(pg, SemIdeal(pg.sem, set(pg.sem.elements)))
        assert len(q.carrier) == 1

    def test_pga_quotient_matches_quotient_lattice(self, x1):
        # quotient of the principal-congruence pregamp by the ideal below a
        # congruence matches the pregamp of the quotient lattice
        from gampkit.congruence import quotient_algebra

        pg = theta_pregamp(x1)
        theta = principal_congruence(x1, "x3", "1")
        ideal = SemIdeal.generated(pg.sem, {theta})
        q, _ = quotient_pregamp(pg, ideal)
        qalg, _ = quotient_algebra(x1, theta)
        other = theta_pregamp(qalg)
        assert next(pregamp_isomorphisms(q, other), None) is not None

    def test_quotient_preserves_generation(self, x1):
        pg = theta_pregamp(x1)
        for ideal in enumerate_ideals(pg.sem):
            q, proj = quotient_pregamp(pg, ideal)
            ok, _ = check_axioms(q)
            assert ok
            assert is_distance_generated(q)
            from gampkit.semilattice import ker0

            assert ker0(proj.fsem) == ideal

    def test_quotient_of_quotient_is_quotient(self, x1):
        pg = theta_pregamp(x1)
        for ideal in enumerate_ideals(pg.sem)[:4]:
            q, proj = quotient_pregamp(pg, ideal)
            for ideal2 in enumerate_ideals(q.sem)[:3]:
                q2, proj2 = quotient_pregamp(q, ideal2)
                composite = proj2.after(proj)
                assert is_ideal_induced_pg(composite)
                from gampkit.pregamp import ker0_pg

                q3, _ = quotient_pregamp(pg, ker0_pg(composite))
                assert next(pregamp_isomorphisms(q2, q3), None) is not None


def reference_sub_pregamp(pg, subalgebra, subsem=None):
    """Reference for sub_pregamp: the restricted distance as a label table,
    read pair by pair through delta and converted by Pregamp.from_dist."""
    universe = subalgebra.universe
    dist = {(x, y): pg.delta(x, y) for x in universe for y in universe}
    if subsem is None:
        subsem = pg.sem.sub(pg.sem.join_closure(set(dist.values())))
    elif not set(dist.values()) <= set(subsem.elements):
        raise ValueError("subsemilattice misses restricted distances")
    return Pregamp.from_dist(subalgebra, dist, subsem)


@pytest.fixture(scope="module")
def m3_cubed():
    return pga(build_named("power:M3:3").algebra)


class TestSubPregamps:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_the_label_round_trip_on_m3_cubed(self, m3_cubed, seed):
        pg, A = m3_cubed, m3_cubed.carrier
        inner = A.restrict_full(random.Random(seed).sample(A.universe, 30))
        for sub in (A, inner):
            for subsem in (None, pg.sem):
                assert sub_pregamp(pg, sub, subsem) == reference_sub_pregamp(pg, sub, subsem)

    @settings(max_examples=40, deadline=None)
    @given(coded_pregamps(axioms=(None,)), st.data())
    def test_rows_match_the_label_round_trip_on_partial_parts(self, case, data):
        pg = case[0]
        points = data.draw(st.lists(st.sampled_from(pg.carrier.universe), min_size=1, unique=True))
        sub = pg.carrier.restrict_full(points)
        assert sub_pregamp(pg, sub) == reference_sub_pregamp(pg, sub)
        assert sub_pregamp(pg, sub, pg.sem) == reference_sub_pregamp(pg, sub, pg.sem)
        if len(points) > 1:
            zero_only = pg.sem.sub({pg.sem.zero})
            for build in (sub_pregamp, reference_sub_pregamp):
                with pytest.raises(ValueError, match="misses restricted distances"):
                    build(pg, sub, zero_only)

    def test_quotient_of_sub_embeds_in_quotient(self, x1):
        # one direction of the sub-versus-quotient exchange
        pg = theta_pregamp(x1)
        sub_alg = x1.restrict_full({"0", "m", "x3"})
        sub = sub_pregamp(pg, sub_alg)
        for ideal in enumerate_ideals(sub.sem):
            qsub, proj_sub = quotient_pregamp(sub, ideal)
            big_ideal = SemIdeal.generated(pg.sem, ideal.carrier)
            qbig, proj_big = quotient_pregamp(pg, big_ideal)
            emb = canonical_embedding(sub, pg)
            ind = induced_pregamp_morphism(emb, proj_sub, proj_big)
            assert ind.fsem.is_injective()
            assert ind.f.is_injective()

    def test_sub_of_quotient_lifts(self, x1):
        from gampkit.palg import image_palg, preimage_palg

        pg = theta_pregamp(x1)
        ideal = SemIdeal.generated(pg.sem, {principal_congruence(x1, "0", "m")})
        q, proj = quotient_pregamp(pg, ideal)
        sub_alg = q.carrier.restrict_full(list(q.carrier.universe)[:2])
        pre = preimage_palg(proj.f, sub_alg)
        sub_big = sub_pregamp(pg, pre)
        image = image_palg(proj.f, pre)
        assert image == sub_alg

    def test_identity_preserved_by_subs_and_images(self, fixture_lattices):
        # identity satisfaction survives sub-pregamps and ideal-induced images
        for name in ("two", "chain:3", "M3"):
            pg = theta_pregamp(fixture_lattices[name])
            for _, t1, t2 in LATTICE_IDENTITIES[:4]:
                ok, _ = pregamp_satisfies_identity(pg, t1, t2)
                assert ok
                for ideal in enumerate_ideals(pg.sem):
                    q, _ = quotient_pregamp(pg, ideal)
                    ok_q, _ = pregamp_satisfies_identity(q, t1, t2)
                    assert ok_q


class TestInduced:
    def test_identity_on_quotients(self, m3):
        pg = theta_pregamp(m3)
        _, proj = quotient_pregamp(pg, enumerate_ideals(pg.sem)[1])
        ind = induced_pregamp_morphism(PregampMorphism.identity(pg), proj, proj)
        assert ind.f.is_injective() and ind.fsem.is_injective()

    def test_ideal_not_mapped(self, m3, chain3):
        pg = theta_pregamp(chain3)
        ideal = SemIdeal.generated(pg.sem, {principal_congruence(chain3, 0, 1)})
        with pytest.raises(IdealNotMapped):
            induced_pregamp_morphism(
                PregampMorphism.identity(pg),
                quotient_pregamp(pg, ideal)[1],
                quotient_pregamp(pg, SemIdeal.zero(pg.sem))[1],
            )

    def test_composition_of_induced(self, chain3):
        pg = theta_pregamp(chain3)
        i1 = SemIdeal.generated(pg.sem, {principal_congruence(chain3, 0, 1)})
        q, proj = quotient_pregamp(pg, i1)
        ind = induced_pregamp_morphism(
            PregampMorphism.identity(pg), quotient_pregamp(pg, SemIdeal.zero(pg.sem))[1], proj
        )
        assert label_map(ind.f) == label_map(proj.f)


class TestIdealInducedPg:
    def test_projection(self, x1):
        pg = theta_pregamp(x1)
        ideal = enumerate_ideals(pg.sem)[1]
        _, proj = quotient_pregamp(pg, ideal)
        assert is_ideal_induced_pg(proj)

    def test_proper_embedding_is_not(self, x1):
        pg = theta_pregamp(x1)
        sub = sub_pregamp(pg, x1.restrict_full({"0", "m"}))
        emb = canonical_embedding(sub, pg)
        assert not is_ideal_induced_pg(emb)

    def test_pga_of_surjection(self, chain3):
        from gampkit.congruence import quotient_algebra

        theta = principal_congruence(chain3, 0, 1)
        q, proj = quotient_algebra(chain3, theta)
        assert is_ideal_induced_pg(pga_mor(proj))


def reference_is_pregamp_of(pg, identities):
    """Reference for is_pregamp_of: each ideal quotient's carrier built by
    _quotient_carrier, then each identity checked on every quotient in turn
    by the label loop."""
    quotients = [(ideal, _quotient_carrier(pg, ideal)[0]) for ideal in enumerate_ideals(pg.sem)]
    for name, t1, t2 in identities:
        for ideal, carrier in quotients:
            ok, ce = brute_satisfies_identity(carrier, t1, t2)
            if not ok:
                return False, (name, (ideal, ce))
    return True, None


def has_congruence_kernel(algebra, rep):
    """Whether the kernel of the point map rep is compatible with every
    operation of the algebra: each cell's value class depends only on its
    arguments' classes."""
    for table in algebra.ops.values():
        value_of = {}
        for args, v in table.items():
            if value_of.setdefault(tuple(rep[a] for a in args), rep[v]) != rep[v]:
                return False
    return True


def image_rule(pg, identities):
    """Reference for when is_pregamp_of decides without building quotients,
    as (may, must). It may on a total carrier that satisfies every
    identity, on the label loop, and whose every ideal class map has a
    congruence kernel: each quotient is then an image of the carrier. It
    must when, moreover, every class map fixes its representatives, as it
    does under the triangle inequality: a point's image under a translation
    then shares its class with its representative's image."""
    A = pg.carrier
    if not A.is_total() or not all(brute_satisfies_identity(A, *law[1:])[0] for law in identities):
        return False, False
    # each ideal's map to class representatives, in labels
    reps = [
        dict(zip(A.universe, map(A.universe.__getitem__, _quotient_carrier(pg, ideal)[1])))
        for ideal in enumerate_ideals(pg.sem)
    ]
    may = all(has_congruence_kernel(A, rep) for rep in reps)
    return may, may and all(rep[rep[x]] == rep[x] for rep in reps for x in rep)


def assert_witnesses_match_the_reference(pg, identities):
    # verdict and witness as the reference's. The per-ideal kernel calls are
    # the ones that pass a bound on the identities still in question: none
    # where the image rule must apply, some where it may not. Each runs on
    # one ideal's quotient carrier, pushed forward on indices: the same
    # points, in the same order, and the same tables as _quotient_carrier
    # builds on labels
    with mock.patch.object(pregamp, "first_counterexamples", wraps=first_counterexamples) as kernel:
        assert is_pregamp_of(pg, identities) == reference_is_pregamp_of(pg, identities)
    per_ideal = [call.args for call in kernel.call_args_list if len(call.args) == 4]
    may, must = image_rule(pg, identities)
    if must:
        assert per_ideal == []
    elif not may:
        assert bool(per_ideal) == bool(identities)
    u = pg.carrier.universe
    for (_, points, tables, _), ideal in zip(per_ideal, enumerate_ideals(pg.sem)):
        carrier = _quotient_carrier(pg, ideal)[0]
        assert [u[j] for j in points] == list(carrier.universe)
        labeled = {
            name: {tuple(u[a] for a in args): u[v] for args, v in table.items()}
            for name, table in tables.items()
        }
        assert labeled == carrier.ops
    for name, t1, t2 in identities:
        ok, witness = reference_is_pregamp_of(pg, [(name, t1, t2)])
        assert pregamp_satisfies_identity(pg, t1, t2) == (ok, witness and witness[1])


@st.composite
def partial_pregamps(draw):
    """A sparse partial algebra of CGFH_TYPE on 1 to 4 points with a random
    symmetric distance into the 3-chain or the square 2 x 2, zero exactly on
    the diagonal. Sparse tables satisfy more identities vacuously, so more
    witnesses lie past the zero ideal. The distance axioms need not hold, so
    the ideal classes need not be a partition."""
    alg = draw(cgfh_algebras(sizes=(1, 2, 3, 4, 4), holes=4))
    two = JoinSemilattice.chain(2)
    sem = draw(st.sampled_from([JoinSemilattice.chain(3), JoinSemilattice.product(two, two)]))
    nonzero = st.sampled_from([x for x in sem.elements if x != sem.zero])
    dist = {}
    for i, x in enumerate(alg.universe):
        dist[(x, x)] = sem.zero
        for y in alg.universe[i + 1 :]:
            dist[(x, y)] = dist[(y, x)] = draw(nonzero)
    return Pregamp.from_dist(alg, dist, sem)


class TestVarietyWitnesses:
    def test_gap_fixture(self):
        only_meet = ("meet-idempotent", "meet-commutative", "meet-associative")
        meet_laws = [law for law in LATTICE_IDENTITIES if law[0] in only_meet]
        pg = commutativity_gap_fixture()
        assert not is_pregamp_of(pg, meet_laws)[0]
        assert_witnesses_match_the_reference(pg, meet_laws)
        assert_witnesses_match_the_reference(pg, meet_laws[::-1])

    def test_n5_modular_law(self, n5):
        pg = theta_pregamp(n5)
        laws = [*LATTICE_IDENTITIES, ("modular", *MODULAR_LAW)]
        ok, (name, _) = is_pregamp_of(pg, laws)
        assert not ok and name == "modular"
        assert_witnesses_match_the_reference(pg, laws)

    def test_corpus_holds_the_lattice_identities(self, fixture_lattices):
        for name in ("two", "chain:3", "M3", "N5", "X1"):
            pg = theta_pregamp(fixture_lattices[name])
            assert is_pregamp_of(pg, LATTICE_IDENTITIES) == (True, None)
            assert reference_is_pregamp_of(pg, LATTICE_IDENTITIES) == (True, None)
            assert_witnesses_match_the_reference(pg, LATTICE_IDENTITIES)

    @settings(max_examples=200, deadline=None)
    @given(partial_pregamps(), identity_lists())
    def test_random_partial_carriers(self, pg, identities):
        assert pg.carrier.stype == CGFH_TYPE
        assert_witnesses_match_the_reference(pg, identities)
        # a first identity that always holds keeps every ideal in question
        assert_witnesses_match_the_reference(pg, [("v0 = v0", V(0), V(0)), *identities])

    def test_classes_that_are_not_a_partition(self):
        # d(a, b) and d(b, d) lie in the ideal {0, 1} but d(a, d) does not,
        # so b joins a's class while d joins b's: the representatives first
        # appear as a, c, b, and image_palg lists them in that order. There
        # f(v0, v1) = g(v1) gains definedness at (c, a) and (b, a) and fails
        # at both; product order over a, c, b meets (c, a) first
        alg = PartialAlgebra.from_ops(
            CGFH_TYPE, "abcd", {"f": {("c", "b"): "c", ("d", "b"): "c"}, "g": {("a",): "a"}}
        )
        near = {("a", "b"), ("b", "d")}
        dist = {
            (x, y): 0 if x == y else 1 if {(x, y), (y, x)} & near else 2
            for x in "abcd"
            for y in "abcd"
        }
        pg = Pregamp.from_dist(alg, dist, JoinSemilattice.chain(3))
        ideal = SemIdeal.generated(pg.sem, {1})
        assert list(_quotient_carrier(pg, ideal)[0].universe) == ["a", "c", "b"]
        law = ("f(v0, v1) = g(v1)", Term.app("f", V(0), V(1)), Term.app("g", V(1)))
        laws = [("v0 = v0", V(0), V(0)), law]
        assert is_pregamp_of(pg, laws) == (False, (law[0], (ideal, ("c", "a"))))
        assert_witnesses_match_the_reference(pg, laws)


LATTICE_LISTS = {
    # the compiled-once list, read through is_lattice_algebra's verdict
    "lattice": LATTICE_IDENTITIES,
    # an equal list, checked by the kernel on the carrier or its factors
    "copy": list(LATTICE_IDENTITIES),
    "modular": [*LATTICE_IDENTITIES, ("modular", *MODULAR_LAW)],
}


class TestVarietyOnTotalCarriers:
    """is_pregamp_of against the quotient walk's reference where a total
    carrier can decide it: its ideal quotients are then images of it."""

    @settings(max_examples=60, deadline=None)
    @given(cgfh_algebras(sizes=(1, 2, 3, 4), holes=0), identity_lists())
    def test_pga_distances_take_the_image_rule(self, alg, identities):
        # pga's classes are congruences, so a list the carrier satisfies is
        # decided with no quotient; the full list may fail and walk
        pg = pga(alg)
        held = [law for law in identities if brute_satisfies_identity(alg, *law[1:])[0]]
        held.append(("v0 = v0", V(0), V(0)))
        assert image_rule(pg, held) == (True, True)
        assert_witnesses_match_the_reference(pg, held)
        assert_witnesses_match_the_reference(pg, identities)

    @settings(max_examples=120, deadline=None)
    @given(total_pregamps(), st.sampled_from(sorted(LATTICE_LISTS)), identity_lists())
    def test_total_carriers(self, case, lattice_list, identities):
        # lattices and products of named lattices under the lattice lists;
        # CGFH algebras under random lists. Planted and random distances
        # leave some ideals' classes that are no congruence, so those walk
        pg, kind, _ = case
        laws = identities if kind == "other" else LATTICE_LISTS[lattice_list]
        assert_witnesses_match_the_reference(pg, laws)

    @settings(max_examples=60, deadline=None)
    @given(
        cgfh_algebras(sizes=(1, 2, 3), holes=0), cgfh_algebras(sizes=(1, 2, 3), holes=0),
        st.booleans(), identity_lists(),
    )
    def test_products_of_random_algebras(self, first, second, power, identities):
        # a product satisfies a list iff each factor does; a list one factor
        # fails must walk to the zero ideal's witness
        A = PartialAlgebra.product([first, first if power else second])
        pg = pga(A)
        held = [
            law for law in identities
            if all(brute_satisfies_identity(f, *law[1:])[0] for f in (first, second))
        ]
        assert_witnesses_match_the_reference(pg, identities)
        assert_witnesses_match_the_reference(pg, [("v0 = v0", V(0), V(0)), *held])

    @pytest.mark.parametrize("factors", [("N5", "two"), ("two", "N5")])
    def test_a_failing_factor_walks(self, factors):
        A = PartialAlgebra.product([build_named(f).algebra for f in factors])
        pg = pga(A)
        ok, (name, (ideal, ce)) = is_pregamp_of(pg, LATTICE_LISTS["modular"])
        assert not ok and name == "modular" and ideal == SemIdeal.zero(pg.sem)
        assert is_pregamp_of(pg, LATTICE_LISTS["copy"]) == (True, None)
        assert_witnesses_match_the_reference(pg, LATTICE_LISTS["modular"])

    def test_classes_that_are_no_congruence_walk(self, chain3):
        # d(0, 2) = Theta(1, 2) puts 0 and 2 in one class below Theta(1, 2)
        # and leaves 1 alone: not convex, so no congruence of the chain
        base = pga(chain3)
        dist = label_dist(base)
        dist[(0, 2)] = dist[(2, 0)] = principal_congruence(chain3, 1, 2)
        pg = Pregamp.from_dist(chain3, dist, base.sem)
        assert image_rule(pg, LATTICE_IDENTITIES) == (False, False)
        assert_witnesses_match_the_reference(pg, LATTICE_IDENTITIES)

    @pytest.mark.parametrize("name", ["M3", "N5", "power:two:3"])
    def test_too_many_ideals_on_either_path(self, name, monkeypatch):
        pg = pga(build_named(name).algebra)
        for laws in (LATTICE_IDENTITIES, LATTICE_LISTS["modular"]):
            monkeypatch.setattr(pregamp, "IDEAL_BOUND", len(pg.sem))
            is_pregamp_of(pg, laws)
            monkeypatch.setattr(pregamp, "IDEAL_BOUND", len(pg.sem) - 1)
            with pytest.raises(TooManyIdeals):
                is_pregamp_of(pg, laws)


class TestIdentitySatisfaction:
    def test_one_point(self):
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, ["*"], {"meet": {("*", "*"): "*"}, "join": {("*", "*"): "*"}})
        pg = Pregamp.from_dist(alg, {("*", "*"): 0}, JoinSemilattice.chain(1))
        from gampkit.palg import meet

        ok, _ = pregamp_satisfies_identity(pg, meet(V(0), V(1)), meet(V(1), V(0)))
        assert ok

    def test_n5_fails_modular_law_at_zero_ideal(self, n5):
        pg = theta_pregamp(n5)
        ok, (ideal, _) = pregamp_satisfies_identity(pg, *MODULAR_LAW)
        assert not ok
        assert ideal.carrier == frozenset({pg.sem.zero})

    def test_gap_fixture_fails_only_at_larger_ideal(self):
        from gampkit.palg import satisfies_identity

        pg = commutativity_gap_fixture()
        ok, _ = check_axioms(pg)
        assert ok
        t1 = Term.app("meet", V(0), V(1))
        t2 = Term.app("meet", V(1), V(0))
        ok0, _ = satisfies_identity(pg.carrier, t1, t2)
        assert ok0  # vacuously: both orders never defined together
        ok, witness = pregamp_satisfies_identity(pg, t1, t2)
        assert not ok
        ideal, _ = witness
        assert 1 in ideal.carrier  # the collapse of b and c is to blame


class TestTractable:
    def test_identity_on_one_point(self):
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, ["*"], {"meet": {("*", "*"): "*"}, "join": {("*", "*"): "*"}})
        pg = Pregamp.from_dist(alg, {("*", "*"): 0}, JoinSemilattice.chain(1))
        v = is_congruence_tractable_morphism(PregampMorphism.identity(pg))
        assert bool(v)

    def test_total_target_matches_malcev(self, chain3):
        # on total algebras the chain search and the congruence witness agree
        from gampkit.congruence import MalcevWitness, malcev_witness

        pg = theta_pregamp(chain3)
        v = is_congruence_tractable_morphism(PregampMorphism.identity(pg))
        assert bool(v)
        w = malcev_witness(chain3, 0, 2, (0, 1), (1, 2))
        assert isinstance(w, MalcevWitness)

    def test_empty_target_refuted(self):
        # with no operations defined, term chains reduce to the equivalence
        # closure of the generator pairs, so a constraint between points not
        # linked by the generators is refuted at any bound
        els = ["a", "b", "c", "d"]
        src = PartialAlgebra.from_ops(LATTICE_TYPE, els, {})
        sem = JoinSemilattice.chain(2)
        d = {(x, y): 0 if x == y else 1 for x in els for y in els}
        pg = Pregamp.from_dist(src, d, sem)
        fm = PregampMorphism(
            pg, pg, PalgMorphism.from_map(src, src, {x: x for x in els}), SemMorphism.identity(sem)
        )
        v = is_congruence_tractable_morphism(fm, m_cap=1)
        assert v.status == "false"
        x, y, chosen = v.witness
        assert {x, y} != set(sum(chosen, ()))


class TestIsoSearch:
    def test_relabeled_copy_found(self, chain3):
        pg = theta_pregamp(chain3)
        relabel = {0: "a", 1: "b", 2: "c"}
        alg2 = PartialAlgebra.from_ops(
            LATTICE_TYPE,
            [relabel[x] for x in chain3.universe],
            {
                name: {tuple(relabel[a] for a in args): relabel[v] for args, v in tb.items()}
                for name, tb in chain3.ops.items()
            },
        )
        dist2 = {(relabel[x], relabel[y]): d for (x, y), d in label_dist(pg).items()}
        pg2 = Pregamp.from_dist(alg2, dist2, pg.sem)
        assert next(pregamp_isomorphisms(pg, pg2), None) is not None

    def test_mismatch_refused(self, chain3, m3):
        assert next(pregamp_isomorphisms(theta_pregamp(chain3), theta_pregamp(m3)), None) is None

    def test_budget_is_search_exhausted(self, m3, monkeypatch):
        from gampkit import pregamp
        from gampkit.errors import SearchExhausted

        monkeypatch.setattr(pregamp, "ISO_BUDGET", 2)
        pg = pga(m3)
        with pytest.raises(SearchExhausted) as exc:
            next(pregamp_isomorphisms(pg, pg), None)
        assert exc.value.bound == 2

    def test_budget_bounds_the_carrier_search(self, monkeypatch):
        # the semilattice level takes 4 steps; all 8! carrier bijections
        # intertwine the distances and none is an isomorphism (the identity
        # against a constant), so only the carrier level can run out
        from gampkit import pregamp
        from gampkit.errors import SearchExhausted

        points = range(8)
        dist = {(x, y): int(x != y) for x in points for y in points}

        def unary(f):
            ops = {"f": {(x,): f(x) for x in points}}
            alg = PartialAlgebra.from_ops(SimilarityType((("f", 1),)), points, ops)
            return Pregamp.from_dist(alg, dist, JoinSemilattice.chain(2))

        monkeypatch.setattr(pregamp, "ISO_BUDGET", 100)
        with pytest.raises(SearchExhausted):
            next(pregamp_isomorphisms(unary(lambda x: x), unary(lambda x: 0)), None)

    @pytest.mark.parametrize("name, count", [("M3", 6), ("N5", 1)])
    def test_self_isomorphism_counts(self, fixture_lattices, name, count):
        # |Aut(M3)| = |S3| = 6 and N5 is rigid
        pg = pga(fixture_lattices[name])
        isos = list(pregamp_isomorphisms(pg, pg))
        assert len(isos) == count
        assert next(pregamp_isomorphisms(pg, pg), None) == isos[0]


class TestColimitQuotientExchange:
    def test_finite_chain(self, chain3):
        # on a finite chain the colimit is the top object, so quotienting the
        # colimit must agree with the colimit of the nodewise quotients via
        # the induced cocone
        pg = theta_pregamp(chain3)
        sub = sub_pregamp(pg, chain3.restrict_full({0, 1}))
        emb = canonical_embedding(sub, pg)
        ideal_top = SemIdeal.generated(pg.sem, {principal_congruence(chain3, 0, 1)})
        ideal_sub = SemIdeal(
            sub.sem, {d for d in sub.sem.elements if d in ideal_top.carrier}
        )
        q_top, proj_top = quotient_pregamp(pg, ideal_top)
        _, proj_sub = quotient_pregamp(sub, ideal_sub)
        ind = induced_pregamp_morphism(emb, proj_sub, proj_top)
        assert ind.target is q_top
        assert ind.after(proj_sub) == proj_top.after(emb)

    def test_sub_pregamps_keep_identities(self, m3):
        from gampkit.palg import LATTICE_IDENTITIES

        pg = theta_pregamp(m3)
        sub = sub_pregamp(pg, m3.restrict_full({"0", "x1", "1"}))
        for _, t1, t2 in LATTICE_IDENTITIES:
            ok, _ = pregamp_satisfies_identity(sub, t1, t2)
            assert ok


class TestTractableOracle:
    def test_total_algebra_chain_existence_matches_containment(self, fixture_lattices):
        # on a total algebra, a defined term chain exists exactly when the
        # generated-congruence containment holds; the chain decision procedure
        # must agree with the congruence machinery instance by instance
        from itertools import combinations

        from gampkit.congruence import congruence_closure
        from gampkit.pregamp import chain_connectivity

        for name in ("chain:3", "M3", "X1"):
            alg = fixture_lattices[name]
            els = list(alg.universe)
            pool = [(a, b) for i, a in enumerate(els) for b in els[i + 1 :]]
            for m in (1, 2):
                for chosen in list(combinations(pool, m))[:40]:
                    find = chain_connectivity(alg, list(chosen))
                    gen = congruence_closure(alg, list(chosen))
                    for x in els:
                        for y in els:
                            assert (find(x) == find(y)) == gen.same(x, y), (name, chosen, x, y)


def congruence_tractable_instances(pg, points, sem_phi, m_cap):
    """Reference for tractability_verdict's instances, on labels: phi(delta(x,
    y)) <= join phi(delta(xk, yk)) with at most m_cap pairs, grouped by the
    generating pair tuple, with every member listed."""
    if m_cap < 0:
        raise ValueError("m_cap must be at least 0")
    pool = [(a, b) for i, a in enumerate(points) for b in points[i + 1 :]]
    grouped = []
    for m in range(0, m_cap + 1):
        for chosen in combinations(pool, m):
            bound = sem_phi.target.join_all(sem_phi(pg.delta(a, b)) for a, b in chosen)
            members = [
                (x, y)
                for x in points
                for y in points
                if sem_phi.target.leq(sem_phi(pg.delta(x, y)), bound)
            ]
            if members:
                grouped.append((chosen, members))
    return grouped


def reference_tractability_verdict(pg, points, sem_phi, m_cap, f, carrier, extra=()):
    """tractability_verdict as it was before it ran on indices: one
    chain_connectivity per instance, every member checked on labels."""
    bounds = {"m_cap": m_cap}
    for chosen, members in congruence_tractable_instances(pg, list(points), sem_phi, m_cap):
        find = chain_connectivity(carrier, [(f(a), f(b)) for a, b in chosen], extra)
        for x, y in members:
            if find(f(x)) != find(f(y)):
                return Verdict.false((x, y, chosen), bounds)
    return Verdict.true(None, bounds)


@st.composite
def tractability_cases(draw):
    """Arguments of tractability_verdict. The pregamp is the pga of a total
    CGFH algebra of 1 to 4 points (4 drawn twice as often), or random distances on it into the
    subsets of range(2) (no axiom need hold); the points are a nonempty
    subsequence of its universe, in a drawn order; phi is the identity or
    an ideal's projection; the carrier is the algebra, its reduct to some of
    the constant and the unary operation (fewer chains: failures on a total
    carrier) or the algebra with two thirds of its cells undefined
    (partial); f is the identity or any map into the carrier; and up to
    three extra pairs are joined."""
    alg = draw(cgfh_algebras(sizes=(1, 2, 3, 4, 4), holes=0))
    u = list(alg.universe)
    if draw(st.booleans()):
        pg = pga(alg)
    else:
        subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
        joins = {(a, b): a | b for a in subsets for b in subsets}
        sem = JoinSemilattice.from_table(subsets, frozenset(), joins)
        pg = Pregamp.from_dist(alg, {(x, y): draw(st.sampled_from(subsets)) for x in u for y in u}, sem)
    points = [x for x in draw(st.permutations(u)) if draw(st.sampled_from((True, True, False)))]
    points = points or u[:1]
    phi = SemMorphism.identity(pg.sem)
    if draw(st.booleans()):
        phi = quotient(pg.sem, draw(st.sampled_from(enumerate_ideals(pg.sem))))[1]
    kind = draw(st.sampled_from(["algebra", "reduct", "reduct", "holes", "holes"]))
    if kind == "algebra":
        carrier = alg
    elif kind == "reduct":
        kept = tuple(s for s in CGFH_TYPE.symbols[:2] if draw(st.booleans()))
        carrier = PartialAlgebra.from_ops(SimilarityType(kept), u, {name: alg.ops[name] for name, _ in kept})
    else:
        keep = (True, False, False)
        ops = {
            name: {args: v for args, v in table.items() if draw(st.sampled_from(keep))}
            for name, table in alg.ops.items()
        }
        carrier = PartialAlgebra.from_ops(CGFH_TYPE, u, ops)
    image = dict(zip(points, points))
    if draw(st.booleans()):
        image = {x: draw(st.sampled_from(u)) for x in points}
    extra = draw(st.lists(st.tuples(st.sampled_from(u), st.sampled_from(u)), max_size=3))
    return pg, points, phi, draw(st.sampled_from((2, 1, 0))), image.__getitem__, carrier, extra


class TestTractabilityAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(tractability_cases())
    def test_random_cases(self, case):
        assert tractability_verdict(*case) == reference_tractability_verdict(*case)

    @pytest.mark.parametrize("name", ["chain:3", "M3", "N5", "X1"])
    @pytest.mark.parametrize("kept", ["meet", "join"])
    def test_lattice_reducts(self, fixture_lattices, name, kept):
        # a reduct has fewer congruences, so instances of the lattice's
        # pregamp fail on it, a total carrier, at some m_cap: the per-pair
        # closures' failure path names the reference's witness
        alg = fixture_lattices[name]
        reduct = PartialAlgebra.from_ops(
            SimilarityType(((kept, 2),)), alg.universe, {kept: alg.ops[kept]}
        )
        pg, points = pga(alg), list(alg.universe)
        kernel = [(x, y) for x in points[:2] for y in points[:2]]
        verdicts = []
        for phi in (SemMorphism.identity(pg.sem), *_projections(pg.sem)):
            for m_cap in (0, 1, 2):
                for extra in ((), kernel):
                    case = (pg, points, phi, m_cap, lambda x: x, reduct, extra)
                    got = tractability_verdict(*case)
                    assert got == reference_tractability_verdict(*case)
                    verdicts.append(got.status)
        assert {"true", "false"} <= set(verdicts)

    def test_one_partition_under_two_bounds(self):
        # Cg(0, 1) = Cg(0, 2) = {0, 1, 2 | 3} under g, which swaps 1 and 2,
        # but d(0, 1) = {p} < d(0, 2) = {p, q}: the instance on (0, 1)
        # passes, and the one on (0, 2), with the same partition under a
        # larger bound, fails at (0, 3)
        alg = PartialAlgebra.from_ops(
            SimilarityType((("g", 1),)), [0, 1, 2, 3], {"g": {(0,): 0, (1,): 2, (2,): 1, (3,): 3}}
        )
        subsets = [frozenset(), frozenset("p"), frozenset("q"), frozenset("pq")]
        joins = {(a, b): a | b for a in subsets for b in subsets}
        sem = JoinSemilattice.from_table(subsets, frozenset(), joins)
        near = {(0, 1): "p", (2, 3): "q"}
        dist = {
            (x, y): frozenset() if x == y else frozenset(near.get((min(x, y), max(x, y)), "pq"))
            for x in alg.universe
            for y in alg.universe
        }
        case = (Pregamp.from_dist(alg, dist, sem), alg.universe, SemMorphism.identity(sem), 1, lambda x: x, alg)
        got = tractability_verdict(*case)
        assert got == reference_tractability_verdict(*case)
        assert got.witness == (0, 3, ((0, 2),))

    def test_partial_carrier_failure(self):
        # the empty target of TestTractable: every member outside the
        # generating pairs fails, and the first is the reference's
        els = ["a", "b", "c", "d"]
        src = PartialAlgebra.from_ops(LATTICE_TYPE, els, {})
        sem = JoinSemilattice.chain(2)
        pg = Pregamp.from_dist(src, {(x, y): 0 if x == y else 1 for x in els for y in els}, sem)
        for m_cap in (0, 1, 2):
            case = (pg, els, SemMorphism.identity(sem), m_cap, lambda x: x, src, [("a", "d")])
            got = tractability_verdict(*case)
            assert got == reference_tractability_verdict(*case)
            assert got.status == ("false" if m_cap else "true")


def _projections(sem):
    return [quotient(sem, ideal)[1] for ideal in enumerate_ideals(sem)]


def induced_pregamp_by_ideals(fm, ideal_i, ideal_j):
    """Reference for induced_pregamp_morphism: the ideal-taking form it
    replaced, which checks the semilattice part against the ideals first,
    quotients both ends itself and re-wraps a second semilattice quotient."""
    if not fm.fsem.apply_set(ideal_i.carrier) <= ideal_j.carrier:
        raise IdealNotMapped("semilattice part does not map the ideal")
    qsrc, pi = quotient_pregamp(fm.source, ideal_i)
    qtgt, pj = quotient_pregamp(fm.target, ideal_j)
    fmap = {}
    for x in fm.source.carrier.universe:
        c = pi.f(x)
        v = pj.f(fm.f(x))
        if fmap.setdefault(c, v) != v:
            raise IdealNotMapped(f"carrier map not well-defined at class of {x!r}")
    smap = induced_by_ideals(fm.fsem, ideal_i, ideal_j)
    induced = PregampMorphism(
        qsrc, qtgt,
        unvalidated(qsrc.carrier, qtgt.carrier, fmap),
        unvalidated(qsrc.sem, qtgt.sem, label_map(smap)),
        validate=False,
    )
    induced.validate()
    assert induced.after(pi) == pj.after(fm)
    return induced


def test_descent_matches_the_ideal_reference_on_corpus_maps(corpus_maps):
    for f in corpus_maps.values():
        fm = pga_mor(f)
        assert_descent_matches_reference(
            fm, (fm.source.sem, fm.target.sem), quotient_pregamp,
            induced_pregamp_morphism, induced_pregamp_by_ideals,
        )


def label_intertwined(src, tgt, fmap, smap):
    """PregampMorphism.validate's distance loop on labels, as it ran while
    maps were label dicts: its message, or None."""
    sd, td = label_dist(src), label_dist(tgt)
    for x in src.carrier.universe:
        for y in src.carrier.universe:
            if td[(fmap[x], fmap[y])] != smap[sd[(x, y)]]:
                return f"distance not intertwined at {(x, y)}"
    return None


@st.composite
def styled_pregamp_maps(draw, style):
    """(source, target, point map, element map) in one label style, the
    distance axioms not required: random distances over renamed small
    semilattices, an injective point map, and the target's distance pushed
    along both maps at the image pairs, one of them changed in about half
    the draws."""

    def sem():
        base = draw(st.sampled_from([JoinSemilattice.chain(3), JoinSemilattice.product(two, two)]))
        names = dict(zip(base.elements, style_labels(style, draw(st.permutations(range(len(base)))))))
        return renamed(base, names, draw(st.permutations(base.elements)))

    def distance(points, s):
        return {(x, y): s.zero if x == y else draw(st.sampled_from(s.elements)) for x in points for y in points}

    two = JoinSemilattice.chain(2)
    a = draw(labelled_algebras(max_size=3, style=style))[0]
    m = draw(st.integers(len(a), 4))
    b = PartialAlgebra.from_ops(a.stype, style_labels(style, draw(st.permutations(range(m)))), {})
    s, t = sem(), sem()
    fmap = dict(zip(a.universe, draw(st.permutations(b.universe))))
    smap = {e: draw(st.sampled_from(t.elements)) for e in s.elements}
    sd, td = distance(a.universe, s), distance(b.universe, t)
    for (x, y), d in sd.items():
        td[(fmap[x], fmap[y])] = smap[d]
    if draw(st.booleans()):
        pair = (fmap[draw(st.sampled_from(a.universe))], fmap[draw(st.sampled_from(a.universe))])
        td[pair] = draw(st.sampled_from(t.elements))
    return Pregamp.from_dist(a, sd, s), Pregamp.from_dist(b, td, t), fmap, smap


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LABEL_STYLES).flatmap(styled_pregamp_maps), st.data())
def test_pregamp_morphism_validate_matches_the_label_loop(case, data):
    src, tgt, fmap, smap = case
    expected = label_intertwined(src, tgt, fmap, smap)
    # the maps may start at equal copies of the source's ends, listed in another order
    carrier = src.carrier if data.draw(st.booleans()) else rebuilt(src.carrier)
    sem = src.sem if data.draw(st.booleans()) else reordered(src.sem, src.sem.elements[::-1])
    f, fsem = unvalidated(carrier, tgt.carrier, fmap), unvalidated(sem, tgt.sem, smap)
    try:
        PregampMorphism(src, tgt, f, fsem)
        got = None
    except ValueError as e:
        got = str(e)
    assert got == expected
