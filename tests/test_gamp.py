from itertools import combinations
from unittest import mock

import pytest

from gampkit import build_named
from gampkit.congruence import conc, conc_morphism, is_n_permutable, principal_congruence
from gampkit import gamp as gamp_module
from gampkit.errors import CrossCheckFailed, NotStrong, WrongSignature
from gampkit.gamp import (
    Gamp,
    GampMorphism,
    Realization,
    buttress,
    canonical_embedding,
    cg,
    check_morphism_property,
    check_property,
    check_realization,
    ga,
    ga_mor,
    gamp_chain_colimit,
    induced_gamp_morphism,
    is_chain,
    is_subgamp,
    pggl,
    pggl_mor,
    pggr,
    presqueordre_facts,
    quotient_gamp,
)
from gampkit.palg import LATTICE_TYPE, PalgMorphism, PartialAlgebra, SimilarityType
from gampkit.poset import FinitePoset
from gampkit.pregamp import Pregamp, pga, pregamp_isomorphisms, sub_pregamp
from gampkit.semilattice import (
    JoinSemilattice,
    SemIdeal,
    SemMorphism,
    enumerate_ideals,
    is_ideal_induced,
    quotient,
)
from gampkit.util import Verdict
from conftest import label_dist, label_map, unvalidated
from test_pregamp import induced_pregamp_by_ideals
from test_semilattice import assert_descent_matches_reference


def sparse_gamp(x1):
    """Gamp whose inner part is a bare three-element subset of a lattice."""
    inner = PartialAlgebra.from_ops(LATTICE_TYPE, ["0", "x1", "1"], {})
    return Gamp(inner, pga(x1))


class TestFunctors:
    def test_ga_two(self, fixture_lattices):
        g = ga(fixture_lattices["two"])
        assert len(g.inner) == 2 and g.inner == g.outer

    def test_functor_equations(self, x1, chain3):
        f = PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"})
        gm = ga_mor(f)
        assert cg(gm.source) == conc(chain3)
        assert pggr(gm.source) == pga(chain3)
        assert pggl(gm.source) == pga(chain3)
        assert pggl_mor(gm).fsem == conc_morphism(f, pggl(gm.source).sem, pggl(gm.target).sem)
        assert cg(gm.source) == pggl(gm.source).sem == pggr(gm.source).sem

    def test_pggl_rebuilds_only_a_proper_inner_part(self, x1):
        # the inner part of a ga gamp is its carrier: pggl is the pregamp
        # itself, validated once; a proper inner part gets its sub-pregamp
        g = ga(x1)
        with mock.patch.object(gamp_module, "sub_pregamp", side_effect=AssertionError):
            assert pggl(g) is g.pregamp
        sparse = sparse_gamp(x1)
        assert pggl(sparse) == sub_pregamp(sparse.pregamp, sparse.inner, sparse.sem)
        assert pggl(sparse).carrier is sparse.inner

    def test_ga_quotient_matches_quotient_ga(self, x1):
        # the gamp of the algebra, cut by an ideal, is the gamp of the cut
        # algebra, with the stated maps
        from gampkit.congruence import quotient_algebra

        g = ga(x1)
        theta = principal_congruence(x1, "x3", "1")
        ideal = SemIdeal.generated(g.sem, {theta})
        qg, proj = quotient_gamp(g, ideal)
        join_ideal = theta
        qalg, qproj = quotient_algebra(x1, join_ideal)
        other = ga(qalg)
        iso = next(pregamp_isomorphisms(qg.pregamp, other.pregamp), None)
        assert iso is not None
        # explicit maps: class of x goes to x modulo the join of the ideal
        for x in x1.universe:
            assert iso.f(proj.f(x)) == qproj(x)

    def test_ga_n_permutable_iff_algebra(self, fixture_lattices):
        for name in ("two", "chain:3", "M3"):
            alg = fixture_lattices[name]
            for n in (2, 3):
                alg_ok, _ = is_n_permutable(alg, n)
                gamp_ok = bool(check_property(ga(alg), "n_permutable", n=n))
                assert alg_ok == gamp_ok, (name, n)


class TestProperties:
    def test_ga_is_strong_dg_tractable(self, fixture_lattices):
        for name in ("two", "chain:3", "M3", "X1"):
            g = ga(fixture_lattices[name])
            assert bool(check_property(g, "strong"))
            assert bool(check_property(g, "distance_generated"))
            assert bool(check_property(g, "distance_generated_chains"))
            assert bool(check_property(g, "congruence_tractable"))

    def test_empty_inner_vacuous_permutability(self, x1):
        inner = PartialAlgebra.from_ops(LATTICE_TYPE, [], {})
        g = Gamp(inner, pga(x1))
        assert bool(check_property(g, "n_permutable", n=2))

    def test_sparse_inner_not_strong(self, x1):
        g = sparse_gamp(x1)
        assert bool(check_property(g, "strong"))  # outer is total
        smaller = Gamp(
            g.inner,
            Pregamp.from_dist(
                PartialAlgebra.from_ops(LATTICE_TYPE, list(x1.universe), {}),
                label_dist(g.pregamp),
                g.sem,
            ),
        )
        assert not bool(check_property(smaller, "strong"))

    def test_lattice_permutability_matches_algebra_on_chains(self, fixture_lattices):
        # the chain fixture separates the lattice form from plain permutability
        chain4 = fixture_lattices["chain:4"]
        g = ga(chain4)
        ok3, _ = is_n_permutable(chain4, 3)
        v = check_property(g, "lattice_n_permutable", n=3)
        assert ok3 == bool(v)
        assert not bool(check_property(g, "lattice_n_permutable", n=2))

    def test_wrong_signature(self):
        from gampkit.palg import SimilarityType

        stype = SimilarityType((("f", 1),))
        alg = PartialAlgebra.from_ops(stype, [0], {"f": {(0,): 0}})
        from gampkit.semilattice import JoinSemilattice

        g = Gamp(alg, Pregamp.from_dist(alg, {(0, 0): 0}, JoinSemilattice.chain(1)))
        with pytest.raises(WrongSignature):
            check_property(g, "distance_generated_chains")


class TestMorphismProperties:
    def test_identity_all_four(self, m3):
        g = ga(m3)
        fm = GampMorphism.identity(g)
        for prop in ("strong", "operational", "cuttable", "cuttable_chains"):
            assert bool(check_morphism_property(fm, prop, x_cap=2)), prop

    def test_inclusion_into_total_operational(self, x1, m3):
        # total algebras make every morphism operational
        f = PalgMorphism.from_map(x1, m3, {"0": "0", "m": "0", "x1": "x1", "x3": "x3", "1": "1"})
        fm = ga_mor(f)
        assert bool(check_morphism_property(fm, "operational"))

    def test_sparse_target_not_operational(self, x1):
        # target misses the join of an image element with its inner element
        base = pga(x1)
        empty = PartialAlgebra.from_ops(LATTICE_TYPE, [], {})
        src_outer = x1.restrict_full({"0", "x3"})
        src_sem = base.sem.sub(
            base.sem.join_closure(
                {base.delta(a, b) for a in src_outer.universe for b in src_outer.universe}
            )
        )
        g_s = Gamp(
            empty,
            Pregamp.from_dist(
                src_outer,
                {(a, b): base.delta(a, b) for a in src_outer.universe for b in src_outer.universe},
                src_sem,
            ),
        )
        tgt_outer = PartialAlgebra.from_ops(
            LATTICE_TYPE, list(x1.universe),
            {
                "meet": dict(x1.ops["meet"]),
                "join": {
                    k: v for k, v in x1.ops["join"].items()
                    if k not in (("x1", "x3"), ("x3", "x1"))
                },
            },
        )
        g_t = Gamp(x1.restrict_full({"x1"}), Pregamp.from_dist(tgt_outer, label_dist(base), base.sem))
        fm = GampMorphism(
            g_s, g_t,
            PalgMorphism.from_map(src_outer, tgt_outer, {x: x for x in src_outer.universe}),
            SemMorphism.from_map(src_sem, base.sem, {a: a for a in src_sem.elements}),
        )
        v = check_morphism_property(fm, "operational")
        assert not bool(v)
        assert v.witness[0] == "join" and set(v.witness[1]) == {"x1", "x3"}

    def test_negative_x_cap_is_refused(self, chain3, x1):
        fm = ga_mor(PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"}))
        for prop in ("cuttable", "cuttable_chains"):
            with pytest.raises(ValueError):
                check_morphism_property(fm, prop, x_cap=-1)
            with pytest.raises(ValueError):
                check_morphism_property(
                    fm, prop, x_cap=-1, phi=SemMorphism.identity(fm.target.sem)
                )
        # a cap of 0 checks no instance and holds vacuously
        assert bool(check_morphism_property(fm, "cuttable", x_cap=0))

    def test_chain_walk_keeps_every_chain_member(self):
        # v is first reached through a, which is not below hi; the chain
        # lo < b < v < hi must still be found through b
        from types import SimpleNamespace

        from gampkit.gamp import _chain_walk

        below = {("lo", "a"), ("lo", "b"), ("lo", "v"), ("lo", "hi"),
                 ("a", "v"), ("b", "v"), ("b", "hi"), ("v", "hi")}
        universe = ["lo", "a", "b", "v", "hi"]
        meets = {(x, x): x for x in universe}
        for x, y in below:
            meets[(x, y)] = meets[(y, x)] = x
        alg = PartialAlgebra.from_ops(LATTICE_TYPE, universe, {"meet": meets, "join": {}})
        g = SimpleNamespace(inner=alg, outer=alg)
        steps = {("lo", "a"), ("lo", "b"), ("a", "v"), ("b", "v"), ("v", "hi")}
        assert _chain_walk(g, "lo", "hi", lambda u, v: (u, v) in steps)
        assert not _chain_walk(g, "lo", "hi", lambda u, v: (u, v) in steps - {("b", "v")})


class TestChains:
    def test_single_element_chain(self, m3):
        g = ga(m3)
        assert is_chain(g, ["x1"])

    def test_chain_and_distance_law(self, m3):
        g = ga(m3)
        assert is_chain(g, ["0", "x3", "1"])
        assert presqueordre_facts(g, ["0", "x3", "1"])
        d = g.delta
        assert g.sem.join(d("0", "x3"), d("x3", "1")) == d("0", "1")

    def test_non_strong_refused(self, x1):
        g = sparse_gamp(x1)
        smaller = Gamp(
            g.inner,
            Pregamp.from_dist(PartialAlgebra.from_ops(LATTICE_TYPE, list(x1.universe), {}), label_dist(g.pregamp), g.sem),
        )
        with pytest.raises(NotStrong):
            presqueordre_facts(smaller, ["0", "1"])


class TestRealizations:
    def test_identity_realization(self, m3):
        g = ga(m3)
        r = Realization(m3, SemMorphism.identity(g.sem))
        assert check_realization(g, r)
        assert r.isomorphic

    def test_broken_chi_rejected(self, m3):
        g = ga(m3)
        bad = unvalidated(g.sem, g.sem, {x: g.sem.elements[0] for x in g.sem.elements})
        assert not check_realization(g, Realization(m3, bad))


class TestQuotientPreservation:
    def test_preservation_suite(self, fixture_lattices):
        # strongness, both distance generations, permutability, and chain
        # images survive every ideal quotient
        for name in ("chain:3", "M3", "X1"):
            alg = fixture_lattices[name]
            g = ga(alg)
            n_ok = {n: bool(check_property(g, "n_permutable", n=n)) for n in (2, 3)}
            for ideal in enumerate_ideals(g.sem):
                qg, proj = quotient_gamp(g, ideal)
                assert bool(check_property(qg, "strong"))
                assert bool(check_property(qg, "distance_generated"))
                assert bool(check_property(qg, "distance_generated_chains"))
                assert bool(check_property(qg, "congruence_tractable"))
                for n, held in n_ok.items():
                    if held:
                        assert bool(check_property(qg, "n_permutable", n=n))
                chain = ["0", "1"] if name != "chain:3" else [0, 1, 2]
                if all(c in alg.universe for c in chain):
                    image = [proj.f(c) for c in chain]
                    assert is_chain(qg, image)

    def test_arrow_preservation(self, chain3, x1):
        f = PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"})
        fm = ga_mor(f)
        assert bool(check_morphism_property(fm, "strong"))
        assert bool(check_morphism_property(fm, "cuttable", x_cap=2))
        assert bool(check_morphism_property(fm, "cuttable_chains", x_cap=2))
        ideal_src = SemIdeal.generated(fm.source.sem, {principal_congruence(chain3, 0, 1)})
        image_gens = {conc_morphism(f, fm.source.sem, fm.target.sem)(t) for t in ideal_src.carrier}
        ideal_tgt = SemIdeal.generated(fm.target.sem, image_gens)
        _, proj_src = quotient_gamp(fm.source, ideal_src)
        _, proj_tgt = quotient_gamp(fm.target, ideal_tgt)
        ind = induced_gamp_morphism(fm, proj_src, proj_tgt)
        assert bool(check_morphism_property(ind, "strong"))
        assert bool(check_morphism_property(ind, "cuttable", x_cap=2))
        assert bool(check_morphism_property(ind, "cuttable_chains", x_cap=2))


class TestThroughPhi:
    def test_identity_agrees_with_plain(self, x1, chain3):
        # phi defaults to the identity: passing it changes no verdict or witness
        g = ga(x1)
        ident = SemMorphism.identity(g.sem)
        for which in ("distance_generated", "distance_generated_chains", "congruence_tractable"):
            assert check_property(g, which, phi=ident) == check_property(g, which)
        fm = ga_mor(PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"}))
        ident = SemMorphism.identity(fm.target.sem)
        for which in ("cuttable", "cuttable_chains"):
            assert check_morphism_property(fm, which, phi=ident) == check_morphism_property(
                fm, which
            )

    def test_phi_refused_where_not_read(self, x1, chain3):
        g = ga(x1)
        for which in ("strong", "n_permutable", "lattice_n_permutable"):
            with pytest.raises(ValueError, match="takes no phi"):
                check_property(g, which, n=2, phi=SemMorphism.identity(g.sem))
        fm = ga_mor(PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"}))
        for which in ("strong", "operational"):
            with pytest.raises(ValueError, match="takes no phi"):
                check_morphism_property(fm, which, phi=SemMorphism.identity(fm.target.sem))

    def test_projection_dg_through_and_quotient(self, x1):
        g = ga(x1)
        ideal = SemIdeal.generated(g.sem, {principal_congruence(x1, "0", "m")})
        _, proj = quotient(g.sem, ideal)
        assert bool(check_property(g, "distance_generated", phi=proj))
        assert bool(check_property(g, "distance_generated_chains", phi=proj))
        assert bool(check_property(g, "congruence_tractable", phi=proj))
        # property through an ideal-induced map descends to the quotient
        from gampkit.semilattice import ker0

        qg, _ = quotient_gamp(g, ker0(proj))
        assert bool(check_property(qg, "distance_generated"))
        assert bool(check_property(qg, "congruence_tractable"))

    def test_collapse_to_point_trivial(self, x1):
        g = ga(x1)
        one = quotient(g.sem, SemIdeal(g.sem, set(g.sem.elements)))[1]
        assert bool(check_property(g, "distance_generated", phi=one))

    def test_cuttable_through(self, chain3, x1):
        f = PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"})
        fm = ga_mor(f)
        ideal = SemIdeal.generated(fm.target.sem, {principal_congruence(x1, "0", "m")})
        _, proj = quotient(fm.target.sem, ideal)
        assert bool(check_morphism_property(fm, "cuttable", x_cap=3, phi=proj))
        assert bool(check_morphism_property(fm, "cuttable_chains", x_cap=3, phi=proj))


def reference_check_cuttable(fm, phi, chains, x_cap):
    """_check_cuttable as it was before each X kept its reach sets and chain
    walks: one shortest_path, or one _chain_walk, per source pair."""
    from itertools import combinations

    from gampkit.gamp import _chain_walk
    from gampkit.palg import UNDEFINED, image_palg
    from gampkit.util import Verdict, shortest_path, sorted_elements

    bounds = {"x_cap": x_cap}
    img = image_palg(fm.f)
    if not img.is_partial_sub_of(fm.target.inner):
        return Verdict.false("image not inside the inner part", bounds)
    tgt = fm.target
    S = phi.target
    inner = list(tgt.inner.universe)
    meets = tgt.outer.ops.get("meet", {})
    joins = tgt.outer.ops.get("join", {})
    for r in range(1, x_cap + 1):
        for xset in combinations(sorted_elements(S.elements), r):
            bound = S.join_all(xset)
            allowed = {v for v in S.elements if v == S.zero or any(S.leq(v, u) for u in xset)}

            def step_ok(a, b):
                return phi(tgt.delta(a, b)) in allowed

            def neighbours(u):
                return ((v, None) for v in inner if step_ok(u, v))

            for x in fm.source.outer.universe:
                for y in fm.source.outer.universe:
                    if not S.leq(phi(tgt.delta(fm.f(x), fm.f(y))), bound):
                        continue
                    fx, fy = fm.f(x), fm.f(y)
                    if not chains:
                        if shortest_path(fx, fy, neighbours) is None:
                            return Verdict.false((x, y, xset), bounds)
                    else:
                        m = meets.get((fx, fy), UNDEFINED)
                        j = joins.get((fx, fy), UNDEFINED)
                        if m is UNDEFINED or j is UNDEFINED:
                            return Verdict.false(("endpoints undefined", x, y, xset), bounds)
                        if not _chain_walk(fm.target, m, j, step_ok):
                            return Verdict.false((x, y, xset), bounds)
    return Verdict.true(None, bounds)


def _assert_cuttable_as_reference(fm, phi, x_cap):
    verdicts = []
    for which in ("cuttable", "cuttable_chains"):
        got = check_morphism_property(fm, which, x_cap=x_cap, phi=phi)
        assert got == reference_check_cuttable(fm, phi, which == "cuttable_chains", x_cap)
        verdicts.append(got)
    return verdicts


class TestCuttableAgainstReference:
    @pytest.mark.parametrize(
        "base, poset, kernel, n_perm",
        [
            ("X1", FinitePoset.chain(2), ("0", "x3"), 3),
            ("X1", FinitePoset.chain(2), ("m", "1"), 3),
            ("M3", FinitePoset.square(), ("0", "x1"), 2),
            ("N5", FinitePoset.chain(2), ("0", "1"), 2),
        ],
    )
    def test_buttress_arrows(self, base, poset, kernel, n_perm):
        alg = build_named(base).algebra
        cs = conc(alg)
        bottom = poset.linear_extension()[0]
        ideal = SemIdeal.generated(cs, {principal_congruence(alg, *kernel)})
        phis = {
            p: quotient(cs, ideal if p == bottom else SemIdeal.zero(cs))[1] for p in poset.elements
        }
        diagram = buttress(alg, poset, phis, with_chains=True, n_permutable=n_perm)
        for (p, q), arrow in diagram.arrows.items():
            for phi in (phis[q], SemMorphism.identity(cs)):
                for x_cap in (0, 1, 2, len(phi.target.elements)):
                    _assert_cuttable_as_reference(arrow, phi, x_cap)

    @pytest.mark.parametrize(
        "base, outer, inner, fails",
        [
            ("X1", {"0", "1"}, {"0", "1"}, True),
            ("X1", {"0", "1"}, {"0", "m", "1"}, True),
            ("X1", {"0", "x1", "1"}, {"0", "x1", "x3", "1"}, True),
            ("M3", {"0", "1"}, {"0", "x1", "1"}, False),
            ("M3", {"0", "x1", "x2"}, {"0", "x1", "x2", "1"}, False),
            ("N5", {"0", "1"}, {"0", "1"}, True),
            ("N5", {"0", "1"}, {"0", "a", "1"}, False),
        ],
    )
    def test_sparse_inclusions(self, base, outer, inner, fails):
        # the inclusion of a few points into a gamp with a sparse inner part,
        # through the identity and through each proper quotient, holds or
        # fails at the same (x, y, X) as with the per-pair walk
        alg = build_named(base).algebra
        pg = pga(alg)
        small = alg.restrict_full(outer)
        sub = Gamp(small, sub_pregamp(pg, small))
        fm = canonical_embedding(sub, Gamp(alg.restrict_full(inner), pg))
        ideals = [None] + [i for i in enumerate_ideals(pg.sem) if 1 < len(i.carrier) < len(pg.sem)]
        verdicts = []
        for ideal in ideals:
            phi = SemMorphism.identity(pg.sem) if ideal is None else quotient(pg.sem, ideal)[1]
            for x_cap in (1, 2, 3):
                verdicts += _assert_cuttable_as_reference(fm, phi, x_cap)
        assert all(verdicts) != fails

    @pytest.mark.parametrize("base", ["chain:4", "X1", "N5"])
    def test_comparable_distances(self, base):
        # Con has comparable elements, so at x_cap >= 2 some X has the
        # down-set union of a smaller X, which the checker skips: the
        # inclusions of each two points into the inner part they span,
        # alone or with one more point, still hold or fail at the
        # reference's (x, y, X)
        alg = build_named(base).algebra
        pg = pga(alg)
        S = pg.sem
        assert any(S.leq(a, b) for a in S.elements for b in S.elements if S.zero != a != b)
        phis = [SemMorphism.identity(S)] + [quotient(S, i)[1] for i in enumerate_ideals(S)]
        verdicts = []
        for outer in combinations(alg.universe, 2):
            small = alg.restrict_full(outer)
            sub = Gamp(small, sub_pregamp(pg, small))
            for more in [()] + [(x,) for x in alg.universe if x not in outer]:
                fm = canonical_embedding(sub, Gamp(alg.restrict_full(outer + more), pg))
                for phi in phis:
                    for x_cap in (2, 3):
                        verdicts += _assert_cuttable_as_reference(fm, phi, x_cap)
        assert {True, False} <= set(map(bool, verdicts))

    def test_one_sided_meets_make_a_chain(self):
        # pins the chain predicate as it stands: a < c < b is a chain when
        # only meet(a, c) = a and meet(c, b) = c are defined, the other
        # argument order undefined, as in is_chain. The pair (a, b) at
        # distance {p, q} is then cut, through X = {{p}, {q}}, by that chain
        # only: without c in the inner part it fails at that X
        subsets = [frozenset(), frozenset("p"), frozenset("q"), frozenset("pq")]
        S = JoinSemilattice.from_table(
            subsets, frozenset(), {(u, v): u | v for u in subsets for v in subsets}
        )
        d = {("a", "c"): "p", ("c", "b"): "q", ("a", "b"): "pq"}
        dist = {}
        for x in "acb":
            for y in "acb":
                dist[(x, y)] = frozenset(d.get((x, y)) or d.get((y, x)) or "")
        meet = {(x, x): x for x in "acb"}
        meet.update({("a", "c"): "a", ("c", "b"): "c", ("a", "b"): "a", ("b", "a"): "a"})
        join = {(x, x): x for x in "acb"}
        join.update({("a", "c"): "c", ("c", "a"): "c", ("c", "b"): "b", ("b", "c"): "b"})
        join.update({("a", "b"): "b", ("b", "a"): "b"})
        target = PartialAlgebra.from_ops(LATTICE_TYPE, ["a", "c", "b"], {"meet": meet, "join": join})
        ends = target.restrict_full({"a", "b"})
        source = Gamp(ends, Pregamp.from_dist(ends, {k: v for k, v in dist.items() if "c" not in k}, S))
        ident = SemMorphism.identity(S)
        for inner, holds in ((target, True), (ends, False)):
            tgt = Gamp(inner, Pregamp.from_dist(target, dist, S))
            fm = GampMorphism(source, tgt, PalgMorphism.from_map(ends, target, {"a": "a", "b": "b"}), ident)
            got = check_morphism_property(fm, "cuttable_chains", x_cap=2)
            assert got == reference_check_cuttable(fm, ident, True, 2)
            assert bool(got) == holds
            if not holds:
                assert got.witness == ("a", "b", (frozenset("p"), frozenset("q")))
        assert is_chain(Gamp(target, Pregamp.from_dist(target, dist, S)), ["a", "c", "b"])


class TestChainColimit:
    def test_constant_sequence(self, m3):
        g = ga(m3)
        fm = GampMorphism.identity(g)
        top, cocone, stable, algebra = gamp_chain_colimit([fm, fm], window=1, expect_algebra=True)
        assert top == g and stable
        assert algebra == m3

    def test_increasing_subgamps(self, m3):
        g = ga(m3)
        inner1 = m3.restrict_full({"0", "x1"})
        sub1 = Gamp(inner1, Pregamp.from_dist(m3, label_dist(g.pregamp), g.sem))
        emb = canonical_embedding(sub1, g)
        top, _, stable, _ = gamp_chain_colimit([emb], window=0)
        assert top == g and stable


class TestButtress:
    def _phis(self, alg, poset, ideals_by_node):
        cs = conc(alg)
        phis = {}
        for p in poset.elements:
            gens = ideals_by_node.get(p, set())
            ideal = SemIdeal.generated(cs, gens) if gens else SemIdeal.zero(cs)
            _, proj = quotient(cs, ideal)
            phis[p] = proj
        return phis

    def test_singleton_identity(self, m3):
        poset = FinitePoset(["*"], [])
        phis = self._phis(m3, poset, {})
        diagram = buttress(m3, poset, phis)
        ok, _ = diagram.validate()
        assert ok

    def test_chain_poset_with_projection(self, x1):
        poset = FinitePoset.chain(2)
        theta = principal_congruence(x1, "x3", "1")
        phis = self._phis(x1, poset, {0: {theta}})
        diagram = buttress(x1, poset, phis)
        assert is_subgamp(diagram.objects[0], diagram.objects[1])

    def test_square_with_chains_and_permutability(self, m3):
        poset = FinitePoset.square()
        theta = principal_congruence(m3, "0", "x1")
        phis = self._phis(m3, poset, {"b": {theta}})
        diagram = buttress(m3, poset, phis, with_chains=True, n_permutable=2)
        ok, _ = diagram.validate()
        assert ok

    @pytest.mark.parametrize("chains", [False, True])
    @pytest.mark.parametrize(
        "base, poset, kernel, bottom_inner",
        [
            ("X1", FinitePoset.chain(2), ("0", "x3"), {"m", "x1"}),
            ("M3", FinitePoset.square(), ("0", "x2"), {"0"}),
        ],
        ids=["X1-chain2", "M3-square"],
    )
    def test_node_shapes(self, base, poset, kernel, bottom_inner, chains):
        # every node is the algebra's own pregamp; only the minimal node has
        # a proper inner part
        alg = build_named(base).algebra
        bottom = poset.linear_extension()[0]
        phis = self._phis(alg, poset, {bottom: {principal_congruence(alg, *kernel)}})
        diagram = buttress(alg, poset, phis, with_chains=chains)
        cs = conc(alg)
        for p, g in diagram.objects.items():
            inner = bottom_inner if p == bottom else set(alg.universe)
            assert set(g.inner.universe) == inner, p
            assert g.outer == alg and g.sem == cs, p

    def test_square_decides_nothing_twice(self, m3, monkeypatch):
        # each phi is decided ideal-induced once, on entry; the checks that
        # do not read phi run once per distinct node object (b, and the
        # whole gamp shared by l, r and t), the others once per node
        poset = FinitePoset.square()
        phis = self._phis(m3, poset, {"b": {principal_congruence(m3, "0", "x1")}})
        decided, checked = [], []
        real_induced, real_check = gamp_module.is_ideal_induced, gamp_module.check_property

        def induced(phi):
            decided.append(phi)
            return real_induced(phi)

        def check(g, which, **kwargs):
            checked.append(which)
            return real_check(g, which, **kwargs)

        monkeypatch.setattr(gamp_module, "is_ideal_induced", induced)
        monkeypatch.setattr(gamp_module, "check_property", check)
        diagram = buttress(m3, poset, phis, with_chains=True, n_permutable=2)
        assert len(decided) == 4 and len({id(g) for g in diagram.objects.values()}) == 2
        assert {w: checked.count(w) for w in checked} == {
            "strong": 2, "n_permutable": 2, "lattice_n_permutable": 2,
            "distance_generated": 4, "congruence_tractable": 4, "distance_generated_chains": 4,
        }

    def test_a_shared_node_check_still_fails_the_buttress(self, m3, monkeypatch):
        poset = FinitePoset.square()
        phis = self._phis(m3, poset, {"b": {principal_congruence(m3, "0", "x1")}})
        real_check = gamp_module.check_property

        def check(g, which, **kwargs):
            verdict = real_check(g, which, **kwargs)
            return Verdict.false() if which == "lattice_n_permutable" and g.inner is m3 else verdict

        monkeypatch.setattr(gamp_module, "check_property", check)
        with pytest.raises(CrossCheckFailed, match="lattice permutable"):
            buttress(m3, poset, phis, with_chains=True, n_permutable=2)

    def test_non_lattice_with_permutability(self):
        # Z4 with x - y is a group reduct, hence 2-permutable; the lattice
        # form of permutability does not apply to it
        stype = SimilarityType((("f", 2),))
        z4 = PartialAlgebra.total_from_fn(stype, range(4), {"f": lambda x, y: (x - y) % 4})
        poset = FinitePoset.chain(2)
        phis = self._phis(z4, poset, {0: {principal_congruence(z4, 0, 2)}})
        diagram = buttress(z4, poset, phis, n_permutable=2)
        assert diagram.validate()[0]
        assert set(diagram.objects[0].inner.universe) == {0, 1}
        with pytest.raises(WrongSignature):
            buttress(z4, poset, phis, with_chains=True)


def induced_gamp_by_ideals(fm, ideal_i, ideal_j):
    """Reference for induced_gamp_morphism: the ideal-taking form it
    replaced, which quotients both gamps again to wrap the pregamp result."""
    ind = induced_pregamp_by_ideals(fm.pg, ideal_i, ideal_j)
    qsrc, _ = quotient_gamp(fm.source, ideal_i)
    qtgt, _ = quotient_gamp(fm.target, ideal_j)
    return GampMorphism(qsrc, qtgt, ind.f, ind.fsem, validate=False)


def test_descent_matches_the_ideal_reference_on_corpus_maps(corpus_maps):
    for f in corpus_maps.values():
        fm = ga_mor(f)
        assert_descent_matches_reference(
            fm, (fm.source.sem, fm.target.sem), quotient_gamp,
            induced_gamp_morphism, induced_gamp_by_ideals,
        )
