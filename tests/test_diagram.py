import pytest

from gampkit import build_named, build_square, congruence
from gampkit.congruence import conc, principal_congruence
from gampkit.diagram import (
    Diagram,
    DiagramIdeal,
    NaturalTransformation,
    apply_functor,
    is_operational_diagram,
    is_partial_lifting,
    quotient_diagram,
)
from gampkit.errors import DomainMismatch, InvalidIdeal, MissingRealization, TooLarge
from gampkit.gamp import Realization, ga, ga_mor
from gampkit.palg import LATTICE_TYPE, PalgMorphism, PartialAlgebra
from gampkit.poset import FinitePoset
from gampkit.semilattice import JoinSemilattice, SemIdeal, SemMorphism


@pytest.fixture(scope="module")
def square():
    return build_square("M3", 2)


@pytest.fixture(scope="module")
def ga_square(square):
    return apply_functor(square.a_square, "GA")


def checked_quotient(diagram, diagram_ideal):
    """quotient_diagram, with the functoriality of the quotient and the
    naturality of the projections checked."""
    q, transform = quotient_diagram(diagram, diagram_ideal)
    assert q.validate() == (True, None)
    return q, transform.validate()


class TestValidation:
    def test_single_node(self, m3):
        poset = FinitePoset(["*"], [])
        d = Diagram(poset, {"*": m3}, {("*", "*"): PalgMorphism.identity(m3)})
        ok, _ = d.validate()
        assert ok

    def test_x_square_valid(self, square):
        ok, _ = square.x_square.validate()
        assert ok

    def test_arrow_between_other_objects_reported(self, m3, chain3):
        # a verdict naming the arrow, not NotComposable from composing it
        poset, objects = FinitePoset.chain(2), {0: m3, 1: m3}
        arrows = {(p, p): PalgMorphism.identity(m3) for p in (0, 1)}
        arrows[(0, 1)] = PalgMorphism.identity(chain3)
        assert Diagram(poset, objects, arrows).validate() == (False, ("arrow ends", (0, 1)))
        with pytest.raises(ValueError, match=r"not a diagram: \('arrow ends', \(0, 1\)\)"):
            Diagram.from_generators(poset, objects, {(0, 1): arrows[(0, 1)]})

    def test_corrupted_arrow_reported(self, square):
        arrows = dict(square.x_square.arrows)
        b, t = square.x_square.objects["b"], square.x_square.objects["t"]
        bad = {x: "0" for x in b.universe}
        arrows[("b", "t")] = PalgMorphism.from_map(b, t, bad)
        ok, viol = Diagram(square.x_square.poset, square.x_square.objects, arrows).validate()
        assert not ok and viol[0] == "composition"


class TestQuotientDiagram:
    def test_zero_ideals_identity(self, ga_square):
        ideals = {
            p: SemIdeal.zero(ga_square.objects[p].sem) for p in ga_square.poset.elements
        }
        q, transform = checked_quotient(ga_square, DiagramIdeal(ga_square, ideals))
        for p in ga_square.poset.elements:
            assert len(q.objects[p].outer) == len(ga_square.objects[p].outer)

    def test_incompatible_family_rejected(self, ga_square, square):
        chain = square.chain_algebra
        g0 = ga_square.objects["b"]
        theta = principal_congruence(chain, 0, 1)
        ideals = {
            p: SemIdeal.zero(ga_square.objects[p].sem) for p in ga_square.poset.elements
        }
        ideals["t"] = SemIdeal(
            ga_square.objects["t"].sem,
            {t for t in ga_square.objects["t"].sem.elements},
        )
        ideals["b"] = SemIdeal.generated(g0.sem, {theta})
        # bottom collapses but the wings do not carry the image: invalid
        with pytest.raises(InvalidIdeal):
            DiagramIdeal(ga_square, ideals).validate()

    def test_ideal_of_another_semilattice_named(self):
        # the whole of a chain on node t's own Conc elements: an ideal whose
        # labels all lie in t's Conc, of a semilattice that is not t's
        d = apply_functor(build_square("M3", 3).a_square, "GA")
        sem = d.objects["t"].sem
        els = [sem.zero, *(x for x in sem.elements if x != sem.zero)]
        chain = JoinSemilattice(els, sem.zero, JoinSemilattice.chain(len(els)).join_rows)
        assert chain != sem
        ideals = {p: SemIdeal.zero(d.objects[p].sem) for p in "blr"}
        ideals["t"] = SemIdeal(chain, els)
        with pytest.raises(InvalidIdeal, match="ideal at 't' is not of the node's semilattice"):
            quotient_diagram(d, DiagramIdeal(d, ideals))

    def test_quotient_commutes_with_functors(self, square, ga_square):
        # cutting after the inner-pregamp projection equals projecting the cut
        from gampkit.diagram import apply_functor as af

        cs0 = ga_square.objects["b"].sem
        theta = principal_congruence(square.chain_algebra, 0, 1)
        ideals = {"b": SemIdeal.generated(cs0, {theta})}
        for p in ("l", "r", "t"):
            arrow = ga_square.arrows[("b", p)]
            gens = {arrow.fsem(t) for t in ideals["b"].carrier}
            ideals[p] = SemIdeal.generated(ga_square.objects[p].sem, gens)
        di = DiagramIdeal(ga_square, ideals)
        q, _ = checked_quotient(ga_square, di)
        left = af(q, "PGGR")
        right_base = af(ga_square, "PGGR")
        right, _ = checked_quotient(
            right_base,
            DiagramIdeal(
                right_base,
                {p: SemIdeal(right_base.objects[p].sem, ideals[p].carrier) for p in ideals},
            ),
        )
        for p in q.poset.elements:
            assert left.objects[p] == right.objects[p]
        left_cg = af(q, "CG")
        for p in q.poset.elements:
            assert left_cg.objects[p] == right.objects[p].sem


class TestApplyFunctor:
    def test_cg_of_ga_is_conc(self, square):
        left = apply_functor(apply_functor(square.a_square, "GA"), "CG")
        right = apply_functor(square.a_square, "Conc")
        for p in left.poset.elements:
            assert left.objects[p] == right.objects[p]
            assert left.arrows[(p, p)] == right.arrows[(p, p)]
        for (p, q) in left.arrows:
            assert left.arrows[(p, q)] == right.arrows[(p, q)]

    def test_pggl_of_ga_is_pga(self, square):
        left = apply_functor(apply_functor(square.a_square, "GA"), "PGGL")
        right = apply_functor(square.a_square, "PGA")
        for key in left.arrows:
            assert left.arrows[key] == right.arrows[key]
        for p in left.poset.elements:
            assert left.objects[p] == right.objects[p]

    @pytest.mark.parametrize("name", ["Conc", "PGA", "GA"])
    def test_arrows_end_at_the_node_objects(self, square, name):
        # each algebra keeps one Conc, pregamp and gamp, so an arrow's image
        # starts and ends at its nodes' images themselves
        image = apply_functor(square.a_square, name)
        for (p, q), arrow in image.arrows.items():
            assert arrow.source is image.objects[p] and arrow.target is image.objects[q]

    def test_pggl_arrows_end_at_the_node_objects(self):
        # a buttress node with a proper inner part keeps its inner pregamp:
        # one sub-pregamp per such node, none per arrow
        from unittest import mock

        from gampkit import gamp as gamp_module
        from gampkit.gamp import buttress
        from gampkit.pregamp import sub_pregamp
        from gampkit.semilattice import quotient

        alg = build_named("M3").algebra
        poset = FinitePoset.chain(2)
        cs = conc(alg)
        kernel = SemIdeal.generated(cs, {principal_congruence(alg, "0", "x1")})
        phis = {0: quotient(cs, kernel)[1], 1: quotient(cs, SemIdeal.zero(cs))[1]}
        d = buttress(alg, poset, phis)
        assert d.objects[0].inner != alg and d.objects[1].inner is alg
        with mock.patch.object(gamp_module, "sub_pregamp", wraps=sub_pregamp) as built:
            image = apply_functor(d, "PGGL")
        assert built.call_count == 1
        for (p, q), arrow in image.arrows.items():
            assert arrow.source is image.objects[p] and arrow.target is image.objects[q]

    def test_pggr_of_ga_is_pga(self, square):
        left = apply_functor(apply_functor(square.a_square, "GA"), "PGGR")
        right = apply_functor(square.a_square, "PGA")
        for p in left.poset.elements:
            assert left.objects[p] == right.objects[p]

    def test_singleton(self, m3):
        poset = FinitePoset(["*"], [])
        d = Diagram(poset, {"*": m3}, {("*", "*"): PalgMorphism.identity(m3)})
        gd = apply_functor(d, "GA")
        assert gd.objects["*"] == ga(m3)

    @pytest.mark.parametrize("name", ["conc", "Con", "pgg", ""])
    def test_unknown_functor_is_a_domain_mismatch(self, square, name):
        with pytest.raises(DomainMismatch, match="unknown functor"):
            apply_functor(square.a_square, name)

    @pytest.mark.parametrize("name", ["Conc", "PGA", "GA"])
    def test_over_bound_node_refused_before_any_con(self, name, monkeypatch):
        # L2 at n = 3 has 125-element wings and a 343-element top node, which
        # is over CON_BOUND: the functor refuses it before any node's Con
        a_square = build_square("L2", 3).a_square

        def spy(algebra, bound=None):
            raise AssertionError(f"Con built on {len(algebra)} elements")

        monkeypatch.setattr(congruence, "conc", spy)
        with pytest.raises(TooLarge, match=r"capped at 160 elements \(got 343\)"):
            apply_functor(a_square, name)


class TestOperational:
    def test_ga_of_total_operational(self, ga_square):
        ok, _ = is_operational_diagram(ga_square)
        assert ok

    def test_single_node_vacuous(self, m3):
        poset = FinitePoset(["*"], [])
        d = apply_functor(
            Diagram(poset, {"*": m3}, {("*", "*"): PalgMorphism.identity(m3)}), "GA"
        )
        ok, _ = is_operational_diagram(d)
        assert ok

    def test_missing_meet_diagnosed(self, x1, chain3):
        from gampkit.gamp import Gamp, GampMorphism
        from gampkit.pregamp import Pregamp, pga
        from conftest import label_dist

        poset = FinitePoset.chain(2)
        src = ga(chain3)
        base = pga(x1)
        sparse_outer = PartialAlgebra.from_ops(
            LATTICE_TYPE, list(x1.universe),
            {
                "meet": {
                    k: v for k, v in x1.ops["meet"].items()
                    if k not in (("x1", "x3"), ("x3", "x1"))
                },
                "join": dict(x1.ops["join"]),
            },
        )
        tgt = Gamp(
            x1.restrict_full({"0", "x1", "x3", "1"}),
            Pregamp.from_dist(sparse_outer, label_dist(base), base.sem),
        )
        f = PalgMorphism.from_map(chain3, sparse_outer, {0: "0", 1: "x3", 2: "1"})
        from gampkit.congruence import conc_morphism

        fm = GampMorphism(src, tgt, f, conc_morphism(
            PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"})
        ))
        d = Diagram.from_generators(poset, {0: src, 1: tgt}, {(0, 1): fm})
        ok, witness = is_operational_diagram(d)
        assert not ok
        assert witness[1][0] == "meet"


class TestPartialLifting:
    def test_ga_diagram_is_partial_lifting(self, square, ga_square):
        realizations = {
            p: Realization(
                square.a_square.objects[p],
                SemMorphism.identity(ga_square.objects[p].sem),
            )
            for p in ga_square.poset.elements
        }
        verdict, detail = is_partial_lifting(
            ga_square, realizations, x_cap=2, lattice=True
        )
        assert bool(verdict), {k: v.status for k, v in detail.items() if v.status != "true"}

    def test_missing_realization(self, ga_square):
        with pytest.raises(MissingRealization):
            is_partial_lifting(ga_square, {}, x_cap=1)

    def test_restriction_still_verified(self, square, ga_square):
        poset = FinitePoset(["b", "l"], [("b", "l")])
        sub = Diagram(
            poset,
            {p: ga_square.objects[p] for p in ("b", "l")},
            {k: ga_square.arrows[k] for k in (("b", "b"), ("l", "l"), ("b", "l"))},
        )
        realizations = {
            p: Realization(
                square.a_square.objects[p],
                SemMorphism.identity(ga_square.objects[p].sem),
            )
            for p in ("b", "l")
        }
        verdict, _ = is_partial_lifting(sub, realizations, x_cap=2)
        assert bool(verdict)

    def test_non_strong_arrow_named(self, chain3, x1):
        from gampkit.gamp import Gamp, GampMorphism
        from gampkit.pregamp import Pregamp, pga
        from gampkit.congruence import conc_morphism

        poset = FinitePoset.chain(2)
        src = ga(chain3)
        base = pga(x1)
        # inner part too small to hold the image strongly
        tgt = Gamp(x1.restrict_full({"0"}), base)
        f_alg = PalgMorphism.from_map(chain3, x1, {0: "0", 1: "x3", 2: "1"})
        fm = GampMorphism(src, tgt, f_alg, conc_morphism(f_alg))
        d = Diagram.from_generators(poset, {0: src, 1: tgt}, {(0, 1): fm})
        realizations = {
             0: Realization(chain3, SemMorphism.identity(src.sem)),
             1: Realization(x1, SemMorphism.identity(base.sem)),
        }
        verdict, detail = is_partial_lifting(d, realizations, x_cap=1)
        assert not bool(verdict)
        assert detail[("strong", (0, 1))].status == "false"
