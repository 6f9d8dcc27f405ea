import dataclasses
from collections import Counter
from itertools import product

import pytest

from gampkit import constructions
from gampkit.congruence import (
    CON_BOUND, Congruence, con_meet, conc, is_n_permutable, principal_congruence,
)
from gampkit.constructions import (
    CandidateSquare,
    SQUARE_NODES,
    UnliftableSquare,
    algebra_square_candidate,
    build_named,
    build_square,
    enumerate_candidates,
    refute_candidate,
    verify_square_facts,
)
from gampkit.diagram import Diagram, NaturalTransformation, apply_functor
from gampkit.errors import (
    HypothesisFailed,
    PreconditionFailed,
    SearchExhausted,
    StepFailed,
    TooLarge,
    UnknownName,
)
from gampkit.gamp import Gamp, GampMorphism
from gampkit.palg import (
    LATTICE_TYPE, PalgMorphism, PartialAlgebra, is_lattice_algebra,
)
from gampkit.poset import FinitePoset
from gampkit.pregamp import Pregamp, check_axioms
from conftest import label_map, unvalidated


class TestNamedLattices:
    def test_two(self):
        nl = build_named("two")
        assert len(nl.algebra.universe) == 2

    def test_m3_shape(self):
        nl = build_named("M3")
        alg = nl.algebra
        assert len(alg.universe) == 5
        atoms = [x for x in alg.universe if alg.ops["meet"][("1", x)] == x and x not in ("0", "1")]
        assert len(atoms) == 3
        # length two: every atom is covered by the top
        for a in atoms:
            assert alg.ops["join"][(a, "1")] == "1"

    def test_l2_seven_elements(self):
        assert len(build_named("L2").algebra.universe) == 7

    def test_l3_l4(self):
        assert len(build_named("L3").algebra.universe) == 7
        assert len(build_named("L4").algebra.universe) == 6

    def test_marked_elements_satisfy_hypotheses(self):
        for name in ("M3", "L2", "L3", "L4"):
            nl = build_named(name)
            sp = nl.special
            meet_t, join_t = nl.algebra.ops["meet"], nl.algebra.ops["join"]
            assert meet_t[(sp["x1"], sp["x2"])] == sp["zero"], name
            assert join_t[(sp["x3"], sp["x1"])] == sp["one"], name
            assert join_t[(sp["x3"], sp["x2"])] == sp["one"], name

    def test_duals_and_powers(self):
        d = build_named("dual:N5")
        assert is_lattice_algebra(d.algebra)
        p = build_named("power:two:3")
        assert len(p.algebra.universe) == 8

    def test_unknown(self):
        with pytest.raises(UnknownName):
            build_named("M4")


class TestBuildSquare:
    def test_m3_n2(self):
        sq = build_square("M3", 2)
        assert len(sq.cuts) == 1
        assert len(sq.a_square.objects["t"].universe) == 5

    def test_m3_n3(self):
        sq = build_square("M3", 3)
        assert len(sq.cuts) == 3
        assert len(sq.a_square.objects["t"].universe) == 125

    def test_power_over_the_bound_is_refused_before_it_is_built(self, monkeypatch):
        # L2 at n = 4 is admitted (7^6 at node t); M3 at n = 5 is refused at
        # node l, 4^10 elements, before any product is formed
        assert 7 ** 6 <= constructions.POWER_BOUND < 4 ** 10
        monkeypatch.setattr(PartialAlgebra, "product", None)
        refusal = r"^power at node l has 1,048,576 elements, over POWER_BOUND = 200,000$"
        with pytest.raises(TooLarge, match=refusal):
            build_square("M3", 5)

    def test_degenerate_marks_rejected(self):
        # (1, 1, 0) breaks x1 meet x2 = 0; (0, 0, 1) meets every equation
        # but has x3 = 1, so X0 = {0, 1} is no three-element chain
        for x1, x2, x3 in ((1, 1, 0), (0, 0, 1)):
            two = build_named("two")
            two.special.update({"x1": x1, "x2": x2, "x3": x3})
            with pytest.raises(HypothesisFailed):
                build_square(two, 2)

    def test_power_morphisms_are_checked_factorwise(self, monkeypatch):
        # the exhaustive table loop runs only on small sources: the chain
        # maps, the wing inclusions, and the factor maps of the powers, the
        # largest of which is the identity of the 7-element base lattice
        checked = []
        exhaustive = PalgMorphism._check_tables

        def spy(f):
            checked.append(len(f.source))
            return exhaustive(f)

        monkeypatch.setattr(PalgMorphism, "_check_tables", spy)
        sq = build_square("L2", 3)
        assert checked and max(checked) == 7
        # the 3 cuts give 12 projections: the 9 out of the powers A_l, A_r,
        # A_t (125 and 343 elements) are decided factorwise, the 3 out of
        # the chain A_b have no factors
        projections = [(node, sq.projections[c][node]) for c in sq.cuts for node in SQUARE_NODES]
        assert len(projections) == 12
        for node, f in projections:
            assert f._factorwise_verdict() is (None if node == "b" else True)
        for pq in (("l", "t"), ("r", "t")):
            assert sq.a_square.arrows[pq]._factorwise_verdict() is True

    def test_l2_square(self):
        sq = build_square("L2", 2)
        # the wing sublattices here are genuinely five-element
        assert len(sq.x_square.objects["l"].universe) == 5
        rep = verify_square_facts(sq)
        assert rep["facts"]["meet_of_principals_zero"] == {"l": True, "r": True}
        assert rep["facts"]["squares_commute"]


class TestSquareFacts:
    @pytest.mark.parametrize("n", [2, 3])
    def test_m3_facts(self, n):
        rep = verify_square_facts(build_square("M3", n))
        assert rep["ok"], rep

    @pytest.mark.parametrize("base", ["M3", "L2", "L3", "L4"])
    def test_facts_leave_the_top_power_unbuilt(self, base):
        # A_t (up to 343 elements) is compared, hashed and checked total
        # from its recorded factors; test_hygiene holds every large power
        sq = build_square(base, 3)
        assert verify_square_facts(sq)["ok"]
        top = sq.a_square.objects["t"]
        assert top.factors is not None and "tables" not in vars(top)

    def test_power_nodes_decide_as_their_factor(self):
        # fact (c) reads each power X^T from its factor X; every power node
        # within CON_BOUND, checked directly, gets the factor's verdict
        checked = 0
        for base, n in [("M3", 2), ("L2", 2), ("L3", 2), ("L4", 2), ("M3", 3)]:
            sq = build_square(base, n)
            facts = verify_square_facts(sq)["facts"]["nodes_n_plus_1_permutable"]
            for node in ("l", "r", "t"):
                power, factor = sq.a_square.objects[node], sq.x_square.objects[node]
                assert power.factors and all(f is factor for f in power.factors)
                if len(power) > CON_BOUND:
                    continue
                ok = is_n_permutable(power, n + 1)[0]
                assert ok == is_n_permutable(factor, n + 1)[0] == facts[node]["ok"], (base, n, node)
                checked += 1
        assert checked == 15  # the M3 n=3 powers have 64, 64 and 125 elements

    def test_nodes_must_be_powers_of_lattices(self, monkeypatch):
        # fact (c) is exact only for a power of a lattice: anything else is
        # refused before any fact is read
        sq = build_square("M3", 2)
        foreign = dataclasses.replace(sq, x_square=build_square("L2", 2).x_square)
        with pytest.raises(HypothesisFailed, match="node l is not a power of a lattice"):
            verify_square_facts(foreign)
        monkeypatch.setattr(constructions, "is_lattice_algebra", lambda alg: False)
        with pytest.raises(HypothesisFailed, match="node l is not a power of a lattice"):
            verify_square_facts(sq)

    def test_non_natural_projection_is_reported(self):
        # one element's image changed in the l component of one projection
        # family: validate names the first failing pair in the poset's
        # order, and fact (d) reports that family, and only it, as failing
        sq = build_square("M3", 3)
        c = sq.cuts[1]
        f = sq.projections[c]["l"]
        in_image = set(label_map(sq.a_square.arrows[("b", "l")]).values())
        inside = next(u for u in f.source.universe if u in in_image)
        outside = next(u for u in f.source.universe if u not in in_image)
        # inside the chain's image, (b, l) and (l, t) both fail; outside, only (l, t)
        for u, first in [(inside, ("b", "l")), (outside, ("l", "t"))]:
            mapping = label_map(f)
            mapping[u] = next(y for y in f.target.universe if y != mapping[u])
            comps = dict(sq.projections[c])
            comps["l"] = unvalidated(f.source, f.target, mapping)
            with pytest.raises(ValueError) as exc:
                NaturalTransformation(sq.a_square, sq.x_square, comps).validate()
            assert str(exc.value) == f"naturality fails at {first}"
            bad = dataclasses.replace(sq, projections={**sq.projections, c: comps})
            rep = verify_square_facts(bad)
            assert rep["facts"]["projections_natural"] == {str(k): k != c for k in sq.cuts}
            assert rep["ok"] is False

    def test_meet_fact_in_wing(self):
        sq = build_square("M3", 2)
        alg = sq.x_square.objects["l"]
        t1 = principal_congruence(alg, "1", "x1")
        t2 = principal_congruence(alg, "x3", "1")
        assert con_meet(t1, t2) == Congruence.identity(alg.universe)


@pytest.fixture(scope="module")
def square():
    return build_square("M3", 2)


class TestRefutation:
    def test_algebra_square_rejected_at_permutability(self, square):
        cand = algebra_square_candidate(square)
        with pytest.raises(PreconditionFailed) as exc:
            refute_candidate(square, cand, 2)
        assert exc.value.reason == "lattice-n-permutable"
        assert exc.value.detail[0] == "b"

    def test_non_commuting_candidate_rejected(self, square):
        # pad the bottom node so permutability holds, route the pad through
        # incompatible wing elements, and watch the structural checks fire
        cand = _padded_non_commuting_candidate(square)
        with pytest.raises(StepFailed) as exc:
            refute_candidate(square, cand, 2, precheck=False)
        assert exc.value.step == "claim-square-agree"

    def test_trace_prefix_validates(self, square):
        # the same fixture exercises the numbered steps up to the failure:
        # the witness, the minimal index, the atom choice, and the cut
        cand = _padded_non_commuting_candidate(square)
        try:
            refute_candidate(square, cand, 2, precheck=False)
        except StepFailed as e:
            pass
        # independently recompute the indices the trace derives
        chain = square.chain_algebra
        g0 = cand.diagram.objects["b"]
        d0 = g0.delta
        cs0 = g0.sem
        assert not cs0.leq(d0(0, "p"), d0(0, 0))  # i = 0 escapes
        atom1 = conc(chain).principal(1, 2)
        assert cs0.leq(atom1, d0("p", 2)) or cs0.leq(atom1, d0(0, "p"))

    def test_exhaustive_bound_zero(self, square):
        outcomes = list(enumerate_candidates(square, 2, size_bound=0))
        assert len(outcomes) == 1
        cand = outcomes[0].candidate
        assert isinstance(cand, CandidateSquare)
        with pytest.raises(PreconditionFailed):
            refute_candidate(square, cand, 2)

    @pytest.mark.parametrize("K, expected_pruned", [
        ("M3", {"distance-equivariance": 8, "lattice-n-permutable": 5, "square-commutes": 1}),
        ("L2", {"distance-equivariance": 5, "lattice-n-permutable": 6}),
        ("L3", {"distance-equivariance": 9, "lattice-n-permutable": 6}),
        ("L4", {"distance-equivariance": 8, "lattice-n-permutable": 5, "square-commutes": 1}),
    ], ids=["M3", "L2", "L3", "L4"])
    def test_exhaustive_bound_one(self, K, expected_pruned):
        square = build_square(K, 2)
        candidates = 0
        rejected = {}
        pruned = {}
        stepfails = 0
        certificates = 0
        for out in enumerate_candidates(square, 2, size_bound=1):
            if out.status == "candidate":
                cand = out.candidate
                candidates += 1
                try:
                    refute_candidate(square, cand, 2)
                except PreconditionFailed as e:
                    rejected[e.reason] = rejected.get(e.reason, 0) + 1
                except StepFailed:
                    stepfails += 1
                else:
                    certificates += 1
            else:
                pruned[out.reason] = pruned.get(out.reason, 0) + 1
        assert stepfails == 0 and certificates == 0
        assert candidates == 1
        assert rejected == {"lattice-n-permutable": 1}
        assert pruned == expected_pruned

    @pytest.mark.parametrize("fixture, nodes", [
        ("M3", 20), ("L2", 116), ("L3", 122), ("L4", 20), ("all-two", 743),
    ])
    def test_search_node_count(self, monkeypatch, fixture, nodes):
        # the enumeration visits exactly this many search nodes: one fewer
        # exhausts the budget, and exactly this many completes
        square = _all_two_square() if fixture == "all-two" else build_square(fixture, 2)
        monkeypatch.setattr(constructions, "MAX_NODES", nodes - 1)
        with pytest.raises(SearchExhausted):
            list(enumerate_candidates(square, 2, size_bound=1))
        monkeypatch.setattr(constructions, "MAX_NODES", nodes)
        list(enumerate_candidates(square, 2, size_bound=1))

    def test_exhaustive_stream_reaches_top_placement(self):
        # both wings identify the top two chain elements and the top node is
        # a wing again, so the bottom pad reaches the top placement and a
        # padded candidate is materialized
        outcomes = list(enumerate_candidates(_chain_onto_two_square(), 2, size_bound=1))
        stream = [
            (o.status, o.reason, o.candidate.label if o.candidate else None)
            for o in outcomes
        ]
        assert stream == (
            [("candidate", "", "algebra-square"), ("candidate", "", "padded[b]")]
            + [("pruned", "distance-equivariance", None)] * 4
            + [("pruned", "lattice-n-permutable", None)] * 5
        )
        diagram = outcomes[1].candidate.diagram
        assert diagram.validate()[0]
        for node in ("l", "r", "t"):
            assert diagram.arrows[("b", node)].f("pb") == 0

    def test_exhaustive_stream_pushes_pad_cells(self):
        # every node and arrow is the identity of `two`, so a pad may map to
        # the next node's pad; its decided cells are then pushed along the
        # arrow, and at the top the cells pushed from the two wings conflict
        outcomes = list(enumerate_candidates(_all_two_square(), 2, size_bound=1))
        assert Counter((o.status, o.reason) for o in outcomes) == {
            ("candidate", ""): 4,
            ("pruned", "distance-equivariance"): 26,
            ("pruned", "lattice-variety"): 12,
            ("pruned", "morphism"): 6,
            ("pruned", "operational-cell"): 8,
            ("pruned", "square-commutes"): 54,
        }
        assert [o.detail for o in outcomes if o.reason == "morphism"] == [("t", ("pt", "pt"))] * 6
        candidates = [o.candidate for o in outcomes if o.status == "candidate"]
        assert [c.label for c in candidates] == ["algebra-square"] + ["padded[b,l,r,t]"] * 3
        for cand in candidates[1:]:
            assert cand.diagram.validate()[0]
            assert cand.diagram.arrows[("b", "t")].f("pb") == "pt"

    def test_refute_rejects_a_chain_shorter_than_n_plus_1(self):
        # the bottom node `two` has 2 elements, but n = 2 needs a 3-chain
        square = _all_two_square()
        outcomes = list(enumerate_candidates(square, 2, size_bound=1))
        candidates = [o.candidate for o in outcomes if o.status == "candidate"]
        assert len(candidates) == 4
        for cand in candidates:
            with pytest.raises(PreconditionFailed) as e:
                refute_candidate(square, cand, 2)
            assert (e.value.reason, e.value.detail) == ("chain-length", (2, 3))

    def test_one_element_bottom_has_no_padded_branch(self):
        # Con of a one-element algebra is trivial, so the bottom pad has no
        # nonzero distance row: nothing is placed and nothing is pruned
        outcomes = list(enumerate_candidates(_chain_onto_two_square(1), 2, size_bound=1))
        assert [(o.status, o.candidate.label) for o in outcomes] == [
            ("candidate", "algebra-square"),
        ]

    def test_materialization_lets_a_key_error_through(self, monkeypatch):
        # only a map that is not a morphism prunes at materialization; any
        # other error, here one injected into the diagram build, propagates
        square = _chain_onto_two_square()
        square.ga_square

        def broken(*args):
            raise KeyError("injected")

        monkeypatch.setattr(Diagram, "from_generators", broken)
        with pytest.raises(KeyError, match="injected"):
            list(enumerate_candidates(square, 2, size_bound=1))

    @pytest.mark.parametrize("bottom, labels, pruned", [
        (
            "chain:3",
            ["algebra-square", "padded[o]"],
            {"distance-equivariance": 6, "lattice-n-permutable": 5},
        ),
        (
            "two",
            ["algebra-square"] + ["padded[o,x,y,z,xy,xz,yz,xyz]"] * 3,
            {
                "distance-equivariance": 110, "lattice-variety": 39, "morphism": 24,
                "operational-cell": 26, "square-commutes": 306,
            },
        ),
    ], ids=["chain:3", "two"])
    def test_exhaustive_stream_over_a_cube(self, bottom, labels, pruned):
        # the enumerator walks any finite poset, not only the square: over
        # the 2^3 cube each node sits over up to three lower covers, and the
        # bottom pad reaches the top along six routes
        outcomes = list(enumerate_candidates(_cube_square(build_named(bottom).algebra), 2, 1))
        candidates = [o.candidate for o in outcomes if o.status == "candidate"]
        assert [c.label for c in candidates] == labels
        assert Counter(o.reason for o in outcomes if o.status == "pruned") == pruned
        for cand in candidates:
            assert cand.diagram.validate()[0]

    def test_cube_preconditions_walk_the_index_poset(self):
        # the preconditions are checked at every node of the candidate's own
        # poset: over the 2^3 cube the algebra candidate fails permutability
        # at the bottom node, and the padded candidate passes them all
        square = _cube_square(build_named("chain:3").algebra)
        outcomes = enumerate_candidates(square, 2, 1)
        algebra, padded = [o.candidate for o in outcomes if o.status == "candidate"]
        with pytest.raises(PreconditionFailed) as exc:
            constructions._candidate_preconditions(square.ga_square, algebra.diagram, 2)
        assert exc.value.reason == "lattice-n-permutable"
        assert exc.value.detail == ("o", ("no interpolants", (0, 1, 2)))
        assert padded.label == "padded[o]"
        constructions._candidate_preconditions(square.ga_square, padded.diagram, 2)


class TestNodeStateAgreesWithCheckAxioms:
    # the enumerator's incremental checks on a node's index matrix accept
    # exactly what check_axioms accepts on the node's snapshot, at every node
    # of the square with at most this many candidate pad rows
    ROW_CAP = 3000

    @pytest.mark.parametrize("K, checked", [("M3", 4), ("L2", 1), ("L3", 2), ("L4", 4)])
    def test_rows_and_cells(self, K, checked):
        nodes = 0
        for g in build_square(K, 2).ga_square.objects.values():
            state = constructions._NodeState(g.inner, g.sem, g.pregamp.dist_rows, "p")
            nonzero = [d for d in range(len(g.sem)) if d != state.zero]
            if len(nonzero) ** len(g.inner) > self.ROW_CAP:
                continue
            nodes += 1
            passing = []
            for row in map(list, product(nonzero, repeat=len(g.inner))):
                state.place_row(row)
                snapshot = state.gamp().pregamp
                assert snapshot.dist_rows is state.D
                if check_axioms(snapshot)[0]:
                    passing.append(row)
            state.place_row(None)
            assert constructions._nonzero_row_options(state) == passing
            assert passing
            state.place_row(passing[0])
            points = range(len(state.universe()))
            # each undefined cell at each value, on indices, first with no
            # decided cell, then with the first compatible one decided
            for _ in range(2):
                accepted = []
                for op, a, b in product(("meet", "join"), points, points):
                    if state.cell(op, a, b) is not None:
                        continue
                    for v in points:
                        state.cells[(op, a, b)] = v
                        ok, viol = check_axioms(state.gamp().pregamp)
                        del state.cells[(op, a, b)]
                        assert ok or viol[0] == "compatibility"
                        assert state.compatible_with(op, a, b, v) == ok, (op, a, b, v, viol)
                        if ok:
                            accepted.append(((op, a, b), v))
                state.cells.update(accepted[:1])
            assert accepted
        assert nodes == checked


def _chain_onto_two_square(k=3):
    """Companion square with the k-element chain at the bottom, mapped onto
    `two` at both wings, and identities of `two` into the top."""
    chain, two = build_named(f"chain:{k}").algebra, build_named("two").algebra
    onto = {x: min(x, 1) for x in chain.universe}
    a_square = Diagram.from_generators(
        FinitePoset.square(),
        {"b": chain, "l": two, "r": two, "t": two},
        {
            ("b", "l"): PalgMorphism.from_map(chain, two, onto),
            ("b", "r"): PalgMorphism.from_map(chain, two, onto),
            ("l", "t"): PalgMorphism.identity(two),
            ("r", "t"): PalgMorphism.identity(two),
        },
    )
    return UnliftableSquare(2, None, None, a_square, (), {})


def _cube_square(bottom):
    """Companion diagram over the 2^3 cube: `bottom` at the least node,
    mapped onto `two` at the three atoms, and identities of `two` above."""
    two = build_named("two").algebra
    nodes = ["o", "x", "y", "z", "xy", "xz", "yz", "xyz"]
    covers = [("o", a) for a in "xyz"] + [
        (u, v) for u in nodes[1:] for v in nodes[1:] if len(v) == len(u) + 1 and set(u) < set(v)
    ]
    objects = {p: two for p in nodes}
    objects["o"] = bottom
    onto = {x: min(x, 1) for x in bottom.universe}
    arrows = {
        (u, v): PalgMorphism.from_map(bottom, two, onto) if u == "o" else PalgMorphism.identity(two)
        for (u, v) in covers
    }
    a_diagram = Diagram.from_generators(FinitePoset.from_covers(nodes, covers), objects, arrows)
    return UnliftableSquare(2, None, None, a_diagram, (), {})


def _all_two_square():
    """Companion square whose nodes and arrows are all the identity of `two`."""
    two = build_named("two").algebra
    ident = PalgMorphism.identity(two)
    a_square = Diagram.from_generators(
        FinitePoset.square(),
        {p: two for p in ("b", "l", "r", "t")},
        {cover: ident for cover in (("b", "l"), ("b", "r"), ("l", "t"), ("r", "t"))},
    )
    return UnliftableSquare(2, None, None, a_square, (), {})


def _padded_non_commuting_candidate(square):
    """Bottom node padded with the forced interpolant, wings and top the
    algebra gamps, and the pad routed to the two different wing atoms.

    Not a commuting square, so it must be built with validation off; the
    refutation trace is expected to detect the disagreement at the top.
    """
    from gampkit.congruence import conc_morphism

    a_sq = square.a_square
    chain = square.chain_algebra
    cs0 = conc(chain)
    a0, a1, a2 = chain.universe
    alpha0 = cs0.principal(a0, a1)
    alpha1 = cs0.principal(a1, a2)

    outer_ops = {
        "meet": dict(chain.ops["meet"]),
        "join": dict(chain.ops["join"]),
    }
    outer_ops["meet"].update({
        (a0, "p"): a0, ("p", a0): a0,
        ("p", a2): "p", (a2, "p"): "p",
        ("p", "p"): "p",
    })
    outer = PartialAlgebra.from_ops(LATTICE_TYPE, [a0, a1, a2, "p"], outer_ops)
    dist = {}
    for x in chain.universe:
        for y in chain.universe:
            dist[(x, y)] = cs0.principal(x, y)
    row = {a0: alpha1, a1: cs0.join(alpha0, alpha1), a2: alpha0}
    for x, v in row.items():
        dist[("p", x)] = v
        dist[(x, "p")] = v
    dist[("p", "p")] = cs0.zero
    g0 = Gamp(chain, Pregamp.from_dist(outer, dist, cs0))

    ga_sq = apply_functor(a_sq, "GA")
    nodes = {"b": g0, "l": ga_sq.objects["l"], "r": ga_sq.objects["r"], "t": ga_sq.objects["t"]}
    wing_pad_image = {"l": ("x1",), "r": ("x2",)}
    arrows = {}
    for node in ("l", "r"):
        base = a_sq.arrows[("b", node)]
        fmap = {x: base(x) for x in chain.universe}
        fmap["p"] = wing_pad_image[node]
        arrows[("b", node)] = GampMorphism(
            g0, nodes[node],
            PalgMorphism.from_map(outer, nodes[node].outer, fmap),
            conc_morphism(base),
        )
    for node in ("l", "r"):
        arrows[(node, "t")] = ga_sq.arrows[(node, "t")]
    arrows[("b", "t")] = arrows[("l", "t")].after(arrows[("b", "l")])
    for p in SQUARE_NODES:
        arrows[(p, p)] = GampMorphism.identity(nodes[p])
    diagram = Diagram(a_sq.poset, nodes, arrows)
    return CandidateSquare(diagram, "non-commuting-pad")


class TestPreconditionSurface:
    def test_non_commuting_square_rejected_with_precheck(self, square):
        cand = _padded_non_commuting_candidate(square)
        with pytest.raises(PreconditionFailed) as exc:
            refute_candidate(square, cand, 2, precheck=True)
        assert exc.value.reason == "diagram"

    def test_padding_bound_guard(self, square):
        from gampkit.errors import BudgetExceeded

        with pytest.raises(BudgetExceeded):
            list(enumerate_candidates(square, 2, size_bound=2))

    def test_padded_carrier_cap_fires_before_first_item(self):
        from gampkit.errors import BudgetExceeded

        # M3 at n = 3 has a 125-element top node: the cap must fire before
        # the algebra-square candidate is built and yielded
        with pytest.raises(BudgetExceeded):
            next(enumerate_candidates(build_square("M3", 3), 3, 1))

    def test_inner_image_mismatch_rejected(self, square):
        # a candidate over the wrong inner algebras must be refused
        other = build_square("L2", 2)
        cand = algebra_square_candidate(other)
        with pytest.raises(PreconditionFailed) as exc:
            refute_candidate(square, cand, 2)
        assert exc.value.reason in ("inner-image", "lattice-n-permutable")
