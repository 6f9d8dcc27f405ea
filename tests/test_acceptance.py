"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime against the stated budget."""

import gc
import json
import random
import time
import tracemalloc

import pytest

from gampkit import build_named, build_square
from gampkit.congruence import (
    MalcevWitness,
    NoContainment,
    _elementwise_n_permutable,
    _relational_n_permutable,
    con_lattice,
    conc,
    conc_morphism,
    congruence_closure,
    is_n_permutable,
    malcev_witness,
    principal_congruence,
)
from gampkit.constructions import (
    CandidateSquare,
    algebra_square_candidate,
    enumerate_candidates,
    refute_candidate,
    verify_square_facts,
)
from gampkit.errors import PreconditionFailed, StepFailed
from gampkit.gamp import (
    check_morphism_property,
    check_property,
    ga,
    ga_mor,
    induced_gamp_morphism,
    is_chain,
    quotient_gamp,
)
from gampkit.palg import (
    LATTICE_IDENTITIES,
    PalgMorphism,
    PartialAlgebra,
    compile_identities,
    first_counterexamples,
    is_lattice_algebra,
)
from gampkit.poset import FinitePoset, KPosetSpec, kposet, kposet_cover_check
from gampkit.pregamp import check_axioms, is_pregamp_of, pga
from gampkit.semilattice import SemIdeal, SemMorphism, enumerate_ideals, quotient
from oracles import least_congruence_bruteforce


CORPUS = ["two", "chain:3", "chain:4", "chain:5", "M3", "N5", "X1", "X2"]


def _report(num, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {num} PASS ({elapsed:.1f}s < {budget}s): {label}")


def test_criterion_1_congruence_oracle_equivalence(fixture_lattices):
    t0 = time.monotonic()
    for name in CORPUS:
        alg = fixture_lattices[name]
        if len(alg.universe) > 6:
            continue
        for x in alg.universe:
            for y in alg.universe:
                fast = principal_congruence(alg, x, y)
                slow = least_congruence_bruteforce(alg, x, y)
                assert fast == slow, (name, x, y)
    _report(1, "principal congruences match brute-force least congruences", t0, 10)


# Budgets of 10x the median of five runs of the body, each in a fresh process
# on a shared 2-core host, the convention for gates that run in milliseconds
# (see the Con budgets below): medians 6.7 ms, 12.2 ms and 12.1 ms.
@pytest.mark.parametrize("K,n,budget", [("M3", 2, 0.067), ("M3", 3, 0.12), ("L2", 3, 0.12)])
def test_criterion_2_square_facts(K, n, budget):
    t0 = time.monotonic()
    square = build_square(K, n)
    report = verify_square_facts(square)
    facts = report["facts"]
    assert facts["meet_of_principals_zero"] == {"l": True, "r": True}
    assert facts["chain_con_boolean"]
    assert all(v["ok"] for v in facts["nodes_n_plus_1_permutable"].values())
    assert facts["squares_commute"]
    assert all(facts["projections_natural"].values())
    _report(2, f"square facts for K={K}, n={n}", t0, budget)


def test_criterion_3_permutability_characterizations(fixture_lattices):
    t0 = time.monotonic()
    for name in CORPUS:
        alg = fixture_lattices[name]
        congs = con_lattice(alg)
        for n in (2, 3, 4):
            rel, _ = _relational_n_permutable(alg, n, congs)
            el, _ = _elementwise_n_permutable(alg, n)
            assert rel == el, (name, n)
    _report(3, "relational and element-wise permutability agree", t0, 30)


def test_criterion_4_quotient_functoriality(fixture_lattices):
    t0 = time.monotonic()
    arrows = {
        "chain:3->X1": ("chain:3", "X1", {0: "0", 1: "x3", 2: "1"}),
        "X1->M3": ("X1", "M3", {"0": "0", "m": "0", "x1": "x1", "x3": "x3", "1": "1"}),
    }
    for name in CORPUS:
        alg = fixture_lattices[name]
        g = ga(alg)
        held_n = {n: bool(check_property(g, "n_permutable", n=n)) for n in (2, 3)}
        dg_chains = bool(check_property(g, "distance_generated_chains"))
        for ideal in enumerate_ideals(g.sem):
            qg, proj = quotient_gamp(g, ideal)
            # preservation clauses: strong, distance generation with chains,
            # tractability, permutability, chain images
            assert bool(check_property(qg, "strong"))
            assert bool(check_property(qg, "distance_generated"))
            if dg_chains:
                assert bool(check_property(qg, "distance_generated_chains"))
            assert bool(check_property(qg, "congruence_tractable"))
            for n, held in held_n.items():
                if held:
                    assert bool(check_property(qg, "n_permutable", n=n))
            bottom = next(x for x in alg.universe if all(
                alg.ops["meet"][(x, y)] == x for y in alg.universe
            ))
            top = next(x for x in alg.universe if all(
                alg.ops["join"][(x, y)] == x for y in alg.universe
            ))
            assert is_chain(qg, [proj.f(bottom), proj.f(top)])
            # the algebra-gamp quotient is the gamp of the quotient algebra
            from gampkit.congruence import quotient_algebra

            join_i = g.sem.join_all(ideal.carrier)
            qalg, qproj = quotient_algebra(alg, join_i)
            other = ga(qalg)
            explicit = {proj.f(x): qproj(x) for x in alg.universe}
            from gampkit.gamp import GampMorphism

            iso = GampMorphism(
                qg, other,
                PalgMorphism.from_map(qg.outer, other.outer, explicit),
                SemMorphism.from_map(
                    qg.sem, other.sem,
                    {d: conc_morphism(qproj)(
                        next(t for t in g.sem.elements if proj.fsem(t) == d)
                    ) for d in qg.sem.elements},
                ),
            )
            from gampkit.palg import is_palg_isomorphism

            assert is_palg_isomorphism(iso.f)
            assert iso.fsem.is_injective() and iso.fsem.is_surjective()
    # arrow clauses on quotient morphisms
    for label, (src, tgt, mapping) in arrows.items():
        f = PalgMorphism.from_map(fixture_lattices[src], fixture_lattices[tgt], mapping)
        fm = ga_mor(f)
        for prop in ("strong", "cuttable", "cuttable_chains"):
            assert bool(check_morphism_property(fm, prop, x_cap=2)), (label, prop)
        for ideal_src in enumerate_ideals(fm.source.sem)[:4]:
            gens = {fm.fsem(t) for t in ideal_src.carrier}
            ideal_tgt = SemIdeal.generated(fm.target.sem, gens)
            _, proj_src = quotient_gamp(fm.source, ideal_src)
            _, proj_tgt = quotient_gamp(fm.target, ideal_tgt)
            ind = induced_gamp_morphism(fm, proj_src, proj_tgt)
            for prop in ("strong", "cuttable", "cuttable_chains"):
                assert bool(check_morphism_property(ind, prop, x_cap=2)), (label, prop)
    _report(4, "quotient preservation and the quotient-gamp isomorphism", t0, 60)


def test_criterion_5_buttress_postconditions():
    t0 = time.monotonic()
    from gampkit.gamp import buttress

    cases = []
    for base_name, n_perm in (("X1", 3), ("M3", 2)):
        for poset in (FinitePoset.chain(2), FinitePoset.square()):
            cases.append((base_name, poset, n_perm))
    for base_name, poset, n_perm in cases:
        alg = build_named(base_name).algebra
        cs = conc(alg)
        bottom_node = poset.linear_extension()[0]
        gens = {principal_congruence(alg, alg.universe[0], alg.universe[1])}
        phis = {}
        for p in poset.elements:
            ideal = SemIdeal.generated(cs, gens) if p == bottom_node else SemIdeal.zero(cs)
            _, proj = quotient(cs, ideal)
            phis[p] = proj
        # buttress re-verifies the four conditions and the requested extras
        diagram = buttress(alg, poset, phis, with_chains=True, n_permutable=n_perm)
        ok, _ = diagram.validate()
        assert ok
    # budget 10x the median of five fresh-process runs of the body, 55 ms,
    # as for criterion 2
    _report(5, "buttress diagrams pass all stated conditions plus extras", t0, 0.55)


def test_criterion_6_kposet_covers():
    t0 = time.monotonic()
    rng = random.Random(20250809)
    checked = 0
    while checked < 20:
        k = rng.randint(2, 4)
        if rng.random() < 0.5:
            base = FinitePoset.chain(k)
        else:
            els = list(range(k)) + ["m"]
            leq = [(i, j) for i in range(k) for j in range(i, k)]
            leq += [(0, "m")]
            base = FinitePoset(els, leq)
        marks = tuple(sorted(rng.sample(list(base.elements), rng.randint(1, 2)), key=str))
        branch = tuple(
            (m, tuple(f"r{idx}" for idx in range(rng.randint(1, 3)))) for m in marks
        )
        depth = rng.randint(1, 3)
        spec = KPosetSpec(base, marks, branch, depth)
        poset, tree = kposet(spec, budget=200)
        if len(poset.elements) > 200:
            continue
        assert len(poset.elements) == len(tree) * len(base)
        ok, _, _ = kposet_cover_check(spec, budget=200)
        assert ok
        checked += 1
    _report(6, f"cover law matches brute force on {checked} random tree posets", t0, 30)


def test_criterion_7_refutation_exhaustive():
    # budget 10x the median of five fresh-process runs of the body, 18.3 ms,
    # as for criterion 2
    t0 = time.monotonic()
    square = build_square("M3", 2)
    bound = 1
    candidates = 0
    rejected = {}
    pruned = {}
    step_failures = 0
    certificates = 0
    for out in enumerate_candidates(square, 2, size_bound=bound):
        if out.status == "candidate":
            cand = out.candidate
            candidates += 1
            try:
                cert = refute_candidate(square, cand, 2)
            except PreconditionFailed as e:
                rejected[e.reason] = rejected.get(e.reason, 0) + 1
            except StepFailed:
                step_failures += 1
            else:
                assert cert.validate(square)
                certificates += 1
        else:
            pruned[out.reason] = pruned.get(out.reason, 0) + 1
    assert step_failures == 0
    # every materialized candidate was dispatched, every pruned branch names
    # its violated precondition, and nothing survived
    assert candidates == sum(rejected.values()) + certificates
    assert certificates == 0
    assert sum(pruned.values()) > 0
    print(
        f"  bound={bound} candidates={candidates} rejected={rejected} "
        f"pruned-classes={pruned}"
    )
    _report(7, "exhaustive refutation sweep at padding bound 1", t0, 0.18)


def test_criterion_8_malcev_soundness(fixture_lattices):
    t0 = time.monotonic()
    rng = random.Random(42)
    names = [n for n in CORPUS]
    validated = 0
    for _ in range(1000):
        alg = fixture_lattices[rng.choice(names)]
        els = list(alg.universe)
        x, y = rng.choice(els), rng.choice(els)
        m = rng.randint(1, 2)
        xs = tuple(rng.choice(els) for _ in range(m))
        ys = tuple(rng.choice(els) for _ in range(m))
        res = malcev_witness(alg, x, y, xs, ys)
        if isinstance(res, MalcevWitness):
            assert res.validate(alg, x, y, xs, ys)
            # a validated chain forces the relational containment
            assert congruence_closure(alg, list(zip(xs, ys))).same(x, y)
            validated += 1
        elif isinstance(res, NoContainment):
            assert not congruence_closure(alg, list(zip(xs, ys))).same(x, y)
    assert validated > 100
    _report(8, f"1000 randomized queries, {validated} witnesses validated", t0, 60)


# The Con budgets below are a stated multiple of the median of five runs,
# each in a fresh process, on a shared 2-core host: 10x for the gates that
# run in milliseconds, where scheduling noise is of the same size, 5x for
# the others. On a lattice Con comes from Day's relation on J(L), and the
# only closures are the cross-check's, one per join-irreducible.


def test_budget_conc_distances_on_m3_squared():
    # the principal distance matrix of a 25-element power, from 6
    # join-irreducibles: median 3.7 ms; the budget is kept from when the
    # body also built the label table (median 8.5 ms)
    t0 = time.monotonic()
    cs = conc(build_named("power:M3:2").algebra)
    assert len(cs) == 4 and len(cs.dist_rows) == 25 and {len(row) for row in cs.dist_rows} == {25}
    _report("budget", "conc(power:M3:2).dist_rows", t0, 0.1)


def test_budget_conc_on_x1_squared():
    # Con(A) of a 25-element power with 64 congruences, built once by
    # con_lattice and kept for conc: median 5.9 ms (10.2 ms when each built it)
    alg = build_named("power:X1:2").algebra
    t0 = time.monotonic()
    assert len(con_lattice(alg)) == len(conc(alg)) == 64
    _report("budget", "con_lattice and conc on power:X1:2", t0, 0.2)


def test_budget_pga_on_m3_cubed():
    # the 15,625 principal distances of a 125-element power, from 9
    # join-irreducibles, kept as Conc's matrix with no label table; the
    # cross-check closes through the 18 lifted translation maps: median 52 ms
    alg = build_named("power:M3:3").algebra
    t0 = time.monotonic()
    pg = pga(alg)
    assert len(pg.sem) == 8 and len(pg.dist_rows) == 125 and {len(row) for row in pg.dist_rows} == {125}
    _report("budget", "pga(power:M3:3)", t0, 0.52)


def test_budget_principal_congruences_on_m3_cubed():
    # four closures through the 18 lifted translation maps, the power's
    # tables never built: median 2.4 ms. M3 is simple and lattices are
    # congruence-distributive, so Theta(x, y) collapses exactly the
    # coordinates where x and y differ. A collection first, so that no
    # full collection of the test session's objects lands in the timing.
    alg = build_named("power:M3:3").algebra
    u = alg.universe
    pairs = [(u[0], u[124]), (u[1], u[62]), (u[30], u[31]), (u[7], u[100])]
    gc.collect()
    t0 = time.monotonic()
    found = [principal_congruence(alg, x, y) for x, y in pairs]
    _report("budget", "four principal congruences of power:M3:3", t0, 0.024)
    for (x, y), theta in zip(pairs, found):
        keep = [i for i in range(3) if x[i] == y[i]]
        assert all(theta.same(a, b) == all(a[i] == b[i] for i in keep) for a in u for b in u)


def test_budget_conc_on_x1_cubed():
    # Con of a 125-element power with 512 congruences, its join kept on
    # indices only: median 0.175 s
    alg = build_named("power:X1:3").algebra
    t0 = time.monotonic()
    assert len(conc(alg)) == 512
    _report("budget", "conc(power:X1:3)", t0, 0.875)


def test_budget_is_n_permutable_on_m3_cubed():
    # 125^8 is over ELEMENTWISE_LIMIT, and M3 is 4-permutable, so the power
    # is decided by its factor (Fraser-Horn)
    alg = build_named("power:M3:3").algebra
    t0 = time.monotonic()
    assert is_n_permutable(alg, 4) == (True, None)
    _report("budget", "is_n_permutable(power:M3:3, 4)", t0, 0.5)


def test_budget_is_n_permutable_on_chain4_cubed():
    # decided by its factor, without the power's 512 congruences, which the
    # relational check composed pair by pair in 16 s: median 1.45 ms; a
    # collection first, as above
    power = PartialAlgebra.product([build_named("chain:4").algebra] * 3)
    gc.collect()
    t0 = time.monotonic()
    assert is_n_permutable(power, 4) == (True, None)
    _report("budget", "is_n_permutable(chain:4^3, 4)", t0, 0.0145)


def test_budget_is_n_permutable_on_n5_squared():
    # 25 points, so the element-wise chain condition runs as the
    # cross-check, decided by its verdict pass: median 0.034 s
    alg = build_named("power:N5:2").algebra
    t0 = time.monotonic()
    assert is_n_permutable(alg, 2) == (True, None)
    _report("budget", "is_n_permutable(power:N5:2, 2)", t0, 0.3)


def test_budget_n_permutable_stops_at_the_first_failing_tuple():
    # X1 is not 2-permutable, and the first failing tuple of its square
    # starts at the first point: the verdict pass runs from that point only
    # and finds the reach of the states it reads, median 1.5 ms (0.03 s when
    # the pass ran from every point first); a collection first, as above
    g = ga(build_named("power:X1:2").algebra)
    assert len(g.pregamp.dist_rows) == 25
    gc.collect()
    t0 = time.monotonic()
    verdict = check_property(g, "n_permutable", 2)
    _report("budget", "check_property(ga(power:X1:2), n_permutable, 2)", t0, 0.015)
    assert verdict.witness == ("no interpolants", (("0", "0"), ("0", "m"), ("0", "x1")))


def test_budget_is_lattice_algebra_on_m3_cubed():
    # a 125-element power built and decided by its factor, M3, itself
    # decided when built; the power's tables are never built, where its
    # meet order took 43 ms with them: median 0.58 ms. A collection first,
    # as above.
    gc.collect()
    t0 = time.monotonic()
    alg = build_named("power:M3:3").algebra
    assert is_lattice_algebra(alg)
    _report("budget", "build and is_lattice_algebra(power:M3:3)", t0, 0.0058)
    assert "tables" not in vars(alg)


# The distance axioms: compatibility on a total carrier is "every translation
# map is non-expanding", 12 maps of 25 points on power:M3:2 and 18 of 125 on
# power:M3:3, where the pair loop ran 390,625 pairs per operation on the
# first and 244 million on the second. Medians 2.1 ms (budget 10x) and
# 0.147 s (budget 5x), the latter mostly the triangle inequality.


def test_budget_check_axioms_on_m3_squared():
    pg = pga(build_named("power:M3:2").algebra)
    t0 = time.monotonic()
    assert check_axioms(pg) == (True, None)
    _report("budget", "check_axioms(pga(power:M3:2))", t0, 0.021)


def test_budget_check_axioms_on_m3_cubed():
    pg = pga(build_named("power:M3:3").algebra)
    t0 = time.monotonic()
    assert check_axioms(pg) == (True, None)
    _report("budget", "check_axioms(pga(power:M3:3))", t0, 0.73)


def test_budget_is_pregamp_of_on_m3_cubed():
    # the lattice identities on the 8 ideal quotients of a 125-element
    # pregamp: its carrier is a lattice, decided by its factor, and each
    # ideal's class map is closed under the 18 lifted translation maps, so
    # every quotient is an image of it and none is checked: median 2.06 ms,
    # budget 5x (one kernel call per ideal took a median 0.71 s). A
    # collection first, as above. Then the kernel itself under tracemalloc,
    # on all 125 points: its blocks hold one value of the first variable, so
    # columns of 125^2 cells, and it peaked at 1.5 MB; evaluated on whole
    # grids of 125^3 cells it peaked at 100 MB.
    pg = pga(build_named("power:M3:3").algebra)
    gc.collect()
    t0 = time.monotonic()
    assert is_pregamp_of(pg, LATTICE_IDENTITIES) == (True, None)
    _report("budget", "is_pregamp_of(pga(power:M3:3), LATTICE_IDENTITIES)", t0, 0.0103)
    compiled, alg = compile_identities(LATTICE_IDENTITIES), pg.carrier
    tables = alg.tables
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        found = first_counterexamples(compiled, range(len(alg)), tables)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert found == [None] * len(LATTICE_IDENTITIES)
    assert peak < 8e6, f"the identity kernel on power:M3:3 peaked at {peak / 1e6:.1f} MB >= 8 MB"
    print(f"ACCEPTANCE budget PASS (peak {peak / 1e6:.1f} MB < 8 MB): identity kernel memory")


def test_budget_buttress_m3_square_with_chains():
    # every node's tractability instances are met by Cg of their pairs, and
    # each distinct check runs once: median 3.3 ms (5.1 ms when l, r and t
    # each ran theirs), budget 10x
    from gampkit.gamp import buttress

    alg = build_named("M3").algebra
    poset = FinitePoset.square()
    cs = conc(alg)
    kernel = SemIdeal.generated(cs, {principal_congruence(alg, "0", "x1")})
    bottom = poset.linear_extension()[0]
    phis = {
        p: quotient(cs, kernel if p == bottom else SemIdeal.zero(cs))[1] for p in poset.elements
    }
    t0 = time.monotonic()
    diagram = buttress(alg, poset, phis, with_chains=True, n_permutable=2)
    assert diagram.validate()[0]
    _report("budget", "buttress(M3, square, chains) and validate", t0, 0.033)


@pytest.mark.parametrize("chains, budget", [(False, 0.26), (True, 0.35)])
def test_budget_buttress_m3_squared_over_a_chain(chains, budget):
    # the top node's inner part is all 25 points, so its tractability
    # instances are the 45,151 sets of at most two of its 300 pairs; each
    # pair is closed once, and an instance whose bound and pair congruences
    # already passed is not checked again: medians 0.052 s and 0.070 s,
    # budget 5x
    from gampkit.gamp import buttress

    alg = build_named("power:M3:2").algebra
    poset = FinitePoset.chain(2)
    cs = conc(alg)
    kernel = SemIdeal.generated(cs, {principal_congruence(alg, *alg.universe[:2])})
    bottom = poset.linear_extension()[0]
    phis = {
        p: quotient(cs, kernel if p == bottom else SemIdeal.zero(cs))[1] for p in poset.elements
    }
    t0 = time.monotonic()
    diagram = buttress(alg, poset, phis, with_chains=chains, n_permutable=2)
    assert diagram.validate()[0]
    assert len(diagram.objects[poset.linear_extension()[-1]].inner) == 25
    _report("budget", f"buttress(power:M3:2, chain2, chains={chains}) and validate", t0, budget)


# The n = 4 frontier through the CLI, in process. Maps into the powers are
# checked from their factors, so no power builds its tables: 4,096 and 15,625
# elements at M3's nodes l and t, 5^6 = 15,625 at L4's node t, 7^6 = 117,649
# at L2's. Every map is an index list: the inclusions and projections of the
# powers are read off index digits, and fact (d) composes lists. Budgets are
# 5x the median of five runs, each in a fresh process, on a shared 2-core
# host.


def test_budget_repro_m3_n4_facts(capsys):
    # median 0.08 s (0.19 s while maps were label dicts)
    from gampkit.cli import run

    t0 = time.monotonic()
    assert run(["repro", "unliftable", "--K", "M3", "--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["facts"]["ok"]
    _report("budget", "repro --K M3 --n 4", t0, 0.4)


def test_budget_repro_l4_n4_facts(capsys):
    # median 0.19 s (0.56 s while maps were label dicts)
    from gampkit.cli import run

    t0 = time.monotonic()
    assert run(["repro", "unliftable", "--K", "L4", "--n", "4"]) == 0
    capsys.readouterr()
    _report("budget", "repro --K L4 --n 4", t0, 1)


def test_budget_repro_l2_n4_facts(capsys):
    # 117,649 elements at node t, and six projections out of it: median
    # 0.5 s (2.0 s while maps were label dicts)
    from gampkit.cli import run

    t0 = time.monotonic()
    assert run(["repro", "unliftable", "--K", "L2", "--n", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["facts"]["ok"]
    _report("budget", "repro --K L2 --n 4", t0, 2.5)


def test_budget_repro_m3_n4_bound_0_refused(capsys):
    # the facts hold, then GA refuses node l (4,096 > CON_BOUND) before any
    # Con is built: median 0.09 s (0.27 s while maps were label dicts)
    from gampkit.cli import run

    t0 = time.monotonic()
    assert run(["repro", "unliftable", "--K", "M3", "--n", "4", "--exhaustive-bound", "0"]) == 3
    err = capsys.readouterr().err
    assert err == "error: con_lattice capped at 160 elements (got 4096)\n"
    _report("budget", "repro --K M3 --n 4 --exhaustive-bound 0", t0, 0.5)


def test_budget_repro_m3_n3_bound_0(capsys):
    # the algebra square's one candidate, rejected at lattice-n-permutable;
    # each node's distance axioms through its translation maps, where the
    # pair loop took 136 s, and its variety by the image rule, where one
    # kernel call per ideal quotient took most of a median 1.83 s: median
    # 0.328 s
    from gampkit.cli import run

    t0 = time.monotonic()
    assert run(["repro", "unliftable", "--K", "M3", "--n", "3", "--exhaustive-bound", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    _report("budget", "repro --K M3 --n 3 --exhaustive-bound 0", t0, 1.64)
    assert report["facts"]["ok"]
    assert report["exhaustive"]["rejected"] == {"lattice-n-permutable": 1}
    assert report["exhaustive"]["step_failures"] == 0
