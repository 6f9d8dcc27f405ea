"""The benchmark's workloads: inputs built from the seed, the jobs that run
on them, and each job's expected answer.

A job has three parts. run() is timed and returns the program's raw output.
view(raw) returns the job's deterministic output as JSON-able data, which is
digested to compare runs and commits. check(raw, payload) returns None, or
why the output differs from the expected answer; it runs on the first
output of a job, and the job's later outputs must have the same digest.
"""

import io
import json
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

Job = namedtuple("Job", "id run view check")

MARKED = ("M3", "L2", "L3", "L4")


def _cli_job(cli, argv, check):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue()

    def view(raw):
        code, text = raw
        report = json.loads(text) if text.strip() else None
        if isinstance(report, dict):
            report.pop("seconds", None)
        return {"exit": code, "report": report}

    def check_payload(raw, payload):
        return check(payload["exit"], payload["report"])

    return Job(" ".join(argv), run, view, check_payload)


def _expect_input_error(code, report):
    return None if code == 3 else f"exit {code}, expected 3 (input error)"


def _expect_facts(code, report):
    if code != 0:
        return f"exit {code}, expected 0"
    if not report["facts"]["ok"]:
        return "facts.ok is false"
    return None


def _expect_refuted(code, report):
    problem = _expect_facts(code, report)
    if problem:
        return problem
    ex = report["exhaustive"]
    if ex["step_failures"] != 0:
        return f"step_failures = {ex['step_failures']}"
    if ex["certificates"] != 0:
        return f"certificates = {ex['certificates']}"
    if ex["candidates"] != sum(ex["rejected"].values()) + ex["certificates"]:
        return "candidates != sum(rejected) + certificates"
    return None


def refute(rng):
    """repro unliftable at n=2 and padding bounds 0 and 1."""
    from gampkit import cli

    return [
        _cli_job(cli, ["repro", "unliftable", "--K", k, "--n", "2",
                       "--exhaustive-bound", str(b)], _expect_refuted)
        for k in MARKED
        for b in (0, 1)
    ]


def input_errors():
    """repro unliftable on lattices without the marked elements, which must
    exit 3."""
    from gampkit import cli

    return [
        _cli_job(cli, ["repro", "unliftable", "--K", k, "--n", "2",
                       "--exhaustive-bound", "0"], _expect_input_error)
        for k in ("N5", "X1")
    ]


def facts(rng):
    """repro unliftable at n=3, facts only."""
    from gampkit import cli

    jobs = [
        _cli_job(cli, ["repro", "unliftable", "--K", k, "--n", "3"], _expect_facts)
        for k in MARKED
    ]
    return jobs


# (base, poset, n_permutable): n is the least for which the base is
# congruence n-permutable, so the buttress also adds permutability
# interpolants.
BUTTRESS_CASES = (("X1", "chain2", 3), ("M3", "square", 2), ("N5", "chain2", 2))


def _elements(xs):
    return sorted(map(repr, xs))


def _diagram_view(raw):
    diagram, (ok, _) = raw
    nodes = {
        repr(p): {
            "inner": _elements(g.inner.universe),
            "outer": _elements(g.outer.universe),
            "sem": len(g.sem),
        }
        for p, g in diagram.objects.items()
    }
    return {"ok": ok, "nodes": dict(sorted(nodes.items()))}


def _expect_valid_diagram(raw, payload):
    ok, violation = raw[1]
    return None if ok else f"Diagram.validate: {violation!r}"


def buttress(rng):
    """gamp.buttress in both chain modes, then Diagram.validate; the seed
    picks the generator pair of the bottom node's kernel ideal."""
    from gampkit import gamp
    from gampkit.congruence import conc, principal_congruence
    from gampkit.constructions import build_named
    from gampkit.poset import FinitePoset
    from gampkit.semilattice import SemIdeal, quotient

    posets = {"chain2": FinitePoset.chain(2), "square": FinitePoset.square()}
    jobs = []
    for base, poset_name, n_perm in BUTTRESS_CASES:
        alg = build_named(base).algebra
        poset = posets[poset_name]
        x, y = rng.sample(sorted(alg.universe), 2)
        cs = conc(alg)
        bottom = poset.linear_extension()[0]
        kernel = SemIdeal.generated(cs, {principal_congruence(alg, x, y)})
        phis = {
            p: quotient(cs, kernel if p == bottom else SemIdeal.zero(cs))[1]
            for p in poset.elements
        }
        for chains in (True, False):
            def run(alg=alg, poset=poset, phis=phis, chains=chains, n_perm=n_perm):
                diagram = gamp.buttress(alg, poset, phis, with_chains=chains, n_permutable=n_perm)
                return diagram, diagram.validate()

            job_id = f"buttress {base} {poset_name} kernel={x}/{y} chains={chains} n={n_perm}"
            jobs.append(Job(job_id, run, _diagram_view, _expect_valid_diagram))
    return jobs


def _simple_random_algebra(rng, palg, congruence, size):
    """A total algebra with one binary and one unary operation and random
    tables, redrawn until it is simple. A factor with a proper congruence
    makes its product's job about five times slower, so simple factors give
    every seed about the same work."""
    stype = palg.SimilarityType((("f", 2), ("g", 1)))
    u = list(range(size))
    while True:
        ops = {
            "f": {(a, b): rng.randrange(size) for a in u for b in u},
            "g": {(a,): rng.randrange(size) for a in u},
        }
        alg = palg.PartialAlgebra(stype, u, ops)
        if len(congruence.all_congruences_bruteforce(alg)) == 2:
            return alg


def _blocks(theta):
    return sorted(_elements(b) for b in theta.blocks)


def _con_job(name, alg, n_perm, check):
    """con_lattice, conc and (unless n_perm is None) is_n_permutable."""
    from gampkit import congruence as cong

    def run():
        cons = cong.con_lattice(alg)
        cs = cong.conc(alg)
        perm = cong.is_n_permutable(alg, n_perm) if n_perm is not None else None
        return cons, cs, perm

    def view(raw):
        cons, cs, perm = raw
        return {
            "con": [_blocks(t) for t in cons],
            "conc": len(cs),
            "permutable": None if perm is None else [perm[0], repr(perm[1])],
        }

    def check_all(raw, payload):
        cons, cs, perm = raw
        if len(cs) != len(cons):
            return f"|Conc| = {len(cs)} but |Con| = {len(cons)}"
        return check(cons, perm)

    return Job(name, run, view, check_all)


def _expect_con_size(size, permutable=None):
    def check(cons, perm):
        if len(cons) != size:
            return f"|Con| = {len(cons)}, expected {size}"
        if permutable is not None and perm[0] != permutable:
            return f"permutable = {perm[0]}, expected {permutable}"
        return None

    return check


def _incompatibility(alg, theta):
    """A table entry that theta fails to respect, or None."""
    for name, table in alg.ops.items():
        for args, value in table.items():
            for i, a in enumerate(args):
                for b in theta.block(a):
                    moved = args[:i] + (b,) + args[i + 1:]
                    if table[moved] not in theta.block(value):
                        return f"{name}{args} vs {name}{moved}"
    return None


def _expect_product_cons(congruence, a, b, ab):
    """Each computed partition respects every operation, and every product
    of factor congruences, found by brute force over the factors'
    partitions, is among them."""

    def check(cons, perm):
        for theta in cons:
            bad = _incompatibility(ab, theta)
            if bad:
                return f"{theta!r} is not a congruence: {bad}"
        found = set(cons)
        for ta in congruence.all_congruences_bruteforce(a):
            for tb in congruence.all_congruences_bruteforce(b):
                theta = congruence.Congruence(
                    [set(product(ba, bb)) for ba in ta.blocks for bb in tb.blocks]
                )
                if theta not in found:
                    return f"product congruence {theta!r} missing from Con(A x B)"
        return None

    return check


# Product algebras A x B of random factors: (|A|, |B|) per job.
RANDOM_PRODUCT_SIZES = ((4, 4), (4, 4))
PRINCIPAL_PAIRS = 4


def _principal_job(cong, m3_cubed, pairs):
    def run():
        return [cong.principal_congruence(m3_cubed, x, y) for x, y in pairs]

    def check(raw, payload):
        # M3 is simple and lattices are congruence distributive, so the
        # principal congruence of (x, y) in M3^3 collapses exactly the
        # coordinates where x and y differ.
        for (x, y), theta in zip(pairs, raw):
            keep = [i for i in range(3) if x[i] == y[i]]
            blocks = {}
            for u in m3_cubed.universe:
                blocks.setdefault(tuple(u[i] for i in keep), set()).add(u)
            if theta != cong.Congruence(blocks.values()):
                return f"principal congruence of {x}/{y} is wrong"
        return None

    view = lambda raw: [_blocks(t) for t in raw]  # noqa: E731
    return Job(f"principal congruences of M3^3 at {pairs}", run, view, check)


def congruence(rng):
    """Large distinct kernel computations: lattice powers (cover-pair fast
    path), random non-lattice products (all-pairs path), and principal
    congruences on M3^3 checked factorwise."""
    from gampkit import congruence as cong
    from gampkit import palg
    from gampkit.constructions import build_named

    jobs = [
        _con_job("power:M3:2", build_named("power:M3:2").algebra, 2,
                 _expect_con_size(4, permutable=True)),
        _con_job("power:X1:2", build_named("power:X1:2").algebra, None,
                 _expect_con_size(64)),
    ]
    for i, (m, n) in enumerate(RANDOM_PRODUCT_SIZES):
        a = _simple_random_algebra(rng, palg, cong, m)
        b = _simple_random_algebra(rng, palg, cong, n)
        ab = palg.PartialAlgebra.product([a, b])
        jobs.append(_con_job(f"random product {i} ({m}x{n})", ab, 2,
                             _expect_product_cons(cong, a, b, ab)))
    m3_cubed = build_named("power:M3:3").algebra
    pairs = [tuple(rng.sample(m3_cubed.universe, 2)) for _ in range(PRINCIPAL_PAIRS)]
    jobs.append(_principal_job(cong, m3_cubed, pairs))
    return jobs


# Each workload runs the jobs of its groups in one seeded order. There are
# two workloads rather than one per group because the shared host's speed
# drifts over tens of seconds: the fixed budget of runs gives two workloads
# runs twice as long, and on a shared 2-core host that roughly halved the
# run-to-run spread of wall_s.
WORKLOADS = {
    "repro": (refute, facts),
    "kernels": (buttress, congruence),
}


# Probes run once per run, untimed, after the measured jobs. Their outcome
# goes into the result file and the printed report but not into attempted,
# failed or the metrics: a workload's timed jobs are ones that succeed, and
# a probe that fails is a defect reported beside the measurement.
PROBES = {
    "repro": (input_errors,),
    "kernels": (),
}


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    jobs = [job for group in WORKLOADS[workload] for job in group(rng)]
    rng.shuffle(jobs)
    return jobs


def probes(workload):
    return [job for group in PROBES[workload] for job in group()]
