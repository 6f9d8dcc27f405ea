"""gampkit benchmark: one user, one process, one job after another.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

A run builds the workload's inputs from the seed (set-up, repeated and timed),
then runs one pass over the workload's jobs, every job once, and keeps
cycling through them until the next job would end after --seconds. Every
job's output is checked against its expected answer and digested. The
workload's probes then run once, untimed; they are reported but counted
nowhere (see METRICS.md). With --trace 1 the run makes one plain pass and
one traced pass and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A result file with the per-job seconds,
digests and failures is written to perfbench/results/. See METRICS.md.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 5  # at the start of a run, and again at its end
JOB_LIMIT_S = 60.0
RUN_LIMIT_S = 150.0  # jobs still running this long after start are cut off

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "ratio"))

_clock = time.perf_counter


class JobLimit(BaseException):
    """Raised in a job that runs past its limit."""


def _on_alarm(signum, frame):
    raise JobLimit()


def _reexec_if_needed():
    """Hash randomization would make set orders, and so the work done and
    the per-layer counts, differ between runs of one seed; -O would strip
    the library's cross-checks. Re-run the interpreter without either."""
    if os.environ.get("PYTHONHASHSEED") == "0" and not sys.flags.optimize:
        return
    if os.environ.get("PERFBENCH_REEXEC"):
        sys.exit("perfbench: cannot run with hash randomization or -O")
    env = dict(os.environ, PYTHONHASHSEED="0", PERFBENCH_REEXEC="1")
    env.pop("PYTHONOPTIMIZE", None)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def _purge_gampkit():
    for name in list(sys.modules):
        if name == "gampkit" or name.startswith("gampkit."):
            del sys.modules[name]


def setup(workload, seed):
    """Import gampkit and build the inputs, SETUP_REPEATS times, each from a
    fresh import; returns the last jobs and the set-up times."""
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_gampkit()
        start = _clock()
        importlib.import_module("gampkit")
        jobs = workloads.build(workload, seed)
        times.append(_clock() - start)
    return jobs, times


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs jobs and keeps per-job seconds, digests and failures."""

    def __init__(self, jobs, started):
        self.jobs = jobs
        self.deadline = started + RUN_LIMIT_S
        self.records = {
            job.id: {"seconds": [], "digest": None, "failures": []} for job in jobs
        }
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tracer = None

    def run_job(self, index, job):
        rec = self.records[job.id]
        self.attempted += 1
        limit = min(JOB_LIMIT_S, self.deadline - _clock())
        if self.tracer is not None:
            self.tracer.job = index
        failure = None
        raw = None
        if limit <= 0:
            failure = {"kind": "limit", "detail": "run limit reached before the job"}
        else:
            signal.setitimer(signal.ITIMER_REAL, limit)
            start = _clock()
            try:
                try:
                    raw = job.run()
                finally:
                    end = _clock()
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except JobLimit:
                failure = {"kind": "limit", "detail": f"over {limit:.1f} s"}
            except Exception as e:  # a crash fails this job, never the run
                tb = traceback.extract_tb(e.__traceback__)[-1]
                failure = {
                    "kind": "crash",
                    "detail": f"{type(e).__name__}: {e} at {Path(tb.filename).name}:{tb.lineno}",
                }
            rec["seconds"].append(end - start)
        if failure is None:
            failure = self._check(job, rec, raw)
        if failure is not None:
            self.failed += 1
            self.wrong += failure["kind"] == "wrong"
            rec["failures"].append(failure)

    def _check(self, job, rec, raw):
        """Check a job's first output; its later outputs must have the same digest."""
        try:
            payload = job.view(raw)
            digest = _digest(payload)
            if rec["digest"] is None:
                rec["digest"] = digest
                problem = job.check(raw, payload)
            elif rec["digest"] != digest:
                problem = "output differs from an earlier run of the job"
            else:
                problem = None
        except Exception as e:
            problem = f"unreadable output: {type(e).__name__}: {e}"
        return None if problem is None else {"kind": "wrong", "detail": problem}

    def failed_jobs(self):
        """Jobs that failed at least once, whatever the number of their runs."""
        return sum(1 for r in self.records.values() if r["failures"])

    def median_pass_seconds(self):
        """Wall time to every verdict of one pass: each job's median over the
        run, summed, so that one slow stretch of the host moves one job's
        sample rather than a whole pass."""
        return sum(statistics.median(r["seconds"]) for r in self.records.values() if r["seconds"])

    def run_pass(self):
        start = _clock()
        for index, job in enumerate(self.jobs):
            self.run_job(index, job)
        return _clock() - start

    def fill_window(self, end):
        """Keep cycling through the jobs in order until the next job's median
        time would run past end."""
        for index, job in itertools.cycle(enumerate(self.jobs)):
            seconds = self.records[job.id]["seconds"]
            if _clock() + (statistics.median(seconds) if seconds else 0.0) > end:
                return
            self.run_job(index, job)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tr, overhead_ratio):
    """The per-layer metrics of one traced pass, by their BENCHMARK.json names."""
    calls, secs, yields = tr.calls, tr.seconds, tr.yields
    self_s = tr.self_seconds()

    def ratio(num, den):
        return num / den if den else 0.0

    def distinct(name):
        return ratio(len(tr.inputs[name]), calls[name])

    out = {f"{layer}.self_s": _metric(self_s[layer], "s") for layer in tracing.LAYERS}
    enum = "constructions.enumerate_candidates"
    counts = {
        "constructions.outcomes": yields[enum],
        "constructions.candidates": yields[enum + ".candidate"],
        "constructions.pruned": yields[enum + ".pruned"],
        "constructions.rejected": tr.raised["constructions.refute_candidate.PreconditionFailed"],
        "pregamp.quotient_pregamp.calls": calls["pregamp.quotient_pregamp"],
        "pregamp.satisfies_identity.calls": calls["pregamp.pregamp_satisfies_identity"],
        "semilattice.enumerate_ideals.calls": calls["semilattice.enumerate_ideals"],
        "semilattice.quotient.calls": calls["semilattice.quotient"],
        "diagram.validate.calls": calls["diagram.Diagram.validate"],
        "diagram.apply_functor.calls": calls["diagram.apply_functor"],
        "palg.algebras_built": calls["palg.PartialAlgebra.__init__"],
        "palg.product.calls": calls["palg.PartialAlgebra.product"],
        "palg.is_lattice_algebra.calls": calls["palg.is_lattice_algebra"],
        "palg.product_closure.calls": calls["palg.product_closure"],
        "gamp.check_through_phi.calls": calls["gamp.check_through_phi"],
        "gamp.check_property.calls": calls["gamp.check_property"],
        "congruence.con_join.calls": calls["congruence.con_join"],
        "congruence.closure.calls": calls["congruence.congruence_closure"],
        "congruence.con_lattice.calls": calls["congruence.con_lattice"],
        "congruence.is_n_permutable.calls": calls["congruence.is_n_permutable"],
    }
    seconds = {
        "constructions.build_square.s": secs["constructions.build_square"],
        "constructions.verify_square_facts.s": secs["constructions.verify_square_facts"],
        "constructions.enumerate.s": secs[enum + ".next"],
        "constructions.refute_candidate.s": secs["constructions.refute_candidate"],
        "pregamp.satisfies_identity.s": secs["pregamp.pregamp_satisfies_identity"],
        "pregamp.check_axioms.s": secs["pregamp.check_axioms"],
        "semilattice.enumerate_ideals.s": secs["semilattice.enumerate_ideals"],
        "diagram.validate.s": secs["diagram.Diagram.validate"],
        "diagram.apply_functor.s": secs["diagram.apply_functor"],
        "palg.product.s": secs["palg.PartialAlgebra.product"],
        "palg.product_closure.s": secs["palg.product_closure"],
        "gamp.buttress.s": secs["gamp.buttress"],
        "gamp.check_through_phi.s": secs["gamp.check_through_phi"],
        "congruence.con_join.s": secs["congruence.con_join"],
        "congruence.closure.s": secs["congruence.congruence_closure"],
        "congruence.con_lattice.s": secs["congruence.con_lattice"],
        "congruence.is_n_permutable.s": secs["congruence.is_n_permutable"],
    }
    ratios = {
        "constructions.candidate_ratio": ratio(counts["constructions.candidates"],
                                               counts["constructions.outcomes"]),
        "congruence.closure.distinct_ratio": distinct("congruence.congruence_closure"),
        "congruence.con_lattice.distinct_ratio": distinct("congruence.con_lattice"),
        "trace.overhead_ratio": overhead_ratio,
    }
    out.update((k, _metric(v, "count")) for k, v in counts.items())
    out.update((k, _metric(v, "s")) for k, v in seconds.items())
    out.update((k, _metric(v, "ratio")) for k, v in ratios.items())
    return dict(sorted(out.items()))


def run_workload(args):
    started = _clock()
    jobs, setup_times = setup(args.workload, args.seed)
    runner = Runner(jobs, started)
    signal.signal(signal.SIGALRM, _on_alarm)
    window_start = _clock()
    plain = runner.run_pass()
    if not args.trace:
        runner.fill_window(window_start + args.seconds)
        # set-up again at the end, so that the median spans two host states
        setup_times += setup(args.workload, args.seed)[1]
    probe = Runner(workloads.probes(args.workload), _clock())
    probe.run_pass()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "setup_seconds": setup_times,
        "first_pass_seconds": plain,
    }
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
        runner.tracer = tr
        traced = runner.run_pass()
        result["traced_pass_seconds"] = traced
        metrics = layer_metrics(tr, traced / plain)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "wall_s": _metric(runner.median_pass_seconds(), "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
            "ok_share": _metric(1 - runner.failed_jobs() / len(jobs), "ratio"),
        }
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        fail_share=runner.failed_jobs() / len(jobs),
        correct=runner.wrong == 0,
        metrics=metrics,
        jobs=runner.records,
        probes=probe.records,
    )
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    if args.trace:
        with open(spans_path, "w") as fh:
            for name, layer, start, end, parent, job in tr.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:<11} {'fail_share':<40} {result['fail_share']:.6g} ratio "
          f"({runner.failed_jobs()} of {len(jobs)} jobs; {runner.failed} of {runner.attempted} runs)")
    for job_id, rec in runner.records.items():
        for failure in rec["failures"][:1]:
            print(f"{args.workload:<11} FAILED {job_id}: {failure['kind']}: {failure['detail']}")
    for job_id, rec in probe.records.items():
        outcome = "; ".join(f"{f['kind']}: {f['detail']}" for f in rec["failures"]) or "ok"
        print(f"{args.workload:<11} probe (untimed, not counted) {job_id}: {outcome}")
    print(f"{args.workload:<11} result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one after another, then a table."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        last = json.loads(lines[-1])
        status |= not last["correct"]
        rows.append((name, last))
        print("\n".join(lines[:-1]))
    if not args.trace:
        print()
        header = ["workload", *(f"{m} ({u})" for m, u in END_TO_END), "fail_share", "correct"]
        print("  ".join(f"{h:>16}" for h in header))
        for name, last in rows:
            vals = [f"{last['metrics'][m]['value']:.4g}" for m, _ in END_TO_END]
            share = f"{1 - last['metrics']['ok_share']['value']:.3g}"
            print("  ".join(f"{v:>16}" for v in [name, *vals, share, str(last["correct"])]))
    return status


def compare(path_a, path_b):
    """List the jobs whose output digests differ, and per-layer counts that
    differ when both results are traced; exit 1 if anything differs."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    differ = 0
    for job_id in sorted(set(a["jobs"]) | set(b["jobs"])):
        da = a["jobs"].get(job_id, {}).get("digest")
        db = b["jobs"].get(job_id, {}).get("digest")
        if da != db:
            differ += 1
            print(f"digest differs: {job_id}: {da} vs {db}")
    if a["trace"] and b["trace"]:
        for name in sorted(set(a["metrics"]) | set(b["metrics"])):
            ma, mb = a["metrics"].get(name), b["metrics"].get(name)
            if (ma or mb)["unit"] == "count" and ma != mb:
                differ += 1
                print(f"count differs: {name}: {ma and ma['value']} vs {mb and mb['value']}")
    print(f"{differ} difference(s) between {path_a} and {path_b}")
    return 1 if differ else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (SRC / "gampkit" / "__init__.py").is_file():
        print(f"perfbench: no gampkit sources under {SRC}", file=sys.stderr)
        return 2
    _reexec_if_needed()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
