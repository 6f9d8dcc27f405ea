"""Command-line front door.

Exit codes: 0 verified/true, 1 refuted/false, 2 unknown at the stated
bounds (a search that exhausts its budget part way included), 3 input
error (a bound refused before any work included), 4 internal error. Only
a false verdict exits 1.
Reports are deterministic for fixed inputs and bounds.
"""

import argparse
import functools
import json
import sys
import time
import traceback

from . import congruence as _cong
from . import serialize as ser
from .errors import GampkitError, PreconditionFailed, SchemaError, SearchExhausted, StepFailed
from .diagram import is_operational_diagram, is_partial_lifting
from .gamp import Realization, buttress, check_property, quotient_gamp
from .poset import bm_le2, kposet, kposet_cover_check, KPosetSpec
from .pregamp import quotient_pregamp
from .semilattice import SemIdeal, SemMorphism, quotient


def _emit(args, payload, text=None):
    if getattr(args, "format", "json") == "text" and text is not None:
        out = text if text.endswith("\n") else text + "\n"
    elif getattr(args, "format", "json") == "dot":
        out = payload if isinstance(payload, str) else ser.dump(payload)
    else:
        out = ser.dump(payload)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _load_json(path):
    try:
        return ser.load_path(path)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(f"{path}: {e}")


def _relabel_sem(sem):
    labels = [f"c{i}" for i in range(len(sem))]
    return {
        "schema": ser.SCHEMA,
        "elements": labels,
        "zero": labels[sem.index(sem.zero)],
        "join": [[labels[k] for k in row] for row in sem.join_rows],
        "labels": {c: ser.encode_el(x) for c, x in zip(labels, sem.elements)},
    }


def cmd_conc(args):
    alg = ser.algebra_from_json(_load_json(args.algebra))
    cs = _cong.conc(alg, bound=args.bound)
    if args.format == "dot":
        _emit(args, ser.export_dot(cs, "conc"))
    else:
        _emit(args, _relabel_sem(cs), text=f"conc has {len(cs)} elements")
    return 0


def cmd_permutable(args):
    alg = ser.algebra_from_json(_load_json(args.algebra))
    if args.witness:
        return _malcev_mode(args, alg)
    ok, witness = _cong.is_n_permutable(alg, args.n)
    payload = {"n": args.n, "permutable": ok}
    if witness is not None:
        payload["witness"] = repr(witness)
    _emit(args, payload, text=f"congruence {args.n}-permutable: {ok}")
    return 0 if ok else 1


def _malcev_mode(args, alg):
    """Witness search for one principal-congruence containment instance."""
    x, y = _parse_pair(args.witness, alg)
    xs, ys = [], []
    for token in (args.pairs or "").split(","):
        if not token:
            continue
        a, b = _parse_pair(token, alg)
        xs.append(a)
        ys.append(b)
    res = _cong.malcev_witness(
        alg, x, y, tuple(xs), tuple(ys),
        depth_bound=args.depth_bound, param_bound=args.param_bound,
    )
    if isinstance(res, _cong.MalcevWitness):
        payload = {
            "found": True,
            "steps": res.n,
            "params": [ser.encode_el(p) for p in res.params],
            "terms": [repr(t) for t in res.terms],
        }
        _emit(args, payload, text=f"witness chain of length {res.n}")
        return 0
    if isinstance(res, _cong.NoContainment):
        _emit(args, {"found": False, "reason": "no containment"}, text="no containment")
        return 1
    _emit(
        args, {"found": False, "reason": "unknown at bound", "bounds": res.bounds},
        text="unknown at bound",
    )
    return 2


def _int_token(token):
    """The int a token spells, an optional minus sign and decimal digits, or
    None when it spells none."""
    digits = token[1:] if token.startswith("-") else token
    return int(token) if digits.isdecimal() else None


def _ideal_generator(sem, token):
    """The element an --ideal token names: #k picks the k-th semilattice
    element, which is how congruence-valued elements are addressed;
    otherwise a literal id, read as an int first when it spells one."""
    if token.startswith("#"):
        k = _int_token(token[1:])
        if k is not None and 0 <= k < len(sem.elements):
            return sem.elements[k]
    else:
        for el in (_int_token(token), token):
            if el is not None and el in sem:
                return el
    raise SchemaError(f"--ideal token {token!r} names no element")


def _ideal_generators(sem, raw):
    """Parse comma-separated --ideal tokens."""
    return {_ideal_generator(sem, token) for token in raw.split(",")}


def cmd_quotient(args):
    data = _load_json(args.input)
    if not isinstance(data, dict):
        raise SchemaError(f"quotient input: expected a JSON object, got {type(data).__name__}")
    if "join" in data:
        sem = ser.semilattice_from_json(data)
        ideal = SemIdeal.generated(sem, _ideal_generators(sem, args.ideal))
        q, _ = quotient(sem, ideal)
        _emit(args, ser.semilattice_to_json(q))
        return 0
    if "dist" in data and "inner" not in data:
        pg = ser.pregamp_from_json(data)
        ideal = SemIdeal.generated(pg.sem, _ideal_generators(pg.sem, args.ideal))
        q, _ = quotient_pregamp(pg, ideal)
        _emit(args, ser.pregamp_to_json(q))
        return 0
    if "inner" in data:
        g = ser.gamp_from_json(data)
        ideal = SemIdeal.generated(g.sem, _ideal_generators(g.sem, args.ideal))
        q, _ = quotient_gamp(g, ideal)
        _emit(args, ser.gamp_to_json(q))
        return 0
    raise SchemaError("input is not a semilattice, pregamp, or gamp bundle")


def cmd_gamp_check(args):
    g = ser.gamp_from_json(_load_json(args.bundle))
    v = check_property(g, args.property, n=args.n, m_cap=args.m_cap)
    payload = {
        "property": args.property,
        "status": v.status,
        "bounds": v.bounds,
        "witness": repr(v.witness) if v.witness is not None else None,
    }
    _emit(args, payload, text=f"{args.property}: {v.status}")
    return v.exit_code


def cmd_diagram_verify(args):
    data = _load_json(args.diagram)
    diagram = ser.diagram_from_json(data)
    if data.get("kind", "gamp") != "gamp":
        raise SchemaError("diagram-verify needs a diagram of gamps")
    if args.kind == "operational":
        ok, witness = is_operational_diagram(diagram)
        payload = {"kind": "operational", "ok": ok, "witness": repr(witness)}
        _emit(args, payload, text=f"operational: {ok}")
        return 0 if ok else 1
    if args.kind == "partial-lifting":
        raw = data.get("realizations")
        if raw is None:
            raise SchemaError("partial-lifting verification needs realizations in the bundle")
        if not isinstance(raw, dict):
            raise SchemaError(f"realizations: expected a JSON object, got {type(raw).__name__}")
        realizations = {}
        for p in diagram.poset.elements:
            entry = raw.get(str(p))
            if entry is None:
                raise SchemaError(f"missing realization for node {p!r}")
            where = f"realization for node {p!r}"
            if not isinstance(entry, dict):
                raise SchemaError(f"{where}: expected a JSON object, got {type(entry).__name__}")
            if "ambient" not in entry:
                raise SchemaError(f"{where}: missing 'ambient'")
            pairs = entry.get("chi")
            if not isinstance(pairs, list) or not all(
                isinstance(pair, list) and len(pair) == 2 for pair in pairs
            ):
                raise SchemaError(f"{where}: 'chi' must be a list of [element, image] pairs")
            ambient = ser.algebra_from_json(entry["ambient"])
            cs = _cong.conc(ambient)
            chi = SemMorphism.from_map(
                diagram.objects[p].sem,
                cs,
                {ser.decode_el(a): ser.decode_el(b) for a, b in pairs},
            )
            realizations[p] = Realization(ambient, chi)
        verdict, detail = is_partial_lifting(
            diagram, realizations, m_cap=args.m_cap, x_cap=args.x_cap,
            lattice=args.lattice, n_permutable=args.n,
        )
        payload = {
            "kind": "partial-lifting",
            "status": verdict.status,
            "detail": {f"{k}": v.status for k, v in detail.items()},
        }
        _emit(args, payload, text=f"partial-lifting: {verdict.status}")
        return verdict.exit_code
    raise SchemaError(f"unknown kind {args.kind!r}")


def cmd_poset(args):
    if args.bm is not None:
        poset = bm_le2(args.bm)
        if args.format == "dot":
            _emit(args, ser.export_dot(poset, f"bm{args.bm}"))
        else:
            _emit(args, ser.poset_to_json(poset))
        return 0
    if args.kposet is not None:
        data = _load_json(args.kposet)
        try:
            spec = KPosetSpec(
                ser.poset_from_json(data["base"]),
                tuple(ser.decode_el(x) for x in data["marks"]),
                tuple((ser.decode_el(m), tuple(rs)) for m, rs in data["branch"]),
                data["depth"],
            )
        except (KeyError, TypeError) as e:
            raise SchemaError(f"kposet spec: {e!r}")
        poset, tree = kposet(spec)
        if args.check_covers:
            ok, _, _ = kposet_cover_check(spec)
            _emit(args, {"elements": len(poset.elements), "tree": len(tree), "covers_match": ok})
            return 0 if ok else 1
        _emit(args, ser.poset_to_json(poset))
        return 0
    if args.input is None:
        raise SchemaError("poset command needs an input, --bm, or --kposet")
    poset = ser.poset_from_json(_load_json(args.input))
    if args.format == "dot":
        _emit(args, ser.export_dot(poset, "poset"))
    else:
        payload = {
            "elements": len(poset.elements),
            "covers": [[ser.encode_el(a), ser.encode_el(b)] for a, b in poset.covers()],
        }
        _emit(args, payload)
    return 0


def cmd_buttress(args):
    alg = ser.algebra_from_json(_load_json(args.algebra))
    poset = ser.poset_from_json(_load_json(args.poset))
    cs = _cong.conc(alg)
    phis = {}
    nodes = {str(p) for p in poset.elements}
    specs = {}
    for kv in args.ideal:
        node, eq, raw = kv.partition("=")
        if not eq:
            raise SchemaError(f"--ideal {kv!r} is not NODE=x/y,...")
        if node not in nodes:
            raise SchemaError(f"--ideal {kv!r} names no node of the poset")
        specs[node] = raw
    for p in poset.elements:
        raw = specs.get(str(p), "")
        if raw:
            gens = set()
            for token in raw.split(","):
                gens.add(cs.principal(*_parse_pair(token, alg)))
            ideal = SemIdeal.generated(cs, gens)
        else:
            ideal = SemIdeal.zero(cs)
        _, proj = quotient(cs, ideal)
        phis[p] = proj
    diagram = buttress(
        alg, poset, phis, with_chains=args.chains,
        n_permutable=args.n, m_cap=args.m_cap,
    )
    payload = {
        "nodes": {
            str(p): {
                "inner": len(diagram.objects[p].inner),
                "outer": len(diagram.objects[p].outer),
                "sem": len(diagram.objects[p].sem),
            }
            for p in poset.elements
        },
        "ok": True,
    }
    _emit(args, payload, text="buttress verified")
    return 0


def _parse_el(token, algebra):
    if token in algebra:
        return token
    el = _int_token(token)
    if el is None or el not in algebra:
        raise SchemaError(f"{token!r} is not an element of the algebra")
    return el


def _parse_pair(token, algebra):
    parts = token.split("/")
    if len(parts) != 2:
        raise SchemaError(f"{token!r} is not a pair x/y")
    return tuple(_parse_el(t, algebra) for t in parts)


def cmd_repro(args):
    from .constructions import (
        build_square,
        enumerate_candidates,
        refute_candidate,
        verify_square_facts,
    )
    if args.what != "unliftable":
        raise SchemaError(f"unknown reproduction target {args.what!r}")
    t0 = time.perf_counter()
    square = build_square(args.K, args.n)
    if args.format == "dot":
        dot = ser.export_dot(square.x_square, "wings") + ser.export_dot(
            square.a_square, "powers"
        )
        _emit(args, dot)
        return 0
    report = {"K": args.K, "n": args.n, "facts": verify_square_facts(square)}
    if args.exhaustive_bound is not None:
        stats = {"candidates": 0, "rejected": {}, "pruned": {}, "certificates": 0, "step_failures": 0}
        note = "no candidate at this bound survives its preconditions"
        try:
            for outcome in enumerate_candidates(square, args.n, args.exhaustive_bound):
                if outcome.status == "candidate":
                    cand = outcome.candidate
                    stats["candidates"] += 1
                    try:
                        refute_candidate(square, cand, args.n)
                    except PreconditionFailed as e:
                        stats["rejected"][e.reason] = stats["rejected"].get(e.reason, 0) + 1
                    except StepFailed:
                        stats["step_failures"] += 1
                    else:
                        stats["certificates"] += 1
                else:
                    stats["pruned"][outcome.reason] = stats["pruned"].get(outcome.reason, 0) + 1
        except SearchExhausted as e:
            # exhaustion leaves the answer unknown unless it is already false
            if report["facts"]["ok"] and not stats["step_failures"] and not stats["certificates"]:
                raise
            note = f"search stopped part way ({e}); the answer is false already"
        report["exhaustive"] = {
            "bound": args.exhaustive_bound,
            **stats,
            "note": f"pruned branches are rejected candidate classes; {note}",
        }
    report["seconds"] = round(time.perf_counter() - t0, 3)
    _emit(args, report, text=json.dumps(report["facts"]["facts"], sort_keys=True))
    ok = report["facts"]["ok"]
    if args.exhaustive_bound is not None:
        ok = ok and report["exhaustive"]["step_failures"] == 0 and report["exhaustive"]["certificates"] == 0
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="gampkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "dot", "text"], default="json")
        p.add_argument("--out")

    p = sub.add_parser("conc", help="compact congruence semilattice of an algebra")
    p.add_argument("algebra")
    p.add_argument("--bound", type=int, default=_cong.CON_BOUND, help="largest algebra for Con")
    common(p)
    p.set_defaults(fn=cmd_conc)

    p = sub.add_parser("permutable", help="congruence n-permutability test")
    p.add_argument("algebra")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--witness", help="x/y: search a witness chain instead")
    p.add_argument("--pairs", help="a/b,c/d generator pairs for the witness search")
    p.add_argument("--depth-bound", type=int, default=3)
    p.add_argument("--param-bound", type=int, default=16)
    common(p)
    p.set_defaults(fn=cmd_permutable)

    p = sub.add_parser("quotient", help="quotient by an ideal")
    p.add_argument("input")
    p.add_argument("--ideal", required=True, help="comma-separated generators")
    common(p)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("gamp-check", help="check a gamp property")
    p.add_argument("bundle")
    p.add_argument("--property", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m-cap", type=int, default=2)
    common(p)
    p.set_defaults(fn=cmd_gamp_check)

    p = sub.add_parser("diagram-verify", help="verify a diagram property")
    p.add_argument("diagram")
    p.add_argument("--kind", required=True, choices=["operational", "partial-lifting"])
    p.add_argument("--lattice", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m-cap", type=int, default=2)
    p.add_argument("--x-cap", type=int, default=3)
    common(p)
    p.set_defaults(fn=cmd_diagram_verify)

    p = sub.add_parser("poset", help="poset utilities")
    p.add_argument("input", nargs="?")
    p.add_argument("--bm", type=int, default=None)
    p.add_argument("--kposet", default=None)
    p.add_argument("--check-covers", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("buttress", help="build and verify a buttress diagram")
    p.add_argument("--algebra", required=True)
    p.add_argument("--poset", required=True)
    p.add_argument(
        "--ideal", action="append", default=[],
        help="NODE=x/y,u/v pairs generating the node's kernel ideal",
    )
    p.add_argument("--chains", action="store_true")
    p.add_argument("--n", type=int, default=None, dest="n")
    p.add_argument("--m-cap", type=int, default=2)
    common(p)
    p.set_defaults(fn=cmd_buttress)

    p = sub.add_parser("repro", help="reproduction suites")
    p.add_argument("what")
    p.add_argument("--K", default="M3")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--exhaustive-bound", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_repro)

    return parser


@functools.cache
def _parser():
    """The argparse tree, built once per process: parsing reads it and
    changes nothing in it, so each run starts from the same defaults."""
    return build_parser()


def run(argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 3 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SearchExhausted as e:
        # a search that ran out part way has no verdict: unknown at its bound
        sys.stderr.write(f"unknown at bound: {e}\n")
        return 2
    except (SchemaError, GampkitError, OSError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except Exception as e:
        # a crash is not a verdict: report it with its traceback, never as exit 1
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        traceback.print_exc()
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
