"""JSON bundles for semilattices, algebras, posets, pregamps, gamps, and
diagrams, plus the DOT exports. Round trips are identity modulo key order."""

import json

from .congruence import Congruence
from .diagram import Diagram
from .errors import SchemaError
from .gamp import Gamp, GampMorphism
from .palg import PalgMorphism, PartialAlgebra, SimilarityType, is_lattice_signature
from .poset import FinitePoset
from .pregamp import Pregamp, check_axioms
from .semilattice import JoinSemilattice, SemMorphism
from .util import sort_key

SCHEMA = "gampkit/1"


def _check_schema(data, where):
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {type(data).__name__}")
    tag = data.get("schema", SCHEMA)
    name, sep, major = tag.partition("/") if isinstance(tag, str) else (None, "", None)
    if name != "gampkit" or not sep:
        raise SchemaError(f"{where}: unknown schema {tag!r}, expected 'gampkit/<major>'")
    if major != "1":
        raise SchemaError(f"{where}: unsupported schema major {tag!r}")


def encode_el(x):
    if isinstance(x, tuple):
        return {"tuple": [encode_el(a) for a in x]}
    if isinstance(x, frozenset):
        return {"set": [encode_el(a) for a in sorted(x, key=sort_key)]}
    if isinstance(x, (str, int, bool)) or x is None:
        return x
    if isinstance(x, Congruence):
        blocks = sorted(
            (sorted(b, key=sort_key) for b in x.blocks), key=lambda b: sort_key(tuple(b))
        )
        return {"congruence": [[encode_el(e) for e in b] for b in blocks]}
    raise SchemaError(f"cannot encode element {x!r}")


def decode_el(x):
    if isinstance(x, dict):
        if "tuple" in x:
            return tuple(decode_el(a) for a in x["tuple"])
        if "set" in x:
            return frozenset(decode_el(a) for a in x["set"])
        if "congruence" in x:
            return Congruence([{decode_el(e) for e in b} for b in x["congruence"]])
        raise SchemaError(f"cannot decode element {x!r}")
    if isinstance(x, list):
        raise SchemaError(f"cannot decode element {x!r}: a tuple is written {{\"tuple\": [...]}}")
    return x


def semilattice_to_json(sem):
    els = list(sem.elements)
    return {
        "schema": SCHEMA,
        "elements": [encode_el(x) for x in els],
        "zero": encode_el(sem.zero),
        "join": [[encode_el(sem.join(a, b)) for b in els] for a in els],
    }


def semilattice_from_json(data):
    _check_schema(data, "semilattice")
    try:
        els = [decode_el(x) for x in data["elements"]]
        zero = decode_el(data["zero"])
        rows, n = data["join"], len(els)
        # a short row or a missing one is an IndexError below
        if len(rows) > n:
            raise SchemaError(f"semilattice: {len(rows)} join rows for {n} elements")
        table = {}
        for i, a in enumerate(els):
            row = rows[i]
            if len(row) > n:
                raise SchemaError(f"semilattice: the join row of {a!r} has {len(row)} entries for {n} elements")
            for j, b in enumerate(els):
                table[(a, b)] = decode_el(row[j])
    except (KeyError, IndexError, TypeError) as e:
        raise SchemaError(f"semilattice: {e}")
    return JoinSemilattice.from_table(els, zero, table)


def algebra_to_json(alg):
    labelled, ops = alg.ops, {}
    for name, _ in alg.stype.symbols:
        table = labelled[name]
        defined = sorted(table.keys(), key=lambda t: sort_key(tuple(t)))
        ops[name] = {
            "defined": [[encode_el(a) for a in args] for args in defined],
            "table": [encode_el(table[args]) for args in defined],
        }
    return {
        "schema": SCHEMA,
        "type": [[n, a] for n, a in alg.stype.symbols],
        "universe": [encode_el(x) for x in alg.universe],
        "ops": ops,
    }


def algebra_from_json(data):
    from .constructions import build_named

    if isinstance(data, str):
        return build_named(data).algebra
    _check_schema(data, "algebra")
    if "named" in data:
        if not isinstance(data["named"], str):
            raise SchemaError(f"algebra: 'named' must be a lattice spec, got {data['named']!r}")
        return build_named(data["named"]).algebra
    try:
        symbols = tuple((n, a) for n, a in data["type"])
        universe = [decode_el(x) for x in data["universe"]]
        ops = {}
        for name, spec in data["ops"].items():
            defined, values = spec["defined"], spec["table"]
            if len(defined) != len(values):
                raise ValueError(f"{name}: {len(defined)} defined tuples but {len(values)} values")
            entries = ((tuple(map(decode_el, args)), decode_el(val)) for args, val in zip(defined, values))
            ops[name] = _listed_once(entries, f"{name}: tuple {{!r}} listed twice")
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"algebra: {e}")
    for n, a in symbols:
        if not isinstance(n, str) or type(a) is not int or a < 0:
            raise SchemaError(f"algebra: type entry {[n, a]!r} is not [name, arity >= 0]")
    unknown = [name for name in ops if name not in {n for n, _ in symbols}]
    if unknown:
        raise SchemaError(f"algebra: operations {unknown} are not in the type")
    return PartialAlgebra.from_ops(SimilarityType(symbols), universe, ops)


def poset_to_json(poset):
    pairs = sorted(
        ((a, b) for a in poset.elements for b in poset.elements if poset.leq(a, b)),
        key=lambda p: (sort_key(p[0]), sort_key(p[1])),
    )
    return {
        "schema": SCHEMA,
        "elements": [encode_el(x) for x in poset.elements],
        "leq": [[encode_el(a), encode_el(b)] for a, b in pairs],
    }


def poset_from_json(data):
    _check_schema(data, "poset")
    try:
        els = [decode_el(x) for x in data["elements"]]
        leq = [(decode_el(a), decode_el(b)) for a, b in data["leq"]]
    except (KeyError, TypeError) as e:
        raise SchemaError(f"poset: {e}")
    return FinitePoset(els, leq)


def pregamp_to_json(pg):
    dist = []
    for x in pg.carrier.universe:
        for y in pg.carrier.universe:
            dist.append([encode_el(x), encode_el(y), encode_el(pg.delta(x, y))])
    return {
        "schema": SCHEMA,
        "algebra": algebra_to_json(pg.carrier),
        "semilattice": semilattice_to_json(pg.sem),
        "dist": dist,
    }


def pregamp_from_json(data):
    """A pregamp bundle; distances that break an axiom of check_axioms are a
    SchemaError naming the axiom and its tuple (gamp and diagram bundles
    load their pregamps here)."""
    _check_schema(data, "pregamp")
    try:
        alg = algebra_from_json(data["algebra"])
        sem = semilattice_from_json(data["semilattice"])
        pairs = (((decode_el(x), decode_el(y)), decode_el(d)) for x, y, d in data["dist"])
        dist = _listed_once(pairs, "distance listed twice at {}")
        outside = next((pair for pair in dist if pair[0] not in alg or pair[1] not in alg), None)
        if outside is not None:
            raise ValueError(f"distance at {outside} names a point outside the algebra")
        pg = Pregamp.from_dist(alg, dist, sem)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"pregamp: {e}")
    ok, violation = check_axioms(pg)
    if not ok:
        raise SchemaError(f"pregamp: the {violation[0]} axiom fails at {violation[1]!r}")
    return pg


def gamp_to_json(g):
    return {
        "schema": SCHEMA,
        "inner": algebra_to_json(g.inner),
        "outer": pregamp_to_json(g.pregamp),
    }


def gamp_from_json(data):
    _check_schema(data, "gamp")
    try:
        inner = algebra_from_json(data["inner"])
        pg = pregamp_from_json(data["outer"])
    except KeyError as e:
        raise SchemaError(f"gamp: missing {e}")
    if not inner.is_partial_sub_of(pg.carrier):
        raise SchemaError("gamp: inner part is not a partial subalgebra of the outer")
    return Gamp(inner, pg)


def diagram_to_json(diagram, kind="gamp"):
    nodes = {}
    for p in diagram.poset.elements:
        obj = diagram.objects[p]
        if kind == "gamp":
            nodes[str(p)] = gamp_to_json(obj)
        elif kind == "algebra":
            nodes[str(p)] = algebra_to_json(obj)
        else:
            raise SchemaError(f"diagram: unsupported kind {kind!r}")
    arrows = {}
    for (p, q), arrow in diagram.arrows.items():
        if p == q:
            continue
        f = arrow.f if kind == "gamp" else arrow
        entry = {
            "map": [[encode_el(x), encode_el(f(x))] for x in f.source.universe],
        }
        if kind == "gamp":
            entry["sem_map"] = [
                [encode_el(a), encode_el(arrow.fsem(a))]
                for a in arrow.fsem.source.elements
            ]
        arrows[f"{p}->{q}"] = entry
    return {
        "schema": SCHEMA,
        "kind": kind,
        "poset": poset_to_json(diagram.poset),
        "nodes": nodes,
        "arrows": arrows,
    }


def diagram_from_json(data):
    _check_schema(data, "diagram")
    for part in ("poset", "nodes", "arrows"):
        if not isinstance(data.get(part), dict):
            raise SchemaError(f"diagram: {part!r} missing or not a JSON object")
    kind = data.get("kind", "gamp")
    if kind not in ("gamp", "algebra"):
        raise SchemaError(f"diagram: unsupported kind {kind!r}")
    poset = poset_from_json(data["poset"])
    by_name = {}
    for x in poset.elements:
        by_name.setdefault(str(x), x)
    nodes = {}
    for p in poset.elements:
        raw = data["nodes"].get(str(p))
        if raw is None:
            raise SchemaError(f"diagram: missing node {p!r}")
        nodes[p] = gamp_from_json(raw) if kind == "gamp" else algebra_from_json(raw)
    arrows = {}
    for key, entry in data["arrows"].items():
        ends = key.split("->")
        if len(ends) != 2:
            raise SchemaError(f"diagram: arrow key {key!r} is not of the form p->q")
        unknown = [e for e in ends if e not in by_name]
        if unknown:
            raise SchemaError(f"diagram: arrow {key!r} names unknown node {unknown[0]!r}")
        p, q = (by_name[e] for e in ends)
        try:
            fmap = _point_map(entry, "map")
            if kind == "gamp":
                smap = _point_map(entry, "sem_map")
        except (KeyError, TypeError, ValueError) as e:
            raise SchemaError(f"diagram: arrow {key!r}: {e}")
        if kind == "gamp":
            arrows[(p, q)] = GampMorphism(
                nodes[p], nodes[q],
                PalgMorphism.from_map(nodes[p].outer, nodes[q].outer, fmap),
                SemMorphism.from_map(nodes[p].sem, nodes[q].sem, smap),
            )
        else:
            arrows[(p, q)] = PalgMorphism.from_map(nodes[p], nodes[q], fmap)
    return Diagram.from_generators(poset, nodes, arrows)


def _point_map(entry, part):
    pairs = ((decode_el(a), decode_el(b)) for a, b in entry[part])
    return _listed_once(pairs, f"point {{!r}} listed twice in {part!r}")


def _listed_once(items, twice):
    """The dict of (key, value) items; a key listed twice is a ValueError
    with the message twice.format(key), which loading would otherwise
    overwrite silently."""
    mapping = {}
    for key, value in items:
        if key in mapping:
            raise ValueError(twice.format(key))
        mapping[key] = value
    return mapping


# ---------------------------------------------------------------------------
# DOT


def _dot_name(x):
    return json.dumps(str(x))


def _hasse_dot(elements, leq, title):
    order = sorted(elements, key=sort_key)
    rel = [(a, b) for a in order for b in order if leq(a, b)]
    covers = FinitePoset(order, rel, validate=False).covers()
    lines = [f"digraph {json.dumps(title)} {{", "  rankdir=BT;"]
    for x in order:
        lines.append(f"  {_dot_name(x)};")
    for a, b in covers:
        lines.append(f"  {_dot_name(a)} -> {_dot_name(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(obj, title="gampkit"):
    """Deterministic Hasse-diagram DOT for posets, semilattices, lattice
    algebras, and the shape of a diagram."""
    if isinstance(obj, Diagram):
        obj = obj.poset
    if isinstance(obj, (FinitePoset, JoinSemilattice)):
        return _hasse_dot(obj.elements, obj.leq, title)
    if isinstance(obj, PartialAlgebra):
        if not is_lattice_signature(obj) or not obj.is_total():
            raise SchemaError("DOT export needs a total lattice algebra")
        meet = obj.ops["meet"]
        return _hasse_dot(obj.universe, lambda a, b: meet[(a, b)] == a, title)
    raise SchemaError(f"no DOT export for {type(obj).__name__}")


def dump(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_path(path):
    with open(path) as fh:
        return json.load(fh)
