"""Source hygiene: every name a module of the package imports is used there,
every private module-level definition is read somewhere in the package,
every public one is read by another part of the package or is listed, with
the paper statement or the caller it serves, in API_ONLY, and every public
method of a module-level class is read outside its own body.

The package's __init__ is exempt from the import check, and its reads do not
count for public definitions: it imports names only to re-export them.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gampkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement anywhere in the source, function
    bodies included, that no expression of the source reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _reads(tree):
    """Names that expressions under the node read, attribute names included."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _attribute_reads(tree):
    """Attribute names that expressions under the node read: the only way to
    reach a method, so a local of the same name does not count."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _defined_names(node):
    """Names a module-level statement defines. A definition under a called
    decorator such as @_register("two") is read by that registration, so it
    counts as defining nothing."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        if any(isinstance(d, ast.Call) for d in node.decorator_list):
            return []
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unread_private_definitions(sources):
    """Private module-level functions, classes and constants of the given
    {module name: source} that no expression of any source reads, as
    (module, name) pairs."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                private = name.startswith("_") and not name.startswith("__")
                if private and name not in read:
                    unread.append((module, name))
    return sorted(unread)


def _imports(tree):
    """What the imports anywhere in a module bind: ({local name: (module,
    name)} for `from .m import N as local`, {local name: module} for
    `from . import m as local` and `import m`). Modules are named by their
    last dotted part."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module is None:
                    modules[a.asname or a.name] = a.name
                else:
                    names[a.asname or a.name] = (node.module.split(".")[-1], a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                local = a.asname or a.name.split(".")[0]
                modules[local] = a.name.split(".")[-1] if a.asname else local
    return names, modules


def _resolved_reads(node, module, imports):
    """The (module, name) pairs that expressions under the node read: a bare
    name is the module's own unless it is imported, and `m.N` on an imported
    module m is m's N."""
    names, modules = imports
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            read.add((modules[n.value.id], n.attr))
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(names.get(n.id, (module, n.id)))
    return read


def unread_public_definitions(sources):
    """Public module-level functions, classes and constants of the given
    {module name: source} that no module-level statement outside their own
    definition reads, as (module, name) pairs. Each read is resolved to the
    module it names, so a definition is not kept alive by a same-named one
    elsewhere. The module "__init__" only re-exports: its reads do not count
    and its names are not checked."""
    statements = []
    for module, src in sources.items():
        if module != "__init__":
            tree = ast.parse(src)
            statements += [(module, node, _imports(tree)) for node in tree.body]
    reads = [_resolved_reads(node, module, imports) for module, node, imports in statements]
    unread = []
    for i, (module, node, _) in enumerate(statements):
        for name in _defined_names(node):
            others = (r for j, r in enumerate(reads) if j != i)
            if not name.startswith("_") and not any((module, name) in r for r in others):
                unread.append((module, name))
    return sorted(unread)


def unread_public_methods(sources):
    """Public methods of module-level classes of the given {module name:
    source} whose name no expression of the package reads outside the
    method's own body, as (module, "Class.method") pairs. As for public
    definitions, the reads of the module "__init__" do not count."""
    units = []  # module-level statements, with each class split into its parts
    for module, src in sources.items():
        if module == "__init__":
            continue
        for node in ast.parse(src).body:
            if isinstance(node, ast.ClassDef):
                parts = node.body + node.bases + node.keywords + node.decorator_list
                units += [(module, node.name, part) for part in parts]
            else:
                units.append((module, None, node))
    reads = [_attribute_reads(part) for _, _, part in units]
    unread = []
    for i, (module, cls, part) in enumerate(units):
        if cls is None or not isinstance(part, ast.FunctionDef) or part.name.startswith("_"):
            continue
        if not any(part.name in r for j, r in enumerate(reads) if j != i):
            unread.append((module, f"{cls}.{part.name}"))
    return sorted(unread)


# Public definitions and methods ("Class.method") that no other part of the
# package reads, each with the paper statement or the caller outside the
# package that it serves.
API_ONLY = {
    ("congruence", "con_lattice"): "perfbench's congruence jobs call it for Con(A) in order",
    ("congruence", "least_congruence_bruteforce"): (
        "the brute-force oracle the principal-congruence tests check closure against"
    ),
    ("congruence", "quotient_algebra"): (
        "the acceptance tests: a quotient of GA(A) is GA of the quotient algebra"
    ),
    ("gamp", "gamp_chain_colimit"): "the chain-colimit fact behind partial liftings",
    ("gamp", "presqueordre_facts"): "the paper's displayed distance laws along a chain",
    ("palg", "MODULAR_LAW"): (
        "the modular law, which M3 and so every lattice of the paper's variety M_3 satisfies"
    ),
    ("palg", "chain_colimit"): "the chain-colimit fact behind partial liftings",
    ("palg", "satisfies_identity"): (
        "identity satisfaction on one algebra, the one-identity call of the kernel that "
        "the identity tests of test_palg and test_pregamp check against the label loop"
    ),
    ("palg", "preimage_palg"): (
        "the sub/quotient exchange: a sub of a quotient lifts to its preimage"
    ),
    ("poset", "order_dimension_at_most"): (
        "the main theorem's hypothesis that P has order-dimension d"
    ),
    ("pregamp", "is_distance_generated"): (
        "the definition of a distance-generated pregamp: its distances join-generate "
        "the semilattice"
    ),
    ("pregamp", "is_ideal_induced_pg"): "the quotient-of-quotient lemma for pregamps",
    ("pregamp", "pregamp_isomorphisms"): (
        "the quotient lemmas' tests, which compare quotients up to isomorphism"
    ),
    ("pregamp", "pregamp_satisfies_identity"): (
        "the identity-satisfaction tests of test_pregamp (TestIdentitySatisfaction, "
        "test_identity_preserved_by_subs_and_images, test_sub_pregamps_keep_identities)"
    ),
    ("serialize", "diagram_to_json"): "it writes the diagram-verify input format",
    ("poset", "FinitePoset.chain"): "perfbench's buttress jobs and the tests build chains with it",
    ("semilattice", "JoinSemilattice.chain"): "the tests build chain semilattices with it",
}


def _api_only(methods):
    """The API_ONLY entries that name methods ("Class.method"), or the rest."""
    return sorted(key for key in API_ONLY if ("." in key[1]) == methods)


def test_private_detector_flags_unread_and_keeps_read():
    sources = {
        "a": (
            "_LIMIT = 3\n"
            "_SEEN = 4\n"
            "__version__ = '1'\n"
            "def _dead(): pass\n"
            "def _helper(): return _SEEN\n"
            "class _Gone: pass\n"
            "@_register('x')\n"
            "def _registered(): pass\n"
            "@dataclass\n"
            "class _Plain: pass\n"
        ),
        "b": "from .a import _helper\nimport a\nprint(_helper(), a._Kept)\nclass _Kept: pass\n",
    }
    assert unread_private_definitions(sources) == [
        ("a", "_Gone"), ("a", "_LIMIT"), ("a", "_Plain"), ("a", "_dead"),
    ]


def test_public_detector_flags_unread_and_keeps_read():
    sources = {
        "__init__": "from .a import Exported\n__version__ = '1'\n",
        "a": (
            "LIMIT = 3\n"
            "SEEN = 4\n"
            "ALSO = 5\n"
            "def dead(): return dead()\n"
            "def helper(): return SEEN\n"
            "class Exported: pass\n"
            "@_register('x')\n"
            "def registered(): pass\n"
            "def _private(): pass\n"
        ),
        "b": "from .a import helper\nimport a\nprint(helper(), a.ALSO, Kept)\nclass Kept: pass\n",
        # a read resolves to the module it names: b's imported helper is not
        # c's, c's bare LIMIT is not a's, and _a.Kept is not c's Kept
        "c": (
            "from . import a as _a\n"
            "def helper(): pass\n"
            "class Kept: pass\n"
            "print(LIMIT, _a.Kept)\n"
        ),
    }
    assert unread_public_definitions(sources) == [
        ("a", "Exported"), ("a", "LIMIT"), ("a", "dead"), ("c", "Kept"), ("c", "helper"),
    ]


def test_method_detector_flags_unread_and_keeps_read():
    sources = {
        "__init__": "from .a import Point\nPoint.exported()\n",
        "a": (
            "class Point:\n"
            "    def __init__(self): self.norm()\n"
            "    def norm(self): return self.scale()\n"
            "    def scale(self): return 2\n"
            "    def dead(self): return self.dead()\n"
            "    def exported(self): pass\n"
            "    def _private(self): pass\n"
            "    @property\n"
            "    def size(self): return 1\n"
            "    def full(self): pass\n"
            "def helper(p): return p.size\n"
        ),
        # a local named like a method does not read it
        "b": (
            "class Line:\n    def norm(self): pass\n    def length(self): pass\n"
            "def fill(full): return [full]\n"
        ),
    }
    assert unread_public_methods(sources) == [
        ("a", "Point.dead"), ("a", "Point.exported"), ("a", "Point.full"), ("b", "Line.length"),
    ]


def test_public_methods_are_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_public_methods(sources) == _api_only(methods=True)


def test_public_definitions_are_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_public_definitions(sources) == _api_only(methods=False)


def test_private_definitions_are_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_definitions(sources) == []


def test_detector_flags_unused_and_keeps_used():
    source = (
        "import json\n"
        "from itertools import chain, product as prod\n"
        "from . import congruence as _cong\n"
        "def f():\n"
        "    from .palg import UNDEFINED\n"
        "    return _cong.conc, prod\n"
    )
    assert unused_imports(source) == ["UNDEFINED", "chain", "json"]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"cli.py", "constructions.py", "gamp.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def deque_imports(source):
    """Line numbers of the imports that bind collections.deque, by name or
    through the collections module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "collections":
            if any(a.name == "deque" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name == "collections" for a in node.names):
            lines.append(node.lineno)
    return lines


def test_deque_detector_flags_deque_imports():
    source = (
        "import collections\n"
        "from collections import Counter, deque as queue\n"
        "from collections import Counter\n"
        "def f():\n"
        "    from collections import deque\n"
    )
    assert deque_imports(source) == [1, 2, 5]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "util.py"], ids=lambda p: p.name
)
def test_no_second_breadth_first_walk(path):
    # util.bfs is the package's one breadth-first walk; a queue anywhere else
    # would start a second one
    assert deque_imports(path.read_text()) == []


def assert_lines(source):
    """Line numbers of the assert statements in the source."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_assert_detector_flags_asserts():
    source = "def f(x):\n    assert x\n    return x\nassert f(1), 'one'\n"
    assert assert_lines(source) == [2, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_asserts(path):
    # python -O strips assert statements; a source check is an
    # errors.cross_check, which raises either way
    assert assert_lines(path.read_text()) == []


TABLE_MUTATORS = frozenset({
    "update", "setdefault", "pop", "clear", "append", "extend", "insert", "remove", "sort", "reverse",
})

# The attributes that hold tables, each with the constructors that may set
# them: an algebra's index tables (set by its constructor, or built by a
# product's lazy builder), the distance matrix of a pregamp and of Conc
# (which pga shares), a semilattice's join matrix, and a morphism's index
# list.
TABLE_OWNERS = {
    "tables": {"PartialAlgebra.__init__", "PartialAlgebra.tables"},
    "dist_rows": {"Pregamp.__init__", "ConcSemilattice.__init__"},
    "join_rows": {"JoinSemilattice.__init__"},
    "to": {"IndexMap.__init__"},
}


def _is_tables(node):
    """`<expr>.tables` or `<expr>.tables[...]`, and the same for `.dist_rows`,
    `.join_rows` and `.to`: a table attribute or one entry of it."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in TABLE_OWNERS


def table_mutations(source):
    """(line, enclosing "Class.function", attribute) of each statement of the
    source that changes a table: an assignment or deletion of
    `<expr>.tables`, or of an entry of `<expr>.tables` or
    `<expr>.tables[...]`, and a call of a dict or list mutator on either;
    likewise for `.dist_rows`, `.join_rows` and `.to`."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        hit = [
            t for t in targets
            if (isinstance(t, ast.Attribute) and t.attr in TABLE_OWNERS)
            or (isinstance(t, ast.Subscript) and _is_tables(t.value))
        ]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in TABLE_MUTATORS and _is_tables(node.func.value):
                hit.append(node.func.value)
        if hit:
            found.append((node.lineno, ".".join(scope), _table_attr(hit[0])))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(found)


def _table_attr(node):
    """The table attribute that a flagged target or receiver names."""
    while not (isinstance(node, ast.Attribute) and node.attr in TABLE_OWNERS):
        node = node.value
    return node.attr


def test_table_mutation_detector_flags_writes_and_keeps_reads():
    source = (
        "class PartialAlgebra:\n"
        "    def __init__(self, tables):\n"
        "        self.tables = dict(tables)\n"
        "        self.tables.setdefault('f', {})\n"
        "def widen(alg, other):\n"
        "    alg.tables['f'][(0, 1)] = 1\n"
        "    alg.tables['g'] = {}\n"
        "    alg.tables.update(other.tables)\n"
        "    alg.tables['f'].pop((0, 1))\n"
        "    del alg.tables['g']\n"
        "    other.tables['f'] |= {(1, 1): 1}\n"
        "    other.tables['f'].clear()\n"
        "    tables = dict(alg.tables)\n"
        "    tables['f'] = {}\n"
        "    tables.update(alg.tables)\n"
        "    return alg.tables['f'].get((0, 1)), alg.tables.items()\n"
    )
    assert [m[:2] for m in table_mutations(source)] == [
        (3, "PartialAlgebra.__init__"), (4, "PartialAlgebra.__init__"),
        (6, "widen"), (7, "widen"), (8, "widen"), (9, "widen"), (10, "widen"),
        (11, "widen"), (12, "widen"),
    ]


def test_table_mutation_detector_flags_distances_and_joins():
    source = (
        "class Pregamp:\n"
        "    def __init__(self, dist_rows):\n"
        "        self.dist_rows = dist_rows\n"
        "class JoinSemilattice:\n"
        "    def __init__(self, join_rows):\n"
        "        self.join_rows = join_rows\n"
        "def bend(pg, sem, cs):\n"
        "    pg.dist_rows[0][1] = 2\n"
        "    pg.dist_rows.clear()\n"
        "    del pg.dist_rows[0]\n"
        "    sem.join_rows[0][1] = 0\n"
        "    sem.join_rows.pop()\n"
        "    sem.join_rows = cs.join_rows\n"
        "    pg.dist_rows = cs.dist_rows\n"
        "    rows = list(pg.dist_rows)\n"
        "    rows[0] = [2]\n"
        "    return pg.dist_rows[0][1], sem.join_rows[0][1], pg.dist_rows[1]\n"
    )
    assert table_mutations(source) == [
        (3, "Pregamp.__init__", "dist_rows"), (6, "JoinSemilattice.__init__", "join_rows"),
        (8, "bend", "dist_rows"), (9, "bend", "dist_rows"), (10, "bend", "dist_rows"),
        (11, "bend", "join_rows"), (12, "bend", "join_rows"), (13, "bend", "join_rows"),
        (14, "bend", "dist_rows"),
    ]


def test_table_mutation_detector_flags_index_maps():
    source = (
        "class PalgMorphism:\n"
        "    def __init__(self, to):\n"
        "        self.to = list(to)\n"
        "def bend(f, g):\n"
        "    f.to[0] = 1\n"
        "    f.to.append(2)\n"
        "    g.to.sort()\n"
        "    f.to = g.to\n"
        "    to = list(f.to)\n"
        "    to.append(3)\n"
        "    return f.to[0], g.to.index(1)\n"
    )
    assert table_mutations(source) == [
        (3, "PalgMorphism.__init__", "to"), (5, "bend", "to"), (6, "bend", "to"),
        (7, "bend", "to"), (8, "bend", "to"),
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tables_change_only_in_construction(path):
    # PartialAlgebra.translation_rows and a product's tables are built once
    # and kept, pga and the enumerator's snapshots share their source's
    # dist_rows, and a morphism's readers share its index list, which is
    # sound only while nothing changes those tables after the owning
    # constructor
    assert [m for m in table_mutations(path.read_text()) if m[1] not in TABLE_OWNERS[m[2]]] == []


# The chain-condition search, check_axioms, quotient_pregamp, sub_pregamp,
# the variety check's image rule, the candidate enumerator and the
# tractability and cuttability checkers read distances
# through one path, an integer matrix such as dist_rows; these attributes are
# the label paths it replaced.
LABEL_DISTANCES = frozenset({"dist", "delta", "distances"})
CHAIN_SEARCH = (
    "_interpolants", "_parity_joins", "chain_interpolants", "_stepper", "_upward_paths",
    "_chain_verdict", "_chain_condition_failures",
)
ENUMERATOR = ("_NodeState", "_nonzero_row_options", "enumerate_candidates")
PROPERTY_CHECKERS = ("_check_tractable", "_check_cuttable")
DIST_ROWS_READERS = [
    ("congruence", set(CHAIN_SEARCH)),
    (
        "pregamp",
        {"quotient_pregamp", "tractability_verdict", "check_axioms", "_non_expanding",
         "_first_incompatible_cells", "is_distance_generated", "sub_pregamp",
         "_every_image_satisfies"},
    ),
    ("constructions", set(ENUMERATOR)),
    ("gamp", set(PROPERTY_CHECKERS)),
]


def label_distance_reads(source, functions):
    """(function or class, line, attribute) of each read of a .dist, .delta or
    .distances attribute inside the named module-level functions and classes
    of the source, nested functions and methods included."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in functions:
            for n in ast.walk(node):
                if isinstance(n, ast.Attribute) and n.attr in LABEL_DISTANCES:
                    found.append((node.name, n.lineno, n.attr))
    return sorted(found)


def test_label_distance_detector_flags_reads():
    source = (
        "def search(pg, sem):\n"
        "    return pg.dist[(0, 1)], pg.delta(0, 1)\n"
        "def other(pg):\n"
        "    return pg.dist\n"
        "def nested(pg, sem):\n"
        "    def step(a, b):\n"
        "        return sem.distances()[(a, b)]\n"
        "    return pg.dist_rows, step\n"
        "class State:\n"
        "    def bound(self, x, y):\n"
        "        return self.delta(x, y), self.D[x][y]\n"
        "class Other:\n"
        "    def bound(self):\n"
        "        return self.dist\n"
    )
    assert label_distance_reads(source, {"search", "nested", "State"}) == [
        ("State", 11, "delta"), ("nested", 7, "distances"), ("search", 2, "delta"),
        ("search", 2, "dist"),
    ]


@pytest.mark.parametrize("module, functions", DIST_ROWS_READERS, ids=[m for m, _ in DIST_ROWS_READERS])
def test_chain_condition_reads_one_distance_path(module, functions):
    source = (SRC / f"{module}.py").read_text()
    defs = (ast.FunctionDef, ast.ClassDef)
    defined = {n.name for n in ast.parse(source).body if isinstance(n, defs)}
    assert functions <= defined
    assert label_distance_reads(source, functions) == []


# Derived maps that read what is already built, each with the calls that
# would build it a second time: an induced arrow descends along the two
# projections it is given, the identity checks build quotient carriers
# only, and none where every quotient is an image of the carrier, Conc's
# generated folds its principal and join matrices, and the
# square's facts and trace read principal congruences from the Concs they
# build.
QUOTIENTS = frozenset({"quotient", "quotient_pregamp", "quotient_gamp"})
CLOSURES = frozenset({"principal_congruence", "congruence_closure"})
NO_REBUILD = [
    ("semilattice", "induced_morphism", QUOTIENTS),
    ("pregamp", "induced_pregamp_morphism", QUOTIENTS),
    ("pregamp", "_first_variety_failure", QUOTIENTS | {"image_palg", "PalgMorphism"}),
    ("pregamp", "_every_image_satisfies", QUOTIENTS | {"image_palg", "PalgMorphism"}),
    ("gamp", "induced_gamp_morphism", QUOTIENTS),
    ("congruence", "ConcSemilattice.generated", frozenset({"_closure_labels"})),
    ("constructions", "verify_square_facts", CLOSURES),
    ("constructions", "refute_candidate", CLOSURES),
]


def called_names(source, qualname):
    """The names that calls inside the named module-level function or
    "Class.method" of the source call, as a bare name or as an attribute,
    nested functions included; None if the source does not define it."""
    nodes = ast.parse(source).body
    for part in qualname.split("."):
        node = next((n for n in nodes if getattr(n, "name", None) == part), None)
        if node is None:
            return None
        nodes = node.body
    called = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            f = n.func
            called.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return called - {None}


def test_call_detector_names_calls_of_functions_and_methods():
    source = (
        "def descend(phi, p):\n"
        "    def inner(x):\n"
        "        return quotient(x)\n"
        "    return _pregamp.quotient_pregamp(p), inner\n"
        "class Conc:\n"
        "    def generated(self, pairs):\n"
        "        return self.rows[0][_closure_labels(pairs)]\n"
    )
    assert called_names(source, "descend") == {"quotient", "quotient_pregamp"}
    assert called_names(source, "Conc.generated") == {"_closure_labels"}
    assert called_names(source, "Conc.missing") is None


@pytest.mark.parametrize(
    "module, qualname, rebuilds", NO_REBUILD, ids=[q for _, q, _ in NO_REBUILD]
)
def test_derived_maps_build_nothing_twice(module, qualname, rebuilds):
    called = called_names((SRC / f"{module}.py").read_text(), qualname)
    assert called is not None and called & rebuilds == set()


def call_counts(run, functions):
    """How many times each of the functions was entered while run() ran,
    by code object, so that every import binding of it is counted."""
    codes = {f.__code__: f.__name__ for f in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts


def test_quotient_diagram_quotients_each_node_once():
    # the induced arrows descend along the node projections: one quotient
    # pregamp and one quotient semilattice per node, none per arrow
    from gampkit import build_square
    from gampkit.diagram import DiagramIdeal, apply_functor, quotient_diagram
    from gampkit.pregamp import quotient_pregamp
    from gampkit.semilattice import SemIdeal, enumerate_ideals, quotient

    d = apply_functor(build_square("M3", 2).a_square, "GA")
    bottom = d.poset.linear_extension()[0]
    seed = enumerate_ideals(d.objects[bottom].sem)[1]
    ideals = {
        p: SemIdeal.generated(d.objects[p].sem, d.arrows[(bottom, p)].fsem.apply_set(seed.carrier))
        for p in d.poset.elements
    }
    dideal = DiagramIdeal(d, ideals)
    assert len(d.poset.elements) == 4 and len(d.arrows) == 9
    counts = call_counts(lambda: quotient_diagram(d, dideal), [quotient_pregamp, quotient])
    assert counts == {"quotient_pregamp": 4, "quotient": 4}


def test_one_conc_per_call():
    # buttress hands the Conc it builds to the permutability check, and the
    # square facts build one Conc per lattice they are about (the chain and
    # the factors of the three powers) and run no closure outside them
    from gampkit import build_named, build_square
    from gampkit.congruence import ConcSemilattice, _closure_labels, conc, principal_congruence
    from gampkit.constructions import verify_square_facts
    from gampkit.gamp import buttress
    from gampkit.poset import FinitePoset
    from gampkit.semilattice import SemIdeal, quotient

    alg = build_named("M3").algebra
    poset = FinitePoset.square()
    cs = conc(alg)
    kernel = SemIdeal.generated(cs, {principal_congruence(alg, "0", "x1")})
    bottom = poset.linear_extension()[0]
    phis = {
        p: quotient(cs, kernel if p == bottom else SemIdeal.zero(cs))[1] for p in poset.elements
    }
    init = ConcSemilattice.__init__
    counts = call_counts(lambda: buttress(alg, poset, phis, n_permutable=2), [init])
    assert counts == {"__init__": 1}
    for base, n, closures in [("M3", 2, 9), ("M3", 3, 10), ("L2", 3, 13)]:
        square = build_square(base, n)
        lattices = [square.chain_algebra] + [square.x_square.objects[p] for p in "lrt"]
        builds = call_counts(lambda: [conc(a) for a in lattices], [_closure_labels])
        assert builds == {"_closure_labels": closures}
        counts = call_counts(lambda: verify_square_facts(square), [init, _closure_labels])
        assert counts == {"__init__": 4, "_closure_labels": closures}, (base, n)


@pytest.mark.parametrize("K", ["M3", "L2", "L3", "L4"])
def test_square_facts_build_no_power_tables(K):
    # maps into a power are checked from its factors: past the cross-check
    # bound no node of the chain-powered square builds its tables
    from gampkit import build_square
    from gampkit.constructions import verify_square_facts
    from gampkit.palg import FACTORWISE_CHECK_BOUND

    square = build_square(K, 3)
    assert verify_square_facts(square)["ok"]
    large = [a for a in square.a_square.objects.values() if len(a) > FACTORWISE_CHECK_BOUND]
    assert len(large) == 3
    assert all("tables" not in vars(a) for a in large)


@pytest.mark.parametrize("qualname", ["_NodeState", "_nonzero_row_options"])
def test_enumerator_checks_axioms_on_indices(qualname):
    # the node state and the pad-row search check the distance axioms on
    # index rows through pregamp's routines, never by a label join or order,
    # and the node state keeps its cells on the inner algebra's index
    # tables, never reading its label view or applying it to labels
    source = (SRC / "constructions.py").read_text()
    called = called_names(source, qualname)
    assert called is not None and called & {"join", "leq"} == set()
    if qualname == "_NodeState":
        [node] = [n for n in ast.parse(source).body if getattr(n, "name", None) == qualname]
        assert _attribute_reads(node) & {"ops", "apply"} == set()


def label_table_reads(source):
    """(line, attribute) of each `.ops`, `.index_tables` or `._uset` of the
    source: the label view of an algebra's tables, and the second table and
    element set it once kept."""
    names = {"ops", "index_tables", "_uset"}
    return sorted(
        (n.lineno, n.attr) for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr in names
    )


def test_label_table_detector_flags_reads():
    source = (
        "def export(alg):\n"
        "    return alg.ops, alg.tables, alg.index_tables[1]\n"
        "def member(alg, x):\n"
        "    return x in alg._uset or x in alg.point\n"
    )
    assert label_table_reads(source) == [(2, "index_tables"), (2, "ops"), (4, "_uset")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_label_tables_are_read_only_by_export(path):
    # an algebra holds one table per operation, on indices: only export
    # reads the label view, and the second copy and element set are gone
    found = label_table_reads(path.read_text())
    allowed = {"ops"} if path.name == "serialize.py" else set()
    assert [m for m in found if m[1] not in allowed] == []


def label_map_reads(source):
    """The lines of the source that read a `.mapping` attribute: the label
    dict that a morphism kept before its index list."""
    return sorted(
        n.lineno for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr == "mapping"
    )


def test_label_map_detector_flags_reads():
    source = (
        "def image(f, x, mapping):\n"
        "    return f.mapping[x], mapping[x], f.to[0]\n"
        "def compose(f, g):\n"
        "    return {x: g.mapping[y] for x, y in f.mapping.items()}\n"
    )
    assert label_map_reads(source) == [2, 4, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_morphism_map_in_labels(path):
    assert label_map_reads(path.read_text()) == []


def test_morphisms_store_one_index_list():
    # each morphism the square, its GA image, a quotient, an induced map and
    # composites build keeps its ends and one list of target indices
    from gampkit import build_square
    from gampkit.congruence import conc_morphism
    from gampkit.diagram import apply_functor
    from gampkit.palg import PalgMorphism
    from gampkit.pregamp import induced_pregamp_morphism, quotient_pregamp
    from gampkit.semilattice import SemIdeal, SemMorphism, enumerate_ideals

    square = build_square("M3", 2)
    d = apply_functor(square.a_square, "GA")
    maps = [*square.a_square.arrows.values(), *square.x_square.arrows.values()]
    maps += [f for comps in square.projections.values() for f in comps.values()]
    maps += [part for fm in d.arrows.values() for part in (fm.f, fm.fsem)]
    fm = d.arrows[("b", "t")]
    ideal = enumerate_ideals(fm.source.sem)[1]
    _, pi = quotient_pregamp(fm.source.pregamp, ideal)
    carried = SemIdeal.generated(fm.target.sem, fm.fsem.apply_set(ideal.carrier))
    _, pj = quotient_pregamp(fm.target.pregamp, carried)
    induced = induced_pregamp_morphism(fm.pg, pi, pj)
    maps += [pi.f, pi.fsem, induced.f, induced.fsem, induced.after(pi).f, conc_morphism(maps[0])]
    assert all(isinstance(f, (PalgMorphism, SemMorphism)) for f in maps)
    for f in maps:
        assert set(vars(f)) == {"source", "target", "to"}
        assert type(f.to) is list and all(type(i) is int for i in f.to)


@pytest.mark.parametrize(
    "module, qualname",
    [("pregamp", "tractability_verdict"), *(("gamp", q) for q in PROPERTY_CHECKERS)],
)
def test_property_checkers_compare_on_indices(module, qualname):
    # tractability and cuttability compare distances in join_rows, never by
    # a label join or order
    called = called_names((SRC / f"{module}.py").read_text(), qualname)
    assert called is not None and called & {"join", "join_all", "leq"} == set()


@pytest.mark.parametrize("qualname", ["JoinSemilattice.validate", "SemMorphism.validate"])
def test_semilattice_checks_run_on_indices(qualname):
    # the axioms and the homomorphism check read join_rows, never a label
    # join or order, so conc_morphism joins no labels
    called = called_names((SRC / "semilattice.py").read_text(), qualname)
    assert called is not None and called & {"join", "join_all", "leq"} == set()
