import pytest

from gampkit import build_named
from gampkit.palg import LATTICE_TYPE, PalgMorphism, PartialAlgebra
from gampkit.semilattice import JoinSemilattice, SemMorphism


FIXTURE_NAMES = ["two", "chain:3", "chain:4", "chain:5", "M3", "N5", "X1", "X2"]


@pytest.fixture(scope="session")
def fixture_lattices():
    return {name: build_named(name).algebra for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def m3():
    return build_named("M3").algebra


@pytest.fixture(scope="session")
def n5():
    return build_named("N5").algebra


@pytest.fixture(scope="session")
def x1():
    return build_named("X1").algebra


@pytest.fixture(scope="session")
def chain3():
    return build_named("chain:3").algebra


def total_lattice(elements, leq_pairs):
    leq = set(leq_pairs) | {(x, x) for x in elements}

    def meet(a, b):
        lower = [c for c in elements if (c, a) in leq and (c, b) in leq]
        return next(c for c in lower if all((d, c) in leq for d in lower))

    def join(a, b):
        upper = [c for c in elements if (a, c) in leq and (b, c) in leq]
        return next(c for c in upper if all((c, d) in leq for d in upper))

    return PartialAlgebra.total_from_fn(LATTICE_TYPE, elements, {"meet": meet, "join": join})


@pytest.fixture(scope="session")
def corpus_maps(fixture_lattices):
    """Lattice maps of the corpus, {label: PalgMorphism}: the identities of
    two, chain:3, M3, N5 and X1, and the arrows of acceptance criterion 4."""
    maps = {
        name: PalgMorphism.identity(fixture_lattices[name])
        for name in ("two", "chain:3", "M3", "N5", "X1")
    }
    arrows = {
        "chain:3->X1": ("chain:3", "X1", {0: "0", 1: "x3", 2: "1"}),
        "X1->M3": ("X1", "M3", {"0": "0", "m": "0", "x1": "x1", "x3": "x3", "1": "1"}),
    }
    for label, (src, tgt, mapping) in arrows.items():
        maps[label] = PalgMorphism.from_map(fixture_lattices[src], fixture_lattices[tgt], mapping)
    return maps


def label_dist(pg):
    """A pregamp's distance as a label table, (x, y) -> delta(x, y), over
    every pair of its carrier's points."""
    universe = pg.carrier.universe
    return {(x, y): pg.delta(x, y) for x in universe for y in universe}


def unvalidated(source, target, mapping):
    """The morphism of a label map between two algebras or two
    semilattices, not validated: its index list, read through the target's
    element index."""
    if isinstance(target, JoinSemilattice):
        to = [target.index(mapping[x]) for x in source.elements]
        return SemMorphism(source, target, to, validate=False)
    return PalgMorphism(source, target, [target.point[mapping[x]] for x in source.universe], validate=False)


def label_map(f):
    """A morphism's map in labels, {source element: its image}."""
    points = f.source.elements if isinstance(f, SemMorphism) else f.source.universe
    return {x: f(x) for x in points}
