"""Poset-indexed diagrams of semilattices, algebras, pregamps, and gamps:
validation, quotients, functor application, lifting verification."""

from .errors import DomainMismatch, InvalidIdeal, MissingRealization
from .gamp import Gamp, GampMorphism
from .palg import PalgMorphism, PartialAlgebra
from .pregamp import Pregamp, PregampMorphism
from .semilattice import JoinSemilattice, SemMorphism, induced_morphism, quotient
from .util import Verdict, bfs, combine_verdicts
from . import congruence as _cong
from . import gamp as _gamp
from . import pregamp as _pregamp


def _identity_morphism(obj):
    if isinstance(obj, JoinSemilattice):
        return SemMorphism.identity(obj)
    if isinstance(obj, PartialAlgebra):
        return PalgMorphism.identity(obj)
    if isinstance(obj, Pregamp):
        return PregampMorphism.identity(obj)
    if isinstance(obj, Gamp):
        return GampMorphism.identity(obj)
    raise DomainMismatch(f"no identity for {type(obj).__name__}")


class Diagram:
    """Objects over a finite poset with arrows for every comparable pair.

    Arrows must include identities and compose on the nose; validate checks
    this exhaustively.
    """

    def __init__(self, poset, objects, arrows, validate=True):
        self.poset = poset
        self.objects = dict(objects)
        self.arrows = dict(arrows)
        if validate:
            ok, viol = self.validate()
            if not ok:
                raise ValueError(f"not a diagram: {viol}")

    def validate(self):
        for p in self.poset.elements:
            if p not in self.objects:
                return False, ("missing object", p)
        for p in self.poset.elements:
            for q in self.poset.elements:
                if self.poset.leq(p, q) and (p, q) not in self.arrows:
                    return False, ("missing arrow", (p, q))
        for p in self.poset.elements:
            if self.arrows[(p, p)] != _identity_morphism(self.objects[p]):
                return False, ("identity arrow", p)
        for p in self.poset.elements:
            for q in self.poset.elements:
                for r in self.poset.elements:
                    if self.poset.leq(p, q) and self.poset.leq(q, r):
                        left = self.arrows[(q, r)].after(self.arrows[(p, q)])
                        if left != self.arrows[(p, r)]:
                            return False, ("composition", (p, q, r))
        return True, None

    @classmethod
    def from_generators(cls, poset, objects, cover_arrows):
        """Expand a generators-only arrow family to all comparable pairs.

        The arrow p -> q is composed along the breadth-first path from p to q
        over the generators; given arrows are kept as given. Compositions
        along different cover paths must agree; validate will reject the
        result otherwise.
        """
        arrows = {(p, p): _identity_morphism(objects[p]) for p in poset.elements}
        arrows.update(cover_arrows)
        out = {}
        for (p, q), f in cover_arrows.items():
            out.setdefault(p, []).append((q, f))
        for p in poset.elements:
            parents = {}
            for q in bfs(p, lambda u: out.get(u, ()), parents):
                if (p, q) not in arrows:
                    u, f = parents[q]
                    arrows[(p, q)] = f.after(arrows[(p, u)])
        return cls(poset, objects, arrows)


class DiagramIdeal:
    """Per-node semilattice ideal carried forward by every arrow."""

    def __init__(self, diagram, ideals, validate=True):
        self.diagram = diagram
        self.ideals = dict(ideals)
        if validate:
            self.validate()

    def _sem_arrow(self, p, q):
        arrow = self.diagram.arrows[(p, q)]
        return arrow if isinstance(arrow, SemMorphism) else arrow.fsem

    def validate(self):
        d = self.diagram
        for p in d.poset.elements:
            ideal = self.ideals.get(p)
            if ideal is None:
                raise InvalidIdeal(f"missing ideal at {p!r}")
            ideal.validate()
        for p in d.poset.elements:
            for q in d.poset.elements:
                if d.poset.leq(p, q):
                    f = self._sem_arrow(p, q)
                    if not f.apply_set(self.ideals[p].carrier) <= self.ideals[q].carrier:
                        raise InvalidIdeal(f"ideal not carried along {(p, q)}")


class NaturalTransformation:
    """Per-node morphisms commuting with both diagrams' arrows."""

    def __init__(self, source, target, components, validate=True):
        self.source = source
        self.target = target
        self.components = dict(components)
        if validate:
            self.validate()

    def validate(self):
        poset = self.source.poset
        if self.target.poset != poset:
            raise ValueError("index posets differ")
        for p in poset.elements:
            for q in poset.elements:
                if poset.leq(p, q):
                    left = self.components[q].after(self.source.arrows[(p, q)])
                    right = self.target.arrows[(p, q)].after(self.components[p])
                    if left != right:
                        raise ValueError(f"naturality fails at {(p, q)}")


def _quotient_node(obj, ideal):
    if isinstance(obj, JoinSemilattice):
        return quotient(obj, ideal)
    if isinstance(obj, Pregamp):
        return _pregamp.quotient_pregamp(obj, ideal)
    if isinstance(obj, Gamp):
        return _gamp.quotient_gamp(obj, ideal)
    raise DomainMismatch(f"cannot quotient {type(obj).__name__}")


def _induced_arrow(arrow, proj_p, proj_q):
    if isinstance(arrow, SemMorphism):
        return induced_morphism(arrow, proj_p, proj_q)
    if isinstance(arrow, PregampMorphism):
        return _pregamp.induced_pregamp_morphism(arrow, proj_p, proj_q)
    if isinstance(arrow, GampMorphism):
        return _gamp.induced_gamp_morphism(arrow, proj_p, proj_q)
    raise DomainMismatch(f"cannot induce on {type(arrow).__name__}")


def quotient_diagram(diagram, diagram_ideal, validate=True):
    """Nodewise quotients with induced arrows, plus the projection family.

    validate=False skips the diagram-level functoriality and naturality
    re-checks (each induced arrow is still validated); the refutation trace
    uses this to surface commutation failures at its own named steps.
    """
    diagram_ideal.validate()
    poset = diagram.poset
    new_objects = {}
    projections = {}
    for p in poset.elements:
        q_obj, proj = _quotient_node(diagram.objects[p], diagram_ideal.ideals[p])
        new_objects[p] = q_obj
        projections[p] = proj
    new_arrows = {}
    for (p, q), arrow in diagram.arrows.items():
        new_arrows[(p, q)] = _induced_arrow(arrow, projections[p], projections[q])
    result = Diagram(poset, new_objects, new_arrows, validate=validate)
    transform = NaturalTransformation(diagram, result, projections, validate=validate)
    return result, transform


# Each functor's object map and arrow map, by name; an arrow map takes the
# arrow and its two mapped ends. Module functions are read when called, so
# that a wrapped module function is the one that runs.
_FUNCTORS = {
    "Conc": (lambda a: _cong.conc(a), lambda f, s, t: _cong.conc_morphism(f, s, t)),
    "PGA": (lambda a: _pregamp.pga(a), lambda f, s, t: _pregamp.pga_mor(f, s, t)),
    "GA": (lambda a: _gamp.ga(a), lambda f, s, t: _gamp.ga_mor(f, s, t)),
    "CG": (lambda g: _gamp.cg(g), lambda fm, s, t: fm.fsem),
    "PGGL": (lambda g: _gamp.pggl(g), lambda fm, s, t: _gamp.pggl_mor(fm)),
    "PGGR": (lambda g: _gamp.pggr(g), lambda fm, s, t: _gamp.pggr_mor(fm)),
}


def apply_functor(diagram, name):
    """Nodewise functor application: Conc, PGA, GA, CG, PGGL, PGGR. The
    functors through Con refuse every node before any node's Con is built."""
    if name not in _FUNCTORS:
        raise DomainMismatch(f"unknown functor {name!r}")
    on_objects, on_arrows = _FUNCTORS[name]
    poset = diagram.poset
    if name in ("Conc", "PGA", "GA"):
        for p in poset.elements:
            _cong._require_con_bound(diagram.objects[p], _cong.CON_BOUND)
    objs = {p: on_objects(diagram.objects[p]) for p in poset.elements}
    arrows = {(p, q): on_arrows(a, objs[p], objs[q]) for (p, q), a in diagram.arrows.items()}
    return Diagram(poset, objs, arrows)


def is_operational_diagram(diagram):
    """Every strict arrow operational; returns (bool, witness)."""
    for (p, q), arrow in diagram.arrows.items():
        if p == q:
            continue
        v = _gamp.check_morphism_property(arrow, "operational")
        if not v:
            return False, ((p, q), v.witness)
    return True, None


def is_partial_lifting(
    diagram,
    realizations,
    m_cap=2,
    x_cap=3,
    lattice=False,
    n_permutable=None,
):
    """Verify the partial-lifting conditions on a gamp diagram.

    Per node: strong, congruence-tractable (bounded), distance-generated, and
    a caller-supplied isomorphic realization. Per strict arrow: strong and
    congruence-cuttable (bounded). The lattice flag adds the chain forms;
    n_permutable adds the per-node permutability check. Returns an aggregated
    verdict plus the per-item detail map.
    """
    detail = {}
    verdicts = []
    poset = diagram.poset
    for p in poset.elements:
        g = diagram.objects[p]
        if p not in realizations:
            raise MissingRealization(f"no realization supplied for node {p!r}")
        r = realizations[p]
        v = Verdict.true() if (_gamp.check_realization(g, r) and r.isomorphic) else Verdict.false()
        detail[("realization", p)] = v
        verdicts.append(v)
        for prop in ("strong", "distance_generated"):
            v = _gamp.check_property(g, prop)
            detail[(prop, p)] = v
            verdicts.append(v)
        v = _gamp.check_property(g, "congruence_tractable", m_cap=m_cap)
        detail[("congruence_tractable", p)] = v
        verdicts.append(v)
        if lattice:
            v = _gamp.check_property(g, "distance_generated_chains")
            detail[("distance_generated_chains", p)] = v
            verdicts.append(v)
        if n_permutable is not None:
            v = _gamp.check_property(g, "n_permutable", n=n_permutable)
            detail[("n_permutable", p)] = v
            verdicts.append(v)
    for (p, q), arrow in diagram.arrows.items():
        if p == q:
            continue
        for prop in ("strong", "cuttable") + (("cuttable_chains",) if lattice else ()):
            v = _gamp.check_morphism_property(arrow, prop, x_cap=x_cap)
            detail[(prop, (p, q))] = v
            verdicts.append(v)
    return combine_verdicts(verdicts), detail
