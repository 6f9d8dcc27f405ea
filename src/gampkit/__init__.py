"""gampkit: a finite universal-algebra workbench.

Congruence semilattices of finite algebras, partial algebras with
semilattice-valued distances and their inner-subalgebra refinements, the
supporting poset combinatorics, and a mechanized check of the small lattice
squares that admit no congruence n-permutable extension square.
"""

from .semilattice import (
    JoinSemilattice,
    SemIdeal,
    SemMorphism,
    enumerate_ideals,
    induced_morphism,
    is_ideal_induced,
    ker0,
    quotient,
)
from .palg import (
    LATTICE_TYPE,
    PalgMorphism,
    PartialAlgebra,
    SimilarityType,
    Term,
    UNDEFINED,
    chain_colimit,
    image_palg,
    is_strong_morphism,
    is_strong_sub,
    preimage_palg,
    satisfies_identity,
)
from .congruence import (
    Congruence,
    MalcevWitness,
    NoContainment,
    UnknownAtBound,
    conc,
    conc_morphism,
    con_lattice,
    is_n_permutable,
    malcev_witness,
    principal_congruence,
    quotient_algebra,
)
from .pregamp import (
    Pregamp,
    PregampMorphism,
    check_axioms,
    is_congruence_tractable_morphism,
    is_ideal_induced_pg,
    induced_pregamp_morphism,
    pga,
    pga_mor,
    pregamp_satisfies_identity,
    quotient_pregamp,
)
from .gamp import (
    Gamp,
    GampMorphism,
    Realization,
    buttress,
    check_morphism_property,
    check_property,
    check_realization,
    ga,
    ga_mor,
    gamp_chain_colimit,
    quotient_gamp,
)
from .poset import (
    FinitePoset,
    KPosetSpec,
    bm_le2,
    kposet,
    kposet_cover_check,
)
from .diagram import (
    Diagram,
    DiagramIdeal,
    NaturalTransformation,
    apply_functor,
    is_operational_diagram,
    is_partial_lifting,
    quotient_diagram,
)
from .constructions import (
    CandidateSquare,
    NamedLattice,
    RefutationCertificate,
    UnliftableSquare,
    algebra_square_candidate,
    build_named,
    build_square,
    enumerate_candidates,
    refute_candidate,
    verify_square_facts,
)
from .util import Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
