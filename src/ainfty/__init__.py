"""Exact-arithmetic pullbacks of A-infinity categories along graded-split
surjective functors, with strictification and homotopy-level classifiers."""

from .fields import Field, FieldError, Scalar
from .linear import (
    Cohomology,
    GradedMap,
    GradedSpace,
    LinearError,
    NotSquareZeroError,
    NotSurjectiveError,
    SplitData,
    cohomology,
    split_surjection,
    vec_add,
)
from .quiver import (
    FormalMorphism,
    GradedQuiver,
    Prenatural,
    QuiverError,
    compose_formal,
    compose_prenatural,
    eval_multilinear,
    identity_formal,
    l_compose,
    r_compose,
)
from .core import (
    AInftyCategory,
    AInftyError,
    AInftyFunctor,
    CheckReport,
    EssentialCertificate,
    F1Result,
    FunctorDefectError,
    H0Category,
    IsoLiftCertificate,
    StructureDefectError,
    UnitAxiomError,
    build_h0,
    check_F1,
    check_isofibration,
    check_quasi_equivalence,
    check_strict_units,
    functor_defect,
    kernel_acyclicity,
    structure_defect,
)
from .strictify import (
    SplitModel,
    Strictification,
    StrictifyError,
    build_phi_psi,
    build_split_model,
    strict_projection,
    strictify,
    transport_structure,
)
from .pullback import (
    ConeError,
    F1Error,
    FibrationReport,
    PullbackCategory,
    UniversalReport,
    build_pullback,
    build_pullback_quiver,
    build_pullback_structure,
    certify_fibration_closure,
    induce_functor,
    solve_pullback_arity,
)

__version__ = "0.1.0"
