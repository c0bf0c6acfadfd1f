"""Finite-truncation laboratory for sequence-space operators and l1-Tikhonov
regularization: dense unit-sphere direction sequences, operator truncations
with declared structure, a certified l1 solver with closed-form oracles,
weak*-continuity probes, and a posedness classifier.
"""

from .classify import (
    CatalogEntry,
    PosednessClass,
    Verdict,
    Violation,
    build_catalog_operator,
    catalog,
    check_consistency,
    classify,
)
from .directions import (
    DirectionSet,
    EnumerationParams,
    coverage,
    directions_to_json,
    enumerate_directions,
)
from .operators import (
    OperatorAttributes,
    SpaceTag,
    TruncatedOperator,
    block_product,
    compose,
    diagonal,
    embedding,
    identity,
    injective_counterexample,
    injective_counterexample_inverse,
    mazur,
)
from .probes import (
    ProbeReport,
    composition_probe,
    pseudoinverse_growth,
    weak_star_probe,
)
from .tikhonov import (
    MinimizerCertificate,
    TikhonovProblem,
    closed_form_minimizer,
    collapse_experiment,
    convergence_experiment,
    minimizer_family_distance,
    objective,
    optimality_residual,
    soft_threshold,
    solve,
)

__version__ = "0.1.0"
