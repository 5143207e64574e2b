"""Exact computational engine for truncated vertex operator algebras.

The package realizes free-boson (Heisenberg) and Virasoro vertex algebras
and their graded modules up to a finite depth with exact rational
arithmetic, and on top of that computes C_1-type quotient data,
correlator reductions to first-order differential systems, Frobenius
solution bases, and truncated fusion-product joins with comparison
witnesses.
"""

from .cofinite import (
    build_cm,
    choose_complement,
    cm_quotient_dims,
    graded_dims,
    log_power_bound,
    nilpotency_report,
)
from .config import RunConfig
from .errors import (
    ConfigError,
    InputShapeError,
    InternalInvariantViolation,
    IrregularSingularity,
    LogDepthExceeded,
    NotCofiniteUpToDepth,
    TruncationError,
    VertexboundError,
)
from .frobenius import frobenius_series, indicial_exponents
from .fusion import (
    IntertwinerData,
    compare,
    heisenberg_intertwiner,
    join,
    zero_intertwiner,
)
from .laurent import LaurentPoly, Q
from .linalg import ExactMatrix
from .modes import (
    GradedVector,
    mode_action,
    omega_vector,
    run_identity_suite,
    vacuum_vector,
)
from .reduction import (
    assemble_ode,
    fusion_bound,
    reduce,
)
from .voa import (
    DirectSumModule,
    FockModule,
    HeisenbergVoa,
    ModuleSpec,
    QuotientModule,
    VermaModule,
    VirasoroQuotientVoa,
    VirasoroVoa,
    VoaSpec,
    level2_singular_vector,
    realize_module,
    realize_voa,
)

__version__ = "0.1.0"

__all__ = [
    "Q",
    "LaurentPoly",
    "ExactMatrix",
    "VertexboundError",
    "InputShapeError",
    "ConfigError",
    "TruncationError",
    "NotCofiniteUpToDepth",
    "IrregularSingularity",
    "LogDepthExceeded",
    "InternalInvariantViolation",
    "VoaSpec",
    "ModuleSpec",
    "HeisenbergVoa",
    "FockModule",
    "VirasoroVoa",
    "VirasoroQuotientVoa",
    "VermaModule",
    "QuotientModule",
    "DirectSumModule",
    "level2_singular_vector",
    "realize_voa",
    "realize_module",
    "GradedVector",
    "mode_action",
    "vacuum_vector",
    "omega_vector",
    "run_identity_suite",
    "build_cm",
    "cm_quotient_dims",
    "choose_complement",
    "graded_dims",
    "nilpotency_report",
    "log_power_bound",
    "reduce",
    "assemble_ode",
    "fusion_bound",
    "indicial_exponents",
    "frobenius_series",
    "IntertwinerData",
    "heisenberg_intertwiner",
    "zero_intertwiner",
    "join",
    "compare",
    "RunConfig",
]
