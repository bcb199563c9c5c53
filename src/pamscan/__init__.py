"""Exact configuration spaces of parity-typed intervals over a partial
abelian monoid, with the scanning map into circle sums and the fiber
machinery around it."""

from .pam import UNIT, DomainError, FinitePam, PamError, UndecidedError, validate_pam
from .intervals import (
    CLOSED,
    OPEN,
    IncompatibleConfig,
    Interval,
    clip_interval,
    interval_leq,
    is_chain,
    is_compatible,
    merge_summable,
    normalize_config,
)
from .tensor import (
    BASEPOINT,
    BMElement,
    CircleCarrier,
    EqVerdict,
    TrivialCarrier,
    bm_canon,
    in_T,
    norm_circle,
)
from .labeled import (
    AdmissibilityReport,
    DecompResult,
    DecomposeError,
    Elem1,
    Elem2,
    SymmetricConfig,
    WindowIndex,
    admissibility_sweep,
    config_eq,
    decompose_window,
    double,
    in_T_labeled,
    is_admissible,
    is_mirror_invariant,
    labeled_normalize,
    labeled_rewrite_neighbors,
    lc_sorted,
    mirror_config,
    positive_part,
    restrict,
    split_sides,
    translate_config,
    window_sweep_points,
)
from .scanning import (
    MooreLoop,
    TraceError,
    alpha_eval,
    alpha_trace,
    loop_eval,
    omega,
    path_eval_at_zero,
)
from .fibers import (
    FiberClass,
    base_homotopy,
    cap_project,
    classify_fiber,
    contract,
    cover_homotopy,
    glue_g,
    is_in_O,
    push_homotopy,
    retract_r,
    standard_lift,
)

__version__ = "0.1.0"

__all__ = [
    "UNIT", "DomainError", "FinitePam", "PamError", "UndecidedError", "validate_pam",
    "CLOSED", "OPEN", "IncompatibleConfig", "Interval", "clip_interval",
    "interval_leq", "is_chain", "is_compatible", "merge_summable", "normalize_config",
    "BASEPOINT", "BMElement", "CircleCarrier", "EqVerdict",
    "TrivialCarrier", "bm_canon", "in_T",
    "norm_circle",
    "AdmissibilityReport", "DecompResult", "DecomposeError", "Elem1",
    "Elem2", "SymmetricConfig", "WindowIndex", "config_eq",
    "admissibility_sweep", "decompose_window", "double", "in_T_labeled", "is_admissible",
    "is_mirror_invariant", "labeled_normalize", "labeled_rewrite_neighbors", "lc_sorted",
    "mirror_config", "positive_part", "restrict",
    "split_sides", "translate_config", "window_sweep_points",
    "MooreLoop", "TraceError", "alpha_eval", "alpha_trace", "loop_eval",
    "omega", "path_eval_at_zero",
    "FiberClass", "base_homotopy", "cap_project", "classify_fiber",
    "contract", "cover_homotopy", "glue_g", "is_in_O", "push_homotopy",
    "retract_r", "standard_lift",
    "__version__",
]
