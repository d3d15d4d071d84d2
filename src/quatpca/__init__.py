"""Bilateral two-dimensional quaternion PCA with Lp norms.

Color images become pure quaternion matrices; two orthonormal bases of
projection directions are fitted by Lp-sphere ascent with deflation and
drive nearest-neighbor recognition and image reconstruction.
"""

from .errors import (
    ConfigError,
    DegenerateDirection,
    FormatError,
    InvalidDataset,
    InvalidParameter,
    InvalidWeight,
    IoError,
    QuatPcaError,
    ShapeError,
)
from .quaternion import (
    QMatrix,
    Quaternion,
    QVector,
    lp_norm,
    real_repr,
    real_scale,
    vabs,
    vsign,
)
from .solver import (
    BasisPair,
    DirectionTrace,
    FitParams,
    FitReport,
    covariance_baseline,
    deflated_residuals,
    fit,
    hermitian_topk_eig,
    lp_update,
    mgs_orthonormalize,
    mm_update,
    objective,
)
from .weighting import (
    MANNER_PRECEDENCE,
    Manner,
    SelectionConfig,
    Transform,
    WeightingScheme,
    best_manner,
    project,
    project_stack,
    score_weightings,
    select_weighting,
)
from .recognition import Gallery, build_gallery, evaluate, predict, sweep_accuracies
from .reconstruction import reconstruct, reconstruct_samples, reconstruction_ratio, sweep_ratios
from .dataset import (
    Sample,
    SampleSet,
    center,
    export_image,
    load_basis,
    load_dataset,
    save_basis,
    split,
)

__version__ = "0.1.0"

__all__ = [
    "QuatPcaError", "ShapeError", "InvalidParameter", "DegenerateDirection",
    "InvalidWeight", "InvalidDataset", "IoError", "FormatError", "ConfigError",
    "Quaternion", "QVector", "QMatrix",
    "vabs", "vsign", "lp_norm", "real_scale", "real_repr",
    "mgs_orthonormalize", "hermitian_topk_eig",
    "FitParams", "BasisPair", "FitReport", "DirectionTrace",
    "objective", "lp_update", "mm_update", "fit",
    "covariance_baseline", "deflated_residuals",
    "MANNER_PRECEDENCE", "Manner", "Transform", "WeightingScheme",
    "SelectionConfig", "project", "project_stack",
    "score_weightings", "best_manner", "select_weighting",
    "Gallery", "build_gallery", "predict", "evaluate", "sweep_accuracies",
    "reconstruct", "reconstruct_samples", "reconstruction_ratio", "sweep_ratios",
    "Sample", "SampleSet", "load_dataset", "center", "split",
    "save_basis", "load_basis", "export_image",
    "__version__",
]
