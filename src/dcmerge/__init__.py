"""dcmerge: directional-consistent merging of task-adapted model weights."""

from .container import (
    ExtractedVectors,
    TensorContainer,
    detect_mode,
    extract_task_vectors,
    read_container,
    write_container,
)
from .cover import (
    CoverBasis,
    back_project,
    build_cover_basis,
    make_mask,
    project,
)
from .errors import ContainerError, DcMergeError, NumericalError, ValidationError
from .linalg import (
    SvdTriplet,
    matrix_exp_skew,
    orthogonal_complement_sample,
    truncated_svd,
    whiten,
)
from .merge import (
    MergeConfig,
    assemble_model,
    assemble_sweep,
    cover_space,
    dc_merge,
    merge_ta,
    merge_ties,
    resolve_rank,
)
from .metrics import (
    AccuracyReport,
    RMatrix,
    TaskAccuracy,
    accuracy_report,
    alignment_score,
    cos_sim,
    dir_sim,
    projected_dir_sim,
    r_matrix,
)
from .optimizer import OptimizationTrace, OptimizerConfig, optimize_cover_basis
from .perturb import direction_perturb, energy_perturb
from .task_vector import (
    SmoothingStrategy,
    TaskVector,
    decompose,
    from_fft_delta,
    from_lora_factors,
    reconstruct,
    smooth_energy,
    stack_bases,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "ContainerError",
    "CoverBasis",
    "DcMergeError",
    "ExtractedVectors",
    "MergeConfig",
    "NumericalError",
    "OptimizationTrace",
    "OptimizerConfig",
    "RMatrix",
    "SmoothingStrategy",
    "SvdTriplet",
    "TaskAccuracy",
    "TaskVector",
    "TensorContainer",
    "ValidationError",
    "accuracy_report",
    "alignment_score",
    "assemble_model",
    "assemble_sweep",
    "back_project",
    "build_cover_basis",
    "cos_sim",
    "cover_space",
    "dc_merge",
    "decompose",
    "detect_mode",
    "dir_sim",
    "direction_perturb",
    "energy_perturb",
    "extract_task_vectors",
    "from_fft_delta",
    "from_lora_factors",
    "make_mask",
    "matrix_exp_skew",
    "merge_ta",
    "merge_ties",
    "optimize_cover_basis",
    "orthogonal_complement_sample",
    "project",
    "projected_dir_sim",
    "r_matrix",
    "read_container",
    "reconstruct",
    "resolve_rank",
    "smooth_energy",
    "stack_bases",
    "truncated_svd",
    "whiten",
    "write_container",
    "__version__",
]
