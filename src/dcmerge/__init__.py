"""dcmerge: directional-consistent merging of task-adapted model weights.

The names below load their submodule on first use (PEP 562), so
``import dcmerge`` imports no numpy. ``python -m dcmerge.cli`` and the
``dcmerge`` command run this file first, and the CLI must be the one to
load numpy, after it has chosen OpenBLAS's start-up thread count
(``_blas.start``).
"""

import importlib

# submodule -> the public names it provides
_SUBMODULES = {
    "container": (
        "ExtractedVectors",
        "TensorContainer",
        "detect_mode",
        "extract_task_vectors",
        "read_container",
        "write_container",
    ),
    "cover": ("CoverBasis", "back_project", "build_cover_basis", "make_mask", "project"),
    "errors": ("ContainerError", "DcMergeError", "NumericalError", "ValidationError"),
    "linalg": (
        "SvdTriplet",
        "matrix_exp_skew",
        "orthogonal_complement_sample",
        "truncated_svd",
        "whiten",
    ),
    "merge": (
        "MergeConfig",
        "assemble_model",
        "assemble_sweep",
        "cover_space",
        "dc_merge",
        "merge_ta",
        "merge_ties",
        "resolve_rank",
    ),
    "metrics": (
        "AccuracyReport",
        "RMatrix",
        "TaskAccuracy",
        "accuracy_report",
        "alignment_score",
        "cos_sim",
        "dir_sim",
        "projected_dir_sim",
        "r_matrix",
    ),
    "optimizer": ("OptimizationTrace", "OptimizerConfig", "optimize_cover_basis"),
    "perturb": ("direction_perturb", "energy_perturb"),
    "task_vector": (
        "SmoothingStrategy",
        "TaskVector",
        "decompose",
        "from_fft_delta",
        "from_lora_factors",
        "reconstruct",
        "smooth_energy",
        "stack_bases",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
