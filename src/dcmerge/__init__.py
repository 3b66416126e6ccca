"""dcmerge: directional-consistent merging of task-adapted model weights.

The names below, and the submodules themselves as attributes
(``dcmerge.metrics``), load their submodule on first use (PEP 562), so
``import dcmerge`` imports no numpy. ``python -m dcmerge.cli`` and the
``dcmerge`` command run this file first, and the CLI must be the one to
load numpy, after it has chosen OpenBLAS's start-up thread count
(``_blas.start``).
"""

import importlib

# submodule -> its public names: the one list of them, every function and class
# the submodule defines without a leading underscore
_SUBMODULES = {
    "container": (
        "ContainerReader",
        "ExtractedVectors",
        "PairedMatrix",
        "Pairing",
        "TensorContainer",
        "TensorSpec",
        "container_writer",
        "detect_mode",
        "extract_task_vectors",
        "pair_tensors",
        "read_container",
        "vector_delta",
        "write_container",
    ),
    "cover": ("CoverBasis", "back_project", "build_cover_basis", "frame", "make_mask", "project"),
    "errors": ("ContainerError", "DcMergeError", "NumericalError", "ValidationError"),
    "linalg": (
        "SvdTriplet",
        "as_matrix",
        "matrix_exp_skew",
        "orthogonal_complement_sample",
        "truncated_svd",
        "whiten",
    ),
    "merge": (
        "MergeConfig",
        "assemble_model",
        "assemble_tensor",
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
    "perturb": ("direction_perturb", "energy_perturb", "perturb_rank", "perturb_task_vector"),
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
# every submodule, those that export no name here included
_MODULES = frozenset({*_SUBMODULES, "_blas", "cli"})

__version__ = "0.1.0"

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_MODULES})
