"""The error contract: every public callable of ``dcmerge._SUBMODULES``, given a value of the
right type that breaks a rule, returns or raises a DcMergeError subclass.

Each case drives one callable with a degenerate value: a 0-size or rank-0 array, a NaN or
infinite scalar, a bool where an int is due, a negative seed or mismatched shapes. Warnings
are errors in this suite, so a numpy warning on the way fails the case as well.
"""

import numpy as np
import pytest

import dcmerge
from dcmerge.container import (
    ContainerReader,
    ExtractedVectors,
    PairedMatrix,
    Pairing,
    TensorContainer,
    TensorSpec,
    container_writer,
    detect_mode,
    extract_task_vectors,
    pair_tensors,
    read_container,
    vector_delta,
    write_container,
)
from dcmerge.cover import CoverBasis, back_project, build_cover_basis, frame, make_mask, project
from dcmerge.errors import ContainerError, DcMergeError, NumericalError, ValidationError
from dcmerge.linalg import (
    SvdTriplet,
    as_matrix,
    matrix_exp_skew,
    orthogonal_complement_sample,
    truncated_svd,
    whiten,
)
from dcmerge.merge import (
    MergeConfig,
    assemble_model,
    assemble_tensor,
    dc_merge,
    merge_ta,
    merge_ties,
    resolve_rank,
)
from dcmerge.metrics import (
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
from dcmerge.optimizer import OptimizationTrace, OptimizerConfig, optimize_cover_basis
from dcmerge.perturb import direction_perturb, energy_perturb, perturb_rank, perturb_task_vector
from dcmerge.task_vector import (
    SmoothingStrategy,
    TaskVector,
    decompose,
    from_fft_delta,
    from_lora_factors,
    reconstruct,
    smooth_energy,
    stack_bases,
)

from helpers import random_decomp

NAN, INF = float("nan"), float("inf")
_rng = np.random.default_rng(0)
KD = random_decomp(_rng, 6, 5, 2)
KD_T = random_decomp(_rng, 5, 6, 2)  # the transposed shape
TV = TaskVector("w", _rng.standard_normal((6, 5)))
ZERO = TaskVector("z", np.zeros((6, 5)))
EMPTY = TaskVector("e", np.zeros((6, 0)))
BASIS = build_cover_basis([KD])
W = TensorContainer({"w": np.zeros((2, 2))})


def _file(tmp, data: bytes):
    path = tmp / "c.dcm"
    path.write_bytes(data)
    return path


def _read_back(tmp):
    write_container(TensorContainer({"w": np.zeros((3, 0))}), tmp / "c.dcm")
    with ContainerReader(tmp / "c.dcm") as reader:
        reader.read("w")


def _never_put(tmp):
    with container_writer(tmp / "out.dcm", {"w": TensorSpec(np.dtype("<f8"), (1,), 0, 8)}, {}):
        pass


# public name -> {case: call on a temporary folder}; every name of _SUBMODULES has a row
CASES = {
    "ContainerReader": {
        "short file": lambda tmp: ContainerReader(_file(tmp, b"\0\0\0")),
        "0-size tensor": _read_back,
    },
    "ExtractedVectors": {"empty": lambda tmp: ExtractedVectors({}, {})},
    "PairedMatrix": {
        "mismatched shapes": lambda tmp: PairedMatrix("w", (2, 2), ("w",)).task_vector(
            lambda name: np.zeros((3, 3)), np.zeros((2, 2))),
        "rank-0 factors": lambda tmp: PairedMatrix("w", (2, 2), ("w.lora_B", "w.lora_A"), 0)
        .task_vector(lambda name: np.zeros((2, 0)) if name.endswith("B") else np.zeros((0, 2)),
                     None),
    },
    "Pairing": {"empty": lambda tmp: Pairing({}, (), (), ())},
    "TensorContainer": {
        "0-size tensor": lambda tmp: TensorContainer({"w": np.zeros((0, 3))}),
        "integer tensor": lambda tmp: TensorContainer({"w": np.zeros(2, dtype=int)}),
    },
    "TensorSpec": {"0-size": lambda tmp: TensorSpec(np.dtype("<f4"), (0,), 0, 0)},
    "container_writer": {"tensor never put": _never_put},
    "detect_mode": {"no tensor": lambda tmp: detect_mode(TensorContainer())},
    "extract_task_vectors": {
        "mismatched shapes": lambda tmp: extract_task_vectors(
            W, TensorContainer({"w": np.zeros((3, 3))}), "fft"),
        "NaN entry": lambda tmp: extract_task_vectors(
            W, TensorContainer({"w": np.full((2, 2), NAN)}), "fft"),
    },
    "pair_tensors": {
        "mismatched shapes": lambda tmp: pair_tensors(
            {"b": np.zeros(3)}, {"b": np.zeros(4)}, "fft"),
        "rank-0 factors": lambda tmp: pair_tensors(
            {"w.weight": np.zeros((2, 2))},
            {"w.lora_B": np.zeros((2, 0)), "w.lora_A": np.zeros((0, 2))}, "lora"),
    },
    "read_container": {"empty file": lambda tmp: read_container(_file(tmp, b""))},
    "vector_delta": {
        "mismatched shapes": lambda tmp: vector_delta("b", np.zeros(3), np.zeros(2)),
        "inf entry": lambda tmp: vector_delta("b", np.array([INF]), np.zeros(1)),
    },
    "write_container": {
        "0-size tensor": lambda tmp: write_container(
            TensorContainer({"w": np.zeros((0, 3))}), tmp / "c.dcm"),
    },
    "CoverBasis": {
        "width 0": lambda tmp: CoverBasis(np.zeros((4, 0)), np.zeros((3, 0))),
        "mismatched widths": lambda tmp: CoverBasis(KD.U, KD_T.U[:, :1]),
    },
    "back_project": {
        "bool block": lambda tmp: back_project(np.eye(2), True, BASIS),
        "mismatched shapes": lambda tmp: back_project(np.eye(3), 1, BASIS),
        "NaN entry": lambda tmp: back_project(np.full((2, 2), NAN), 1, BASIS),
    },
    "build_cover_basis": {
        "no task": lambda tmp: build_cover_basis([]),
        "mismatched shapes": lambda tmp: build_cover_basis([KD, KD_T]),
        "zero spectrum": lambda tmp: build_cover_basis([decompose(ZERO, 2)]),
    },
    "frame": {"mismatched shapes": lambda tmp: frame([KD, KD_T], basis=False)},
    "make_mask": {
        "size 0": lambda tmp: make_mask(0, 1),
        "bool block": lambda tmp: make_mask(4, True),
    },
    "project": {"mismatched shapes": lambda tmp: project([KD_T], BASIS)},
    "ContainerError": {"construct": lambda tmp: ContainerError("x")},
    "DcMergeError": {"construct": lambda tmp: DcMergeError("x")},
    "NumericalError": {"construct": lambda tmp: NumericalError("x")},
    "ValidationError": {"construct": lambda tmp: ValidationError("x")},
    "SvdTriplet": {
        "rank 0": lambda tmp: SvdTriplet(np.zeros((4, 0)), np.zeros(0), np.zeros((3, 0))),
        "NaN sigma": lambda tmp: SvdTriplet(KD.U, [NAN, 1.0], KD.V),
        "mismatched ranks": lambda tmp: SvdTriplet(KD.U, [1.0], KD.V),
    },
    "as_matrix": {
        "0-size": lambda tmp: as_matrix(np.zeros((0, 3))),
        "inf entry": lambda tmp: as_matrix([[INF]]),
    },
    "matrix_exp_skew": {
        "0-size": lambda tmp: matrix_exp_skew(np.zeros((0, 0))),
        "not square": lambda tmp: matrix_exp_skew(np.zeros((2, 3))),
    },
    "orthogonal_complement_sample": {
        "negative seed": lambda tmp: orthogonal_complement_sample(KD.U, 1, -1),
        "bool count": lambda tmp: orthogonal_complement_sample(KD.U, True, 0),
        "no room": lambda tmp: orthogonal_complement_sample(KD.U, 5, 0),
        "rank-0 input": lambda tmp: orthogonal_complement_sample(np.zeros((4, 0)), 2, 0),
    },
    "truncated_svd": {
        "0-size": lambda tmp: truncated_svd(np.zeros((0, 3)), 1),
        "bool rank": lambda tmp: truncated_svd(TV.delta, True),
        "zero matrix": lambda tmp: truncated_svd(np.zeros((3, 3)), 2),
    },
    "whiten": {
        "0-size": lambda tmp: whiten(np.zeros((3, 0))),
        "wide": lambda tmp: whiten(np.zeros((2, 3))),
    },
    "MergeConfig": {
        "bool rank": lambda tmp: MergeConfig(rank=True),
        "NaN ties_keep": lambda tmp: MergeConfig(merger="ties", ties_keep=NAN),
    },
    "assemble_model": {
        "NaN alpha": lambda tmp: assemble_model(W, {"w": np.zeros((2, 2))}, alpha=NAN),
        "mismatched shapes": lambda tmp: assemble_model(W, {"w": np.zeros((3, 3))}),
    },
    "assemble_tensor": {
        "NaN alpha": lambda tmp: assemble_tensor("w", np.zeros((2, 2)), np.zeros((2, 2)), NAN),
        "inf alpha": lambda tmp: assemble_tensor("w", np.zeros((2, 2)), np.zeros((2, 2)), INF),
        "mismatched shapes": lambda tmp: assemble_tensor("w", np.zeros(2), np.zeros(3), 1.0),
        "0-size": lambda tmp: assemble_tensor("w", np.zeros((0, 3)), np.zeros((0, 3)), 1.0),
    },
    "dc_merge": {
        "no task": lambda tmp: dc_merge([]),
        "0-size": lambda tmp: dc_merge([EMPTY]),
        "mismatched shapes": lambda tmp: dc_merge([TV, TaskVector("v", np.zeros((5, 6)))]),
        "zero deltas": lambda tmp: dc_merge([ZERO, ZERO]),
    },
    "merge_ta": {
        "no matrix": lambda tmp: merge_ta([]),
        "mismatched shapes": lambda tmp: merge_ta([np.zeros(2), np.zeros(3)]),
    },
    "merge_ties": {
        "NaN keep": lambda tmp: merge_ties([np.ones(2)], NAN),
        "mismatched shapes": lambda tmp: merge_ties([np.zeros(2), np.zeros(3)], 0.5),
        "0-size": lambda tmp: merge_ties([np.zeros((0, 2))], 0.5),
    },
    "resolve_rank": {
        "0-size": lambda tmp: resolve_rank([EMPTY], MergeConfig()),
        "bool rank": lambda tmp: resolve_rank([TV], MergeConfig(rank=True)),
    },
    "AccuracyReport": {"empty": lambda tmp: AccuracyReport(NAN, (), (), NAN)},
    "RMatrix": {
        "0-size": lambda tmp: RMatrix(np.zeros((0, 0))),
        "NaN entry": lambda tmp: RMatrix([[NAN]]),
    },
    "TaskAccuracy": {"NaN accuracy": lambda tmp: TaskAccuracy("t", NAN, 0.9, 0.1)},
    "accuracy_report": {"no row": lambda tmp: accuracy_report([])},
    "alignment_score": {
        "width 0": lambda tmp: alignment_score(np.zeros((6, 0)), np.zeros((5, 0)), [KD]),
        "no task": lambda tmp: alignment_score(BASIS.U_tilde, BASIS.V_tilde, []),
    },
    "cos_sim": {
        "0-size": lambda tmp: cos_sim(np.zeros((0, 3)), np.zeros((0, 3))),
        "mismatched shapes": lambda tmp: cos_sim(np.ones((2, 2)), np.ones((2, 3))),
        "inf entry": lambda tmp: cos_sim([[INF]], [[1.0]]),
    },
    "dir_sim": {"mismatched shapes": lambda tmp: dir_sim(KD, KD_T)},
    "projected_dir_sim": {
        "mismatched shapes": lambda tmp: projected_dir_sim(KD, np.zeros((5, 6))),
        "zero merge": lambda tmp: projected_dir_sim(KD, np.zeros((6, 5))),
        "zero task": lambda tmp: projected_dir_sim(decompose(ZERO, 2), TV.delta),
    },
    "r_matrix": {"mismatched shapes": lambda tmp: r_matrix(KD, KD_T)},
    "OptimizationTrace": {"no point": lambda tmp: OptimizationTrace(())},
    "OptimizerConfig": {
        "NaN learning_rate": lambda tmp: OptimizerConfig(learning_rate=NAN),
        "bool max_iters": lambda tmp: OptimizerConfig(max_iters=True),
    },
    "optimize_cover_basis": {
        "no task": lambda tmp: optimize_cover_basis([], BASIS),
        "mismatched shapes": lambda tmp: optimize_cover_basis([KD_T], BASIS),
    },
    "direction_perturb": {
        "NaN p": lambda tmp: direction_perturb(KD, NAN, 0),
        "negative seed": lambda tmp: direction_perturb(KD, 0.5, -1),
        "no room": lambda tmp: direction_perturb(random_decomp(_rng, 6, 5, 3), 0.5, 0),
    },
    "energy_perturb": {
        "0-size": lambda tmp: energy_perturb(np.zeros(0), 0.5),
        "inf entry": lambda tmp: energy_perturb(np.array([INF, 1.0]), 0.5),
        "NaN p": lambda tmp: energy_perturb(np.array([2.0, 1.0]), NAN),
        "negative seed": lambda tmp: energy_perturb(np.array([2.0, 1.0]), 0.5, -1),
    },
    "perturb_rank": {
        "bool rank": lambda tmp: perturb_rank(TV, "energy", True),
        "unknown kind": lambda tmp: perturb_rank(TV, "bogus"),
        "0-size": lambda tmp: perturb_rank(EMPTY, "direction"),
        "no room": lambda tmp: perturb_rank(TV, "direction", 3),
    },
    "perturb_task_vector": {
        "NaN p": lambda tmp: perturb_task_vector(TV, "energy", NAN, 0),
        "negative seed": lambda tmp: perturb_task_vector(TV, "direction", 0.5, -1),
        "0-size": lambda tmp: perturb_task_vector(EMPTY, "energy", 0.5, 0),
        "zero delta": lambda tmp: perturb_task_vector(ZERO, "direction", 0.5, 0),
    },
    "SmoothingStrategy": {
        "NaN rho": lambda tmp: SmoothingStrategy("linear", rho=NAN),
        "inf tau": lambda tmp: SmoothingStrategy("interpolate", tau=INF),
    },
    "TaskVector": {
        "0-size": lambda tmp: TaskVector("t", np.zeros((3, 0))),
        "NaN entry": lambda tmp: TaskVector("t", [[NAN]]),
    },
    "decompose": {
        "0-size": lambda tmp: decompose(EMPTY, 1),
        "bool rank": lambda tmp: decompose(TV, True),
    },
    "from_fft_delta": {
        "mismatched shapes": lambda tmp: from_fft_delta(np.zeros((2, 2)), np.zeros((3, 3))),
        "inf entry": lambda tmp: from_fft_delta([[INF]], [[0.0]]),
    },
    "from_lora_factors": {
        "rank 0": lambda tmp: from_lora_factors(np.zeros((3, 0)), np.zeros((0, 2))),
        "mismatched shapes": lambda tmp: from_lora_factors(np.zeros((3, 2)), np.zeros((3, 2))),
    },
    "reconstruct": {"zero spectrum": lambda tmp: reconstruct(decompose(ZERO, 2))},
    "smooth_energy": {
        "zero spectrum": lambda tmp: smooth_energy(decompose(ZERO, 2), SmoothingStrategy("linear")),
    },
    "stack_bases": {
        "no task": lambda tmp: stack_bases([]),
        "mismatched shapes": lambda tmp: stack_bases([KD, KD_T]),
    },
}


def test_every_public_name_has_a_case():
    # a public name added without a case fails here
    public = {name for names in dcmerge._SUBMODULES.values() for name in names}
    assert sorted(public ^ CASES.keys()) == []


@pytest.mark.parametrize("name, case", [(name, case) for name, cases in CASES.items()
                                        for case in cases],
                         ids=[f"{name}: {case}" for name, cases in CASES.items() for case in cases])
def test_a_degenerate_value_returns_or_raises_a_package_error(tmp_path, name, case):
    try:
        CASES[name][case](tmp_path)
    except DcMergeError:
        pass
