"""Finite-difference verification suite wiring."""

import hashlib

import numpy as np

from psygat import verify


def test_suite_covers_all_ops_and_model():
    rows = verify.run_suite(trials=2)
    names = {name for name, *_ in rows}
    expected = {
        "matmul", "add", "sub", "mul", "add_bias", "scale_rows", "leaky_relu",
        "elu", "sigmoid", "tanh", "softplus", "exp", "log", "pow_const",
        "layer_norm", "segment_softmax", "segment_sum", "gather_rows", "chain_attention",
        "concat_cols", "concat_rows", "slice_cols", "reshape", "transpose",
        "tsum", "tmean", "l2_normalize_rows", "dropout", "focal", "full_model_forward",
        "batched_model_forward", "stacked_model_forward", "causal_scorer",
    }
    assert expected <= names
    # the scorer row comes last, so adding it left every other row's draws alone
    assert [name for name, *_ in rows][-4:] == [
        "full_model_forward", "batched_model_forward", "stacked_model_forward", "causal_scorer"]


def test_all_rows_within_tolerance():
    """Every row passes, and the rows' errors are pinned to the bits, as the
    other digest tests pin theirs on this numpy/OpenBLAS build: a refactor
    of the ops, the model or grad_check must leave them unchanged."""
    rows = verify.run_suite(trials=3)
    h = hashlib.sha256()
    for name, err, tol, passed in rows:
        assert passed, f"{name}: {err:.3e} over tolerance {tol:.0e}"
        h.update(name.encode())
        h.update(np.float64(err).tobytes())
    assert h.hexdigest() == "e12f4a22fe51fcac1cf49634121a4deb1f5bd9d727dd6c31c9f78df5ecad7f58"


def test_tolerances():
    rows = dict()
    for name, err, tol, passed in verify.run_suite(trials=1):
        rows[name] = tol
    assert rows["full_model_forward"] == 1e-3
    assert rows["batched_model_forward"] == 1e-3
    assert rows["stacked_model_forward"] == 1e-3
    assert rows["matmul"] == 1e-4
    assert rows["causal_scorer"] == 1e-4
