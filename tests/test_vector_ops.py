"""Task-vector arithmetic: exact examples, algebraic properties, serialization."""

import hashlib
import math
import pickle
import re
import shlex
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synvec import sweep_harness, tensor_store, vector_ops
from synvec.errors import (
    FingerprintMismatchError,
    NonFiniteValueError,
    SchemaMismatchError,
    ValidationError,
    ZeroNormError,
)
from synvec.sweep_harness import (
    SweepConfig,
    run_domain_ablation,
    run_lambda_sweep,
    validate_lambda_grid,
)
from synvec.tensor_store import (
    BLOCK_ELEMENTS,
    TensorMap,
    fingerprint,
    read_checkpoint,
    schema_of,
    write_checkpoint,
)
from synvec.vector_ops import (
    Provenance,
    TaskVector,
    apply_ensemble,
    apply_task_vector,
    compute_task_vector,
    cosine_similarity,
    ensemble_average,
    load_task_vector,
    norm_stats,
    save_task_vector,
    scale_task_vector,
    similarity_matrix,
)

from conftest import random_map_pair, random_tensor_map, write_task_vector_container


def simple_vector(values, dtype=np.float32, name="w"):
    zeros = TensorMap({name: np.zeros(len(values), dtype=dtype)})
    shifted = TensorMap({name: np.asarray(values, dtype=dtype)})
    return compute_task_vector(shifted, zeros)


def test_identical_inputs_give_zero_vector(rng):
    tmap = random_tensor_map(rng)
    tau = compute_task_vector(tmap, tmap)
    for _, arr in tau.deltas.items():
        assert not np.any(arr)


def test_hand_elementwise_subtraction():
    real = TensorMap({"w": np.array([1.0, 2.0], dtype=np.float32)})
    syn = TensorMap({"w": np.array([0.5, 1.5], dtype=np.float32)})
    tau = compute_task_vector(real, syn)
    np.testing.assert_array_equal(tau.deltas["w"], np.array([0.5, 0.5], dtype=np.float32))


def test_extra_tensor_is_schema_error():
    real = TensorMap(
        {"w": np.zeros(2, dtype=np.float32), "extra": np.zeros(1, dtype=np.float32)}
    )
    syn = TensorMap({"w": np.zeros(2, dtype=np.float32)})
    with pytest.raises(SchemaMismatchError) as exc:
        compute_task_vector(real, syn)
    assert "extra" in str(exc.value)


def test_non_finite_input_rejected_unless_permitted():
    real = TensorMap({"w": np.array([np.nan], dtype=np.float32)})
    syn = TensorMap({"w": np.array([0.0], dtype=np.float32)})
    with pytest.raises(NonFiniteValueError):
        compute_task_vector(real, syn)


def test_apply_zero_lambda_is_bitwise_identity(rng):
    model, other = random_map_pair(rng)
    tau = compute_task_vector(other, model)
    out = apply_task_vector(model, tau, 0.0)
    assert out == model
    assert not any(np.shares_memory(arr, model[name]) for name, arr in out.items())  # a copy


def test_apply_reconstructs_real_model(rng):
    real, syn = random_map_pair(rng, dtypes=(np.float32,))
    out = apply_task_vector(syn, compute_task_vector(real, syn), 1.0)
    for name, arr in out.items():
        scale = np.maximum(np.abs(real[name]), np.abs(syn[name])).astype(np.float64)
        err = np.abs(arr.astype(np.float64) - real[name].astype(np.float64))
        assert np.all(err <= 1e-6 * np.maximum(scale, np.finfo(np.float32).tiny))


def test_apply_hand_arithmetic():
    model = TensorMap({"w": np.array([1.0], dtype=np.float32)})
    tau = simple_vector([0.5])
    out = apply_task_vector(model, tau, 0.4)
    assert out["w"][0] == pytest.approx(1.2, rel=1e-6)


def test_apply_rejects_non_finite_lambda():
    model = TensorMap({"w": np.zeros(1, dtype=np.float32)})
    tau = simple_vector([1.0])
    with pytest.raises(ValidationError):
        apply_task_vector(model, tau, float("inf"))


@pytest.mark.parametrize("lam", [np.float32(0.5), np.float16(0.5), np.int64(1), 1])
def test_apply_accepts_real_scalars(lam):
    model = TensorMap({"w": np.array([1.0, -2.0], dtype=np.float32)})
    tau = simple_vector([0.5, 0.25])
    expected = apply_task_vector(model, tau, float(lam))
    assert apply_task_vector(model, tau, lam) == expected


@pytest.mark.parametrize("lam", [np.float32("nan"), np.float64("inf"), "0.5", 1j, None, True, "x"])
def test_apply_rejects_non_finite_or_non_real_lambda(lam, tmp_path):
    # Apply's lambda, scale's factor, ablation's lambda and each grid value share one rule.
    model = TensorMap({"w": np.zeros(1, dtype=np.float32)})
    tau = simple_vector([1.0])
    with pytest.raises(ValidationError):
        apply_task_vector(model, tau, lam)
    with pytest.raises(ValidationError):
        scale_task_vector(tau, lam)
    with pytest.raises(ValidationError):
        run_domain_ablation(model, [tau], lam, SweepConfig(evaluator="true", workdir=tmp_path))
    with pytest.raises(ValidationError):
        validate_lambda_grid([lam])


def test_apply_reports_overflowing_tensor():
    model = TensorMap({"w": np.array([60000.0], dtype=np.float16)})
    tau = compute_task_vector(
        TensorMap({"w": np.array([30000.0], dtype=np.float16)}),
        TensorMap({"w": np.array([0.0], dtype=np.float16)}),
    )
    with pytest.raises(NonFiniteValueError) as exc:
        apply_task_vector(model, tau, 1.0)
    assert exc.value.tensor == "w" and exc.value.index == 0


def test_ensemble_singleton_is_value_equal():
    tau = simple_vector([1.0, -2.0])
    assert ensemble_average([tau]) == tau


def test_ensemble_of_identical_copies():
    tau = simple_vector([0.3, -1.7, 2.5])
    for k in (2, 3, 5):
        avg = ensemble_average([tau] * k)
        np.testing.assert_array_equal(avg.deltas["w"], tau.deltas["w"])


def test_ensemble_hand_mean():
    a = simple_vector([1.0])
    b = simple_vector([3.0])
    avg = ensemble_average([a, b])
    np.testing.assert_array_equal(avg.deltas["w"], np.array([2.0], dtype=np.float32))


def test_ensemble_empty_list_rejected():
    with pytest.raises(ValidationError):
        ensemble_average([])


def test_ensemble_fingerprint_mismatch():
    a = simple_vector([1.0])
    b = simple_vector([1.0, 2.0])
    with pytest.raises(FingerprintMismatchError):
        ensemble_average([a, b])


def test_ensemble_merges_domain_provenance():
    zeros = TensorMap({"w": np.zeros(1, dtype=np.float32)})
    ones = TensorMap({"w": np.ones(1, dtype=np.float32)})
    a = compute_task_vector(ones, zeros, Provenance(source_domain_label="music"))
    b = compute_task_vector(ones, zeros, Provenance(source_domain_label="email"))
    assert ensemble_average([a, b]).provenance.source_domain_label == "email+music"


def _golden_vectors(dtype, k=4, seed=20240603):
    # One tensor spans more than one 1M-element chunk of the mean.
    rng = np.random.default_rng(seed)
    shapes = {"big": (1 << 20) + 4099, "mid": (257, 33), "scalar": ()}
    vectors = []
    for _ in range(k):
        entries = {n: (rng.standard_normal(s) * 1e-2).astype(dtype) for n, s in shapes.items()}
        tmap = TensorMap(entries)
        vectors.append(TaskVector(deltas=tmap, base_schema=fingerprint(tmap)))
    return vectors


@pytest.mark.parametrize(
    "dtype, digest",
    [
        (np.float16, "a814d1b714ed421415a774b84bf9eedb143d3f398b2647deeb59b0727724326f"),
        (np.float32, "7c35c37ac6bbae56f795b5cd0db643f46494d5237d89171f9dcc280ed1f7706a"),
    ],
)
def test_ensemble_golden_digest(dtype, digest):
    avg = ensemble_average(_golden_vectors(dtype))
    h = hashlib.sha256()
    for name, arr in avg.deltas.items():
        h.update(name.encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def _sorted_mean(arrays):
    # The reference: widen, sort every element's addends, sum, divide, narrow.
    stacked = np.stack([a.reshape(-1).astype(np.float64) for a in arrays])
    stacked.sort(axis=0)
    return (stacked.sum(axis=0) / len(arrays)).reshape(arrays[0].shape).astype(arrays[0].dtype)


def _edge_case_addends(rng, dtype, k, n=512):
    info = np.finfo(dtype)
    specials = np.array(
        [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal,
         info.tiny / 3, -info.tiny / 5, info.tiny, -info.tiny, info.eps, 1.0, -1.0],
        dtype=dtype,
    )
    rows = (rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-4, 3, (k, n))).astype(dtype)
    mask = rng.random((k, n)) < 0.4
    rows[mask] = rng.choice(specials, int(mask.sum()))
    # At most one +-max per element: two in F64 would overflow the sum.
    columns = np.nonzero(rng.random(n) < 0.3)[0]
    rows[rng.integers(0, k, columns.size), columns] = info.max * rng.choice([-1, 1], columns.size)
    rows[:, :4] = -0.0  # all-negative-zero elements average to +0
    rows[: k // 2, 4:8] = 0.0  # mixed-sign zeros
    return list(rows)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, "mixed"])
@pytest.mark.parametrize("k", range(2, 18))
def test_ensemble_matches_sorted_sum_bitwise(dtype, k):
    # "mixed" holds F16, F32 and F64 tensors in one map: one call takes both sum paths.
    dtypes = (np.float16, np.float32, np.float64) if dtype == "mixed" else (dtype,)
    entries = [{} for _ in range(k)]
    for dt in dtypes:
        rng = np.random.default_rng(1000 * k + np.dtype(dt).itemsize)
        prefix = np.dtype(dt).name if dtype == "mixed" else ""
        for entry, values in zip(entries, _edge_case_addends(rng, dt, k)):
            entry[prefix + "w"] = values.reshape(16, -1)
            entry[prefix + "s"] = values[:1].reshape(())
    vectors = []
    for entry in entries:
        tmap = TensorMap(entry)
        vectors.append(TaskVector(deltas=tmap, base_schema=fingerprint(tmap)))
    avg = ensemble_average(vectors)
    assert len(avg.deltas) == 2 * len(dtypes)
    for name in avg.deltas.names():
        expected = _sorted_mean([v.deltas[name] for v in vectors])
        assert avg.deltas[name].dtype == expected.dtype
        assert avg.deltas[name].tobytes() == expected.tobytes()


def test_apply_ensemble_singleton_reduction(rng):
    model, other = random_map_pair(rng)
    tau = compute_task_vector(other, model)
    assert apply_ensemble(model, [tau], 0.7) == apply_task_vector(model, tau, 0.7)


def test_apply_ensemble_zero_lambda(rng):
    model, other = random_map_pair(rng)
    tau = compute_task_vector(other, model)
    assert apply_ensemble(model, [tau, tau], 0.0) == model


def test_apply_ensemble_hand_arithmetic():
    model = TensorMap({"w": np.array([0.0], dtype=np.float32)})
    out = apply_ensemble(model, [simple_vector([1.0]), simple_vector([3.0])], 0.5)
    np.testing.assert_array_equal(out["w"], np.array([1.0], dtype=np.float32))


def test_cosine_self_similarity():
    tau = simple_vector([0.2, -0.8, 1.4])
    assert cosine_similarity(tau, tau) == 1.0


def test_cosine_antiparallel():
    tau = simple_vector([0.2, -0.8, 1.4])
    assert cosine_similarity(tau, scale_task_vector(tau, -1.0)) == -1.0


def test_cosine_hand_value():
    a = simple_vector([1.0, 0.0])
    b = simple_vector([1.0, 1.0])
    assert cosine_similarity(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-9)


def test_cosine_zero_norm_global_is_error():
    zero = simple_vector([0.0])
    with pytest.raises(ZeroNormError):
        cosine_similarity(zero, simple_vector([1.0]))


def test_cosine_per_tensor_reports_undefined():
    zeros = TensorMap({"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)})
    left = TensorMap({"a": np.ones(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)})
    right = TensorMap({"a": np.ones(2, dtype=np.float32), "b": np.ones(2, dtype=np.float32)})
    a = compute_task_vector(left, zeros)
    b = compute_task_vector(right, zeros)
    per_tensor = cosine_similarity(a, b, "per_tensor")
    assert per_tensor["a"] == pytest.approx(1.0)
    assert per_tensor["b"] is None


def test_cosine_global_uses_canonical_concatenation():
    # dot spans tensors: a = (1,0 | 0,1), b = (1,0 | 0,-1) -> cos 0
    zeros = TensorMap({"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float32)})
    u = compute_task_vector(
        TensorMap({"a": np.array([1.0, 0.0], dtype=np.float32),
                   "b": np.array([0.0, 1.0], dtype=np.float32)}), zeros)
    v = compute_task_vector(
        TensorMap({"a": np.array([1.0, 0.0], dtype=np.float32),
                   "b": np.array([0.0, -1.0], dtype=np.float32)}), zeros)
    assert cosine_similarity(u, v) == pytest.approx(0.0, abs=1e-12)


def test_norm_stats_zero_vector():
    stats = norm_stats(simple_vector([0.0, 0.0]))
    assert stats.total.l2_norm == 0.0
    assert stats.total.max_abs == 0.0
    assert stats.total.mean_abs == 0.0


def test_norm_stats_three_four_five():
    stats = norm_stats(simple_vector([3.0, 4.0]))
    assert stats.per_tensor["w"].l2_norm == pytest.approx(5.0, abs=1e-12)
    assert stats.per_tensor["w"].max_abs == 4.0


def test_norm_stats_concatenation_identity():
    zeros = TensorMap({"a": np.zeros(1, dtype=np.float32), "b": np.zeros(1, dtype=np.float32)})
    shifted = TensorMap({"a": np.array([3.0], dtype=np.float32),
                         "b": np.array([4.0], dtype=np.float32)})
    stats = norm_stats(compute_task_vector(shifted, zeros))
    assert stats.total.l2_norm == pytest.approx(5.0, abs=1e-12)


def test_norm_stats_global_l2_matches_per_tensor_sums(rng):
    a, b = random_map_pair(rng)
    stats = norm_stats(compute_task_vector(a, b))
    total_sq = sum(s.l2_norm**2 for s in stats.per_tensor.values())
    assert stats.total.l2_norm == pytest.approx(math.sqrt(total_sq), rel=1e-12)


# --- algebra properties ---


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]))
def test_reconstruction_property(seed, dtype):
    rng = np.random.default_rng(seed)
    real, syn = random_map_pair(rng, dtypes=(dtype,))
    out = apply_task_vector(syn, compute_task_vector(real, syn), 1.0)
    tol = 1e-6 if dtype is np.float32 else 1e-12
    for name, arr in out.items():
        scale = np.maximum(np.abs(real[name]), np.abs(syn[name])).astype(np.float64)
        scale = np.maximum(scale, np.finfo(dtype).tiny)
        err = np.abs(arr.astype(np.float64) - real[name].astype(np.float64))
        assert np.all(err <= tol * scale)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam1=st.floats(-2, 2, allow_nan=False),
    lam2=st.floats(-2, 2, allow_nan=False),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_scaling_additivity(seed, lam1, lam2, dtype):
    rng = np.random.default_rng(seed)
    model, other = random_map_pair(rng, dtypes=(dtype,))
    tau = compute_task_vector(other, model)
    chained = apply_task_vector(apply_task_vector(model, tau, lam1), tau, lam2)
    direct = apply_task_vector(model, tau, lam1 + lam2)
    tol = 1e-6 if dtype is np.float32 else 1e-12
    for name, arr in chained.items():
        reference = np.maximum(np.abs(model[name]).astype(np.float64), 1.0)
        err = np.abs(arr.astype(np.float64) - direct[name].astype(np.float64))
        assert np.all(err <= 4 * tol * reference)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 6))
def test_ensemble_permutation_invariance_is_exact(seed, k):
    rng = np.random.default_rng(seed)
    base = random_tensor_map(rng, with_metadata=False)
    vectors = []
    for _ in range(k):
        shifted = TensorMap(
            {n: (a.astype(np.float64) + rng.standard_normal(a.shape)).astype(a.dtype)
             for n, a in base.items()}
        )
        vectors.append(compute_task_vector(shifted, base))
    forward = ensemble_average(vectors)
    perm = [vectors[i] for i in rng.permutation(k)]
    assert ensemble_average(perm) == forward  # bitwise


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.01, 8, allow_nan=False))
def test_cosine_symmetry_and_scale_invariance(seed, c):
    rng = np.random.default_rng(seed)
    a_map, b_map = random_map_pair(rng, dtypes=(np.float64,))
    base = TensorMap({n: np.zeros(arr.shape, dtype=arr.dtype) for n, arr in a_map.items()})
    a = compute_task_vector(a_map, base)
    b = compute_task_vector(b_map, base)
    cos_ab = cosine_similarity(a, b)
    assert -1.0 <= cos_ab <= 1.0
    assert cosine_similarity(b, a) == cos_ab
    for sign in (1.0, -1.0):
        scaled = cosine_similarity(a, scale_task_vector(b, sign * c))
        assert scaled == pytest.approx(sign * cos_ab, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(-2, 2, allow_nan=False))
def test_schema_preservation(seed, lam):
    rng = np.random.default_rng(seed)
    model, other = random_map_pair(rng)
    tau = compute_task_vector(other, model)
    assert schema_of(tau.deltas) == schema_of(model)
    assert schema_of(apply_task_vector(model, tau, lam)) == schema_of(model)
    assert schema_of(ensemble_average([tau, tau]).deltas) == schema_of(model)


# --- similarity matrices ---


def test_similarity_matrix_symmetric_unit_diagonal(rng):
    base = random_tensor_map(rng, with_metadata=False)
    labeled = []
    for i in range(3):
        shifted = TensorMap(
            {n: (a.astype(np.float64) + rng.standard_normal(a.shape)).astype(a.dtype)
             for n, a in base.items()}
        )
        labeled.append((f"v{i}", compute_task_vector(shifted, base)))
    matrix = similarity_matrix(labeled)
    assert matrix.labels == ("v0", "v1", "v2")
    assert np.array_equal(matrix.values, matrix.values.T)
    assert np.all(np.diag(matrix.values) == 1.0)
    assert np.all(matrix.values <= 1.0) and np.all(matrix.values >= -1.0)


def _widened_cosine(a, b, names):
    # The reference: widen both tensors, then np.sum of F64 products per tensor.
    dot = na = nb = 0.0
    for name in names:
        x = a.deltas[name].reshape(-1).astype(np.float64)
        y = b.deltas[name].reshape(-1).astype(np.float64)
        dot += float(np.sum(x * y))
        na += float(np.sum(x * x))
        nb += float(np.sum(y * y))
    if na == 0.0 or nb == 0.0:
        return np.nan
    return float(np.clip(dot / math.sqrt(na * nb), -1.0, 1.0))


def test_similarity_matrix_matches_widened_formula_bitwise(rng):
    base = random_tensor_map(rng, max_tensors=6, max_side=40, with_metadata=False)
    base = TensorMap({**dict(base.items()), "zero": np.zeros((3, 5), dtype=np.float16)})
    labeled = []
    for i in range(4):
        entries = {
            n: (a.astype(np.float64) + 10.0 ** rng.uniform(-3, 1) * rng.standard_normal(a.shape))
            .astype(a.dtype)
            for n, a in base.items()
        }
        if i == 2:  # one vector has a zero-norm tensor
            entries["zero"] = base["zero"]
        labeled.append((f"v{i}", compute_task_vector(TensorMap(entries), base)))
    vectors = [v for _, v in labeled]
    names = vectors[0].deltas.names()

    glob = similarity_matrix(labeled, "global")
    per_tensor = similarity_matrix(labeled, "per_tensor")
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            assert glob.values[i, j] == _widened_cosine(vectors[i], vectors[j], names)
            for name in names:
                expected = _widened_cosine(vectors[i], vectors[j], [name])
                got = per_tensor[name].values[i, j]
                assert got == expected or (np.isnan(got) and np.isnan(expected))
    assert np.isnan(per_tensor["zero"].values[2, 2])
    assert np.isnan(per_tensor["zero"].values[2, 0])


def test_norm_stats_matches_widened_formula_bitwise(rng):
    tmap = random_tensor_map(rng, max_side=40, with_metadata=False)
    tau = TaskVector(deltas=tmap, base_schema=fingerprint(tmap))
    report = norm_stats(tau)
    for name, arr in tmap.items():
        x = np.abs(arr.reshape(-1).astype(np.float64))
        stats = report.per_tensor[name]
        assert stats.l2_norm == math.sqrt(float(np.sum(x * x)))
        assert stats.mean_abs == float(np.sum(x) / x.size)
        assert stats.max_abs == float(x.max())


def test_per_tensor_self_similarity_is_undefined_where_the_squared_sum_is_zero():
    tiny = simple_vector([1e-200, -1e-200], dtype=np.float64)  # its squares underflow to 0
    other = simple_vector([1.0, 2.0], dtype=np.float64)
    values = similarity_matrix([("tiny", tiny), ("other", other)], "per_tensor")["w"].values
    assert np.isnan(values[0, 1]) and np.isnan(values[1, 0])
    assert np.isnan(values[0, 0]) and values[1, 1] == 1.0


def test_similarity_matrix_needs_two_vectors():
    with pytest.raises(ValidationError):
        similarity_matrix([("only", simple_vector([1.0]))])


def test_similarity_matrix_rejects_an_unknown_granularity():
    labeled = [("a", simple_vector([1.0])), ("b", simple_vector([2.0]))]
    with pytest.raises(ValidationError, match="granularity must be 'global' or 'per_tensor'"):
        similarity_matrix(labeled, granularity="per_layer")


# --- serialization ---


def test_save_load_round_trip(tmp_path, rng):
    real, syn = random_map_pair(rng)
    tau = compute_task_vector(
        real,
        syn,
        Provenance(
            source_domain_label="music",
            real_condition_label="studio",
            syn_condition_label="tts_a",
            created_from=("real.st", "syn.st"),
        ),
    )
    path = tmp_path / "tau.safetensors"
    save_task_vector(tau, path)
    loaded = load_task_vector(path)
    assert loaded.deltas == tau.deltas
    assert loaded.base_schema.schema_hash == tau.base_schema.schema_hash
    assert loaded.provenance == tau.provenance


def test_load_rejects_plain_checkpoint(tmp_path):
    from synvec.tensor_store import write_checkpoint

    write_checkpoint(TensorMap({"w": np.ones(2, dtype=np.float32)}), tmp_path / "m.st")
    with pytest.raises(ValidationError):
        load_task_vector(tmp_path / "m.st")


@pytest.mark.parametrize("key, value, error", [
    (vector_ops.BASE_SCHEMA_KEY, "0" * 64, FingerprintMismatchError),
    (vector_ops.CREATED_FROM_KEY, "not json", ValidationError),
    (vector_ops.CREATED_FROM_KEY, "{}", ValidationError),
    (vector_ops.CREATED_FROM_KEY, '"ab"', ValidationError),
    (vector_ops.CREATED_FROM_KEY, '["a", "b", "c"]', ValidationError),
])
def test_load_refuses_metadata_that_does_not_match_the_container(tmp_path, key, value, error):
    path = write_task_vector_container(tmp_path / "tau.st", key, value)
    with pytest.raises(error, match=f"^{re.escape(str(path))}: ") as exc:
        load_task_vector(path)
    assert type(exc.value) is error


def test_save_load_keeps_unrelated_metadata(tmp_path):
    tau = simple_vector([1.0, 2.0])
    tau = TaskVector(
        deltas=TensorMap(dict(tau.deltas.items()), {"note": "kept"}),
        base_schema=tau.base_schema,
        provenance=tau.provenance,
    )
    path = tmp_path / "tau.st"
    save_task_vector(tau, path)
    assert load_task_vector(path).deltas.metadata == {"note": "kept"}


def test_task_vector_validates_fingerprint():
    tau = simple_vector([1.0])
    other = simple_vector([1.0, 2.0])
    with pytest.raises(FingerprintMismatchError):
        TaskVector(deltas=tau.deltas, base_schema=other.base_schema)


def test_saved_vector_uses_reserved_metadata_keys(tmp_path, rng):
    from synvec.tensor_store import read_checkpoint

    real, syn = random_map_pair(rng)
    tau = compute_task_vector(
        real, syn,
        Provenance(source_domain_label="music", real_condition_label="studio",
                   syn_condition_label="tts_a"),
    )
    path = tmp_path / "tau.st"
    save_task_vector(tau, path)
    metadata = read_checkpoint(path).metadata
    assert metadata["synvec.kind"] == "task_vector"
    assert metadata["synvec.base_schema"] == tau.base_schema.schema_hash
    assert metadata["synvec.domain"] == "music"
    assert metadata["synvec.real_label"] == "studio"
    assert metadata["synvec.syn_label"] == "tts_a"


# --- the blocked elementwise kernel against a whole-tensor astype reference ---

_WIDE = {np.float16: np.float32, np.float32: np.float32, np.float64: np.float64}
BLOCK_SIZES = (BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1, 3 * BLOCK_ELEMENTS + 5)


def reference_compute(real, syn):
    wide = _WIDE[real.dtype.type]
    return (real.astype(wide) - syn.astype(wide)).astype(real.dtype)


def reference_apply(model, delta, lam):
    wide = _WIDE[model.dtype.type]
    return (model.astype(wide) + wide(lam) * delta.astype(wide)).astype(model.dtype)


def reference_scale(delta, factor):
    wide = _WIDE[delta.dtype.type]
    return (delta.astype(wide) * wide(factor)).astype(delta.dtype)


def blocked_operands(rng, dtype, size):
    # Magnitudes over many binades, so that narrowing rounds, ties included.
    scale = np.exp2(rng.integers(-12, 8, size))
    real = (rng.standard_normal(size) * scale).astype(dtype)
    syn = (real.astype(np.float64) + 1e-3 * rng.standard_normal(size) * scale).astype(dtype)
    return real, syn


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_blocked_kernel_matches_astype_reference_bitwise(rng, dtype, size):
    real, syn = blocked_operands(rng, dtype, size)
    model = real * dtype(0.75)
    tau = compute_task_vector(TensorMap({"w": real, "x": real[:7]}),
                              TensorMap({"w": syn, "x": syn[:7]}))
    delta = tau.deltas["w"]
    assert delta.tobytes() == reference_compute(real, syn).tobytes()
    assert tau.deltas["x"].tobytes() == reference_compute(real[:7], syn[:7]).tobytes()
    for lam in (0.3, -1.7, np.float32(0.1)):
        applied = apply_task_vector(TensorMap({"w": model, "x": real[:7]}), tau, lam)
        assert applied["w"].tobytes() == reference_apply(model, delta, lam).tobytes()
        assert applied["x"].tobytes() == reference_apply(real[:7], tau.deltas["x"], lam).tobytes()
        scaled = scale_task_vector(tau, lam)
        assert scaled.deltas["w"].tobytes() == reference_scale(delta, lam).tobytes()


def test_overflow_in_a_later_block_keeps_tensor_index_and_message():
    size, index = 3 * BLOCK_ELEMENTS + 5, 2 * BLOCK_ELEMENTS + 3
    model = np.zeros(size, dtype=np.float16)
    model[index] = 60000.0
    big = np.zeros(size, dtype=np.float16)
    big[index] = 30000.0
    tau = compute_task_vector(TensorMap({"a": np.zeros(2, np.float16), "w": big}),
                              TensorMap({"a": np.zeros(2, np.float16),
                                         "w": np.zeros(size, np.float16)}))
    with pytest.raises(NonFiniteValueError) as exc:
        apply_task_vector(TensorMap({"a": np.zeros(2, np.float16), "w": model}), tau, 1.0)
    assert (exc.value.tensor, exc.value.index) == ("w", index)
    assert str(exc.value) == (
        f"applying scale 1.0 produced a non-finite value in tensor 'w' at flat index {index}")

    with pytest.raises(NonFiniteValueError) as exc:
        scale_task_vector(tau, 4.0)
    assert (exc.value.tensor, exc.value.index) == ("w", index)
    assert str(exc.value) == f"task vector tensor 'w' has a non-finite delta at flat index {index}"

    top = np.zeros(size, dtype=np.float32)
    top[index] = np.finfo(np.float32).max
    with pytest.raises(NonFiniteValueError) as exc:
        compute_task_vector(TensorMap({"w": top}), TensorMap({"w": -top}))
    assert (exc.value.tensor, exc.value.index) == ("w", index)
    assert str(exc.value) == f"task vector tensor 'w' has a non-finite delta at flat index {index}"


def test_arithmetic_scans_none_of_its_inputs(tmp_path, monkeypatch, rng):
    real, syn = random_map_pair(rng)
    write_checkpoint(real, tmp_path / "real.st")
    write_checkpoint(syn, tmp_path / "syn.st")
    inputs = [read_checkpoint(tmp_path / name) for name in ("real.st", "syn.st", "syn.st")]
    scanned = []
    original = tensor_store.first_non_finite

    def counting(values, scratch):
        scanned.extend(name for tmap in inputs for name, arr in tmap.items()
                       if np.shares_memory(arr, values))
        return original(values, scratch)

    monkeypatch.setattr(tensor_store, "first_non_finite", counting)
    monkeypatch.setattr(vector_ops, "first_non_finite", counting)
    real, syn, model = inputs
    tau = compute_task_vector(real, syn)
    apply_task_vector(model, tau, 0.5)
    assert scanned == []


@pytest.mark.parametrize("bad_real, bad_syn, role", [
    (False, True, "synthetic model"), (True, False, "real model"), (True, True, "real model")])
def test_kernel_names_the_non_finite_operand(bad_real, bad_syn, role):
    size, index = BLOCK_ELEMENTS + 5, BLOCK_ELEMENTS + 3
    real, syn = np.ones(size, np.float16), np.zeros(size, np.float16)
    if bad_real:
        real[index] = np.inf
    if bad_syn:
        syn[index] = np.nan
    with pytest.raises(NonFiniteValueError) as exc:
        compute_task_vector(TensorMap({"a": np.ones(2, np.float16), "w": real}),
                            TensorMap({"a": np.zeros(2, np.float16), "w": syn}))
    assert (exc.value.tensor, exc.value.index) == ("w", index)
    assert str(exc.value) == f"{role} tensor 'w' has a non-finite value at flat index {index}"


@pytest.mark.parametrize("lam", [0.5, 0.0])
def test_non_finite_model_is_named(lam):
    model = np.zeros(5, np.float32)
    model[3] = np.inf
    with pytest.raises(NonFiniteValueError) as exc:
        apply_task_vector(TensorMap({"w": model}), simple_vector([1.0] * 5), lam)
    assert (exc.value.tensor, exc.value.index) == ("w", 3)
    assert str(exc.value) == "model tensor 'w' has a non-finite value at flat index 3"


BAD_SIZE, BAD_INDEX = BLOCK_ELEMENTS + 5, BLOCK_ELEMENTS + 3


def non_finite_vector(value) -> TaskVector:
    """A task vector whose tensor 'w' holds ``value`` at BAD_INDEX, after a
    finite tensor 'a'."""
    w = np.ones(BAD_SIZE, np.float32)
    w[BAD_INDEX] = value
    deltas = TensorMap({"a": np.ones(2, np.float32), "w": w})
    return TaskVector(deltas, fingerprint(deltas))


def _config(tmp_path):
    return SweepConfig(evaluator="unused {checkpoint}", workdir=tmp_path / "work",
                       lambda_grid=(0.0, 0.5))


# Each operation that reads a task vector's values, on a finite vector
# ``good``, the bad ``tau``, a zero model and a temporary directory.
NON_FINITE_READS = {
    "apply": lambda good, tau, model, tmp: apply_task_vector(model, tau, 0.5),
    "apply_zero": lambda good, tau, model, tmp: apply_task_vector(model, tau, 0.0),
    "ensemble_one_out": lambda good, tau, model, tmp: ensemble_average([tau], out=tmp / "out"),
    "ensemble_two": lambda good, tau, model, tmp: ensemble_average([good, tau]),
    "cosine": lambda good, tau, model, tmp: cosine_similarity(good, tau),
    "norm_stats": lambda good, tau, model, tmp: norm_stats(tau),
    "scale": lambda good, tau, model, tmp: scale_task_vector(tau, 2.0),
    "save": lambda good, tau, model, tmp: save_task_vector(tau, tmp / "out"),
    "sweep": lambda good, tau, model, tmp: run_lambda_sweep(model, tau, _config(tmp)),
    "ablate": lambda good, tau, model, tmp: run_domain_ablation(model, [good, tau], 0.0,
                                                                _config(tmp)),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("read", NON_FINITE_READS)
def test_a_non_finite_task_vector_constructs_and_fails_where_it_is_read(tmp_path, value, read):
    tau = non_finite_vector(value)  # builds: construction reads no value
    good = non_finite_vector(1.0)
    model = TensorMap({name: np.zeros_like(tau.deltas[name]) for name in tau.deltas})
    with pytest.raises(NonFiniteValueError) as exc:
        NON_FINITE_READS[read](good, tau, model, tmp_path)
    assert type(exc.value) is NonFiniteValueError
    assert (exc.value.tensor, exc.value.index) == ("w", BAD_INDEX)
    assert str(exc.value) == f"task vector tensor 'w' has a non-finite delta at flat index {BAD_INDEX}"
    assert list(tmp_path.iterdir()) == []  # no file, and no run directory


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_squared_sum_that_overflows_over_finite_f64_deltas_is_no_error():
    top = np.finfo(np.float64).max
    a, b = (TaskVector(deltas, fingerprint(deltas)) for deltas in (
        TensorMap({"w": np.array([top, 1.0, 0.0])}), TensorMap({"w": np.array([0.0, 1.0, 0.0])})))
    assert cosine_similarity(a, b) == 0.0
    assert cosine_similarity(b, a, "per_tensor") == {"w": 0.0}
    stats = norm_stats(a)
    assert (stats.total.l2_norm, stats.total.max_abs) == (math.inf, top)
    assert stats.per_tensor["w"].mean_abs == (top + 1.0) / 3


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_f64_ensemble_overflow_is_reported():
    top = np.full(BLOCK_ELEMENTS + 2, np.finfo(np.float64).max)
    top[: BLOCK_ELEMENTS + 1] = 1.0
    zero = TensorMap({"w": np.zeros_like(top)})
    tau = compute_task_vector(TensorMap({"w": top}), zero)
    with pytest.raises(NonFiniteValueError) as exc:
        ensemble_average([tau, tau])
    assert (exc.value.tensor, exc.value.index) == ("w", BLOCK_ELEMENTS + 1)


FUSED_SIZES = (BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, BLOCK_ELEMENTS + 1, 2 * BLOCK_ELEMENTS + 1)


def fused_operands(dtype, k):
    """A model holding -0.0 entries and k task vectors, one tensor per size
    in FUSED_SIZES, with magnitudes over many binades, so that the mean's
    narrowing rounds, ties included, and some means are zeros."""
    # "mixed" gives each size its own dtype: one pass narrows into each.
    dtypes = ((np.float16, np.float32, np.float64, np.float16) if dtype == "mixed"
              else (dtype,) * len(FUSED_SIZES))
    rng = np.random.default_rng(7000 + 10 * k + len(set(dtypes)) * np.dtype(dtypes[0]).itemsize)
    model, rows = {}, [{} for _ in range(k)]
    for size, dtype in zip(FUSED_SIZES, dtypes):
        scale = np.exp2(rng.integers(-12, 8, size))
        values = (rng.standard_normal(size) * scale).astype(dtype)
        values[::5] = -0.0
        model[f"t{size}"] = values
        for i, row in enumerate(rows):
            delta = (1e-2 * rng.standard_normal(size) * scale).astype(dtype)
            delta[::7] = 0.0 if i % 2 else -0.0
            row[f"t{size}"] = delta
    return TensorMap(model, {"origin": "model"}), [
        TaskVector(TensorMap(row), fingerprint(TensorMap(row))) for row in rows]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, "mixed"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_apply_ensemble_equals_apply_of_the_mean_bitwise(dtype, k):
    model, vectors = fused_operands(dtype, k)
    for lam in (0.4, -1.3, 0.0):
        fused = apply_ensemble(model, vectors, lam)
        assert fused == apply_task_vector(model, ensemble_average(vectors), lam)
        if lam == 0.0:  # the model's -0.0 entries stay -0.0
            assert all(np.signbit(arr[::5]).all() for _, arr in fused.items())


def _fault_operands(dtype, model_value, delta_value, index):
    """A model and two equal task vectors over tensors 'a' (two zeros) and
    'w', with ``model_value`` and ``delta_value`` at ``index`` of 'w'."""
    size = 2 * BLOCK_ELEMENTS + 5
    model, delta = np.zeros(size, dtype), np.zeros(size, dtype)
    model[index], delta[index] = model_value, delta_value
    tau = compute_task_vector(TensorMap({"a": np.zeros(2, dtype), "w": delta}),
                              TensorMap({"a": np.zeros(2, dtype), "w": np.zeros(size, dtype)}))
    return TensorMap({"a": np.zeros(2, dtype), "w": model}), [tau, tau]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("fault, dtype, model_value, delta_value, lam, message", [
    ("model", np.float32, np.inf, 1.0, 0.5,
     "model tensor 'w' has a non-finite value at flat index {index}"),
    ("shift", np.float16, 60000.0, 30000.0, 1.0,
     "applying scale 1.0 produced a non-finite value in tensor 'w' at flat index {index}"),
    ("mean", np.float64, 1.0, np.finfo(np.float64).max, 0.5,
     "task vector tensor 'w' has a non-finite delta at flat index {index}"),
    ("mean", np.float64, 1.0, np.finfo(np.float64).max, 0.0,
     "task vector tensor 'w' has a non-finite delta at flat index {index}"),
], ids=["model", "shift", "mean", "mean_at_zero"])
def test_apply_ensemble_faults_keep_their_type_and_message(fault, dtype, model_value,
                                                           delta_value, lam, message):
    index = BLOCK_ELEMENTS + 3
    model, vectors = _fault_operands(dtype, model_value, delta_value, index)
    for call in (lambda: apply_ensemble(model, vectors, lam),
                 lambda: apply_task_vector(model, ensemble_average(vectors), lam)):
        with pytest.raises(NonFiniteValueError) as exc:
            call()
        assert type(exc.value) is NonFiniteValueError
        assert (exc.value.tensor, exc.value.index) == ("w", index)
        assert str(exc.value) == message.format(index=index)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fused_apply_ensemble_reports_the_earlier_of_two_faults():
    # The shift of tensor 'a' overflows; the F64 mean of the later tensor 'w' does too.
    index = BLOCK_ELEMENTS + 3
    model, vectors = _fault_operands(np.float64, 1.0, np.finfo(np.float64).max, index)
    big = TensorMap({"a": np.full(2, 6e307), "w": vectors[0].deltas["w"]})
    vectors = [TaskVector(big, vectors[0].base_schema)] * 2
    model = TensorMap({"a": np.array([0.0, 1.7e308]), "w": model["w"]})
    with pytest.raises(NonFiniteValueError) as exc:
        apply_ensemble(model, vectors, 1.0)
    assert (exc.value.tensor, exc.value.index) == ("a", 1)
    assert str(exc.value) == (
        "applying scale 1.0 produced a non-finite value in tensor 'a' at flat index 1")
    with pytest.raises(NonFiniteValueError) as exc:  # the mean, computed whole first
        apply_task_vector(model, ensemble_average(vectors), 1.0)
    assert (exc.value.tensor, exc.value.index) == ("w", index)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_apply_ensemble_checks_a_windows_mean_before_shifting_it():
    # One 512 KiB window of F64: the shift overflows at index 3, the mean at 40000.
    model, delta = np.zeros(1 << 16), np.zeros(1 << 16)
    model[3], delta[3], delta[40000] = 1.7e308, 6e307, np.finfo(np.float64).max
    deltas = TensorMap({"w": delta})
    vectors = [TaskVector(deltas, fingerprint(deltas))] * 2
    with pytest.raises(NonFiniteValueError) as exc:
        apply_ensemble(TensorMap({"w": model}), vectors, 1.0)
    assert (exc.value.tensor, exc.value.index) == ("w", 40000)
    assert str(exc.value) == "task vector tensor 'w' has a non-finite delta at flat index 40000"


@pytest.mark.parametrize("lam", [0.4, 0.0])
def test_apply_ensemble_holds_no_mean(monkeypatch, tmp_path, lam):
    def refused(*args, **kwargs):
        raise AssertionError("ensemble_average called")

    model, vectors = fused_operands(np.float32, 3)
    expected = apply_task_vector(model, ensemble_average(vectors), lam)
    monkeypatch.setattr(vector_ops, "ensemble_average", refused)
    monkeypatch.setattr(sweep_harness, "ensemble_average", refused)
    assert apply_ensemble(model, vectors, lam) == expected
    evaluator = f"{shlex.quote(sys.executable)} -c \"import json; print(json.dumps({{'wer': 1.0}}))\""
    config = SweepConfig(evaluator=evaluator, workdir=tmp_path / "w")
    result = run_domain_ablation(model, vectors, lam, config, ks=[2, 3])
    assert [p.k for p in result.points] == [2, 3]


def test_kernel_outputs_pickle(rng):
    real, syn = random_map_pair(rng)
    tau = compute_task_vector(real, syn)
    assert pickle.loads(pickle.dumps(tau)).deltas == tau.deltas


def _out_cases(rng):
    """(eager call taking ``out=``, writer of its result) per operation."""
    real, syn = random_map_pair(rng, max_side=64)
    model = TensorMap({name: rng.standard_normal(arr.shape).astype(arr.dtype)
                       for name, arr in real.items()}, {"origin": "model"})
    prov = Provenance("d", "human", "tts", ("real.st", "syn.st"))
    taus = [compute_task_vector(real, syn, prov)]
    for i in (1, 2):
        shifted = TensorMap({name: (arr.astype(np.float64) + 0.01 * i).astype(arr.dtype)
                             for name, arr in real.items()})
        taus.append(compute_task_vector(shifted, syn, Provenance(f"d{i}")))
    return {
        "compute": (lambda **kw: compute_task_vector(real, syn, prov, **kw), save_task_vector),
        "ensemble": (lambda **kw: ensemble_average(taus, **kw), save_task_vector),
        "ensemble_one": (lambda **kw: ensemble_average(taus[:1], **kw), save_task_vector),
        "apply": (lambda **kw: apply_task_vector(model, taus[0], 0.5, **kw), write_checkpoint),
        "apply_zero": (lambda **kw: apply_task_vector(model, taus[0], 0.0, **kw),
                       write_checkpoint),
        "apply_ensemble": (lambda **kw: apply_ensemble(model, taus, 0.7, **kw),
                           write_checkpoint),
    }


@pytest.mark.parametrize("case", ["compute", "ensemble", "ensemble_one", "apply", "apply_zero",
                                  "apply_ensemble"])
def test_out_writes_the_eager_bytes_and_returns_the_eager_values(tmp_path, monkeypatch, rng,
                                                                 case):
    call, writer = _out_cases(rng)[case]
    eager = call()
    writer(eager, tmp_path / "eager.st")
    checked = []
    original = tensor_store.first_non_finite

    def recording(values, scratch):
        checked.append(values)
        return original(values, scratch)

    monkeypatch.setattr(tensor_store, "first_non_finite", recording)
    monkeypatch.setattr(vector_ops, "first_non_finite", recording)
    streamed = call(out=tmp_path / "out.st")
    assert (tmp_path / "out.st").read_bytes() == (tmp_path / "eager.st").read_bytes()
    if isinstance(eager, TaskVector):
        written = streamed.deltas
        assert written == eager.deltas
        assert (streamed.base_schema, streamed.provenance) == (eager.base_schema,
                                                               eager.provenance)
        assert repr(norm_stats(streamed)) == repr(norm_stats(eager))
        TaskVector(written, streamed.base_schema)
        save_task_vector(streamed, tmp_path / "again.st")
    else:
        written = streamed
        assert written == eager
        write_checkpoint(written, tmp_path / "again.st")
    assert (tmp_path / "again.st").read_bytes() == (tmp_path / "eager.st").read_bytes()
    # The written map is known finite: no check reads the written file's bytes.
    assert not [values for values in checked
                if any(np.shares_memory(values, arr) for _, arr in written.items())]


@pytest.mark.parametrize("case", ["compute", "ensemble", "ensemble_one", "apply", "apply_zero",
                                  "apply_ensemble"])
def test_a_written_result_is_written_again_without_a_scan(tmp_path, monkeypatch, rng, case):
    # Passes read the file into a buffer of their own, so a check that reads the
    # written file shares no memory with its mapping: count the scans instead.
    call, writer = _out_cases(rng)[case]
    streamed = call(out=tmp_path / "out.st")
    scans = []
    original = TensorMap._scan

    def counting_scan(tmap, *args):
        scans.append(tmap)
        return original(tmap, *args)

    monkeypatch.setattr(TensorMap, "_scan", counting_scan)
    writer(streamed, tmp_path / "again.st")
    assert scans == []
    assert (tmp_path / "again.st").read_bytes() == (tmp_path / "out.st").read_bytes()


def test_out_maps_the_written_file_read_only(tmp_path, rng):
    real, syn = random_map_pair(rng)
    tau = compute_task_vector(real, syn, out=tmp_path / "tau.st")
    for _, arr in tau.deltas.items():
        assert not arr.flags.writeable
    assert tau.deltas._buffer is not None  # read from the written file, not collected
    assert tau.deltas.non_finite_tensors() == {}


@pytest.mark.parametrize("case", ["compute", "ensemble"])
def test_out_norm_stats_read_none_of_the_written_file(tmp_path, case):
    # The stats come from the stream: zeros written over the file's data, in
    # place, are not what they report.
    rng = np.random.default_rng(5)
    shapes = {"a": ((70_000,), np.float32), "b": ((3, 5), np.float16), "c": ((), np.float64)}
    real, syn, shifted = (TensorMap({name: rng.standard_normal(shape).astype(dtype)
                                     for name, (shape, dtype) in shapes.items()})
                          for _ in range(3))
    if case == "compute":
        def call(**kw):
            return compute_task_vector(real, syn, **kw)
    else:
        taus = [compute_task_vector(real, syn), compute_task_vector(shifted, syn)]

        def call(**kw):
            return ensemble_average(taus, **kw)
    expected = repr(norm_stats(call()))
    path = tmp_path / "out.st"
    streamed = call(out=path)
    header = 8 + int.from_bytes(path.read_bytes()[:8], "little")
    inode = path.stat().st_ino
    with open(path, "r+b") as handle:
        handle.seek(header)
        handle.write(bytes(path.stat().st_size - header))
    assert path.stat().st_ino == inode
    assert not any(arr.any() for _, arr in streamed.deltas.items())  # the map sees the zeros
    assert repr(norm_stats(streamed)) == expected
