"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
Regression thresholds marked FROZEN were recorded from pre-build oracle runs
of the shipped defaults and must not be retuned to make a failing run green.
"""

import contextlib
import json
import shlex
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from synvec.errors import (
    ByteRangeError,
    InvalidHeaderError,
    TruncatedDataError,
    UnknownDtypeError,
)
from synvec.sweep_harness import (
    DEFAULT_LAMBDA_GRID,
    SweepConfig,
    best_lambda,
    relative_wer,
    run_lambda_sweep,
)
from synvec.tensor_store import TensorMap, read_checkpoint, write_checkpoint
from synvec.toy_experiment import (
    ZERO_SHIFT,
    ConditionShift,
    ToyDataSpec,
    ToyDataset,
    ToyModel,
    TrainConfig,
    build_domain_task_vectors,
    loss_gradients,
    run_adaptation_protocol,
    run_ensemble_protocol,
    training_loss,
)
from synvec.vector_ops import (
    apply_task_vector,
    compute_task_vector,
    cosine_similarity,
    ensemble_average,
    scale_task_vector,
)

# FROZEN 2026-08-08: pre-build oracle measured a mean relative error reduction
# of 6.45% (10 seeds, all positive); threshold fixed at half that value.
TOY_REDUCTION_THRESHOLD_PCT = 3.2
# FROZEN 2026-08-08: pre-build oracle measured an intra-vs-inter cosine margin
# of 0.2409; threshold fixed at half that value.
SIMILARITY_MARGIN_THRESHOLD = 0.12

# The stub evaluators are stdlib-only, so they start without site (-S).
PY = f"{shlex.quote(sys.executable)} -S"

# Reference row from a published 18-domain adaptation evaluation: per-domain
# baseline WER, adapted WER, and the printed relative-WER cells.
PUBLISHED_WER_ROW = {
    "Alarm": (16.13, 15.65, 2.95),
    "Audio": (14.69, 13.68, 6.87),
    "Calendar": (22.88, 22.64, 1.03),
    "Cooking": (14.26, 14.36, -0.70),
    "Datetime": (47.16, 40.29, 14.58),
    "Email": (16.23, 16.15, 0.50),
    "General": (27.16, 16.87, 37.89),
    "IOT": (13.67, 12.49, 8.58),
    "Lists": (15.49, 15.22, 1.74),
    "Music": (23.51, 17.03, 27.57),
    "News": (21.31, 21.25, 0.28),
    "Play": (21.61, 20.77, 3.88),
    "QA": (24.04, 23.88, 0.64),
    "Recommendation": (17.54, 15.19, 13.42),
    "Social": (29.57, 21.87, 26.04),
    "Takeaway": (21.25, 18.03, 15.14),
    "Transport": (18.91, 16.90, 10.65),
    "Weather": (15.45, 20.38, -31.91),
}


@contextlib.contextmanager
def criterion(number, name, budget_secs):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL "
              f"[{time.monotonic() - start:.1f}s]", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]", flush=True)
    assert elapsed < budget_secs, f"criterion {number} took {elapsed:.1f}s (budget {budget_secs}s)"


def f16_pair_scale_ulp(real, syn):
    # One F16 ulp at the magnitude of the larger reconstruction operand. The
    # narrowed delta is quantized at that binade, so "2 ULP after narrowing"
    # is measured there (a bound at the smaller operand's own binade would be
    # unattainable for any algorithm when |real| << |syn|).
    return np.spacing(np.maximum(np.abs(real), np.abs(syn)))


def random_checkpoint_pair(rng, dtype):
    n_tensors = int(rng.integers(5, 21))
    real, syn = {}, {}
    for i in range(n_tensors):
        size = int(rng.integers(1, 2000))
        if i == 0:
            size = int(rng.integers(10_000, 100_001))  # at least one large tensor
        base = rng.standard_normal(size)
        real[f"t{i:02d}"] = (base + 1e-2 * rng.standard_normal(size)).astype(dtype)
        syn[f"t{i:02d}"] = (base + 1e-2 * rng.standard_normal(size)).astype(dtype)
    return TensorMap(real), TensorMap(syn)


def test_criterion_1_relative_wer_reproduces_published_values():
    with criterion(1, "relative-WER arithmetic", 5):
        assert relative_wer(20.31, 17.01) == pytest.approx(16.25, abs=0.01)
        assert relative_wer(15.45, 20.38) == pytest.approx(-31.91, abs=0.01)
        # Full published row, recomputed from its WER columns and rounded as
        # printed. Two cells are known to land at the tolerance edge: Alarm
        # recomputes to 2.98 (printed 2.95) and IOT to 8.63 (printed 8.58).
        for domain, (baseline, adapted, printed) in PUBLISHED_WER_ROW.items():
            recomputed = round(relative_wer(baseline, adapted), 2)
            assert abs(recomputed - printed) <= 0.05 + 1e-9, (
                f"{domain}: recomputed {recomputed} vs printed {printed}"
            )


def test_criterion_2_reconstruction_identity():
    with criterion(2, "reconstruction identity", 10):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            dtype = np.float32 if trial % 2 == 0 else np.float16
            real, syn = random_checkpoint_pair(rng, dtype)
            rebuilt = apply_task_vector(syn, compute_task_vector(real, syn), 1.0)
            for name, arr in rebuilt.items():
                if dtype is np.float32:
                    scale = np.maximum(
                        np.maximum(np.abs(real[name]), np.abs(syn[name])).astype(np.float64),
                        np.finfo(np.float32).tiny,
                    )
                    err = np.abs(arr.astype(np.float64) - real[name].astype(np.float64))
                    assert np.all(err <= 1e-6 * scale)
                else:
                    err = np.abs(arr.astype(np.float64) - real[name].astype(np.float64))
                    ulp = f16_pair_scale_ulp(real[name], syn[name]).astype(np.float64)
                    assert np.all(err <= 2 * ulp)


def test_criterion_3_serialization_round_trip(tmp_path):
    with criterion(3, "serialization round-trip", 10):
        from conftest import random_tensor_map

        rng = np.random.default_rng(7)
        for trial in range(100):
            tmap = random_tensor_map(rng, max_tensors=8, max_side=10)
            path = tmp_path / f"rt_{trial:03d}.st"
            write_checkpoint(tmap, path)
            assert read_checkpoint(path) == tmap
        # double write is byte-identical
        tmap = random_tensor_map(rng)
        write_checkpoint(tmap, tmp_path / "dw1.st")
        write_checkpoint(tmap, tmp_path / "dw2.st")
        assert (tmp_path / "dw1.st").read_bytes() == (tmp_path / "dw2.st").read_bytes()

        # malformed corpus raises the designated kind for each damage shape
        def container(entries, data):
            blob = json.dumps(entries).encode()
            return len(blob).to_bytes(8, "little") + blob + data

        corpus = {
            "overlap": (
                container(
                    {
                        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
                        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
                    },
                    bytes(12),
                ),
                ByteRangeError,
            ),
            "truncation": (
                container(
                    {"w": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}, bytes(10)
                ),
                TruncatedDataError,
            ),
            "bad_dtype": (
                container(
                    {"w": {"dtype": "I8", "shape": [4], "data_offsets": [0, 4]}}, bytes(4)
                ),
                UnknownDtypeError,
            ),
            "bad_json": (
                len(b"{oops").to_bytes(8, "little") + b"{oops",
                InvalidHeaderError,
            ),
        }
        for label, (payload, kind) in corpus.items():
            path = tmp_path / f"bad_{label}.st"
            path.write_bytes(payload)
            with pytest.raises(kind):
                read_checkpoint(path)


def test_criterion_4_algebra_suite():
    with criterion(4, "algebra suite", 30):
        from conftest import random_map_pair

        rng = np.random.default_rng(42)

        # scaling additivity, 200 instances
        for trial in range(200):
            dtype = np.float32 if trial % 2 == 0 else np.float64
            tol = 1e-6 if dtype is np.float32 else 1e-12
            model, other = random_map_pair(rng, max_tensors=4, max_side=6, dtypes=(dtype,))
            tau = compute_task_vector(other, model)
            lam1, lam2 = rng.uniform(-2, 2, 2)
            chained = apply_task_vector(apply_task_vector(model, tau, lam1), tau, lam2)
            direct = apply_task_vector(model, tau, lam1 + lam2)
            for name, arr in chained.items():
                reference = np.maximum(np.abs(model[name]).astype(np.float64), 1.0)
                err = np.abs(arr.astype(np.float64) - direct[name].astype(np.float64))
                assert np.all(err <= 4 * tol * reference)

        # ensemble permutation invariance (exact) and singleton identity
        for trial in range(200):
            base, _ = random_map_pair(rng, max_tensors=3, max_side=5)
            k = int(rng.integers(2, 6))
            vectors = []
            for _ in range(k):
                shifted = TensorMap(
                    {n: (a.astype(np.float64) + rng.standard_normal(a.shape)).astype(a.dtype)
                     for n, a in base.items()}
                )
                vectors.append(compute_task_vector(shifted, base))
            forward = ensemble_average(vectors)
            permuted = ensemble_average([vectors[i] for i in rng.permutation(k)])
            assert permuted == forward
            assert ensemble_average([vectors[0]]) == vectors[0]

        # cosine symmetry, scale invariance, range
        for trial in range(200):
            a_map, b_map = random_map_pair(rng, max_tensors=3, max_side=5,
                                           dtypes=(np.float64,))
            zeros = TensorMap(
                {n: np.zeros(arr.shape, dtype=arr.dtype) for n, arr in a_map.items()}
            )
            a = compute_task_vector(a_map, zeros)
            b = compute_task_vector(b_map, zeros)
            cos_ab = cosine_similarity(a, b)
            assert -1.0 <= cos_ab <= 1.0
            assert cosine_similarity(b, a) == cos_ab
            c = float(rng.uniform(0.01, 8.0)) * (1 if trial % 2 else -1)
            scaled = cosine_similarity(a, scale_task_vector(b, c))
            assert scaled == pytest.approx(np.sign(c) * cos_ab, abs=1e-9)


def test_criterion_5_toy_adaptation_effect():
    with criterion(5, "toy adaptation effect", 60):
        report = run_adaptation_protocol(
            ToyDataSpec(), TrainConfig(), DEFAULT_LAMBDA_GRID, num_seeds=10
        )
        mean = report.mean_relative_reduction
        assert mean > 0.0
        assert mean >= TOY_REDUCTION_THRESHOLD_PCT, (
            f"mean reduction {mean:.2f}% fell below the frozen threshold "
            f"{TOY_REDUCTION_THRESHOLD_PCT}%"
        )
        # degenerate gap: no condition shift, no effect
        null = run_adaptation_protocol(
            ToyDataSpec(condition_shift=ZERO_SHIFT), TrainConfig(),
            DEFAULT_LAMBDA_GRID, num_seeds=10,
        )
        assert abs(null.mean_relative_reduction) <= 2 * null.stderr_relative_reduction


def test_criterion_6_ensemble_trend():
    with criterion(6, "ensemble domain-count trend", 120):
        spec = ToyDataSpec(num_source_domains=6)
        # wider grid: the averaged vector needs a larger factor to reach the
        # per-domain dose, and the criterion pins no grid
        grid = tuple(round(i / 5, 1) for i in range(13))
        means = []
        for k in range(1, 7):
            report = run_ensemble_protocol(
                spec, TrainConfig(), grid, num_seeds=10, num_vectors=k
            )
            means.append(report.mean_best_error)
        rho = stats.spearmanr(range(1, 7), means).statistic
        assert rho <= 0.0, f"errors vs k = {means} give Spearman rho {rho:+.3f}"


def test_criterion_7_similarity_grouping():
    with criterion(7, "similarity grouping", 60):
        from itertools import combinations

        config = TrainConfig()
        # One family per channel variant; members are the same synthesis
        # system at jittered gain/bias magnitudes.
        jitters = [(0.50, 0.60), (0.46, 0.68), (0.55, 0.52), (0.48, 0.75)]
        groups = {}
        for variant in (0, 1):
            vectors = []
            for gain, bias in jitters:
                shift = ConditionShift(
                    channel_gain=gain, channel_scale=0.25,
                    channel_bias_scale=bias, extra_noise_stddev=1.0,
                )
                spec = ToyDataSpec(condition_shift=shift, channel_variant=variant)
                vectors.extend(build_domain_task_vectors(spec, config))
            groups[variant] = vectors
        intra = [cosine_similarity(a, b)
                 for vectors in groups.values() for a, b in combinations(vectors, 2)]
        inter = [cosine_similarity(a, b) for a in groups[0] for b in groups[1]]
        margin = float(np.mean(intra) - np.mean(inter))
        assert np.mean(intra) > np.mean(inter)
        assert margin >= SIMILARITY_MARGIN_THRESHOLD, (
            f"margin {margin:.3f} fell below the frozen threshold "
            f"{SIMILARITY_MARGIN_THRESHOLD}"
        )


def test_criterion_8_gradient_check():
    with criterion(8, "gradient check", 5):
        rng = np.random.default_rng(99)
        step = 1e-4
        for _ in range(100):
            classes = int(rng.integers(2, 6))
            dim = int(rng.integers(2, 7))
            n = int(rng.integers(4, 17))
            features = rng.standard_normal((n, dim))
            labels = rng.integers(0, classes, size=n).astype(np.int64)
            data = ToyDataset(features=features, labels=labels)
            model = ToyModel(rng.standard_normal((classes, dim)) * 0.5,
                             rng.standard_normal(classes) * 0.3)
            l2 = float(rng.uniform(0, 1e-2))
            _, grad_w, grad_b = loss_gradients(model, data, l2)
            flat = np.concatenate([model.weights.reshape(-1), model.bias])

            def loss_at(vec):
                w = vec[: classes * dim].reshape(classes, dim)
                b = vec[classes * dim:]
                return training_loss(ToyModel(w, b), data, l2)

            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[i] += step
                down[i] -= step
                numeric[i] = (loss_at(up) - loss_at(down)) / (2 * step)
            analytic = np.concatenate([grad_w.reshape(-1), grad_b])
            assert np.max(np.abs(analytic - numeric)) <= 1e-5


def test_criterion_9_sweep_harness_contract(tmp_path):
    with criterion(9, "sweep harness contract", 5):
        model = TensorMap({"w": np.array([0.25, -1.5], dtype=np.float32)})
        shifted = TensorMap({"w": np.array([1.25, -0.5], dtype=np.float32)})
        tau = compute_task_vector(shifted, model)
        stub = (
            f'{PY} -c "import json,sys; lam=float(sys.argv[1]); '
            "print(json.dumps({'wer': abs(lam-0.4)+1}))\" {lambda}"
        )
        config = SweepConfig(evaluator=stub, workdir=tmp_path / "sweep",
                             keep_checkpoints=True)
        result = run_lambda_sweep(model, [tau], config)
        assert best_lambda(result) == 0.4

        # lambda = 0 materialization is byte-identical to the input model file
        model_path = tmp_path / "model.st"
        write_checkpoint(model, model_path)
        zero_record = next(r for r in result.records if r.lam == 0.0)
        assert Path(zero_record.checkpoint_path).read_bytes() == model_path.read_bytes()

        # partial evaluator failure leaves the other grid points intact
        flaky = (
            f'{PY} -c "import json,sys; lam=float(sys.argv[1]); '
            "print('garbage' if lam == 0.3 else json.dumps({'wer': lam + 1}))\" {lambda}"
        )
        config = SweepConfig(evaluator=flaky, workdir=tmp_path / "flaky")
        result = run_lambda_sweep(model, [tau], config)
        assert len(result.records) == 10 and len(result.failures) == 1
        assert result.failures[0].lam == 0.3
