"""Relative-WER arithmetic, evaluator-driven sweeps, and domain ablations."""

import errno
import json
import os
import shlex
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synvec.errors import EvaluatorError, ValidationError
from synvec.sweep_harness import (
    DEFAULT_LAMBDA_GRID,
    EvalFailure,
    EvalRecord,
    SweepConfig,
    SweepResult,
    best_lambda,
    invoke_evaluator,
    relative_wer,
    run_domain_ablation,
    run_lambda_sweep,
)
from synvec import sweep_harness, tensor_store, vector_ops
from synvec.toy_experiment import (
    ToyDataSpec,
    TrainConfig,
    run_adaptation_protocol,
    run_ensemble_protocol,
)
from synvec.tensor_store import TensorMap, fingerprint, read_checkpoint, write_checkpoint
from synvec.vector_ops import TaskVector, compute_task_vector, save_task_vector

# The stub evaluators are stdlib-only, so they start without site (-S).
PY = f"{shlex.quote(sys.executable)} -S"

# Prints {"wer": |lambda - 0.4| + 1}; a stub with a known interior minimum.
U_SHAPE_EVALUATOR = (
    f'{PY} -c "import json,sys; lam=float(sys.argv[1]); '
    "print(json.dumps({'wer': abs(lam-0.4)+1}))\" {lambda}"
)

CONSTANT_EVALUATOR = f"{PY} -c \"import json; print(json.dumps({{'wer': 12.5}}))\""


# Reads two containers with struct, as perfbench/evaluator.py does (stdlib only,
# so each call skips importing numpy), and prints the l2 norm of their
# difference as the WER; exits 3 where that norm equals argv[3].
L2_EVALUATOR_SCRIPT = """
import json, struct, sys
from pathlib import Path

def tensors(path):
    data = Path(path).read_bytes()
    size = int.from_bytes(data[:8], "little")
    header = json.loads(data[8:8 + size])
    header.pop("__metadata__", None)
    out = {}
    for name, entry in header.items():
        begin, end = (8 + size + offset for offset in entry["data_offsets"])
        code = {"F16": "e", "F32": "f", "F64": "d"}[entry["dtype"]]
        out[name] = struct.unpack(f"<{(end - begin) // struct.calcsize(code)}{code}",
                                  data[begin:end])
    return out

a, b = tensors(sys.argv[1]), tensors(sys.argv[2])
sq = sum(sum((x - y) * (x - y) for x, y in zip(a[n], b[n])) for n in sorted(a))
if abs(sq ** 0.5 - float(sys.argv[3])) < 1e-6:
    sys.exit(3)
print(json.dumps({"wer": sq ** 0.5}))
"""


def l2_evaluator(reference_path, failing_wer=float("nan")):
    # Reports the l2 norm of (checkpoint - reference); lets tests predict WERs.
    return (f"{PY} -c {shlex.quote(L2_EVALUATOR_SCRIPT)} {{checkpoint}} "
            f"{shlex.quote(str(reference_path))} {failing_wer!r}")


def fixture_model_and_vectors(values=((1.0,), (3.0,))):
    model = TensorMap({"w": np.zeros(1, dtype=np.float32)})
    vectors = [
        compute_task_vector(TensorMap({"w": np.array(v, dtype=np.float32)}), model)
        for v in values
    ]
    return model, vectors


# --- relative WER ---


def test_relative_wer_published_average_pair():
    assert relative_wer(20.31, 17.01) == pytest.approx(16.25, abs=0.01)


def test_relative_wer_published_degradation_pair():
    assert relative_wer(15.45, 20.38) == pytest.approx(-31.91, abs=0.01)


def test_relative_wer_no_change_is_zero():
    for value in (0.5, 7.0, 99.9):
        assert relative_wer(value, value) == 0.0


def test_relative_wer_rejects_non_positive_baseline():
    with pytest.raises(ValidationError):
        relative_wer(0.0, 1.0)
    with pytest.raises(ValidationError):
        relative_wer(-3.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    baseline=st.floats(0.01, 100, allow_nan=False),
    adapted=st.floats(0, 100, allow_nan=False),
)
def test_relative_wer_reconstruction(baseline, adapted):
    rel = relative_wer(baseline, adapted)
    assert adapted == pytest.approx(baseline * (1 - rel / 100.0), abs=1e-9)


# --- config validation ---


def test_sweep_config_normalizes_grid(tmp_path):
    config = SweepConfig(evaluator="x", workdir=tmp_path, lambda_grid=(0.5, 0.1, 0.3))
    assert config.lambda_grid == (0.1, 0.3, 0.5)


def test_sweep_config_rejects_bad_grids(tmp_path):
    with pytest.raises(ValidationError):
        SweepConfig(evaluator="x", workdir=tmp_path, lambda_grid=())
    with pytest.raises(ValidationError):
        SweepConfig(evaluator="x", workdir=tmp_path, lambda_grid=(0.1, 0.1))
    with pytest.raises(ValidationError):
        SweepConfig(evaluator="x", workdir=tmp_path, lambda_grid=(float("nan"),))
    with pytest.raises(ValidationError):
        SweepConfig(evaluator="  ", workdir=tmp_path)


@pytest.mark.parametrize("template", ["'unclosed {checkpoint}", "evaluate {checkpoint} \\"])
def test_a_template_that_cannot_be_split_is_refused_when_configured(tmp_path, template):
    with pytest.raises(ValidationError) as exc:
        SweepConfig(evaluator=template, workdir=tmp_path / "work")
    assert str(exc.value).startswith(f"evaluator command {template!r} cannot be split")
    with pytest.raises(ValidationError):  # called directly, the same refusal
        invoke_evaluator(template, tmp_path / "unused.st")


def test_default_grid_spans_zero_to_one():
    assert DEFAULT_LAMBDA_GRID == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


# --- sweeps ---


def test_singleton_grid_sweep(tmp_path):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path, lambda_grid=(0.0,))
    result = run_lambda_sweep(model, vectors[0], config)
    assert len(result.records) == 1
    assert result.records[0].lam == 0.0 and result.records[0].wer == 12.5
    assert best_lambda(result) == 0.0


def test_u_shaped_stub_finds_interior_minimum(tmp_path):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=U_SHAPE_EVALUATOR, workdir=tmp_path)
    result = run_lambda_sweep(model, vectors, config)
    assert len(result.records) == 11 and not result.failures
    assert best_lambda(result) == 0.4


def test_partial_failure_keeps_other_grid_points(tmp_path):
    # Evaluator emits malformed output at lambda == 0.3 only.
    evaluator = (
        f'{PY} -c "import json,sys; lam=float(sys.argv[1]); '
        "print('not json' if lam == 0.3 else json.dumps({'wer': lam + 1}))\" {lambda}"
    )
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=evaluator, workdir=tmp_path)
    result = run_lambda_sweep(model, vectors, config)
    assert len(result.records) == 10
    assert len(result.failures) == 1
    assert result.failures[0].lam == 0.3 and result.failures[0].kind == "output"


def test_all_failures_raise(tmp_path):
    model, vectors = fixture_model_and_vectors()
    evaluator = f'{PY} -c "import sys; sys.exit(3)"'
    config = SweepConfig(evaluator=evaluator, workdir=tmp_path, lambda_grid=(0.0, 1.0))
    with pytest.raises(EvaluatorError):
        run_lambda_sweep(model, vectors, config)


def f16_vectors(*deltas):
    # F16 deltas, built directly: 60000 + 8000 does not fit an F16 finetuned model.
    maps = [TensorMap({"w": np.full(4, delta, np.float16)}) for delta in deltas]
    return [TaskVector(tmap, fingerprint(tmap)) for tmap in maps]


def test_an_overflowing_sweep_point_is_recorded_and_the_sweep_goes_on(tmp_path):
    model = TensorMap({"w": np.full(4, 60000, np.float16)})
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path / "w",
                         lambda_grid=(0.0, 0.1, 1.0))
    result = run_lambda_sweep(model, f16_vectors(8000), config)
    assert [r.lam for r in result.records] == [0.0, 0.1]
    [failure] = result.failures
    assert (failure.lam, failure.kind) == (1.0, "non_finite")
    assert "non-finite value in tensor 'w'" in failure.message
    assert json.loads(result.to_json())["failures"][0]["kind"] == "non_finite"


def test_an_overflowing_ablation_point_is_recorded_and_the_ablation_goes_on(tmp_path):
    model = TensorMap({"w": np.full(4, 60000, np.float16)})
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path / "w")
    result = run_domain_ablation(model, f16_vectors(8000, -8000), 1.0, config)
    assert [p.k for p in result.points] == [2]  # the mean of 8000 and -8000 is 0
    assert [(f.k, f.kind) for f in result.failures] == [(1, "non_finite")]


def test_all_failures_of_mixed_kinds_raise_an_evaluator_error(tmp_path):
    model = TensorMap({"w": np.full(4, 60000, np.float16)})
    evaluator = f'{PY} -c "import sys; sys.exit(3)"'
    config = SweepConfig(evaluator=evaluator, workdir=tmp_path, lambda_grid=(0.0, 1.0))
    with pytest.raises(EvaluatorError, match="first failure: evaluator exited"):
        run_lambda_sweep(model, f16_vectors(8000), config)


def test_nonzero_exit_recorded_with_code(tmp_path):
    model, vectors = fixture_model_and_vectors()
    evaluator = (
        f'{PY} -c "import json,sys; lam=float(sys.argv[1]); '
        "sys.exit(7) if lam > 0 else print(json.dumps({'wer': 1.0}))\" {lambda}"
    )
    config = SweepConfig(evaluator=evaluator, workdir=tmp_path, lambda_grid=(0.0, 0.5))
    result = run_lambda_sweep(model, vectors, config)
    assert len(result.records) == 1
    failure = result.failures[0]
    assert failure.kind == "exit" and failure.exit_code == 7


def test_negative_wer_is_output_failure(tmp_path):
    model, vectors = fixture_model_and_vectors()
    evaluator = f"{PY} -c \"import json; print(json.dumps({{'wer': -1.0}}))\""
    config = SweepConfig(evaluator=evaluator, workdir=tmp_path, lambda_grid=(0.0, 0.5))
    with pytest.raises(EvaluatorError):
        run_lambda_sweep(model, vectors, config)


@pytest.mark.parametrize("printed", [
    "[1.0]", '{"loss": 1.0}', '{"wer": NaN}', '{"wer": true}', '{"wer": "1.0"}'])
def test_evaluator_output_without_a_finite_wer_is_an_output_failure(tmp_path, printed):
    command = f"{PY} -c {shlex.quote(f'print({printed!r})')}"
    with pytest.raises(EvaluatorError) as exc:
        invoke_evaluator(command, tmp_path / "unused.st")
    assert exc.value.failure_kind == "output"


def test_a_missing_evaluator_is_a_spawn_failure(tmp_path):
    with pytest.raises(EvaluatorError) as exc:
        invoke_evaluator(str(tmp_path / "no-such-evaluator"), tmp_path / "unused.st")
    assert exc.value.failure_kind == "spawn"


def test_timeout_is_per_point_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNVEC_EVAL_TIMEOUT_SECS", "0.3")
    model, vectors = fixture_model_and_vectors()
    evaluator = (
        f'{PY} -c "import json,sys,time; lam=float(sys.argv[1]); '
        "time.sleep(5) if lam > 0 else None; print(json.dumps({'wer': 1.0}))\" {lambda}"
    )
    config = SweepConfig(evaluator=evaluator, workdir=tmp_path, lambda_grid=(0.0, 0.5))
    result = run_lambda_sweep(model, vectors, config)
    assert [r.lam for r in result.records] == [0.0]
    assert result.failures[0].kind == "timeout"


def test_invalid_timeout_env_rejected(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNVEC_EVAL_TIMEOUT_SECS", "soon")
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path, lambda_grid=(0.0,))
    with pytest.raises(ValidationError):
        run_lambda_sweep(model, vectors, config)


def test_zero_lambda_checkpoint_matches_input_file(tmp_path):
    model, vectors = fixture_model_and_vectors()
    model_path = tmp_path / "model.safetensors"
    write_checkpoint(model, model_path)
    config = SweepConfig(
        evaluator=CONSTANT_EVALUATOR,
        workdir=tmp_path / "work",
        lambda_grid=(0.0,),
        keep_checkpoints=True,
    )
    result = run_lambda_sweep(model, vectors, config)
    materialized = result.records[0].checkpoint_path
    assert (tmp_path / "work").exists()
    assert Path(materialized).read_bytes() == model_path.read_bytes()


def test_checkpoints_deleted_unless_kept(tmp_path):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path / "w",
                         lambda_grid=(0.0, 0.5))
    run_lambda_sweep(model, vectors, config)
    assert list((tmp_path / "w").rglob("*")) == []  # nor the run's own directory


def test_min_wer_never_worse_than_zero_lambda(tmp_path):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=U_SHAPE_EVALUATOR, workdir=tmp_path)
    result = run_lambda_sweep(model, vectors, config)
    at_zero = next(r.wer for r in result.records if r.lam == 0.0)
    assert min(r.wer for r in result.records) <= at_zero


def test_parallel_matches_serial(tmp_path):
    model, vectors = fixture_model_and_vectors()
    serial = run_lambda_sweep(
        model, vectors,
        SweepConfig(evaluator=U_SHAPE_EVALUATOR, workdir=tmp_path / "s"),
    )
    parallel = run_lambda_sweep(
        model, vectors,
        SweepConfig(evaluator=U_SHAPE_EVALUATOR, workdir=tmp_path / "p", parallel_workers=4),
    )
    strip = lambda result: [(r.lam, r.wer) for r in result.records]
    assert strip(serial) == strip(parallel)


def test_sweep_serialization_is_deterministic(tmp_path):
    model, vectors = fixture_model_and_vectors()
    runs = []
    for _ in range(2):
        config = SweepConfig(evaluator=U_SHAPE_EVALUATOR, workdir=tmp_path / "d")
        runs.append(run_lambda_sweep(model, vectors, config))
    assert runs[0].to_json() == runs[1].to_json()
    assert runs[0].to_csv() == runs[1].to_csv()


def test_sweep_json_round_trip(tmp_path):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=U_SHAPE_EVALUATOR, workdir=tmp_path)
    result = run_lambda_sweep(model, vectors, config)
    back = SweepResult.from_json_obj(json.loads(result.to_json()))
    assert [(r.lam, r.wer) for r in back.records] == [(r.lam, r.wer) for r in result.records]
    assert back.lambda_grid == result.lambda_grid


def test_sweep_json_round_trip_keeps_each_failure():
    result = SweepResult(
        lambda_grid=(0.0, 0.5, 1.0),
        records=(EvalRecord(0.0, 2.0, "a.st", '{"wer": 2.0}\n', wall_time=0.0),),
        failures=(EvalFailure(0.5, "exit", "evaluator exited with status 3: boom", exit_code=3),
                  EvalFailure(1.0, "io", "[Errno 28] No space left on device: 'b.st'")))
    assert SweepResult.from_json_obj(result.to_json_obj()) == result


def test_a_point_whose_checkpoint_cannot_be_written_fails_alone_as_io(tmp_path, monkeypatch):
    model, vectors = fixture_model_and_vectors()
    apply_ensemble = sweep_harness.apply_ensemble

    def full_at_one(model, vectors, lam, *, out):
        if lam == 1.0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(out))
        return apply_ensemble(model, vectors, lam, out=out)

    monkeypatch.setattr(sweep_harness, "apply_ensemble", full_at_one)
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path,
                         lambda_grid=(0.0, 0.5, 1.0))
    result = run_lambda_sweep(model, vectors, config)
    assert [(r.lam, r.wer) for r in result.records] == [(0.0, 12.5), (0.5, 12.5)]
    checkpoint = tmp_path / "run_000" / "sweep_002_lambda_1.safetensors"
    assert result.failures == (EvalFailure(
        lam=1.0, kind="io", message=f"[Errno 28] No space left on device: {str(checkpoint)!r}"),)


@pytest.mark.parametrize("obj", [
    [], {"records": {}}, {"records": [1.0]}, {"records": [{"wer": 1.0}]},
    {"records": [{"lambda": "0.5", "wer": 1.0}]}, {"records": [{"lambda": 0.5, "wer": None}]},
    {"failures": [{"kind": "exit"}]}, {"lambda_grid": [True]}, {"lambda_grid": 0.5}])
def test_sweep_json_with_a_missing_or_ill_typed_field_is_rejected(obj):
    with pytest.raises(ValidationError):
        SweepResult.from_json_obj(obj)


def test_csv_has_lambda_wer_columns(tmp_path):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path, lambda_grid=(0.0, 1.0))
    lines = run_lambda_sweep(model, vectors, config).to_csv().splitlines()
    assert lines[0] == "lambda,wer"
    assert lines[1] == "0.0,12.5"


# --- best_lambda ---


def make_result(pairs):
    records = tuple(
        EvalRecord(lam=lam, wer=wer, checkpoint_path="", evaluator_stdout="", wall_time=0.0)
        for lam, wer in sorted(pairs)
    )
    return SweepResult(lambda_grid=tuple(sorted(l for l, _ in pairs)), records=records,
                       failures=())


def test_best_lambda_picks_minimum():
    assert best_lambda(make_result([(0.1, 5.0), (0.2, 4.0)])) == 0.2


def test_best_lambda_tie_breaks_to_smaller():
    assert best_lambda(make_result([(0.3, 4.0), (0.5, 4.0)])) == 0.3


def test_best_lambda_requires_records():
    with pytest.raises(ValidationError):
        best_lambda(SweepResult(lambda_grid=(0.0,), records=(), failures=()))


# --- ablation ---


def test_ablation_single_vector_single_point(tmp_path):
    model, vectors = fixture_model_and_vectors(values=((2.0,),))
    model_path = tmp_path / "model.st"
    write_checkpoint(model, model_path)
    config = SweepConfig(evaluator=l2_evaluator(model_path), workdir=tmp_path / "w")
    result = run_domain_ablation(model, vectors, 1.0, config)
    assert len(result.points) == 1
    point = result.points[0]
    assert point.k == 1 and point.per_seed == (point.mean_wer,)
    assert point.mean_wer == pytest.approx(2.0, rel=1e-6)


def test_ablation_prefix_policy_uses_ensemble_mean(tmp_path):
    model, vectors = fixture_model_and_vectors(values=((1.0,), (3.0,)))
    model_path = tmp_path / "model.st"
    write_checkpoint(model, model_path)
    config = SweepConfig(evaluator=l2_evaluator(model_path), workdir=tmp_path / "w")
    result = run_domain_ablation(model, vectors, 1.0, config, policy="prefix")
    # k=2 applies the mean of [1.0] and [3.0] -> delta 2.0
    by_k = {p.k: p.mean_wer for p in result.points}
    assert by_k[1] == pytest.approx(1.0, rel=1e-6)
    assert by_k[2] == pytest.approx(2.0, rel=1e-6)


def test_ablation_random_policy_mean_over_seeds(tmp_path):
    values = ((1.0,), (3.0,), (5.0,))
    model, vectors = fixture_model_and_vectors(values=values)
    model_path = tmp_path / "model.st"
    write_checkpoint(model, model_path)
    config = SweepConfig(evaluator=l2_evaluator(model_path), workdir=tmp_path / "w")
    seeds = (0, 1, 2)
    result = run_domain_ablation(model, vectors, 1.0, config, ks=[2], policy="random",
                                 seeds=seeds)
    point = result.points[0]
    assert len(point.per_seed) == 3
    # Independent oracle: replay the documented subset rule by hand.
    expected = []
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        chosen = rng.choice(3, size=2, replace=False)
        mean_delta = np.mean([values[i][0] for i in chosen])
        expected.append(abs(mean_delta))
    assert point.per_seed == pytest.approx(expected, rel=1e-6)
    assert point.mean_wer == pytest.approx(np.mean(expected), rel=1e-6)


def test_ablation_failures_keep_their_k_and_seed(tmp_path):
    model, vectors = fixture_model_and_vectors(values=((1.0,), (3.0,), (5.0,)))
    model_path = tmp_path / "model.st"
    write_checkpoint(model, model_path)
    config = SweepConfig(evaluator=failing_l2_evaluator(model_path, 2.0), workdir=tmp_path / "w")
    # The evaluator exits 3 on the mean of 1 and 3: prefix k=2 over the first two vectors.
    result = run_domain_ablation(model, vectors[:2], 1.0, config)
    failures = json.loads(result.to_json())["failures"]
    assert [{key: f[key] for key in ("k", "seed", "lambda", "kind")} for f in failures] == [
        {"k": 2, "seed": 0, "lambda": 1.0, "kind": "exit"}]
    assert list(failures[0]) == ["k", "seed", "lambda", "kind", "message"]
    # Random subsets: the seeds whose pair of vectors is {1, 3} fail.
    seeds = (0, 1, 2, 3)
    failing = [seed for seed in seeds if set(np.random.default_rng(
        np.random.SeedSequence([seed, 2])).choice(3, size=2, replace=False)) == {0, 1}]
    assert 0 < len(failing) < len(seeds)
    result = run_domain_ablation(model, vectors, 1.0, config, ks=[2], policy="random",
                                 seeds=seeds)
    assert [(f["k"], f["seed"]) for f in json.loads(result.to_json())["failures"]] == [
        (2, seed) for seed in failing]


def test_ablation_validates_ks(tmp_path):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path)
    with pytest.raises(ValidationError):
        run_domain_ablation(model, vectors, 1.0, config, ks=[0, 1])
    with pytest.raises(ValidationError):
        run_domain_ablation(model, vectors, 1.0, config, ks=[2, 1])
    with pytest.raises(ValidationError):
        run_domain_ablation(model, vectors, 1.0, config, ks=[3])


TOY = (ToyDataSpec(samples_per_class=8, num_classes_per_domain=3, feature_dim=6),
       TrainConfig(epochs=5))


def _ablate(workdir, **kw):
    model, vectors = fixture_model_and_vectors()
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=workdir)
    return run_domain_ablation(model, vectors, 1.0, config, **kw)


@pytest.mark.parametrize("name, call", [
    ("num_seeds", lambda work: run_adaptation_protocol(*TOY, num_seeds=True)),
    ("num_seeds", lambda work: run_adaptation_protocol(*TOY, num_seeds=1.5)),
    ("num_vectors", lambda work: run_ensemble_protocol(*TOY, num_seeds=1, num_vectors=1.5)),
    ("parallel_workers", lambda work: SweepConfig(CONSTANT_EVALUATOR, work, parallel_workers=1.5)),
    ("parallel_workers", lambda work: SweepConfig(CONSTANT_EVALUATOR, work, parallel_workers=True)),
    ("ks", lambda work: _ablate(work, ks=[1.5, 2])),
    ("seeds", lambda work: _ablate(work, ks=[1], policy="random", seeds=[0.7, 1.2])),
], ids=["num_seeds_bool", "num_seeds_float", "num_vectors", "workers_float", "workers_bool",
        "ks", "seeds"])
def test_library_counts_must_be_integers(tmp_path, name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= "):
        call(tmp_path / "work")
    assert not (tmp_path / "work").exists()


def test_ablation_csv_shape(tmp_path):
    model, vectors = fixture_model_and_vectors()
    model_path = tmp_path / "model.st"
    write_checkpoint(model, model_path)
    config = SweepConfig(evaluator=l2_evaluator(model_path), workdir=tmp_path / "w")
    result = run_domain_ablation(model, vectors, 0.5, config, policy="random", seeds=(0, 1))
    lines = result.to_csv().splitlines()
    assert lines[0] == "k,mean_wer,seed_values"
    assert all(line.count(",") == 2 for line in lines[1:])
    assert ";" in lines[1]


def test_ablation_determinism(tmp_path):
    model, vectors = fixture_model_and_vectors(values=((1.0,), (3.0,), (5.0,)))
    model_path = tmp_path / "model.st"
    write_checkpoint(model, model_path)
    outputs = []
    for _ in range(2):
        config = SweepConfig(evaluator=l2_evaluator(model_path), workdir=tmp_path / "w")
        outputs.append(
            run_domain_ablation(model, vectors, 1.0, config, policy="random",
                                seeds=(0, 1, 2)).to_json()
        )
    assert outputs[0] == outputs[1]


# --- no model scan in a sweep, parallel ablation points, evaluator process groups ---


# Every point, lambda = 0 included, checks its output in the kernel and
# nothing checks the model whole.
@pytest.mark.parametrize("workers", [1, 2])
def test_no_sweep_point_scans_the_model_on_disk(tmp_path, monkeypatch, workers):
    in_memory = TensorMap({"a": np.ones(5, np.float16), "b": np.zeros(3, np.float32)})
    vectors = [compute_task_vector(
        TensorMap({"a": np.full(5, 2.0, np.float16), "b": np.ones(3, np.float32)}), in_memory)]
    write_checkpoint(in_memory, tmp_path / "model.st")
    model = read_checkpoint(tmp_path / "model.st")
    scanned = []
    original = tensor_store.first_non_finite

    def counting(values, scratch):
        scanned.extend(name for name, arr in model.items() if np.shares_memory(arr, values))
        return original(values, scratch)

    monkeypatch.setattr(tensor_store, "first_non_finite", counting)
    monkeypatch.setattr(vector_ops, "first_non_finite", counting)
    config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path / "w",
                         parallel_workers=workers)
    result = run_lambda_sweep(model, vectors, config)
    assert len(result.records) == 11
    assert scanned == []


def test_a_sweep_point_has_the_bytes_of_the_full_prefix_ablation_point(tmp_path):
    # The sweep applies the mean it wrote to mean.safetensors; the ablation point
    # with every vector takes the same mean in the pass that writes its checkpoint.
    rng = np.random.default_rng(0)
    model = TensorMap({"a": rng.standard_normal(70000).astype(np.float16),
                       "b": rng.standard_normal((3, 4)).astype(np.float32)})
    vectors = [compute_task_vector(TensorMap(
        {name: arr + rng.standard_normal(arr.shape).astype(arr.dtype)
         for name, arr in model.items()}), model) for _ in range(3)]
    sweep_config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path / "s",
                               lambda_grid=(0.4,), keep_checkpoints=True)
    ablation_config = SweepConfig(evaluator=CONSTANT_EVALUATOR, workdir=tmp_path / "a",
                                  keep_checkpoints=True)
    run_lambda_sweep(model, vectors, sweep_config)
    run_domain_ablation(model, vectors, 0.4, ablation_config, ks=[3])
    [swept] = [path for path in sweep_config.workdir.rglob("*") if path.is_file()]
    [ablated] = [path for path in ablation_config.workdir.rglob("*") if path.is_file()]
    assert swept.read_bytes() == ablated.read_bytes()


def failing_l2_evaluator(reference_path, failing_wer):
    # l2_evaluator, but exits 3 where the norm equals failing_wer.
    return l2_evaluator(reference_path, failing_wer)


@pytest.mark.parametrize("policy, seeds", [("prefix", (0,)), ("random", (0, 0, 1))])
def test_parallel_ablation_matches_serial_bytes(tmp_path, policy, seeds):
    model, vectors = fixture_model_and_vectors(values=((1.0,), (3.0,), (5.0,)))
    model_path = tmp_path / "model.st"
    write_checkpoint(model, model_path)
    evaluator = failing_l2_evaluator(model_path, 2.0)  # the mean of 1 and 3 fails
    outputs = []
    for workers in (1, 2):
        config = SweepConfig(evaluator=evaluator, workdir=tmp_path / f"w{workers}",
                             parallel_workers=workers, keep_checkpoints=True)
        result = run_domain_ablation(model, vectors, 1.0, config, policy=policy, seeds=seeds)
        tasks = len(seeds) * 3 if policy == "random" else 3
        files = [path for path in config.workdir.rglob("*") if path.is_file()]
        assert len(files) == tasks  # one file per (k, seed) task
        outputs.append(result.to_json())
    assert outputs[0] == outputs[1]
    if policy == "prefix":
        parsed = json.loads(outputs[0])
        assert [p["k"] for p in parsed["points"]] == [1, 3]
        assert [f["kind"] for f in parsed["failures"]] == ["exit"]


def test_evaluator_error_fields():
    err = EvaluatorError("boom", "exit", evaluator_exit_code=4, stderr="trace")
    assert (err.failure_kind, err.evaluator_exit_code, err.stderr) == ("exit", 4, "trace")
    assert err.exit_code == 3  # the CLI status for evaluator failures
    assert EvaluatorError("all failed").failure_kind == "unknown"


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_timeout_kills_the_evaluators_background_children(tmp_path, monkeypatch):
    monkeypatch.setenv("SYNVEC_EVAL_TIMEOUT_SECS", "1")
    pid_file = tmp_path / "child.pid"
    command = f"sh -c {shlex.quote(f'sleep 30 & echo $! > {pid_file}; wait')}"
    with pytest.raises(EvaluatorError) as exc:
        invoke_evaluator(command, tmp_path / "unused.st")
    assert exc.value.failure_kind == "timeout"
    child = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _alive(child) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(child)


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.skipif(signal.getsignal(signal.SIGINT) is not signal.default_int_handler,
                    reason="needs SIGINT to raise KeyboardInterrupt")
@pytest.mark.parametrize("workers", [1, 2])
def test_interrupting_a_threaded_sweep_kills_its_evaluators(tmp_path, workers):
    model, vectors = fixture_model_and_vectors()
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    # Each evaluator shell names a file after itself, holding its background child's pid.
    command = f"sh -c {shlex.quote(f'sleep 60 & echo $! > {pid_dir}/$$; wait')}"
    config = SweepConfig(evaluator=command, workdir=tmp_path / "w",
                         lambda_grid=(0.0, 0.5, 1.0, 1.5), parallel_workers=workers)
    main_thread = threading.main_thread().ident

    def interrupt_once_all_run():
        deadline = time.monotonic() + 30
        while len(list(pid_dir.iterdir())) < workers and time.monotonic() < deadline:
            time.sleep(0.05)
        signal.pthread_kill(main_thread, signal.SIGINT)  # what Ctrl-C does to synvec

    threading.Thread(target=interrupt_once_all_run, daemon=True).start()
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_lambda_sweep(model, vectors, config)
    assert time.monotonic() - start < 30  # not held up by the 60 s sleeps
    shells = [int(path.name) for path in pid_dir.iterdir()]
    children = [int(path.read_text()) for path in pid_dir.iterdir()]
    assert len(shells) == workers  # the points not yet started never start
    deadline = time.monotonic() + 5
    while any(map(_alive, shells + children)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, shells + children))


def _signal_a_cli_sweep(tmp_path, workers, signum):
    """Send ``signum`` to a CLI sweep once its ``workers`` evaluators run; wait
    until their shells are gone. The exit status and the CLI's stderr."""
    model, vectors = fixture_model_and_vectors()
    write_checkpoint(model, tmp_path / "model.st")
    save_task_vector(vectors[0], tmp_path / "tau.st")
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    command = f"sh -c {shlex.quote(f'touch {pid_dir}/$$; exec sleep 60')}"
    cli = subprocess.Popen(
        [sys.executable, "-m", "synvec.cli", "sweep", str(tmp_path / "model.st"),
         str(tmp_path / "tau.st"), "--evaluator", command, "--workdir", str(tmp_path / "w"),
         "--lambdas", "0,0.5,1", "--workers", str(workers)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        # Python raises KeyboardInterrupt on SIGINT only where SIGINT was not ignored.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 30
        while len(list(pid_dir.iterdir())) < workers and time.monotonic() < deadline:
            time.sleep(0.05)
        cli.send_signal(signum)
        _, stderr = cli.communicate(timeout=30)
    finally:
        cli.kill()
    evaluators = [int(path.name) for path in pid_dir.iterdir()]
    assert len(evaluators) == workers
    deadline = time.monotonic() + 5
    while any(map(_alive, evaluators)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, evaluators))
    return cli.returncode, stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_to_the_cli_kills_a_threaded_sweeps_evaluators(tmp_path, workers):
    code, stderr = _signal_a_cli_sweep(tmp_path, workers, signal.SIGTERM)
    assert code == 128 + signal.SIGTERM, stderr
    assert "evaluation failed" not in stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("workers", [1, 2])
def test_sigint_to_the_cli_kills_a_threaded_sweeps_evaluators(tmp_path, workers):
    # Ctrl-C: one error line and exit 130, where a traceback and death by SIGINT were.
    code, stderr = _signal_a_cli_sweep(tmp_path, workers, signal.SIGINT)
    assert code == 128 + signal.SIGINT, stderr
    errors = [json.loads(line)["error"] for line in stderr.splitlines() if line.startswith("{")]
    assert [error["kind"] for error in errors] == ["interrupted"]
    assert "Traceback" not in stderr
    assert "evaluation failed" not in stderr  # the evaluators it killed did not fail


def test_concurrent_cli_sweeps_may_share_a_workdir(tmp_path):
    # Two models a distance 10 apart, one vector; each evaluator waits, then reads
    # its checkpoint, so a point file the other run overwrote changes a WER.
    model, vectors = fixture_model_and_vectors()
    far = TensorMap({"w": np.array([10.0], dtype=np.float32)})
    write_checkpoint(model, tmp_path / "near.st")
    write_checkpoint(far, tmp_path / "far.st")
    save_task_vector(vectors[0], tmp_path / "tau.st")
    script = "import time; time.sleep(1)\n" + L2_EVALUATOR_SCRIPT
    evaluator = (f"{PY} -c {shlex.quote(script)} {{checkpoint}} "
                 f"{shlex.quote(str(tmp_path / 'near.st'))} nan")
    workdir = tmp_path / "w"
    runs = [subprocess.Popen(
        [sys.executable, "-m", "synvec.cli", "sweep", str(tmp_path / name),
         str(tmp_path / "tau.st"), "--evaluator", evaluator, "--workdir", str(workdir),
         "--lambdas", "0,1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for name in ("near.st", "far.st")]
    outputs = [run.communicate(timeout=60) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], outputs
    wers = [[(r["lambda"], r["wer"]) for r in json.loads(out)["records"]] for out, _ in outputs]
    assert wers == [[(0.0, 0.0), (1.0, 1.0)], [(0.0, 10.0), (1.0, 11.0)]]
    assert list(workdir.iterdir()) == []
