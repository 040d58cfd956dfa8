"""CLI: thin wrapping of module ops, JSON stdout, exit-code contract."""

import dataclasses
import hashlib
import json
import os
import resource
import shlex
import stat
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from synvec import cli, vector_ops
from synvec.cli import main
from synvec.tensor_store import TensorMap, fingerprint, read_checkpoint, write_checkpoint
from synvec.toy_experiment import ConditionShift, ToyDataSpec, TrainConfig
from synvec.vector_ops import (
    Provenance,
    TaskVector,
    compute_task_vector,
    load_task_vector,
    norm_stats,
    save_task_vector,
)

from conftest import write_merge_fixture, write_task_vector_container

# The stub evaluators are stdlib-only, so they start without site (-S).
PY = f"{shlex.quote(sys.executable)} -S"
CONSTANT_EVALUATOR = f"{PY} -c \"import json; print(json.dumps({{'wer': 2.0}}))\""
U_SHAPE_EVALUATOR = (
    f'{PY} -c "import json,sys; lam=float(sys.argv[1]); '
    "print(json.dumps({'wer': abs(lam-0.4)+1}))\" {lambda}"
)


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture
def fixture_paths(tmp_path):
    real = TensorMap({"w": np.array([1.0, 2.0], dtype=np.float32)})
    syn = TensorMap({"w": np.array([0.5, 1.5], dtype=np.float32)})
    real_path, syn_path = tmp_path / "real.st", tmp_path / "syn.st"
    write_checkpoint(real, real_path)
    write_checkpoint(syn, syn_path)
    return tmp_path, real_path, syn_path


def test_diff_of_file_with_itself_is_zero(capsys, fixture_paths):
    tmp_path, real_path, _ = fixture_paths
    out = tmp_path / "zero.st"
    code, payload, _ = run_cli(capsys, "diff", real_path, real_path, "--out", out)
    assert code == 0
    assert payload["global_l2"] == 0.0
    assert not np.any(load_task_vector(out).deltas["w"])


def test_diff_fixture_pair(capsys, fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    out = tmp_path / "tau.st"
    code, payload, _ = run_cli(
        capsys, "diff", real_path, syn_path, "--out", out, "--domain", "music"
    )
    assert code == 0
    assert payload["tensors"] == 1
    assert payload["global_l2"] == pytest.approx(0.7071, abs=1e-4)
    tau = load_task_vector(out)
    np.testing.assert_array_equal(tau.deltas["w"], np.array([0.5, 0.5], dtype=np.float32))
    assert tau.provenance.source_domain_label == "music"
    assert tau.provenance.created_from == (str(real_path), str(syn_path))


def test_diff_missing_input_exits_2_with_error_json(capsys, tmp_path):
    code = main(["diff", str(tmp_path / "absent.st"), str(tmp_path / "x.st"),
                 "--out", str(tmp_path / "o.st")])
    captured = capsys.readouterr()
    assert code == 2
    error = json.loads(captured.err)["error"]
    assert "absent.st" in error["message"]


def test_diff_matches_module_computation(capsys, fixture_paths):
    # no numeric logic in the CLI layer: its numbers equal the module's
    tmp_path, real_path, syn_path = fixture_paths
    out = tmp_path / "tau.st"
    _, payload, _ = run_cli(capsys, "diff", real_path, syn_path, "--out", out)
    tau = compute_task_vector(read_checkpoint(real_path), read_checkpoint(syn_path))
    assert payload["global_l2"] == norm_stats(tau).total.l2_norm


def test_apply_lambda_zero_is_byte_identical(capsys, fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path, out = tmp_path / "tau.st", tmp_path / "applied.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    code, payload, _ = run_cli(
        capsys, "apply", syn_path, tau_path, "--lambda", "0", "--out", out
    )
    assert code == 0
    assert out.read_bytes() == syn_path.read_bytes()
    assert payload["model_fingerprint"] == payload["output_fingerprint"]


def test_apply_reconstructs_real(capsys, fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path, out = tmp_path / "tau.st", tmp_path / "rec.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    code, _, _ = run_cli(capsys, "apply", syn_path, tau_path, "--lambda", "1", "--out", out)
    assert code == 0
    rebuilt = read_checkpoint(out)
    real = read_checkpoint(real_path)
    np.testing.assert_allclose(rebuilt["w"], real["w"], rtol=1e-6)


def test_apply_two_vectors_averages(capsys, tmp_path):
    zero = TensorMap({"w": np.zeros(1, dtype=np.float32)})
    model_path = tmp_path / "model.st"
    write_checkpoint(zero, model_path)
    for value, name in ((1.0, "a"), (3.0, "b")):
        tau = compute_task_vector(
            TensorMap({"w": np.array([value], dtype=np.float32)}), zero
        )
        save_task_vector(tau, tmp_path / f"{name}.st")
    out = tmp_path / "out.st"
    code, _, _ = run_cli(
        capsys, "apply", model_path, tmp_path / "a.st", tmp_path / "b.st",
        "--lambda", "0.5", "--out", out,
    )
    assert code == 0
    np.testing.assert_array_equal(
        read_checkpoint(out)["w"], np.array([1.0], dtype=np.float32)
    )


def test_apply_schema_mismatch_exits_1(capsys, fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    other = TensorMap({"different": np.zeros(3, dtype=np.float32)})
    other_path = tmp_path / "other.st"
    write_checkpoint(other, other_path)
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    code = main(["apply", str(other_path), str(tau_path), "--lambda", "1",
                 "--out", str(tmp_path / "o.st")])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"]["kind"] == "schema_mismatch"


def test_ensemble_command(capsys, tmp_path):
    zero = TensorMap({"w": np.zeros(1, dtype=np.float32)})
    for value, name in ((1.0, "a"), (3.0, "b")):
        save_task_vector(
            compute_task_vector(TensorMap({"w": np.array([value], dtype=np.float32)}), zero),
            tmp_path / f"{name}.st",
        )
    out = tmp_path / "mean.st"
    code, payload, _ = run_cli(capsys, "ensemble", tmp_path / "a.st", tmp_path / "b.st",
                               "--out", out)
    assert code == 0 and payload["num_vectors"] == 2
    np.testing.assert_array_equal(
        load_task_vector(out).deltas["w"], np.array([2.0], dtype=np.float32)
    )


def test_cosine_command(capsys, fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    code, payload, _ = run_cli(capsys, "cosine", tau_path, tau_path)
    assert code == 0 and payload["cosine"] == 1.0
    code, payload, _ = run_cli(
        capsys, "cosine", tau_path, tau_path, "--granularity", "per_tensor"
    )
    assert code == 0 and payload["cosine"] == {"w": 1.0}


def test_inspect_command(capsys, fixture_paths):
    tmp_path, real_path, _ = fixture_paths
    code, payload, _ = run_cli(capsys, "inspect", real_path)
    assert code == 0
    assert payload["tensors"] == 1
    assert payload["schema"] == [{"name": "w", "dtype": "F32", "shape": [2]}]
    assert payload["non_finite"] == {}
    assert payload["content_hash"] is None
    code, payload, _ = run_cli(capsys, "inspect", real_path, "--content-hash")
    assert payload["content_hash"]


def test_inspect_reads_a_task_vector_once(capsys, monkeypatch, fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    tau = compute_task_vector(read_checkpoint(real_path), read_checkpoint(syn_path))
    save_task_vector(tau, tau_path)
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_checkpoint(path)

    monkeypatch.setattr(cli, "read_checkpoint", counting_read)
    monkeypatch.setattr(vector_ops, "read_checkpoint", counting_read)
    code, payload, _ = run_cli(capsys, "inspect", tau_path)
    assert code == 0 and len(reads) == 1
    assert payload["non_finite"] == {}
    assert payload["global_l2"] == norm_stats(tau).total.l2_norm


@pytest.mark.parametrize("kind", ["model", "task_vector"])
def test_inspect_content_hash_walks_each_tensor_in_one_pass(capsys, bytes_read, tmp_path, kind):
    # A model with an infinity, written by another tool, or a task vector; the task
    # vector's norms take one more pass.
    if kind == "model":
        header = (b'{"a":{"dtype":"F32","shape":[2],"data_offsets":[0,8]},'
                  b'"b":{"dtype":"F16","shape":[3],"data_offsets":[8,14]}}')
        data = np.array([1.0, 2.0], np.float32).tobytes() + np.array([0, np.inf, 1],
                                                                      np.float16).tobytes()
        path = tmp_path / "model.st"
        path.write_bytes(len(header).to_bytes(8, "little") + header + data)
    else:
        deltas = TensorMap({"a": np.array([1.0, -2.0], np.float32),
                            "b": np.array([0.5, 1.0, 3.0], np.float16)})
        path = tmp_path / "tau.st"
        save_task_vector(TaskVector(deltas, fingerprint(deltas)), path)
        header_size = int.from_bytes(path.read_bytes()[:8], "little")
        data = path.read_bytes()[8 + header_size:]
    code, payload, _ = run_cli(capsys, "inspect", path, "--content-hash")
    assert code == 0
    assert payload["content_hash"] == hashlib.sha256(data).hexdigest()
    if kind == "model":
        assert bytes_read(path) == len(data)
        assert payload["non_finite"] == {"b": 1}
    else:
        assert bytes_read(path) == 2 * len(data)
        assert payload["non_finite"] == {}
        assert payload["global_l2"] == norm_stats(load_task_vector(path)).total.l2_norm


@pytest.mark.parametrize("command", ["ensemble", "apply", "report similarity"])
def test_merge_commands_read_each_input_once(capsys, monkeypatch, bytes_read, tmp_path, command):
    # Loading a task vector reads none of its values: the kernel checks what it
    # reads, and a reduction scans a vector only when a sum is not finite.
    monkeypatch.chdir(tmp_path)
    pairs, target = write_merge_fixture(np.float32)
    taus = [f"tau_{i}.st" for i in range(3)]
    for (real, syn), tau in zip(pairs, taus):
        assert run_cli(capsys, "diff", real, syn, "--out", tau)[0] == 0
    scans = []

    def counting_scan(tmap, *args):
        scans.append(tmap)
        return real_scan(tmap, *args)

    real_scan = TensorMap._scan
    monkeypatch.setattr(TensorMap, "_scan", counting_scan)
    argv, inputs = {
        "ensemble": (["ensemble", *taus, "--out", "out.st"], taus),
        "apply": (["apply", target, *taus, "--lambda", "0.5", "--out", "out.st"], [target, *taus]),
        "report similarity": (["report", "similarity", *taus, "--out-dir", "report"], None),
    }[command]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    if inputs is not None:  # each input's data once: the kernel's pass
        assert [bytes_read(path) for path in inputs] == [read_checkpoint(path).data_nbytes
                                                          for path in inputs]
    assert scans == []


def test_apply_at_lambda_zero_reads_its_vector_once(capsys, monkeypatch, bytes_read, tmp_path):
    # At lam == 0 the output is the model's bytes: the vector is scanned, and the
    # pass reads the model alone.
    monkeypatch.chdir(tmp_path)
    pairs, target = write_merge_fixture(np.float32)
    assert run_cli(capsys, "diff", *pairs[0], "--out", "tau.st")[0] == 0
    code, _, err = run_cli(capsys, "apply", target, "tau.st", "--lambda", "0", "--out", "out.st")
    assert code == 0, err
    assert Path("out.st").read_bytes() == Path(target).read_bytes()
    assert bytes_read(target) == read_checkpoint(target).data_nbytes
    assert bytes_read("tau.st") == read_checkpoint("tau.st").data_nbytes


@pytest.mark.parametrize("kind", ["directory", "missing"])
def test_an_input_that_cannot_be_opened_is_an_io_error_naming_it(capsys, tmp_path, kind):
    path = tmp_path / "input.st"
    if kind == "directory":
        path.mkdir()
    code, payload, err = run_cli(capsys, "inspect", path)
    assert (code, payload) == (2, None)
    error = json.loads(err)["error"]
    assert error["kind"] == "io" and error["message"].endswith(f": {str(path)!r}")


@pytest.mark.parametrize("dtype", [["F32"], {"F32": "F32"}], ids=["list", "object"])
def test_inspect_of_a_dtype_that_is_not_a_string_exits_2(capsys, tmp_path, dtype):
    header = json.dumps({"w": {"dtype": dtype, "shape": [1], "data_offsets": [0, 4]}}).encode()
    path = tmp_path / "dtype.st"
    path.write_bytes(len(header).to_bytes(8, "little") + header + bytes(4))
    code, payload, err = run_cli(capsys, "inspect", path)
    assert (code, payload) == (2, None)
    assert json.loads(err)["error"] == {
        "kind": "unknown_dtype",
        "message": f"{path}: tensor 'w' declares unknown dtype {dtype!r}"}


@pytest.mark.parametrize("command", ["sweep", "ablate"])
def test_an_evaluator_template_that_cannot_be_split_exits_1_before_writing(
        capsys, fixture_paths, command):
    tmp_path, _, _ = fixture_paths
    argv = sweep_args(fixture_paths)
    argv[argv.index("--evaluator") + 1] = "'unclosed {checkpoint}"
    if command == "ablate":
        argv = ["ablate", *argv[1:-2], "--lambda", "0.5"]
    code, payload, err = run_cli(capsys, *argv)
    assert (code, payload) == (1, None)
    error = json.loads(err)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith("evaluator command \"'unclosed {checkpoint}\" cannot be")
    assert not (tmp_path / "work").exists()


def test_sweep_command(capsys, fixture_paths, tmp_path):
    _, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    json_out = tmp_path / "sweep.json"
    csv_out = tmp_path / "sweep.csv"
    code, payload, _ = run_cli(
        capsys, "sweep", syn_path, tau_path,
        "--evaluator", U_SHAPE_EVALUATOR,
        "--workdir", tmp_path / "work",
        "--json-out", json_out, "--csv-out", csv_out,
    )
    assert code == 0
    assert payload["best_lambda"] == 0.4
    assert json.loads(json_out.read_text())["best_lambda"] == 0.4
    assert csv_out.read_text().splitlines()[0] == "lambda,wer"


def write_by_hand(path, values, metadata=None):
    """A container holding F32 tensor 'w' of ``values``, NaNs included, as
    another tool might write it."""
    header = {"w": {"dtype": "F32", "shape": [len(values)],
                    "data_offsets": [0, 4 * len(values)]}}
    if metadata is not None:
        header["__metadata__"] = metadata
    text = json.dumps(header, separators=(",", ":")).encode()
    path.write_bytes(len(text).to_bytes(8, "little") + text
                     + np.array(values, np.float32).tobytes())
    return path


@pytest.mark.parametrize("command", [["sweep"], ["ablate", "--lambda", "1"]])
def test_a_run_on_a_nan_model_exits_1_as_non_finite(capsys, fixture_paths, command):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    nan_path = write_by_hand(tmp_path / "nan.st", [np.nan, 1.0])
    code, _, err = run_cli(capsys, command[0], nan_path, tau_path, *command[1:],
                           "--evaluator", CONSTANT_EVALUATOR, "--workdir", tmp_path / "work")
    assert code == 1
    assert json.loads(err)["error"] == {
        "kind": "non_finite", "message": "model tensor 'w' has a non-finite value at flat index 0"}


# {model}, {tau} and {nan} stand for the model, a finite task vector and one
# holding a NaN; each command loads every vector before it computes.
NAN_VECTOR_COMMANDS = {
    "ensemble": ["ensemble", "{tau}", "{nan}", "--out", "{out}"],
    "apply_zero": ["apply", "{model}", "{nan}", "--lambda", "0", "--out", "{out}"],
    "apply_zero_two": ["apply", "{model}", "{tau}", "{nan}", "--lambda", "0", "--out", "{out}"],
    "apply": ["apply", "{model}", "{nan}", "--lambda", "0.5", "--out", "{out}"],
    "cosine": ["cosine", "{tau}", "{nan}"],
    "similarity": ["report", "similarity", "{tau}", "{nan}", "--out-dir", "{out}"],
    "sweep": ["sweep", "{model}", "{nan}", "--evaluator", CONSTANT_EVALUATOR,
              "--workdir", "{out}"],
    "ablate": ["ablate", "{model}", "{tau}", "{nan}", "--lambda", "1",
               "--evaluator", CONSTANT_EVALUATOR, "--workdir", "{out}"],
}


@pytest.mark.parametrize("command", NAN_VECTOR_COMMANDS)
def test_a_nan_task_vector_exits_1_as_non_finite(capsys, fixture_paths, command):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    nan_path = write_by_hand(tmp_path / "nan_tau.st", [1.0, np.nan], {
        "synvec.kind": "task_vector",
        "synvec.base_schema": fingerprint(read_checkpoint(real_path)).schema_hash})
    paths = {"{model}": syn_path, "{tau}": tau_path, "{nan}": nan_path, "{out}": tmp_path / "out"}
    code, _, err = run_cli(capsys, *(paths.get(arg, arg) for arg in NAN_VECTOR_COMMANDS[command]))
    assert code == 1
    assert json.loads(err)["error"] == {
        "kind": "non_finite",
        "message": "task vector tensor 'w' has a non-finite delta at flat index 1"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("vectors", [1, 2], ids=["one", "two"])
def test_apply_at_lambda_zero_on_a_nan_model_exits_1_as_non_finite(capsys, fixture_paths,
                                                                  vectors):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    nan_path = write_by_hand(tmp_path / "nan.st", [np.nan, 1.0])
    code, _, err = run_cli(capsys, "apply", nan_path, *[tau_path] * vectors, "--lambda", "0",
                           "--out", tmp_path / "out.st")
    assert code == 1
    assert json.loads(err)["error"] == {
        "kind": "non_finite", "message": "model tensor 'w' has a non-finite value at flat index 0"}
    assert not (tmp_path / "out.st").exists()


def test_sweep_workers_reach_config_as_given(capsys, monkeypatch, fixture_paths, tmp_path):
    _, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    configs = []
    real_sweep = cli.run_lambda_sweep

    def recording_sweep(model, vectors, config):
        configs.append(config)
        return real_sweep(model, vectors, config)

    monkeypatch.setattr(cli, "run_lambda_sweep", recording_sweep)
    code, _, _ = run_cli(
        capsys, "sweep", syn_path, tau_path, "--evaluator", CONSTANT_EVALUATOR,
        "--workdir", tmp_path / "work", "--lambdas", "0.0,0.5", "--workers", 3,
    )
    assert code == 0
    assert [c.parallel_workers for c in configs] == [3]


def test_sweep_all_failures_exits_3(capsys, fixture_paths, tmp_path):
    _, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    code = main([
        "sweep", str(syn_path), str(tau_path),
        "--evaluator", f'{PY} -c "import sys; sys.exit(1)"',
        "--workdir", str(tmp_path / "work"), "--lambdas", "0.0,0.5",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.err)["error"]["kind"] == "evaluator"


def test_ablate_command(capsys, tmp_path):
    zero = TensorMap({"w": np.zeros(1, dtype=np.float32)})
    model_path = tmp_path / "model.st"
    write_checkpoint(zero, model_path)
    for value, name in ((1.0, "a"), (3.0, "b")):
        save_task_vector(
            compute_task_vector(TensorMap({"w": np.array([value], dtype=np.float32)}), zero),
            tmp_path / f"{name}.st",
        )
    code, payload, _ = run_cli(
        capsys, "ablate", model_path, tmp_path / "a.st", tmp_path / "b.st",
        "--lambda", "1.0", "--evaluator", CONSTANT_EVALUATOR,
        "--workdir", tmp_path / "work",
    )
    assert code == 0
    assert [p["k"] for p in payload["points"]] == [1, 2]
    assert payload["subset_policy"] == "prefix"


def test_toy_run_command(capsys, tmp_path):
    json_out = tmp_path / "toy.json"
    code, payload, _ = run_cli(
        capsys, "toy-run",
        "--num-classes-per-domain", 3, "--feature-dim", 6,
        "--samples-per-class", 8, "--epochs", 4, "--num-seeds", 2,
        "--lambdas", "0.0,0.5", "--json-out", json_out,
    )
    assert code == 0
    assert payload["protocol"] == "single"
    assert payload["num_seeds"] == 2
    assert json.loads(json_out.read_text()) == payload


def test_toy_run_flags_default_to_the_dataclass_defaults(capsys, monkeypatch):
    calls = []

    def recording(spec, config, grid, num_seeds):
        calls.append((spec, config))
        return SimpleNamespace(to_json=str, to_csv=str, to_json_obj=dict)

    monkeypatch.setattr(cli, "run_adaptation_protocol", recording)
    assert run_cli(capsys, "toy-run")[0] == 0
    assert calls == [(ToyDataSpec(), TrainConfig())]


# Every toy-run parameter flag at a value other than its default, and the
# dataclasses those flags must build.
TOY_FLAGS = [
    "--num-classes-per-domain", "3", "--feature-dim", "6", "--num-source-domains", "2",
    "--class-mean-scale", "0.9", "--domain-offset-scale", "0.5", "--base-noise-stddev", "0.7",
    "--channel-gain", "0.6", "--channel-scale", "0.3", "--channel-bias-scale", "0.5",
    "--extra-noise-stddev", "0.9", "--samples-per-class", "8", "--channel-variant", "2",
    "--data-seed", "5", "--learning-rate", "0.2", "--epochs", "4", "--batch-size", "16",
    "--l2-penalty", "0.001", "--train-seed", "7",
]
TOY_FLAG_SPEC = ToyDataSpec(
    num_classes_per_domain=3, feature_dim=6, num_source_domains=2, class_mean_scale=0.9,
    domain_offset_scale=0.5, base_noise_stddev=0.7,
    condition_shift=ConditionShift(channel_gain=0.6, channel_scale=0.3, channel_bias_scale=0.5,
                                   extra_noise_stddev=0.9),
    samples_per_class=8, channel_variant=2, seed=5,
)
TOY_FLAG_CONFIG = TrainConfig(learning_rate=0.2, epochs=4, batch_size=16, l2_penalty=0.001,
                              seed=7)


def test_toy_run_flags_reach_every_dataclass_field(capsys, monkeypatch):
    for value, default in ((TOY_FLAG_SPEC, ToyDataSpec()),
                           (TOY_FLAG_SPEC.condition_shift, ConditionShift()),
                           (TOY_FLAG_CONFIG, TrainConfig())):
        assert all(getattr(value, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(value))
    calls = []

    def recording(spec, config, grid, num_seeds):
        calls.append((spec, config, grid, num_seeds))
        return SimpleNamespace(to_json=str, to_csv=str, to_json_obj=dict)

    monkeypatch.setattr(cli, "run_ensemble_protocol", recording)
    argv = ["--seed", "9", "toy-run", "--protocol", "ensemble", *TOY_FLAGS,
            "--lambdas", "0.0,0.5", "--num-seeds", "2"]
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == [(TOY_FLAG_SPEC, TOY_FLAG_CONFIG, (0.0, 0.5), 2)]


@pytest.mark.parametrize("protocol, digest", [
    ("single", "10a4acad4374f827793563c6b38fa0a3c5bada3c89fbae0cf6482face9fefef7"),
    ("ensemble", "ae8b0aa7ef021d946624ce0a199796e8610ce6656f80e45ce7b675ebcc8cf9f0"),
])
def test_toy_run_json_with_every_flag_set_is_pinned(capsys, tmp_path, protocol, digest):
    json_out = tmp_path / "toy.json"
    code, _, _ = run_cli(capsys, "toy-run", "--protocol", protocol, *TOY_FLAGS,
                         "--lambdas", "0.0,0.5,1.0", "--num-seeds", 2, "--json-out", json_out)
    assert code == 0
    assert hashlib.sha256(json_out.read_bytes()).hexdigest() == digest


def test_toy_run_ensemble_protocol(capsys):
    code, payload, _ = run_cli(
        capsys, "toy-run", "--protocol", "ensemble",
        "--num-classes-per-domain", 3, "--feature-dim", 6, "--num-source-domains", 2,
        "--samples-per-class", 8, "--epochs", 3, "--num-seeds", 1,
        "--lambdas", "0.0,0.5",
    )
    assert code == 0 and payload["protocol"] == "ensemble"
    assert payload["num_source_domains"] == 2


def test_report_table_command(capsys, tmp_path):
    baseline = tmp_path / "baseline.json"
    adapted = tmp_path / "adapted.json"
    baseline.write_text(json.dumps({"Weather": 15.45}))
    adapted.write_text(json.dumps({"Weather": 20.38}))
    code, payload, _ = run_cli(
        capsys, "report", "table", "--baseline", baseline, "--adapted", adapted,
        "--out-dir", tmp_path / "reports",
    )
    assert code == 0
    out_dir = tmp_path / "reports" / "table"
    assert (out_dir / "manifest.json").exists() and (out_dir / "table.csv").exists()


def test_report_similarity_command(capsys, fixture_paths, tmp_path):
    _, real_path, syn_path = fixture_paths
    a, b = tmp_path / "a.st", tmp_path / "b.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", a, "--domain", "music")
    run_cli(capsys, "diff", syn_path, real_path, "--out", b, "--domain", "email")
    code, payload, _ = run_cli(
        capsys, "report", "similarity", a, b,
        "--out-dir", tmp_path / "reports", "--label-prefix", "B_",
    )
    assert code == 0
    csv_path = tmp_path / "reports" / "similarity" / "similarity.csv"
    text = csv_path.read_text()
    assert "B_music" in text and "B_email" in text


def test_report_sweep_command(capsys, fixture_paths, tmp_path):
    _, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    json_out = tmp_path / "sweep.json"
    run_cli(
        capsys, "sweep", syn_path, tau_path, "--evaluator", U_SHAPE_EVALUATOR,
        "--workdir", tmp_path / "work", "--json-out", json_out,
    )
    code, payload, _ = run_cli(
        capsys, "report", "sweep", json_out, "--labels", "small+tts_a",
        "--out-dir", tmp_path / "reports",
    )
    assert code == 0
    assert (tmp_path / "reports" / "sweep" / "sweep_small_tts_a.csv").exists()
    assert (tmp_path / "reports" / "sweep" / "sweep.svg").exists()


@pytest.mark.parametrize("case, named", [
    ("tensor names that sanitize alike", "similarity_layer_1.w.csv"),
    ("repeated sweep labels", "sweep_x.csv"),
    ("empty records", "'empty'"), ("no records key", "'bare'"),
    ("NaN WER", "adapted WER of 'Weather'"), ("Infinity WER", "baseline WER of 'Weather'")])
def test_report_refusals_are_validation_errors_that_write_nothing(capsys, tmp_path, case, named):
    deltas = TensorMap({name: np.ones(2, dtype=np.float32) for name in ("layer 1.w", "layer_1.w")})
    taus = [tmp_path / f"tau_{i}.st" for i in range(2)]
    for i, path in enumerate(taus):
        save_task_vector(TaskVector(deltas, fingerprint(deltas), Provenance(f"d{i}")), path)
    sweeps = {name: tmp_path / f"{name}.json" for name in ("one", "empty", "bare")}
    sweeps["one"].write_text(json.dumps({"lambda_grid": [0.0],
                                         "records": [{"lambda": 0.0, "wer": 1.0}]}))
    sweeps["empty"].write_text(json.dumps({"lambda_grid": [0.0], "records": []}))
    sweeps["bare"].write_text(json.dumps({"lambda_grid": [0.0]}))
    wers = {name: tmp_path / f"{name}.json" for name in ("finite", "nan", "inf")}
    for name, text in (("finite", "15.45"), ("nan", "NaN"), ("inf", "Infinity")):
        wers[name].write_text(f'{{"Weather": {text}}}')
    out = tmp_path / "out"
    argv = {
        "tensor names that sanitize alike":
            ["report", "similarity", *taus, "--granularity", "per_tensor"],
        "repeated sweep labels": ["report", "sweep", sweeps["one"], sweeps["one"],
                                  "--labels", "x,x"],
        "empty records": ["report", "sweep", sweeps["one"], sweeps["empty"]],
        "no records key": ["report", "sweep", sweeps["bare"]],
        "NaN WER": ["report", "table", "--baseline", wers["finite"], "--adapted", wers["nan"]],
        "Infinity WER": ["report", "table", "--baseline", wers["inf"], "--adapted",
                         wers["finite"]],
    }[case]
    code, payload, err = run_cli(capsys, *argv, "--out-dir", out)
    assert (code, payload) == (1, None)
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and named in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("case, exit_code", [
    ("diff", 2), ("apply", 2), ("cosine", 1), ("report sweep", 1),
    ("report sweep record", 1), ("report table", 1), ("cosine base schema", 1),
    ("cosine created_from", 1)])
def test_malformed_input_gives_one_error_line_and_the_documented_code(
        capsys, fixture_paths, case, exit_code):
    tmp_path, real_path, syn_path = fixture_paths
    truncated, tau = tmp_path / "truncated.st", tmp_path / "tau.st"
    truncated.write_bytes(real_path.read_bytes()[:-3])
    save_task_vector(compute_task_vector(read_checkpoint(real_path), read_checkpoint(syn_path)),
                     tau)
    wers, bad_json, no_lambda = (tmp_path / f"{n}.json" for n in ("wers", "bad", "no_lambda"))
    wers.write_text(json.dumps({"Weather": 15.45}))
    bad_json.write_text('{"records": [', encoding="utf-8")
    no_lambda.write_text(json.dumps({"lambda_grid": [0.0], "records": [{"wer": 1.0}]}))
    out = tmp_path / "out"
    other_schema = write_task_vector_container(tmp_path / "schema.st",
                                               vector_ops.BASE_SCHEMA_KEY, "0" * 64)
    no_pair = write_task_vector_container(tmp_path / "pair.st",
                                          vector_ops.CREATED_FROM_KEY, "not json")
    argv, named = {
        "diff": (["diff", truncated, syn_path, "--out", out], truncated),
        "apply": (["apply", truncated, tau, "--lambda", "0.5", "--out", out], truncated),
        "cosine": (["cosine", tau, real_path], real_path),  # a checkpoint, not a task vector
        "report sweep": (["report", "sweep", bad_json, "--out-dir", out], bad_json),
        "report sweep record": (["report", "sweep", no_lambda, "--out-dir", out], no_lambda),
        "report table": (["report", "table", "--baseline", wers, "--adapted", bad_json,
                          "--out-dir", out], bad_json),
        "cosine base schema": (["cosine", other_schema, other_schema], other_schema),
        "cosine created_from": (["cosine", no_pair, no_pair], no_pair),
    }[case]
    code, payload, err = run_cli(capsys, *argv)
    assert (code, payload) == (exit_code, None)
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    message = json.loads(lines[0])["error"]["message"]
    assert message.startswith(f"{named}: ")


def test_usage_error_exits_64(capsys):
    code = main(["apply"])  # missing required arguments
    captured = capsys.readouterr()
    assert code == 64
    assert json.loads(captured.err)["error"]["kind"] == "usage"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["toy-run", "--num-seeds", "0"], "--num-seeds"),
        (["sweep", "SYN", "TAU", "--evaluator", CONSTANT_EVALUATOR, "--workdir", "WORK",
          "--workers", "0"], "--workers"),
        (["ablate", "SYN", "TAU", "--lambda", "0.5", "--evaluator", CONSTANT_EVALUATOR,
          "--workdir", "WORK", "--workers", "-2"], "--workers"),
        (["--seed", "-1", "ablate", "SYN", "TAU", "--lambda", "0.5", "--evaluator",
          CONSTANT_EVALUATOR, "--workdir", "WORK"], "--seed"),
    ],
)
def test_non_positive_counts_are_usage_errors(capsys, fixture_paths, tmp_path, argv, flag):
    _, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", tau_path)
    paths = {"SYN": syn_path, "TAU": tau_path, "WORK": tmp_path / "work"}
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 64
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "usage"
    assert flag in error["message"]


@pytest.mark.parametrize("flag, value", [
    ("--batch-size", "0"), ("--epochs", "-1"), ("--num-source-domains", "0"),
    ("--feature-dim", "0"), ("--samples-per-class", "0"), ("--num-classes-per-domain", "1"),
    ("--channel-variant", "-1"), ("--data-seed", "-1"), ("--train-seed", "-1"),
])
def test_toy_count_flags_below_their_minimum_are_usage_errors(capsys, flag, value):
    assert main(["toy-run", flag, value]) == 64
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "usage"
    assert flag in error["message"]


@pytest.mark.parametrize("argv, field", [
    (["--base-noise-stddev", "nan", "--epochs", "0"], "base_noise_stddev"),
    (["--learning-rate", "nan"], "learning_rate"),
    (["--channel-gain", "inf"], "channel_gain"),
])
def test_toy_parameters_outside_their_bounds_are_validation_errors(capsys, argv, field):
    code, payload, err = run_cli(capsys, "toy-run", *argv)
    assert (code, payload) == (1, None)
    error = json.loads(err)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith(f"{field} must be")


@pytest.mark.parametrize("case", ["timeout inf", "timeout 1e400", "timeout nan",
                                  "timeout 1e9", "ablate seed"])
def test_refused_runs_exit_1_before_writing(capsys, monkeypatch, fixture_paths, case):
    tmp_path, _, _ = fixture_paths
    argv = sweep_args(fixture_paths)
    kind, value = case.split()
    if kind == "timeout":
        monkeypatch.setenv("SYNVEC_EVAL_TIMEOUT_SECS", value)
        named = "SYNVEC_EVAL_TIMEOUT_SECS"
    else:
        # The sweep's model, vector, evaluator and workdir, without its --lambdas.
        argv = ["ablate", *argv[1:-2], "--lambda", "0.5", "--policy", "random", "--seeds=-1"]
        named = "seeds"
    code, payload, err = run_cli(capsys, *argv)
    assert (code, payload) == (1, None)
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["kind"] == "validation" and error["message"].startswith(f"{named} must be")
    assert not (tmp_path / "work").exists()


def test_help_exits_zero_and_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("diff", "apply", "ensemble", "cosine", "inspect", "sweep",
                 "ablate", "toy-run", "report"):
        assert name in out


def test_cosine_matches_module_computation(capsys, fixture_paths, tmp_path):
    tmp, real_path, syn_path = fixture_paths
    a, b = tmp / "a.st", tmp / "b.st"
    run_cli(capsys, "diff", real_path, syn_path, "--out", a)
    run_cli(capsys, "diff", syn_path, real_path, "--out", b)
    _, payload, _ = run_cli(capsys, "cosine", a, b)
    from synvec.vector_ops import cosine_similarity

    expected = cosine_similarity(load_task_vector(a), load_task_vector(b))
    assert payload["cosine"] == expected


def test_unknown_subcommand_exits_64(capsys):
    assert main(["frobnicate"]) == 64
    capsys.readouterr()


def test_stdout_is_single_json_document(capsys, fixture_paths):
    tmp_path, real_path, _ = fixture_paths
    code, payload, err = run_cli(capsys, "inspect", real_path)
    assert code == 0 and isinstance(payload, dict)


def test_console_script_entry_point(fixture_paths):
    _, real_path, _ = fixture_paths
    proc = subprocess.run(
        [sys.executable, "-m", "synvec.cli", "inspect", str(real_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tensors"] == 1


def run_cli_process(*args, stderr=subprocess.PIPE):
    # A separate process: writing over a mapped input used to end in SIGBUS.
    return subprocess.run([sys.executable, "-m", "synvec.cli", *map(str, args)],
                          stdout=subprocess.PIPE, stderr=stderr, text=True, timeout=120)


def test_apply_may_write_over_its_model(fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    save_task_vector(compute_task_vector(read_checkpoint(real_path),
                                         read_checkpoint(syn_path)), tau_path)
    before = syn_path.read_bytes()
    proc = run_cli_process("apply", syn_path, tau_path, "--lambda", "0", "--out", syn_path)
    assert proc.returncode == 0, proc.stderr
    assert syn_path.read_bytes() == before


def test_ensemble_may_write_over_its_input(fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    save_task_vector(compute_task_vector(read_checkpoint(real_path),
                                         read_checkpoint(syn_path)), tau_path)
    before = tau_path.read_bytes()
    proc = run_cli_process("ensemble", tau_path, "--out", tau_path)
    assert proc.returncode == 0, proc.stderr
    assert tau_path.read_bytes() == before


@pytest.mark.parametrize("stderr", ["open", "closed"])
@pytest.mark.parametrize("stdout", ["pipe", "descriptor"])
@pytest.mark.parametrize("command", ["inspect", "diff"])
def test_a_closed_stdout_is_an_io_error_and_the_outputs_stay(fixture_paths, command, stdout,
                                                             stderr):
    # A pipe whose reader has gone, as after `synvec ... | head -0`, or a descriptor
    # closed before the process starts, as by `synvec ... >&-`.
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    argv = {"inspect": ["inspect", real_path],
            "diff": ["diff", real_path, syn_path, "--out", tau_path]}[command]
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "synvec.cli", *map(str, argv)], text=True, timeout=120,
            stdout=writer if stdout == "pipe" else None,
            stderr=subprocess.PIPE if stderr == "open" else writer,
            preexec_fn=(lambda: os.close(1)) if stdout == "descriptor" else None)
    finally:
        os.close(writer)
    assert proc.returncode == 2, proc.stderr
    if stderr == "open":  # one line: no traceback, and nothing more at exit
        assert proc.stderr.count("\n") == 1, proc.stderr
        message = {"pipe": "[Errno 32] Broken pipe: '<stdout>'",
                   "descriptor": "[Errno 9] Bad file descriptor: '<stdout>'"}[stdout]
        assert json.loads(proc.stderr)["error"] == {"kind": "io", "message": message}
    if command == "diff":
        assert load_task_vector(tau_path).deltas == TensorMap({"w": np.full(2, 0.5, np.float32)})


def writing_command(tmp_path, command, out):
    """argv of ``command`` writing its named output to ``out``, with its inputs
    written beside ``fixture_paths``' models in ``tmp_path``."""
    real, syn, tau = tmp_path / "real.st", tmp_path / "syn.st", tmp_path / "tau.st"
    save_task_vector(compute_task_vector(read_checkpoint(real), read_checkpoint(syn)), tau)
    (tmp_path / "wers.json").write_text(json.dumps({"Weather": 15.45}))
    (tmp_path / "work").mkdir()
    return [str(arg) for arg in {
        "diff": ["diff", real, syn, "--out", out],
        "apply": ["apply", syn, tau, "--lambda", "0.5", "--out", out],
        "ensemble": ["ensemble", tau, tau, "--out", out],
        "sweep": ["sweep", syn, tau, "--evaluator", CONSTANT_EVALUATOR, "--workdir",
                  tmp_path / "work", "--lambdas", "0,0.5", "--json-out", out],
        "toy-run": ["toy-run", "--num-classes-per-domain", "3", "--feature-dim", "6",
                    "--samples-per-class", "8", "--epochs", "2", "--num-seeds", "1",
                    "--lambdas", "0,0.5", "--json-out", out],
        "report table": ["report", "table", "--baseline", tmp_path / "wers.json", "--adapted",
                         tmp_path / "wers.json", "--out-dir", out],
    }[command]]


FILE_WRITING_COMMANDS = ["diff", "apply", "ensemble", "sweep", "toy-run"]


@pytest.mark.parametrize("command", [*FILE_WRITING_COMMANDS, "report table"])
def test_an_output_in_a_missing_directory_names_that_directory(capsys, fixture_paths, command):
    # report makes its directory, so its fault is a directory below a regular file.
    # stderr is the one error line alone: no traceback.
    tmp_path = fixture_paths[0]
    if command == "report table":
        out = tmp_path / "real.st" / "report"
        message = f"[Errno 20] Not a directory: {str(out / 'table')!r}"
    else:
        out = tmp_path / "missing" / "out"
        directory = os.path.realpath(tmp_path / "missing")
        message = f"[Errno 2] No such directory {directory!r} to write {str(out)!r} in"
    argv = writing_command(tmp_path, command, out)
    before = sorted(tmp_path.rglob("*"))
    code, payload, err = run_cli(capsys, *argv)
    assert (code, payload) == (2, None)
    assert json.loads(err)["error"] == {"kind": "io", "message": message}
    assert sorted(tmp_path.rglob("*")) == before  # no output and no temp file


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", FILE_WRITING_COMMANDS)
def test_a_write_to_a_full_device_names_it(capsys, fixture_paths, command):
    tmp_path = fixture_paths[0]
    argv = writing_command(tmp_path, command, "/dev/full")
    before = sorted(tmp_path.rglob("*"))
    code, payload, err = run_cli(capsys, *argv)
    assert (code, payload) == (2, None)
    assert json.loads(err)["error"] == {
        "kind": "io", "message": "[Errno 28] No space left on device: '/dev/full'"}
    assert sorted(tmp_path.rglob("*")) == before


def test_a_write_past_the_file_size_limit_names_the_output_and_keeps_the_old_one(tmp_path):
    values = np.arange(1 << 15, dtype=np.float32)  # 128 KiB a model, twice the limit below
    write_checkpoint(TensorMap({"w": values}), tmp_path / "real.st")
    write_checkpoint(TensorMap({"w": values[::-1].copy()}), tmp_path / "syn.st")
    out = tmp_path / "tau.st"
    out.write_bytes(b"old")
    proc = subprocess.run(
        [sys.executable, "-m", "synvec.cli", "diff", str(tmp_path / "real.st"),
         str(tmp_path / "syn.st"), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 16, 1 << 16)))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == {
        "kind": "io", "message": f"[Errno 27] File too large: {str(out)!r}"}
    assert out.read_bytes() == b"old"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["real.st", "syn.st", "tau.st"]



def sweep_args(fixture_paths):
    tmp_path, real_path, syn_path = fixture_paths
    tau_path = tmp_path / "tau.st"
    save_task_vector(compute_task_vector(read_checkpoint(real_path),
                                         read_checkpoint(syn_path)), tau_path)
    return ["sweep", syn_path, tau_path, "--evaluator", CONSTANT_EVALUATOR,
            "--workdir", tmp_path / "work", "--lambdas", "0,1"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_json_out_may_be_a_fifo(capsys, fixture_paths):
    fifo = fixture_paths[0] / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code, payload, _ = run_cli(capsys, *sweep_args(fixture_paths), "--json-out", fifo)
    reader.join(timeout=30)
    assert code == 0
    assert json.loads(received[0]) == payload
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_json_out_to_redirected_stderr_writes_in_place(fixture_paths):
    out = fixture_paths[0] / "stderr.json"
    with open(out, "wb") as handle:
        inode = os.fstat(handle.fileno()).st_ino
        proc = run_cli_process(*sweep_args(fixture_paths), "--json-out", "/dev/stderr",
                               stderr=handle)
    assert proc.returncode == 0
    assert os.stat(out).st_ino == inode  # written into the file the shell opened, not replaced
    assert json.loads(out.read_text()) == json.loads(proc.stdout)


# Runs the CLI in this process and reports how far its peak RSS rose.
PEAK_PROBE = """
import json
import sys
from synvec.cli import main

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmHWM:"))

before = peak()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "rise": peak() - before}), file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_ensemble_peak_rss_stays_near_one_input(tmp_path):
    # The child reads its own VmHWM. Its ru_maxrss would also count the pages it
    # shared with this process between fork and exec.
    rng = np.random.default_rng(3)
    paths = []
    for i in range(4):
        rows = rng.standard_normal((384, 16384), dtype=np.float32) * np.float32(0.01)
        deltas = TensorMap({f"layer{j:03d}.weight": row for j, row in enumerate(rows)})
        paths.append(tmp_path / f"tau{i}.st")
        save_task_vector(TaskVector(deltas, fingerprint(deltas), Provenance(f"d{i}")),
                         paths[-1])
        del rows, deltas
    size = paths[0].stat().st_size  # 24 MiB of data in 384 tensors
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, "ensemble", *map(str, paths),
                           "--out", str(tmp_path / "mean.st")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0
    assert report["rise"] < 2 * size, (report["rise"], size)


def write_wide_checkpoints(tmp_path, names, tensors=384):
    """An F32 checkpoint of 24 MiB of data in ``tensors`` equal tensors per
    name, and its path; names starting with ``tau`` are task vectors of small
    deltas."""
    rng = np.random.default_rng(3)
    paths = []
    for i, name in enumerate(names):
        vector = name.startswith("tau")
        rows = rng.standard_normal((tensors, 384 * 16384 // tensors), dtype=np.float32)
        if vector:
            rows *= np.float32(0.01)
        tmap = TensorMap({f"layer{j:03d}.weight": row for j, row in enumerate(rows)})
        paths.append(tmp_path / f"{name}.st")
        if vector:
            save_task_vector(TaskVector(tmap, fingerprint(tmap), Provenance(f"d{i}")), paths[-1])
        else:
            write_checkpoint(tmap, paths[-1])
        del rows, tmap
    return paths


def peak_rise(*argv):
    """How far the peak RSS of a child running ``synvec argv`` rose during the command."""
    proc = subprocess.run([sys.executable, "-c", PEAK_PROBE, *map(str, argv)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    return report["rise"]


# Each command holds about a window of each input and of its output (a tensor
# here is 64 KiB, one window), never a whole output, nor the mean of several
# vectors it applies.
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("command,inputs,bound", [
    ("diff", ["real", "syn"], 1.0),
    ("apply", ["real", "tau0"], 1.0),
    ("apply", ["real", "tau0", "tau1"], 1.0),
    ("apply", ["real", "tau0", "tau1", "tau2", "tau3"], 1.0),
    ("ensemble", ["tau0", "tau1", "tau2", "tau3"], 0.25),
], ids=["diff", "apply", "apply_two", "apply_four", "ensemble"])
def test_merge_command_peak_rss_excludes_the_output(tmp_path, command, inputs, bound):
    paths = write_wide_checkpoints(tmp_path, inputs)
    size = paths[0].stat().st_size
    extra = ["--lambda", "0.5"] if command == "apply" else []
    rise = peak_rise(command, *paths, *extra, "--out", tmp_path / "out.st")
    assert rise < bound * size, (rise, size)


# One 24 MiB tensor per file: a command holds a window of each operand, not a
# tensor, so it rises by a small part of one input.
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize("argv", [
    ["diff", "real", "syn", "--out", "out.st"],
    ["ensemble", "tau0", "tau1", "tau2", "tau3", "--out", "out.st"],
    ["apply", "real", "tau0", "tau1", "tau2", "tau3", "--lambda", "0.5", "--out", "out.st"],
    ["apply", "real", "tau0", "tau1", "tau2", "tau3", "--lambda", "0", "--out", "out.st"],
    ["report", "similarity", "tau0", "tau1", "tau2", "tau3", "--out-dir", "report_dir"],
    ["inspect", "--content-hash", "tau0"],
], ids=["diff", "ensemble", "apply_four", "apply_four_at_zero", "similarity", "inspect"])
def test_command_peak_rss_on_one_large_tensor(tmp_path, argv):
    inputs = [arg for arg in argv if arg in ("real", "syn", "tau0", "tau1", "tau2", "tau3")]
    paths = dict(zip(inputs, write_wide_checkpoints(tmp_path, inputs, tensors=1)))
    paths.update({name: tmp_path / name for name in ("out.st", "report_dir")})
    size = paths[inputs[0]].stat().st_size
    rise = peak_rise(*(paths.get(arg, arg) for arg in argv))
    assert rise < 0.25 * size, (rise, size)


def run_merge_chain(capsys, dtype):
    """sha256 prefixes of each merge command's output container and stdout,
    run in the working directory on relative paths, so that neither holds
    the directory's name."""
    pairs, target = write_merge_fixture(dtype)
    digests = {}

    def run(name, out, *args):
        code = main([*args, "--out", out])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        digests[name] = (hashlib.sha256(Path(out).read_bytes()).hexdigest()[:16],
                         hashlib.sha256(captured.out.encode()).hexdigest()[:16])

    taus = [f"tau_{i}.st" for i in range(4)]
    for i, ((real, syn), tau) in enumerate(zip(pairs, taus)):
        run(f"diff_{i}", tau, "diff", real, syn, "--domain", f"domain{i}",
            "--real-label", "human", "--syn-label", "tts")
    run("ensemble", "ensemble.st", "ensemble", *taus)
    run("apply", "adapted.st", "apply", target, "ensemble.st", "--lambda", "0.5")
    run("apply_two", "adapted_two.st", "apply", target, *taus[:2], "--lambda", "0.7")
    return digests


# sha256 prefixes (container, stdout) of the merge chain, pinned before the
# commands streamed their outputs.
MERGE_CHAIN_DIGESTS = {
    "F16": {
        "diff_0": ("09d9738bde32b5a5", "a41ff2954831fe91"),
        "diff_1": ("b873dc7b2fc76551", "035e76bca05353dd"),
        "diff_2": ("caeee23285b5ee69", "764fdfe149c355e9"),
        "diff_3": ("608dc99c484cf331", "2015a6f6e00dc35b"),
        "ensemble": ("fabf952fb5c7f32f", "d3c78d4d82cca211"),
        "apply": ("22050e439988bda3", "47a52212087d96e9"),
        "apply_two": ("7bff8773645496a3", "6897cf1d0dce2f8e"),
    },
    "F32": {
        "diff_0": ("10e708739f0b185e", "462171450af557ed"),
        "diff_1": ("9aef788e8dfea1f5", "e6c6b4ed2d938ba4"),
        "diff_2": ("aad9ceac772490bb", "26108032227c6581"),
        "diff_3": ("359ac9adc55f0d82", "32b6e78288dd0262"),
        "ensemble": ("c5070e7dc4ad0805", "db6eb25169db4477"),
        "apply": ("b52486231e1b3ca4", "8bbecd0d90353861"),
        "apply_two": ("74d201ae5011dc45", "d752f6b46f01b973"),
    },
}


@pytest.mark.parametrize("dtype", ["F16", "F32"])
def test_merge_chain_outputs_are_pinned(capsys, monkeypatch, tmp_path, dtype):
    monkeypatch.chdir(tmp_path)
    digests = run_merge_chain(capsys, {"F16": np.float16, "F32": np.float32}[dtype])
    assert digests == MERGE_CHAIN_DIGESTS[dtype]


def test_overflow_in_a_later_tensor_leaves_the_target_alone(capsys, tmp_path):
    # F16 overflows in the second tensor, after the first has been produced.
    model = TensorMap({"a": np.ones(4, np.float16),
                       "b": np.full(40000, 60000, np.float16)})
    delta = TensorMap({"a": np.ones(4, np.float16), "b": np.full(40000, 10000, np.float16)})
    write_checkpoint(model, tmp_path / "m.st")
    save_task_vector(TaskVector(delta, fingerprint(delta)), tmp_path / "tau.st")
    target = tmp_path / "out.st"
    target.write_bytes(b"previous contents")
    code = main(["apply", str(tmp_path / "m.st"), str(tmp_path / "tau.st"), "--lambda", "1",
                 "--out", str(target)])
    error = json.loads(capsys.readouterr().err)["error"]
    assert code == 1
    assert error == {"kind": "non_finite",
                     "message": "applying scale 1.0 produced a non-finite value in tensor "
                                "'b' at flat index 0"}
    assert target.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.st", "out.st", "tau.st"]


MERGE_COMMANDS = {
    "diff": ["diff", "real_0.st", "syn_0.st", "--domain", "d"],
    "ensemble": ["ensemble", "tau_0.st", "tau_1.st", "tau_2.st"],
    "apply": ["apply", "target.st", "tau_0.st", "--lambda", "0.5"],
    "apply_zero": ["apply", "target.st", "tau_0.st", "--lambda", "0"],
}


def merge_command_inputs(capsys):
    """The F16 merge fixture and three task vectors, in the working directory."""
    pairs, _ = write_merge_fixture(np.float16)
    for i, (real, syn) in enumerate(pairs[:3]):
        assert main(["diff", real, syn, "--domain", f"d{i}", "--out", f"tau_{i}.st"]) == 0
    capsys.readouterr()


def run_to(capsys, argv, out):
    """(exit code, stdout without the --out value) of ``argv --out out``."""
    code = main([*argv, "--out", str(out)])
    payload = json.loads(capsys.readouterr().out)
    payload.pop("out")
    return code, payload


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("command", sorted(MERGE_COMMANDS))
def test_out_may_be_a_fifo(capsys, monkeypatch, tmp_path, command):
    monkeypatch.chdir(tmp_path)
    merge_command_inputs(capsys)
    argv = MERGE_COMMANDS[command]
    expected = run_to(capsys, argv, "regular.st")
    os.mkfifo("out.fifo")
    received = []
    reader = threading.Thread(target=lambda: received.append(Path("out.fifo").read_bytes()),
                              daemon=True)
    reader.start()
    assert run_to(capsys, argv, "out.fifo") == expected
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [Path("regular.st").read_bytes()]


@pytest.mark.parametrize("command,over", [("diff", "real_0.st"), ("ensemble", "tau_0.st"),
                                          ("ensemble", "tau_2.st"), ("apply", "target.st"),
                                          ("apply", "tau_0.st"), ("apply_zero", "target.st")])
def test_out_may_name_an_input(capsys, monkeypatch, tmp_path, command, over):
    monkeypatch.chdir(tmp_path)
    merge_command_inputs(capsys)
    argv = MERGE_COMMANDS[command]
    expected = run_to(capsys, argv, "separate.st")
    assert run_to(capsys, argv, over) == expected
    assert Path(over).read_bytes() == Path("separate.st").read_bytes()
    assert not [p for p in os.listdir() if p.endswith(".tmp")]


# --- reduction bits ---

# Sizes that straddle a kernel block and the pairwise splits of numpy's sum.
REDUCTION_SIZES = (1, 7, 129, 32767, 32768, 32769, 65537, 1_000_001)


def write_reduction_vectors(dtype, count=3):
    """``count`` task vectors in the working directory, one tensor per size in
    REDUCTION_SIZES, in ``dtype``; the paths."""
    rng = np.random.default_rng(29)
    paths = []
    for i in range(count):
        deltas = TensorMap({f"t{size:07d}": (rng.standard_normal(size) * 10.0 ** -(1 + i % 3))
                            .astype(dtype) for size in REDUCTION_SIZES})
        paths.append(f"tau_{i}.st")
        save_task_vector(TaskVector(deltas, fingerprint(deltas), Provenance(f"d{i}")), paths[-1])
    return paths


def reduction_digests(capsys, dtype):
    """sha256 prefixes of each reduction's printed bits: the norm_stats reprs,
    cosine's stdout and the similarity CSV bytes."""
    paths = write_reduction_vectors(dtype)

    def digest(data):
        return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()[:16]

    digests = {"norm_stats": digest("".join(repr(norm_stats(load_task_vector(p)))
                                            for p in paths))}
    for granularity in ("global", "per_tensor"):
        assert main(["cosine", *paths[:2], "--granularity", granularity]) == 0
        digests[f"cosine_{granularity}"] = digest(capsys.readouterr().out)
        assert main(["report", "similarity", *paths, "--granularity", granularity,
                     "--out-dir", granularity]) == 0
        capsys.readouterr()
        csvs = sorted(Path(granularity).rglob("*.csv"))
        digests[f"similarity_{granularity}"] = digest(b"".join(p.read_bytes() for p in csvs))
    return digests


# Pinned before the reductions summed per leaf of numpy's pairwise split.
REDUCTION_DIGESTS = {
    "F16": {"norm_stats": "1ed95e019b7ed0e5",
            "cosine_global": "f4ee37636e32e044", "similarity_global": "7183342d98a483b7",
            "cosine_per_tensor": "6933b3ca3a690b26", "similarity_per_tensor": "3ee5f715a2aced38"},
    "F32": {"norm_stats": "c7aa6e751ff546d8",
            "cosine_global": "ed8cc6a79489ec41", "similarity_global": "7499d4b96d1ae7b5",
            "cosine_per_tensor": "e7d373770daddb23", "similarity_per_tensor": "e0d50d49feeebd15"},
    "F64": {"norm_stats": "922b8e6fa343c5bb",
            "cosine_global": "cfa4cc2ac90be357", "similarity_global": "86ed7954bb260ff5",
            "cosine_per_tensor": "0648b1126d0fdac0", "similarity_per_tensor": "1efa1dc31e3edf00"},
}


@pytest.mark.parametrize("dtype", ["F16", "F32", "F64"])
def test_reduction_outputs_are_pinned(capsys, monkeypatch, tmp_path, dtype):
    monkeypatch.chdir(tmp_path)
    digests = reduction_digests(capsys, {"F16": np.float16, "F32": np.float32,
                                         "F64": np.float64}[dtype])
    assert digests == REDUCTION_DIGESTS[dtype]


@pytest.mark.parametrize("setting", [
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR"),  # numpy's AVX2 ufuncs
    ("OPENBLAS_CORETYPE", "Prescott"),  # another OpenBLAS matmul kernel
], ids=["numpy-avx2", "openblas-prescott"])
def test_the_container_pins_hold_under_other_cpu_kernels(setting):
    # Under either setting the toy golden digests move (README: toy weights are
    # bit-stable per host); the merge chain and the reductions must not.
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_merge_chain_outputs_are_pinned",
         f"{__file__}::test_reduction_outputs_are_pinned"],
        env={**os.environ, setting[0]: setting[1]}, cwd=Path(__file__).parents[1],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout
