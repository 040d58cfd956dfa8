"""CLI: thin wrapping of module ops, JSON stdout, exit-code contract."""

import json
import os
import shlex
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from synvec import cli
from synvec.cli import main
from synvec.tensor_store import TensorMap, read_checkpoint, write_checkpoint
from synvec.vector_ops import (
    compute_task_vector,
    load_task_vector,
    norm_stats,
    save_task_vector,
)

PY = shlex.quote(sys.executable)
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


def test_usage_error_exits_64(capsys):
    code = main(["apply"])  # missing required arguments
    captured = capsys.readouterr()
    assert code == 64
    assert json.loads(captured.err)["error"]["kind"] == "usage"


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
