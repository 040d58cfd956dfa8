"""The benchmark's traced run can still see every layer it expects.

``perfbench/tracing.py`` wraps public functions by name, and a traced
benchmark run fails when a name it patches is gone or when an expected span
sees no call. These tests read that module without changing it and run the
benchmark's command chains in process on small inputs, so that a rename, or
a command that stops calling a traced function, fails here first.
"""

import importlib
import json
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from synvec.cli import main

from conftest import write_merge_fixture

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EVALUATOR = (f"{shlex.quote(sys.executable)} -c "
             "\"import json; print(json.dumps({'wer': 2.0}))\" {checkpoint}")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's ``tracing`` and ``run`` modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing"), importlib.import_module("run")


def resolves(module: str, attribute: str) -> bool:
    owner = importlib.import_module(module)
    for part in attribute.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_traced_name_resolves(perfbench):
    tracing, _ = perfbench
    assert [(m, a) for m, a, _, _ in tracing.TARGETS if not resolves(m, a)] == []


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_merge_and_sweep_chains_reach_every_expected_span(perfbench, capsys, monkeypatch,
                                                          tmp_path):
    tracing, bench = perfbench
    monkeypatch.chdir(tmp_path)
    pairs, target = write_merge_fixture(np.float32)
    taus = [f"tau_{i}.st" for i in range(4)]
    tracer = tracing.Tracer("tier1")
    tracer.install()
    try:
        for (real, syn), tau in zip(pairs, taus):
            run(capsys, "diff", real, syn, "--out", tau)
        run(capsys, "ensemble", *taus, "--out", "ensemble.st")
        run(capsys, "apply", target, "ensemble.st", "--lambda", "0.5", "--out", "adapted.st")
        run(capsys, "report", "similarity", *taus, "--out-dir", "report")
        run(capsys, "inspect", "adapted.st", "--content-hash")
        common = ["--evaluator", EVALUATOR, "--workdir", "points", "--workers", "2"]
        run(capsys, "sweep", target, *taus[:2], "--lambdas", "0,0.5", *common)
        run(capsys, "ablate", target, *taus[:2], "--lambda", "0.4", *common)
    finally:
        tracer.uninstall()
    _, calls = tracing.summarize(tracer.spans, 2)
    expected = bench.MergeF32.expected_spans + bench.SweepF16.expected_spans
    assert [name for name in expected if not calls.get(name)] == []
