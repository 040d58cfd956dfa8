"""Benchmark of the synvec toolkit on seeded inputs, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md in this directory for why each exists):

- ``merge_f32``: diff -> ensemble -> apply -> report similarity -> inspect
  on 195 MB F32 checkpoints, through the ``synvec`` CLI.
- ``sweep_f16``: an 11-point lambda sweep and a k=1..4 domain ablation on
  35 MB F16 checkpoints, scored by ``evaluator.py``.
- ``toy_ablation``: the toy ensemble protocol for k=1..4 through the public
  API, then ``synvec toy-run`` with its defaults.

With ``--trace 0`` the workload repeats for about ``--seconds`` and the
last line of stdout is a JSON object with the end-to-end metrics (each
step's fastest repetition, summed; see ``measure``). With ``--trace 1`` it
alternates untraced and traced repetitions, the traced ones with spans
recorded around each layer's public functions (``tracing.py``), and reports
the per-layer metrics. The line before the result holds the machine and
input facts, per-command best and median times and the output digests.
Outputs are checked after every measured phase; a failed check sets
``correct`` to false and the exit code to 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the toy workload calls the public API in-process

STARTUP_REPS = 5
RUN_DEADLINE_S = 170.0  # every command is killed once the run has taken this long
WORKERS = 2  # sweep/ablate --workers; at most nproc on the reference machine
APPLY_LAMBDA = 0.5
ABLATE_LAMBDA = 0.4
LAMBDA_GRID = tuple(round(i / 10, 1) for i in range(11))
TOY_ABLATION_SEEDS = 3
TOY_RUN_SEEDS = 10  # synvec toy-run's default --num-seeds


# ------------------------------------------------------------------ commands


@dataclass
class StepResult:
    wall_s: float
    ok: bool
    rss_mb: float | None = None  # CLI steps only: the process's own peak RSS
    stdout: str = ""
    value: object = None  # in-process steps: what the API call returned
    error: str = ""


class Spawner:
    """Runs CLI commands through ``spawner.py``, which keeps peak RSS honest.

    wait4 would report at least this process's own peak for any child it
    forks (see spawner.py), so this process never forks a measured command.
    """

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._deadline = time.monotonic() + RUN_DEADLINE_S

    def run(self, argv: list[str], cwd: Path, label: str, env: dict[str, str]) -> StepResult:
        out_path, err_path = cwd / f"{label}.stdout", cwd / f"{label}.stderr"
        request = {"argv": argv, "cwd": str(cwd), "env": env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(1.0, self._deadline - time.monotonic())}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        pid = json.loads(self._proc.stdout.readline())["pid"]
        try:
            done = json.loads(self._proc.stdout.readline())
        except BaseException:
            os.killpg(pid, signal.SIGKILL)
            raise
        ok = done["status"] == 0
        error = ""
        if not ok:
            error = f"exit {done['status']}: {err_path.read_text(errors='replace')[-400:]}"
        return StepResult(done["wall_s"], ok, done["maxrss_kb"] * 1024 / 1e6,
                          out_path.read_text(encoding="utf-8", errors="replace"), error=error)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def run_api(fn) -> StepResult:
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # a failed call is an op failure, reported, not fatal
        return StepResult(time.perf_counter() - start, False, error=repr(exc))
    return StepResult(time.perf_counter() - start, True, value=value)


@dataclass
class Step:
    name: str  # "command" or "command.part": parts of one command are summed
    cli: list[str] | None = None  # synvec arguments
    api: Callable[[], object] | None = None  # run in-process


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# ----------------------------------------------------------------- workloads


def command_of(step_name: str) -> str:
    return step_name.split(".")[0]


class Workload:
    name = ""
    setup_reps = 3
    setup_reps_per_rep = 0  # further set-ups after each repetition, spread over the run
    # Span names that must see at least one call in the traced run.
    expected_spans: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def setup(self) -> dict:
        """Generate the seeded inputs; return facts about them."""
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def grid_points(self, results: dict[str, StepResult]) -> tuple[int, int]:
        """(attempted, failed) evaluator grid points in one repetition."""
        return 0, 0

    def check(self, results: dict[str, StepResult]):
        raise NotImplementedError


def _input_facts(sizes: dict[str, int], layout) -> dict:
    return {"files": sizes, "bytes_per_file": max(sizes.values()),
            "params_per_file": layout.num_params(), "tensors_per_file": len(layout.shapes())}


class MergeF32(Workload):
    name = "merge_f32"
    expected_spans = (
        "tensor_store.read", "tensor_store.write", "tensor_store.nonfinite_scan",
        "tensor_store.fingerprint+content", "vector_ops.compute_task_vector",
        "vector_ops.ensemble_average", "vector_ops.apply_task_vector",
        "vector_ops.cosine_similarity", "vector_ops.norm_stats",
        "vector_ops.taskvector_validate", "report.build_similarity_report",
    )

    def setup(self) -> dict:
        return _input_facts(inputs.generate(self.work, inputs.MERGE_LAYOUT, "F32", self.seed,
                                            pairs=(0,), vectors=(1, 2, 3)), inputs.MERGE_LAYOUT)

    def steps(self) -> list[Step]:
        taus = [f"tau_{i}.st" for i in range(4)]
        return [
            Step("diff", ["diff", "real_0.st", "syn_0.st", "--out", "tau_0.st", "--domain",
                          "domain0", "--real-label", "human", "--syn-label", "tts"]),
            Step("ensemble", ["ensemble", *taus, "--out", "ensemble.st"]),
            Step("apply", ["apply", "target.st", "ensemble.st", "--lambda", str(APPLY_LAMBDA),
                           "--out", "adapted.st"]),
            Step("similarity", ["report", "similarity", *taus, "--out-dir", "report"]),
            Step("inspect", ["inspect", "adapted.st", "--content-hash"]),
        ]

    def check(self, results):
        return checks.check_merge(self.work, self.seed,
                                  {name: r.stdout for name, r in results.items()}, APPLY_LAMBDA)


class SweepF16(Workload):
    name = "sweep_f16"
    expected_spans = (
        "tensor_store.read", "tensor_store.write", "tensor_store.nonfinite_scan",
        "vector_ops.ensemble_average", "vector_ops.apply_task_vector",
        "vector_ops.taskvector_validate", "sweep_harness.invoke_evaluator",
        "sweep_harness.run_lambda_sweep", "sweep_harness.run_domain_ablation",
    )

    def setup(self) -> dict:
        return _input_facts(inputs.generate(self.work, inputs.SWEEP_LAYOUT, "F16", self.seed,
                                            pairs=(), vectors=(0, 1, 2, 3)), inputs.SWEEP_LAYOUT)

    def steps(self) -> list[Step]:
        taus = [f"tau_{i}.st" for i in range(4)]
        evaluator = " ".join(map(shlex.quote, (sys.executable, str(HERE / "evaluator.py"))))
        evaluator += " {checkpoint}"
        common = ["--evaluator", evaluator, "--workdir", "points", "--workers", str(WORKERS)]
        return [
            Step("sweep", ["sweep", "target.st", *taus, "--lambdas",
                           ",".join(map(str, LAMBDA_GRID)), *common]),
            Step("ablate", ["ablate", "target.st", *taus, "--lambda", str(ABLATE_LAMBDA),
                            "--policy", "prefix", *common]),
        ]

    def grid_points(self, results):
        attempted = failed = 0
        for name in ("sweep", "ablate"):
            try:
                payload = json.loads(results[name].stdout)
            except (KeyError, json.JSONDecodeError):
                continue
            points = payload.get("records") or [
                v for p in payload.get("points", []) for v in p["per_seed"]]
            attempted += len(points) + len(payload.get("failures", []))
            failed += len(payload.get("failures", []))
        return attempted, failed

    def check(self, results):
        return checks.check_sweep(self.work, {name: r.stdout for name, r in results.items()},
                                  LAMBDA_GRID, ABLATE_LAMBDA)


class ToyAblation(Workload):
    name = "toy_ablation"
    # A set-up takes ~0.06 s, and the first pays for lazy imports. The host's
    # speed changes every few seconds, so set-ups are spread over the run.
    setup_reps = 5
    setup_reps_per_rep = 3
    expected_spans = (
        "toy_experiment.train", "toy_experiment.generate_toy_data",
        "toy_experiment.evaluate_error", "vector_ops.compute_task_vector",
        "vector_ops.ensemble_average", "vector_ops.apply_task_vector",
        "vector_ops.taskvector_validate", "tensor_store.nonfinite_scan",
    )

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        from synvec import toy_experiment

        self.toy = toy_experiment
        self.spec = toy_experiment.ToyDataSpec(num_source_domains=4, seed=seed)
        self.config = toy_experiment.TrainConfig(seed=seed)

    def setup(self) -> dict:
        # The toy's inputs are its generated data sets: every (domain,
        # condition, split) of each per-seed world the ablation and toy-run
        # train on, seeded the way the protocols derive them.
        worlds = [(self.spec, TOY_ABLATION_SEEDS),
                  (self.toy.ToyDataSpec(seed=self.seed), TOY_RUN_SEEDS)]
        samples = 0
        for base, count in worlds:
            for index in range(count):
                derived = np.random.SeedSequence([base.seed, index]).generate_state(1, np.uint64)[0]
                spec = replace(base, seed=int(derived))
                for domain in spec.domain_labels():
                    for condition in ("real", "synthetic"):
                        for split in ("train", "eval"):
                            data = self.toy.generate_toy_data(spec, domain, condition, split)
                            samples += len(data)
        return {"worlds": TOY_ABLATION_SEEDS + TOY_RUN_SEEDS, "samples": samples,
                "feature_dim": self.spec.feature_dim}

    def _ablation(self, k: int):
        return lambda: self.toy.run_ensemble_protocol(self.spec, self.config,
                                                      num_seeds=TOY_ABLATION_SEEDS, num_vectors=k)

    def _ks(self) -> range:
        return range(1, self.spec.num_source_domains + 1)

    def steps(self) -> list[Step]:
        # One step per k: each is timed on its own, so a slow spell of the
        # host costs one step of one repetition, not the whole ablation.
        return [*(Step(f"toy_ablation.k{k}", api=self._ablation(k)) for k in self._ks()),
                Step("toy_run", ["--seed", str(self.seed), "toy-run"])]

    def check(self, results):
        reports = [results[f"toy_ablation.k{k}"].value for k in self._ks()]
        return checks.check_toy([r.to_json_obj() for r in reports],
                                results["toy_run"].stdout, TOY_ABLATION_SEEDS, TOY_RUN_SEEDS,
                                list(LAMBDA_GRID))


WORKLOADS = {w.name: w for w in (MergeF32, SweepF16, ToyAblation)}
# Commands of every workload, in the order the per-layer metrics list them.
COMMANDS = ("diff", "ensemble", "apply", "similarity", "inspect", "sweep", "ablate",
            "toy_ablation", "toy_run")
RSS_COMMANDS = ("diff", "ensemble", "apply", "sweep")


# -------------------------------------------------------------------- runner


class Runner:
    def __init__(self, workload: Workload):
        self.w = workload
        self.ops = Ops()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), SYNVEC_EVAL_TIMEOUT_SECS="60")
        self.spawner = Spawner()

    def cli_argv(self, args: list[str], spans: Path | None = None, run_id: str = "") -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "synvec.cli", *args]
        return [sys.executable, str(HERE / "launch.py"), str(spans), run_id, "--", *args]

    def rep(self, traced: bool = False) -> dict[str, StepResult]:
        """Run every step once, in order; count each as an op."""
        results = {}
        for step in self.w.steps():
            if step.cli is not None:
                spans = self.w.work / f"{step.name}.spans.json" if traced else None
                argv = self.cli_argv(step.cli, spans, step.name)
                result = self.spawner.run(argv, self.w.work, step.name, self.env)
            elif traced:
                tracer = Tracer(step.name)
                tracer.install()
                try:
                    result = run_api(step.api)
                finally:
                    tracer.uninstall()
                tracer.dump(self.w.work / f"{step.name}.spans.json")
            else:
                result = run_api(step.api)
            self.ops.add(result.ok, f"{step.name}: {result.error}")
            results[step.name] = result
        attempted, failed = self.w.grid_points(results)
        self.ops.attempted += attempted
        self.ops.failed += failed
        return results

    def check(self, results: dict[str, StepResult]) -> dict[str, str]:
        if not all(r.ok for r in results.values()):
            self.ops.add(False, "outputs not checked: a step failed")
            return {}
        gate = self.w.check(results)
        gate.compare_golden(self.w.name, self.w.seed)
        for name, ok, detail in gate.results:
            self.ops.add(ok, f"check {name}: {detail}")
        return gate.digests

    def timed_setups(self, reps: int) -> tuple[list[float], dict]:
        times, facts = [], {}
        for _ in range(reps):
            start = time.perf_counter()
            facts = self.w.setup()
            times.append(time.perf_counter() - start)
        return times, facts

    def startup(self, reps: int) -> list[float]:
        """Wall of ``synvec --version``: interpreter start plus package import."""
        walls = []
        for i in range(reps):
            result = self.spawner.run(self.cli_argv(["--version"]), self.w.work, f"version{i}",
                                     self.env)
            self.ops.add(result.ok, f"--version: {result.error}")
            walls.append(result.wall_s)
        return walls


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def repeat(seconds: float, once: Callable[[], object]) -> list:
    """Call ``once`` at least once, and again while half a call still fits
    in ``seconds``: a run lasts about ``seconds``, not up to one call more."""
    results, times = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + _median(times) / 2 <= seconds:
        began = time.perf_counter()
        results.append(once())
        times.append(time.perf_counter() - began)
    return results


def by_command(per_step: dict[str, float]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, value in per_step.items():
        totals[command_of(name)] = totals.get(command_of(name), 0.0) + value
    return totals


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup_times, input_facts = runner.timed_setups(runner.w.setup_reps)
    runner.startup(1)  # warm-up: caches the interpreter and sources, writes bytecode if enabled

    def once() -> dict[str, StepResult]:
        results = runner.rep()
        setup_times.extend(runner.timed_setups(runner.w.setup_reps_per_rep)[0])
        return results

    reps = repeat(seconds, once)
    digests = runner.check(reps[-1])
    # The host's speed switches between a fast and a slow state (up to 1.6x
    # apart) for seconds to minutes at a time, so a median follows the share
    # of the run spent slow. Each step's fastest repetition, summed, is the
    # time of the whole repetition in the host's fast state; the program's
    # own slow-downs raise it in every repetition.
    step_best = {name: min(rep[name].wall_s for rep in reps) for name in reps[0]}
    step_medians = {name: _median([rep[name].wall_s for rep in reps]) for name in reps[0]}
    rss = [max(r.rss_mb for r in rep.values() if r.rss_mb is not None) for rep in reps]
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "wall_s": (sum(step_best.values()), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
    }
    details = {
        "inputs": input_facts,
        "repetitions": len(reps),
        "setup_s_samples": setup_times,
        "wall_s_samples": [sum(r.wall_s for r in rep.values()) for rep in reps],
        "command_best_s": by_command(step_best),
        "command_median_s": by_command(step_medians),
        "command_peak_rss_mb": {name: _median([rep[name].rss_mb for rep in reps])
                                for name in reps[0] if reps[0][name].rss_mb is not None},
        "digests": digests,
    }
    return metrics, details


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """After one warm-up repetition, alternate untraced and traced ones for
    about ``seconds``.

    Per-layer metrics come from the last traced repetition's spans; command
    times, peak RSS and tracing overhead (traced minus untraced wall) are
    medians over the pairs.
    """
    runner.timed_setups(1)
    startup = runner.startup(STARTUP_REPS)
    runner.rep()  # warm-up: the first repetition after set-up runs slower

    def pair():
        plain = runner.rep()
        runner.check(plain)
        return plain, runner.rep(traced=True)

    pairs = repeat(seconds, pair)
    traced = pairs[-1][1]
    digests = runner.check(traced)  # tracing must not change a byte of output
    spans = []
    for name in traced:
        path = runner.w.work / f"{name}.spans.json"
        if path.exists():
            spans.extend(json.loads(path.read_text(encoding="utf-8")))
    layers, calls = summarize(spans, WORKERS)
    for name in runner.w.expected_spans:
        runner.ops.add(calls.get(name, 0) > 0, f"coverage: no call reached {name}")

    def median_of(command: str, value) -> float:
        """The median over pairs of ``value`` summed over the command's steps."""
        steps = [name for name in pairs[0][0] if command_of(name) == command]
        if not steps:
            return 0.0
        return sum(_median([value(p[name], t[name]) for p, t in pairs]) for name in steps)

    metrics = {"cli.startup_s": (_median(startup), "s")}
    metrics.update(layers)
    for name in COMMANDS:
        metrics[f"cmd.{name}_s"] = (median_of(name, lambda p, t: p.wall_s), "s")
        overhead = median_of(name, lambda p, t: t.wall_s - p.wall_s)
        metrics[f"trace.{name}_overhead_s"] = (overhead, "s")
    for name in RSS_COMMANDS:
        metrics[f"cmd.{name}_rss_mb"] = (median_of(name, lambda p, t: p.rss_mb), "MB")
    details = {"span_calls": calls, "digests": digests, "pairs": len(pairs)}
    return metrics, details


def machine_facts() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 2),
        "cache": "inputs are read from a warm page cache; latencies are page-cache reads, "
                 "not disk reads",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "synvec" / "cli.py").is_file():
        print(f"perfbench: no synvec sources under {SRC}", file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(WORKLOADS[args.workload](work, args.seed))
        try:
            if args.trace:
                metrics, details = measure_traced(runner, args.seconds)
            else:
                metrics, details = measure(runner, args.seconds)
        finally:
            runner.spawner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    ops = runner.ops
    if args.trace:
        metrics["ops.failure_ratio"] = (ops.failed / ops.attempted, "ratio")
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   machine=machine_facts(), failures=ops.errors[:20])
    print(json.dumps({"facts": details}, sort_keys=True))
    correct = ops.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
