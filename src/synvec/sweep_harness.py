"""Scaling-factor sweeps, relative-WER arithmetic, and domain-count ablations.

Scoring is delegated to a pluggable external evaluator: a command template
with a ``{checkpoint}`` placeholder (and optional ``{lambda}``) that must
print a single-line JSON object ``{"wer": <number>}`` to stdout and exit 0.
Anything else counts as a per-grid-point failure, as does a checkpoint that
cannot be written (``io``) or would hold a NaN or infinity (``non_finite``). A
run only fails outright when every point fails: with a NonFiniteValueError if
every failure is ``non_finite``, an OSError (the CLI's ``io`` error, exit 2)
if every one is ``io``, else with an EvaluatorError.
``SYNVEC_EVAL_TIMEOUT_SECS`` (default 3600, at most ``MAX_TIMEOUT_SECS``)
bounds each invocation. Each evaluator runs in a session of its own, so a
timeout kills it together with any children it started. Being in its own
session, it does not see a Ctrl-C or a signal sent to synvec's process
group, so an exception that ends a sweep or an ablation (KeyboardInterrupt
included) kills every evaluator group the run still has, and the run starts
no more.

Every sweep and ablation point is a task (checkpoint name, scaling factor,
vectors) that :func:`~synvec.vector_ops.apply_ensemble` materializes, run on one
pool of ``parallel_workers`` threads (one thread for one worker); results are
gathered back in task order, and each checkpoint name carries its task index.

Each run works in a directory of its own inside the workdir, the first free
``run_NNN``, so runs sharing a workdir never share a file; the directory is
removed when the run ends unless it keeps checkpoints. A sweep of several
vectors writes their ensemble mean there once (``mean.safetensors``, deleted
when the sweep ends) and maps it back, so each point reads it a window at a
time and no mean is held whole. An ablation point takes its subset's mean in
the pass that writes its checkpoint.

JSON/CSV serializations are canonical: stable key order, records sorted by
scaling factor, and no wall-clock times, so two runs with a deterministic
evaluator produce identical bytes, checkpoint paths included when the second
starts after the first has ended. The CLI prints a result before it writes
these files (``--json-out``, ``--csv-out``), so a file that cannot be written
does not lose the result.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import os
import shlex
import shutil
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import EvaluatorError, NonFiniteValueError, ValidationError
from .tensor_store import TensorMap, require_finite
from .vector_ops import (
    _NON_FINITE_DELTA,
    TaskVector,
    apply_ensemble,
    ensemble_average,
    require_count,
    require_finite_real,
)

logger = logging.getLogger(__name__)

TIMEOUT_ENV_VAR = "SYNVEC_EVAL_TIMEOUT_SECS"
DEFAULT_TIMEOUT_SECS = 3600.0
# Popen.communicate waits in poll(), whose C int of milliseconds overflows past this.
MAX_TIMEOUT_SECS = (2**31 - 1) / 1000

# Sweep grid 0.0, 0.1, ..., 1.0; zero anchors the unmodified-model baseline.
DEFAULT_LAMBDA_GRID = tuple(round(i / 10, 1) for i in range(11))


def validate_lambda_grid(values: Sequence[float]) -> tuple[float, ...]:
    """The grid as sorted floats; it must be non-empty, finite, real and unique."""
    grid = tuple(float(require_finite_real(v, "lambda grid value")) for v in values)
    if not grid:
        raise ValidationError("lambda grid must be non-empty")
    if len(set(grid)) != len(grid):
        raise ValidationError("lambda grid values must be unique")
    return tuple(sorted(grid))


def relative_wer(baseline: float, adapted: float) -> float:
    """100 * (baseline - adapted) / baseline; positive means improvement."""
    if not baseline > 0:
        raise ValidationError(f"baseline WER must be positive, got {baseline!r}")
    return 100.0 * (baseline - adapted) / baseline


def _evaluator_tokens(template: str) -> tuple[str, ...]:
    """The words of an evaluator command template, split as a POSIX shell
    would; a ValidationError if there are none or it cannot be split."""
    try:
        tokens = tuple(shlex.split(template)) if isinstance(template, str) else ()
    except ValueError as exc:  # an unclosed quote, or an escape at the end
        raise ValidationError(f"evaluator command {template!r} cannot be split: {exc}") from None
    if not tokens:
        raise ValidationError("evaluator command must be non-empty")
    return tokens


@dataclass(frozen=True)
class SweepConfig:
    """Grid, evaluator command template, and working directory for a sweep.
    A template that cannot be split into words is refused here, so a run
    that could not start its evaluator is refused before it makes anything."""

    evaluator: str
    workdir: Path
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    keep_checkpoints: bool = False
    parallel_workers: int = 1

    def __post_init__(self):
        _evaluator_tokens(self.evaluator)
        object.__setattr__(self, "lambda_grid", validate_lambda_grid(self.lambda_grid))
        object.__setattr__(self, "workdir", Path(self.workdir))
        require_count(self.parallel_workers, "parallel_workers", 1)


@dataclass(frozen=True)
class EvalRecord:
    """One successful evaluation at one grid point."""

    lam: float
    wer: float
    checkpoint_path: str
    evaluator_stdout: str
    wall_time: float  # seconds; excluded from canonical serialization


@dataclass(frozen=True)
class EvalFailure:
    """One failed evaluation at one grid point."""

    lam: float
    kind: str  # spawn | exit | timeout | output | io | non_finite
    message: str
    exit_code: int | None = None
    stderr: str = ""


@dataclass(frozen=True, kw_only=True)
class AblationFailure(EvalFailure):
    """One failed evaluation at one (k, seed) ablation point."""

    k: int
    seed: int


@dataclass(frozen=True)
class SweepResult:
    lambda_grid: tuple[float, ...]
    records: tuple[EvalRecord, ...]
    failures: tuple[EvalFailure, ...]

    def to_json_obj(self) -> dict:
        return {
            "lambda_grid": list(self.lambda_grid),
            "records": [
                {
                    "lambda": r.lam,
                    "wer": r.wer,
                    "checkpoint_path": r.checkpoint_path,
                    "evaluator_stdout": r.evaluator_stdout,
                }
                for r in self.records
            ],
            "failures": [
                {
                    "lambda": f.lam,
                    "kind": f.kind,
                    "message": f.message,
                    "exit_code": f.exit_code,
                }
                for f in self.failures
            ],
            "best_lambda": best_lambda(self) if self.records else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":")) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SweepResult":
        """The result :meth:`to_json_obj` gave ``obj``; a ValidationError if
        ``obj`` lacks a field it needs or holds one of the wrong type."""
        def entries(key: str, kind: type = dict) -> list:
            value = obj.get(key, []) if isinstance(obj, dict) else None
            if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
                raise ValidationError(f"sweep result field {key!r} must be a list")
            return value

        def number(entry: dict, key: str) -> float:
            if key not in entry:
                raise ValidationError(f"a sweep result entry has no {key!r} field")
            return float(require_finite_real(entry[key], f"sweep result field {key!r}"))

        records = tuple(EvalRecord(lam=number(r, "lambda"), wer=number(r, "wer"),
                                   checkpoint_path=str(r.get("checkpoint_path", "")),
                                   evaluator_stdout=str(r.get("evaluator_stdout", "")),
                                   wall_time=0.0)
                        for r in entries("records"))
        failures = tuple(EvalFailure(lam=number(f, "lambda"), kind=str(f.get("kind", "unknown")),
                                     message=str(f.get("message", "")),
                                     exit_code=f.get("exit_code"))
                         for f in entries("failures"))
        grid = tuple(float(require_finite_real(v, "sweep result lambda_grid value"))
                     for v in entries("lambda_grid", object))
        return cls(lambda_grid=grid, records=records, failures=failures)

    def to_csv(self) -> str:
        lines = ["lambda,wer"]
        lines += [f"{r.lam!r},{r.wer!r}" for r in self.records]
        return "\n".join(lines) + "\n"


def best_point(curve: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """The (lambda, error) pair with the lowest error on a curve sorted by lambda;
    ``min`` keeps the first of equal pairs, so ties break toward the smaller lambda."""
    return min(curve, key=lambda point: point[1])


def best_lambda(result: SweepResult) -> float:
    """Scaling factor with the lowest WER; ties break toward the smaller one."""
    if not result.records:
        raise ValidationError("sweep produced no successful records")
    return best_point([(r.lam, r.wer) for r in result.records])[0]


def _eval_timeout() -> float:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw is None:
        return DEFAULT_TIMEOUT_SECS
    try:
        timeout = float(raw)
    except ValueError:
        timeout = math.nan
    if not 0 < timeout <= MAX_TIMEOUT_SECS:  # also false for NaN
        raise ValidationError(f"{TIMEOUT_ENV_VAR} must be a number of seconds in "
                              f"(0, {MAX_TIMEOUT_SECS}], got {raw!r}")
    return timeout


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the session ``proc`` leads; a shell's background jobs die too."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class _LiveEvaluators:
    """The evaluators one run has started and not yet reaped.

    :meth:`stop` kills them all, and kills at once any that is added after it;
    :attr:`stopped` tells a point that its evaluator may have died so.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._procs: set[subprocess.Popen] = set()
        self._stopped = False

    def add(self, proc: subprocess.Popen) -> None:
        with self._lock:
            if not self._stopped:
                self._procs.add(proc)
                return
        _kill_group(proc)

    def discard(self, proc: subprocess.Popen) -> None:
        with self._lock:
            self._procs.discard(proc)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
            for proc in self._procs:
                if proc.poll() is None:  # not reaped, so the group id is still its own
                    _kill_group(proc)


def invoke_evaluator(
    command: str, checkpoint: Path, lam: float | None = None,
    live: _LiveEvaluators | None = None,
) -> tuple[float, str, float]:
    """Run the evaluator once; return (wer, raw stdout, wall seconds).

    ``command`` is the template, split as :class:`SweepConfig` checks it.
    Raises EvaluatorError on spawn failure, nonzero exit,
    timeout, or output that is not a JSON object with a finite non-negative
    numeric "wer". On a timeout or an interrupt the evaluator's whole
    process group is killed. ``live``, if given, holds the evaluator while
    it runs.
    """
    argv = []
    for token in _evaluator_tokens(command):
        token = token.replace("{checkpoint}", str(checkpoint))
        if lam is not None:
            token = token.replace("{lambda}", repr(float(lam)))
        argv.append(token)
    timeout = _eval_timeout()
    start = time.monotonic()
    try:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
    except OSError as exc:
        raise EvaluatorError(f"could not spawn evaluator {argv[0]!r}: {exc}", "spawn") from exc
    try:
        if live is not None:
            live.add(proc)
        stdout, stderr = proc.communicate(timeout=timeout)
    except BaseException as exc:
        _kill_group(proc)  # its leader is not reaped yet, so the group id is still its own
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise EvaluatorError(
                f"evaluator timed out after {exc.timeout:g}s (set {TIMEOUT_ENV_VAR} to change)",
                "timeout",
            ) from exc
        raise
    finally:
        if live is not None:
            live.discard(proc)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise EvaluatorError(
            f"evaluator exited with status {proc.returncode}: {stderr.strip()[:500]}",
            "exit", evaluator_exit_code=proc.returncode, stderr=stderr,
        )
    text = stdout.strip()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EvaluatorError(f"evaluator stdout is not valid JSON: {text[:200]!r}",
                             "output") from exc
    if not isinstance(payload, dict) or "wer" not in payload:
        raise EvaluatorError(
            f"evaluator output must be an object with a 'wer' key: {text[:200]!r}", "output"
        )
    wer = payload["wer"]
    if isinstance(wer, bool) or not isinstance(wer, (int, float)) or not math.isfinite(wer):
        raise EvaluatorError(f"evaluator 'wer' is not a finite number: {wer!r}", "output")
    if wer < 0:
        raise EvaluatorError(f"evaluator 'wer' must be non-negative, got {wer!r}", "output")
    return float(wer), stdout, wall


def _normalize_vectors(vectors: TaskVector | Sequence[TaskVector]) -> list[TaskVector]:
    """The vectors as a non-empty list, each scanned for a non-finite delta
    before the run makes anything: a point at lambda 0 reads none of them."""
    out = [vectors] if isinstance(vectors, TaskVector) else list(vectors)
    if not out:
        raise ValidationError("need at least one task vector")
    for vector in out:
        require_finite(vector.deltas, _NON_FINITE_DELTA)
    return out


@contextlib.contextmanager
def _run_directory(config: SweepConfig) -> Iterator[Path]:
    """A directory of the run's own in ``config.workdir``, so that runs sharing
    a workdir never share a file: the first free ``run_NNN``, made
    atomically. A run that starts after another has ended takes the same
    name, so canonical results still repeat. The directory is removed at the
    end unless it holds kept checkpoints."""
    _eval_timeout()  # a bad timeout is refused before the run makes anything
    config.workdir.mkdir(parents=True, exist_ok=True)
    for number in itertools.count():
        path = config.workdir / f"run_{number:03d}"
        with contextlib.suppress(FileExistsError):
            path.mkdir()
            break
    try:
        yield path
    finally:
        if not config.keep_checkpoints:
            shutil.rmtree(path, ignore_errors=True)
        elif not any(path.iterdir()):
            path.rmdir()


def _evaluate_point(model: TensorMap, vectors: Sequence[TaskVector], lam: float,
                    checkpoint: Path, config: SweepConfig,
                    live: _LiveEvaluators) -> EvalRecord | EvalFailure:
    try:
        apply_ensemble(model, vectors, lam, out=checkpoint)
    except OSError as exc:
        return EvalFailure(lam=lam, kind="io", message=str(exc))
    except NonFiniteValueError as exc:  # an overflow at this lambda, or a non-finite model
        return EvalFailure(lam=lam, kind="non_finite", message=str(exc))
    try:
        wer, stdout, wall = invoke_evaluator(config.evaluator, checkpoint, lam, live)
        logger.debug("lambda=%g wer=%g (%.2fs)", lam, wer, wall)
        return EvalRecord(
            lam=lam,
            wer=wer,
            checkpoint_path=str(checkpoint),
            evaluator_stdout=stdout,
            wall_time=wall,
        )
    except EvaluatorError as exc:
        if not live.stopped:  # else the unwinding run killed it: not the point's own failure
            logger.warning("evaluation failed at lambda=%g: %s", lam, exc)
        return EvalFailure(lam=lam, kind=exc.failure_kind, message=str(exc),
                           exit_code=exc.evaluator_exit_code, stderr=exc.stderr)
    finally:
        if not config.keep_checkpoints:
            checkpoint.unlink(missing_ok=True)


def _run_points(model: TensorMap, tasks: list, run_dir: Path, config: SweepConfig) -> list:
    """The outcome of each task ``(checkpoint name, lambda, vectors)``, in task
    order, on a pool of ``config.parallel_workers`` threads.

    If any point raises, or the wait is interrupted, the evaluators in ``live``
    are killed before the exception goes on, so the pool's threads end soon.
    """
    live = _LiveEvaluators()

    def point(task: tuple[str, float, list[TaskVector]]) -> EvalRecord | EvalFailure:
        name, lam, vectors = task
        return _evaluate_point(model, vectors, lam, run_dir / name, config, live)

    with ThreadPoolExecutor(max_workers=config.parallel_workers) as pool:
        try:
            # map cancels the points not yet started when its iteration ends early
            return list(pool.map(point, tasks))
        except BaseException:
            live.stop()
            raise


def _all_failed(what: str, failures: Sequence[EvalFailure]) -> Exception:
    """The error of a run whose every point failed: a NonFiniteValueError when
    every failure is ``non_finite`` (a NaN model, say), an OSError when every
    one is ``io`` (no evaluator ran), else an EvaluatorError."""
    if all(f.kind == "non_finite" for f in failures):
        return NonFiniteValueError(failures[0].message)
    message = f"{what}; first failure: {failures[0].message}"
    return OSError(message) if all(f.kind == "io" for f in failures) else EvaluatorError(message)


def run_lambda_sweep(
    model: TensorMap,
    vectors: TaskVector | Sequence[TaskVector],
    config: SweepConfig,
) -> SweepResult:
    """Materialize model + lam * (ensemble mean of vectors) at every grid point
    and score each checkpoint with the external evaluator.

    Grid points are independent; up to ``parallel_workers`` evaluator
    subprocesses run concurrently, each on a private checkpoint file. Records
    and failures come in the ascending order of the :class:`SweepConfig` grid; the
    sweep raises only if every point fails.
    """
    vector_list = _normalize_vectors(vectors)
    with _run_directory(config) as run_dir:
        mean_path = run_dir / "mean.safetensors"
        try:
            # Written once and read back, so the points read it a window at a time.
            mean = ensemble_average(vector_list, norms=False,
                                    out=mean_path if len(vector_list) > 1 else None)
            tasks = [(f"sweep_{index:03d}_lambda_{lam:g}.safetensors", lam, [mean])
                     for index, lam in enumerate(config.lambda_grid)]
            outcomes = _run_points(model, tasks, run_dir, config)
        finally:
            mean_path.unlink(missing_ok=True)

    records = tuple(o for o in outcomes if isinstance(o, EvalRecord))
    failures = tuple(o for o in outcomes if isinstance(o, EvalFailure))
    if not records:
        raise _all_failed(f"all {len(config.lambda_grid)} grid points failed", failures)
    return SweepResult(lambda_grid=config.lambda_grid, records=records, failures=failures)


@dataclass(frozen=True)
class AblationPoint:
    k: int
    mean_wer: float
    per_seed: tuple[float, ...]


@dataclass(frozen=True)
class AblationResult:
    points: tuple[AblationPoint, ...]
    subset_policy: str  # "prefix" | "random"
    seeds: tuple[int, ...]
    lam: float
    failures: tuple[AblationFailure, ...] = field(default=())

    def to_json_obj(self) -> dict:
        return {
            "subset_policy": self.subset_policy,
            "seeds": list(self.seeds),
            "lambda": self.lam,
            "points": [
                {"k": p.k, "mean_wer": p.mean_wer, "per_seed": list(p.per_seed)}
                for p in self.points
            ],
            "failures": [
                {"k": f.k, "seed": f.seed, "lambda": f.lam, "kind": f.kind,
                 "message": f.message}
                for f in self.failures
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":")) + "\n"

    def to_csv(self) -> str:
        lines = ["k,mean_wer,seed_values"]
        for p in self.points:
            joined = ";".join(repr(v) for v in p.per_seed)
            lines.append(f"{p.k},{p.mean_wer!r},{joined}")
        return "\n".join(lines) + "\n"


def run_domain_ablation(
    model: TensorMap,
    vectors: Sequence[TaskVector],
    lam: float,
    config: SweepConfig,
    *,
    ks: Sequence[int] | None = None,
    policy: str = "prefix",
    seeds: Sequence[int] = (0,),
) -> AblationResult:
    """Score ensembles built from k of the given vectors, for each k.

    ``prefix`` takes the first k vectors of the configured list (one
    deterministic evaluation per k); ``random`` samples k vectors without
    replacement once per seed and averages the resulting WERs. The (k, seed)
    points run on up to ``parallel_workers`` threads, as sweep points do.
    """
    vector_list = _normalize_vectors(vectors)
    require_finite_real(lam, "scaling factor")
    if policy not in ("prefix", "random"):
        raise ValidationError(f"policy must be 'prefix' or 'random', got {policy!r}")
    total = len(vector_list)
    if ks is None:
        ks = range(1, total + 1)
    ks = [int(require_count(k, "ks", 1)) for k in ks]
    if any(k > total for k in ks):
        raise ValidationError(f"every k must lie in 1..{total}, got {ks}")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError(f"k values must be strictly increasing, got {ks}")
    seed_list = [int(require_count(s, "seeds", 0)) for s in seeds]
    if policy == "random" and not seed_list:
        raise ValidationError("random policy needs at least one seed")

    subsets: list[tuple[int, int, list[TaskVector]]] = []  # (k, seed, subset), in (k, seed) order
    for k in ks:
        if policy == "prefix":
            subsets.append((k, 0, vector_list[:k]))
            continue
        for seed in seed_list:
            rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
            chosen = rng.choice(total, size=k, replace=False)
            subsets.append((k, seed, [vector_list[i] for i in chosen]))

    tasks = [(f"ablate_{index:03d}_k{k:02d}_seed{seed}.safetensors", lam, subset)
             for index, (k, seed, subset) in enumerate(subsets)]
    with _run_directory(config) as run_dir:
        outcomes = _run_points(model, tasks, run_dir, config)
    per_k: dict[int, list[float]] = {k: [] for k in ks}
    failures: list[AblationFailure] = []
    for (k, seed, _), outcome in zip(subsets, outcomes):
        if isinstance(outcome, EvalRecord):
            per_k[k].append(outcome.wer)
        else:
            failures.append(AblationFailure(**vars(outcome), k=k, seed=seed))
    points = [AblationPoint(k=k, mean_wer=sum(wers) / len(wers), per_seed=tuple(wers))
              for k, wers in per_k.items() if wers]
    if not points:
        raise _all_failed("all ablation evaluations failed", failures)
    return AblationResult(
        points=tuple(points),
        subset_policy=policy,
        seeds=tuple(seed_list),
        lam=float(lam),
        failures=tuple(failures),
    )
