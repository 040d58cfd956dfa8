"""Output correctness gate, run outside the timed regions.

Every seed: recompute a large and a small tensor of each output container
with plain numpy (widen, op, narrow; F64 sorted-sum means) and require bit
equality; recompute one cosine of the similarity matrix and every sweep and
ablation WER the same way; check the toy reports' invariants.

Default seed: also compare sha256 digests of the output containers, the
similarity CSV, each command's stdout JSON with paths stripped, the sweep
and ablation (lambda, WER) records with ``best_lambda``, and the toy report
JSON against ``golden.json``. Sweep checkpoint paths are left out of every
digest.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import evaluator
from inputs import (
    BASE_SCHEMA_KEY,
    DOMAIN_KEY,
    FINAL_NORM,
    KIND_KEY,
    Container,
    file_sha256,
    sorted_mean,
    widened_apply,
    widened_sub,
)

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
LARGE, SMALL = "embed.weight", "blocks.0.norm1.weight"
PATH_KEYS = {"out", "out_dir", "path", "checkpoint_path"}


class Gate:
    """Collects named pass/fail checks and the digests to pin."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.digests: dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), "" if ok else detail))

    def same_bits(self, name: str, expected: np.ndarray, actual: np.ndarray) -> None:
        self.expect(name, expected.dtype == actual.dtype and expected.tobytes() == actual.tobytes(),
                    "bits differ from the numpy reference")

    def digest(self, name: str, data: bytes) -> None:
        self.digests[name] = hashlib.sha256(data).hexdigest()

    def compare_golden(self, workload: str, seed: int) -> None:
        if seed != DEFAULT_SEED:
            return
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {})
        self.expect(f"{workload}:golden_present", bool(golden), "no pinned digests")
        for name, expected in sorted(golden.items()):
            actual = self.digests.get(name)
            self.expect(f"digest:{name}", actual == expected, f"{actual} != pinned {expected}")


def strip_paths(obj):
    if isinstance(obj, dict):
        return {k: strip_paths(v) for k, v in obj.items() if k not in PATH_KEYS}
    if isinstance(obj, list):
        return [strip_paths(v) for v in obj]
    return obj


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _stdout_json(gate: Gate, command: str, stdout: str):
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        gate.expect(f"{command}:stdout_json", False, "stdout is not one JSON document")
        return None
    gate.digest(f"{command}.stdout", canonical(strip_paths(payload)))
    return payload


def _reference_cosine(a: Container, b: Container) -> float:
    # The program's global cosine: per-tensor F64 sums in name order, one clip.
    dot = norm_a = norm_b = 0.0
    for name in a.names():
        x = a.tensor(name).reshape(-1).astype(np.float64)
        y = b.tensor(name).reshape(-1).astype(np.float64)
        dot += float(np.sum(x * y))
        norm_a += float(np.sum(x * x))
        norm_b += float(np.sum(y * y))
    return float(np.clip(dot / math.sqrt(norm_a * norm_b), -1.0, 1.0))


def check_merge(work: Path, seed: int, stdouts: dict[str, str], lam: float) -> Gate:
    gate = Gate()
    payloads = {cmd: _stdout_json(gate, cmd, out) for cmd, out in stdouts.items()}
    if seed == DEFAULT_SEED:  # whole-file digests are compared at the pinned seed only
        for name in ("tau_0.st", "ensemble.st", "adapted.st", "report/similarity/similarity.csv"):
            gate.digests[name] = file_sha256(work / name)
    files = ("real_0.st", "syn_0.st", "target.st", "ensemble.st", "adapted.st")
    real, syn, target, ensemble, adapted = (Container(work / f) for f in files)
    taus = [Container(work / f"tau_{i}.st") for i in range(4)]
    for name in (LARGE, SMALL):
        gate.same_bits(f"diff:{name}", widened_sub(real.tensor(name), syn.tensor(name)),
                       taus[0].tensor(name))
        gate.same_bits(f"ensemble:{name}", sorted_mean([t.tensor(name) for t in taus]),
                       ensemble.tensor(name))
        gate.same_bits(f"apply:{name}",
                       widened_apply(target.tensor(name), ensemble.tensor(name), lam),
                       adapted.tensor(name))
    meta = taus[0].metadata
    gate.expect("diff:metadata",
                meta.get(KIND_KEY) == "task_vector"
                and meta.get(DOMAIN_KEY) == "domain0"
                and meta.get(BASE_SCHEMA_KEY) == real.schema_hash(),
                f"unexpected task-vector metadata {meta}")

    with open(work / "report/similarity/similarity.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cells = [row[1:] for row in rows[1:]]
    gate.expect("similarity:shape", len(cells) == 4 and all(len(r) == 4 for r in cells),
                f"matrix rows {cells}")
    if len(cells) == 4:
        gate.expect("similarity:symmetric_unit_diagonal",
                    all(cells[i][j] == cells[j][i] for i in range(4) for j in range(4))
                    and all(cells[i][i] == "1.0" for i in range(4)), "not symmetric")
        expected = repr(_reference_cosine(taus[0], taus[1]))
        gate.expect("similarity:cosine_0_1", cells[0][1] == expected,
                    f"{cells[0][1]} != reference {expected}")

    inspect = payloads.get("inspect") or {}
    gate.expect("inspect:content_hash", inspect.get("content_hash") == adapted.data_sha256(),
                "content hash differs from the data section's sha256")
    gate.expect("inspect:counts",
                inspect.get("tensors") == len(adapted.names())
                and inspect.get("total_elements") == sum(
                    adapted.tensor(n).size for n in adapted.names()),
                "tensor or element count differs")
    return gate


def _norm_wer(values: np.ndarray) -> float:
    return evaluator.wer([float(v) for v in values.reshape(-1)])


def check_sweep(work: Path, stdouts: dict[str, str], grid: tuple[float, ...],
                ablate_lambda: float) -> Gate:
    gate = Gate()
    sweep = _stdout_json(gate, "sweep", stdouts["sweep"]) or {}
    ablate = _stdout_json(gate, "ablate", stdouts["ablate"]) or {}
    records = [(r["lambda"], r["wer"]) for r in sweep.get("records", [])]
    gate.digest("sweep.records",
                canonical({"records": records, "best_lambda": sweep.get("best_lambda")}))
    points = [(p["k"], p["mean_wer"], p["per_seed"]) for p in ablate.get("points", [])]
    gate.digest("ablate.records", canonical(points))

    target = Container(work / "target.st")
    taus = [Container(work / f"tau_{i}.st") for i in range(4)]
    norm, embed = target.tensor(FINAL_NORM), target.tensor(LARGE)
    mean_norm = {k: sorted_mean([t.tensor(FINAL_NORM) for t in taus[:k]]) for k in range(1, 5)}
    mean_embed = sorted_mean([t.tensor(LARGE) for t in taus])

    gate.expect("sweep:grid",
                [lam for lam, _ in records] == list(grid) and not sweep.get("failures"),
                f"records {records}, failures {sweep.get('failures')}")
    for record in sweep.get("records", []):
        lam = record["lambda"]
        expected_wer = _norm_wer(widened_apply(norm, mean_norm[4], lam))
        gate.expect(f"sweep:wer@{lam}", record["wer"] == expected_wer,
                    f"wer {record['wer']} != reference {expected_wer}")
        stated = json.loads(record["evaluator_stdout"]).get("embed_sha256")
        expected = hashlib.sha256(widened_apply(embed, mean_embed, lam).tobytes()).hexdigest()
        gate.expect(f"sweep:{LARGE}@{lam}", stated == expected, "embedding bits differ")
    if records:
        best = min(records, key=lambda r: r[1])[0]  # min keeps the first, i.e. smaller lambda
        gate.expect("sweep:best_lambda", sweep.get("best_lambda") == best,
                    f"{sweep.get('best_lambda')} != {best}")

    gate.expect("ablate:points", [k for k, _, _ in points] == [1, 2, 3, 4]
                and not ablate.get("failures"), f"points {points}")
    for k, mean_wer, per_seed in points:
        expected = _norm_wer(widened_apply(norm, mean_norm[k], ablate_lambda))
        gate.expect(f"ablate:wer@k={k}", per_seed == [expected] and mean_wer == expected,
                    f"{per_seed} != reference {expected}")
    return gate


def _check_toy_report(gate: Gate, label: str, report: dict, num_seeds: int,
                      grid: list[float]) -> None:
    seeds = report.get("seeds", [])
    gate.expect(f"{label}:seeds", len(seeds) == num_seeds and report.get("lambda_grid") == grid,
                f"{len(seeds)} seeds, grid {report.get('lambda_grid')}")
    for outcome in seeds:
        curve = outcome["errors_by_lambda"]
        baseline = outcome["baseline_error"]
        best_lam, best_err = curve[0]
        for lam, err in curve[1:]:
            if err < best_err:
                best_lam, best_err = lam, err
        reduction = 100.0 * (baseline - best_err) / baseline if baseline > 0 else 0.0
        gate.expect(
            f"{label}:seed{outcome['seed_index']}",
            [lam for lam, _ in curve] == grid
            and all(0.0 <= err <= 1.0 for _, err in curve)
            and curve[0][1] == baseline  # lambda = 0 leaves the target model unchanged
            and (outcome["best_lambda"], outcome["best_error"]) == (best_lam, best_err)
            and outcome["relative_reduction"] == reduction,
            f"inconsistent outcome {outcome}",
        )


def check_toy(ablation: list[dict], toy_run_stdout: str, ablation_seeds: int,
              toy_run_seeds: int, grid: list[float]) -> Gate:
    gate = Gate()
    for k, report in enumerate(ablation, start=1):
        _check_toy_report(gate, f"toy_ablation:k={k}", report, ablation_seeds, grid)
    gate.digest("toy_ablation.reports", canonical(ablation))
    toy_run = _stdout_json(gate, "toy_run", toy_run_stdout)
    if toy_run is not None:
        _check_toy_report(gate, "toy_run", toy_run, toy_run_seeds, grid)
    return gate
