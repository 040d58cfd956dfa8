"""Command-line interface: one binary, one JSON document on stdout per run.

Subcommands wrap module operations one-to-one; no numeric logic lives here.
Human-readable logs go to stderr only. Exit codes: 0 success, 1 domain error
(schema/validation), 2 I/O or malformed container, 3 evaluator failure,
64 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import signal
import sys
import threading
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import SynvecError, ValidationError
from .sweep_harness import (
    DEFAULT_LAMBDA_GRID,
    SweepConfig,
    SweepResult,
    run_domain_ablation,
    run_lambda_sweep,
)
from .tensor_store import (
    fingerprint,
    open_replacing,
    read_checkpoint,
    schema_of,
    write_checkpoint,
)
from .toy_experiment import (
    ConditionShift,
    ToyDataSpec,
    TrainConfig,
    run_adaptation_protocol,
    run_ensemble_protocol,
)
from .vector_ops import (
    Provenance,
    apply_ensemble,
    compute_task_vector,
    cosine_similarity,
    ensemble_average,
    load_task_vector,
    norm_stats,
    save_task_vector,
)
from . import report as report_mod

logger = logging.getLogger("synvec")

EXIT_OK = 0
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 64
        raise _UsageError(message)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of numbers, got {text!r}")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of integers, got {text!r}")


def _load_vectors(paths: list[str]):
    return [load_task_vector(path) for path in paths]


def _maybe_write(path: str | None, text: str) -> None:
    if path:
        with open_replacing(path) as handle:
            handle.write(text.encode("utf-8"))


def _cmd_diff(args) -> dict:
    real = read_checkpoint(args.real)
    syn = read_checkpoint(args.syn)
    tau = compute_task_vector(
        real,
        syn,
        Provenance(
            source_domain_label=args.domain,
            real_condition_label=args.real_label,
            syn_condition_label=args.syn_label,
            created_from=(str(args.real), str(args.syn)),
        ),
    )
    save_task_vector(tau, args.out)
    stats = norm_stats(tau)
    return {
        "out": str(args.out),
        "tensors": len(tau.deltas),
        "global_l2": stats.total.l2_norm,
        "max_abs": stats.total.max_abs,
        "schema_hash": tau.base_schema.schema_hash,
        "domain": args.domain,
    }


def _cmd_apply(args) -> dict:
    model = read_checkpoint(args.model)
    vectors = _load_vectors(args.vectors)
    applied = apply_ensemble(model, vectors, args.lam)
    write_checkpoint(applied, args.out)
    return {
        "out": str(args.out),
        "lambda": args.lam,
        "num_vectors": len(vectors),
        "model_fingerprint": fingerprint(model).schema_hash,
        "output_fingerprint": fingerprint(applied).schema_hash,
    }


def _cmd_ensemble(args) -> dict:
    vectors = _load_vectors(args.vectors)
    averaged = ensemble_average(vectors)
    save_task_vector(averaged, args.out)
    stats = norm_stats(averaged)
    return {
        "out": str(args.out),
        "num_vectors": len(vectors),
        "global_l2": stats.total.l2_norm,
        "domain": averaged.provenance.source_domain_label,
    }


def _cmd_cosine(args) -> dict:
    a = load_task_vector(args.a)
    b = load_task_vector(args.b)
    return {"granularity": args.granularity, "cosine": cosine_similarity(a, b, args.granularity)}


def _cmd_inspect(args) -> dict:
    tmap = read_checkpoint(args.path)
    schema = schema_of(tmap)
    print_fp = fingerprint(tmap, include_content=args.content_hash)
    payload = {
        "path": str(args.path),
        "tensors": len(tmap),
        "total_elements": tmap.num_elements,
        "data_nbytes": tmap.data_nbytes,
        "schema_hash": print_fp.schema_hash,
        "content_hash": print_fp.content_hash,
        "metadata": tmap.metadata,
        "non_finite": tmap.non_finite_tensors(),
        "schema": [
            {"name": name, "dtype": dtype.value, "shape": list(shape)}
            for name, dtype, shape in schema.entries
        ],
    }
    if tmap.metadata.get("synvec.kind") == "task_vector" and not tmap.has_non_finite():
        stats = norm_stats(load_task_vector(args.path))
        payload["global_l2"] = stats.total.l2_norm
        payload["max_abs"] = stats.total.max_abs
    return payload


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        evaluator=args.evaluator,
        workdir=Path(args.workdir),
        lambda_grid=_parse_floats(args.lambdas) if args.lambdas else DEFAULT_LAMBDA_GRID,
        keep_checkpoints=args.keep_checkpoints,
        parallel_workers=args.workers,
    )


def _cmd_sweep(args) -> dict:
    model = read_checkpoint(args.model)
    vectors = _load_vectors(args.vectors)
    result = run_lambda_sweep(model, vectors, _sweep_config(args))
    _maybe_write(args.json_out, result.to_json())
    _maybe_write(args.csv_out, result.to_csv())
    return result.to_json_obj()


def _cmd_ablate(args) -> dict:
    model = read_checkpoint(args.model)
    vectors = _load_vectors(args.vectors)
    result = run_domain_ablation(
        model,
        vectors,
        args.lam,
        _sweep_config(args),
        ks=_parse_ints(args.ks) if args.ks else None,
        policy=args.policy,
        seeds=_parse_ints(args.seeds) if args.seeds else (args.seed,),
    )
    _maybe_write(args.json_out, result.to_json())
    _maybe_write(args.csv_out, result.to_csv())
    return result.to_json_obj()


def _cmd_toy_run(args) -> dict:
    spec = ToyDataSpec(
        num_classes_per_domain=args.num_classes_per_domain,
        feature_dim=args.feature_dim,
        num_source_domains=args.num_source_domains,
        class_mean_scale=args.class_mean_scale,
        domain_offset_scale=args.domain_offset_scale,
        base_noise_stddev=args.base_noise_stddev,
        condition_shift=ConditionShift(
            channel_gain=args.channel_gain,
            channel_scale=args.channel_scale,
            channel_bias_scale=args.channel_bias_scale,
            extra_noise_stddev=args.extra_noise_stddev,
        ),
        samples_per_class=args.samples_per_class,
        channel_variant=args.channel_variant,
        seed=args.data_seed if args.data_seed is not None else args.seed,
    )
    config = TrainConfig(
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch_size=args.batch_size,
        l2_penalty=args.l2_penalty,
        seed=args.train_seed if args.train_seed is not None else args.seed,
    )
    grid = _parse_floats(args.lambdas) if args.lambdas else DEFAULT_LAMBDA_GRID
    runner = run_ensemble_protocol if args.protocol == "ensemble" else run_adaptation_protocol
    report = runner(spec, config, grid, args.num_seeds)
    _maybe_write(args.json_out, report.to_json())
    _maybe_write(args.csv_out, report.to_csv())
    return report.to_json_obj()


def _vector_labels(args, vectors) -> list[str]:
    if args.labels:
        labels = [part.strip() for part in args.labels.split(",")]
        if len(labels) != len(vectors):
            raise ValidationError(
                f"got {len(labels)} labels for {len(vectors)} vectors"
            )
        return labels
    prefix = args.label_prefix or ""
    labels = []
    for path, vector in zip(args.vectors, vectors):
        base = vector.provenance.source_domain_label or Path(path).stem
        labels.append(f"{prefix}{base}")
    return labels


def _cmd_report_similarity(args) -> dict:
    vectors = _load_vectors(args.vectors)
    labels = _vector_labels(args, vectors)
    bundle = report_mod.build_similarity_report(
        list(zip(labels, vectors)), granularity=args.granularity, name=args.name
    )
    out_dir = bundle.write(args.out_dir)
    return {"out_dir": str(out_dir), "files": [f.name for _, f in bundle.files()]}


def _cmd_report_sweep(args) -> dict:
    results = []
    for path in args.results:
        with open(path, "r", encoding="utf-8") as handle:
            results.append(SweepResult.from_json_obj(json.load(handle)))
    labels = (
        [part.strip() for part in args.labels.split(",")]
        if args.labels
        else [Path(path).stem for path in args.results]
    )
    bundle = report_mod.build_sweep_report(results, labels, name=args.name)
    out_dir = bundle.write(args.out_dir)
    return {"out_dir": str(out_dir), "files": [f.name for _, f in bundle.files()]}


def _load_wer_map(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or any(
        not isinstance(v, (int, float)) or isinstance(v, bool) for v in payload.values()
    ):
        raise ValidationError(f"{path}: expected a JSON object mapping domain -> WER")
    return {str(k): float(v) for k, v in payload.items()}


def _cmd_report_table(args) -> dict:
    bundle = report_mod.build_table_report(
        _load_wer_map(args.baseline), _load_wer_map(args.adapted), name=args.name
    )
    out_dir = bundle.write(args.out_dir)
    return {"out_dir": str(out_dir), "files": [f.name for _, f in bundle.files()]}


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--evaluator", required=True,
                        help="command template; {checkpoint} and optional {lambda} placeholders")
    parser.add_argument("--workdir", required=True, help="directory for materialized checkpoints")
    parser.add_argument("--lambdas", default=None,
                        help="comma-separated grid (default 0.0,0.1,...,1.0)")
    parser.add_argument("--keep-checkpoints", action="store_true")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel evaluator subprocesses (default 1)")
    parser.add_argument("--json-out", default=None)
    parser.add_argument("--csv-out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="synvec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"synvec {__version__}")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--seed", type=int, default=0, help="default seed for seeded commands")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("diff", help="task vector = real checkpoint - synthetic checkpoint")
    p.add_argument("real")
    p.add_argument("syn")
    p.add_argument("--out", "-o", required=True)
    p.add_argument("--domain", default=None)
    p.add_argument("--real-label", default=None)
    p.add_argument("--syn-label", default=None)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("apply", help="model + lambda * vector (mean of vectors if several)")
    p.add_argument("model")
    p.add_argument("vectors", nargs="+", metavar="VECTOR")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("ensemble", help="average task vectors into one")
    p.add_argument("vectors", nargs="+", metavar="VECTOR")
    p.add_argument("--out", "-o", required=True)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("cosine", help="cosine similarity between two task vectors")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--granularity", default="global", choices=["global", "per_tensor"])
    p.set_defaults(func=_cmd_cosine)

    p = sub.add_parser("inspect", help="schema, fingerprint, metadata, non-finite report")
    p.add_argument("path")
    p.add_argument("--content-hash", action="store_true",
                   help="also hash the raw data section (reads the whole file)")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("sweep", help="evaluate model + lambda * vectors across a grid")
    p.add_argument("model")
    p.add_argument("vectors", nargs="+", metavar="VECTOR")
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ablate", help="evaluate ensembles of k vectors for growing k")
    p.add_argument("model")
    p.add_argument("vectors", nargs="+", metavar="VECTOR")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--policy", default="prefix", choices=["prefix", "random"])
    p.add_argument("--seeds", default=None, help="comma-separated seeds for the random policy")
    p.add_argument("--ks", default=None, help="comma-separated subset sizes (default 1..k)")
    _add_sweep_flags(p)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("toy-run", help="run the desk-scale adaptation experiment")
    p.add_argument("--protocol", default="single", choices=["single", "ensemble"])
    p.add_argument("--num-classes-per-domain", type=int, default=10)
    p.add_argument("--feature-dim", type=int, default=32)
    p.add_argument("--num-source-domains", type=int, default=1)
    p.add_argument("--class-mean-scale", type=float, default=ToyDataSpec.class_mean_scale)
    p.add_argument("--domain-offset-scale", type=float, default=ToyDataSpec.domain_offset_scale)
    p.add_argument("--base-noise-stddev", type=float, default=ToyDataSpec.base_noise_stddev)
    p.add_argument("--channel-gain", type=float, default=ConditionShift.channel_gain)
    p.add_argument("--channel-scale", type=float, default=ConditionShift.channel_scale)
    p.add_argument("--channel-bias-scale", type=float,
                   default=ConditionShift.channel_bias_scale)
    p.add_argument("--extra-noise-stddev", type=float,
                   default=ConditionShift.extra_noise_stddev)
    p.add_argument("--samples-per-class", type=int, default=ToyDataSpec.samples_per_class)
    p.add_argument("--channel-variant", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=None,
                   help="defaults to the global --seed")
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--l2-penalty", type=float, default=1e-4)
    p.add_argument("--train-seed", type=int, default=None,
                   help="defaults to the global --seed")
    p.add_argument("--lambdas", default=None,
                   help="comma-separated grid (default 0.0,0.1,...,1.0)")
    p.add_argument("--num-seeds", type=int, default=10)
    p.add_argument("--json-out", default=None)
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=_cmd_toy_run)

    p = sub.add_parser("report", help="emit CSV/SVG analysis bundles")
    report_sub = p.add_subparsers(dest="report_kind", required=True, parser_class=_Parser)

    r = report_sub.add_parser("similarity", help="pairwise cosine matrix + heatmap")
    r.add_argument("vectors", nargs="+", metavar="VECTOR")
    r.add_argument("--out-dir", required=True)
    r.add_argument("--name", default="similarity")
    r.add_argument("--labels", default=None, help="comma-separated, one per vector")
    r.add_argument("--label-prefix", default=None,
                   help="prefix prepended to each vector's domain label")
    r.add_argument("--granularity", default="global", choices=["global", "per_tensor"])
    r.set_defaults(func=_cmd_report_similarity)

    r = report_sub.add_parser("sweep", help="WER-vs-scaling-factor curves from sweep JSON")
    r.add_argument("results", nargs="+", metavar="RESULT_JSON")
    r.add_argument("--out-dir", required=True)
    r.add_argument("--name", default="sweep")
    r.add_argument("--labels", default=None, help="comma-separated, one per result")
    r.set_defaults(func=_cmd_report_sweep)

    r = report_sub.add_parser("table", help="baseline/adapted/relative WER table")
    r.add_argument("--baseline", required=True, help="JSON file mapping domain -> WER")
    r.add_argument("--adapted", required=True, help="JSON file mapping domain -> WER")
    r.add_argument("--out-dir", required=True)
    r.add_argument("--name", default="table")
    r.set_defaults(func=_cmd_report_table)

    return parser


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _termination_unwinds():
    """While the block runs, SIGTERM and SIGHUP raise SystemExit(128 + signal).

    Unwinding lets a sweep kill its evaluators, which run in sessions of their
    own and so miss a signal sent to synvec's process group. Signals that are
    ignored or handled already are left alone.
    """
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGHUP):
            if signal.getsignal(signum) == signal.SIG_DFL:
                previous[signum] = signal.signal(signum, _exit_on_signal)
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper()),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        with _termination_unwinds():
            payload = args.func(args)
    except SynvecError as exc:
        _emit_error(exc.kind, str(exc))
        return exc.exit_code
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    if payload is not None:
        _emit(payload)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
