"""Command-line interface: one binary, one JSON document on stdout per run.

Subcommands wrap module operations one-to-one; no numeric logic lives here.
Human-readable logs go to stderr only. Exit codes: 0 success, 1 domain error
(schema/validation), 2 I/O or malformed container (a closed stdout too),
3 evaluator failure, 64 usage, 130 SIGINT (error kind ``interrupted``), and
128 + n when signal n, SIGTERM (143) or SIGHUP (129), ends a command.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import logging
import os
import signal
import sys
import threading
from dataclasses import fields, is_dataclass
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
    _task_vector_from_map,
    apply_ensemble,
    compute_task_vector,
    cosine_similarity,
    ensemble_average,
    load_task_vector,
    norm_stats,
)
from . import report as report_mod

EXIT_OK = 0
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is 64
        raise _UsageError(message)


def _emit(payload: dict) -> None:
    _write("stdout", json.dumps(payload, indent=2) + "\n")


def _emit_error(kind: str, message: str) -> None:
    with contextlib.suppress(OSError):  # a closed stderr: there is nowhere to report to
        _write("stderr", json.dumps({"error": {"kind": kind, "message": message}}) + "\n")


def _write(name: str, text: str) -> None:
    """Write ``text`` to ``sys.stdout`` or ``sys.stderr`` and flush it. If
    that fails (a pipe whose reader has gone), the stream's descriptor is
    pointed at /dev/null, so that the text left in its buffer does not fail
    again at exit, and the error is raised naming the stream."""
    stream = getattr(sys, name)
    if stream is None:  # its descriptor was closed when the process started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), f"<{name}>")
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        raise OSError(exc.errno, exc.strerror, f"<{name}>") from None


def _parse_list(text: str, convert=float) -> tuple:
    try:
        return tuple(convert(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"expected a comma-separated list of {convert.__name__} values, "
                              f"got {text!r}")


def _count(minimum: int):
    """argparse type for a count of at least ``minimum``, so a bad value is a
    usage error that names the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _write_result(args, result) -> dict:
    """Write ``result`` to ``--json-out`` and ``--csv-out`` when given; return its JSON."""
    for path, text in ((args.json_out, result.to_json()), (args.csv_out, result.to_csv())):
        if path:
            with open_replacing(path) as handle:
                handle.write(text.encode("utf-8"))
    return result.to_json_obj()


def _read_json(path: str, parse):
    """``parse`` of the JSON document in the file at ``path``; a ValidationError
    naming ``path`` if the file holds no JSON document or ``parse`` rejects it."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(json.load(handle))
    except (ValueError, ValidationError) as exc:  # ValueError: not JSON, or not UTF-8
        raise ValidationError(f"{path}: {exc}") from None


def _write_bundle(bundle, args) -> dict:
    out_dir = bundle.write(args.out_dir)
    return {"out_dir": str(out_dir), "files": [f.name for _, f in bundle.files()]}


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
        out=args.out,
    )
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
    vectors = [load_task_vector(path) for path in args.vectors]
    applied = apply_ensemble(model, vectors, args.lam, out=args.out)
    return {
        "out": str(args.out),
        "lambda": args.lam,
        "num_vectors": len(vectors),
        "model_fingerprint": fingerprint(model).schema_hash,
        "output_fingerprint": fingerprint(applied).schema_hash,
    }


def _cmd_ensemble(args) -> dict:
    vectors = [load_task_vector(path) for path in args.vectors]
    averaged = ensemble_average(vectors, out=args.out)
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
    if tmap.metadata.get("synvec.kind") == "task_vector" and not payload["non_finite"]:
        stats = norm_stats(_task_vector_from_map(tmap, args.path))
        payload["global_l2"] = stats.total.l2_norm
        payload["max_abs"] = stats.total.max_abs
    return payload


def _sweep_config(args) -> SweepConfig:
    return SweepConfig(
        evaluator=args.evaluator,
        workdir=Path(args.workdir),
        lambda_grid=_parse_list(args.lambdas) if args.lambdas else DEFAULT_LAMBDA_GRID,
        keep_checkpoints=args.keep_checkpoints,
        parallel_workers=args.workers,
    )


def _cmd_sweep(args) -> dict:
    model = read_checkpoint(args.model)
    vectors = [load_task_vector(path) for path in args.vectors]
    return _write_result(args, run_lambda_sweep(model, vectors, _sweep_config(args)))


def _cmd_ablate(args) -> dict:
    model = read_checkpoint(args.model)
    vectors = [load_task_vector(path) for path in args.vectors]
    result = run_domain_ablation(
        model,
        vectors,
        args.lam,
        _sweep_config(args),
        ks=_parse_list(args.ks, int) if args.ks else None,
        policy=args.policy,
        seeds=_parse_list(args.seeds, int) if args.seeds else (args.seed,),
    )
    return _write_result(args, result)


def _from_flags(args, cls, **given):
    """``cls`` with ``given``, a nested toy dataclass built from its own flags,
    and each other field from the flag named after it."""
    return cls(**given, **{
        f.name: _from_flags(args, type(f.default)) if is_dataclass(f.default)
        else getattr(args, f.name)
        for f in fields(cls) if f.name not in given
    })


def _cmd_toy_run(args) -> dict:
    spec = _from_flags(args, ToyDataSpec,
                       seed=args.seed if args.data_seed is None else args.data_seed)
    config = _from_flags(args, TrainConfig,
                         seed=args.seed if args.train_seed is None else args.train_seed)
    grid = _parse_list(args.lambdas) if args.lambdas else DEFAULT_LAMBDA_GRID
    runner = run_ensemble_protocol if args.protocol == "ensemble" else run_adaptation_protocol
    return _write_result(args, runner(spec, config, grid, args.num_seeds))


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
    vectors = [load_task_vector(path) for path in args.vectors]
    labels = _vector_labels(args, vectors)
    bundle = report_mod.build_similarity_report(
        list(zip(labels, vectors)), granularity=args.granularity, name=args.name
    )
    return _write_bundle(bundle, args)


def _cmd_report_sweep(args) -> dict:
    results = [_read_json(path, SweepResult.from_json_obj) for path in args.results]
    labels = (
        [part.strip() for part in args.labels.split(",")]
        if args.labels
        else [Path(path).stem for path in args.results]
    )
    return _write_bundle(report_mod.build_sweep_report(results, labels, name=args.name), args)


def _wer_map(payload) -> dict[str, float]:
    if not isinstance(payload, dict) or any(
        not isinstance(v, (int, float)) or isinstance(v, bool) for v in payload.values()
    ):
        raise ValidationError("expected a JSON object mapping domain -> WER")
    return {str(k): float(v) for k, v in payload.items()}


def _cmd_report_table(args) -> dict:
    bundle = report_mod.build_table_report(
        _read_json(args.baseline, _wer_map), _read_json(args.adapted, _wer_map), name=args.name
    )
    return _write_bundle(bundle, args)


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--evaluator", required=True,
                        help="command template; {checkpoint} and optional {lambda} placeholders")
    parser.add_argument("--workdir", required=True, help="directory for materialized checkpoints")
    parser.add_argument("--lambdas", default=None,
                        help="comma-separated grid (default 0.0,0.1,...,1.0)")
    parser.add_argument("--keep-checkpoints", action="store_true")
    parser.add_argument("--workers", type=_count(1), default=1,
                        help="parallel evaluator subprocesses (default 1)")
    parser.add_argument("--json-out", default=None)
    parser.add_argument("--csv-out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="synvec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"synvec {__version__}")
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"])
    parser.add_argument("--seed", type=_count(0), default=0,
                        help="default seed for seeded commands")
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
    # A flag per bounded field, named after it, with its default and bound; the
    # seeds' flags below default to the global --seed.
    for cls in (ToyDataSpec, ConditionShift, TrainConfig):
        for f in fields(cls):
            if "low" in f.metadata and f.name != "seed":
                kind = _count(f.metadata["low"]) if type(f.default) is int else float
                p.add_argument("--" + f.name.replace("_", "-"), type=kind, default=f.default)
    p.add_argument("--data-seed", type=_count(0), default=None,
                   help="defaults to the global --seed")
    p.add_argument("--train-seed", type=_count(0), default=None,
                   help="defaults to the global --seed")
    p.add_argument("--lambdas", default=None,
                   help="comma-separated grid (default 0.0,0.1,...,1.0)")
    p.add_argument("--num-seeds", type=_count(1), default=10)
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
        if payload is not None:
            _emit(payload)
    except SynvecError as exc:
        _emit_error(exc.kind, str(exc))
        return exc.exit_code
    except OSError as exc:
        _emit_error("io", str(exc))
        return 2
    except KeyboardInterrupt:  # SIGINT, after the command has unwound (a sweep its evaluators)
        _emit_error("interrupted", "interrupted by SIGINT")
        return 128 + signal.SIGINT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
