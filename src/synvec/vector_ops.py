"""Weight-space arithmetic between checkpoints that share a schema.

A task vector is the elementwise difference between two models fine-tuned
from the same parent (here: one on real data, one on synthetic data). Adding
a scaled task vector to a third compatible model transfers the encoded
condition shift. Per-domain vectors can be averaged into one ensemble vector.

Numerics: storage dtypes are preserved end to end, but every elementwise op
widens per tensor (F16/F32 -> F32, F64 -> F64) before computing and narrows
back with round-to-nearest-even, and every accumulation (dot products, norms,
means) runs in F64 with a deterministic, fixed reduction order regardless of
storage dtype. Small deltas between large weights survive this; they would
not survive F16 arithmetic.

Compute, apply and scale share one elementwise kernel: each tensor is
processed in blocks of ``tensor_store.BLOCK_ELEMENTS`` elements, widened into
a compute-dtype scratch row allocated once per call, operated on in place,
narrowed straight into the preallocated output and checked for NaN/inf while
the block is still in cache. The result map records that it was checked, so
writing it, wrapping it in a :class:`TaskVector` or applying it again scans
nothing. Inputs are checked through ``TensorMap.non_finite_tensors``, which
reads a file-backed map once however many sweep points use it.

Dot products and squared norms are ``np.sum`` over the F64 product of the
exactly widened tensors, one tensor at a time, so their pairwise reduction
order is numpy's; each vector's squared sums are computed once and cached.
The ensemble mean adds each element's k addends in ascending order, starting
from +0.0: a Batcher sorting network orders them, except for all-F16 inputs
with k < 2**13, whose F64 sum is exact in any order (see
:func:`ensemble_average`).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    FingerprintMismatchError,
    SchemaMismatchError,
    ValidationError,
    ZeroNormError,
)
from .tensor_store import (
    BLOCK_ELEMENTS,
    Dtype,
    Fingerprint,
    TensorMap,
    fingerprint,
    first_non_finite,
    non_finite_error,
    read_checkpoint,
    require_finite,
    schema_compatible,
    schema_of,
    write_checkpoint,
)

# Elementwise compute dtypes: F16/F32 work in F32, F64 in F64.
_COMPUTE_DTYPE = {Dtype.F16: np.float32, Dtype.F32: np.float32, Dtype.F64: np.float64}

# Metadata keys used when serializing task vectors into the container format.
KIND_KEY = "synvec.kind"
BASE_SCHEMA_KEY = "synvec.base_schema"
DOMAIN_KEY = "synvec.domain"
REAL_LABEL_KEY = "synvec.real_label"
SYN_LABEL_KEY = "synvec.syn_label"
CREATED_FROM_KEY = "synvec.created_from"
TASK_VECTOR_KIND = "task_vector"
_RESERVED_KEYS = {
    KIND_KEY,
    BASE_SCHEMA_KEY,
    DOMAIN_KEY,
    REAL_LABEL_KEY,
    SYN_LABEL_KEY,
    CREATED_FROM_KEY,
}

_NON_FINITE_DELTA = "task vector tensor {name!r} has a non-finite delta at flat index {index}"
_F16_EXACT_MAX_K = 1 << 13  # F64 sums of fewer F16 values than this are exact


@dataclass(frozen=True)
class Provenance:
    """Where a task vector came from."""

    source_domain_label: str | None = None
    real_condition_label: str | None = None
    syn_condition_label: str | None = None
    created_from: tuple[str, str] | None = None


@dataclass(frozen=True)
class TaskVector:
    """A schema-shaped set of finite parameter deltas plus provenance."""

    deltas: TensorMap
    base_schema: Fingerprint
    provenance: Provenance = Provenance()

    def __post_init__(self):
        actual = schema_of(self.deltas).schema_hash
        if actual != self.base_schema.schema_hash:
            raise FingerprintMismatchError(
                f"delta schema hash {actual[:12]}... does not match recorded "
                f"base schema {self.base_schema.schema_hash[:12]}..."
            )
        require_finite(self.deltas, _NON_FINITE_DELTA)

    @functools.cached_property
    def _squared_sums(self) -> dict[str, float]:
        """Per-tensor F64 sums of squared deltas, computed once per vector."""
        scratch = np.empty(_largest_size(self.deltas), dtype=np.float64)
        sums = {}
        for name, arr in self.deltas.items():
            wide = _widened(arr, scratch)
            sums[name] = float(np.sum(np.square(wide, out=wide)))
        return sums


def _largest_size(tmap: TensorMap) -> int:
    return max((arr.size for _, arr in tmap.items()), default=0)


def _widened(arr: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``arr`` flattened and widened to F64 in the front of ``scratch``.

    Widening is exact, so a reduction over the result, or over its product
    with another tensor, has the bits of one over ``astype(np.float64)``.
    """
    wide = scratch[: arr.size]
    np.copyto(wide, arr.reshape(-1))
    return wide


def _require_compatible(a: TensorMap, b: TensorMap) -> None:
    report = schema_compatible(a, b)
    if not report.ok:
        raise SchemaMismatchError(report)


def _require_finite(tmap: TensorMap, role: str) -> None:
    require_finite(tmap, f"{role} tensor {{name!r}} has a non-finite value at flat index "
                         "{index}; pass allow_non_finite=True to proceed anyway")


def _elementwise(op, operands: Sequence[TensorMap], message: str | None,
                 metadata: dict[str, str] | None = None) -> TensorMap:
    """One blocked pass of ``op`` over schema-compatible maps.

    For each tensor of ``operands[0]`` and each block of it, ``op(row,
    *blocks)`` writes its result into ``row`` in the tensor's compute dtype;
    the row is narrowed (round to nearest even) into a new array of the
    storage dtype. Unless ``message`` is None, each narrowed block is checked
    at once, and the first NaN or infinity raises ``NonFiniteValueError``
    with ``message`` (formatted as in ``require_finite``); the returned map
    then records that it is finite.
    """
    block = min(_largest_size(operands[0]), BLOCK_ELEMENTS)
    wide = np.empty(block, dtype=np.float64)  # rows for storage narrower than compute
    bits = np.empty(block, dtype=np.uint64)
    out = {}
    with np.errstate(over="ignore"):  # an overflow is an infinity, which the check reports
        for name, arr in operands[0].items():
            compute = _COMPUTE_DTYPE[Dtype.from_numpy(arr.dtype)]
            flats = [tmap[name].reshape(-1) for tmap in operands]
            result = np.empty(arr.shape, dtype=arr.dtype)
            narrowed = result.reshape(-1)
            for start in range(0, arr.size, BLOCK_ELEMENTS):
                stop = min(start + BLOCK_ELEMENTS, arr.size)
                target = narrowed[start:stop]
                row = target if arr.dtype == compute else wide.view(compute)[: stop - start]
                op(row, *(flat[start:stop] for flat in flats))
                if row is not target:
                    np.copyto(target, row, casting="same_kind")
                if message is not None:
                    index = first_non_finite(target, bits)
                    if index is not None:
                        raise non_finite_error(message, name, start + index)
            out[name] = result
    return TensorMap(out, metadata, _non_finite=None if message is None else {})


def compute_task_vector(
    real: TensorMap,
    syn: TensorMap,
    provenance: Provenance | None = None,
    *,
    allow_non_finite: bool = False,
) -> TaskVector:
    """Subtract two schema-compatible parameter sets: delta = real - syn.

    Differences are computed per tensor in the widened dtype and narrowed back
    to the storage dtype, so the output schema equals the input schema.
    """
    _require_compatible(real, syn)
    if not allow_non_finite:
        _require_finite(real, "real model")
        _require_finite(syn, "synthetic model")

    def subtract(row, real_block, syn_block):
        np.subtract(real_block, syn_block, out=row, dtype=row.dtype)

    return TaskVector(
        deltas=_elementwise(subtract, (real, syn), _NON_FINITE_DELTA),
        base_schema=fingerprint(real),
        provenance=provenance or Provenance(),
    )


def apply_task_vector(
    model: TensorMap,
    tau: TaskVector,
    lam: float,
    *,
    allow_non_finite: bool = False,
) -> TensorMap:
    """Return model + lam * deltas, keeping the model's dtypes and metadata.

    lam == 0 is a bitwise no-op: the returned map shares the model's values.
    A non-finite result (e.g. an F16 overflow after narrowing) is an error
    naming the tensor and the first offending element.
    """
    if not isinstance(lam, numbers.Real) or not math.isfinite(lam):
        raise ValidationError(f"scaling factor must be a finite scalar, got {lam!r}")
    _require_compatible(model, tau.deltas)
    if not allow_non_finite:
        _require_finite(model, "model")
    if lam == 0.0:
        return model.with_metadata(model.metadata)

    def shift(row, model_block, delta_block):
        np.multiply(delta_block, row.dtype.type(lam), out=row, dtype=row.dtype)
        np.add(model_block, row, out=row, dtype=row.dtype)

    message = None if allow_non_finite else (
        f"applying scale {lam} produced a non-finite value in tensor {{name!r}} "
        "at flat index {index}")
    return _elementwise(shift, (model, tau.deltas), message, model.metadata)


def _merged_provenance(vectors: Sequence[TaskVector]) -> Provenance:
    domains = [v.provenance.source_domain_label for v in vectors]
    merged_domain = None
    if all(d is not None for d in domains):
        merged_domain = "+".join(sorted(domains))
    real_labels = {v.provenance.real_condition_label for v in vectors}
    syn_labels = {v.provenance.syn_condition_label for v in vectors}
    return Provenance(
        source_domain_label=merged_domain,
        real_condition_label=real_labels.pop() if len(real_labels) == 1 else None,
        syn_condition_label=syn_labels.pop() if len(syn_labels) == 1 else None,
        created_from=None,
    )


@functools.cache
def _batcher_network(k: int) -> tuple[tuple[int, int], ...]:
    """Comparators (lo, hi) of Batcher's odd-even merge sort for k inputs.

    The network is built for the next power of two; comparators touching a
    padded slot are dropped, which is exact because a padded slot would hold
    +inf and never move.
    """
    n = 1 << (k - 1).bit_length()
    pairs = []
    p = 1
    while p < n:
        step = p
        while step >= 1:
            for j in range(step % p, n - step, 2 * step):
                for i in range(min(step, n - j - step)):
                    lo, hi = i + j, i + j + step
                    if lo // (2 * p) == hi // (2 * p) and hi < k:
                        pairs.append((lo, hi))
            step //= 2
        p *= 2
    return tuple(pairs)


def ensemble_average(vectors: Sequence[TaskVector]) -> TaskVector:
    """Per-element arithmetic mean of task vectors sharing one base schema.

    Each element's k addends are widened to F64 and summed in ascending
    order, starting from +0.0, then divided by k and narrowed once. The
    result is therefore exactly invariant under permutation of the input
    list. The ascending order comes from a Batcher sorting network of
    ``np.minimum``/``np.maximum`` passes. All-F16 inputs with k < 2**13 skip
    it: every F16 value is an integer multiple of 2**-24 below 2**16, so any
    F64 sum of fewer than 2**13 of them is exact and equals the sorted sum.
    The +0.0 start makes the sign of a zero sum +0 whatever the order, so
    the network may duplicate one zero of a (-0, +0) pair without effect.
    Provenance records all constituent domains.
    """
    if not vectors:
        raise ValidationError("ensemble_average needs at least one task vector")
    hashes = {v.base_schema.schema_hash for v in vectors}
    if len(hashes) > 1:
        raise FingerprintMismatchError(
            f"task vectors come from {len(hashes)} different base schemas"
        )
    if len(vectors) == 1:
        return vectors[0]
    k = len(vectors)
    block = min(_largest_size(vectors[0].deltas), BLOCK_ELEMENTS)
    scratch = np.empty((k + 1, block), dtype=np.float64)
    bits = np.empty(block, dtype=np.uint64)  # for the F64 sum checks; untouched otherwise
    deltas = {}
    for name, first in vectors[0].deltas.items():
        flat_inputs = [v.deltas[name].reshape(-1) for v in vectors]
        exact_sum = first.dtype == np.float16 and k < _F16_EXACT_MAX_K  # one schema, one dtype
        # Only an F64 sum can overflow; a mean of finite F16/F32 values fits their range.
        check_sum = first.dtype == np.float64
        out = np.empty(first.shape, dtype=first.dtype)
        out_flat = out.reshape(-1)
        for start in range(0, first.size, BLOCK_ELEMENTS):
            stop = min(start + BLOCK_ELEMENTS, first.size)
            rows = list(scratch[:, : stop - start])
            for row, flat in zip(rows, flat_inputs):
                row[...] = flat[start:stop]
            if not exact_sum:
                for lo, hi in _batcher_network(k):
                    np.minimum(rows[lo], rows[hi], out=rows[k])
                    np.maximum(rows[lo], rows[hi], out=rows[hi])
                    rows[lo], rows[k] = rows[k], rows[lo]
            total = np.add(rows[0], 0.0, out=rows[0])  # the +0.0 start
            for row in rows[1:k]:
                np.add(total, row, out=total)
            out_flat[start:stop] = np.divide(total, k, out=total)
            if check_sum:
                index = first_non_finite(out_flat[start:stop], bits)
                if index is not None:
                    raise non_finite_error(_NON_FINITE_DELTA, name, start + index)
        deltas[name] = out
    return TaskVector(
        deltas=TensorMap(deltas, _non_finite={}),
        base_schema=Fingerprint(schema_hash=hashes.pop()),
        provenance=_merged_provenance(vectors),
    )


def apply_ensemble(
    model: TensorMap,
    vectors: Sequence[TaskVector],
    lam: float,
    *,
    allow_non_finite: bool = False,
) -> TensorMap:
    """model + (lam / k) * sum of k task vectors, via their ensemble average."""
    return apply_task_vector(
        model, ensemble_average(vectors), lam, allow_non_finite=allow_non_finite
    )


def cosine_similarity(
    a: TaskVector,
    b: TaskVector,
    granularity: str = "global",
) -> float | dict[str, float | None]:
    """Cosine similarity between two task vectors.

    ``global`` flattens all tensors in canonical (lexicographic name) order
    and returns one scalar in [-1, 1]; both vectors must have nonzero norm.
    ``per_tensor`` returns a name -> value map where tensors with zero norm
    on either side are reported as None (undefined) rather than a number.
    """
    if granularity not in ("global", "per_tensor"):
        raise ValidationError(f"granularity must be 'global' or 'per_tensor', got {granularity!r}")
    _require_compatible(a.deltas, b.deltas)
    sq_a, sq_b = a._squared_sums, b._squared_sums
    scratch = np.empty(_largest_size(a.deltas), dtype=np.float64)

    def dot(name: str) -> float:
        wide = _widened(a.deltas[name], scratch)
        return float(np.sum(np.multiply(wide, b.deltas[name].reshape(-1), out=wide)))

    if granularity == "per_tensor":
        out: dict[str, float | None] = {}
        for name in a.deltas.names():
            na, nb = sq_a[name], sq_b[name]
            if na == 0.0 or nb == 0.0:
                out[name] = None
            else:
                out[name] = float(np.clip(dot(name) / math.sqrt(na * nb), -1.0, 1.0))
        return out
    dot_total = norm_a = norm_b = 0.0
    for name in a.deltas.names():
        dot_total += dot(name)
        norm_a += sq_a[name]
        norm_b += sq_b[name]
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroNormError("global cosine similarity is undefined for a zero-norm task vector")
    return float(np.clip(dot_total / math.sqrt(norm_a * norm_b), -1.0, 1.0))


@dataclass(frozen=True)
class TensorStats:
    l2_norm: float
    max_abs: float
    mean_abs: float
    num_elements: int


@dataclass(frozen=True)
class NormReport:
    per_tensor: dict[str, TensorStats]
    total: TensorStats


def norm_stats(tau: TaskVector) -> NormReport:
    """Per-tensor and global magnitude statistics, accumulated in F64.

    The global l2 norm is the square root of the sum of per-tensor squared
    sums, so it equals the norm of the full flattened vector.
    """
    per_tensor: dict[str, TensorStats] = {}
    sq_total = 0.0
    abs_total = 0.0
    max_total = 0.0
    n_total = 0
    scratch = np.empty(_largest_size(tau.deltas), dtype=np.float64)
    for name, arr in tau.deltas.items():
        x = _widened(arr, scratch)
        np.abs(x, out=x)
        sq = tau._squared_sums[name]
        abs_sum = float(np.sum(x))
        per_tensor[name] = TensorStats(
            l2_norm=math.sqrt(sq),
            max_abs=float(x.max()) if x.size else 0.0,
            mean_abs=abs_sum / x.size if x.size else 0.0,
            num_elements=int(x.size),
        )
        sq_total += sq
        abs_total += abs_sum
        max_total = max(max_total, per_tensor[name].max_abs)
        n_total += int(x.size)
    total = TensorStats(
        l2_norm=math.sqrt(sq_total),
        max_abs=max_total,
        mean_abs=abs_total / n_total if n_total else 0.0,
        num_elements=n_total,
    )
    return NormReport(per_tensor=per_tensor, total=total)


def scale_task_vector(tau: TaskVector, factor: float) -> TaskVector:
    """Multiply all deltas by a finite scalar, keeping schema and provenance."""
    if not math.isfinite(factor):
        raise ValidationError(f"scale factor must be finite, got {factor!r}")

    def scale(row, delta_block):
        np.multiply(delta_block, row.dtype.type(factor), out=row, dtype=row.dtype)

    return TaskVector(deltas=_elementwise(scale, (tau.deltas,), _NON_FINITE_DELTA),
                      base_schema=tau.base_schema, provenance=tau.provenance)


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    """Square matrix of pairwise cosine similarities with row/column labels.

    Symmetric, unit diagonal, values clamped to [-1, 1]; undefined entries
    (zero-norm tensors in per-tensor mode) are NaN.
    """

    labels: tuple[str, ...]
    values: np.ndarray  # [n, n] float64


def similarity_matrix(
    labeled_vectors: Sequence[tuple[str, TaskVector]],
    granularity: str = "global",
) -> SimilarityMatrix | dict[str, SimilarityMatrix]:
    """Pairwise cosine similarities over a labeled list of task vectors.

    Returns one matrix for global granularity; for per_tensor granularity,
    a map from tensor name to its matrix.
    """
    if len(labeled_vectors) < 2:
        raise ValidationError("similarity matrix needs at least two task vectors")
    labels = tuple(label for label, _ in labeled_vectors)
    vectors = [vector for _, vector in labeled_vectors]
    n = len(vectors)
    if granularity == "global":
        values = np.eye(n, dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                values[i, j] = values[j, i] = cosine_similarity(vectors[i], vectors[j], "global")
        return SimilarityMatrix(labels=labels, values=values)
    if granularity != "per_tensor":
        raise ValidationError(f"granularity must be 'global' or 'per_tensor', got {granularity!r}")
    names = vectors[0].deltas.names()
    matrices = {name: np.eye(n, dtype=np.float64) for name in names}
    for i in range(n):
        for j in range(i + 1, n):
            per_tensor = cosine_similarity(vectors[i], vectors[j], "per_tensor")
            for name, value in per_tensor.items():
                cell = np.nan if value is None else value
                matrices[name][i, j] = matrices[name][j, i] = cell
    # A zero-norm tensor also has an undefined self-similarity.
    for name in names:
        for i, vector in enumerate(vectors):
            if not np.any(vector.deltas[name]):
                matrices[name][i, i] = np.nan
    return {name: SimilarityMatrix(labels=labels, values=m) for name, m in matrices.items()}


def save_task_vector(tau: TaskVector, path: str | Path) -> None:
    """Serialize a task vector to the checkpoint container format.

    Provenance and the base-schema fingerprint travel in ``__metadata__``
    under ``synvec.*`` keys; any reserved keys already present on the delta
    map are overwritten.
    """
    metadata = {k: v for k, v in tau.deltas.metadata.items() if k not in _RESERVED_KEYS}
    metadata[KIND_KEY] = TASK_VECTOR_KIND
    metadata[BASE_SCHEMA_KEY] = tau.base_schema.schema_hash
    prov = tau.provenance
    if prov.source_domain_label is not None:
        metadata[DOMAIN_KEY] = prov.source_domain_label
    if prov.real_condition_label is not None:
        metadata[REAL_LABEL_KEY] = prov.real_condition_label
    if prov.syn_condition_label is not None:
        metadata[SYN_LABEL_KEY] = prov.syn_condition_label
    if prov.created_from is not None:
        metadata[CREATED_FROM_KEY] = json.dumps(list(prov.created_from), separators=(",", ":"))
    write_checkpoint(tau.deltas.with_metadata(metadata), path)


def load_task_vector(path: str | Path) -> TaskVector:
    """Read a task vector container written by :func:`save_task_vector`."""
    tmap = read_checkpoint(path)
    metadata = tmap.metadata
    if metadata.get(KIND_KEY) != TASK_VECTOR_KIND:
        raise ValidationError(
            f"{path}: not a task vector container (missing {KIND_KEY}={TASK_VECTOR_KIND!r})"
        )
    recorded = metadata.get(BASE_SCHEMA_KEY)
    actual = schema_of(tmap).schema_hash
    if recorded != actual:
        raise FingerprintMismatchError(
            f"{path}: recorded base schema {str(recorded)[:12]}... does not match "
            f"the stored tensors ({actual[:12]}...)"
        )
    created_from = None
    if CREATED_FROM_KEY in metadata:
        try:
            pair = json.loads(metadata[CREATED_FROM_KEY])
            created_from = (str(pair[0]), str(pair[1]))
        except (ValueError, IndexError, TypeError):
            raise ValidationError(f"{path}: malformed {CREATED_FROM_KEY} metadata")
    provenance = Provenance(
        source_domain_label=metadata.get(DOMAIN_KEY),
        real_condition_label=metadata.get(REAL_LABEL_KEY),
        syn_condition_label=metadata.get(SYN_LABEL_KEY),
        created_from=created_from,
    )
    plain = {k: v for k, v in metadata.items() if k not in _RESERVED_KEYS}
    deltas = tmap.with_metadata(plain)  # keeps the mapping, so one scan serves every use
    return TaskVector(deltas=deltas, base_schema=Fingerprint(schema_hash=actual),
                      provenance=provenance)
