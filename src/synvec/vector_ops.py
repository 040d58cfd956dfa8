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

Five operations share one elementwise kernel: compute, apply, scale, the
ensemble mean, and the apply of an ensemble, which fuses the mean into the
apply block by block (see :func:`apply_ensemble`). Each tensor is processed
in blocks of ``tensor_store.BLOCK_ELEMENTS`` elements, widened into
compute-dtype scratch allocated once per call, operated on, narrowed
straight into the tensor's output and checked for NaN/inf while the block is
still in cache. It is the arithmetic's only finite check: a NaN or infinity
in an operand makes the output at its index non-finite, so the error path
can name that operand without a scan of the inputs. No operation produces a
non-finite value.

The kernel yields each output tensor as soon as it is finished. Without
``out``, they are collected into a map (scale takes no ``out``). With
``out=path``, each tensor is written to ``path`` as it is produced
(``tensor_store.write_checkpoint`` of a ``TensorStream``), so only one
output tensor is held at a time, and the result holds the written file,
mapped back. Either way the result records that it was checked, so writing
it, wrapping it in a :class:`TaskVector` or applying it again scans nothing.

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
from typing import Iterator, Sequence

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
    TensorStream,
    fingerprint,
    first_non_finite,
    non_finite_error,
    read_checkpoint,
    require_finite,
    schema_compatible,
    schema_of,
    write_and_map,
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
_NON_FINITE_VALUE = " tensor {name!r} has a non-finite value at flat index {index}"
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


def require_finite_real(value, what: str):
    """``value`` if it is a finite real number other than a bool; else a
    ValidationError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValidationError(f"{what} must be a finite real number, got {value!r}")
    return value


def _require_compatible(a: TensorMap, b: TensorMap) -> None:
    report = schema_compatible(a, b)
    if not report.ok:
        raise SchemaMismatchError(report)


class _NonFiniteStep(Exception):
    """Raised as ``_NonFiniteStep(message, index)`` by a kernel op whose
    intermediate block holds a NaN or infinity at ``index``."""


def _elementwise(op, operands: Sequence[tuple[str, TensorMap]],
                 message: str) -> Iterator[tuple[str, np.ndarray]]:
    """One blocked pass of ``op`` over schema-compatible (role, map) operands,
    yielding each finished tensor of the result as ``(name, values)`` in name
    order.

    For each tensor of the first map and each block of it, ``op(row,
    *blocks)`` returns the array that holds its result. ``row`` is a scratch
    row of the tensor's ``_COMPUTE_DTYPE``, or the output block itself when
    the storage dtype is the compute dtype. A result that is not the output
    block is narrowed (round to nearest even) into it. Each output block is
    checked at once. The first NaN or infinity raises ``NonFiniteValueError``
    naming the role of the first operand not finite at that index, or else
    (an overflow) with ``message``, formatted as in ``require_finite``. An op
    that checks a step of its own raises :class:`_NonFiniteStep` with the
    index in the block, which is reported the same way.
    """
    block = min(_largest_size(operands[0][1]), BLOCK_ELEMENTS)
    wide = np.empty(block, dtype=np.float64)  # rows for storage narrower than compute
    bits = np.empty(block, dtype=np.uint64)
    for tensors in zip(*(tmap.items() for _, tmap in operands)):
        name, arr = tensors[0]
        compute = _COMPUTE_DTYPE[Dtype.from_numpy(arr.dtype)]
        flats = [values.reshape(-1) for _, values in tensors]
        result = np.empty(arr.shape, dtype=arr.dtype)
        narrowed = result.reshape(-1)
        # An overflow is an infinity, which the check reports. The state is set per
        # tensor: set around the loop, it would reach the consumer across each yield.
        with np.errstate(over="ignore"):
            for start in range(0, arr.size, BLOCK_ELEMENTS):
                stop = min(start + BLOCK_ELEMENTS, arr.size)
                target = narrowed[start:stop]
                row = target if arr.dtype == compute else wide.view(compute)[: stop - start]
                try:
                    values = op(row, *(flat[start:stop] for flat in flats))
                except _NonFiniteStep as step:
                    message, index = step.args
                    raise non_finite_error(message, name, start + index) from None
                if values is not target:
                    np.copyto(target, values, casting="same_kind")
                index = first_non_finite(target, bits)
                if index is not None:
                    index += start
                    culprit = next((role for (role, _), flat in zip(operands, flats)
                                    if not math.isfinite(flat[index])), None)
                    raise non_finite_error(
                        message if culprit is None else culprit + _NON_FINITE_VALUE,
                        name, index)
        yield name, result


def _vector_result(layout: TensorMap, tensors: Iterator[tuple[str, np.ndarray]],
                   base_schema: Fingerprint, provenance: Provenance,
                   out: str | Path | None) -> TaskVector:
    """The task vector whose finite deltas ``tensors`` yields, with the names,
    dtypes, shapes and metadata of ``layout``. With ``out``, they are written
    there as :func:`save_task_vector` writes them, and the vector holds the
    map written (see :func:`~synvec.tensor_store.write_and_map`)."""
    if out is None:
        deltas = TensorStream(layout, tensors).collect()
    else:
        metadata = _container_metadata(layout.metadata, base_schema, provenance)
        written = write_and_map(TensorStream(layout.with_metadata(metadata), tensors), out)
        deltas = written.with_metadata(layout.metadata)
    return TaskVector(deltas=deltas, base_schema=base_schema, provenance=provenance)


def compute_task_vector(real: TensorMap, syn: TensorMap, provenance: Provenance | None = None,
                        *, out: str | Path | None = None) -> TaskVector:
    """Subtract two schema-compatible parameter sets: delta = real - syn.

    Differences are computed per tensor in the widened dtype and narrowed back
    to the storage dtype, so the output schema equals the input schema. A
    non-finite input value, or a difference that overflows, is an error naming
    the tensor and the first offending element.

    With ``out``, each delta tensor is written to that path as soon as it is
    computed, in the bytes :func:`save_task_vector` would write, and the
    returned vector's deltas are read-only views of the written file; only
    one output tensor is held at a time.
    """
    _require_compatible(real, syn)

    def subtract(row, real_block, syn_block):
        return np.subtract(real_block, syn_block, out=row, dtype=row.dtype)

    deltas = _elementwise(subtract, (("real model", real), ("synthetic model", syn)),
                          _NON_FINITE_DELTA)
    return _vector_result(real.with_metadata(None), deltas, fingerprint(real),
                          provenance or Provenance(), out)


def apply_task_vector(model: TensorMap, tau: TaskVector, lam: float, *,
                      out: str | Path | None = None) -> TensorMap:
    """Return model + lam * deltas, keeping the model's dtypes and metadata.

    lam == 0 is a bitwise no-op: without ``out``, the returned map shares the
    model's values, which are scanned for NaN/inf since no kernel runs. A
    non-finite model value or result (e.g. an F16 overflow after narrowing)
    is an error naming the tensor and the first offending element.

    With ``out``, each output tensor is written to that path as soon as it is
    computed, in the bytes :func:`~synvec.tensor_store.write_checkpoint`
    would write, and the returned map is a read-only view of the written
    file. A failure leaves ``out`` as it was.
    """
    require_finite_real(lam, "scaling factor")
    _require_compatible(model, tau.deltas)
    if lam == 0.0:
        require_finite(model, "model" + _NON_FINITE_VALUE)
        if out is None:
            return model.with_metadata(model.metadata)
        tensors = model.items()
    else:
        shift, message = _shift(lam)
        tensors = _elementwise(shift, (("model", model), ("task vector", tau.deltas)), message)
    stream = TensorStream(model, tensors)
    return stream.collect() if out is None else write_and_map(stream, out)


def _shift(lam: float):
    """The kernel op of model + lam * delta, and its overflow message."""
    def shift(row, model_block, delta_block):
        np.multiply(delta_block, row.dtype.type(lam), out=row, dtype=row.dtype)
        return np.add(model_block, row, out=row, dtype=row.dtype)

    return shift, (f"applying scale {lam} produced a non-finite value in tensor {{name!r}} "
                   "at flat index {index}")


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


def _shared_schema(vectors: Sequence[TaskVector]) -> Fingerprint:
    """The one base schema of a non-empty list of task vectors."""
    if not vectors:
        raise ValidationError("ensemble_average needs at least one task vector")
    hashes = {v.base_schema.schema_hash for v in vectors}
    if len(hashes) > 1:
        raise FingerprintMismatchError(
            f"task vectors come from {len(hashes)} different base schemas"
        )
    return Fingerprint(schema_hash=hashes.pop())


def _mean_op(k: int, block: int):
    """The kernel op of the mean of k task-vector blocks of at most ``block``
    elements (see :func:`ensemble_average`), returned in its own F64 scratch."""
    # One F64 row per addend plus one the network swaps through. The sum stays in
    # these rows: summing into the kernel's row measured slower (F32, k=4).
    scratch = np.empty((k + 1, block), dtype=np.float64)

    def mean(row, *blocks):
        rows = list(scratch[:, : row.size])
        for wide, values in zip(rows, blocks):
            wide[...] = values
        if blocks[0].dtype != np.float16 or k >= _F16_EXACT_MAX_K:
            for lo, hi in _batcher_network(k):
                np.minimum(rows[lo], rows[hi], out=rows[k])
                np.maximum(rows[lo], rows[hi], out=rows[hi])
                rows[lo], rows[k] = rows[k], rows[lo]
        total = np.add(rows[0], 0.0, out=rows[0])  # the +0.0 start
        for addend in rows[1:k]:
            np.add(total, addend, out=total)
        return np.divide(total, k, out=total)

    return mean


def ensemble_average(vectors: Sequence[TaskVector], *,
                     out: str | Path | None = None) -> TaskVector:
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
    Provenance records all constituent domains. ``out`` is as for
    :func:`compute_task_vector`.
    """
    base_schema = _shared_schema(vectors)
    if len(vectors) == 1:
        first = vectors[0]
        if out is None:
            return first
        return _vector_result(first.deltas, first.deltas.items(), first.base_schema,
                              first.provenance, out)
    mean = _mean_op(len(vectors), min(_largest_size(vectors[0].deltas), BLOCK_ELEMENTS))
    deltas = _elementwise(mean, [("task vector", v.deltas) for v in vectors], _NON_FINITE_DELTA)
    return _vector_result(vectors[0].deltas.with_metadata(None), deltas, base_schema,
                          _merged_provenance(vectors), out)


def apply_ensemble(model: TensorMap, vectors: Sequence[TaskVector], lam: float, *,
                   out: str | Path | None = None) -> TensorMap:
    """model + lam * (ensemble average of ``vectors``), bit-identical to
    ``apply_task_vector(model, ensemble_average(vectors), lam, out=out)``;
    ``out`` is as for :func:`apply_task_vector`.

    For k >= 2 vectors and lam != 0 it is one pass over the model and the
    vectors, and no mean tensor is held: each block's mean is taken as
    :func:`ensemble_average` takes it, narrowed into a block of the storage
    dtype, checked with that function's message, then shifted as
    :func:`apply_task_vector` shifts. Errors therefore come in pass order,
    tensor by tensor: where the shift of an earlier tensor fails (or meets a
    non-finite model value) and the F64 mean of a later one overflows, this
    reports the earlier tensor, where the mean computed first would report
    the later. lam == 0 and k == 1 run the composition itself: a shift at
    lam == 0 would turn the model's -0.0 entries into +0.0.
    """
    _shared_schema(vectors)  # the composition's checks, in its order
    require_finite_real(lam, "scaling factor")
    if len(vectors) == 1 or lam == 0:
        return apply_task_vector(model, ensemble_average(vectors), lam, out=out)
    _require_compatible(model, vectors[0].deltas)
    block = min(_largest_size(model), BLOCK_ELEMENTS)
    mean, (shift, message) = _mean_op(len(vectors), block), _shift(lam)
    narrowed = np.empty(block, dtype=np.float64)  # the mean in storage dtype, viewed per tensor
    bits = np.empty(block, dtype=np.uint64)

    def shift_by_mean(row, model_block, *blocks):
        delta = narrowed.view(model_block.dtype)[: row.size]
        np.copyto(delta, mean(row, *blocks), casting="same_kind")
        index = first_non_finite(delta, bits)
        if index is not None:
            raise _NonFiniteStep(_NON_FINITE_DELTA, index)
        return shift(row, model_block, delta)

    operands = [("model", model), *(("task vector", v.deltas) for v in vectors)]
    stream = TensorStream(model, _elementwise(shift_by_mean, operands, message))
    return stream.collect() if out is None else write_and_map(stream, out)


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

    def dot(x: np.ndarray, y: np.ndarray) -> float:
        wide = _widened(x, scratch)
        return float(np.sum(np.multiply(wide, y.reshape(-1), out=wide)))

    pairs = zip(a.deltas.items(), b.deltas.items())  # one pass over each map
    if granularity == "per_tensor":
        out: dict[str, float | None] = {}
        for (name, x), (_, y) in pairs:
            na, nb = sq_a[name], sq_b[name]
            if na == 0.0 or nb == 0.0:
                out[name] = None
            else:
                out[name] = float(np.clip(dot(x, y) / math.sqrt(na * nb), -1.0, 1.0))
        return out
    dot_total = norm_a = norm_b = 0.0
    for (name, x), (_, y) in pairs:
        dot_total += dot(x, y)
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
    require_finite_real(factor, "scale factor")

    def scale(row, delta_block):
        return np.multiply(delta_block, row.dtype.type(factor), out=row, dtype=row.dtype)

    deltas = _elementwise(scale, (("task vector", tau.deltas),), _NON_FINITE_DELTA)
    return _vector_result(tau.deltas.with_metadata(None), deltas, tau.base_schema,
                          tau.provenance, None)


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
    # A tensor whose squared sum is zero also has an undefined self-similarity.
    for name in names:
        for i, vector in enumerate(vectors):
            if vector._squared_sums[name] == 0.0:
                matrices[name][i, i] = np.nan
    return {name: SimilarityMatrix(labels=labels, values=m) for name, m in matrices.items()}


def save_task_vector(tau: TaskVector, path: str | Path) -> None:
    """Serialize a task vector to the checkpoint container format.

    Provenance and the base-schema fingerprint travel in ``__metadata__``
    under ``synvec.*`` keys; any reserved keys already present on the delta
    map are overwritten.
    """
    metadata = _container_metadata(tau.deltas.metadata, tau.base_schema, tau.provenance)
    write_checkpoint(tau.deltas.with_metadata(metadata), path)


def _container_metadata(plain: dict[str, str], base_schema: Fingerprint,
                        prov: Provenance) -> dict[str, str]:
    """The ``__metadata__`` of a task vector container: the deltas' own
    ``plain`` keys, then the reserved ``synvec.*`` keys."""
    metadata = {k: v for k, v in plain.items() if k not in _RESERVED_KEYS}
    metadata[KIND_KEY] = TASK_VECTOR_KIND
    metadata[BASE_SCHEMA_KEY] = base_schema.schema_hash
    if prov.source_domain_label is not None:
        metadata[DOMAIN_KEY] = prov.source_domain_label
    if prov.real_condition_label is not None:
        metadata[REAL_LABEL_KEY] = prov.real_condition_label
    if prov.syn_condition_label is not None:
        metadata[SYN_LABEL_KEY] = prov.syn_condition_label
    if prov.created_from is not None:
        metadata[CREATED_FROM_KEY] = json.dumps(list(prov.created_from), separators=(",", ":"))
    return metadata


def load_task_vector(path: str | Path) -> TaskVector:
    """Read a task vector container written by :func:`save_task_vector`."""
    return _task_vector_from_map(read_checkpoint(path), path)


def _task_vector_from_map(tmap: TensorMap, path: str | Path) -> TaskVector:
    """The task vector held by ``tmap``, the map read from the container at ``path``."""
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
