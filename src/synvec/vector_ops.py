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

Four operations share one elementwise kernel: compute, apply, scale and the
ensemble mean; applying an ensemble runs apply's pass over the model and the
mean, read as a stream, so a window's mean is checked before it is shifted
(see :func:`apply_ensemble`). Each tensor is processed leaf by leaf
(``tensor_store.leaves``, at most ``tensor_store.BLOCK_ELEMENTS`` elements
each), widened into compute-dtype scratch allocated once per call, operated
on, narrowed into a reused output window and checked for NaN/inf while the
leaf is still in cache. It is the arithmetic's finite check: a NaN or
infinity in an operand makes the output at its index non-finite, so the
error path can name that operand without a scan of the inputs. No operation
produces a non-finite value. A :class:`TaskVector`'s deltas are likewise
checked where they are read, not when the vector is built: by the kernel,
by a reduction whose per-tensor sum is not finite (only then is the vector
scanned, to name the tensor and index), and by a scan where an operation
reads none of its values (apply at lam == 0, the mean of one vector written
to ``out``, a save).

The kernel and the reductions run on the one pass of ``tensor_store``
(``_aligned``): per tensor, the aligned window of every operand, a map's
read from its file and a stream's its next item, with the window's leaves.
The kernel yields the output a window at a time. Without ``out``, the
windows are collected into one array per tensor (scale takes no ``out``).
With ``out=path``, each window is written to ``path`` as it is produced
(``tensor_store.write_checkpoint`` of a ``TensorStream``), so about a window
per operand and one output window are held at a time, and the result holds
the written file, read back. Either way the result records
that it was checked, so writing it or applying it again scans nothing. A
task vector written with ``out`` also gets its norms from the stream, so
printing them reads none of the file.

Dot products, squared norms and absolute sums are taken per leaf: each leaf
is widened exactly to F64 in one leaf-sized scratch and summed with
``np.sum``, and the leaf sums are added up numpy's pairwise split tree
(``tensor_store.add_up``). That has the bits of ``np.sum`` over the whole
widened tensor, so the reduction order is numpy's; each vector's squared
sums are computed once and cached.
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
    RELEASE_BYTES,
    Dtype,
    Fingerprint,
    TensorMap,
    TensorStream,
    _aligned,
    add_up,
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
    """A schema-shaped set of finite parameter deltas plus provenance.

    Construction checks the schema only. The deltas must be finite, and that
    is checked where their values are first read, so building a vector reads
    none of them: the first operation that reads a NaN or infinity raises
    ``NonFiniteValueError`` ("task vector tensor ... has a non-finite delta
    at flat index ...", the first such tensor and index). The kernel checks
    what it computes, reductions check their per-tensor sums, and the
    operations that read no value of a vector (``apply`` at lam == 0, the
    mean of one vector written to ``out``, :func:`save_task_vector`) scan it.
    With several bad inputs, the one named is the first the operation reads.
    """

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

    @functools.cached_property
    def _squared_sums(self) -> dict[str, float]:
        """Per-tensor F64 sums of squared deltas, computed once per vector."""
        squared = {name: add_up(size, sums)
                   for name, size, sums in _per_leaf([self.deltas], _leaf_squares)}
        self._check_sums(squared.values())
        return squared

    @functools.cached_property
    def _norms(self) -> dict[str, tuple[float, float, float]]:
        """Per-tensor F64 (sum of squares, sum of absolute values, largest
        absolute value) of the deltas, computed once per vector, or on the
        stream that wrote them."""
        norms = {name: _tensor_norms(size, leaf_norms)
                 for name, size, leaf_norms in _per_leaf([self.deltas], _leaf_norms)}
        self._check_sums(n[0] for n in norms.values())
        return norms

    def _check_sums(self, squared_sums) -> None:
        """The finite check of a reduction over the deltas: a NaN or infinity
        makes its tensor's squared sum non-finite, so the deltas are scanned,
        to name it, only when a sum is. A sum that overflows over finite F64
        deltas is no error: the scan finds nothing."""
        if not all(map(math.isfinite, squared_sums)):
            require_finite(self.deltas, _NON_FINITE_DELTA)


def _per_leaf(maps: Sequence[TensorMap], reduce) -> Iterator[tuple[str, int, list]]:
    """One pass over schema-compatible maps (``tensor_store._aligned``): per
    tensor in name order, ``(name, size, results)`` with ``reduce(scratch,
    *blocks)`` of each leaf, where ``scratch`` is an F64 array of the leaf's size."""
    scratch = np.empty(BLOCK_ELEMENTS, dtype=np.float64)
    for name, entry, tensor_windows in _aligned(maps):
        yield name, entry.size, [reduce(scratch[: stop - start],
                                        *[block[start - begin : stop - begin] for block in blocks])
                                 for begin, _, leaves, blocks in tensor_windows
                                 for start, stop in leaves]


# Leaf reductions. Widening to F64 is exact, and np.add.reduce is what np.sum
# calls, so each has the bits of np.sum over the leaf's ``astype(np.float64)``.
def _leaf_squares(wide, x) -> float:
    np.copyto(wide, x)
    return float(np.add.reduce(np.square(wide, out=wide)))


def _leaf_products(wide, x, y) -> float:
    np.copyto(wide, x)
    return float(np.add.reduce(np.multiply(wide, y, out=wide)))


def _leaf_norms(wide, x) -> tuple[float, float, float]:
    """(sum of squares, sum of absolute values, largest absolute value)."""
    np.abs(x, out=wide)
    abs_sum, top = float(np.add.reduce(wide)), float(np.maximum.reduce(wide))
    return float(np.add.reduce(np.square(wide, out=wide))), abs_sum, top


def _tensor_norms(size: int, leaf_norms: list) -> tuple[float, float, float]:
    """A tensor's :func:`_leaf_norms` from those of its leaves."""
    return (add_up(size, [norms[0] for norms in leaf_norms]),
            add_up(size, [norms[1] for norms in leaf_norms]),
            max((norms[2] for norms in leaf_norms), default=0.0))


def require_finite_real(value, what: str):
    """``value`` if it is a finite real number other than a bool; else a
    ValidationError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValidationError(f"{what} must be a finite real number, got {value!r}")
    return value


def require_count(value, what: str, low: int):
    """``value`` if it is an integer other than a bool, of at least ``low``;
    else a ValidationError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValidationError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _require_compatible(a: TensorMap, b: TensorMap) -> None:
    report = schema_compatible(a, b)
    if not report.ok:
        raise SchemaMismatchError(report)


def _elementwise(op, operands: Sequence[tuple[str, TensorMap | TensorStream]], message: str,
                 norms: dict | None = None) -> Iterator[tuple[str, np.ndarray]]:
    """One pass of ``op`` over schema-compatible (role, map or stream)
    operands, the first a map, yielding the result a window at a time as
    ``(name, values)`` in name order (a ``TensorStream``'s items; ``values``
    is reused for the next). Each operand is read as a stream, in step: its
    windows depend only on each tensor's size and itemsize, so they line up.
    For each tensor of the first map and each leaf of it, ``op(row,
    *blocks)`` returns the array that holds its result. ``row`` is a scratch
    row of the tensor's ``_COMPUTE_DTYPE``, or the output leaf itself when
    the storage dtype is the compute dtype. A result that is not the output
    leaf is narrowed (round to nearest even) into it. Each output leaf is
    checked at once: the first NaN or infinity raises
    ``NonFiniteValueError`` naming the role of the first operand not finite
    there (a "task vector" with the text of a non-finite delta), or else (an
    overflow) with ``message``, formatted as in ``require_finite``.

    With ``norms``, a dict, each output leaf's :func:`_leaf_norms` are taken
    while it is in cache, and each tensor's go into ``norms`` under its name
    once its last window has been consumed.
    """
    wide = np.empty(BLOCK_ELEMENTS, dtype=np.float64)  # rows for storage narrower than compute
    bits = np.empty(BLOCK_ELEMENTS, dtype=np.uint64)
    # One window of output, viewed as each tensor's dtype in turn.
    window = np.empty(RELEASE_BYTES // 8, dtype=np.float64)
    for name, arr, tensor_windows in _aligned([operand for _, operand in operands]):
        compute = _COMPUTE_DTYPE[Dtype.from_numpy(arr.dtype)]
        narrowed, rows = window.view(arr.dtype), wide.view(compute)
        leaf_norms = []
        for begin, end, leaves, blocks in tensor_windows:
            # An overflow is an infinity, which the check reports. The state is set per
            # window: set around the loop, it would reach the consumer across each yield.
            with np.errstate(over="ignore"):
                for start, stop in leaves:
                    target = narrowed[start - begin : stop - begin]
                    row = target if arr.dtype == compute else rows[: stop - start]
                    values = op(row, *[b[start - begin : stop - begin] for b in blocks])
                    if values is not target:
                        np.copyto(target, values, casting="same_kind")
                    index = first_non_finite(target, bits)
                    if index is not None:
                        index += start - begin
                        culprit = next((role for (role, _), b in zip(operands, blocks)
                                        if not math.isfinite(b[index])), None)
                        if culprit == "task vector":
                            message = _NON_FINITE_DELTA
                        elif culprit is not None:
                            message = culprit + _NON_FINITE_VALUE
                        raise non_finite_error(message, name, begin + index)
                    if norms is not None:  # the row is free once narrowed
                        leaf_norms.append(_leaf_norms(wide[: stop - start], target))
            yield name, narrowed[: end - begin]
        if norms is not None:
            norms[name] = _tensor_norms(arr.size, leaf_norms)


def _vector_result(stream: TensorStream, base_schema: Fingerprint, provenance: Provenance,
                   out: str | Path | None, norms: dict | None = None) -> TaskVector:
    """The task vector whose finite deltas ``stream`` yields. With ``out``,
    they are written there as :func:`save_task_vector` writes them, and the
    vector holds the map written; without, the map collected (see
    :func:`~synvec.tensor_store.write_and_map`). ``norms``, filled by the
    stream's kernel as it runs, become the vector's cached norms."""
    layout = stream.layout
    metadata = _container_metadata(layout.metadata, base_schema, provenance)
    written = write_and_map(TensorStream(layout.with_metadata(metadata), stream.tensors), out)
    vector = TaskVector(deltas=written.with_metadata(layout.metadata), base_schema=base_schema,
                        provenance=provenance)
    if norms is not None:
        vector.__dict__.update(_norms=norms,
                               _squared_sums={name: n[0] for name, n in norms.items()})
    return vector


def compute_task_vector(real: TensorMap, syn: TensorMap, provenance: Provenance | None = None,
                        *, out: str | Path | None = None) -> TaskVector:
    """Subtract two schema-compatible parameter sets: delta = real - syn.

    Differences are computed per tensor in the widened dtype and narrowed back
    to the storage dtype, so the output schema equals the input schema. A
    non-finite input value, or a difference that overflows, is an error naming
    the tensor and the first offending element.

    With ``out``, the deltas are written to that path a window at a time as
    they are computed, in the bytes :func:`save_task_vector` would write, and
    the returned vector's deltas are read from the written file when used,
    and its norms were taken on the way (:func:`norm_stats` reads none of it).
    """
    _require_compatible(real, syn)

    def subtract(row, real_block, syn_block):
        return np.subtract(real_block, syn_block, out=row, dtype=row.dtype)

    norms = None if out is None else {}
    deltas = _elementwise(subtract, (("real model", real), ("synthetic model", syn)),
                          _NON_FINITE_DELTA, norms)
    return _vector_result(TensorStream(real.with_metadata(None), deltas), fingerprint(real),
                          provenance or Provenance(), out, norms)


def apply_task_vector(model: TensorMap, tau: TaskVector, lam: float, *,
                      out: str | Path | None = None) -> TensorMap:
    """Return model + lam * deltas, keeping the model's dtypes and metadata.

    Every lam runs the kernel, so the result is a copy; lam == 0 copies the
    model bit for bit. A non-finite model value or result (e.g. an F16
    overflow after narrowing) is an error naming the tensor and the first
    offending element.

    With ``out``, the output is written to that path a window at a time as
    it is computed, in the bytes :func:`~synvec.tensor_store.write_checkpoint`
    would write, and the returned map reads its values from the written
    file. A failure leaves ``out`` as it was.
    """
    require_finite_real(lam, "scaling factor")
    _require_compatible(model, tau.deltas)
    return _apply(model, tau.deltas, lam, out)


def _apply(model: TensorMap, deltas: TensorMap | TensorStream, lam: float,
           out: str | Path | None) -> TensorMap:
    """The pass of model + lam * deltas shared by :func:`apply_task_vector`
    and :func:`apply_ensemble`. At lam == 0 its op gives back the model
    block, whose -0.0 entries adding 0 * delta would turn into +0.0; so the
    output does not see the deltas: a map of them is scanned, not read by the
    pass (a stream is a kernel's output, checked as the pass drains it)."""
    operands = [("model", model), ("task vector", deltas)]
    if lam == 0 and isinstance(deltas, TensorMap):
        require_finite(deltas, _NON_FINITE_DELTA)
        operands.pop()

    def shift(row, model_block, delta_block=None):
        if lam == 0:
            return model_block
        np.multiply(delta_block, row.dtype.type(lam), out=row, dtype=row.dtype)
        return np.add(model_block, row, out=row, dtype=row.dtype)

    message = (f"applying scale {lam} produced a non-finite value in tensor {{name!r}} "
               "at flat index {index}")
    stream = TensorStream(model, _elementwise(shift, operands, message))
    return write_and_map(stream, out)


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


def _mean_op(k: int):
    """The kernel op of the mean of k task-vector blocks (see
    :func:`ensemble_average`), returned in its own F64 scratch."""
    # One F64 row per addend plus one the network swaps through. The sum stays in
    # these rows: summing into the kernel's row measured slower (F32, k=4).
    scratch = np.empty((k + 1, BLOCK_ELEMENTS), dtype=np.float64)

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


def _mean_stream(vectors: Sequence[TaskVector], norms: dict | None = None) -> TensorStream:
    """The checked mean of k >= 2 task vectors (see :func:`ensemble_average`),
    a window at a time; ``norms`` is as for :func:`_elementwise`."""
    mean = _mean_op(len(vectors))
    return TensorStream(vectors[0].deltas.with_metadata(None), _elementwise(
        mean, [("task vector", v.deltas) for v in vectors], _NON_FINITE_DELTA, norms))


def ensemble_average(vectors: Sequence[TaskVector], *, out: str | Path | None = None,
                     norms: bool = True) -> TaskVector:
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
    :func:`compute_task_vector`; with ``norms=False`` the norms are not taken
    on the way, which saves their widening pass when no one prints them.
    """
    base_schema = _shared_schema(vectors)
    if len(vectors) == 1:
        first = vectors[0]
        if out is None:
            return first
        require_finite(first.deltas, _NON_FINITE_DELTA)  # a map's stream is taken as finite
        return _vector_result(TensorStream.of(first.deltas), first.base_schema,
                              first.provenance, out)
    stream_norms = {} if out is not None and norms else None
    return _vector_result(_mean_stream(vectors, stream_norms), base_schema,
                          _merged_provenance(vectors), out, stream_norms)


def apply_ensemble(model: TensorMap, vectors: Sequence[TaskVector], lam: float, *,
                   out: str | Path | None = None) -> TensorMap:
    """model + lam * (ensemble average of ``vectors``), bit-identical to
    ``apply_task_vector(model, ensemble_average(vectors), lam, out=out)``;
    ``out`` is as for :func:`apply_task_vector`.

    One vector is applied with :func:`apply_task_vector`. For k >= 2 this is
    that function's pass over the model and :func:`ensemble_average`'s mean
    as a stream, so no mean tensor is held, and errors come in pass order:
    each window of the mean is checked before it is shifted. Where the shift
    of an earlier tensor fails (or meets a non-finite model value) and the
    F64 mean of a later one overflows, this reports the earlier tensor, where
    the mean computed first would report the later; within one window
    (about 512 KiB) of one tensor, it reports the mean.
    """
    _shared_schema(vectors)  # the composition's checks, in its order
    require_finite_real(lam, "scaling factor")
    if len(vectors) == 1:
        return apply_task_vector(model, vectors[0], lam, out=out)
    _require_compatible(model, vectors[0].deltas)
    return _apply(model, _mean_stream(vectors), lam, out)


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
    dots = {name: add_up(size, sums)  # one walk over both maps
            for name, size, sums in _per_leaf([a.deltas, b.deltas], _leaf_products)}
    if granularity == "per_tensor":
        return {name: _cosine(dot, sq_a[name], sq_b[name]) for name, dot in dots.items()}
    dot_total = norm_a = norm_b = 0.0
    for name, dot in dots.items():
        dot_total += dot
        norm_a += sq_a[name]
        norm_b += sq_b[name]
    value = _cosine(dot_total, norm_a, norm_b)
    if value is None:
        raise ZeroNormError("global cosine similarity is undefined for a zero-norm task vector")
    return value


def _cosine(dot: float, sq_a: float, sq_b: float) -> float | None:
    """``dot / (|a| |b|)`` clamped to [-1, 1] from a dot product and two
    squared sums, or None (undefined) when either norm is zero."""
    if sq_a == 0.0 or sq_b == 0.0:
        return None
    return float(np.clip(dot / math.sqrt(sq_a * sq_b), -1.0, 1.0))


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
    def stats(sq: float, abs_sum: float, top: float, size: int) -> TensorStats:
        return TensorStats(l2_norm=math.sqrt(sq), max_abs=top,
                           mean_abs=abs_sum / size if size else 0.0, num_elements=size)

    rows = {name: (*norms, tau.deltas._entries[name].size) for name, norms in tau._norms.items()}
    sq_total = abs_total = max_total = 0.0
    n_total = 0
    for sq, abs_sum, top, size in rows.values():
        sq_total, abs_total, n_total = sq_total + sq, abs_total + abs_sum, n_total + size
        max_total = max(max_total, top)
    return NormReport(per_tensor={name: stats(*row) for name, row in rows.items()},
                      total=stats(sq_total, abs_total, max_total, n_total))


def scale_task_vector(tau: TaskVector, factor: float) -> TaskVector:
    """Multiply all deltas by a finite scalar, keeping schema and provenance."""
    require_finite_real(factor, "scale factor")

    def scale(row, delta_block):
        return np.multiply(delta_block, row.dtype.type(factor), out=row, dtype=row.dtype)

    deltas = _elementwise(scale, (("task vector", tau.deltas),), _NON_FINITE_DELTA)
    return _vector_result(TensorStream(tau.deltas.with_metadata(None), deltas), tau.base_schema,
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
    pairs = {(i, j): cosine_similarity(vectors[i], vectors[j], granularity)
             for i in range(n) for j in range(i + 1, n)}

    def matrix(diagonal: list[float], cells: dict) -> SimilarityMatrix:
        """The symmetric matrix with ``diagonal`` and ``cells[(i, j)]`` (None: NaN) off it."""
        values = np.diag(np.array(diagonal, dtype=np.float64))
        for (i, j), value in cells.items():
            values[i, j] = values[j, i] = np.nan if value is None else value
        return SimilarityMatrix(labels=labels, values=values)

    if granularity == "global":
        return matrix([1.0] * n, pairs)
    # A tensor whose squared sum is zero also has an undefined self-similarity.
    return {name: matrix([np.nan if v._squared_sums[name] == 0.0 else 1.0 for v in vectors],
                         {pair: per_tensor[name] for pair, per_tensor in pairs.items()})
            for name in vectors[0].deltas.names()}


def save_task_vector(tau: TaskVector, path: str | Path) -> None:
    """Serialize a task vector to the checkpoint container format.

    Provenance and the base-schema fingerprint travel in ``__metadata__``
    under ``synvec.*`` keys; any reserved keys already present on the delta
    map are overwritten.
    """
    metadata = _container_metadata(tau.deltas.metadata, tau.base_schema, tau.provenance)
    require_finite(tau.deltas, _NON_FINITE_DELTA)
    write_checkpoint(TensorStream.of(tau.deltas.with_metadata(metadata)), path)


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
        except ValueError:
            pair = None
        if not (isinstance(pair, list) and len(pair) == 2):  # as _container_metadata writes it
            raise ValidationError(f"{path}: malformed {CREATED_FROM_KEY} metadata")
        created_from = (str(pair[0]), str(pair[1]))
    provenance = Provenance(
        source_domain_label=metadata.get(DOMAIN_KEY),
        real_condition_label=metadata.get(REAL_LABEL_KEY),
        syn_condition_label=metadata.get(SYN_LABEL_KEY),
        created_from=created_from,
    )
    plain = {k: v for k, v in metadata.items() if k not in _RESERVED_KEYS}
    deltas = tmap.with_metadata(plain)  # keeps the file, so one scan serves every use
    return TaskVector(deltas=deltas, base_schema=Fingerprint(schema_hash=actual),
                      provenance=provenance)
