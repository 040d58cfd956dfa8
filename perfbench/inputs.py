"""Seeded benchmark inputs and a minimal reader/writer for the checkpoint container.

The container is the safetensors-style layout the program reads: an 8-byte
little-endian header length, a compact JSON header (``__metadata__`` first,
then tensors in name order), then the raw little-endian tensor data. The
benchmark writes its inputs and reads the program's outputs with this module
alone, so neither the inputs nor the checks depend on the code under test.

Every value is a function of the workload seed. Random draws come from one
pool of normals per seed; each tensor of each file takes a window of that
pool at an offset seeded by (seed, role, tensor), which keeps generation far
cheaper than the commands it feeds while the files keep realistic
magnitudes. Files are written one tensor at a time, so generating them needs
memory for a few tensors, not for whole checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import mmap
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_DTYPE_NAME = {np.dtype("<f2"): "F16", np.dtype("<f4"): "F32", np.dtype("<f8"): "F64"}
_NUMPY_DTYPE = {name: dt for dt, name in _DTYPE_NAME.items()}

# Task-vector metadata keys, as the program's task-vector containers carry them.
KIND_KEY = "synvec.kind"
BASE_SCHEMA_KEY = "synvec.base_schema"
DOMAIN_KEY = "synvec.domain"
REAL_LABEL_KEY = "synvec.real_label"
SYN_LABEL_KEY = "synvec.syn_label"

DELTA_SCALE = 1e-3  # size of a fine-tuning delta
FINAL_NORM = "final_norm.weight"
# The sweep evaluator scores |mean(final_norm.weight) - 1|: the target sits
# TARGET_NORM_OFFSET below 1 and every domain vector carries SHIFT_NORM_MEAN,
# so WER is lowest near lambda = TARGET_NORM_OFFSET / SHIFT_NORM_MEAN = 0.4 (the
# parent's own noise moves the minimum by about 0.1).
TARGET_NORM_OFFSET = 0.004
SHIFT_NORM_MEAN = 0.01


@dataclass(frozen=True)
class Layout:
    """A transformer-shaped tensor layout: embedding, blocks, final norm."""

    vocab: int
    blocks: int
    dim: int = 768
    ff: int = 3072

    def shapes(self) -> dict[str, tuple[int, ...]]:
        d, f = self.dim, self.ff
        shapes: dict[str, tuple[int, ...]] = {"embed.weight": (self.vocab, d)}
        for b in range(self.blocks):
            p = f"blocks.{b}."
            for proj in ("q", "k", "v", "o"):
                shapes[p + f"attn.{proj}.weight"] = (d, d)
                shapes[p + f"attn.{proj}.bias"] = (d,)
            shapes[p + "ff.up.weight"] = (f, d)
            shapes[p + "ff.up.bias"] = (f,)
            shapes[p + "ff.down.weight"] = (d, f)
            shapes[p + "ff.down.bias"] = (d,)
            for norm in ("norm1", "norm2"):
                shapes[p + f"{norm}.weight"] = (d,)
                shapes[p + f"{norm}.bias"] = (d,)
        shapes[FINAL_NORM] = (d,)
        shapes["final_norm.bias"] = (d,)
        return dict(sorted(shapes.items()))

    def num_params(self) -> int:
        return sum(int(np.prod(s)) for s in self.shapes().values())


MERGE_LAYOUT = Layout(vocab=8192, blocks=6)  # 99 tensors, 48,820,224 params
SWEEP_LAYOUT = Layout(vocab=4096, blocks=2)  # 35 tensors, 17,323,008 params


# ---------------------------------------------------------------- container


def schema_hash(entries) -> str:
    """The program's schema digest: sha256 of the sorted [name, dtype, shape] list."""
    listing = [[name, dtype, list(shape)] for name, dtype, shape in sorted(entries)]
    text = json.dumps(listing, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_container(path: Path, dtype: str, shapes: dict[str, tuple[int, ...]], make,
                    metadata: dict[str, str] | None = None) -> int:
    """Write a canonical container whose tensor ``name`` is ``make(name)``
    stored as ``dtype``, producing one tensor at a time; return the file size."""
    np_dtype = _NUMPY_DTYPE[dtype]
    header: dict[str, object] = {}
    if metadata:
        header["__metadata__"] = dict(sorted(metadata.items()))
    offset = 0
    names = sorted(shapes)
    for name in names:
        nbytes = int(np.prod(shapes[name])) * np_dtype.itemsize
        header[name] = {"dtype": dtype, "shape": list(shapes[name]),
                        "data_offsets": [offset, offset + nbytes]}
        offset += nbytes
    blob = json.dumps(header, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(len(blob).to_bytes(8, "little"))
        handle.write(blob)
        for name in names:
            arr = np.ascontiguousarray(make(name).astype(np_dtype, copy=False))
            handle.write(memoryview(arr).cast("B"))
    return 8 + len(blob) + offset


class Container:
    """A read-only memory-mapped view of one container file.

    The map closes when the container and every array taken from it are gone.
    """

    def __init__(self, path: Path):
        with open(path, "rb") as handle:
            header_len = int.from_bytes(handle.read(8), "little")
            header = json.loads(handle.read(header_len).decode("utf-8"))
            self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self.metadata: dict[str, str] = header.pop("__metadata__", {})
        self.data_start = 8 + header_len
        self.entries = header

    def names(self) -> list[str]:
        return sorted(self.entries)

    def tensor(self, name: str) -> np.ndarray:
        entry = self.entries[name]
        begin, end = entry["data_offsets"]
        dtype = _NUMPY_DTYPE[entry["dtype"]]
        flat = np.frombuffer(self._map, dtype=dtype, count=(end - begin) // dtype.itemsize,
                             offset=self.data_start + begin)
        return flat.reshape(entry["shape"])

    def schema_hash(self) -> str:
        return schema_hash((name, entry["dtype"], entry["shape"])
                           for name, entry in self.entries.items())

    def data_sha256(self) -> str:
        """Digest of the data section, i.e. of all tensors' bytes in layout order."""
        return hashlib.sha256(memoryview(self._map)[self.data_start:]).hexdigest()


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 24), b""):
            digest.update(block)
    return digest.hexdigest()


# --------------------------------------------------------------- generation


# Roles of the seeded windows; a domain's real and synthetic deltas follow.
_PARENT, _SHIFT, _TARGET, _FIRST_DOMAIN = 0, 1, 2, 3


class Generator:
    """Seeded tensors of one parent model and of the files derived from it.

    Each (role, tensor) takes its own window of a shared pool of normals, at
    an offset drawn from a stream seeded by (seed, role, tensor index), so any
    tensor of any file can be produced alone and in any order.
    """

    def __init__(self, layout: Layout, seed: int):
        self.shapes = layout.shapes()
        self._index = {name: i for i, name in enumerate(self.shapes)}
        self._seed = seed
        largest = max(int(np.prod(s)) for s in self.shapes.values())
        rng = np.random.default_rng([seed, layout.vocab, layout.blocks])
        self._pool = rng.standard_normal(2 * largest, dtype=np.float32)
        self._span = largest

    def _window(self, role: int, name: str, scale: float) -> np.ndarray:
        shape = self.shapes[name]
        start = int(np.random.default_rng([self._seed, role, self._index[name]])
                    .integers(0, self._span))
        return (self._pool[start:start + int(np.prod(shape))] * np.float32(scale)).reshape(shape)

    def parent(self, name: str) -> np.ndarray:
        arr = self._window(_PARENT, name, 0.02)
        if name.endswith(("norm1.weight", "norm2.weight")) or name == FINAL_NORM:
            arr += np.float32(1.0)
        return arr

    def shift(self, name: str) -> np.ndarray:
        """The real-vs-synthetic shift that every domain's real model carries."""
        arr = self._window(_SHIFT, name, DELTA_SCALE)
        if name == FINAL_NORM:
            arr += np.float32(SHIFT_NORM_MEAN)
        return arr

    def _delta(self, domain: int, real: bool, name: str) -> np.ndarray:
        return self._window(_FIRST_DOMAIN + 2 * domain + (0 if real else 1), name, DELTA_SCALE)

    def target(self, name: str) -> np.ndarray:
        arr = self.parent(name)
        arr += self._window(_TARGET, name, DELTA_SCALE)
        if name == FINAL_NORM:
            arr -= np.float32(TARGET_NORM_OFFSET)
        return arr

    def real(self, domain: int, name: str) -> np.ndarray:
        arr = self.parent(name)
        arr += self._delta(domain, True, name)
        arr += self.shift(name)
        return arr

    def syn(self, domain: int, name: str) -> np.ndarray:
        arr = self.parent(name)
        arr += self._delta(domain, False, name)
        return arr

    def task_vector(self, domain: int, name: str) -> np.ndarray:
        """Real delta plus shift minus synthetic delta, drawn directly in F32."""
        arr = self._delta(domain, True, name)
        arr += self.shift(name)
        arr -= self._delta(domain, False, name)
        return arr


def task_vector_metadata(dtype: str, shapes: dict[str, tuple[int, ...]],
                         domain: str) -> dict[str, str]:
    return {
        KIND_KEY: "task_vector",
        BASE_SCHEMA_KEY: schema_hash((name, dtype, shape) for name, shape in shapes.items()),
        DOMAIN_KEY: domain,
        REAL_LABEL_KEY: "human",
        SYN_LABEL_KEY: "tts",
    }


def generate(work: Path, layout: Layout, dtype: str, seed: int, *, pairs: tuple[int, ...],
             vectors: tuple[int, ...]) -> dict[str, int]:
    """Write the seeded inputs of one workload into ``work``.

    Files: ``target.st`` (the synthetic fine-tune of the target domain),
    ``real_<i>.st`` / ``syn_<i>.st`` for each domain in ``pairs``, and
    ``tau_<i>.st`` (a ready task vector) for each domain in ``vectors``.
    Models derive from one parent with deltas of about DELTA_SCALE; every
    domain's real model carries the same real-vs-synthetic shift, which is
    therefore also the common part of every task vector. Everything is
    computed in F32 and stored as ``dtype``. Returns the bytes per file.
    """
    gen = Generator(layout, seed)
    sizes = {}

    def write(filename: str, make, metadata: dict[str, str] | None = None) -> None:
        sizes[filename] = write_container(work / filename, dtype, gen.shapes, make, metadata)

    write("target.st", gen.target)
    for i in pairs:
        write(f"real_{i}.st", lambda name: gen.real(i, name))
        write(f"syn_{i}.st", lambda name: gen.syn(i, name))
    for i in vectors:
        write(f"tau_{i}.st", lambda name: gen.task_vector(i, name),
              task_vector_metadata(dtype, gen.shapes, f"domain{i}"))
    return sizes


# ------------------------------------------------ reference arithmetic (numpy)
#
# The program's numerics contract, written out plainly: widen F16/F32 to F32
# (F64 stays F64), compute, narrow back with round-to-nearest-even; reductions
# accumulate in F64 in a fixed order.


def _compute_dtype(dtype: np.dtype) -> type:
    return np.float64 if dtype == np.float64 else np.float32


def widened_sub(real: np.ndarray, syn: np.ndarray) -> np.ndarray:
    compute = _compute_dtype(real.dtype)
    return (real.astype(compute) - syn.astype(compute)).astype(real.dtype)


def widened_apply(model: np.ndarray, delta: np.ndarray, lam: float) -> np.ndarray:
    if lam == 0:  # a bitwise no-op by contract; widening would turn -0.0 + 0.0 into +0.0
        return model
    compute = _compute_dtype(model.dtype)
    with np.errstate(over="ignore"):
        return (model.astype(compute) + compute(lam) * delta.astype(compute)).astype(model.dtype)


def sorted_mean(deltas: list[np.ndarray]) -> np.ndarray:
    """Per-element mean of k tensors: sort the k addends, sum in F64, divide."""
    stacked = np.stack([d.reshape(-1).astype(np.float64) for d in deltas])
    stacked.sort(axis=0)
    return (stacked.sum(axis=0) / len(deltas)).reshape(deltas[0].shape).astype(deltas[0].dtype)
