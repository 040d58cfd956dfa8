import os
from pathlib import Path

import numpy as np
import pytest

from synvec.tensor_store import Dtype, TensorMap, schema_of, write_checkpoint
from synvec.vector_ops import BASE_SCHEMA_KEY, KIND_KEY, TASK_VECTOR_KIND

DTYPES = (np.float16, np.float32, np.float64)

# pytest's pythonpath setting reaches this process only; the CLI runs and
# peak-RSS probes that tests start import synvec from the same tree.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def random_shape(rng, max_dims=3, max_side=8):
    ndim = int(rng.integers(0, max_dims + 1))
    return tuple(int(rng.integers(1, max_side + 1)) for _ in range(ndim))


def random_tensor_map(rng, max_tensors=6, max_side=8, dtypes=DTYPES, with_metadata=True):
    n = int(rng.integers(1, max_tensors + 1))
    entries = {}
    for i in range(n):
        dtype = dtypes[int(rng.integers(0, len(dtypes)))]
        shape = random_shape(rng, max_side=max_side)
        values = rng.standard_normal(shape)
        entries[f"tensor_{i:02d}.{'weight' if i % 2 else 'bias'}"] = values.astype(dtype)
    metadata = {}
    if with_metadata and rng.integers(0, 2):
        metadata = {"origin": "test", "run": str(int(rng.integers(0, 1000)))}
    return TensorMap(entries, metadata)


def random_map_pair(rng, max_tensors=6, max_side=8, dtypes=DTYPES, delta_scale=1e-2):
    """Two maps with one schema, like two fine-tunes of a shared parent."""
    base = random_tensor_map(rng, max_tensors=max_tensors, max_side=max_side, dtypes=dtypes,
                             with_metadata=False)
    a_entries, b_entries = {}, {}
    for name, arr in base.items():
        wide = arr.astype(np.float64)
        a_entries[name] = (wide + delta_scale * rng.standard_normal(arr.shape)).astype(arr.dtype)
        b_entries[name] = (wide + delta_scale * rng.standard_normal(arr.shape)).astype(arr.dtype)
    return TensorMap(a_entries), TensorMap(b_entries)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def write_merge_fixture(dtype):
    """Four real/synthetic pairs and a target in the working directory, in
    ``dtype``, with a tensor of more than one kernel block, a scalar and an
    empty tensor."""
    rng = np.random.default_rng(11)
    shapes = {"a.bias": (5,), "b.weight": (3, 7), "c.big": (40000,), "d.scalar": (),
              "e.empty": (0, 4)}
    base = {name: rng.standard_normal(shape) for name, shape in shapes.items()}

    def model(path, scale):
        write_checkpoint(TensorMap({name: (values + scale * rng.standard_normal(values.shape))
                                    .astype(dtype) for name, values in base.items()},
                                   {"origin": "fixture"}), path)
        return path

    pairs = [(model(f"real_{i}.st", 0.05), model(f"syn_{i}.st", 0.05)) for i in range(4)]
    return pairs, model("target.st", 0.1)


def write_task_vector_container(path, key, value):
    """A one-tensor task vector container at ``path`` whose metadata ``key``
    is set to ``value``."""
    deltas = TensorMap({"w": np.ones(2, np.float32)})
    metadata = {KIND_KEY: TASK_VECTOR_KIND, BASE_SCHEMA_KEY: schema_of(deltas).schema_hash}
    write_checkpoint(deltas.with_metadata({**metadata, key: value}), path)
    return path
