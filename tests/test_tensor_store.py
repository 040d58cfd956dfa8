"""Container format: round-trips, canonical bytes, malformed-file errors."""

import hashlib
import json
import mmap
import os
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synvec.errors import (
    ByteRangeError,
    ContainerError,
    InvalidHeaderError,
    NonFiniteValueError,
    SynvecError,
    TruncatedDataError,
    UnknownDtypeError,
    ValidationError,
)
from synvec import tensor_store
from synvec.tensor_store import (
    BLOCK_ELEMENTS,
    RELEASE_BYTES,
    Dtype,
    TensorMap,
    TensorStream,
    _aligned,
    add_up,
    fingerprint,
    first_non_finite,
    open_replacing,
    read_checkpoint,
    schema_compatible,
    schema_of,
    leaves,
    windows,
    write_checkpoint,
)
from synvec.vector_ops import (
    Provenance,
    TaskVector,
    compute_task_vector,
    load_task_vector,
    save_task_vector,
)

from conftest import random_tensor_map


def build_file(path, tensors, metadata=None):
    """Assemble a container byte-by-byte, independent of write_checkpoint.

    tensors: list of (name, dtype_str, shape, data_offsets, raw_bytes).
    """
    header = {}
    if metadata:
        header["__metadata__"] = metadata
    blob = b""
    for name, dtype, shape, offsets, raw in tensors:
        header[name] = {"dtype": dtype, "shape": shape, "data_offsets": offsets}
    header_bytes = json.dumps(header).encode("utf-8")
    data = bytearray()
    for _, _, _, offsets, raw in tensors:
        end = offsets[1]
        if end > len(data):
            data.extend(b"\x00" * (end - len(data)))
        data[offsets[0]:offsets[1]] = raw
    payload = len(header_bytes).to_bytes(8, "little") + header_bytes + bytes(data)
    path.write_bytes(payload)
    return path


def test_single_tensor_round_trip(tmp_path):
    tmap = TensorMap({"w": np.array([1.0, 2.0], dtype=np.float32)})
    path = tmp_path / "one.safetensors"
    write_checkpoint(tmap, path)
    assert read_checkpoint(path) == tmap


def test_overlapping_ranges_error_names_both_tensors(tmp_path):
    path = build_file(
        tmp_path / "overlap.safetensors",
        [
            ("a", "F32", [2], [0, 8], np.zeros(2, dtype="<f4").tobytes()),
            ("b", "F32", [2], [4, 12], np.zeros(2, dtype="<f4").tobytes()),
        ],
    )
    with pytest.raises(ByteRangeError) as exc:
        read_checkpoint(path)
    assert "'a'" in str(exc.value) and "'b'" in str(exc.value)


def test_three_tensor_fixture_round_trip(tmp_path):
    # Round-trip oracle: write then read then compare.
    tmap = TensorMap(
        {
            "enc.weight": np.arange(12, dtype=np.float32).reshape(3, 4),
            "enc.bias": np.array([0.5, -0.5, 3.25], dtype=np.float16),
            "head.weight": np.linspace(-1, 1, 8, dtype=np.float64).reshape(2, 2, 2),
        },
        {"note": "fixture"},
    )
    path = tmp_path / "three.safetensors"
    write_checkpoint(tmap, path)
    assert read_checkpoint(path) == tmap


def test_empty_map_round_trip(tmp_path):
    path = tmp_path / "empty.safetensors"
    write_checkpoint(TensorMap({}), path)
    loaded = read_checkpoint(path)
    assert len(loaded) == 0 and loaded == TensorMap({})


def test_write_is_deterministic(tmp_path, rng):
    tmap = random_tensor_map(rng)
    p1, p2 = tmp_path / "a.st", tmp_path / "b.st"
    write_checkpoint(tmap, p1)
    write_checkpoint(tmap, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_big_endian_arrays_write_the_little_endian_bytes(tmp_path, rng):
    little = {f"t{size}": rng.standard_normal(5).astype(f"<f{size}") for size in (2, 4, 8)}
    write_checkpoint(TensorMap(little), tmp_path / "little.st")
    write_checkpoint(TensorMap({name: arr.astype(arr.dtype.newbyteorder(">"))
                                for name, arr in little.items()}), tmp_path / "big.st")
    assert (tmp_path / "big.st").read_bytes() == (tmp_path / "little.st").read_bytes()


def test_header_lists_names_lexicographically(tmp_path):
    tmap = TensorMap({"b": np.zeros(1, dtype=np.float32), "a": np.zeros(1, dtype=np.float32)})
    path = tmp_path / "order.safetensors"
    write_checkpoint(tmap, path)
    raw = path.read_bytes()
    header_len = int.from_bytes(raw[:8], "little")
    header = raw[8:8 + header_len].decode("utf-8")
    assert header.index('"a"') < header.index('"b"')


def test_canonical_header_key_order(tmp_path):
    write_checkpoint(TensorMap({"w": np.zeros(2, dtype=np.float32)}), tmp_path / "k.st")
    raw = (tmp_path / "k.st").read_bytes()
    header = json.loads(raw[8:8 + int.from_bytes(raw[:8], "little")])
    assert list(header["w"]) == ["dtype", "shape", "data_offsets"]


def test_schema_of_single():
    tmap = TensorMap({"w": np.zeros(2, dtype=np.float32)})
    assert schema_of(tmap).entries == (("w", Dtype.F32, (2,)),)


def test_schema_of_sorts_names():
    tmap = TensorMap({"b": np.zeros(1, dtype=np.float32), "a": np.zeros(3, dtype=np.float16)})
    assert schema_of(tmap).entries == (("a", Dtype.F16, (3,)), ("b", Dtype.F32, (1,)))


def test_equal_schemas_from_distinct_values(rng):
    # Two fine-tunes of one parent share metas but not values.
    shape = (4, 3)
    a = TensorMap({"w": rng.standard_normal(shape).astype(np.float32)})
    b = TensorMap({"w": rng.standard_normal(shape).astype(np.float32)})
    assert schema_of(a) == schema_of(b)
    assert fingerprint(a).schema_hash == fingerprint(b).schema_hash


def test_schema_compatible_identical():
    tmap = TensorMap({"w": np.zeros(2, dtype=np.float32)})
    report = schema_compatible(tmap, tmap)
    assert report.ok and not report.missing_in_a and not report.mismatched


def test_schema_compatible_missing():
    a = TensorMap({"w": np.zeros(2, dtype=np.float32), "head.w": np.zeros(1, dtype=np.float32)})
    b = TensorMap({"w": np.zeros(2, dtype=np.float32)})
    report = schema_compatible(a, b)
    assert not report.ok
    assert report.missing_in_b == ("head.w",) and not report.missing_in_a


def test_schema_compatible_shape_mismatch():
    a = TensorMap({"w": np.zeros(2, dtype=np.float32)})
    b = TensorMap({"w": np.zeros(3, dtype=np.float32)})
    report = schema_compatible(a, b)
    assert not report.ok and report.mismatched == ("w",)


def test_fingerprint_soundness(rng):
    # Equal schemas iff equal hashes, over randomized schema tweaks.
    for _ in range(50):
        tmap = random_tensor_map(rng)
        same = TensorMap({n: rng.standard_normal(a.shape).astype(a.dtype)
                          for n, a in tmap.items()})
        assert fingerprint(tmap).schema_hash == fingerprint(same).schema_hash
        name = tmap.names()[0]
        changed = dict(tmap.items())
        changed[name + "_x"] = changed.pop(name)
        assert fingerprint(TensorMap(changed)).schema_hash != fingerprint(tmap).schema_hash


def test_content_hash_optional(rng):
    tmap = random_tensor_map(rng)
    assert fingerprint(tmap).content_hash is None
    fp = fingerprint(tmap, include_content=True)
    assert fp.content_hash is not None
    assert fingerprint(tmap, include_content=True) == fp


def test_content_hash_is_sha256_of_c_order_bytes(rng):
    # Contiguous tensors are hashed in place, strided ones in C order, as tobytes() gives.
    tmap = TensorMap({
        "a.strided": rng.standard_normal((5, 7)).astype(np.float16).T,
        "b.matrix": rng.standard_normal((3, 4)).astype(np.float32),
        "c.scalar": np.array(1.5),
        "d.empty": np.zeros((0, 3), dtype=np.float32),
    })
    expected = hashlib.sha256(b"".join(arr.tobytes() for _, arr in tmap.items()))
    assert fingerprint(tmap, include_content=True).content_hash == expected.hexdigest()


def test_zero_sized_tensor_round_trip(tmp_path):
    tmap = TensorMap(
        {
            "empty": np.empty((0, 4), dtype=np.float32),
            "w": np.array([1.5], dtype=np.float32),
        }
    )
    path = tmp_path / "zero.safetensors"
    write_checkpoint(tmap, path)
    loaded = read_checkpoint(path)
    assert loaded == tmap and loaded["empty"].shape == (0, 4)


def test_f16_values_preserved_bitwise(tmp_path):
    values = np.array([0.1, -65504.0, 6.1e-5, 3.140625], dtype=np.float16)
    tmap = TensorMap({"h": values})
    path = tmp_path / "f16.safetensors"
    write_checkpoint(tmap, path)
    loaded = read_checkpoint(path)
    assert loaded["h"].tobytes() == values.tobytes()


def test_metadata_and_unicode_names_round_trip(tmp_path):
    tmap = TensorMap(
        {"décodeur.poids": np.ones(2, dtype=np.float32)},
        {"auteur": "écrit", "k": "v"},
    )
    path = tmp_path / "uni.safetensors"
    write_checkpoint(tmap, path)
    loaded = read_checkpoint(path)
    assert loaded == tmap and loaded.metadata == {"auteur": "écrit", "k": "v"}


# --- malformed corpus; each shape of damage has its own error kind ---


def test_malformed_header_json(tmp_path):
    path = tmp_path / "badjson.st"
    blob = b'{"w": not json'
    path.write_bytes(len(blob).to_bytes(8, "little") + blob)
    with pytest.raises(InvalidHeaderError):
        read_checkpoint(path)


def test_header_not_object(tmp_path):
    path = tmp_path / "list.st"
    blob = b'["w"]'
    path.write_bytes(len(blob).to_bytes(8, "little") + blob)
    with pytest.raises(InvalidHeaderError):
        read_checkpoint(path)


@pytest.mark.parametrize("header, message", [
    ('{"w":[1,2]}', "header entry for 'w' is not an object"),
    ('{"":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}}', "empty tensor name in header"),
], ids=["entry not an object", "empty name"])
def test_a_header_entry_that_names_no_tensor_is_an_invalid_header(tmp_path, header, message):
    path = tmp_path / "bad.st"
    path.write_bytes(len(header).to_bytes(8, "little") + header.encode() + bytes(4))
    with pytest.raises(InvalidHeaderError) as exc:
        read_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"


def test_unknown_dtype(tmp_path):
    path = build_file(
        tmp_path / "dtype.st", [("w", "BF16", [2], [0, 4], b"\x00" * 4)]
    )
    with pytest.raises(UnknownDtypeError) as exc:
        read_checkpoint(path)
    assert "'w'" in str(exc.value) and "BF16" in str(exc.value)


def test_truncated_data_section(tmp_path):
    path = build_file(
        tmp_path / "trunc.st", [("w", "F32", [4], [0, 16], b"\x00" * 16)]
    )
    raw = path.read_bytes()
    path.write_bytes(raw[:-6])
    with pytest.raises(TruncatedDataError) as exc:
        read_checkpoint(path)
    assert "'w'" in str(exc.value)


def test_file_shorter_than_header_length(tmp_path):
    path = tmp_path / "short.st"
    path.write_bytes((1 << 20).to_bytes(8, "little") + b"{}")
    with pytest.raises(TruncatedDataError):
        read_checkpoint(path)


def test_file_shorter_than_length_prefix(tmp_path):
    path = tmp_path / "tiny.st"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(TruncatedDataError):
        read_checkpoint(path)


def test_range_length_disagrees_with_shape(tmp_path):
    path = build_file(
        tmp_path / "len.st", [("w", "F32", [3], [0, 8], b"\x00" * 8)]
    )
    with pytest.raises(ByteRangeError) as exc:
        read_checkpoint(path)
    assert "'w'" in str(exc.value)


def test_gap_between_ranges(tmp_path):
    path = build_file(
        tmp_path / "gap.st",
        [
            ("a", "F32", [1], [0, 4], b"\x00" * 4),
            ("b", "F32", [1], [8, 12], b"\x00" * 4),
        ],
    )
    with pytest.raises(ByteRangeError) as exc:
        read_checkpoint(path)
    assert "gap" in str(exc.value)


def test_trailing_unaddressed_bytes(tmp_path):
    path = build_file(tmp_path / "trail.st", [("w", "F32", [1], [0, 4], b"\x00" * 4)])
    path.write_bytes(path.read_bytes() + b"\xde\xad")
    with pytest.raises(ByteRangeError) as exc:
        read_checkpoint(path)
    assert "trailing" in str(exc.value)


@pytest.mark.parametrize("tensors, cut", [
    ([("w", "F32", [2], [0, 8], b"\x00" * 8)], 3),  # truncated
    ([("w", "BF16", [1], [0, 2], b"\x00" * 2)], 0),  # unknown dtype
    ([("w", "F32", [2], [0, 4], b"\x00" * 4)], 0),  # range shorter than the shape
    ([("a", "F32", [1], [0, 4], b"\x00" * 4), ("b", "F32", [1], [8, 12], b"\x00" * 4)], 0),
    ([("a", "F32", [2], [0, 8], b"\x00" * 8), ("b", "F32", [1], [4, 8], b"\x00" * 4)], 0),
])
def test_entry_and_coverage_errors_name_the_file(tmp_path, tensors, cut):
    path = build_file(tmp_path / "bad.st", tensors)
    path.write_bytes(path.read_bytes()[: path.stat().st_size - cut])
    with pytest.raises(ContainerError) as exc:
        read_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_negative_shape_dimension(tmp_path):
    path = build_file(tmp_path / "negshape.st", [("w", "F32", [-1], [0, 4], b"\x00" * 4)])
    with pytest.raises(InvalidHeaderError):
        read_checkpoint(path)


def test_reversed_offsets(tmp_path):
    path = build_file(tmp_path / "rev.st", [("w", "F32", [1], [4, 0], b"")])
    # build_file cannot express a reversed range in data; fabricate directly
    header = json.dumps({"w": {"dtype": "F32", "shape": [1], "data_offsets": [4, 0]}}).encode()
    path.write_bytes(len(header).to_bytes(8, "little") + header + b"\x00" * 4)
    with pytest.raises(ByteRangeError):
        read_checkpoint(path)


@pytest.mark.parametrize(
    "second_range, data_len",
    [([0, 4], 4), ([4, 8], 8)],  # the last entry alone would be valid / would leave a gap
)
def test_duplicate_tensor_name_rejected(tmp_path, second_range, data_len):
    path = tmp_path / "dup.st"
    header = (
        '{"w":{"dtype":"F32","shape":[1],"data_offsets":[0,4]},'
        f'"w":{{"dtype":"F16","shape":[2],"data_offsets":{json.dumps(second_range)}}}}}'
    ).encode()
    path.write_bytes(len(header).to_bytes(8, "little") + header + b"\x00" * data_len)
    with pytest.raises(InvalidHeaderError, match="duplicate"):
        read_checkpoint(path)


def test_duplicate_key_error_names_the_file(tmp_path):
    path = tmp_path / "dup.st"
    header = b'{"__metadata__":{"a":"1","a":"2"}}'
    path.write_bytes(len(header).to_bytes(8, "little") + header)
    with pytest.raises(InvalidHeaderError) as exc:
        read_checkpoint(path)
    assert str(exc.value) == f"{path}: header has duplicate key 'a'"


@pytest.mark.parametrize("dtype", [["F32"], {"F32": "F32"}], ids=["list", "object"])
def test_a_dtype_that_is_not_a_string_is_an_unknown_dtype(tmp_path, dtype):
    path = build_file(tmp_path / "dtype.st", [("w", dtype, [1], [0, 4], b"\x00" * 4)])
    with pytest.raises(UnknownDtypeError) as exc:
        read_checkpoint(path)
    assert str(exc.value) == f"{path}: tensor 'w' declares unknown dtype {dtype!r}"


@pytest.mark.parametrize("case", ["long integer", "deep nesting", "huge empty", "65 dims"])
def test_a_header_json_or_numpy_cannot_hold_is_an_invalid_header(tmp_path, case):
    path = tmp_path / "bad.st"
    entry = '"w":{{"dtype":"F32","shape":{},"data_offsets":{}}}'
    header, data = {
        "long integer": ("{" + entry.format("[" + "1" * 5000 + "]", "[0,4]") + "}", 4),
        "deep nesting": ("[" * 100_000 + "]" * 100_000, 0),
        "huge empty": ("{" + entry.format(f"[0,{2**64}]", "[0,0]") + "}", 0),
        "65 dims": ("{" + entry.format(json.dumps([1] * 65), "[0,4]") + "}", 4),
    }[case]
    path.write_bytes(len(header).to_bytes(8, "little") + header.encode() + bytes(data))
    with pytest.raises(InvalidHeaderError) as exc:
        read_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: ")


# --- header fuzz: damage to a task vector's header is a typed refusal ---


class _Object(list):
    """A JSON object as a list of (key, value) pairs, so that a key may repeat."""


def _editable(node):
    if isinstance(node, dict):
        return _Object([key, _editable(value)] for key, value in node.items())
    if isinstance(node, list):
        return [_editable(value) for value in node]
    return node


def _dump(node) -> str:
    if isinstance(node, _Object):
        return "{" + ",".join(f"{json.dumps(key)}:{_dump(value)}" for key, value in node) + "}"
    if isinstance(node, list):
        return "[" + ",".join(map(_dump, node)) + "]"
    return json.dumps(node)


def _containers(node):
    """``node`` and every array or object inside it, if it is one."""
    if isinstance(node, list):
        yield node
        for item in node:
            yield from _containers(item[1] if isinstance(node, _Object) else item)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_damaged_task_vector_header_is_a_typed_refusal(tmp_path, data):
    # Every damage to the header of a valid task vector container, read by
    # both readers, either loads or raises a SynvecError; any other exception
    # fails the test.
    source = tmp_path / "valid.st"
    if not source.exists():
        deltas = TensorMap({"a": np.array([1.0, -2.0], np.float32),
                            "b": np.array([0.5, 1.0, 3.0], np.float16)})
        save_task_vector(TaskVector(deltas, fingerprint(deltas),
                                    Provenance("music", "human", "tts", ("real.st", "syn.st"))),
                         source)
    raw = source.read_bytes()
    size = int.from_bytes(raw[:8], "little")
    root = [_editable(json.loads(raw[8 : 8 + size]))]  # a holder, so the root can be edited
    for _ in range(data.draw(st.integers(0, 3), "edits")):
        items = data.draw(st.sampled_from(list(_containers(root))), "container")
        if not items:
            continue
        index = data.draw(st.integers(0, len(items) - 1), "index")
        edit = data.draw(st.sampled_from(["replace", "drop", "repeat"]), "edit")
        if edit == "drop":
            del items[index]
        elif edit == "repeat":
            items.insert(index, items[index])
        elif isinstance(items, _Object):
            items[index] = [items[index][0], _editable(data.draw(_JSON, "value"))]
        else:
            items[index] = _editable(data.draw(_JSON, "value"))
    header = bytearray("".join(map(_dump, root)).encode())
    for position, mask in data.draw(st.lists(st.tuples(st.integers(0, 10**6),
                                                       st.integers(1, 255)), max_size=3),
                                    "flips"):
        if header:
            header[position % len(header)] ^= mask
    path = tmp_path / "damaged.st"
    path.unlink(missing_ok=True)  # a new file, not one an earlier map still reads
    path.write_bytes(len(header).to_bytes(8, "little") + bytes(header) + raw[8 + size :])
    for read in (read_checkpoint, load_task_vector):
        try:
            read(path)
        except SynvecError:
            pass


def test_non_finite_write_rejected_then_permitted(tmp_path):
    tmap = TensorMap({"w": np.array([1.0, np.inf], dtype=np.float32)})
    path = tmp_path / "inf.st"
    with pytest.raises(NonFiniteValueError) as exc:
        write_checkpoint(tmap, path)
    assert exc.value.tensor == "w" and exc.value.index == 1
    assert str(exc.value) == "tensor 'w' has a non-finite value at flat index 1"
    header = b'{"w":{"dtype":"F32","shape":[2],"data_offsets":[0,8]}}'  # written by another tool
    path.write_bytes(len(header).to_bytes(8, "little") + header + tmap["w"].tobytes())
    loaded = read_checkpoint(path)  # accepted on read
    assert loaded.non_finite_tensors() == {"w": 1}


def test_rejects_integer_arrays():
    with pytest.raises(ValidationError):
        TensorMap({"w": np.array([1, 2, 3])})


def test_values_are_read_only(tmp_path, rng):
    tmap = random_tensor_map(rng)
    path = tmp_path / "ro.st"
    write_checkpoint(tmap, path)
    loaded = read_checkpoint(path)
    name = loaded.names()[0]
    assert not loaded[name].flags.writeable
    assert not tmap[name].flags.writeable


def test_read_values_are_copies_and_no_file_is_mapped(tmp_path, monkeypatch):
    # One reader: tmap[name] reads its tensor from the file into a new array.
    def no_mapping(*args, **kwargs):
        raise AssertionError("a file was mapped")

    monkeypatch.setattr(mmap, "mmap", no_mapping)
    values = np.arange(64, dtype=np.float32)
    path = tmp_path / "read.st"
    write_checkpoint(TensorMap({"w": values}), path)
    loaded = read_checkpoint(path)
    reads = [loaded["w"], loaded["w"], loaded.with_metadata({"k": "v"})["w"],
             dict(loaded.items())["w"]]
    for i, read in enumerate(reads):
        assert read.tobytes() == values.tobytes() and read.shape == values.shape
        assert not read.flags.writeable
        assert not any(np.shares_memory(read, other) for other in reads[i + 1:])
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as maps:
            assert str(path) not in maps.read()


def test_whitespace_padded_header_accepted(tmp_path):
    # Other writers pad headers with trailing spaces; reading tolerates it.
    tmap = TensorMap({"w": np.array([2.5], dtype=np.float32)})
    write_checkpoint(tmap, tmp_path / "a.st")
    raw = (tmp_path / "a.st").read_bytes()
    header_len = int.from_bytes(raw[:8], "little")
    padded_header = raw[8:8 + header_len] + b"    "
    padded = (
        len(padded_header).to_bytes(8, "little") + padded_header + raw[8 + header_len:]
    )
    (tmp_path / "b.st").write_bytes(padded)
    assert read_checkpoint(tmp_path / "b.st") == tmap


def test_interop_with_safetensors_library(tmp_path, rng):
    safetensors_numpy = pytest.importorskip("safetensors.numpy")
    data = {
        "x": rng.standard_normal((3, 2)).astype(np.float32),
        "h": rng.standard_normal(5).astype(np.float16),
        "d": rng.standard_normal((2, 2)).astype(np.float64),
    }
    theirs = tmp_path / "theirs.safetensors"
    safetensors_numpy.save_file(data, str(theirs), metadata={"source": "library"})
    loaded = read_checkpoint(theirs)
    for name, arr in data.items():
        assert loaded[name].tobytes() == arr.tobytes()
    assert loaded.metadata == {"source": "library"}

    ours = tmp_path / "ours.safetensors"
    write_checkpoint(loaded, ours)
    back = safetensors_numpy.load_file(str(ours))
    for name, arr in data.items():
        assert back[name].tobytes() == arr.tobytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(tmp_path, seed):
    rng = np.random.default_rng(seed)
    tmap = random_tensor_map(rng)
    path = tmp_path / "prop.st"
    write_checkpoint(tmap, path)
    loaded = read_checkpoint(path)
    assert loaded == tmap
    # writing the loaded map reproduces the file bytes exactly
    again = tmp_path / "prop2.st"
    write_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# --- the bit-level finite check, its memo, and replacing writes ---


def test_first_non_finite_matches_isfinite_on_every_f16_pattern():
    values = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16).view(np.float16)
    scratch = np.empty(1, dtype=np.uint64)
    flagged = [first_non_finite(values[i:i + 1], scratch) == 0 for i in range(values.size)]
    assert flagged == list(~np.isfinite(values))
    whole = np.empty(BLOCK_ELEMENTS, dtype=np.uint64)
    assert first_non_finite(values, whole) == int(np.argmin(np.isfinite(values)))


@pytest.mark.parametrize("dtype, patterns", [
    (np.float32, [0x00000000, 0x80000000, 0x00000001, 0x007FFFFF, 0x00800000, 0x7F7FFFFF,
                  0xFF7FFFFF, 0x7F000000, 0x3F800000, 0x7F800000, 0xFF800000, 0x7FC00000,
                  0x7F800001, 0xFFFFFFFF, 0x7FBFFFFF]),
    (np.float64, [0x0, 0x8000000000000000, 0x1, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
                  0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF, 0x7FE0000000000000,
                  0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000000,
                  0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF]),
])
def test_first_non_finite_matches_isfinite_on_edge_values(dtype, patterns):
    uint = np.dtype(dtype).str.replace("f", "u")
    values = np.array(patterns, dtype=uint).view(dtype)
    scratch = np.empty(1, dtype=np.uint64)
    flagged = [first_non_finite(values[i:i + 1], scratch) == 0 for i in range(values.size)]
    assert flagged == list(~np.isfinite(values))


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("index", [0, BLOCK_ELEMENTS - 1, BLOCK_ELEMENTS, 2 * BLOCK_ELEMENTS + 3])
def test_first_non_finite_finds_the_first_index_across_blocks(dtype, index):
    values = np.ones(3 * BLOCK_ELEMENTS + 5, dtype=dtype)
    values[index] = np.nan
    values[index + 1] = np.inf
    scratch = np.empty(BLOCK_ELEMENTS, dtype=np.uint64)
    assert first_non_finite(values, scratch) == index
    assert first_non_finite(values[: index], scratch) is None


def test_map_of_writeable_arrays_is_scanned_on_every_call(tmp_path):
    values = np.ones(4, dtype=np.float32)
    tmap = TensorMap({"w": values})
    assert tmap.non_finite_tensors() == {}
    values[2] = np.nan  # the caller still owns a writeable array behind the map
    with pytest.raises(NonFiniteValueError) as exc:
        write_checkpoint(tmap, tmp_path / "nan.st")
    assert exc.value.tensor == "w" and exc.value.index == 2


def test_mapped_file_is_scanned_once(tmp_path, monkeypatch):
    path = tmp_path / "m.st"
    write_checkpoint(TensorMap({"a": np.ones(3, np.float16), "b": np.zeros(2, np.float64)}),
                     path)
    calls = []
    original = tensor_store.first_non_finite
    monkeypatch.setattr(tensor_store, "first_non_finite",
                        lambda values, scratch: calls.append(1) or original(values, scratch))
    loaded = read_checkpoint(path)
    for _ in range(3):
        assert loaded.non_finite_tensors() == {}
    assert loaded.with_metadata({"k": "v"}).non_finite_tensors() == {}  # shares the answer
    assert len(calls) == 2  # one per tensor


def test_write_replaces_a_file_that_is_still_mapped(tmp_path):
    path = tmp_path / "m.st"
    write_checkpoint(TensorMap({"w": np.arange(4096, dtype=np.float32)}), path)
    loaded = read_checkpoint(path)
    write_checkpoint(loaded, path)  # the values are views of the file being replaced
    assert read_checkpoint(path) == loaded
    assert [p.name for p in tmp_path.iterdir()] == ["m.st"]


def test_replaced_file_gets_the_mode_open_would_give(tmp_path):
    previous = os.umask(0o027)
    try:
        write_checkpoint(TensorMap({"w": np.ones(1, np.float32)}), tmp_path / "new.st")
        with open(tmp_path / "plain", "wb"):
            pass
        assert stat.S_IMODE(os.stat(tmp_path / "new.st").st_mode) == 0o640
        assert os.stat(tmp_path / "plain").st_mode == os.stat(tmp_path / "new.st").st_mode
        os.chmod(tmp_path / "new.st", 0o604)
        write_checkpoint(TensorMap({"w": np.zeros(1, np.float32)}), tmp_path / "new.st")
        assert stat.S_IMODE(os.stat(tmp_path / "new.st").st_mode) == 0o604
    finally:
        os.umask(previous)


def test_failed_write_leaves_the_target_and_no_temp_file(tmp_path):
    path = tmp_path / "keep.txt"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with open_replacing(path) as handle:
            handle.write(b"new")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["keep.txt"]


def test_write_through_a_symlink_replaces_its_target(tmp_path):
    target = tmp_path / "target.st"
    write_checkpoint(TensorMap({"w": np.ones(2, np.float32)}), target)
    (tmp_path / "link.st").symlink_to(target)
    written = TensorMap({"w": np.zeros(2, np.float32)})
    write_checkpoint(written, tmp_path / "link.st")
    assert (tmp_path / "link.st").is_symlink()
    assert read_checkpoint(target) == written


# --- resident pages of a mapped map ---


def resident_file_bytes():
    """Bytes of file-backed pages mapped into this process (``RssFile``)."""
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("RssFile:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or not hasattr(mmap, "MADV_DONTNEED"),
                    reason="needs /proc/self/status and MADV_DONTNEED")
def test_a_pass_hands_back_pages_and_keeps_every_value(tmp_path):
    rng = np.random.default_rng(11)
    maps = {}
    for label in ("a", "b"):
        tensors = {f"t{i:03d}": rng.standard_normal((16, 512)).astype(np.float32)
                   for i in range(256)}  # 8 MiB, 32 KiB a tensor
        tensors["empty"] = np.empty((0, 3), np.float16)
        write_checkpoint(TensorMap(tensors), tmp_path / f"{label}.st")
        maps[label] = (tensors, read_checkpoint(tmp_path / f"{label}.st"))
    originals, tmap = maps["a"]
    views = {name: tmap[name] for name in tmap}  # taken before any pass
    before = resident_file_bytes()
    first = [(name, arr.tobytes()) for name, arr in tmap.items()]
    assert resident_file_bytes() - before < tmap.data_nbytes // 8
    assert first == [(name, arr.tobytes()) for name, arr in tmap.items()]
    assert tmap.with_metadata({"k": "v"}).non_finite_tensors() == {}  # a scan of a copy
    assert resident_file_bytes() - before < tmap.data_nbytes // 8
    assert all(views[name].tobytes() == originals[name].tobytes() for name in originals)

    other = maps["b"][1]
    mapped = compute_task_vector(tmap, other).deltas
    copies = [TensorMap({n: np.array(arr) for n, arr in m.items()}) for m in (tmap, other)]
    in_memory = compute_task_vector(*copies).deltas
    assert mapped == in_memory
    assert all(views[name].tobytes() == originals[name].tobytes() for name in originals)


# --- a file that shrinks under a pass ---

# Reads a two-tensor task vector container, cuts the file to 8 KiB (inside its
# second tensor) and runs one pass over it; exits 2 with the error's text.
SHRINK_PROBE = """
import os, shutil, sys
import numpy as np
from synvec import cli
from synvec.errors import TruncatedDataError
from synvec.tensor_store import TensorMap, fingerprint, read_checkpoint
from synvec.vector_ops import (TaskVector, compute_task_vector, load_task_vector, norm_stats,
                               save_task_vector)

case, path = sys.argv[1], sys.argv[2]
deltas = TensorMap({"a": np.ones(1024, np.float32), "b": np.ones(65536, np.float32)})
save_task_vector(TaskVector(deltas, fingerprint(deltas)), path)
shutil.copy(path, path + ".copy")
tmap, intact, tau = read_checkpoint(path), read_checkpoint(path + ".copy"), load_task_vector(path)

def read_then_shrink(name):
    read = read_checkpoint(name)
    os.truncate(path, 8192)
    return read

if case == "cli diff":  # the file shrinks once the command has read its header
    cli.read_checkpoint = read_then_shrink
    sys.exit(cli.main(["diff", path, path + ".copy", "--out", path + ".out"]))
os.truncate(path, 8192)
passes = {
    "non_finite_tensors": tmap.non_finite_tensors,
    "items": lambda: list(tmap.items()),
    "norm_stats": lambda: norm_stats(tau),
    "compute_task_vector": lambda: compute_task_vector(tmap, intact),
    "getitem": lambda: float(tmap["b"].sum()),
    "eq": lambda: tmap == intact,
}
try:
    passes[case]()
except TruncatedDataError as exc:
    print(exc)
    sys.exit(2)
"""


@pytest.mark.parametrize("case", ["non_finite_tensors", "items", "norm_stats",
                                  "compute_task_vector", "getitem", "eq", "cli diff"])
def test_a_pass_over_a_file_that_shrank_is_a_truncated_data_error(tmp_path, case):
    # Every read goes to the file, none to a mapping of it: the bytes the shrunk file
    # lost are a short read, not a SIGBUS that ends the process.
    path = tmp_path / "shrinks.st"
    proc = subprocess.run([sys.executable, "-c", SHRINK_PROBE, case, str(path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2, (proc.returncode, proc.stderr)
    message = proc.stdout
    if case == "cli diff":
        error = json.loads(proc.stderr)["error"]
        assert error["kind"] == "truncated_data"
        message = error["message"]
    assert f"{path}: tensor 'b' " in message


# Counts this process's open descriptors as maps of one file come and go, and
# after a read that fails; prints the counts, relative to the start, as JSON.
DESCRIPTOR_PROBE = """
import gc, json, os, sys
import numpy as np
from synvec.errors import TruncatedDataError
from synvec.tensor_store import TensorMap, read_checkpoint, write_checkpoint

path = sys.argv[1]
write_checkpoint(TensorMap({"a": np.arange(4, dtype=np.float32)}), path)
with open(path + ".short", "wb") as short:
    short.write(b"\\x01")
start = len(os.listdir("/proc/self/fd"))
counts = {}
first = read_checkpoint(path)
counts["read"] = len(os.listdir("/proc/self/fd")) - start
second = first.with_metadata({"k": "v"})
del first
gc.collect()
counts["first dropped"] = len(os.listdir("/proc/self/fd")) - start
assert second["a"].tolist() == [0.0, 1.0, 2.0, 3.0]
del second
gc.collect()
counts["all dropped"] = len(os.listdir("/proc/self/fd")) - start
try:
    read_checkpoint(path + ".short")
except TruncatedDataError:
    counts["failed read"] = len(os.listdir("/proc/self/fd")) - start
print(json.dumps(counts))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_map_holds_one_descriptor_until_its_last_copy_goes(tmp_path):
    # The file stays open while a map of it (or a with_metadata copy) lives, and
    # closes, without a ResourceWarning, when the last one goes or the read fails.
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
                           DESCRIPTOR_PROBE, str(tmp_path / "fd.st")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"read": 1, "first dropped": 1, "all dropped": 0,
                                       "failed read": 0}


# --- the leaf walk: numpy's pairwise-sum split ---


# The largest is merge_f32's embedding, 8192 x 768; 100,003 splits off a
# multiple of 8 at every level.
WALK_SIZES = (1, 7, 129, 32767, 32768, 32769, 65537, 100_003, 1_000_001, 6_291_456)


@pytest.mark.parametrize("size", WALK_SIZES)
def test_leaf_sums_added_up_the_split_have_the_bits_of_np_sum(size):
    # The split is numpy's implementation, not its API: a numpy that splits
    # otherwise fails here instead of changing the printed reductions' bits.
    # Values spread over 24 binades, so that most sums round differently
    # under another split.
    rng = np.random.default_rng(size)
    base = rng.standard_normal(size) * 2.0 ** rng.integers(-12, 12, size)
    for dtype in (np.float16, np.float32, np.float64):
        wide = base.astype(dtype).astype(np.float64)
        for values in (wide, np.square(wide), np.abs(wide)):  # products, squares, norms
            sums = [float(np.sum(values[start:stop])) for start, stop in leaves(size)]
            assert add_up(size, sums) == float(np.sum(values)), dtype


@pytest.mark.parametrize("size", WALK_SIZES)
def test_windows_tile_the_tensor_with_its_leaves(size):
    assert all(0 < b - a <= BLOCK_ELEMENTS for a, b in leaves(size))
    for itemsize in (2, 4, 8):
        tiled = windows(size, itemsize)
        assert [leaf for _, _, group in tiled for leaf in group] == list(leaves(size))
        assert all(group[0][0] == begin and group[-1][1] == end
                   and (end - begin) * itemsize <= RELEASE_BYTES for begin, end, group in tiled)
    assert leaves(0) == () and add_up(0, []) == 0.0


def test_the_aligned_pass_gives_each_operand_the_values_of_each_window(tmp_path, bytes_read):
    # A map read from a file, a map of arrays (one of them strided) and a stream,
    # sharing a layout of every dtype, an empty tensor, a scalar, sizes either side
    # of one leaf, and tensors of more than one window.
    rng = np.random.default_rng(27)
    layout = {"a.f16": (np.float16, (BLOCK_ELEMENTS - 1,)),
              "b.f32": (np.float32, (BLOCK_ELEMENTS + 1,)),
              "c.f64": (np.float64, (RELEASE_BYTES // 8 + 3,)),
              "d.empty": (np.float32, (0, 3)),
              "e.scalar": (np.float64, ()),
              "f.f16": (np.float16, (3 * RELEASE_BYTES // 2 + 1,)),
              "g.strided": (np.float32, (7, 5))}

    def values():
        return {name: rng.standard_normal(shape).astype(dtype)
                for name, (dtype, shape) in layout.items()}

    on_file, in_memory, streamed = values(), values(), values()
    in_memory["g.strided"] = np.ascontiguousarray(in_memory["g.strided"].T).T
    write_checkpoint(TensorMap(on_file), tmp_path / "m.st")
    file_map, memory_map = read_checkpoint(tmp_path / "m.st"), TensorMap(in_memory)
    stream = TensorStream(TensorMap(streamed), (
        (name, arr.reshape(-1)[begin:end]) for name, arr in streamed.items()
        for begin, end, _ in windows(arr.size, arr.itemsize)))
    names = []
    for name, entry, tensor_windows in _aligned([file_map, memory_map, stream]):
        names.append(name)
        assert (entry.dtype, entry.shape) == (np.dtype(layout[name][0]), layout[name][1])
        seen = []
        for begin, end, leaves, blocks in tensor_windows:
            seen.append((begin, end, leaves))
            for block, whole in zip(blocks, (on_file, in_memory, streamed), strict=True):
                assert block.dtype == whole[name].dtype
                assert block.tobytes() == whole[name].reshape(-1)[begin:end].tobytes()
        assert seen == list(windows(entry.size, entry.itemsize))
    assert names == sorted(layout)
    assert next(stream.tensors, None) is None
    assert bytes_read(tmp_path / "m.st") == file_map.data_nbytes
