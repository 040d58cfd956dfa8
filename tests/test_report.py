"""Report bundles: deterministic CSV/SVG bytes, manifests, table arithmetic."""

import csv
import io
import json

import numpy as np
import pytest

from synvec.errors import ValidationError
from synvec.report import (
    ReportBundle,
    ReportFile,
    build_similarity_report,
    build_sweep_report,
    build_table_report,
)
from synvec.sweep_harness import EvalRecord, SweepResult
from synvec.tensor_store import TensorMap
from synvec.vector_ops import compute_task_vector, scale_task_vector


def vector_from(values_by_name):
    zeros = TensorMap(
        {name: np.zeros(len(v), dtype=np.float32) for name, v in values_by_name.items()}
    )
    shifted = TensorMap(
        {name: np.asarray(v, dtype=np.float32) for name, v in values_by_name.items()}
    )
    return compute_task_vector(shifted, zeros)


def sweep_result(pairs):
    records = tuple(
        EvalRecord(lam=lam, wer=wer, checkpoint_path="", evaluator_stdout="", wall_time=0.0)
        for lam, wer in sorted(pairs)
    )
    return SweepResult(lambda_grid=tuple(sorted(l for l, _ in pairs)), records=records,
                       failures=())


def parse_csv(blob):
    return list(csv.reader(io.StringIO(blob.decode("utf-8"))))


# --- similarity ---


def test_two_copies_give_all_ones_matrix():
    tau = vector_from({"w": [1.0, 2.0]})
    bundle = build_similarity_report([("a", tau), ("b", tau)])
    rows = parse_csv(bundle.tables[0].content)
    assert rows[0] == ["label", "a", "b"]
    values = [[float(c) for c in row[1:]] for row in rows[1:]]
    assert values == [[1.0, 1.0], [1.0, 1.0]]


def test_antiparallel_off_diagonal():
    tau = vector_from({"w": [0.5, -1.5]})
    bundle = build_similarity_report([("t", tau), ("neg", scale_task_vector(tau, -1.0))])
    rows = parse_csv(bundle.tables[0].content)
    assert float(rows[1][2]) == -1.0
    assert b"-1.00" in bundle.figures[0].content


def test_csv_parse_back_reproduces_values_exactly(rng):
    vectors = []
    for i in range(3):
        vectors.append(
            (f"v{i}", vector_from({"w": rng.standard_normal(5).tolist()}))
        )
    bundle = build_similarity_report(vectors)
    from synvec.vector_ops import similarity_matrix

    matrix = similarity_matrix(vectors)
    rows = parse_csv(bundle.tables[0].content)
    for i in range(3):
        for j in range(3):
            assert float(rows[1 + i][1 + j]) == matrix.values[i, j]


def test_emitted_matrix_is_symmetric(rng):
    vectors = [
        (f"v{i}", vector_from({"w": rng.standard_normal(6).tolist()})) for i in range(4)
    ]
    rows = parse_csv(build_similarity_report(vectors).tables[0].content)
    values = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
    assert np.all(np.abs(values - values.T) <= 1e-12)


def test_similarity_bundle_is_deterministic():
    tau = vector_from({"w": [1.0, 0.25]})
    other = vector_from({"w": [0.5, 2.0]})
    one = build_similarity_report([("a", tau), ("b", other)])
    two = build_similarity_report([("a", tau), ("b", other)])
    assert [f.content for _, f in one.files()] == [f.content for _, f in two.files()]
    assert one.manifest_obj() == two.manifest_obj()


def test_per_tensor_similarity_reports_undefined_cells():
    a = vector_from({"u": [1.0], "z": [0.0]})
    b = vector_from({"u": [2.0], "z": [0.0]})
    bundle = build_similarity_report([("a", a), ("b", b)], granularity="per_tensor")
    names = [f.name for f in bundle.tables]
    assert sorted(names) == ["similarity_u.csv", "similarity_z.csv"]
    z_csv = next(f for f in bundle.tables if f.name == "similarity_z.csv")
    rows = parse_csv(z_csv.content)
    assert rows[1][1] == ""  # undefined, not a number
    z_svg = next(f for f in bundle.figures if f.name == "similarity_z.svg")
    assert b"n/a" in z_svg.content


def test_similarity_requires_two_vectors():
    with pytest.raises(ValidationError):
        build_similarity_report([("only", vector_from({"w": [1.0]}))])


def test_heatmap_annotates_two_decimals(rng):
    a = vector_from({"w": [1.0, 0.0]})
    b = vector_from({"w": [1.0, 1.0]})
    bundle = build_similarity_report([("a", a), ("b", b)])
    assert b">0.71<" in bundle.figures[0].content  # 1/sqrt(2) to 2 decimals


# --- sweep report ---


def test_single_point_sweep_report():
    bundle = build_sweep_report([sweep_result([(0.0, 12.5)])], ["only"])
    rows = parse_csv(bundle.tables[0].content)
    assert rows == [["lambda", "wer"], ["0.0", "12.5"]]
    assert bundle.figures[0].name == "sweep.svg"


def test_polyline_vertices_sorted_by_lambda_match_csv():
    result = sweep_result([(0.0, 5.0), (0.5, 2.0), (1.0, 4.0)])
    bundle = build_sweep_report([result], ["series"])
    svg = bundle.figures[0].content.decode("utf-8")
    start = svg.index('<polyline points="') + len('<polyline points="')
    coords = svg[start:svg.index('"', start)].split()
    xs = [float(pair.split(",")[0]) for pair in coords]
    assert xs == sorted(xs) and len(xs) == 3
    rows = parse_csv(bundle.tables[0].content)
    assert [row[0] for row in rows[1:]] == ["0.0", "0.5", "1.0"]


def test_two_identical_series_get_distinct_colors():
    result = sweep_result([(0.0, 3.0), (1.0, 1.0)])
    bundle = build_sweep_report([result, result], ["first", "second"])
    svg = bundle.figures[0].content.decode("utf-8")
    polylines = [line for line in svg.splitlines() if "<polyline" in line]
    assert len(polylines) == 2
    colors = {line.split('stroke="')[1].split('"')[0] for line in polylines}
    assert len(colors) == 2
    assert ">first<" in svg and ">second<" in svg


def test_sweep_report_label_count_mismatch():
    with pytest.raises(ValidationError):
        build_sweep_report([sweep_result([(0.0, 1.0)])], ["a", "b"])


# --- table report ---


def test_table_report_published_weather_cell():
    bundle = build_table_report({"Weather": 15.45}, {"Weather": 20.38})
    rows = parse_csv(bundle.tables[0].content)
    header, relative = rows[0], rows[3]
    cell = float(relative[header.index("Weather")])
    assert cell == pytest.approx(-31.91, abs=0.01)


def test_table_report_identical_maps_zero_relative():
    baseline = {"a": 10.0, "b": 20.0}
    bundle = build_table_report(baseline, dict(baseline))
    rows = parse_csv(bundle.tables[0].content)
    relative = rows[3]
    assert all(float(cell) == 0.0 for cell in relative[1:-1])


def test_table_report_average_is_mean_of_relatives():
    # relatives 10% and 20% -> average 15%
    baseline = {"x": 10.0, "y": 10.0}
    adapted = {"x": 9.0, "y": 8.0}
    bundle = build_table_report(baseline, adapted)
    rows = parse_csv(bundle.tables[0].content)
    header, relative = rows[0], rows[3]
    assert float(relative[header.index("average")]) == pytest.approx(15.0, abs=1e-12)
    # footnote column: relative change of the mean WERs, a different number
    rel_of_avg = float(relative[header.index("relative_of_averages")])
    assert rel_of_avg == pytest.approx(100 * (10 - 8.5) / 10, abs=1e-12)


def test_table_report_key_mismatch():
    with pytest.raises(ValidationError):
        build_table_report({"a": 1.0}, {"b": 1.0})


def test_table_report_non_positive_baseline():
    with pytest.raises(ValidationError):
        build_table_report({"a": 0.0}, {"a": 1.0})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_table_report_rejects_non_finite_wer(value):
    with pytest.raises(ValidationError, match="adapted WER of 'a' must be a finite"):
        build_table_report({"a": 10.0}, {"a": value})


# --- bundle writing ---


def test_bundle_writes_layout_and_manifest(tmp_path):
    tau = vector_from({"w": [1.0, 2.0]})
    bundle = build_similarity_report([("a", tau), ("b", scale_task_vector(tau, 2.0))],
                                     name="simtest")
    out_dir = bundle.write(tmp_path)
    assert out_dir == tmp_path / "simtest"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == {"similarity.csv", "similarity.svg"}
    for entry in manifest["files"]:
        blob = (out_dir / entry["name"]).read_bytes()
        import hashlib

        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
    assert manifest["created_at"] is not None
    assert manifest["tool_version"]


def test_regeneration_yields_identical_digests(tmp_path):
    tau = vector_from({"w": [0.5, 1.5]})
    vectors = [("a", tau), ("b", scale_task_vector(tau, -0.5))]
    first = build_similarity_report(vectors).write(tmp_path / "one")
    second = build_similarity_report(vectors).write(tmp_path / "two")
    m1 = json.loads((first / "similarity" / "manifest.json").read_text()
                    if (first / "similarity").exists() else (first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    digests = lambda m: {f["name"]: f["sha256"] for f in m["files"]}
    assert digests(m1) == digests(m2)


@pytest.mark.parametrize("names", [("a.csv", "a.csv"), ("manifest.json",)])
def test_bundle_refuses_a_file_name_it_would_write_twice(names):
    files = tuple(ReportFile(name, str(i).encode()) for i, name in enumerate(names))
    with pytest.raises(ValidationError, match=f"file {names[-1]!r} more than once"):
        ReportBundle(name="r", tables=files, figures=(), inputs={})


# --- golden bytes ---


def golden_similarity_vectors():
    """Three labeled vectors whose labels need XML escaping; tensor ``z`` has
    zero norm in the first vector only."""
    return [
        ("a<b", vector_from({"layer.w": [1.0, 2.0, -0.5], "z": [0.0, 0.0]})),
        ("c&d", vector_from({"layer.w": [0.25, 2.0, 1.5], "z": [1.0, -3.0]})),
        ("e>f", vector_from({"layer.w": [-1.0, 0.5, 0.5], "z": [2.0, 0.5]})),
    ]


def file_digests(bundle):
    return {f.name: f.sha256[:16] for _, f in bundle.files()}


# Pinned so that a refactor of the report path cannot change a byte unnoticed.
GOLDEN_DIGESTS = {
    "similarity_global": {"similarity.csv": "9b33a05b5af3f607",
                          "similarity.svg": "9d6d8c161b835da5"},
    "similarity_per_tensor": {
        "similarity_layer.w.csv": "804684197e25c3fd", "similarity_z.csv": "687b6a1f9d30a358",
        "similarity_layer.w.svg": "9e5e8f2c69f8b5ff", "similarity_z.svg": "b6e2e016b2d5b965"},
    "sweep": {"sweep_tts_real.csv": "7e77ccbcb1a72d6b", "sweep_single.csv": "38ed987fd4d114f8",
              "sweep.svg": "392e5f5647f1e229"},
    "table": {"table.csv": "25f7f543d31f9d5b"},
}


def golden_bundles():
    vectors = golden_similarity_vectors()
    return {
        "similarity_global": build_similarity_report(vectors),
        "similarity_per_tensor": build_similarity_report(vectors, granularity="per_tensor"),
        "sweep": build_sweep_report(
            [sweep_result([(0.0, 12.5), (0.5, 9.75), (1.0, 11.0)]), sweep_result([(0.5, 10.0)])],
            ["tts & real", "<single>"]),
        "table": build_table_report({"Weather": 15.45, "Music": 8.0},
                                    {"Weather": 20.38, "Music": 7.5}),
    }


@pytest.mark.parametrize("kind", sorted(GOLDEN_DIGESTS))
def test_report_bytes_are_pinned(kind):
    assert file_digests(golden_bundles()[kind]) == GOLDEN_DIGESTS[kind]
