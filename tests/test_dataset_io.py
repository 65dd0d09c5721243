"""File formats: feature container, manifests, canon, indices, reports."""

import dataclasses
import fnmatch
import gc
import hashlib
import inspect
import json
import os
import re
import stat
import struct
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import make_canon
from pdsr import (
    Dataset,
    EvalMode,
    EvalReport,
    FileFormatError,
    ProtocolConfig,
    Tracklet,
    evaluate,
    load_canon,
    load_dataset,
    report_to_dict,
    validate_dataset,
)
from pdsr import dataset_io
from pdsr.dataset_io import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    read_feature_matrix,
    read_synth_index,
    save_canon,
    save_dataset,
    save_report_csv,
    save_report_json,
    tsv_text,
    write_feature_matrix,
    write_json,
    write_pose_embeddings,
    write_synth_index,
)
from pdsr.evaluation import CMC_DEPTH, ProbeResult
from pdsr.generator import GenSpec, generate, load_gen_spec
from pdsr.model import DISTRACTOR, FrameRecord, PoseRecord, PoseVector
from pdsr.regulation import pose_normalize
from pdsr.seeding import rng_for


def f32(arr):
    return np.asarray(arr, dtype=np.float32).astype(np.float64)


# ------------------------------------------------------ feature matrix


def test_matrix_round_trip_is_float32_exact(tmp_path):
    rng = rng_for(0, "io")
    raw = rng.normal(size=(7, 5))
    path = tmp_path / "m.bin"
    write_feature_matrix(path, raw)
    loaded = read_feature_matrix(path)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded, f32(raw))
    # a second pass through the container is the identity
    write_feature_matrix(path, loaded)
    assert np.array_equal(read_feature_matrix(path), loaded)


def test_matrix_rejects_bad_magic_version_and_size(tmp_path):
    path = tmp_path / "m.bin"
    write_feature_matrix(path, np.ones((2, 3)))
    good = path.read_bytes()

    (tmp_path / "magic.bin").write_bytes(b"XXXX" + good[4:])
    with pytest.raises(FileFormatError, match="magic"):
        read_feature_matrix(tmp_path / "magic.bin")

    bad_version = _HEADER.pack(MAGIC, FORMAT_VERSION + 1, 2, 3) + good[_HEADER.size:]
    (tmp_path / "version.bin").write_bytes(bad_version)
    with pytest.raises(FileFormatError, match="version"):
        read_feature_matrix(tmp_path / "version.bin")

    (tmp_path / "short.bin").write_bytes(good[: _HEADER.size - 2])
    with pytest.raises(FileFormatError, match="truncated"):
        read_feature_matrix(tmp_path / "short.bin")

    (tmp_path / "cut.bin").write_bytes(good[:-4])
    with pytest.raises(FileFormatError, match="size"):
        read_feature_matrix(tmp_path / "cut.bin")

    (tmp_path / "extra.bin").write_bytes(good + b"\x00\x00\x00\x00")
    with pytest.raises(FileFormatError, match="size"):
        read_feature_matrix(tmp_path / "extra.bin")

    nan = good[: _HEADER.size + 16] + struct.pack("<f", float("nan")) + good[_HEADER.size + 20:]
    (tmp_path / "nan.bin").write_bytes(nan)
    with pytest.raises(FileFormatError, match="row 1 is not finite"):
        read_feature_matrix(tmp_path / "nan.bin")

    (tmp_path / "rows.bin").write_bytes(_HEADER.pack(MAGIC, FORMAT_VERSION, 2**64 - 1, 0))
    with pytest.raises(FileFormatError, match="cannot hold"):
        read_feature_matrix(tmp_path / "rows.bin")


def test_matrix_writer_rejects_nonfinite_and_wrong_rank(tmp_path):
    # 1e39 is finite in float64 but beyond float32, the type the file stores.
    for matrix in (np.array([[1.0, np.nan]]), np.ones(4), np.array([[1e39]])):
        with pytest.raises(ValueError):
            write_feature_matrix(tmp_path / "x.bin", matrix)
        assert not (tmp_path / "x.bin").exists()


# ------------------------------------------------------------ manifest


def grid_pose(k, rng):
    return PoseVector(joints=rng.uniform(0, 1, (k, 2)), visibility=np.ones(k, dtype=bool))


def single_tracklet_dataset():
    rng = rng_for(1, "io")
    frames = tuple(
        FrameRecord(i, f32(rng.normal(size=4)), grid_pose(5, rng)) for i in range(3)
    )
    t = Tracklet("t0", "id0", 0, frames, probe=True)
    return Dataset("one", 4, 5, 2, 1, (t,))


def assert_datasets_equal(a: Dataset, b: Dataset):
    """Equal field for field: strings and ints of one type, arrays bitwise of one dtype and shape."""
    def scalars(ds):
        fields = [ds.name, ds.feature_dim, ds.joint_count, ds.num_poses, ds.camera_count]
        return fields + [x for t in ds.tracklets for x in (t.tracklet_id, t.identity, t.camera, t.probe)]

    assert [(type(x), x) for x in scalars(a)] == [(type(x), x) for x in scalars(b)]
    for ta, tb in zip(a.tracklets, b.tracklets):
        for name in ("frame_ids", "features", "joints", "visibility"):
            x, y = getattr(ta.frames, name), getattr(tb.frames, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def test_single_tracklet_round_trip_bit_exact(tmp_path):
    ds = single_tracklet_dataset()
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    assert_datasets_equal(load_dataset(tmp_path / "m.json", tmp_path / "f.bin"), ds)


def test_500_tracklet_round_trip_object_for_object(tmp_path):
    ds = generate(
        GenSpec(identities=50, cameras=2, tracklets_per_identity_per_camera=5,
                frames_per_tracklet=(3, 5), feature_dim=16, num_poses=3, seed=5)
    ).dataset
    assert len(ds.tracklets) == 500
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    assert_datasets_equal(load_dataset(tmp_path / "m.json", tmp_path / "f.bin"), ds)


def test_dangling_row_reference_raises(tmp_path):
    ds = single_tracklet_dataset()
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["tracklets"][0]["frames"][0]["row"] = 99
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(FileFormatError, match="row 99"):
        load_dataset(tmp_path / "m.json", tmp_path / "f.bin")


def test_manifest_missing_field_raises(tmp_path):
    ds = single_tracklet_dataset()
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    manifest = json.loads((tmp_path / "m.json").read_text())
    del manifest["tracklets"][0]["identity"]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    with pytest.raises(FileFormatError, match="identity"):
        load_dataset(tmp_path / "m.json", tmp_path / "f.bin")


def test_manifest_dim_mismatch_raises(tmp_path):
    ds = single_tracklet_dataset()
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    write_feature_matrix(tmp_path / "f.bin", np.ones((3, 9)))
    with pytest.raises(FileFormatError, match="dimension"):
        load_dataset(tmp_path / "m.json", tmp_path / "f.bin")


def test_manifest_record_order_does_not_change_metrics(tmp_path, small_gen):
    save_dataset(small_gen.dataset, tmp_path / "m.json", tmp_path / "f.bin")
    manifest = json.loads((tmp_path / "m.json").read_text())
    manifest["tracklets"] = list(reversed(manifest["tracklets"]))
    for t in manifest["tracklets"]:
        t["frames"] = list(reversed(t["frames"]))
    (tmp_path / "r.json").write_text(json.dumps(manifest))

    straight = load_dataset(tmp_path / "m.json", tmp_path / "f.bin")
    reordered = load_dataset(tmp_path / "r.json", tmp_path / "f.bin")
    config = ProtocolConfig(seed=0)
    a = evaluate(straight, small_gen.canon, small_gen.provider, config, EvalMode.FUSED)
    b = evaluate(reordered, small_gen.canon, small_gen.provider, config, EvalMode.FUSED)
    assert report_to_dict(a) == report_to_dict(b)


def test_empty_dataset_round_trips(tmp_path):
    ds = Dataset("empty", 4, 5, 2, 0, ())
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    loaded = load_dataset(tmp_path / "m.json", tmp_path / "f.bin")
    assert loaded.tracklets == ()
    assert loaded.feature_dim == 4


#: Any text, lone surrogates included, and the strings a copy could get wrong.
ANY_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=4),
    st.sampled_from(["\x00", "a\x00", "a\x00\x00", "\ud800", "x\udfff", "\U0001f600", "\xe9", "a"]),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=ANY_TEXT, keys=st.lists(st.tuples(ANY_TEXT, ANY_TEXT), max_size=3))
@example(name="a\x00", keys=[("\ud800", "\U0001f600\x00"), ("b", "b")])
def test_ids_identities_and_name_round_trip_as_any_text(tmp_path, name, keys):
    rng = rng_for(3, "io")
    tracklets = tuple(
        Tracklet(tid, identity, 0, (FrameRecord(0, f32(rng.normal(size=2)), grid_pose(1, rng)),))
        for tid, identity in keys
    )
    ds = Dataset(name, 2, 1, 1, 1, tracklets)
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    loaded = load_dataset(tmp_path / "m.json", tmp_path / "f.bin")
    assert loaded.name == name
    assert [(t.tracklet_id, t.identity) for t in loaded.tracklets] == [
        (t.tracklet_id, t.identity) for t in ds.tracklets
    ]


@pytest.mark.parametrize("path", ["cold", "warm"])
def test_loaded_dataset_keeps_no_object_of_the_decoded_manifest(tmp_path, decodes, path):
    """Every kept str and int is allocated by the loader, none by the JSON decoder.

    One survivor of the decoded tree keeps the whole allocator arena it sits
    in resident, freed lists and floats included.  Ints from -5 to 256 are
    shared objects, so the feature dimension and one camera are above that.
    A warm load decodes the cache's JSON, so it is held to the same rule.
    """
    rng = rng_for(4, "io")
    tracklets = tuple(
        Tracklet(f"track-{c}", "ident-a", c, tuple(
            FrameRecord(i, f32(rng.normal(size=300)), grid_pose(5, rng)) for i in range(2)
        ))
        for c in (0, 300)
    )
    saved = Dataset("kept-name", 300, 5, 2, 301, tracklets)
    save_dataset(saved, tmp_path / "m.json", tmp_path / "f.bin")
    if path == "warm":
        load_dataset(tmp_path / "m.json", tmp_path / "f.bin")
    decodes.clear()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        ds = load_dataset(tmp_path / "m.json", tmp_path / "f.bin")
        kept = [ds.name, ds.feature_dim, ds.joint_count, ds.num_poses, ds.camera_count]
        kept += [x for t in ds.tracklets for x in (t.tracklet_id, t.identity, t.camera)]
        sources = [tracemalloc.get_object_traceback(x) for x in kept]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert decodes == ([] if path == "warm" else [tmp_path / "m.json"])
    decoder = os.path.join("json", "decoder.py")
    for x, source in zip(kept, sources):
        if isinstance(x, str) and len(x) > 1 or isinstance(x, int) and x > 256:  # not shared
            assert source is not None, x
            assert not any(frame.filename.endswith(decoder) for frame in source), x


# --------------------------------------------------------------- canon


def test_canon_round_trip(tmp_path):
    rng = rng_for(2, "io")
    canon = make_canon(rng.uniform(0, 1, (3, 5, 2)), rng.uniform(0, 1, (3, 5)) < 0.7)
    save_canon(canon, tmp_path / "c.json")
    loaded = load_canon(tmp_path / "c.json")
    assert len(loaded) == 3
    assert np.array_equal(loaded.joints, canon.joints)
    assert np.array_equal(loaded.visibility, canon.visibility)
    save_canon(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "c.json").read_bytes()


def test_canon_joint_count_mismatch_raises(tmp_path):
    payload = {
        "joint_count": 4,
        "poses": [[[0.1, 0.2, 1]] * 4, [[0.3, 0.4, 1]] * 5],
    }
    (tmp_path / "c.json").write_text(json.dumps(payload))
    with pytest.raises(FileFormatError, match="joints"):
        load_canon(tmp_path / "c.json")


@pytest.mark.parametrize("count", [True, -1, 1.0, "1", None])
def test_canon_joint_count_must_be_a_count(tmp_path, count):
    _, load = _canon_with(tmp_path, {"joint_count": count, "poses": [[[0.1, 0.2, 1]]]})
    with pytest.raises(FileFormatError, match=re.escape(f"joint_count {count!r} is not a count")):
        load()


# --------------------------------------------------------- synth index


def test_synth_index_round_trip(tmp_path):
    index = {("b", 2): 1, ("a", 1): 0, ("a", 3): 2}
    write_synth_index(index, tmp_path / "i.tsv")
    assert read_synth_index(tmp_path / "i.tsv") == index
    lines = (tmp_path / "i.tsv").read_text().splitlines()
    assert lines == ["a\t1\t0", "a\t3\t2", "b\t2\t1"]
    crlf = (tmp_path / "i.tsv").read_bytes().replace(b"\n", b"\r\n")
    (tmp_path / "crlf.tsv").write_bytes(crlf)
    assert read_synth_index(tmp_path / "crlf.tsv") == index


@pytest.mark.parametrize(
    "line, match",
    [
        ("a\t1", "3 tab-separated"),
        ("a\tx\t0", "non-integer"),
        ("a\t0\t0", "out of range"),
        ("a\t1\t-1", "out of range"),
        ("a\t1\t0\na\t1\t1", "duplicate"),
        ("a\t01\t0", "plain integer"),
        ("a\t+1\t0", "plain integer"),
        ("a\t1\t 0", "plain integer"),
        ("a\t1\t1_0", "plain integer"),
        ("a\t1\t0\r\r", "carriage return"),
        ("a\rb\t1\t0", "carriage return"),
    ],
)
def test_synth_index_malformed_lines_raise(tmp_path, line, match):
    (tmp_path / "i.tsv").write_text(line + "\n")
    with pytest.raises(FileFormatError, match=match):
        read_synth_index(tmp_path / "i.tsv")


def test_synth_index_rejects_tab_in_id(tmp_path):
    with pytest.raises(ValueError):
        write_synth_index({("a\tb", 1): 0}, tmp_path / "i.tsv")


def test_tsv_text_spells_fields_by_str_and_names_a_field_it_cannot_write():
    assert tsv_text([]) == ""
    assert tsv_text([("a", 1, 0.1, "-"), ("b", 2, 1 / 3, 7)]) == f"a\t1\t0.1\t-\nb\t2\t{1 / 3!r}\t7\n"
    for bad in ("x\ty", "x\ny", "x\ry", "\r"):
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} cannot contain tab, newline")):
            tsv_text([("a", 1), (2, bad)])


def test_pose_embedding_export_refuses_an_id_even_without_an_observed_pose(tmp_path):
    record = PoseRecord(("a", "b\tc"), (0, 0).__getitem__, np.zeros((2, 2)), np.zeros((2, 1, 2)),
                        np.ones((2, 1)), np.array([[True], [False]]))
    with pytest.raises(ValueError, match="cannot contain tab"):
        write_pose_embeddings(record, tmp_path / "e.tsv", tmp_path / "e.bin")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("entry", [
    (("a", 0), 0), (("b", 1), -2), (("a", True), 0), (("a", 1.0), 0), (("a", 1), False),
])
def test_synth_index_writer_refuses_what_its_reader_refuses(tmp_path, entry):
    key, row = entry
    with pytest.raises(ValueError, match="pose must be an integer >= 1 and row an integer >= 0"):
        write_synth_index({("z", 1): 0, key: row}, tmp_path / "i.tsv")
    assert not (tmp_path / "i.tsv").exists()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tid=st.text(max_size=5))
@example(tid="a\rb")
@example(tid="a\r")
@example(tid="a\tb")
@example(tid="a\nb")
@example(tid="")
@example(tid="b")
def test_indexes_round_trip_any_tracklet_id_or_refuse_it(tmp_path, tid):
    index = {(tid, 1): 0, ("b", 2): 1}
    record = PoseRecord((tid, "b"), (0, 0).__getitem__, np.zeros((2, 2)), np.ones((2, 1, 2)),
                        np.ones((2, 1)), np.ones((2, 1), dtype=bool))
    # "b" twice would list ("b", 1) twice in the pose-embedding index
    writable = not any(c in tid for c in "\t\n\r") and tid != "b"
    try:
        write_synth_index(index, tmp_path / "i.tsv")
        write_pose_embeddings(record, tmp_path / "e.tsv", tmp_path / "e.bin")
    except ValueError:
        assert not writable
        return
    assert writable
    assert read_synth_index(tmp_path / "i.tsv") == index
    lines = (tmp_path / "e.tsv").read_bytes().decode("utf-8").split("\n")
    assert [line.split("\t") for line in lines] == [
        [t, "1", "real", "1.0", str(row)] for row, t in enumerate(sorted([tid, "b"]))
    ] + [[""]]


# ----------------------------------------------------- pose embeddings


def test_pose_embedding_export_round_trip(tmp_path, small_gen):
    tracklets = small_gen.dataset.tracklets[:3]
    record = pose_normalize(tracklets[::-1], small_gen.canon, 0)  # rows out of id order
    write_pose_embeddings(record, tmp_path / "e.tsv", tmp_path / "e.bin")
    lines = (tmp_path / "e.tsv").read_bytes().decode("utf-8").split("\n")
    matrix = read_feature_matrix(tmp_path / "e.bin")

    expected, vectors = [], []
    for tid in sorted(record.tracklet_ids):
        row = record.tracklet_ids.index(tid)
        for pose in small_gen.canon.indices:
            if record.observed[row, pose - 1]:
                freq = record.frequencies[row, pose - 1].item()
                expected.append((tid, str(pose), "real", repr(freq), str(len(expected))))
                vectors.append(record.vectors[row, pose - 1])
    assert lines.pop() == ""  # each line ends in a newline
    assert [tuple(line.split("\t")) for line in lines] == expected
    assert np.array_equal(matrix, f32(vectors))


@pytest.fixture(scope="module")
def written_pose_index(noisy_gen, tmp_path_factory):
    """(record, tab-split lines, matrix) of a pose index and matrix written from a record with unobserved poses."""
    root = tmp_path_factory.mktemp("pose-index")
    record = pose_normalize(noisy_gen.dataset.tracklets[::-1], noisy_gen.canon, 0)
    assert not record.observed.all()
    write_pose_embeddings(record, root / "e.tsv", root / "e.bin")
    lines = (root / "e.tsv").read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""  # each line ends in a newline
    return record, [line.split("\t") for line in lines], read_feature_matrix(root / "e.bin")


def _pose_index_tracklets(record, rows):
    return [t for t, *_ in rows] == sorted(t for t, *_ in rows) and {t for t, *_ in rows} == set(record.tracklet_ids)


def _pose_index_poses(record, rows):
    keys = [(t, int(j)) for t, j, *_ in rows]
    observed = {(t, j + 1) for i, t in enumerate(record.tracklet_ids) for j in np.flatnonzero(record.observed[i])}
    return all(j == str(int(j)) for _, j, *_ in rows) and keys == sorted(observed)


def _pose_index_frequencies(record, rows):
    freqs = [f for *_, f, _ in rows]
    totals = {}
    for (t, *_), f in zip(rows, map(float, freqs)):
        totals[t] = totals.get(t, 0.0) + f
    return (all(f == repr(float(f)) and 0.0 < float(f) <= 1.0 for f in freqs)
            and all(abs(v - 1.0) < 1e-12 for v in totals.values()))


#: Field -> what every line `write_pose_embeddings` writes holds there (record, tab-split lines, matrix).
POSE_INDEX_FIELD_CHECKS = {
    "tracklet_id": lambda record, rows, matrix: _pose_index_tracklets(record, rows),
    "pose": lambda record, rows, matrix: _pose_index_poses(record, rows),
    "origin": lambda record, rows, matrix: all(o == "real" for _, _, o, *_ in rows),
    "frequency": lambda record, rows, matrix: _pose_index_frequencies(record, rows),
    "row": lambda record, rows, matrix: [r for *_, r in rows] == [str(i) for i in range(len(matrix))],
}


@pytest.mark.parametrize("field", list(POSE_INDEX_FIELD_CHECKS))
def test_written_pose_index_holds_each_field_as_the_format_says(written_pose_index, field):
    """Each line is (tracklet, pose, `real`, frequency, row), sorted; a tracklet's frequencies sum to 1."""
    record, rows, matrix = written_pose_index
    assert all(len(row) == 5 for row in rows)
    assert POSE_INDEX_FIELD_CHECKS[field](record, rows, matrix) is True


def test_pose_embedding_export_requires_entries(tmp_path):
    empty = PoseRecord((), ().__getitem__, np.zeros((0, 2)), np.zeros((0, 3, 2)), np.zeros((0, 3)),
                       np.zeros((0, 3), dtype=bool))
    with pytest.raises(ValueError):
        write_pose_embeddings(empty, tmp_path / "e.tsv", tmp_path / "e.bin")
    assert not list(tmp_path.iterdir())


def test_pose_embedding_export_without_an_observed_pose_writes_neither_file(tmp_path):
    unobserved = PoseRecord(("a", "b"), (0, 0).__getitem__, np.zeros((2, 2)), np.zeros((2, 3, 2)),
                            np.zeros((2, 3)), np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="no pose entries to export"):
        write_pose_embeddings(unobserved, tmp_path / "e.tsv", tmp_path / "e.bin")
    assert not list(tmp_path.iterdir())


# -------------------------------------------------------------- report


def random_report(rng) -> EvalReport:
    cams = tuple(range(int(rng.integers(1, 4))))
    n = int(rng.integers(1, 6))
    results = []
    for i in range(n):
        scored = bool(rng.integers(2))
        results.append(
            ProbeResult(
                probe_id=f"t{i}",
                identity=f"id{i}",
                camera=int(rng.integers(len(cams))),
                gallery_size=int(rng.integers(1, 20)),
                num_positives=int(rng.integers(0, 3)),
                first_correct_rank=int(rng.integers(1, 10)) if scored else None,
                ap=float(rng.uniform()) if scored else None,
            )
        )
    scored = [r for r in results if r.ap is not None]
    return EvalReport(
        mode=str(rng.choice(["baseline", "wf", "wpr", "wf+wpr"])),
        num_probes=n,
        num_scored=len(scored),
        mean_ap=float(rng.uniform()) if scored else None,
        cmc=tuple(float(x) for x in np.sort(rng.uniform(size=3))) if scored else (),
        camera_ids=cams,
        camera_pair_map=tuple(
            tuple(float(rng.uniform()) if rng.integers(2) else None for _ in cams)
            for _ in cams
        ),
        probe_results=tuple(results),
    )


def test_report_json_round_trip_100_random(tmp_path):
    rng = rng_for(3, "io")
    for i in range(100):
        report = random_report(rng)
        path = tmp_path / f"r{i}.json"
        save_report_json(report, path)
        assert json.loads(path.read_text(encoding="utf-8")) == report_to_dict(report)


UNSCORED_REPORT = EvalReport(
    mode="wf+wpr", num_probes=2, num_scored=0, mean_ap=None, cmc=(), camera_ids=(0, 3),
    camera_pair_map=((None, None), (None, None)),
    probe_results=(ProbeResult("t0", "id0", 0, 4, 0, None, None),
                   ProbeResult("t1", "id1", 3, 4, 0, None, None)),
)


def test_report_json_keys_are_the_report_fields():
    d = report_to_dict(random_report(rng_for(5, "io")))
    assert set(d) == {f.name for f in dataclasses.fields(EvalReport)}
    for r in d["probe_results"]:
        assert set(r) == {f.name for f in dataclasses.fields(ProbeResult)}


@pytest.mark.parametrize("report", [random_report(rng_for(6, "io")), UNSCORED_REPORT],
                         ids=["random", "unscored"])
def test_report_json_round_trip_equals_the_report(tmp_path, report):
    save_report_json(report, tmp_path / "r.json")
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8")) == report_to_dict(report)


def test_report_json_keeps_full_float_precision(tmp_path):
    report = random_report(rng_for(4, "io"))
    save_report_json(report, tmp_path / "r.json")
    loaded = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert loaded["mean_ap"] == report.mean_ap  # bitwise, not approximately
    assert loaded["cmc"] == list(report.cmc)


def test_report_json_keeps_cameras_of_any_sign_and_size(tmp_path):
    """A camera is any integer, as in a manifest, and the written report keeps it exactly."""
    report = dataclasses.replace(
        UNSCORED_REPORT, camera_ids=(-3, 2**63),
        probe_results=tuple(dataclasses.replace(r, camera=c) for r, c in zip(UNSCORED_REPORT.probe_results,
                                                                              (-3, 2**63))))
    save_report_json(report, tmp_path / "r.json")
    loaded = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    assert loaded == report_to_dict(report)
    assert loaded["camera_ids"] == [-3, 2**63] and type(loaded["camera_ids"][1]) is int


@pytest.fixture(scope="module")
def written_reports(tmp_path_factory):
    """(dataset, JSON) of every report `evaluate` writes in each mode, for scored, partly and wholly unscored probes."""
    gen = generate(GenSpec(identities=6, cameras=3, tracklets_per_identity_per_camera=2, num_poses=3,
                           feature_dim=8, pose_effect_scale=0.5, noise_sigma=1.5,
                           pose_visibility=((1, 2), (2, 3), (1, 3)), seed=21, distractors=3))
    ds = gen.dataset
    first = next(t.identity for t in ds.tracklets if not t.is_distractor)
    datasets = (
        ds,
        dataclasses.replace(ds, tracklets=tuple(t for t in ds.tracklets  # `first` seen by one camera
                                                if t.identity != first or t.camera == 0)),
        dataclasses.replace(ds, tracklets=tuple(t for t in ds.tracklets if t.camera == 0)),
    )
    out = []
    for i, dataset in enumerate(datasets):
        for mode in EvalMode:
            path = tmp_path_factory.mktemp("reports") / f"{i}-{mode.name}.json"
            save_report_json(evaluate(dataset, gen.canon, gen.provider, ProtocolConfig(), mode), path)
            out.append((dataset, mode, json.loads(path.read_text(encoding="utf-8"))))
    return out


def _is_int(value, low=0, high=float("inf")):
    return type(value) is int and low <= value <= high


def _is_fraction(value):
    return type(value) is float and 0.0 <= value <= 1.0


def _check_mean_ap(d, dataset, mode):
    aps = [r["ap"] for r in d["probe_results"] if r["ap"] is not None]
    return d["mean_ap"] is None if not aps else d["mean_ap"] == sum(aps) / len(aps) and _is_fraction(d["mean_ap"])


def _check_cmc(d, dataset, mode):
    cmc = d["cmc"]
    return (type(cmc) is list and len(cmc) <= CMC_DEPTH and (not cmc) == (d["num_scored"] == 0)
            and all(_is_fraction(v) for v in cmc) and cmc == sorted(cmc))


def _check_camera_pair_map(d, dataset, mode):
    size = len(d["camera_ids"])
    return (type(d["camera_pair_map"]) is list and len(d["camera_pair_map"]) == size
            and all(type(row) is list and len(row) == size and all(v is None or _is_fraction(v) for v in row)
                    for row in d["camera_pair_map"]))


def _check_probe_results(d, dataset, mode):
    return (type(d["probe_results"]) is list and len(d["probe_results"]) == d["num_probes"]
            and all(set(r) == {f.name for f in dataclasses.fields(ProbeResult)} for r in d["probe_results"])
            and len({r["probe_id"] for r in d["probe_results"]}) == d["num_probes"])


def _per_probe(check):
    """A check that holds for each probe result `r`, given its tracklet `t` and the other cameras' tracklets."""
    def run(d, dataset, mode):
        by_id = dataset.by_id()
        return all(check(r, by_id.get(r["probe_id"]), [u for u in dataset.tracklets if u.camera != r["camera"]])
                   for r in d["probe_results"])
    return run


#: Field -> what every report `evaluate` writes holds there (dict, dataset, mode).
REPORT_FIELD_CHECKS = {
    "mode": lambda d, dataset, mode: d["mode"] == mode.value,
    "num_probes": lambda d, dataset, mode: _is_int(d["num_probes"], 1),
    "num_scored": lambda d, dataset, mode: (
        _is_int(d["num_scored"], 0, d["num_probes"])
        and d["num_scored"] == sum(r["ap"] is not None for r in d["probe_results"])),
    "mean_ap": _check_mean_ap,
    "cmc": _check_cmc,
    "camera_ids": lambda d, dataset, mode: (
        d["camera_ids"] == sorted({t.camera for t in dataset.tracklets})
        and all(_is_int(c, -float("inf")) for c in d["camera_ids"])),
    "camera_pair_map": _check_camera_pair_map,
    "probe_results": _check_probe_results,
    "probe_id": _per_probe(lambda r, t, gallery: type(r["probe_id"]) is str and t is not None),
    "identity": _per_probe(lambda r, t, gallery: r["identity"] == t.identity != DISTRACTOR),
    "camera": _per_probe(lambda r, t, gallery: _is_int(r["camera"], -float("inf")) and r["camera"] == t.camera),
    "gallery_size": _per_probe(lambda r, t, gallery: _is_int(r["gallery_size"], len(gallery), len(gallery))),
    "num_positives": _per_probe(lambda r, t, gallery: _is_int(
        r["num_positives"], 0, r["gallery_size"]) and r["num_positives"] == sum(
        u.identity == r["identity"] for u in gallery)),
    "first_correct_rank": _per_probe(lambda r, t, gallery: (
        r["first_correct_rank"] is None if not r["num_positives"]
        else _is_int(r["first_correct_rank"], 1, r["gallery_size"] - r["num_positives"] + 1))),
    "ap": _per_probe(lambda r, t, gallery: (
        r["ap"] is None if not r["num_positives"] else _is_fraction(r["ap"]) and r["ap"] > 0)),
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EvalReport)]
                         + [f.name for f in dataclasses.fields(ProbeResult)])
def test_written_report_holds_each_field_as_a_report_holds_it(written_reports, field):
    """What a report reader may rely on: each field's type and range in every file `evaluate` writes."""
    assert {d["num_scored"] for _, _, d in written_reports} >= {0, 5, 6}  # none, some and all scored
    check = REPORT_FIELD_CHECKS[field]
    for dataset, mode, d in written_reports:
        assert check(d, dataset, mode) is True, (mode, field, d)


def test_report_csv_writes_null_markers_and_exact_floats(tmp_path):
    report = EvalReport(
        mode="wf",
        num_probes=2,
        num_scored=1,
        mean_ap=0.123456789012345678,
        cmc=(0.5, 1.0),
        camera_ids=(0, 1),
        camera_pair_map=((0.25, None), (None, 1.0)),
        probe_results=(
            ProbeResult("t0", "id0", 0, 5, 1, 2, 0.75),
            ProbeResult("t1", "id1", 1, 5, 0, None, None),
        ),
    )
    save_report_csv(report, tmp_path / "r.csv")
    text = (tmp_path / "r.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "section,key,value"
    assert f"summary,mean_ap,{report.mean_ap!r}" in lines
    assert float(repr(report.mean_ap)) == report.mean_ap  # >= 12 significant digits
    assert "camera_pair_map,0->1,null" in lines
    assert "camera_pair_map,1->1,1.0" in lines
    assert "probe,t1.first_correct_rank,null" in lines
    assert "probe,t1.ap,null" in lines
    assert "cmc,1,0.5" in lines


# ------------------------------------------------------ malformed input


def _manifest_with(tmp_path, edit, **fields):
    save_dataset(single_tracklet_dataset(), tmp_path / "m.json", tmp_path / "f.bin")
    manifest = json.loads((tmp_path / "m.json").read_text())
    edit(manifest["tracklets"][0])
    manifest.update(fields)
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return tmp_path / "m.json", lambda: load_dataset(tmp_path / "m.json", tmp_path / "f.bin")


def _set_keypoint(tracklet, value, field=0):
    tracklet["frames"][0]["keypoints"][0][field] = value


def _canon_with(tmp_path, payload):
    (tmp_path / "c.json").write_text(json.dumps(payload))
    return tmp_path / "c.json", lambda: load_canon(tmp_path / "c.json")


def _bytes_file(tmp_path, name, data, reader):
    (tmp_path / name).write_bytes(data)
    return tmp_path / name, lambda: reader(tmp_path / name)


def _gen_spec_with(tmp_path, **fields):
    write_json(tmp_path / "spec.json", dataclasses.asdict(GenSpec()))
    payload = json.loads((tmp_path / "spec.json").read_text())
    payload.update(fields)
    (tmp_path / "spec.json").write_text(json.dumps(payload))
    return tmp_path / "spec.json", lambda: load_gen_spec(tmp_path / "spec.json")


NON_UTF8 = b'{"name": "\xff"}\n'
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000  # beyond the decoder's recursion limit


def _gen_spec_repeating(tmp_path, key):
    write_json(tmp_path / "spec.json", dataclasses.asdict(GenSpec()))
    raw = (tmp_path / "spec.json").read_bytes()
    (tmp_path / "spec.json").write_bytes(raw.replace(b"{", b'{"%s": 5, ' % key.encode(), 1))
    return tmp_path / "spec.json", lambda: load_gen_spec(tmp_path / "spec.json")

MALFORMED_INPUTS = {
    "keypoint-string": lambda tmp: _manifest_with(tmp, lambda t: _set_keypoint(t, "abc")),
    "keypoint-list": lambda tmp: _manifest_with(tmp, lambda t: _set_keypoint(t, [1, 2])),
    "keypoint-numeric-string": lambda tmp: _manifest_with(tmp, lambda t: _set_keypoint(t, "0.5")),
    "keypoint-bool": lambda tmp: _manifest_with(tmp, lambda t: _set_keypoint(t, True)),
    "keypoint-four-fields": lambda tmp: _manifest_with(
        tmp, lambda t: t["frames"][0]["keypoints"][0].append(0.0)
    ),
    "visibility-string": lambda tmp: _manifest_with(tmp, lambda t: _set_keypoint(t, "no", 2)),
    "visibility-two": lambda tmp: _manifest_with(tmp, lambda t: _set_keypoint(t, 2, 2)),
    "keypoint-missing": lambda tmp: _manifest_with(
        tmp, lambda t: t["frames"][1]["keypoints"].pop()
    ),
    "probe-string": lambda tmp: _manifest_with(tmp, lambda t: t.update(probe="false")),
    "fractional-row": lambda tmp: _manifest_with(tmp, lambda t: t["frames"][0].update(row=1.5)),
    "string-frame-id": lambda tmp: _manifest_with(
        tmp, lambda t: t["frames"][0].update(frame_id="x")
    ),
    "integer-tracklet-id": lambda tmp: _manifest_with(tmp, lambda t: t.update(tracklet_id=5)),
    "string-camera": lambda tmp: _manifest_with(tmp, lambda t: t.update(camera="0")),
    # the manifest is decoded before the feature file is opened
    "manifest-not-utf8": lambda tmp: _bytes_file(
        tmp, "m.json", NON_UTF8, lambda path: load_dataset(path, path)
    ),
    "canon-not-utf8": lambda tmp: _bytes_file(tmp, "c.json", NON_UTF8, load_canon),
    "synth-index-not-utf8": lambda tmp: _bytes_file(
        tmp, "i.tsv", b"a\t1\t0\n\xff\t2\t1\n", read_synth_index
    ),
    "canon-without-joint-count": lambda tmp: _canon_with(tmp, {"poses": [[[0.1, 0.2, 1]]]}),
    "canon-without-poses": lambda tmp: _canon_with(tmp, {"joint_count": 1, "poses": []}),
    "canon-empty-pose": lambda tmp: _canon_with(tmp, {"joint_count": 1, "poses": [[]]}),
    "canon-joint-count-bool": lambda tmp: _canon_with(
        tmp, {"joint_count": True, "poses": [[[0.1, 0.2, 1]]]}
    ),
    "canon-joint-count-negative": lambda tmp: _canon_with(tmp, {"joint_count": -1, "poses": []}),
    "joint-count-beyond-numpy": lambda tmp: _manifest_with(
        tmp, lambda t: t.update(frames=[]), joint_count=10**30
    ),
    "num-poses-string": lambda tmp: _manifest_with(tmp, lambda t: None, num_poses="eight"),
    "num-poses-negative": lambda tmp: _manifest_with(tmp, lambda t: None, num_poses=-3),
    "camera-count-null": lambda tmp: _manifest_with(tmp, lambda t: None, camera_count=None),
    "name-integer": lambda tmp: _manifest_with(tmp, lambda t: None, name=7),
    "feature-dim-float": lambda tmp: _manifest_with(tmp, lambda t: None, feature_dim=4.0),
    "canon-visibility-string": lambda tmp: _canon_with(
        tmp, {"joint_count": 1, "poses": [[[0.1, 0.2, "no"]]]}
    ),
    "gen-spec-one-identity": lambda tmp: _gen_spec_with(tmp, identities=1),
    "gen-spec-repeated-key": lambda tmp: _gen_spec_repeating(tmp, "seed"),
    "manifest-too-deep": lambda tmp: _bytes_file(
        tmp, "m.json", DEEP_JSON, lambda path: load_dataset(path, path)
    ),
    "canon-too-deep": lambda tmp: _bytes_file(tmp, "c.json", DEEP_JSON, load_canon),
    "gen-spec-too-deep": lambda tmp: _bytes_file(tmp, "spec.json", DEEP_JSON, load_gen_spec),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_raises_file_format_error(tmp_path, case):
    path, load = MALFORMED_INPUTS[case](tmp_path)
    with pytest.raises(FileFormatError) as exc:
        load()
    assert str(path) in str(exc.value)


# ------------------------------------------------------- manifest fuzzer

#: One value of each JSON type; a swap replaces a value by one of another type.
JSON_VALUES = (None, True, 0, 1.5, "x", [], {})


def _json_paths(node, path=()):
    """Every (container path, key) pair of a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _json_paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, data, rows):
    """Apply one drawn mutation to a decoded manifest, in place."""
    frames = [f for t in doc["tracklets"] for f in t["frames"]]
    kind = data.draw(st.sampled_from(["delete", "swap", "triple", "keypoint", "row"]))
    if kind in ("delete", "swap"):
        keyed = [(p, k) for p, k in _json_paths(doc) if kind == "swap" or isinstance(k, str)]
        path, key = data.draw(st.sampled_from(keyed))
        parent = _at(doc, path)
        if kind == "delete":
            del parent[key]
        else:
            old = type(parent[key])
            parent[key] = data.draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not old]))
        return
    frame = data.draw(st.sampled_from(frames))
    if kind == "row":
        frame["row"] = data.draw(st.sampled_from([-1, rows, rows + 7, 2**70]))
        return
    keypoints = frame["keypoints"]
    target = data.draw(st.sampled_from(keypoints)) if kind == "triple" else keypoints
    if data.draw(st.booleans()):
        target.pop()
    else:
        target.append(list(keypoints[0]) if kind == "keypoint" else 0.5)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_manifest_loads_or_names_the_manifest(tmp_path, data):
    ds = single_tracklet_dataset()
    save_dataset(ds, tmp_path / "m.json", tmp_path / "f.bin")
    doc = json.loads((tmp_path / "m.json").read_text())
    _mutate(doc, data, rows=3)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    try:
        load_dataset(tmp_path / "bad.json", tmp_path / "f.bin")
    except FileFormatError as exc:
        assert str(tmp_path / "bad.json") in str(exc)


# -------------------------------------------- the benchmark's use of pdsr


def test_dataset_rebuilt_from_frame_objects_saves_loads_and_validates(tmp_path, small_gen):
    # Built the way the benchmark hides joints: new FrameRecord, PoseVector
    # and Tracklet objects, swapped into the dataset with dataclasses.replace.
    k = small_gen.dataset.joint_count
    vis = np.zeros(k, dtype=bool)
    vis[:3] = True
    tracklets = tuple(
        Tracklet(t.tracklet_id, t.identity, t.camera, tuple(
            FrameRecord(f.frame_id, f.feature, PoseVector(f.pose.joints, vis)) if i % 2 else f
            for i, f in enumerate(t.frames)
        ), t.probe)
        for t in small_gen.dataset.tracklets
    )
    dataset = dataclasses.replace(small_gen.dataset, tracklets=tracklets)
    save_dataset(dataset, tmp_path / "m.json", tmp_path / "f.bin")
    loaded = load_dataset(tmp_path / "m.json", tmp_path / "f.bin")
    assert_datasets_equal(loaded, dataset)

    # validate_dataset takes the tracklets first, and their frames count
    # every frame of the dataset once.
    first = next(iter(inspect.signature(validate_dataset).parameters.values()))
    assert first.name == "tracklets" and first.kind is first.POSITIONAL_OR_KEYWORD
    assert validate_dataset(loaded.tracklets, small_gen.canon, expected_dim=loaded.feature_dim,
                            expected_joints=loaded.joint_count) == []
    assert sum(len(t.frames) for t in loaded.tracklets) == sum(
        len(t.frames) for t in dataset.tracklets
    ) == read_feature_matrix(tmp_path / "f.bin").shape[0]


# ------------------------------------------------ the paused collector


def _collections_during(call) -> list[int]:
    """Generations of the cyclic collections that run inside call()."""
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()  # start from empty young generations
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return generations


@pytest.fixture
def saved(tmp_path, small_gen):
    """(manifest, features) of a dataset that decodes to 1,800 lists and dicts.

    That is more than the collector's default gen-0 threshold of 700, so a
    decode with the collector on runs it.
    """
    save_dataset(small_gen.dataset, tmp_path / "m.json", tmp_path / "f.bin")
    return tmp_path / "m.json", tmp_path / "f.bin"


def test_load_dataset_runs_no_collection(saved):
    assert gc.isenabled()
    assert _collections_during(lambda: load_dataset(*saved)) == []
    # With the collector on, decoding the same manifest does collect.
    assert _collections_during(lambda: json.loads(saved[0].read_text())) != []


@pytest.mark.parametrize("case", ["on", "off", "malformed"])
def test_load_dataset_restores_the_callers_collector_setting(saved, case):
    if case == "malformed":
        manifest = json.loads(saved[0].read_text())
        manifest["tracklets"][0]["probe"] = "yes"
        saved[0].write_text(json.dumps(manifest))
    on = case != "off"
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        if case == "malformed":
            with pytest.raises(FileFormatError):
                load_dataset(*saved)
        else:
            load_dataset(*saved)
        assert gc.isenabled() is on
    finally:
        (gc.enable if was else gc.disable)()


def test_the_collector_is_paused_for_the_decode_alone(saved, monkeypatch):
    """Paused while a cold load decodes the JSON; on while it reads the features, and on a warm load."""
    states = []
    for name in ("read_json", "read_feature_matrix"):
        def spy(*args, _read=getattr(dataset_io, name), _name=name, **kwargs):
            states.append((_name, gc.isenabled()))
            return _read(*args, **kwargs)

        monkeypatch.setattr(dataset_io, name, spy)
    assert gc.isenabled()
    load_dataset(*saved)
    load_dataset(*saved)
    assert states == [("read_json", False), ("read_feature_matrix", True), ("read_feature_matrix", True)]


def test_concurrent_loads_leave_the_collector_on(saved):
    assert gc.isenabled()
    with ThreadPoolExecutor(max_workers=2) as pool:
        loaded = list(pool.map(lambda _: load_dataset(*saved), range(8)))
    assert gc.isenabled()
    assert all(len(d.tracklets) == len(loaded[0].tracklets) for d in loaded)


# ------------------------------------------------------ the decode cache


@pytest.fixture
def decodes(monkeypatch):
    """The manifest paths `load_dataset` decodes as JSON (its cache misses), in order."""
    calls = []
    decode = dataset_io._decode_manifest

    def counting(manifest_path, raw):
        calls.append(manifest_path)
        return decode(manifest_path, raw)

    monkeypatch.setattr(dataset_io, "_decode_manifest", counting)
    return calls


def _cache_of(manifest):
    return manifest.with_name(manifest.name + dataset_io._CACHE_SUFFIX)


#: Cameras and counts of any size: a JSON integer beyond int64 is a valid camera.
BIG_INTS = st.one_of(st.integers(-3, 300), st.sampled_from([2**63 - 1, 2**63, 2**63 + 1, 2**70]))
COORDINATES = st.one_of(st.floats(), st.integers(-2, 2))


@st.composite
def manifest_docs(draw):
    """(manifest as decoded JSON, rows of the feature matrix it references) of a loadable manifest.

    Tracklets may be empty and list frame ids out of order or more than
    once; ids, identities and the name may be any text; cameras may exceed
    int64; the probe flag may be missing, true or false; rows are a
    permutation of the feature matrix.
    """
    k = draw(st.integers(0, 2))
    frame_ids = draw(st.lists(st.lists(st.integers(-2, 3), max_size=3), max_size=3))
    rows = draw(st.permutations(range(sum(map(len, frame_ids)))))

    def keypoint():
        return [draw(COORDINATES), draw(COORDINATES), draw(st.sampled_from([0, 1]))]

    tracklets = []
    for ids in frame_ids:
        frames = [{"frame_id": i, "row": rows.pop(), "keypoints": [keypoint() for _ in range(k)]} for i in ids]
        t = {"tracklet_id": draw(ANY_TEXT), "identity": draw(ANY_TEXT), "camera": draw(BIG_INTS), "frames": frames}
        probe = draw(st.sampled_from([None, True, False]))
        if probe is not None:
            t["probe"] = probe
        tracklets.append(t)
    count = BIG_INTS.filter(lambda x: x >= 0)
    doc = {"name": draw(ANY_TEXT), "feature_dim": 2, "joint_count": k, "num_poses": draw(count),
           "camera_count": draw(count), "tracklets": tracklets}
    return doc, sum(map(len, frame_ids))


def _features(tmp_path, rows: int) -> dict:
    """Feature files for a manifest referencing `rows` rows: the right one and three bad ones."""
    matrix = np.arange(rows * 2).reshape(rows, 2) / 7
    write_feature_matrix(tmp_path / "f.bin", matrix)
    write_feature_matrix(tmp_path / "f-dim.bin", np.ones((rows, 3)))
    write_feature_matrix(tmp_path / "f-rows.bin", matrix[:-1])
    (tmp_path / "f-cut.bin").write_bytes((tmp_path / "f.bin").read_bytes()[:-1])
    return {name: tmp_path / f"{name}.bin" for name in ("f", "f-dim", "f-rows", "f-cut")}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=manifest_docs(), data=st.data())
@example(case=({"name": "a\x00", "feature_dim": 2, "joint_count": 1, "num_poses": 0, "camera_count": 2**64,
                "tracklets": [
                    {"tracklet_id": "\ud800\x00", "identity": "x\udfff", "camera": 2**63 + 5, "probe": True,
                     "frames": [{"frame_id": 3, "row": 1, "keypoints": [[0.5, -0.0, 1]]},
                                {"frame_id": 1, "row": 0, "keypoints": [[1, 2, 0]]},
                                {"frame_id": 1, "row": 2, "keypoints": [[0.25, 0.75, 1]]}]},
                    {"tracklet_id": "\ud800", "identity": "", "camera": 0, "probe": False, "frames": []},
                ]}, 3), data=None)
def test_a_warm_load_equals_a_cold_load(tmp_path, decodes, case, data):
    """Over the manifest fuzzer's manifests that load: a cache hit returns the dataset the decode does.

    With a bad feature file (wrong dimension, a row out of range,
    truncated), the same error comes first on both paths.  A load that
    fails leaves no cache and no temporary file.
    """
    doc, rows = case
    if data is not None and rows and doc["joint_count"] and data.draw(st.booleans()):
        _mutate(doc, data, rows)  # the fuzzer's mutations need a frame with a joint
    manifest, cache = tmp_path / "m.json", _cache_of(tmp_path / "m.json")
    manifest.write_text(json.dumps(doc))
    features = _features(tmp_path, rows)

    def load(name, kept=None):
        """The dataset or the error message: warm from the `kept` cache bytes, else cold."""
        if kept is None:
            cache.unlink(missing_ok=True)
        else:
            cache.write_bytes(kept)
        decodes.clear()
        try:
            outcome = load_dataset(manifest, features[name])
        except FileFormatError as exc:
            outcome = str(exc)
            assert kept is not None or not cache.exists()
        assert decodes == ([manifest] if kept is None else [])
        return outcome

    cold = load("f")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["m.json", *(f"{name}.bin" for name in features)] + ([] if isinstance(cold, str) else [cache.name])
    )
    if isinstance(cold, str):
        return
    kept = cache.read_bytes()
    assert_datasets_equal(load("f", kept), cold)
    for name in ("f-dim", "f-rows", "f-cut"):
        warm, cold = load(name, kept), load(name)
        if isinstance(cold, str) or isinstance(warm, str):
            assert warm == cold
        else:
            assert_datasets_equal(warm, cold)


def _saved_manifest(tmp_path):
    save_dataset(single_tracklet_dataset(), tmp_path / "m.json", tmp_path / "f.bin")
    return tmp_path / "m.json", tmp_path / "f.bin"


def test_a_manifest_edited_to_the_same_size_and_time_is_decoded_again(tmp_path, decodes):
    manifest, features = _saved_manifest(tmp_path)
    load_dataset(manifest, features)
    raw, kept, before = manifest.read_bytes(), _cache_of(manifest).read_bytes(), manifest.stat()
    edited = raw.replace(b'"name": "one"', b'"name": "two"')
    assert len(edited) == len(raw) and edited != raw
    manifest.write_bytes(edited)
    os.utime(manifest, ns=(before.st_atime_ns, before.st_mtime_ns))
    decodes.clear()
    assert load_dataset(manifest, features).name == "two"
    assert decodes == [manifest]
    assert _cache_of(manifest).read_bytes() != kept
    assert load_dataset(manifest, features).name == "two"
    assert decodes == [manifest]  # the replaced cache serves the edited bytes


def _rewritten(edit):
    """A damage that writes the cache again, as `_write_cache` does, from edited (key, meta, columns)."""
    def damage(manifest, raw):
        key = hashlib.sha256(manifest.read_bytes()).digest() + dataset_io._CACHE_VERSION
        other = manifest.with_name("other")
        dataset_io._write_cache(other, *edit(key, *dataset_io._read_cache(_cache_of(manifest), manifest)))
        data = other.read_bytes()
        other.unlink()
        return data

    return damage


#: Ways a cache file can be wrong, each a function of the manifest and the cache's bytes.
DAMAGED_CACHES = {
    "empty": lambda m, raw: b"",
    "garbage": lambda m, raw: b"not a cache\n" * 10,
    "zip": lambda m, raw: b"PK\x03\x04" + raw,
    "cut-in-key": lambda m, raw: raw[:100],
    "cut-in-columns": lambda m, raw: raw[: len(raw) // 2],
    "cut-by-one": lambda m, raw: raw[:-1],
    "other-key": _rewritten(lambda key, meta, columns: (bytes(32) + key[32:], meta, columns)),
    "old-version": _rewritten(lambda key, meta, columns: (key[:32] + b"pdsr-cache 0", meta, columns)),
    "wrong-dtype": _rewritten(lambda key, meta, columns: (
        key, meta, [columns[0].astype(np.int32), *columns[1:]])),
    "wrong-shape": _rewritten(lambda key, meta, columns: (
        key, meta, [*columns[:2], columns[2][:, :1], columns[3]])),
    "wrong-length": _rewritten(lambda key, meta, columns: (key, [*meta[:6], [0, 2]], columns)),
    "wrong-type": _rewritten(lambda key, meta, columns: (key, [*meta[:4], ["0"], *meta[5:]], columns)),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_CACHES))
def test_a_damaged_cache_is_a_miss_and_is_replaced(tmp_path, decodes, damage):
    manifest, features = _saved_manifest(tmp_path)
    cold = load_dataset(manifest, features)
    good = _cache_of(manifest).read_bytes()
    _cache_of(manifest).write_bytes(DAMAGED_CACHES[damage](manifest, good))
    decodes.clear()
    assert_datasets_equal(load_dataset(manifest, features), cold)
    assert decodes == [manifest]
    assert _cache_of(manifest).read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "m.json", _cache_of(manifest).name]


def test_a_directory_at_the_cache_path_does_not_fail_the_load(tmp_path, decodes):
    manifest, features = _saved_manifest(tmp_path)
    _cache_of(manifest).mkdir()
    first, second = load_dataset(manifest, features), load_dataset(manifest, features)
    assert_datasets_equal(first, second)
    assert decodes == [manifest, manifest]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "m.json", _cache_of(manifest).name]
    assert not list(_cache_of(manifest).iterdir())


@pytest.mark.parametrize("fault", ["manifest", "features"])
def test_a_failed_load_leaves_no_cache_and_no_temporary_file(tmp_path, fault):
    manifest, features = _saved_manifest(tmp_path)
    if fault == "manifest":
        manifest.write_text(manifest.read_text().replace('"probe": true', '"probe": "yes"'))
    else:
        write_feature_matrix(features, np.ones((3, 9)))
    with pytest.raises(FileFormatError):
        load_dataset(manifest, features)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "m.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_manifest_read_from_a_pipe_keeps_no_cache(tmp_path, decodes):
    manifest, features = _saved_manifest(tmp_path)
    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(manifest.read_bytes(),), daemon=True)
    writer.start()
    from_pipe = load_dataset(pipe, features)
    writer.join(timeout=10)
    assert_datasets_equal(from_pipe, load_dataset(manifest, features))
    assert decodes == [pipe, manifest]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "f.bin", "m.json", _cache_of(manifest).name, "pipe.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_the_cache_is_created_under_the_umask(tmp_path, monkeypatch, umask):
    manifest, features = _saved_manifest(tmp_path)
    moved = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: moved.append(os.path.basename(src)) or replace(src, dst))
    old = os.umask(umask)
    try:
        load_dataset(manifest, features)
    finally:
        os.umask(old)
    assert len(moved) == 1 and fnmatch.fnmatch(moved[0], "*.pdsr-cache.*.tmp")  # as .gitignore lists it
    assert stat.S_IMODE(_cache_of(manifest).stat().st_mode) == 0o666 & ~umask


@pytest.fixture(scope="module")
def long_manifest(tmp_path_factory):
    """(manifest, features) of 2,000 frames of 18 joints and 2-d features: the manifest is nearly all the bytes."""
    spec = GenSpec(identities=10, cameras=2, frames_per_tracklet=(100, 100), feature_dim=2, joint_count=18,
                   num_poses=4, pose_jitter=0.01, seed=3)
    directory = tmp_path_factory.mktemp("long")
    save_dataset(generate(spec).dataset, directory / "m.json", directory / "f.bin")
    return directory / "m.json", directory / "f.bin"


def _fresh_copy(tmp_path, long_manifest):
    for source in long_manifest:
        (tmp_path / source.name).write_bytes(source.read_bytes())
    return tmp_path / "m.json", tmp_path / "f.bin"


def _bytes_read(call) -> int:
    """Bytes this process read from files while `call` ran, as Linux counts them (rchar)."""
    def rchar():
        with open("/proc/self/io") as fh:
            return int(re.search(r"^rchar: (\d+)$", fh.read(), re.M).group(1))

    before = rchar()
    call()
    return rchar() - before


@pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs Linux's per-process I/O counters")
@pytest.mark.parametrize("cache", ["none", "kept", "stale"])
def test_the_manifest_is_read_once_unless_its_cache_is_stale(tmp_path, long_manifest, decodes, cache):
    """No cache: one whole read.  A hit: one streamed pass.  Only a stale cache may cost a second pass."""
    manifest, features = _fresh_copy(tmp_path, long_manifest)
    if cache != "none":
        load_dataset(manifest, features)
    if cache == "stale":
        manifest.write_bytes(manifest.read_bytes().replace(b'"name": "planted-s3"', b'"name": "planted-s4"'))
    size, kept = manifest.stat().st_size, _cache_of(manifest).stat().st_size if cache != "none" else 0
    decodes.clear()
    read = _bytes_read(lambda: load_dataset(manifest, features))
    passes = {"none": 1, "kept": 1, "stale": 2}[cache]
    assert decodes == ([] if cache == "kept" else [manifest])
    assert size <= read <= passes * size + kept + features.stat().st_size + 64 * 1024


def test_a_warm_load_holds_no_copy_of_the_manifest(tmp_path, long_manifest, decodes):
    manifest, features = _fresh_copy(tmp_path, long_manifest)
    cold = load_dataset(manifest, features)
    decodes.clear()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        warm = load_dataset(manifest, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert decodes == []
    assert_datasets_equal(warm, cold)
    assert peak < manifest.stat().st_size / 3, (peak, manifest.stat().st_size)


def test_a_manifest_rewritten_after_the_cache_check_keys_the_bytes_it_decodes(tmp_path, decodes, monkeypatch):
    """A miss reads the manifest again, and the cache it keeps is keyed by what that read decoded."""
    manifest, features = _saved_manifest(tmp_path)
    one = manifest.read_bytes()
    two = one.replace(b'"name": "one"', b'"name": "two"')
    load_dataset(manifest, features)
    manifest.write_bytes(two)
    check, rewrites = dataset_io._read_cache, [one]

    def rewritten_after(cache, path):
        kept = check(cache, path)  # streams `two` against the cache of `one`: a miss
        if rewrites:
            manifest.write_bytes(rewrites.pop())  # before the whole read
        return kept

    monkeypatch.setattr(dataset_io, "_read_cache", rewritten_after)
    decodes.clear()
    assert load_dataset(manifest, features).name == "one"
    assert decodes == [manifest]
    assert check(_cache_of(manifest), manifest) is not None  # keyed by `one`, the bytes now there
    manifest.write_bytes(two)
    assert load_dataset(manifest, features).name == "two"  # no cache keyed by `two` holds `one`
    assert decodes == [manifest, manifest]


def test_a_cache_kept_under_the_version_1_key_still_hits(tmp_path, decodes):
    """Key: the SHA-256 of the manifest's bytes, then b"pdsr-cache 1"; then the meta JSON and 4 arrays."""
    manifest, features = _saved_manifest(tmp_path)
    cold = load_dataset(manifest, features)
    with open(_cache_of(manifest), "rb") as fh:
        key, meta, *columns = (np.load(fh, allow_pickle=False) for _ in range(6))
    assert key.tobytes() == hashlib.sha256(manifest.read_bytes()).digest() + b"pdsr-cache 1"
    _cache_of(manifest).unlink()
    dataset_io._write_cache(_cache_of(manifest), key.tobytes(), json.loads(meta.tobytes()), columns)
    decodes.clear()
    assert_datasets_equal(load_dataset(manifest, features), cold)
    assert decodes == []


def test_one_manifest_in_two_directories_keeps_byte_identical_caches(tmp_path):
    caches = []
    for directory in ("a", "a-much-longer-directory-name"):
        (tmp_path / directory).mkdir()
        manifest, features = _saved_manifest(tmp_path / directory)
        load_dataset(manifest, features)
        caches.append(_cache_of(manifest).read_bytes())
    assert caches[0] == caches[1]


# ------------------------------------------------- reader fuzzers
#
# Each mutated file either reads as a value its writer writes back (and that
# reads back equal), or ends in a FileFormatError that names the file.


def _loads_or_names_the_file(path, read, accepted):
    try:
        value = read(path)
    except FileFormatError as exc:
        assert str(path) in str(exc)
    else:
        accepted(value)


def _truncate(data, raw):
    return raw[: data.draw(st.integers(0, len(raw) - 1))]


def _flip(data, raw):
    i = data.draw(st.integers(0, len(raw) - 1))
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[i]))
    return raw[:i] + bytes([byte]) + raw[i + 1:]


def _insert(data, raw, text):
    i = data.draw(st.integers(0, len(raw)))
    return raw[:i] + text + raw[i:]


SYNTH_INDEX = {("a", 1): 0, ("a", 2): 10, ("b", 1): 2, ("é-c1", 3): 11}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_synth_index_loads_or_names_the_file(tmp_path, data):
    write_synth_index(SYNTH_INDEX, tmp_path / "i.tsv")
    raw = (tmp_path / "i.tsv").read_bytes()
    key = data.draw(st.sampled_from(raw.split(b"\n")[:-1])).rsplit(b"\t", 1)[0]
    row = data.draw(st.sampled_from([b"2", b"99"]))
    raw = data.draw(st.sampled_from([
        lambda: _truncate(data, raw),
        lambda: _flip(data, raw),
        lambda: raw + key + b"\t" + row + b"\n",  # a duplicate key
        lambda: _insert(data, raw, b"\t"),  # a tab in an id, or anywhere
    ]))()
    (tmp_path / "bad.tsv").write_bytes(raw)

    def accepted(index):
        # The file's lines, less a "\r" before the newline, are the writer's
        # lines for what was read.
        write_synth_index(index, tmp_path / "again.tsv")
        again = (tmp_path / "again.tsv").read_bytes()
        lines = {line.removesuffix(b"\r") for line in raw.split(b"\n")}
        assert lines - {b""} == set(again.split(b"\n")) - {b""}
        assert read_synth_index(tmp_path / "again.tsv") == index

    _loads_or_names_the_file(tmp_path / "bad.tsv", read_synth_index, accepted)


GEN_SPEC = GenSpec(identities=3, cameras=2, frames_per_tracklet=(4, 6), num_poses=3,
                   pose_effect_scale=0.5, pose_visibility=((1, 2), (2, 3)), seed=9, name="é")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_gen_spec_loads_or_names_the_file(tmp_path, data):
    write_json(tmp_path / "spec.json", dataclasses.asdict(GEN_SPEC))
    raw = (tmp_path / "spec.json").read_bytes()
    key = data.draw(st.sampled_from([f.name for f in dataclasses.fields(GenSpec)] + ["seeed"]))
    value = data.draw(st.sampled_from(JSON_VALUES + (2, 2.5, -1, [4, 6], [[1], [3]], float("nan"))))
    duplicate = f', "{key}": {json.dumps(value)}}}'.encode()  # a key given twice
    raw = data.draw(st.sampled_from([
        lambda: _truncate(data, raw),
        lambda: _flip(data, raw),
        lambda: raw.rstrip()[:-1] + duplicate,
        lambda: _insert(data, raw, b"\t"),  # whitespace, or a tab inside a string
    ]))()
    (tmp_path / "bad.json").write_bytes(raw)

    def accepted(spec):
        assert set(json.loads(raw)) <= set(dataclasses.asdict(spec))
        write_json(tmp_path / "again.json", dataclasses.asdict(spec))
        assert load_gen_spec(tmp_path / "again.json") == spec

    _loads_or_names_the_file(tmp_path / "bad.json", load_gen_spec, accepted)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), shape=st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_mutated_feature_matrix_loads_or_names_the_file(tmp_path, data, shape):
    matrix = rng_for(5, "fuzz").normal(size=shape)
    write_feature_matrix(tmp_path / "f.bin", matrix)
    raw = (tmp_path / "f.bin").read_bytes()
    rows = data.draw(st.sampled_from([shape[0] + 1, 2**31, 2**63, 2**64 - 1]))
    raw = data.draw(st.sampled_from([
        lambda: _truncate(data, raw),
        lambda: _flip(data, raw),
        lambda: raw[:8] + struct.pack("<Q", rows) + raw[16:],  # an oversized row count
    ]))()
    (tmp_path / "bad.bin").write_bytes(raw)

    def accepted(loaded):
        # One file per matrix: writing what was read gives the same bytes.
        write_feature_matrix(tmp_path / "again.bin", loaded)
        assert (tmp_path / "again.bin").read_bytes() == raw

    _loads_or_names_the_file(tmp_path / "bad.bin", read_feature_matrix, accepted)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_canon_loads_or_names_the_file(tmp_path, data):
    rng = rng_for(6, "fuzz")
    save_canon(make_canon(rng.uniform(0, 1, (2, 2, 2))), tmp_path / "c.json")
    raw = (tmp_path / "c.json").read_bytes()
    duplicate = data.draw(st.sampled_from(
        [b'"joint_count": 1', b'"joint_count": 2', b'"poses": []', b'"poses": [[[0, 0, 1]]]']
    ))
    raw = data.draw(st.sampled_from([
        lambda: _truncate(data, raw),
        lambda: _flip(data, raw),
        lambda: raw.replace(b"{", b"{" + duplicate + b", ", 1),  # a key given twice
        lambda: raw[: raw.rindex(b"}")] + b", " + duplicate + b"}\n",
        lambda: _insert(data, raw, b"\t"),
    ]))()
    (tmp_path / "bad.json").write_bytes(raw)

    def accepted(canon):
        save_canon(canon, tmp_path / "again.json")
        again = load_canon(tmp_path / "again.json")
        assert np.array_equal(again.joints, canon.joints)
        assert np.array_equal(again.visibility, canon.visibility)

    _loads_or_names_the_file(tmp_path / "bad.json", load_canon, accepted)
