"""On-disk formats: feature matrices, manifests (and their decode cache), poses, indices, reports.

Feature vectors live in a small binary container (header then row-major
float32, everything little-endian); structural metadata lives in JSON next
to it, referencing vectors by row.  Storage is float32 while in-memory math
is float64, so loaders upcast on read and writers downcast on write; a
write/read round trip of float32-representable values is lossless.

All writers emit sorted, canonical output so byte-identical files mean
identical content.  Each text format has one writer: `write_json` spells
canonical JSON and `tsv_text` tab-separated tables, refusing a field that
its readers could not split back out.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import os
import stat
import struct
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import fields, is_dataclass
from itertools import accumulate, chain, repeat
from numbers import Integral
from operator import itemgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import FileFormatError
from .model import COUNTS, CanonicalPoseSet, Dataset, PackedFrames, PoseRecord, Tracklet, is_a, pack

MAGIC = b"PDSR"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQI")  # magic, version u32, rows u64, dim u32


def write_feature_matrix(path: str | Path, matrix: np.ndarray) -> None:
    """Store a (rows, dim) matrix as float32; this is the quantization point."""
    with np.errstate(over="ignore"):  # a value beyond float32's range becomes inf, refused below
        arr = np.asarray(matrix, dtype=np.float64).astype("<f4")
    if arr.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("feature matrix contains values that are not finite in float32")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())  # C order whatever the layout


def read_feature_matrix(path: str | Path) -> np.ndarray:
    """Load a feature matrix, upcast to float64.

    The returned values equal the stored float32 values exactly.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header")
    magic, version, rows, dim = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FileFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + rows * dim * 4
    if len(raw) != expected:
        raise FileFormatError(
            f"{path}: size {len(raw)} does not match header ({expected} expected)"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    finite = np.isfinite(data)
    if not finite.all():
        raise FileFormatError(f"{path}: row {int(np.argmin(finite)) // dim} is not finite")
    try:
        return data.reshape(rows, dim).astype(np.float64)
    except ValueError as exc:  # an empty matrix with more rows than NumPy can index
        raise FileFormatError(f"{path}: cannot hold a {rows} x {dim} matrix") from exc


def _read_text(path: str | Path, data: bytes | None = None) -> str:
    """The file (or `data`, its bytes as already read) decoded as UTF-8, line ends as stored."""
    try:
        return (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 at byte {exc.start}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The pairs of one JSON object as a dict; a key given twice is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise FileFormatError(f"key {key!r} appears twice in one object")
    return obj


def read_json(path: str | Path, *, unique_keys: bool = False, text: str | None = None):
    """The decoded file (or `text`, as read); invalid or too deeply nested JSON names the file.

    With `unique_keys` a key given twice in one object is an error too, as
    the settings readers (gen spec, PDSR_CONFIG) ask.  The manifest and
    canon readers keep the last value, as `json` does: the check slows the
    decode of a large manifest by a sixth or more.
    """
    text = _read_text(path) if text is None else text
    try:
        return json.loads(text, object_pairs_hook=_unique_keys if unique_keys else None)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply to decode") from exc
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_json(path: str | Path, payload: object) -> None:
    """Canonical JSON: UTF-8, indented by 2, keys sorted, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def tsv_text(rows) -> str:
    """Tab-separated text of tuples of one width, one line each, fields spelled by `str`.

    A field with a tab, newline or carriage return would not read back as
    one field, so it is a ValueError.  The check counts separators over the
    whole text and walks the fields only to name the bad one.
    """
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    line = "\t".join(["%s"] * width) + "\n"
    text = "".join([line % row for row in rows])
    if "\r" in text or text.count("\t") + text.count("\n") != width * len(rows):
        for field in map(str, chain.from_iterable(rows)):
            if "\t" in field or "\n" in field or "\r" in field:
                raise ValueError(f"field {field!r} cannot contain tab, newline or carriage return")
    return text


@contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off, and back on at exit only if it was on.

    A decoded manifest is about a million lists, dicts and floats that form
    no cycle, yet the collector rescans them as they are allocated.  Used as
    a decorator, the pause also covers freeing the function's locals, so the
    decoded tree is gone before the collector runs again.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _triples(joints: list, visibility: list) -> list[list[float]]:
    """Keypoints [x, y, v] of one pose, from its joints and visibility as lists."""
    return [[x, y, 1 if v else 0] for (x, y), v in zip(joints, visibility)]


def _keypoints(entries: list, k: int) -> np.ndarray | None:
    """(n, k, 3) array of n keypoint lists, or None unless each is exactly k triples [x, y, v].

    x, y and v must be JSON numbers (not booleans), v 0 or 1, as the writers
    emit.  Each check runs over all triples at once.
    """
    try:
        if set(map(len, entries)) - {k}:
            return None
        triples = list(chain.from_iterable(entries))
        if set(map(len, triples)) - {3}:
            return None
        values = list(chain.from_iterable(triples))
        if set(map(type, values)) - {int, float}:
            return None
        array = np.fromiter(values, dtype=np.float64, count=len(values)).reshape(len(entries), k, 3)
    except (TypeError, OverflowError):  # an entry without a length, an integer beyond float
        return None
    return array if np.isin(array[:, :, 2], (0.0, 1.0)).all() else None


_KEYPOINT_CONTRACT = "must list {k} joints as [x, y, v]: numbers x and y, v 0 or 1"


def _copies(strings: list[str]) -> list[str]:
    """New str objects equal to `strings` (`str(s)` and `s[:]` return `s` itself).

    Slices of one join: unlike a trip through bytes or a NumPy array, they
    keep lone surrogates and trailing NULs.
    """
    bounds = list(accumulate(map(len, strings), initial=1))
    text = "".join(["\0", *strings])  # the join of a single part would be that part
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def save_dataset(
    dataset: Dataset, manifest_path: str | Path, features_path: str | Path
) -> None:
    """Write the manifest JSON and its companion feature matrix.

    Rows are assigned walking tracklets and frames in their canonical
    order, so equal datasets serialize byte-identically.
    """
    packed, offsets = pack(dataset.tracklets)
    tracklets = []
    for t, first in zip(dataset.tracklets, offsets.tolist()):
        columns = (t.frames.frame_ids.tolist(), t.frames.joints.tolist(), t.frames.visibility.tolist())
        frames = [
            {"frame_id": frame_id, "row": row, "keypoints": _triples(joints, visibility)}
            for row, (frame_id, joints, visibility) in enumerate(zip(*columns), start=first)
        ]
        entry = {key: getattr(t, key) for key in ("tracklet_id", "identity", "camera", "probe")}
        tracklets.append({**entry, "frames": frames})
    manifest = {"name": dataset.name, **{key: getattr(dataset, key) for key in COUNTS}, "tracklets": tracklets}
    write_feature_matrix(
        features_path, packed.features if len(packed) else np.zeros((0, dataset.feature_dim))
    )
    write_json(manifest_path, manifest)


@_collector_paused()
def _decode_manifest(manifest_path: str | Path, raw: list[bytes]) -> tuple[list, list[np.ndarray]]:
    """A manifest's content in canonical order, once every check that needs only its bytes passes.

    That is `[name, counts, tracklet ids, identities, cameras, probe flags,
    offsets]` (counts as `COUNTS`; tracklet t has frames offsets[t] to
    offsets[t + 1]) and the frame ids, rows, joints and visibility.  `raw`
    holds the bytes, let go of once read as text.  The cyclic garbage
    collector is paused while it runs, then restored.
    """
    manifest = read_json(manifest_path, text=_read_text(manifest_path, raw.pop()))
    try:
        if not isinstance(manifest["name"], str):
            raise FileFormatError(f"{manifest_path}: name {manifest['name']!r} is not a string")
        for key in COUNTS:
            if not (is_a(manifest[key], Integral) and manifest[key] >= 0):
                raise FileFormatError(f"{manifest_path}: {key} {manifest[key]!r} is not a count")
        k = manifest["joint_count"]

        def fail(t: dict, problem: str) -> FileFormatError:
            return FileFormatError(f"{manifest_path}: tracklet {t['tracklet_id']!r}: {problem}")

        for t in manifest["tracklets"]:
            if not (isinstance(t["tracklet_id"], str) and isinstance(t["identity"], str)):
                raise fail(t, "tracklet_id and identity must be strings")
            if not is_a(t["camera"], Integral):
                raise fail(t, f"camera {t['camera']!r} is not an integer")
            if not isinstance(t.get("probe", False), bool):
                raise fail(t, f"probe {t['probe']!r} is not true or false")
        # Stable sorts: duplicate tracklet and frame ids keep their file order.
        entries = sorted(manifest["tracklets"], key=itemgetter("tracklet_id"))
        offsets = np.cumsum([0] + [len(t["frames"]) for t in entries]).tolist()
        frames = [f for t in entries for f in t["frames"]]
        fields = ("frame_id", "row", "keypoints")
        frame_ids, rows, keypoints = (list(map(itemgetter(key), frames)) for key in fields)
        keypoints = _keypoints(keypoints, k)

        def tracklet_of(i: int) -> dict:  # the entry frame i belongs to
            return entries[bisect_right(offsets, i) - 1]

        if set(map(type, frame_ids)) - {int}:
            i = next(i for i, x in enumerate(frame_ids) if not is_a(x, Integral))
            raise fail(tracklet_of(i), f"frame_id {frame_ids[i]!r} is not an integer")
        # No feature matrix has 2**63 rows; load_dataset checks the rows against the one read.
        if set(map(type, rows)) - {int} or rows and not 0 <= min(rows) <= max(rows) < 2**63:
            i = next(i for i, x in enumerate(rows) if not (is_a(x, Integral) and 0 <= x < 2**63))
            raise fail(tracklet_of(i), f"row {rows[i]!r} is not a row of the feature matrix")
        if keypoints is None:
            i = next(i for i, f in enumerate(frames) if _keypoints([f["keypoints"]], k) is None)
            raise fail(tracklet_of(i), f"frame {frame_ids[i]} {_KEYPOINT_CONTRACT.format(k=k)}")

        ids, rows = np.array(frame_ids, dtype=np.int64), np.array(rows, dtype=np.int64)
        order = np.lexsort((ids, np.repeat(np.arange(len(entries)), np.diff(offsets))))
        if not np.array_equal(order, np.arange(len(order))):  # frames listed out of order
            ids, rows, keypoints = ids[order], rows[order], keypoints[order]
        meta = [manifest["name"], [manifest[key] for key in COUNTS],
                *([t[key] for t in entries] for key in ("tracklet_id", "identity", "camera")),
                [t.get("probe", False) for t in entries], offsets]
        # Copied, so that the (N, k, 3) triples are freed and the joints are contiguous.
        return meta, [ids, rows, keypoints[:, :, :2].copy(), keypoints[:, :, 2] == 1.0]
    except (KeyError, TypeError, OverflowError, ValueError) as exc:
        raise FileFormatError(f"{manifest_path}: missing or malformed field: {exc}") from exc


#: A manifest's decode is kept in the file named as it plus `_CACHE_SUFFIX`, keyed by the SHA-256
#: of its bytes followed by `_CACHE_VERSION`; a new layout of that file takes a new version.
_CACHE_SUFFIX, _CACHE_VERSION = ".pdsr-cache", b"pdsr-cache 1"


def _read_cache(path: Path, manifest_path: str | Path) -> tuple[list, list[np.ndarray]] | None:
    """The decode kept at `path` if made from the manifest's bytes (streamed: a hit holds no copy), else None.

    Any other file, or one of another version or with a value of another
    type, dtype, shape or length, is a miss, never an error.
    """
    try:
        with open(path, "rb") as fh, open(manifest_path, "rb") as manifest:
            key, sha, chunk = np.load(fh, allow_pickle=False).tobytes(), hashlib.sha256(), bytearray(1 << 18)
            while n := manifest.readinto(chunk):
                sha.update(memoryview(chunk)[:n])
            if key != sha.digest() + _CACHE_VERSION:
                return None
            meta = json.loads(np.load(fh, allow_pickle=False).tobytes())
            columns = [np.load(fh, allow_pickle=False) for _ in range(4)]
        name, counts, ids, identities, cameras, probes, offsets = meta
        n, k = offsets[-1], counts[1]
        want = [(np.int64, (n,)), (np.int64, (n,)), (np.float64, (n, k, 2)), (bool, (n, k))]
        if ({*map(type, counts + offsets + cameras)} <= {int} and min(counts) >= 0 and len(counts) == 4
                and {*map(type, [name, *ids, *identities])} == {str} and {*map(type, probes)} <= {bool}
                and offsets[0] == 0 and offsets == sorted(offsets)
                and len({*map(len, (ids, identities, cameras, probes, offsets[1:]))}) == 1
                and [(c.dtype, c.shape) for c in columns] == want):
            return meta, columns
    except Exception:  # whatever the file holds, a miss
        pass
    return None


def _write_cache(path: Path, key: bytes, meta: list, columns: list[np.ndarray]) -> None:
    """Keep a decode at `path`, written beside it and moved into place; a failure is no error.

    The bytes depend on the manifest's alone: no path, no time.
    """
    with suppress(OSError):
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # as `open` would, under the umask
        try:
            with open(fd, "wb") as fh:
                for a in [*(np.frombuffer(b, "u1") for b in (key, json.dumps(meta).encode())), *columns]:
                    np.save(fh, a, allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def load_dataset(manifest_path: str | Path, features_path: str | Path) -> Dataset:
    """Read a manifest and its feature matrix into one packed block, in canonical order.

    The decode of a regular file is read from the cache file beside it if
    it was made from the same bytes, else made and, once the load succeeds,
    kept there.  The features are the matrix as read when the manifest
    lists its rows in canonical order, as `save_dataset` writes them.  The
    dataset's strings and ints are copies, so that no survivor pins an
    arena of a decoded tree.
    """
    regular, cache = stat.S_ISREG(os.stat(manifest_path).st_mode), Path(f"{manifest_path}{_CACHE_SUFFIX}")
    if not (cached := regular and _read_cache(cache, manifest_path)):  # a pipe is read once, whole
        raw = [Path(manifest_path).read_bytes()]
        key = hashlib.sha256(raw[0]).digest() + _CACHE_VERSION  # of these bytes, not of those streamed
    meta, columns = cached or _decode_manifest(manifest_path, raw)
    name, counts, ids, identities, cameras, probes, offsets = meta
    frame_ids, rows, joints, visibility = columns
    matrix = read_feature_matrix(features_path)
    if counts[0] != matrix.shape[1]:
        raise FileFormatError(f"{manifest_path}: feature_dim {counts[0]!r} does not match "
                              f"dimension {matrix.shape[1]} of {features_path}")
    if (rows >= len(matrix)).any():
        i = int(np.argmax(rows >= len(matrix)))
        raise FileFormatError(f"{manifest_path}: tracklet {ids[bisect_right(offsets, i) - 1]!r}: "
                              f"row {rows[i]} is not a row of the feature matrix")
    features = matrix if np.array_equal(rows, np.arange(len(matrix))) else matrix[rows]
    packed = PackedFrames(frame_ids, features, joints, visibility)
    # Copies of every kept str and int (`x + 0` is a new int unless -5 <= x <= 256).
    name, *strings = _copies([name, *ids, *identities])
    tracklets = tuple(
        Tracklet(tid, identity, camera + 0, packed.rows(a, b), probe)
        for tid, identity, camera, probe, a, b
        in zip(strings[:len(ids)], strings[len(ids):], cameras, probes, offsets, offsets[1:])
    )
    dataset = Dataset(name, *(count + 0 for count in counts), tracklets)
    if regular and not cached:
        _write_cache(cache, key, meta, columns)
    return dataset


def save_canon(canon: CanonicalPoseSet, path: str | Path) -> None:
    write_json(path, {
        "joint_count": canon.joints.shape[1],
        "poses": list(map(_triples, canon.joints.tolist(), canon.visibility.tolist())),
    })


def load_canon(path: str | Path) -> CanonicalPoseSet:
    payload = read_json(path)
    try:
        k, poses = payload["joint_count"], payload["poses"]
        if not (is_a(k, Integral) and k >= 0):
            raise FileFormatError(f"{path}: joint_count {k!r} is not a count")
        keypoints = _keypoints(poses, k)
        if keypoints is None:
            i = next(i for i, p in enumerate(poses) if _keypoints([p], k) is None)
            raise FileFormatError(f"{path}: pose[{i}] {_KEYPOINT_CONTRACT.format(k=k)}")
        return CanonicalPoseSet(keypoints[:, :, :2], keypoints[:, :, 2] == 1.0)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: missing or malformed field: {exc}") from exc


def write_synth_index(index: Mapping[tuple[str, int], int], path: str | Path) -> None:
    """Tab-separated (tracklet_id, pose, row), sorted for determinism.

    An entry `read_synth_index` would refuse is a ValueError before any
    write: a pose must be an integer >= 1 and a row an integer >= 0.
    """
    for (tid, pose), row in index.items():
        if not (is_a(pose, Integral) and is_a(row, Integral) and pose >= 1 and row >= 0):
            raise ValueError(f"index entry ({tid!r}, {pose!r}) -> {row!r}: "
                             "pose must be an integer >= 1 and row an integer >= 0")
    text = tsv_text((tid, pose, row) for (tid, pose), row in sorted(index.items()))
    Path(path).write_text(text, encoding="utf-8")


def read_synth_index(path: str | Path) -> dict[tuple[str, int], int]:
    """(tracklet_id, pose) -> row of each non-empty line, taken only as `write_synth_index` writes it.

    Pose (>= 1) and row (>= 0) are plain integers and a (tracklet, pose)
    pair appears once.  A line may end in CR LF; a carriage return
    anywhere else is an error.
    """
    index: dict[tuple[str, int], int] = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line:
            continue
        if "\r" in line:
            raise FileFormatError(f"{path}:{lineno}: carriage return inside a line")
        parts = line.split("\t")
        if len(parts) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        tid, pose_s, row_s = parts
        try:
            pose, row = int(pose_s), int(row_s)
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: non-integer pose or row") from exc
        if f"{pose}\t{row}" != f"{pose_s}\t{row_s}":  # "+1", " 1", "01", "1_0"
            raise FileFormatError(f"{path}:{lineno}: pose or row not written as a plain integer")
        if pose < 1 or row < 0:
            raise FileFormatError(f"{path}:{lineno}: pose or row out of range")
        if (tid, pose) in index:
            raise FileFormatError(f"{path}:{lineno}: duplicate entry ({tid}, {pose})")
        index[(tid, pose)] = row
    return index


def write_pose_embeddings(
    record: PoseRecord,
    index_path: str | Path,
    matrix_path: str | Path,
) -> None:
    """Export the observed poses of a pose record as a keyed feature file.

    Index lines are `tracklet_id <tab> pose <tab> origin <tab> frequency
    <tab> row`, walking tracklets by ascending id and poses ascending, with
    the vectors in a companion feature matrix.  Only observed poses are
    exported, so `origin` is always `real`.  This is an inspection/join
    export; scoring works from the in-memory record.
    """
    ids = record.tracklet_ids
    tsv_text(zip(ids))  # every id must be writable, also one with no observed pose
    if len(set(ids)) < len(ids):
        raise ValueError("tracklet ids repeat: the index would list a (tracklet, pose) twice")
    order = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.intp)
    t, j = np.nonzero(record.observed[order])
    t = order[t]
    if not len(t):
        raise ValueError("no pose entries to export")
    text = tsv_text(zip(
        [ids[i] for i in t.tolist()], (j + 1).tolist(), repeat("real"),
        record.frequencies[t, j].tolist(), range(len(t)),
    ))
    write_feature_matrix(matrix_path, record.vectors[t, j])  # first: it refuses before it opens its file
    Path(index_path).write_text(text, encoding="utf-8")


def report_to_dict(report: object) -> object:
    """A report, or a value in it, as its JSON holds it: records as dicts of fields, tuples as lists."""
    if isinstance(report, tuple):
        return [report_to_dict(v) for v in report]
    if is_dataclass(report):
        return {f.name: report_to_dict(getattr(report, f.name)) for f in fields(report)}
    return report


def save_report_json(report: EvalReport, path: str | Path) -> None:
    write_json(path, report_to_dict(report))


def _csv_value(value: object) -> str:
    return "null" if value is None else str(value)  # a float's str is its repr, exact


def save_report_csv(report: EvalReport, path: str | Path) -> None:
    """Flat (section, key, value) rows; missing values are written as null."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "key", "value"])
        for key in ("mode", "num_probes", "num_scored", "mean_ap"):
            writer.writerow(["summary", key, _csv_value(getattr(report, key))])
        for rank, value in enumerate(report.cmc, start=1):
            writer.writerow(["cmc", rank, _csv_value(value)])
        for a, row in zip(report.camera_ids, report.camera_pair_map):
            for b, cell in zip(report.camera_ids, row):
                writer.writerow(["camera_pair_map", f"{a}->{b}", _csv_value(cell)])
        for r in report.probe_results:
            for key in ("gallery_size", "num_positives", "first_correct_rank", "ap"):
                writer.writerow(["probe", f"{r.probe_id}.{key}", _csv_value(getattr(r, key))])
