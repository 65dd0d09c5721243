"""Spans and counters recorded around pdsr's public functions.

The tracer patches each function where it is looked up, because pdsr
modules import functions by name (`pdsr.cli.assign_pose` is the object the
CLI calls, not `pdsr.quantizer.assign_pose`).  A name that a module no
longer has is skipped, so a refactor leaves its layer at zero instead of
breaking the trace.

A span is (name, start_ns, end_ns, parent).  Times come from
`time.perf_counter_ns`, which on Linux reads CLOCK_MONOTONIC, so spans
written by a child process nest inside the parent's span around it.
Spans stay in memory until the run writes them out.

This module imports no pdsr code at import time: the traced CLI child
times `import pdsr.cli` with it.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict

now_ns = time.perf_counter_ns

#: (module, attribute, span name).  Writers share one span name.
PATCHES = (
    ("pdsr.dataset_io", "load_dataset", "dataset_io.load_dataset"),
    ("pdsr.dataset_io", "load_canon", "dataset_io.load_canon"),
    ("pdsr.dataset_io", "save_report_json", "dataset_io.write"),
    ("pdsr.dataset_io", "save_report_csv", "dataset_io.write"),
    ("pdsr.dataset_io", "write_feature_matrix", "dataset_io.write"),
    ("pdsr.dataset_io", "write_pose_embeddings", "dataset_io.write"),
    ("pdsr.cli", "file_backed_provider", "providers.file_backed_provider"),
    ("pdsr.cli", "validate_dataset", "model.validate_dataset"),
    ("pdsr.cli", "assign_pose", "quantizer.assign_pose"),
    ("pdsr.cli", "wf_embedding", "fusion.wf_embedding"),
    ("pdsr.cli", "pose_normalize", "regulation.pose_normalize"),
    ("pdsr.cli", "score_matrix", "evaluation.score_matrix"),
    ("pdsr.cli", "rank_gallery", "evaluation.rank_gallery"),
    ("pdsr.cli", "evaluate", "evaluation.evaluate"),
    ("pdsr.evaluation", "evaluate", "evaluation.evaluate"),
    ("pdsr.evaluation", "build_protocol", "evaluation.build_protocol"),
    ("pdsr.evaluation", "score_matrix", "evaluation.score_matrix"),
    ("pdsr.evaluation", "rank_gallery", "evaluation.rank_gallery"),
    ("pdsr.evaluation", "camera_confusion", "evaluation.camera_confusion"),
    ("pdsr.evaluation", "wf_embedding", "fusion.wf_embedding"),
    ("pdsr.evaluation", "pose_normalize", "regulation.pose_normalize"),
    ("pdsr.evaluation", "wpr_score_matrix", "regulation.wpr_score_matrix"),
    ("pdsr.evaluation", "cosine_matrix", "similarity.cosine_matrix"),
    ("pdsr.evaluation", "rng_for", "seeding.rng_for"),
    ("pdsr.regulation", "group_by_pose", "quantizer.group_by_pose"),
    ("pdsr.providers", "rng_for", "seeding.rng_for"),
    ("pdsr.generator", "rng_for", "seeding.rng_for"),
)

#: Per-layer metrics and their units, as BENCHMARK.json lists them.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "dataset_io.load_dataset.s": "s",
    "dataset_io.load_canon.s": "s",
    "providers.file_backed_provider.s": "s",
    "dataset_io.input_mb": "MB",
    "dataset_io.write.s": "s",
    "dataset_io.output_mb": "MB",
    "model.validate_dataset.s": "s",
    "model.validate_dataset.frames": "count",
    "quantizer.assign_pose.s": "s",
    "quantizer.assign_pose.calls": "count",
    "quantizer.group_by_pose.s": "s",
    "quantizer.group_by_pose.calls": "count",
    "quantizer.frames_unassignable": "count",
    "regulation.pose_normalize.self_s": "s",
    "regulation.pose_normalize.calls": "count",
    "regulation.wpr_score_matrix.self_s": "s",
    "fusion.wf_embedding.s": "s",
    "fusion.wf_embedding.calls": "count",
    "fusion.wf_embedding.useful_ratio": "ratio",
    "providers.query.calls": "count",
    "providers.query.s": "s",
    "providers.query.misses": "count",
    "providers.query.distinct_ratio": "ratio",
    "seeding.rng_for.calls": "count",
    "seeding.rng_for.s": "s",
    "similarity.cosine_matrix.s": "s",
    "evaluation.build_protocol.s": "s",
    "evaluation.score_matrix.self_s": "s",
    "evaluation.rank_gallery.calls": "count",
    "evaluation.rank.s": "s",
    "evaluation.camera_confusion.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}

#: Children of `evaluate` that are not ranking and AP.
_NOT_RANKING = {"evaluation.build_protocol", "evaluation.score_matrix",
                "evaluation.camera_confusion"}


class Tracer:
    """Records spans and counters; patches and unpatches pdsr functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # Observers only keep references; counters() does the counting, so
        # that no tracer work lands inside a caller's self time.
        self.unassignable = 0
        self.validated: list = []
        self.input_paths: list = []
        self.wf_ids: list[str] = []
        self.scored_cases: list = []
        self.query_keys: list[tuple[str, int]] = []
        self.query_misses = 0

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, now_ns(), 0, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = now_ns()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i)
            if observe is not None:
                result = observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every PATCHES entry whose module still has the attribute."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def counters(self) -> dict:
        wf_ids = set(self.wf_ids)
        if self.scored_cases:
            scored = {c.probe_id for cases in self.scored_cases for c in cases}
            scored.update(g for cases in self.scored_cases for c in cases for g in c.gallery_ids)
            wf_ids &= scored
        return {
            "unassignable": self.unassignable,
            "validated_frames": sum(len(t.frames) for ts in self.validated for t in ts),
            "input_bytes": sum(os.stat(p).st_size for p in self.input_paths),
            "wf_calls": len(self.wf_ids),
            "wf_useful": len(wf_ids),
            "query_calls": len(self.query_keys),
            "query_distinct": len(set(self.query_keys)),
            "query_misses": self.query_misses,
        }


class CountingProvider:
    """Proxy that times and counts `query` on a synthetic feature provider."""

    def __init__(self, inner, tracer: Tracer) -> None:
        from pdsr.errors import MissingSyntheticError

        self._inner = inner
        self._tracer = tracer
        self._missing = MissingSyntheticError

    def query(self, tracklet_id, representative_frame_id, pose):
        tracer = self._tracer
        tracer.query_keys.append((tracklet_id, pose))
        i = tracer.begin("providers.query")
        try:
            return self._inner.query(tracklet_id, representative_frame_id, pose)
        except self._missing:
            tracer.query_misses += 1
            raise
        finally:
            tracer.end(i)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _observe_loader(tracer, args, kwargs, result):
    tracer.input_paths.extend(list(args) + list(kwargs.values()))
    return result


def _observe_provider(tracer, args, kwargs, result):
    _observe_loader(tracer, args, kwargs, result)
    return CountingProvider(result, tracer)


def _observe_validate(tracer, args, kwargs, result):
    tracer.validated.append(args[0])
    return result


def _observe_assign(tracer, args, kwargs, result):
    tracer.unassignable += result.pose is None
    return result


def _observe_groups(tracer, args, kwargs, result):
    tracer.unassignable += len(result.unassignable)
    return result


def _observe_wf(tracer, args, kwargs, result):
    tracer.wf_ids.append(args[0].tracklet_id)
    return result


def _observe_scores(tracer, args, kwargs, result):
    tracer.scored_cases.append(args[3] if len(args) > 3 else kwargs["cases"])
    return result


_OBSERVERS = {
    "dataset_io.load_dataset": _observe_loader,
    "dataset_io.load_canon": _observe_loader,
    "providers.file_backed_provider": _observe_provider,
    "model.validate_dataset": _observe_validate,
    "quantizer.assign_pose": _observe_assign,
    "quantizer.group_by_pose": _observe_groups,
    "fusion.wf_embedding": _observe_wf,
    "evaluation.score_matrix": _observe_scores,
}


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0
        edge = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], edge), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(end - start - covered)
    return out


def check_op_spans(spans: list[list]) -> str | None:
    """Self times plus uncovered time must add up to the root's wall time.

    Span 0 is the operation; its self time is the time no span covers.  The
    sum equals the root's duration exactly when every span lies inside its
    parent and siblings do not overlap.
    """
    if not spans or spans[0][3] != -1:
        return "operation has no root span"
    total = sum(self_times(spans))
    wall = spans[0][2] - spans[0][1]
    if total != wall:
        return f"self times sum to {total} ns, operation took {wall} ns"
    return None


def op_layers(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer values of one traced operation (span 0 is the operation)."""
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    inclusive: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    rank_ns = 0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += selfs[i]
        ancestor = parent
        while ancestor != -1 and names[ancestor] != name:
            ancestor = spans[ancestor][3]
        if ancestor == -1:
            inclusive[name] += end - start
        if name == "evaluation.evaluate":
            rank_ns += end - start
        elif parent != -1 and names[parent] == "evaluation.evaluate" and name in _NOT_RANKING:
            rank_ns -= end - start

    def s(ns: int) -> float:
        return ns / 1e9

    wf_calls = counters["wf_calls"]
    query_calls = counters["query_calls"]
    return {
        "cli.import_s": s(inclusive["cli.import"]),
        "cli.main.self_s": s(self_ns["cli.main"]),
        "dataset_io.load_dataset.s": s(inclusive["dataset_io.load_dataset"]),
        "dataset_io.load_canon.s": s(inclusive["dataset_io.load_canon"]),
        "providers.file_backed_provider.s": s(inclusive["providers.file_backed_provider"]),
        "dataset_io.input_mb": counters["input_bytes"] / 1e6,
        "dataset_io.write.s": s(inclusive["dataset_io.write"]),
        "dataset_io.output_mb": counters.get("output_bytes", 0) / 1e6,
        "model.validate_dataset.s": s(inclusive["model.validate_dataset"]),
        "model.validate_dataset.frames": counters["validated_frames"],
        "quantizer.assign_pose.s": s(inclusive["quantizer.assign_pose"]),
        "quantizer.assign_pose.calls": calls["quantizer.assign_pose"],
        "quantizer.group_by_pose.s": s(inclusive["quantizer.group_by_pose"]),
        "quantizer.group_by_pose.calls": calls["quantizer.group_by_pose"],
        "quantizer.frames_unassignable": counters["unassignable"],
        "regulation.pose_normalize.self_s": s(self_ns["regulation.pose_normalize"]),
        "regulation.pose_normalize.calls": calls["regulation.pose_normalize"],
        "regulation.wpr_score_matrix.self_s": s(self_ns["regulation.wpr_score_matrix"]),
        "fusion.wf_embedding.s": s(inclusive["fusion.wf_embedding"]),
        "fusion.wf_embedding.calls": wf_calls,
        "fusion.wf_embedding.useful_ratio": counters["wf_useful"] / wf_calls if wf_calls else 0.0,
        "providers.query.calls": query_calls,
        "providers.query.s": s(inclusive["providers.query"]),
        "providers.query.misses": counters["query_misses"],
        "providers.query.distinct_ratio": (counters["query_distinct"] / query_calls
                                           if query_calls else 0.0),
        "seeding.rng_for.calls": calls["seeding.rng_for"],
        "seeding.rng_for.s": s(inclusive["seeding.rng_for"]),
        "similarity.cosine_matrix.s": s(inclusive["similarity.cosine_matrix"]),
        "evaluation.build_protocol.s": s(inclusive["evaluation.build_protocol"]),
        "evaluation.score_matrix.self_s": s(self_ns["evaluation.score_matrix"]),
        "evaluation.rank_gallery.calls": calls["evaluation.rank_gallery"],
        "evaluation.rank.s": s(rank_ns),
        "evaluation.camera_confusion.self_s": s(self_ns["evaluation.camera_confusion"]),
        "process.cpu_s": counters["cpu_s"],
    }


def median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
