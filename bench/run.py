#!/usr/bin/env python3
"""The pdsr benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload eval-c8 --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --out results.json

Run from the root of a pdsr checkout; the program is imported from `src`.
Inputs are generated from the workload spec and `--seed` before timing
starts.  CLI workloads run each command as a child process, one at a time;
`sweep-small` calls the library in this process.  Operations repeat until
`--seconds` have passed.  Every output is checked; the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
operations alternate untraced and traced, and the metrics are the
per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracer import (LAYER_METRICS, CountingProvider, Tracer, check_op_spans, median_layers,
                    now_ns, op_layers)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("eval-c8", "match-3cam", "ingest-long", "sweep-small")
CLI = "import sys; from pdsr.cli import main; sys.exit(main())"
SETUP_REPS = 3
SWEEP_SETUP_TRIES = 3
#: No operation starts once a run has lasted RUN_LIMIT_S, and no command
#: may take longer than CHILD_TIMEOUT_S, so a run ends inside 180 s.
RUN_LIMIT_S = 130.0
CHILD_TIMEOUT_S = 45.0
#: wall_p90_s needs 10 samples beyond the percentile.
P90_MIN_SAMPLES = 100
#: The end-to-end metrics of BENCHMARK.json.  The gated wall time sums, over
#: the commands of an operation, each command's fastest run: on a host whose
#: neighbours slow every operation by up to 75% for tens of seconds at a
#: time, the per-run median spreads by about 0.3 from run to run and the
#: minimum by about 0.07 (see README.md).  Taking the minimum per command
#: rather than per operation keeps the samples short on ingest-long, whose
#: operation is three commands.  wall_p50_s and wall_p90_s are reported.
END_TO_END = {"wall_min_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Commands of one CLI operation: (label, arguments after the global flags,
#: output files).  Output paths are relative to the child's working
#: directory so that stdout does not depend on where the checkout lives.
EVAL_OP = [("eval", ["eval", "--mode", "wf+wpr", "--report", "report.json",
                     "--csv", "report.csv"], ["report.json", "report.csv"])]
INGEST_OP = [
    ("quantize", ["quantize", "--out", "assign.tsv"], ["assign.tsv"]),
    ("embed-wf", ["embed", "--mode", "wf", "--out", "wf.bin", "--ids", "ids.tsv"],
     ["wf.bin", "ids.tsv"]),
    ("embed-wpr", ["embed", "--mode", "wpr", "--out", "wpr.bin", "--index", "wpr.tsv"],
     ["wpr.bin", "wpr.tsv"]),
]


def match_op(probe: str):
    return [("match", ["match", "--probe", probe, "--out", "ranking.tsv"], ["ranking.tsv"])]


@dataclass
class Child:
    code: int
    start_ns: int
    end_ns: int
    rss_mb: float
    cpu_s: float
    stdout: bytes

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], cwd: Path, scratch: Path) -> Child:
    """Run one child to completion; peak RSS and CPU time come from wait4."""
    with open(scratch / "stdout", "w+b") as out, open(scratch / "stderr", "w+b") as err:
        start = now_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        status = None
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                if not select.select([fd], [], [], CHILD_TIMEOUT_S)[0]:
                    proc.kill()
            finally:
                os.close(fd)
            _, status, usage = os.wait4(proc.pid, 0)
            end = now_ns()
        finally:
            if status is None:
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stderr = err.read()
        if proc.returncode != 0:
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        return Child(code=proc.returncode, start_ns=start, end_ns=end,
                     rss_mb=usage.ru_maxrss * 1024 / 1e6,
                     cpu_s=usage.ru_utime + usage.ru_stime, stdout=out.read())


@dataclass
class OpResult:
    wall_s: float
    command_walls: dict[str, float]
    rss_mb: float
    digests: dict[str, str]
    errors: list[str]
    spans: list[list] | None = None
    layers: dict | None = None


@dataclass
class Run:
    """Samples and checks gathered by one benchmark run."""

    workload: str
    size: str
    seed: int
    trace: bool
    expected: dict | None
    record: bool
    untraced: list[OpResult] = field(default_factory=list)
    traced: list[OpResult] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    seen: dict[str, dict[str, str]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    info: dict = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def check(self, key: str, op: OpResult) -> None:
        """Count the operation failed unless its outputs are right."""
        errors = list(op.errors)
        first = self.seen.setdefault(key, op.digests)
        if first != op.digests:
            errors.append(f"{key}: outputs differ from the first run of the same operation")
        if self.expected is not None and not self.record:
            want = self.expected.get(key)
            if want is None:
                errors.append(f"{key}: no digests recorded for seed 0")
            elif want != op.digests:
                diff = sorted(k for k in want.keys() | op.digests.keys()
                              if want.get(k) != op.digests.get(k))
                errors.append(f"{key}: digests differ from the recorded seed-0 outputs: {diff}")
        if errors:
            self.failed += 1
            self.failures.extend(errors)

    def finished(self, done: int, stop: float, deadline: float, keys: int) -> bool:
        """Whether to stop after `done` operations over `keys` distinct ones.

        A traced run stops only after a whole (untraced, traced) pair; a
        recording run only once every distinct operation has run.
        """
        now = time.perf_counter()
        if now >= deadline:
            return True
        if self.trace and done % 2:
            return False
        return now >= stop and (not self.record or len(self.seen) == keys)

    @property
    def attempted(self) -> int:
        return len(self.untraced) + len(self.traced)


def load_expected(size: str, workload: str, seed: int) -> dict | None:
    if seed != 0 or not EXPECTED.exists():
        return None
    return json.loads(EXPECTED.read_text()).get(size, {}).get(workload, {})


def save_expected(run: Run) -> None:
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data.setdefault(run.size, {})[run.workload] = run.seen
    EXPECTED.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run_cli_op(commands, flags: list[str], out_dir: Path, scratch: Path,
               traced: bool) -> OpResult:
    from workloads import digest_bytes, digest_file

    for _, _, outputs in commands:
        for name in outputs:
            (out_dir / name).unlink(missing_ok=True)
    spans: list[list] = [["op", now_ns(), 0, -1]]
    counters: dict[str, float] = {"cpu_s": 0.0, "output_bytes": 0}
    digests: dict[str, str] = {}
    errors: list[str] = []
    walls: dict[str, float] = {}
    rss = 0.0
    for label, args, outputs in commands:
        if traced:
            spans_path = scratch / "spans.json"
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)] + flags + args
        else:
            argv = [sys.executable, "-c", CLI] + flags + args
        child = spawn(argv, out_dir, scratch)
        walls[label] = child.wall_s
        rss = max(rss, child.rss_mb)
        counters["cpu_s"] += child.cpu_s
        digests[f"{label}:stdout"] = digest_bytes(child.stdout)
        if child.code != 0:
            errors.append(f"{label}: exit code {child.code}")
            continue
        for name in outputs:
            path = out_dir / name
            if not path.exists():
                errors.append(f"{label}: {name} not written")
                continue
            digests[f"{label}:{name}"] = digest_file(path)
            counters["output_bytes"] += path.stat().st_size
        if traced:
            data = json.loads(spans_path.read_text())
            base = len(spans)
            spans.append(["process", child.start_ns, child.end_ns, 0])
            for name, start, end, parent in data["spans"]:
                spans.append([name, start, end, base if parent == -1 else parent + base + 1])
            for k, v in data["counters"].items():
                counters[k] = counters.get(k, 0) + v
    spans[0][2] = now_ns()
    op = OpResult(wall_s=(spans[0][2] - spans[0][1]) / 1e9, command_walls=walls, rss_mb=rss,
                  digests=digests, errors=errors)
    if traced and not errors:
        problem = check_op_spans(spans)
        if problem:
            errors.append(f"trace: {problem}")
        op.spans = spans
        op.layers = op_layers(spans, counters)
    return op


def time_setup(inputs, scratch: Path) -> float:
    child = spawn([sys.executable, str(BENCH / "setup_probe.py")] + inputs.paths(),
                  scratch, scratch)
    if child.code != 0:
        raise RuntimeError(f"set-up probe exited with code {child.code}")
    return child.wall_s


def cli_workload(run: Run, seconds: float, deadline: float, work: Path) -> None:
    from pdsr import EvalMode, ProtocolConfig, evaluate, report_to_dict
    from workloads import make_inputs, match_probes

    import pdsr.cli  # noqa: F401  compiles the CLI's bytecode before timing

    inputs = make_inputs(run.workload, run.size, run.seed, work / "inputs")
    run.info.update(spec=asdict(inputs.spec), inputs=inputs.digests,
                    input_mb=inputs.input_mb(), frames=inputs.frames,
                    low_visibility_frames=inputs.low_vis_frames)
    want_report = None
    if run.workload == "eval-c8":
        want_report = report_to_dict(evaluate(
            inputs.gen.dataset, inputs.gen.canon, inputs.gen.provider,
            ProtocolConfig(seed=0), EvalMode.FUSED))
        ops = [("eval", EVAL_OP)]
    elif run.workload == "match-3cam":
        ops = [(p, match_op(p)) for p in match_probes(inputs.gen, run.seed)]
        run.info["probes"] = [p for p, _ in ops]
    else:
        ops = [("ingest", INGEST_OP)]
    inputs.gen = None  # free the in-memory dataset before timing
    out_dir = work / "out"
    out_dir.mkdir()
    run.info["prepare_s"] = time.perf_counter() - run.started
    if not run.trace:
        run.setup_s = [time_setup(inputs, work) for _ in range(SETUP_REPS)]

    flags = inputs.flags()
    stop = time.perf_counter() + seconds
    i = 0
    while True:
        traced = run.trace and i % 2 == 1
        key, commands = ops[(i // 2 if run.trace else i) % len(ops)]
        op = run_cli_op(commands, flags, out_dir, work, traced)
        if want_report is not None and "eval:report.json" in op.digests:
            got = json.loads((out_dir / "report.json").read_text())
            if any(got.get(k) != v for k, v in want_report.items()):
                op.errors.append("eval: report differs from in-process evaluate()")
        run.check(key, op)
        (run.traced if traced else run.untraced).append(op)
        i += 1
        if run.finished(i, stop, deadline, len(ops)):
            break


def sweep_workload(run: Run, seconds: float, deadline: float, work: Path) -> None:
    import pdsr.evaluation
    from pdsr import EvalMode, ProtocolConfig, report_to_dict
    from pdsr.dataset_io import save_dataset
    from workloads import (SWEEP_WEIGHTS, digest_bytes, digest_file, gen_spec,
                           make_sweep_problem, sweep_seeds)

    problems = [make_sweep_problem(run.size, s) for s in sweep_seeds(run.seed)]
    inputs = {}
    for p in problems:
        save_dataset(p.gen.dataset, work / "manifest.json", work / "features.bin")
        inputs[f"{p.seed}:manifest.json"] = digest_file(work / "manifest.json")
        inputs[f"{p.seed}:features.bin"] = digest_file(work / "features.bin")
    run.info.update(spec=asdict(gen_spec(run.workload, run.size, run.seed)),
                    problem_seeds=[p.seed for p in problems], inputs=inputs,
                    prepare_s=time.perf_counter() - run.started)

    def sweep(problem, provider):
        # Looked up on each call, so that the traced run sees the tracer's wrapper.
        return [pdsr.evaluation.evaluate(problem.gen.dataset, problem.gen.canon, provider,
                                         ProtocolConfig(seed=0, fusion_weight=w), EvalMode.WF)
                for w in SWEEP_WEIGHTS]

    stop = time.perf_counter() + seconds
    i = 0
    while True:
        traced = run.trace and i % 2 == 1
        problem = problems[(i // 2 if run.trace else i) % len(problems)]
        if not run.trace:
            # A set-up sample before each operation spreads them over the run.
            # Each is the fastest of a few back-to-back generate() calls: one
            # takes about 5 ms, far shorter than the host's slow stretches.
            run.setup_s.append(min(timed(make_sweep_problem, run.size, problem.seed)
                                   for _ in range(SWEEP_SETUP_TRIES)))
        errors: list[str] = []
        spans = None
        cpu = resource.getrusage(resource.RUSAGE_SELF)
        try:
            if traced:
                tracer = Tracer()
                tracer.install()
                try:
                    root = tracer.begin("op")
                    reports = sweep(problem, CountingProvider(problem.provider, tracer))
                    tracer.end(root)
                finally:
                    tracer.uninstall()
                spans = tracer.spans
                wall = (spans[0][2] - spans[0][1]) / 1e9
            else:
                started = time.perf_counter()
                reports = sweep(problem, problem.provider)
                wall = time.perf_counter() - started
            digests = {"reports": digest_bytes(
                json.dumps([report_to_dict(r) for r in reports], sort_keys=True).encode())}
        except Exception as exc:  # one failed operation must not end the run
            errors.append(f"sweep: {type(exc).__name__}: {exc}")
            digests, wall = {}, 0.0
        after = resource.getrusage(resource.RUSAGE_SELF)
        op = OpResult(wall_s=wall, command_walls={"sweep": wall}, rss_mb=0.0,
                      digests=digests, errors=errors)
        if spans is not None and not errors:
            bad_spans = check_op_spans(spans)
            if bad_spans:
                op.errors.append(f"trace: {bad_spans}")
            counters = tracer.counters()
            counters["cpu_s"] = (after.ru_utime + after.ru_stime) - (cpu.ru_utime + cpu.ru_stime)
            op.spans, op.layers = spans, op_layers(spans, counters)
        run.check(str(problem.seed), op)
        (run.traced if traced else run.untraced).append(op)
        i += 1
        if run.finished(i, stop, deadline, len(problems)):
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    for op in run.untraced:
        op.rss_mb = peak


def timed(fn, *args) -> float:
    started = time.perf_counter()
    fn(*args)
    return time.perf_counter() - started


def metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def summarize(run: Run) -> dict[str, dict]:
    """Metrics of a finished run, each with its unit and sample count."""
    ok = [op for op in run.untraced if not op.errors]
    walls = [op.wall_s for op in ok]
    if run.trace:
        pairs = [(u, t) for u, t in zip(run.untraced, run.traced)
                 if not u.errors and t.layers is not None]
        if not pairs:
            return {}
        layers = median_layers([t.layers for _, t in pairs])
        # Each traced operation runs right after its untraced twin, so the
        # paired difference cancels most of the host's slow drift.
        layers["trace.overhead_s"] = statistics.median(t.wall_s - u.wall_s for u, t in pairs)
        return {k: metric(layers[k], LAYER_METRICS[k], len(pairs)) for k in LAYER_METRICS}
    if not walls:
        return {}
    labels = ok[0].command_walls
    out = {
        "wall_min_s": metric(sum(min(op.command_walls[k] for op in ok) for k in labels),
                             "s", len(walls)),
        "setup_s": metric(statistics.median(run.setup_s), "s", len(run.setup_s)),
        "peak_rss_mb": metric(statistics.median(op.rss_mb for op in ok), "MB", len(ok)),
        "wall_p50_s": metric(statistics.median(walls), "s", len(walls)),
    }
    if len(walls) >= P90_MIN_SAMPLES:
        out["wall_p90_s"] = metric(statistics.quantiles(walls, n=10)[-1], "s", len(walls))
    return out


def write_spans(run: Run) -> Path:
    """All traced operations' spans: [name, start_ns, end_ns, parent, op]."""
    path = WORK / "traces" / f"{run.workload}-{run.size}-s{run.seed}.spans.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = [span + [op_id] for op_id, op in enumerate(run.traced) if op.spans
            for span in op.spans]
    path.write_text(json.dumps({"workload": run.workload, "size": run.size,
                                "seed": run.seed, "spans": rows}))
    return path


def host_info() -> dict:
    import numpy

    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": list(os.getloadavg())}


def run_one(workload: str, args) -> tuple[dict, dict]:
    run = Run(workload=workload, size=args.size, seed=args.seed, trace=bool(args.trace),
              expected=load_expected(args.size, workload, args.seed),
              record=args.record_expected)
    work = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = run.started + RUN_LIMIT_S
    try:
        if workload == "sweep-small":
            sweep_workload(run, args.seconds, deadline, work)
        else:
            cli_workload(run, args.seconds, deadline, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record_expected:
        save_expected(run)
    run.info["run_s"] = time.perf_counter() - run.started
    metrics = summarize(run)
    if not metrics:
        run.failures.append("no operation succeeded")
    expected_names = list(LAYER_METRICS if run.trace else END_TO_END)
    correct = run.failed == 0 and all(k in metrics for k in expected_names)
    record = {
        "workload": workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host_info(),
        **run.info,
        "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "correct": correct, "failures": run.failures[:20],
        "metrics": metrics,
        "samples": {"wall_s": [op.wall_s for op in run.untraced],
                    "traced_wall_s": [op.wall_s for op in run.traced],
                    "setup_s": run.setup_s,
                    "peak_rss_mb": [op.rss_mb for op in run.untraced]},
    }
    if run.trace:
        record["spans_file"] = str(write_spans(run).relative_to(ROOT))
    line = {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed if run.attempted else 1,
            "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                        for k in expected_names if k in metrics}}
    return record, line


def print_block(record: dict) -> None:
    print(f"{record['workload']} (size {record['size']}, seed {record['seed']}, "
          f"trace {record['trace']}): {record['attempted']} operations")
    for name, m in record["metrics"].items():
        print(f"  {name:<38s} {m['value']:>14.6g} {m['unit']:<6s} (n={m['n']})")
    print(f"  {'fail_ratio':<38s} {record['fail_ratio']:>14.6g} {'ratio':<6s} "
          f"(n={record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)


def append_results(path: Path, records: list[dict]) -> None:
    data = json.loads(path.read_text()) if path.exists() else {"runs": []}
    data["runs"].extend(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full run records to this results JSON file")
    parser.add_argument("--record-expected", action="store_true",
                        help="store this run's seed-0 output digests in bench/expected.json")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "pdsr" / "__init__.py").is_file():
        print(f"error: no pdsr sources under {SRC}; run from a pdsr checkout", file=sys.stderr)
        return 2
    if args.record_expected and args.seed != 0:
        parser.error("--record-expected needs --seed 0")
    sys.path.insert(0, str(SRC))

    records = []
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        record, line = run_one(workload, args)
        records.append(record)
        print_block(record)
        print(json.dumps(line), flush=True)
    if args.out is not None:
        append_results(args.out, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
