"""matchbound benchmark: time to a certified bracket on fixed graphs.

Usage:
    python3 perfbench/run.py --workload {dense,sparse,tiny} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; matchbound is imported from src/.
Each run is one process and a closed loop with one caller: it calls
`matchbound.cli.main(["estimate", ...])` in-process, waits for the report,
checks it against the exact matching polynomial, and calls again while a
call of median length would still end within --seconds, and at least
twice, so that same-seed reports can be compared byte for byte. Every
call uses --seed.

--trace 0 times the calls untraced and reports the end-to-end metrics.
--trace 1 alternates untraced and traced calls and reports the per-layer
metrics of the traced ones (see spans.py). The last line of standard output
is one JSON object: correct, attempted, failed and metrics. A full record,
spans included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
MIN_CALLS = 2

# name, unit, better
END_TO_END = (
    ("call_s.p50", "s", "lower"),
    ("samples_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("bracket_width", "nats", "lower"),
)

# what each per-layer metric should move, on which workload
LINALG_WORK = "call_s.p50, samples_per_s on dense; about no change on sparse"
LINALG_THREADS = "samples_per_s on dense (2 threads); sparse runs on 1 thread"
LINALG_MEMORY = "peak_rss_mb on dense and sparse"
ESTIMATOR_TIME = "samples_per_s on sparse and tiny; a small share on dense"
ESTIMATOR_WORK = "call_s.p50, bracket_width on all; failed_fraction"

# name, unit, better, the end-to-end metric it should move
PER_LAYER = (
    ("linalg.busy_s", "s", "lower", LINALG_WORK),
    ("linalg.calls", "count", "lower", LINALG_WORK),
    ("linalg.matrices", "count", "lower", LINALG_WORK),
    ("linalg.matrix_dim", "count", "lower", LINALG_WORK),
    ("linalg.nominal_gflop", "Gflop", "lower", LINALG_WORK),
    ("linalg.gflop_per_s", "Gflop/s", "higher", LINALG_WORK),
    ("linalg.wall_s", "s", "lower", LINALG_THREADS),
    ("linalg.concurrency", "ratio", "higher", LINALG_THREADS),
    ("linalg.batch_max", "count", "lower", LINALG_MEMORY),
    ("linalg.input_mb_max", "MB", "lower", LINALG_MEMORY),
    ("estimator.busy_s", "s", "lower", ESTIMATOR_TIME),
    ("estimator.self_s", "s", "lower", ESTIMATOR_TIME),
    ("estimator.samples", "count", "lower", ESTIMATOR_WORK),
    ("estimator.useful_ratio", "ratio", "higher", ESTIMATOR_WORK),
    ("graphs.busy_s", "s", "lower", "setup_s"),
    ("graphs.calls", "count", "lower", "setup_s"),
    ("analysis.busy_s", "s", "lower", "setup_s"),
    ("analysis.calls", "count", "lower", "setup_s"),
    ("cli.busy_s", "s", "lower", "call_s.p50 on tiny"),
    ("cli.self_s", "s", "lower", "call_s.p50 on tiny"),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced call_s.p50"),
    ("failed_fraction", "ratio", "lower", "nothing: calls failing the gate / calls"),
)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def environment(workload, threads: int, seed: int) -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k]['name']} {deps[k].get('version', '')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "threads": threads,
        "threads_requested": workload.threads,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def setup_seconds(graph_path: Path) -> list[float]:
    """Import plus graph preparation, timed in each of several fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(graph_path), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(float(done.stdout.strip().splitlines()[-1]))
    return runs


def estimate_argv(workload, graph: Path, out: Path, seed: int, threads: int) -> list[str]:
    return [
        "estimate", "--graph", str(graph), "--t", repr(workload.t),
        "--eps", repr(workload.eps), "--delta", repr(workload.delta),
        "--threads", str(threads), "--seed", str(seed),
        "--format", "json", "--out", str(out),
    ]


def one_call(entry, argv: list[str], out: Path) -> tuple[float, int, str]:
    """(seconds, exit code, report text) of one call; an exception is a failed call."""
    out.unlink(missing_ok=True)
    started = perf_counter()
    try:
        code = entry(argv)
    except Exception:  # the loop must go on and count the call as failed
        traceback.print_exc()
        code = -1
    seconds = perf_counter() - started
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return seconds, code, text


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload's closed loop; returns the record of the run."""
    import gate
    import spans
    from matchbound import cli
    from workloads import graph_text

    threads = min(workload.threads, nproc())
    n, edges = workload.edges()
    graph = work / f"{workload.name}.txt"
    graph.write_text(graph_text(n, edges), encoding="utf-8")
    out = work / "report.json"
    reference = workload.reference()
    argv = estimate_argv(workload, graph, out, seed, threads)
    setup = None if trace else setup_seconds(graph)

    calls, traced_spans, first_text = [], [], None
    deadline = perf_counter() + seconds
    # start a call only if a typical call still ends within --seconds
    while len(calls) < MIN_CALLS or perf_counter() + _med(c["seconds"] for c in calls) <= deadline:
        traced = trace and len(calls) % 2 == 1
        tracer = spans.Tracer() if traced else None
        entry = cli.main
        if traced:
            tracer.install()
            entry = tracer.wrap("cli.main", cli.main)
        try:
            dt, code, text = one_call(entry, argv, out)
        finally:
            if traced:
                tracer.uninstall()
        problems = gate.check(code, text, reference, workload.t, first_text)
        if first_text is None:
            first_text = text
        call = {"seconds": dt, "exit_code": code, "traced": traced, "problems": problems}
        if not problems:
            report = json.loads(text)
            est, bounds = report["estimate"], report["bounds"]
            call["k"] = report.get("plan", {}).get("samples", est["samples"])
            call["failures"] = est.get("failures", 0)
            call["bracket_width"] = bounds["upper_log"] - bounds["lower_log"]
        if traced:
            call["layers"] = spans.layer_metrics(tracer.spans)
            traced_spans.append(tracer.spans)
        calls.append(call)
        for p in problems:
            print(f"call {len(calls)}: {p}", file=sys.stderr)

    return {
        "env": environment(workload, threads, seed),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": calls,
        "spans": [[asdict(s) for s in call_spans] for call_spans in traced_spans],
    }


def _med(values, default=0.0) -> float:
    values = list(values)
    return median(values) if values else default


def end_to_end(record: dict) -> dict[str, float]:
    plain = [c for c in record["calls"] if not c["traced"]]
    good = [c for c in plain if "k" in c]
    return {
        "call_s.p50": _med(c["seconds"] for c in plain),
        "samples_per_s": _med(c["k"] / c["seconds"] for c in good),
        "setup_s": _med(record["setup_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "bracket_width": _med(c["bracket_width"] for c in good),
    }


def per_layer(record: dict) -> dict[str, float]:
    calls = record["calls"]
    traced = [c for c in calls if c["traced"]]
    plain = [c for c in calls if not c["traced"]]
    out = {key: _med(c["layers"][key] for c in traced) for key in traced[0]["layers"]}
    good = [c for c in traced if "k" in c]
    out["estimator.samples"] = _med(c["k"] for c in good)
    out["estimator.useful_ratio"] = _med((c["k"] - c["failures"]) / c["k"] for c in good)
    out["trace.overhead_s"] = _med(c["seconds"] for c in traced) - _med(c["seconds"] for c in plain)
    out["failed_fraction"] = sum(1 for c in calls if c["problems"]) / len(calls)
    return out


def result(record: dict, trace: bool) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines that precede it."""
    calls = record["calls"]
    failed = sum(1 for c in calls if c["problems"])
    table = PER_LAYER if trace else END_TO_END
    values = per_layer(record) if trace else end_to_end(record)
    metrics = {row[0]: {"value": values[row[0]], "unit": row[1]} for row in table}
    plain = sum(1 for c in calls if not c["traced"])
    lines = [f"env {json.dumps(record['env'], sort_keys=True)}"]
    lines.append(
        f"calls {len(calls)} ({plain} untraced, {len(calls) - plain} traced),"
        f" failed {failed}, failed_fraction {failed / len(calls)!r} ratio"
    )
    if not trace:
        lines.append(f"setup_s is the median of {len(record['setup_s'])} fresh interpreters")
    for row in table:
        note = f"  [moves {row[3]}]" if trace else ""
        lines.append(f"{row[0]} = {values[row[0]]!r} {row[1]}{note}")
    summary = {
        "correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics,
    }
    return summary, lines


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "matchbound" / "__init__.py").is_file():
        print(f"perfbench: no matchbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as work:
        record = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(work)
        )
    summary, lines = result(record, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**record, "result": summary}, indent=1), encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
