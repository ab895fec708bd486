"""Self-test of the benchmark on small inputs.

Usage: python3 perfbench/selftest.py   (from the root of a source checkout)

Checks that BENCHMARK.json and the benchmark's own tables agree, that the
workload files and exact references describe the intended graphs, that a
small closed-loop run in both modes prints every metric with its unit, and
that the correctness gate rejects corrupted reports. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import gate  # noqa: E402
import workloads  # noqa: E402
from matchbound import cli  # noqa: E402
from matchbound.exact import (  # noqa: E402
    complete_bipartite_counts,
    complete_graph_counts,
    matching_counts,
)
from matchbound.graphs import WeightedGraph, parse_graph  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(
        [(w["name"], w["why"]) for w in spec["workloads"]]
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()],
        "BENCHMARK.json workloads and their reasons match workloads.py",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [row[:3] for row in run.PER_LAYER],
        "BENCHMARK.json per_layer matches run.PER_LAYER",
    )


def check_workload_graphs() -> None:
    for w in workloads.WORKLOADS.values():
        n, edges = w.edges()
        g = parse_graph(workloads.graph_text(n, edges))
        expect(g == WeightedGraph(n, tuple(edges)), f"{w.name}: graph file parses back exactly")
    one_copy = WeightedGraph(8, tuple(e for e in workloads.sparse_edges()[1] if e[0] < 8))
    closed_form = complete_bipartite_counts(2, 6, 0.5).counts
    expect(
        all(
            math.isclose(a, b, rel_tol=1e-12)
            for a, b in zip(matching_counts(one_copy).counts, closed_form)
        ),
        "sparse: one copy's enumerated counts equal the K_{2,6} closed form",
    )
    two_copies = WeightedGraph(16, tuple(e for e in workloads.sparse_edges()[1] if e[0] < 16))
    product = (
        complete_bipartite_counts(2, 6, workloads.sparse_weight(0)).log_eval(1.0)
        + complete_bipartite_counts(2, 6, workloads.sparse_weight(1)).log_eval(1.0)
    )
    expect(
        math.isclose(matching_counts(two_copies).log_eval(1.0), product, rel_tol=1e-12),
        "a disjoint union's polynomial is the product of its parts'",
    )
    expect(workloads.sparse_weight(15) == 2.0, "sparse weights run from 0.5 to 2")


SMALL = workloads.Workload(
    "k6", lambda: workloads.complete_edges(6), lambda: complete_graph_counts(6),
    1.0, 1.0, 0.1, 2, "K6: a few hundred samples, for the self-test",
)


def check_runs(work: Path) -> str:
    """Small runs in both modes; returns a passing report for the gate checks."""
    for trace, table in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        record = run.measure(SMALL, 7, 0.0, trace, work)
        summary, lines = run.result(record, trace)
        mode = "traced" if trace else "untraced"
        expect(summary["correct"] and summary["failed"] == 0, f"{mode} K6 run passes the gate")
        expect(summary["attempted"] == run.MIN_CALLS, f"{mode} K6 run makes {run.MIN_CALLS} calls")
        for name, unit, *_ in table:
            printed = any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
            reported = summary["metrics"].get(name, {}).get("unit") == unit
            expect(printed and reported, f"{mode}: {name} printed and reported in {unit}")
        expect(len(summary["metrics"]) == len(table), f"{mode}: no extra metrics")
        expect(json.loads(json.dumps(summary)) == summary, f"{mode}: result is plain JSON")
    expect(any("layers" in c for c in record["calls"]), "traced run records layer spans")
    names = {s["name"] for spans in record["spans"] for s in spans}
    for layer in ("cli.", "graphs.", "analysis.", "estimator.", "linalg."):
        expect(any(n.startswith(layer) for n in names), f"traced run has {layer[:-1]} spans")
    argv = run.estimate_argv(SMALL, work / "k6.txt", work / "report.json", 7, 2)
    _, code, text = run.one_call(cli.main, argv, work / "report.json")
    expect(code == 0, "K6 estimate call exits 0")
    return text


def check_gate(text: str) -> None:
    ref = complete_graph_counts(6)
    expect(gate.check(0, text, ref, 1.0, None) == [], "gate passes a true report")
    expect(gate.check(0, text, ref, 1.0, text) == [], "gate passes a repeated report")

    def corrupt(edit) -> str:
        report = json.loads(text)
        edit(report)
        return json.dumps(report)

    def shift(block: str, **deltas):
        return lambda r: r[block].update({k: r[block][k] + d for k, d in deltas.items()})

    cases = {
        "shifted mean_log": corrupt(shift("estimate", mean_log=0.5)),
        "null upper bound": corrupt(lambda r: r["bounds"].update(upper_log=None)),
        "null std_err_det": corrupt(lambda r: r["estimate"].update(std_err_det=None)),
        "bracket above log Phi": corrupt(
            lambda r: [
                shift("estimate", mean_log=50)(r),
                shift("bounds", lower_log=50, upper_log=50)(r),
            ]
        ),
        "mean_det off target": corrupt(shift("estimate", mean_det=1e3)),
        "missing bounds": corrupt(lambda r: r.pop("bounds")),
        "not JSON": text[: len(text) // 2],
    }
    for what, bad in cases.items():
        expect(gate.check(0, bad, ref, 1.0, None) != [], f"gate rejects a report with {what}")
    expect(gate.check(3, text, ref, 1.0, None) != [], "gate rejects a non-zero exit code")
    expect(gate.check(0, text.replace("\n", " \n", 1), ref, 1.0, text) != [],
           "gate rejects a report that differs from the first of its seed")


def main() -> int:
    check_benchmark_json()
    check_workload_graphs()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.OUT) as work:
        text = check_runs(Path(work))
    check_gate(text)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
