"""Command-line front end: estimate, verify, bench, constants.

Reports are emitted as deterministic JSON (floats at 17 significant
digits, no wall-clock fields) or as human-readable text; bench tables can
also be written as RFC 4180 CSV. Exit codes: 0 success, 2 usage or input
errors, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any

from .analysis import GapSweepRow, c1_constant, gaussian_log_gap, optimality_sweep
from .estimator import (
    BoundsReport,
    EstimateResult,
    EstimatorError,
    FprasPlan,
    _exp,
    bounds_report,
    estimate_log_phi_tilde,
    plan_samples,
)
from .exact import GraphTooLargeError, matching_counts
from .graphs import GraphFormatError, WeightedGraph, bipartition, parse_graph, skew_adjacency
from .linalg import NonPositiveDeterminantError, SingularAtZeroError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

_SLACK_STD_ERRS = 4.0


@dataclass
class RunReport:
    """Everything one invocation produced. wall_time_seconds stays out of
    the JSON payload so identical invocations are byte-identical."""

    payload: dict[str, Any]
    wall_time_seconds: float


def _json_scalar(x: Any) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if not math.isfinite(x):
            return "null"
        return f"{x:.17g}"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=False)
    raise TypeError(f"unsupported JSON scalar {type(x)!r}")


def to_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    return _json_scalar(obj)


def _text_block(payload: dict[str, Any], prefix: str = "") -> list[str]:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_text_block(value, prefix + "  "))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{prefix}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.extend(_text_block(item, prefix + "  "))
                    lines.append("")
                else:
                    lines.append(f"{prefix}  {item}")
        elif isinstance(value, float):
            lines.append(f"{prefix}{key} = {value:.10g}")
        else:
            lines.append(f"{prefix}{key} = {value}")
    return lines


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_graph(path: str) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _estimate_summary(est: EstimateResult) -> dict[str, Any]:
    return {
        "samples": est.k,
        "failures": est.failures,
        "t": est.t,
        "seed": est.seed,
        "mean_log": est.mean_log,
        "std_err": est.std_err,
        "mean_det": est.mean_det,
        "std_err_det": est.std_err_det,
        "log_mean_det": est.log_mean_det,
        "max_abs_variate": est.max_abs_variate,
    }


def _bounds_summary(b: BoundsReport) -> dict[str, Any]:
    return {
        "lower_log": b.lower_log,
        "gap_asymptotic": b.gap_asymptotic,
        "gap_finite_sample": b.gap_finite_sample,
        "upper_log": b.upper_log,
        "per_vertex_gap": b.per_vertex_gap,
    }


def _plan_summary(plan: FprasPlan) -> dict[str, Any]:
    return {
        "epsilon": plan.epsilon,
        "delta": plan.delta,
        "deviation_radius": plan.deviation_radius,
        "samples": plan.samples,
    }


def _row_summary(row: GapSweepRow) -> dict[str, Any]:
    return {
        "m": row.m,
        "n": row.n,
        "t": row.t,
        "samples": row.samples,
        "exact_per_vertex": row.exact_per_vertex,
        "estimate_per_vertex": row.estimate_per_vertex,
        "gap_per_vertex": row.gap_per_vertex,
        "std_err_per_vertex": row.std_err_per_vertex,
        "gap_bound": row.gap_bound,
    }


def _command_echo(args: argparse.Namespace, keys: list[str]) -> dict[str, Any]:
    echo: dict[str, Any] = {"subcommand": args.subcommand}
    for key in keys:
        echo[key] = getattr(args, key.replace("-", "_"))
    return echo


def _run_estimate(args: argparse.Namespace) -> RunReport:
    started = time.monotonic()
    g = _load_graph(args.graph)
    if not args.t > 0:
        raise ValueError("--t must be positive")
    adj = skew_adjacency(g)
    bip = bipartition(g)

    plan = None
    k = args.samples
    if k is None:
        if args.eps is None or args.delta is None:
            raise ValueError("provide --samples or both --eps and --delta")
        if adj.amplitude == 0.0:
            k = 1  # edgeless graphs are deterministic; one sample is exact
        else:
            plan = plan_samples(args.eps, args.delta, g.n_vertices, adj.amplitude, args.t)
            k = plan.samples

    est = estimate_log_phi_tilde(g, args.t, k, args.seed, threads=args.threads)
    bounds = bounds_report(est, adj.amplitude, g.n_vertices, args.t, c1_constant())

    # thread count is deliberately not echoed: it never affects the numbers,
    # and reports must be byte-identical across worker counts
    payload: dict[str, Any] = {
        "command": _command_echo(args, ["graph", "t", "eps", "delta", "samples", "seed"]),
        "graph": {
            "n_vertices": g.n_vertices,
            "n_edges": g.n_edges,
            "amplitude": adj.amplitude,
            "bipartite": bip is not None,
        },
    }
    if plan is not None:
        payload["plan"] = _plan_summary(plan)
    payload["estimate"] = _estimate_summary(est)
    payload["bounds"] = _bounds_summary(bounds)
    return RunReport(payload, time.monotonic() - started)


def _run_verify(args: argparse.Namespace) -> tuple[RunReport, bool]:
    started = time.monotonic()
    g = _load_graph(args.graph)
    if not args.t > 0:
        raise ValueError("--t must be positive")
    adj = skew_adjacency(g)

    # phi_{cw}(k) = c^k phi_w(k): count on weights scaled to a largest weight
    # of 1, so the float counts cannot overflow, and sum the terms
    # phi(k) t^(floor(N/2) - k) in log space (t/c itself may not be a double)
    c = g.max_weight or 1.0
    scaled = WeightedGraph(g.n_vertices, tuple((u, v, w / c) for u, v, w in g.edges))
    terms = [
        math.log(p) + k * math.log(c) + (g.n_vertices // 2 - k) * math.log(args.t)
        for k, p in enumerate(matching_counts(scaled).counts)
        if p > 0.0
    ]
    lead = max(terms)
    log_value = lead + math.log(math.fsum(math.exp(x - lead) for x in terms))

    est = estimate_log_phi_tilde(g, args.t, args.samples, args.seed, threads=args.threads)
    bounds = bounds_report(est, adj.amplitude, g.n_vertices, args.t, c1_constant())

    # unbiased target: the polynomial value, times sqrt(t) when N is odd;
    # mean, target and standard error are all divided by the larger of the
    # first two, so none overflows
    log_target = log_value + (0.5 * math.log(args.t) if g.n_vertices % 2 else 0.0)
    top = max(est.log_mean_det, log_target)
    se_det = math.exp(est.log_std_err_det - top)
    diff = math.exp(est.log_mean_det - top) - math.exp(log_target - top)
    residual = diff / se_det if se_det > 0 else 0.0

    # statistical slack plus a rounding-level guard (the two sides of an
    # exact tie are computed by different routes and may differ in the ulps);
    # the report's bracket already carries the odd-N sqrt(t) adjustment
    slack = _SLACK_STD_ERRS * est.std_err + 1e-9 * (1.0 + abs(log_value))
    lower_ok = bounds.lower_log - slack <= log_value
    upper_ok = log_value <= bounds.lower_log + bounds.gap_asymptotic + slack
    sandwich_ok = lower_ok and upper_ok

    payload: dict[str, Any] = {
        "command": _command_echo(args, ["graph", "t", "samples", "seed"]),
        "graph": {
            "n_vertices": g.n_vertices,
            "n_edges": g.n_edges,
            "amplitude": adj.amplitude,
        },
        "estimate": _estimate_summary(est),
        "bounds": _bounds_summary(bounds),
        "oracle": {
            "log_value": log_value,
            "value": _exp(log_value),
            "target_mean_det": _exp(log_target),
            "residual_std_errs": residual,
            "sandwich_lower_ok": lower_ok,
            "sandwich_upper_ok": upper_ok,
            "sandwich_ok": sandwich_ok,
        },
    }
    return RunReport(payload, time.monotonic() - started), sandwich_ok


def _parse_sides(raw: str) -> list[int | tuple[int, int]]:
    sides: list[int | tuple[int, int]] = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "x" in chunk:
            m_str, n_str = chunk.split("x", 1)
            sides.append((int(m_str), int(n_str)))
        else:
            sides.append(int(chunk))
    if not sides:
        raise ValueError("--sides must name at least one side")
    return sides


def _parse_weight_range(raw: str) -> tuple[float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) == 1:
        w = float(parts[0])
        lo, hi = w, w
    elif len(parts) == 2:
        lo, hi = float(parts[0]), float(parts[1])
    else:
        raise ValueError("--w expects W or LO,HI")
    if not (0 < lo <= hi) or not math.isfinite(hi):
        raise ValueError("--w values must satisfy 0 < LO <= HI < inf")
    return lo, hi


def _run_bench(args: argparse.Namespace) -> RunReport:
    started = time.monotonic()
    sides = _parse_sides(args.sides)
    lo, hi = _parse_weight_range(args.w)
    rows = optimality_sweep(
        sides, args.t, lo, hi, args.seed, args.samples, threads=args.threads
    )
    payload = {
        "command": _command_echo(args, ["sides", "t", "w", "samples", "seed"]),
        "rows": [_row_summary(r) for r in rows],
    }
    return RunReport(payload, time.monotonic() - started)


def _bench_csv(rows: list[dict[str, Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # csv defaults are RFC 4180: CRLF, minimal quoting
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row.values()])
    return buf.getvalue()


def _run_constants(args: argparse.Namespace) -> RunReport:
    started = time.monotonic()
    if not (math.isfinite(args.grid_step) and args.grid_step > 0):
        raise ValueError("--grid-step must be finite and positive")
    if not (math.isfinite(args.grid_max) and (args.grid_max + 1e-12) / args.grid_step < 1e4):
        raise ValueError("--grid-max must be finite, and --grid-max / --grid-step below 10^4")
    c1 = c1_constant()
    table = []
    i = 0
    # each point is i * step: accumulating a += step would drift
    while (a := i * args.grid_step) <= args.grid_max + 1e-12:
        table.append({"a": a, "gap": gaussian_log_gap(a)})
        i += 1
    payload = {
        "command": {"subcommand": "constants"},
        "c1": c1,
        "gap_table": table,
    }
    return RunReport(payload, time.monotonic() - started)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchbound",
        description="Certified lower bounds for weighted matching polynomials",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, with_graph: bool = True) -> None:
        if with_graph:
            p.add_argument("--graph", required=True, help="graph file path")
            p.add_argument("--t", type=float, required=True, help="polynomial argument, > 0")
        p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
        p.add_argument(
            "--threads", type=int, default=os.cpu_count(), help="worker threads (default: all cores)"
        )
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write the report to this path")

    p_est = sub.add_parser("estimate", help="estimate certified bounds for a graph file")
    common(p_est)
    p_est.add_argument("--samples", type=int, default=None, help="sample count")
    p_est.add_argument("--eps", type=float, default=None, help="relative accuracy in (0, 1]")
    p_est.add_argument("--delta", type=float, default=None, help="failure probability in (0, 1)")

    p_ver = sub.add_parser("verify", help="compare the estimator against exact enumeration")
    common(p_ver)
    p_ver.add_argument("--samples", type=int, default=100_000)

    p_bench = sub.add_parser("bench", help="per-vertex gap sweep over complete bipartite graphs")
    p_bench.add_argument("--sides", required=True, help="comma list: N or MxN entries")
    p_bench.add_argument("--t", type=float, required=True)
    p_bench.add_argument("--w", required=True, help="uniform weight W, or LO,HI for random weights")
    p_bench.add_argument("--samples", type=int, default=20_000, help="samples per sweep point")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--threads", type=int, default=os.cpu_count())
    p_bench.add_argument("--format", choices=("json", "text", "csv"), default="text")
    p_bench.add_argument("--out", default=None)

    p_const = sub.add_parser("constants", help="print the gap constant and its shifted table")
    p_const.add_argument("--grid-max", type=float, default=8.0)
    p_const.add_argument("--grid-step", type=float, default=0.25)
    p_const.add_argument("--format", choices=("json", "text"), default="text")
    p_const.add_argument("--out", default=None)

    return parser


def _render(report: RunReport, fmt: str) -> str:
    if fmt == "json":
        return to_json(report.payload) + "\n"
    if fmt == "csv":
        return _bench_csv(report.payload["rows"])
    lines = _text_block(report.payload)
    lines.append(f"wall_time_seconds = {report.wall_time_seconds:.3f}")
    return "\n".join(lines) + "\n"


def _render_constants_text(report: RunReport) -> str:
    lines = [f"c1 = {report.payload['c1']:.10f}", "", f"{'a':>6}  {'gap':>14}"]
    for row in report.payload["gap_table"]:
        lines.append(f"{row['a']:>6.2f}  {row['gap']:>14.10f}")
    lines.append(f"wall_time_seconds = {report.wall_time_seconds:.3f}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "estimate":
            report = _run_estimate(args)
            _write_output(_render(report, args.format), args.out)
            return EXIT_OK
        if args.subcommand == "verify":
            report, sandwich_ok = _run_verify(args)
            _write_output(_render(report, args.format), args.out)
            if not sandwich_ok:
                print("verification failed: sandwich bound violated beyond slack", file=sys.stderr)
                return EXIT_VERIFY
            return EXIT_OK
        if args.subcommand == "bench":
            report = _run_bench(args)
            _write_output(_render(report, args.format), args.out)
            return EXIT_OK
        if args.subcommand == "constants":
            report = _run_constants(args)
            if args.format == "text":
                _write_output(_render_constants_text(report), args.out)
            else:
                _write_output(_render(report, args.format), args.out)
            return EXIT_OK
        parser.error(f"unknown subcommand {args.subcommand!r}")
    except (GraphFormatError, GraphTooLargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonPositiveDeterminantError, SingularAtZeroError, EstimatorError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
