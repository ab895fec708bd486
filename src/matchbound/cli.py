"""Command-line front end: estimate, verify, bench, constants.

Reports are emitted as deterministic, strict JSON by `json.dumps` (each
float in the shortest form that parses back to the same double, integral
ones with `.0`, non-finite ones as `null`; no wall-clock fields) or as
human-readable text; bench tables can also be written as RFC 4180 CSV by
`csv.writer`. Exit codes: 0 success, 2 usage or input errors, 3 numerical
failure, 4 verification failure.
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
from dataclasses import asdict
from typing import Any

from .analysis import c1_constant, gaussian_log_gap, optimality_sweep
from .estimator import (
    MAX_THREADS,
    BoundsReport,
    EstimateResult,
    _exp,
    bounds_report,
    estimate_log_phi_tilde,
    plan_samples,
)
from .exact import GraphTooLargeError, log_polynomial
from .graphs import (
    GraphFormatError,
    WeightedGraph,
    WeightSums,
    parse_graph,
    weight_sums,
)
from .linalg import NonPositiveDeterminantError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

_SLACK_STD_ERRS = 4.0
_PARSER: argparse.ArgumentParser | None = None  # built by the first main call, once per process


def _finite(obj: Any) -> Any:
    """obj with each non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def to_json(obj: Any) -> str:
    """Strict JSON: floats in their shortest round-trip form, non-finite ones as null."""
    return json.dumps(_finite(obj), indent=2, ensure_ascii=False, allow_nan=False)


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


def _pick(obj: Any, keys: str) -> dict[str, Any]:
    """The named attributes of obj, in the order of the space-separated keys."""
    return {key: getattr(obj, key) for key in keys.split()}


def _graph(args: argparse.Namespace) -> tuple[WeightedGraph, WeightSums, dict[str, Any]]:
    """The graph of --graph, its weight sums and its report block, once --t is checked."""
    with open(args.graph, "r", encoding="utf-8-sig") as fh:  # with or without a BOM
        g = parse_graph(fh.read())
    if not 0 < args.t < math.inf:
        raise ValueError("--t must be positive and finite")
    sums = weight_sums(g)
    block = {
        "n_vertices": g.n_vertices,
        "n_edges": g.n_edges,
        "amplitude": math.sqrt(g.max_weight),
        "heaviest_weight_sum": sums.heaviest,
        "cover_weight_sum": sums.cover_sum,
    }
    return g, sums, block


def _bracket(
    args: argparse.Namespace, g: WeightedGraph, sums: WeightSums, k: int
) -> tuple[EstimateResult, BoundsReport, dict[str, Any]]:
    """Estimate with k samples and bracket the result: both, and their report blocks."""
    est = estimate_log_phi_tilde(g, args.t, k, args.seed, threads=args.threads)
    bounds = bounds_report(est, g.n_vertices, args.t, c1_constant(), parts=sums.parts)
    keys = "t seed mean_log std_err mean_det std_err_det log_mean_det max_abs_variate"
    blocks = {"estimate": {"samples": est.k, **_pick(est, keys)}, "bounds": asdict(bounds)}
    return est, bounds, blocks


def _run_estimate(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    g, sums, graph = _graph(args)
    graph["bipartite"] = sums.bipartite

    plan = None
    k = args.samples
    if k is not None and (args.eps is not None or args.delta is not None):
        raise ValueError("give --samples or --eps with --delta, not both")
    if k is None:
        if args.eps is None or args.delta is None:
            raise ValueError("provide --samples or both --eps and --delta")
        plan = plan_samples(
            args.eps, args.delta, g.n_vertices, args.t,
            heaviest_weight_sum=sums.cover_sum,
        )  # an edgeless graph has W = 0 and one sample, which is exact
        k = plan.samples
    _, _, blocks = _bracket(args, g, sums, k)

    # thread count is deliberately not echoed: it never affects the numbers,
    # and reports must be byte-identical across worker counts
    payload: dict[str, Any] = {
        "command": _pick(args, "subcommand graph t eps delta samples seed"),
        "graph": graph,
    }
    if plan is not None:
        payload["plan"] = asdict(plan)
    return {**payload, **blocks}, True


def _run_verify(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    g, sums, graph = _graph(args)
    log_value = log_polynomial(g, args.t)

    est, bounds, blocks = _bracket(args, g, sums, args.samples)

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
        "command": _pick(args, "subcommand graph t samples seed"),
        "graph": graph,
        **blocks,
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
    return payload, sandwich_ok


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


def _run_bench(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    sides = _parse_sides(args.sides)
    lo, hi = _parse_weight_range(args.w)
    rows = optimality_sweep(
        sides, args.t, lo, hi, args.seed, args.samples, threads=args.threads
    )
    keys = (
        "m n t samples exact_per_vertex estimate_per_vertex "
        "gap_per_vertex std_err_per_vertex gap_bound"
    )
    payload = {
        "command": _pick(args, "subcommand sides t w samples seed"),
        "rows": [_pick(r, keys) for r in rows],
    }
    return payload, True


def _run_constants(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    if not (math.isfinite(args.grid_step) and args.grid_step > 0):
        raise ValueError("--grid-step must be finite and positive")
    # each point is i * step (accumulating a += step would drift), up to the last
    # within a relative rounding slack of --grid-max: 0.3 / 0.1 ends at 0.30000000000000004
    last = args.grid_max / args.grid_step * (1 + 1e-12)
    if not (0 <= args.grid_max < math.inf and last < 1e4):
        raise ValueError("--grid-max must be finite, >= 0, and --grid-max / --grid-step < 10^4")
    points = (i * args.grid_step for i in range(math.floor(last) + 1))
    table = [{"a": a, "gap": gaussian_log_gap(a)} for a in points]
    return {"command": _pick(args, "subcommand"), "c1": c1_constant(), "gap_table": table}, True


def _usable_cpus() -> int | None:
    """The CPUs this process may run on: its affinity set where the OS has one, else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchbound",
        description="Certified lower bounds for weighted matching polynomials",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(
        p: argparse.ArgumentParser,
        with_graph: bool = True,
        sampled: bool = True,
        formats: tuple[str, ...] = ("json", "text"),
    ) -> None:
        if with_graph:
            p.add_argument("--graph", required=True, help="graph file path")
        if sampled:
            p.add_argument("--t", type=float, required=True, help="polynomial argument, > 0")
            p.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
            usable = "the CPUs in this process's affinity set"  # main reads them at each call
            p.add_argument("--threads", type=int,
                           help=f"worker threads, at most {MAX_THREADS} (default: {usable})")
        p.add_argument("--format", choices=formats, default="text")
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
    common(p_bench, with_graph=False, formats=("json", "text", "csv"))
    p_bench.add_argument("--sides", required=True, help="comma list: N or MxN entries")
    p_bench.add_argument("--w", required=True, help="uniform weight W, or LO,HI for random weights")
    p_bench.add_argument("--samples", type=int, default=20_000, help="samples per sweep point")

    p_const = sub.add_parser("constants", help="print the gap constant and its shifted table")
    common(p_const, with_graph=False, sampled=False)
    p_const.add_argument("--grid-max", type=float, default=8.0)
    p_const.add_argument("--grid-step", type=float, default=0.25)

    return parser


def _render(payload: dict[str, Any], fmt: str, subcommand: str, seconds: float) -> str:
    if fmt == "json":
        return to_json(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)  # csv defaults are RFC 4180: CRLF, minimal quoting
        writer.writerow(payload["rows"][0].keys())
        for row in payload["rows"]:
            writer.writerow(row.values())
        return buf.getvalue()
    if subcommand == "constants":
        # each a to the fewest digits that read back within 1e-12 of the largest: at most
        # 10^4 rows, so distinct points stay distinct
        points = [row["a"] for row in payload["gap_table"]]
        digits = next(p for p in range(1, 18) if all(
            abs(float(f"{a:.{p}g}") - a) <= 1e-12 * points[-1] for a in points
        ))
        cells = [f"{a:.{digits}g}" for a in points]
        width = max(6, *map(len, cells))
        lines = [f"c1 = {payload['c1']:.10f}", "", f"{'a':>{width}}  {'gap':>14}"]
        rows = zip(cells, payload["gap_table"])
        lines += [f"{a:>{width}}  {row['gap']:>14.10f}" for a, row in rows]
    else:
        lines = _text_block(payload)
    lines.append(f"wall_time_seconds = {seconds:.3f}")
    return "\n".join(lines) + "\n"


_HANDLERS = {
    "estimate": _run_estimate,
    "verify": _run_verify,
    "bench": _run_bench,
    "constants": _run_constants,
}


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    _PARSER = _PARSER or build_parser()
    args = _PARSER.parse_args(argv)
    if getattr(args, "threads", 1) is None:  # the CPUs usable at this call, not the first
        args.threads = min(_usable_cpus() or 1, MAX_THREADS)
    try:
        # the wall time goes to the text report only, so JSON stays byte-identical
        started = time.monotonic()
        payload, ok = _HANDLERS[args.subcommand](args)
        seconds = time.monotonic() - started
        _write_output(_render(payload, args.format, args.subcommand, seconds), args.out)
    except (GraphFormatError, GraphTooLargeError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonPositiveDeterminantError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not ok:
        print("verification failed: sandwich bound violated beyond slack", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
