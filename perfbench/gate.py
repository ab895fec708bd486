"""The correctness gate every timed `estimate` call must pass."""

from __future__ import annotations

import json
import math

SLACK_STD_ERRS = 4.0
REQUIRED = {
    "estimate": ("samples", "mean_log", "std_err", "mean_det", "std_err_det"),
    "bounds": ("lower_log", "upper_log"),
}


def _nulls(node, path: str) -> list[str]:
    if node is None:
        return [path]
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _nulls(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _nulls(v, f"{path}[{i}]")]
    return []


def check(exit_code: int, text: str, reference, t: float, first_text: str | None) -> list[str]:
    """Problems with one call's JSON report; an empty list means it passed.

    `reference` is the graph's exact MatchingCounts. The call must exit 0,
    report no null result (the "command" block only echoes the arguments,
    where an option not given is null), start its bracket at mean_log,
    bracket log Phi(t) within
    4 standard errors, put mean_det within 4 std_err_det of the unbiased
    target, and repeat `first_text`, the first same-seed report, byte for
    byte.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    for section, keys in REQUIRED.items():
        block = report.get(section)
        if not isinstance(block, dict):
            return [f"report lacks the {section!r} block"]
        problems += [f"{section}.{k} missing" for k in keys if k not in block]
    if problems:
        return problems
    problems += [
        f"{p} is null"
        for section, block in report.items()
        if section != "command"
        for p in _nulls(block, section)
    ]
    if problems:
        return problems

    est, bounds = report["estimate"], report["bounds"]
    # the bracket starts at mean_log, less log(t)/2 at odd N
    parity = 0.5 * math.log(t) if reference.n_vertices % 2 else 0.0
    lower = est["mean_log"] - parity
    if abs(bounds["lower_log"] - lower) > 1e-12 * (1.0 + abs(lower)):
        problems.append(f"lower_log = {bounds['lower_log']!r} but mean_log gives {lower!r}")
    log_phi = reference.log_eval(t)
    slack = SLACK_STD_ERRS * est["std_err"]
    if not bounds["lower_log"] - slack <= log_phi <= bounds["upper_log"] + slack:
        problems.append(
            f"log Phi = {log_phi!r} outside [{bounds['lower_log']!r}, {bounds['upper_log']!r}]"
            f" widened by {slack!r}"
        )
    # the unbiased target verify uses: Phi(t), times sqrt(t) at odd N
    target = reference.eval(t) * (math.sqrt(t) if reference.n_vertices % 2 else 1.0)
    if not abs(est["mean_det"] - target) <= SLACK_STD_ERRS * est["std_err_det"]:
        problems.append(
            f"mean_det = {est['mean_det']!r} is more than {SLACK_STD_ERRS} std_err_det"
            f" = {est['std_err_det']!r} from {target!r}"
        )
    if first_text is not None and text != first_text:
        problems.append("report differs from the first report of the same seed")
    return problems
