"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criterion 9's second clause checks that the shifted log-gap vanishes at
the documented rate: gap(10) must match the Poisson-mixture series oracle
to 1e-9, and 2/a^2 < gap(a) < 2/a^2 + 2/a^4 must hold at a = 10, 20, 40,
60, 100 (past a = 38 the Poisson weights e^-lam lam^j / j! underflow if
formed directly).
An earlier "gap(10) < 0.01" threshold was dropped because the true value is
0.0201056 (the series, adaptive quadrature, large-sample Monte Carlo and the
2/a^2 + 1/a^4 expansion all agree), and the specification that set 0.01 is
not part of this repository.
"""

import json
import math
import time

import numpy as np
import pytest

from matchbound.analysis import c1_constant, gaussian_log_gap, optimality_sweep
from matchbound.cli import main as cli_main
from matchbound.estimator import (
    derive_seed,
    estimate_log_phi_tilde,
    plan_samples,
    sample_skew,
    tail_bound,
)
from matchbound.exact import (
    complete_bipartite_counts,
    complete_graph_counts,
    matching_counts,
)
from matchbound.graphs import (
    WeightedGraph,
    complete_bipartite_graph,
    complete_graph,
    path_graph,
    serialize_graph,
    skew_adjacency,
)
from matchbound.linalg import (
    BipartiteSample,
    SkewSample,
    bipartite_block,
    log_det_bipartite,
    log_det_shifted,
)

from conftest import (
    RANDOM6_EDGES,
    brute_matching_counts,
    delete_edge,
    delete_vertices,
    random_weighted_graph,
    shifted_log_gap_series,
)

C1_REFERENCE = 1.270362845
UNBIASEDNESS_SAMPLES = 1_000_000
T_GRID = (0.5, 1.0, 2.0)


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {label}: {status}{suffix}")


def _test_set() -> list[tuple[str, WeightedGraph]]:
    return [
        ("K2_w4", WeightedGraph(2, ((0, 1, 4.0),))),
        ("P3", path_graph(3)),
        ("triangle", WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))),
        ("K4", complete_graph(4)),
        ("K22", complete_bipartite_graph(2, 2)),
        ("K23", complete_bipartite_graph(2, 3)),
        ("random6", WeightedGraph(6, RANDOM6_EDGES)),
    ]


@pytest.fixture(scope="module")
def unbiasedness_estimates():
    """10^6-sample runs shared by the unbiasedness and sandwich criteria."""
    runs = {}
    for index, (name, g) in enumerate(_test_set()):
        for t in T_GRID:
            seed = derive_seed(20_250_808, index * 10 + int(2 * t))
            runs[name, t] = (g, estimate_log_phi_tilde(g, t, UNBIASEDNESS_SAMPLES, seed))
    return runs


@pytest.fixture(scope="module")
def k4_reference():
    """10^6-sample mean log-determinant of K4 at t = 1."""
    est = estimate_log_phi_tilde(complete_graph(4), 1.0, 1_000_000, 314159)
    return est.mean_log


def test_criterion_01_gap_constant():
    start = time.monotonic()
    c1 = c1_constant()
    elapsed = time.monotonic() - start
    ok = (
        abs(c1 - C1_REFERENCE) <= 1e-7
        and abs(c1 - gaussian_log_gap(0.0)) <= 1e-7
        and elapsed < 1.0
    )
    _report(1, "gap constant", ok, f"c1={c1:.10f} in {elapsed*1e3:.1f}ms")
    assert abs(c1 - C1_REFERENCE) <= 1e-7
    assert abs(c1 - gaussian_log_gap(0.0)) <= 1e-7
    assert elapsed < 1.0


def test_criterion_02_unbiasedness(unbiasedness_estimates):
    worst = 0.0
    for (name, t), (g, est) in unbiasedness_estimates.items():
        value = matching_counts(g).eval(t)
        target = value if g.n_vertices % 2 == 0 else math.sqrt(t) * value
        residual = abs(est.mean_det - target) / est.std_err_det
        worst = max(worst, residual)
        assert residual <= 4.0, f"{name} at t={t}: residual {residual:.2f} std errs"
    _report(2, "unbiasedness", True, f"worst residual {worst:.2f} std errs over 21 runs")


def test_criterion_03_eigenvalue_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 13))
        t = float(rng.choice([0.25, 1.0, 4.0]))
        a = rng.standard_normal((n, n))
        y = SkewSample(np.triu(a, 1) - np.triu(a, 1).T)
        got = log_det_shifted(y, t)
        # the eigenvalues +-s_j of the Hermitian iY (zheevd, not the getrf
        # behind slogdet) pair up into factors t + s_j^2
        squared = np.linalg.eigvalsh(1j * y.matrix) ** 2
        want = float(0.5 * np.log(t + squared).sum())
        rel = abs(got - want) / (1.0 + abs(want))
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report(3, "eigenvalue-form oracle", True, f"worst relative error {worst:.2e}")


def test_criterion_04_bipartite_fast_path():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for trial in range(200):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(m, 13))
        t = float(rng.choice([0.3, 1.0, 3.0]))
        u = BipartiteSample(rng.standard_normal((m, n)))
        got = log_det_bipartite(u, t)
        want = log_det_shifted(bipartite_block(u), t)
        rel = abs(got - want) / (1.0 + abs(want))
        worst = max(worst, rel)
        assert rel <= 1e-9
    _report(4, "bipartite fast path", True, f"worst relative error {worst:.2e}")


def test_criterion_05_sandwich(unbiasedness_estimates):
    # the averaged log-determinant brackets the log of the determinant
    # mean, which carries the same sqrt(t) parity factor as criterion 2's
    # target; equivalently, mean_log - (odd ? log(t)/2 : 0) brackets log phi
    c1 = c1_constant()
    for (name, t), (g, est) in unbiasedness_estimates.items():
        log_phi = matching_counts(g).log_eval(t)
        parity_shift = 0.5 * math.log(t) if g.n_vertices % 2 == 1 else 0.0
        lower = est.mean_log - parity_shift
        gap = g.n_vertices * min(g.max_weight / (2.0 * t), c1)
        slack = 4.0 * est.std_err
        assert lower - slack <= log_phi, f"{name} t={t}: lower bound violated"
        assert log_phi <= lower + gap + slack, f"{name} t={t}: upper bound violated"
    _report(5, "sandwich bounds", True, "21 cases bracketed")


def test_criterion_06_concentration(k4_reference):
    g = complete_graph(4)
    runs = 2000
    k = 4
    deviations = np.empty(runs)
    for i in range(runs):
        est = estimate_log_phi_tilde(g, 1.0, k, derive_seed(606, i))
        deviations[i] = abs(est.mean_log - k4_reference)
    details = []
    for r in (0.05, 0.1, 0.2, 0.4):
        freq = float((deviations >= 4.0 * r).mean())
        bound = tail_bound(r, 4, k, 1.0, heaviest_weight_sum=4.0) + 0.02
        details.append(f"r={r}: {freq:.4f}<={bound:.3f}")
        assert freq <= bound, f"tail frequency {freq} exceeds {bound} at r={r}"
    _report(6, "concentration", True, "; ".join(details))


def test_criterion_07_fpras_planner(k4_reference):
    worked = plan_samples(1.0, 4.0 / math.exp(2.0), 10, 1.0, heaviest_weight_sum=10.0)
    assert worked.samples == 160

    plan = plan_samples(0.5, 0.25, 4, 1.0, heaviest_weight_sum=4.0)
    hits = 0
    runs = 400
    for i in range(runs):
        est = estimate_log_phi_tilde(complete_graph(4), 1.0, plan.samples, derive_seed(707, i))
        ratio = math.exp(est.mean_log - k4_reference)
        if 1.0 - plan.epsilon < ratio < 1.0 + plan.epsilon:
            hits += 1
    coverage = hits / runs
    ok = coverage >= 1.0 - plan.delta
    _report(7, "sample planner", ok, f"coverage {coverage:.3f} with k={plan.samples}")
    assert coverage >= 1.0 - plan.delta


def test_criterion_08_optimality_trend():
    rows = optimality_sweep([2, 4, 8, 16, 32], 1.0, 1.0, 1.0, 808, 20_000)
    gaps = {row.n: row.gap_per_vertex for row in rows}
    slacks = {row.n: 4.0 * row.std_err_per_vertex for row in rows}
    for row in rows:
        slack = 4.0 * row.std_err_per_vertex
        assert row.gap_per_vertex >= -slack
        assert row.gap_per_vertex <= row.gap_bound + slack
    shrunk = gaps[32] + slacks[32] <= 0.7 * (gaps[2] - slacks[2])
    _report(
        8,
        "optimality trend",
        shrunk,
        f"gap n=2: {gaps[2]:.4f}, n=32: {gaps[32]:.4f}",
    )
    assert shrunk


def test_criterion_09_shifted_gap_properties():
    grid = [gaussian_log_gap(0.25 * i) for i in range(33)]
    decreasing = all(x > y for x, y in zip(grid, grid[1:]))
    gaps = {a: gaussian_log_gap(a) for a in (10.0, 20.0, 40.0, 60.0, 100.0)}
    at_ten = gaps[10.0]
    reference = shifted_log_gap_series(10.0)
    diff = at_ten - reference
    exact = abs(diff) <= 1e-9
    # gap(a) = 2/a^2 + 1/a^4 + O(a^-6), so it lies strictly inside this bracket
    outside = {a: g for a, g in gaps.items() if not 2.0 / a**2 < g < 2.0 / a**2 + 2.0 / a**4}
    _report(
        9,
        "shifted gap properties",
        decreasing and exact and not outside,
        f"decreasing={decreasing}, gap(10)={at_ten:.12f}, series={reference:.12f}, "
        f"diff={diff:.1e}, outside 2/a^2 rate bracket: {outside}",
    )
    assert decreasing
    assert exact, (
        f"gap(10) = {at_ten:.15f} differs from the series value {reference:.15f} "
        f"by {diff:.2e} (allowed 1e-9)"
    )
    assert not outside, f"gap(a) outside (2/a^2, 2/a^2 + 2/a^4): {outside}"


def test_criterion_10_determinism(tmp_path, capsys):
    graph_file = tmp_path / "random6.txt"
    graph_file.write_text(serialize_graph(WeightedGraph(6, RANDOM6_EDGES)))
    argv = [
        "estimate", "--graph", str(graph_file), "--t", "1.0", "--samples", "20000",
        "--seed", "3", "--format", "json",
    ]
    assert cli_main(argv + ["--threads", "1"]) == 0
    out_single = capsys.readouterr().out
    assert cli_main(argv + ["--threads", "8"]) == 0
    out_threaded = capsys.readouterr().out
    ok = out_single == out_threaded and json.loads(out_single)
    _report(10, "thread determinism", bool(ok), f"{len(out_single)} bytes identical")
    assert out_single == out_threaded


def test_criterion_11_oracle_self_consistency():
    rng = np.random.default_rng(1011)
    checked = 0
    for trial in range(12):
        n = int(rng.integers(3, 8))
        g = random_weighted_graph(rng, n, float(rng.uniform(0.4, 0.9)))
        if trial % 2 == 0:  # integer weights make both recursion routes exact
            g = WeightedGraph(g.n_vertices, tuple((u, v, 1.0) for u, v, _ in g.edges))
        whole = matching_counts(g).counts
        for idx, (u, v, w) in enumerate(g.edges):
            without_edge = matching_counts(delete_edge(g, idx)).counts
            without_ends = matching_counts(delete_vertices(g, {u, v})).counts
            for k_idx in range(len(whole)):
                rhs = without_edge[k_idx] if k_idx < len(without_edge) else 0.0
                if 1 <= k_idx and k_idx - 1 < len(without_ends):
                    rhs += w * without_ends[k_idx - 1]
                if trial % 2 == 0:
                    assert whole[k_idx] == rhs
                else:
                    assert whole[k_idx] == pytest.approx(rhs, rel=1e-12)
                checked += 1

    for n in range(1, 9):
        assert complete_graph_counts(n, 1.0).counts == tuple(
            brute_matching_counts(complete_graph(n))
        )
    for m in range(1, 5):
        for n in range(m, 5):
            assert complete_bipartite_counts(m, n, 1.0).counts == tuple(
                brute_matching_counts(complete_bipartite_graph(m, n))
            )

    for seed in range(8):
        rng2 = np.random.default_rng(2000 + seed)
        g = random_weighted_graph(rng2, int(rng2.integers(3, 8)), 0.6)
        roots = np.roots(matching_counts(g).counts)
        if len(roots):
            assert np.abs(roots.imag).max() < 1e-8
            nonzero = roots[np.abs(roots) > 1e-12]
            assert (nonzero.real < 0).all()
    _report(11, "oracle self-consistency", True, f"{checked} identity terms checked")
