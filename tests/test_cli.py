import json
import math

import pytest

import matchbound.cli as cli
import matchbound.estimator as estimator
import matchbound.exact as exact
from matchbound.analysis import c1_constant
from matchbound.cli import main
from matchbound.graphs import (
    WeightedGraph,
    complete_bipartite_graph,
    complete_graph,
    path_graph,
    serialize_graph,
)

from conftest import (
    MULTI_EDGES,
    RANDOM6_EDGES,
    disjoint_k2,
    grid_graph,
    matrix_route,
    sample_row_bytes,
    sparse_graph,
)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("2 1\n1 2 1.0\n")
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n1 2 1\n2 3 1\n1 3 1\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestEstimate:
    def test_k2_report(self, capsys, k2_file):
        code, out = run_json(
            capsys,
            ["estimate", "--graph", k2_file, "--t", "1", "--samples", "50000",
             "--seed", "7", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"]["samples"] == 50000
        assert report["graph"]["bipartite"] is True
        est = report["estimate"]
        assert abs(est["mean_det"] - 2.0) < 5 * est["std_err_det"]
        assert est["log_mean_det"] == pytest.approx(math.log(est["mean_det"]), rel=1e-12)
        assert abs(est["mean_log"] - 0.5334531798) < 5 * est["std_err"]
        bounds = report["bounds"]
        assert bounds["upper_log"] >= bounds["lower_log"]

    def test_planned_sample_count(self, capsys, k2_file):
        code, out = run_json(
            capsys,
            ["estimate", "--graph", k2_file, "--t", "1", "--eps", "0.5",
             "--delta", "0.25", "--seed", "7", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["plan"]["samples"] == 26
        assert report["estimate"]["samples"] == 26

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", ["k2", "random6"])
    def test_planned_run_is_the_fixed_count_run(self, capsys, tmp_path, name, threads):
        # the plan picks k and nothing else: the estimate and bounds blocks, the last in
        # the report, are the bytes of --samples k with the same seed
        g = complete_graph(2) if name == "k2" else WeightedGraph(6, RANDOM6_EDGES)
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_graph(g))
        argv = ["estimate", "--graph", str(path), "--t", "1", "--seed", "9",
                "--threads", threads, "--format", "json"]
        code, planned = run_json(capsys, argv + ["--eps", "0.3", "--delta", "0.1"])
        assert code == 0
        k = json.loads(planned)["plan"]["samples"]
        code, fixed = run_json(capsys, argv + ["--samples", str(k)])
        assert code == 0
        tail = '  "estimate": {'
        assert planned[planned.index(tail):] == fixed[fixed.index(tail):]

    def test_edgeless_plan_degenerates_to_one_sample(self, capsys, tmp_path):
        path = tmp_path / "edgeless.txt"
        path.write_text("4 0\n")
        code, out = run_json(
            capsys,
            ["estimate", "--graph", str(path), "--t", "1", "--eps", "0.5",
             "--delta", "0.25", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        # W = 0 plans one sample through the same path as any other graph
        assert report["graph"]["heaviest_weight_sum"] == 0.0
        assert report["plan"]["samples"] == 1
        assert report["estimate"]["samples"] == 1
        assert report["estimate"]["std_err"] == 0.0

    @pytest.mark.parametrize("eps, delta", [("5", "2"), ("5", "0.25"), ("0.5", "2")])
    def test_edgeless_plan_checks_eps_and_delta(self, capsys, tmp_path, eps, delta):
        path = tmp_path / "edgeless.txt"
        path.write_text("3 0\n")
        argv = ["estimate", "--graph", str(path), "--t", "2", "--eps", eps, "--delta", delta]
        assert main(argv) == 2
        assert "must be in" in capsys.readouterr().err

    def test_plan_uses_the_heaviest_weight_sum(self, capsys, tmp_path):
        # P3 with weights 0.5, 2 plus an edge of weight 3 and an isolated vertex:
        # W = 0.5 + 2 + 2 + 3 + 3 = 10.5 against a^2 N = 3 * 6 = 18, and the plan's
        # cover 2 nu = 2 (2 + 3) = 10: P3's middle vertex and one end of the edge
        path = tmp_path / "mixed.txt"
        path.write_text("6 3\n1 2 0.5\n2 3 2\n4 5 3\n")
        code, out = run_json(
            capsys,
            ["estimate", "--graph", str(path), "--t", "2", "--eps", "0.5",
             "--delta", "0.25", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["graph"]["heaviest_weight_sum"] == 10.5
        assert report["graph"]["cover_weight_sum"] == 10.0
        # x = ln(2/delta) + ln(1 + (delta/2)^(rho - 1)), rho = (ln 0.5 / ln 1.5)^2
        rho = (math.log(0.5) / math.log1p(0.5)) ** 2
        x = math.log(2 / 0.25) + math.log1p((0.25 / 2) ** (rho - 1))
        want = math.ceil(10.0 * x / (2 * math.log1p(0.5) ** 2))
        assert report["plan"]["samples"] == want == 64
        # gap: min(4 / 8, 3 c1) + min(6 / 8, 2 c1); the isolated vertex adds 0
        assert report["bounds"]["gap_asymptotic"] == 0.5 + 0.75

    def test_missing_t_is_usage_error(self, k2_file):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--graph", k2_file, "--samples", "10"])
        assert exc.value.code == 2

    def test_no_samples_and_no_plan_is_usage_error(self, capsys, k2_file):
        code = main(["estimate", "--graph", k2_file, "--t", "1"])
        assert code == 2
        assert "samples" in capsys.readouterr().err

    def test_nonpositive_t_is_usage_error(self, capsys, k2_file):
        assert main(["estimate", "--graph", k2_file, "--t", "0", "--samples", "10"]) == 2

    def test_huge_t(self, capsys, k2_file):
        # pi * t overflows a double past ~5.7e307; the bracket must not
        code, out = run_json(
            capsys,
            ["estimate", "--graph", k2_file, "--t", "1e308", "--samples", "100",
             "--format", "json"],
        )
        assert code == 0
        bounds = json.loads(out)["bounds"]
        assert bounds["lower_log"] <= bounds["upper_log"]
        assert bounds["upper_log"] == bounds["lower_log"] + bounds["gap_asymptotic"]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_is_usage_error(self, capsys, k2_file, threads):
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--samples", "10"]
        assert main(argv + ["--threads", threads]) == 2
        assert "threads" in capsys.readouterr().err

    def test_default_threads_stop_at_the_cap(self, capsys, monkeypatch, k2_file):
        seen = []

        def spy(*args, threads):
            seen.append(threads)
            return estimator.estimate_log_phi_tilde(*args, threads=threads)

        monkeypatch.setattr(cli, "estimate_log_phi_tilde", spy)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1000)
        assert main(["estimate", "--graph", k2_file, "--t", "1", "--samples", "1"]) == 0
        assert seen == [estimator.MAX_THREADS]

    def test_default_threads_are_the_usable_cpus(self, capsys, monkeypatch, k2_file):
        # main reads the default at each call, though its parser is built once
        seen = []

        def spy(*args, threads):
            seen.append(threads)
            return estimator.estimate_log_phi_tilde(*args, threads=threads)

        monkeypatch.setattr(cli, "estimate_log_phi_tilde", spy)
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--samples", "1"]
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 16)
        assert main(argv) == 0
        monkeypatch.delattr(cli.os, "sched_getaffinity")  # as on macOS and Windows
        assert main(argv) == 0
        assert main(argv + ["--threads", "3"]) == 0
        assert seen == [2, 16, 3]

    def test_parser_is_built_once(self, capsys, monkeypatch, k2_file):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--samples", "1"]
        assert main(argv) == 0
        assert main(argv + ["--format", "json"]) == 0
        assert main(["constants", "--grid-max", "0"]) == 0
        assert len(built) == 1

    def test_bad_graph_file_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n1 1 1.0\n")
        code = main(["estimate", "--graph", str(bad), "--t", "1", "--samples", "10"])
        assert code == 2
        assert "self-loop" in capsys.readouterr().err

    def test_infinite_weight_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "inf.txt"
        bad.write_text("2 1\n1 2 inf\n")
        code = main(["estimate", "--graph", str(bad), "--t", "1", "--samples", "10"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["estimate", "--graph", "/nonexistent.txt", "--t", "1",
                     "--samples", "10"]) == 2

    def test_byte_identical_across_thread_counts(self, capsys, triangle_file):
        argv = ["estimate", "--graph", triangle_file, "--t", "1", "--samples",
                "20000", "--seed", "3", "--format", "json"]
        code1, out1 = run_json(capsys, argv + ["--threads", "1"])
        code2, out2 = run_json(capsys, argv + ["--threads", "8"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_byte_identical_across_thread_counts_on_the_gram_route(self, capsys, tmp_path):
        # K13,13 (one edge at a second weight, off the chain) is one Gram matrix of order
        # 13, past SMALL_ORDER: 8,962 rows a batch part 17,925 samples into 3 batches, the
        # last of one row
        path = tmp_path / "k13_13.txt"
        path.write_text(serialize_graph(matrix_route(complete_bipartite_graph(13, 13))))
        argv = ["estimate", "--graph", str(path), "--t", "1", "--samples", "17925",
                "--seed", "3", "--format", "json"]
        code1, out1 = run_json(capsys, argv + ["--threads", "1"])
        code2, out2 = run_json(capsys, argv + ["--threads", "8"])
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("graph, batches", [
        *(pytest.param(g, (7, 1024, 4096), id=g) for g in ("multi", "k64", "sparse", "random6")),
        # one row a batch: a lone Gram matrix past SMALL_ORDER laid out as in a longer batch
        pytest.param("k13_13", (1, 7, 1024, 4096), id="k13_13"),
    ])
    def test_byte_identical_across_batch_sizes(self, capsys, tmp_path, monkeypatch, graph,
                                               batches):
        g = matrix_route({"multi": WeightedGraph(12, MULTI_EDGES), "k64": complete_graph(64),
                          "sparse": sparse_graph(), "random6": WeightedGraph(6, RANDOM6_EDGES),
                          "k13_13": complete_bipartite_graph(13, 13)}[graph])  # off the chain
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        argv = ["estimate", "--graph", str(path), "--t", "1", "--samples", "3000",
                "--seed", "5", "--format", "json"]
        reports = set()
        for batch in batches:
            monkeypatch.setattr(estimator, "_BATCH", batch)
            code, out = run_json(capsys, argv)
            assert code == 0
            reports.add(out)
        assert len(reports) == 1

    @pytest.mark.parametrize("graph", ["multi", "k64", "sparse", "random6"])
    def test_byte_identical_across_batch_budgets(self, capsys, tmp_path, monkeypatch, graph):
        # a 1-byte budget gives one row a batch; seven rows' bytes part 40 samples 5 x 7 + 5.
        # One edge of each one-weight component at a second weight keeps it off the chain
        g = matrix_route({"multi": WeightedGraph(12, MULTI_EDGES), "k64": complete_graph(64),
                          "sparse": sparse_graph(),
                          "random6": WeightedGraph(6, RANDOM6_EDGES)}[graph])
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(g))
        argv = ["estimate", "--graph", str(path), "--t", "1", "--samples", "40",
                "--seed", "5", "--format", "json"]
        reports = set()
        for budget in (estimator._BATCH_BYTES, 1, 7 * sample_row_bytes(g)):
            monkeypatch.setattr(estimator, "_BATCH_BYTES", budget)
            code, out = run_json(capsys, argv)
            assert code == 0
            reports.add(out)
        assert len(reports) == 1

    def test_many_components_byte_identical(self, capsys, tmp_path, monkeypatch):
        # 1,000 disjoint K2: rel^2 adds 1,000 terms, and neither the threads nor the
        # batch rows (the budget's 1,048 a batch, or 97) may move a byte of the report
        g = disjoint_k2(1000)
        path = tmp_path / "many.txt"
        path.write_text(serialize_graph(g))
        argv = ["estimate", "--graph", str(path), "--t", "100", "--samples", "1200",
                "--seed", "5", "--format", "json"]
        reports = set()
        for threads, budget in ((1, None), (2, None), (2, 97 * sample_row_bytes(g))):
            if budget:
                monkeypatch.setattr(estimator, "_BATCH_BYTES", budget)
            code, out = run_json(capsys, argv + ["--threads", str(threads)])
            assert code == 0
            reports.add(out)
        assert len(reports) == 1

    @pytest.mark.parametrize("extra", [["--eps", "1"], ["--delta", "0.5"],
                                       ["--eps", "1", "--delta", "0.5"]])
    def test_samples_with_eps_or_delta_is_usage_error(self, capsys, k2_file, extra):
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--samples", "3", *extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: give --samples or --eps with --delta, not both" in captured.err

    def test_unbounded_plan_is_usage_error(self, capsys, k2_file):
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--eps", "1e-160", "--delta", "0.1"]
        assert main(argv) == 2
        assert "error: the planned sample count is not finite" in capsys.readouterr().err

    def test_plan_past_any_array_is_usage_error(self, capsys, k2_file):
        # 7.38e20 samples: finite, but past 2**64, the count of uint64 sample indices
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--eps", "1e-10", "--delta", "0.1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: the planned sample count 7.38e+20 is too large" in err
        assert "eps 1e-10, t 1.0" in err

    def test_samples_past_the_indices_is_usage_error(self, capsys, k2_file):
        # 10**30 samples have no uint64 index: the count is refused before any is drawn
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--samples", str(10**30)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: the sample count must be from 1 to 2**64" in captured.err

    def test_ill_scaled_bipartite_path_takes_the_dense_route(self, capsys, tmp_path):
        # the path 3-1-4-2: forming U U^T would lose t; the dense route keeps it
        path = tmp_path / "p4.txt"
        path.write_text("4 3\n3 1 1.5e-166\n1 4 1.95e39\n4 2 2.5e219\n")
        argv = ["estimate", "--graph", str(path), "--t", "2.65", "--samples", "200",
                "--format", "json"]
        code, out = run_json(capsys, argv)
        assert code == 0
        report = json.loads(out)
        g = WeightedGraph(4, ((2, 0, 1.5e-166), (0, 3, 1.95e39), (3, 1, 2.5e219)))
        exact_log = exact.matching_counts(g).log_eval(2.65)
        assert report["bounds"]["lower_log"] <= exact_log <= report["bounds"]["upper_log"]

    @pytest.mark.parametrize("t", ["1e306", "1e307", "1.7e308"])
    def test_gram_matrix_past_the_largest_double_takes_the_dense_route(self, capsys, tmp_path, t):
        # K2 of weight 1e308: t I + U U^T overflows; the dense route keeps the determinant
        path = tmp_path / "k2.txt"
        path.write_text("2 1\n1 2 1e308\n")
        argv = ["estimate", "--graph", str(path), "--t", t, "--samples", "200",
                "--format", "json"]
        code, out = run_json(capsys, argv)
        assert code == 0
        bounds = json.loads(out)["bounds"]
        exact_log = exact.matching_counts(WeightedGraph(2, ((0, 1, 1e308),))).log_eval(float(t))
        assert bounds["lower_log"] <= exact_log <= bounds["upper_log"]

    def test_byte_order_mark_is_read(self, capsys, tmp_path, k2_file):
        path = tmp_path / "k2-bom.txt"
        path.write_bytes(b"\xef\xbb\xbf2 1\n1 2 1.0\n")
        reports = []
        for graph in (k2_file, str(path)):
            code, out = run_json(
                capsys, ["estimate", "--graph", graph, "--t", "1", "--samples", "100",
                         "--format", "json"],
            )
            assert code == 0
            reports.append(json.loads(out))
        for block in ("estimate", "bounds"):
            assert reports[0][block] == reports[1][block]

    def test_unallocatable_sample_count_is_usage_error(self, capsys, k2_file, monkeypatch):
        def explode(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000000,)")

        monkeypatch.setattr(cli, "estimate_log_phi_tilde", explode)
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--samples", "10000000000"]
        assert main(argv) == 2
        assert "error: Unable to allocate 74.5 GiB" in capsys.readouterr().err

    def test_byte_identical_repeat_invocation(self, capsys, k2_file):
        argv = ["estimate", "--graph", k2_file, "--t", "0.5", "--samples",
                "5000", "--seed", "11", "--format", "json"]
        _, out1 = run_json(capsys, argv)
        _, out2 = run_json(capsys, argv)
        assert out1 == out2

    def test_out_file(self, capsys, k2_file, tmp_path):
        target = tmp_path / "report.json"
        code = main(["estimate", "--graph", k2_file, "--t", "1", "--samples", "100",
                     "--seed", "0", "--format", "json", "--out", str(target)])
        assert code == 0
        report = json.loads(target.read_text())
        assert report["estimate"]["samples"] == 100

    def test_text_format_has_wall_time(self, capsys, k2_file):
        code, out = run_json(
            capsys, ["estimate", "--graph", k2_file, "--t", "1", "--samples", "100"]
        )
        assert code == 0
        assert "wall_time_seconds" in out
        assert "mean_log" in out

    def test_control_characters_in_path_stay_valid_json(self, capsys, tmp_path):
        path = tmp_path / "c4\ttab.txt"
        path.write_text("4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n")
        code, out = run_json(
            capsys,
            ["estimate", "--graph", str(path), "--t", "1", "--samples", "10",
             "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["command"]["graph"] == str(path)

    def test_json_floats_round_trip(self, capsys, k2_file):
        _, out = run_json(
            capsys,
            ["estimate", "--graph", k2_file, "--t", "0.1", "--samples", "500",
             "--seed", "1", "--format", "json"],
        )
        report = json.loads(out)
        assert report["command"]["t"] == 0.1
        again = json.loads(out)
        assert again == report

    @pytest.mark.parametrize("graph", [
        WeightedGraph(6, RANDOM6_EDGES),
        complete_graph(4, 1e300),  # mean_det and std_err_det pass the largest double
    ], ids=["random6", "k4_heavy"])
    def test_report_is_strict_json_with_every_double_kept(self, capsys, tmp_path,
                                                         monkeypatch, graph):
        calls = []

        def recorded(fn):
            def call(*args, **kwargs):
                calls.append(fn(*args, **kwargs))
                return calls[-1]
            return call

        monkeypatch.setattr(cli, "estimate_log_phi_tilde", recorded(cli.estimate_log_phi_tilde))
        monkeypatch.setattr(cli, "bounds_report", recorded(cli.bounds_report))
        path = tmp_path / "graph.txt"
        path.write_text(serialize_graph(graph))
        code, out = run_json(
            capsys,
            ["estimate", "--graph", str(path), "--t", "1", "--samples", "3000",
             "--seed", "7", "--format", "json"],
        )
        assert code == 0

        def reject(token):
            raise ValueError(f"{token} is not a JSON value")

        report = json.loads(out, parse_constant=reject)
        est, bounds = calls
        printed = {**report["estimate"], **report["bounds"]}
        want = {"samples": est.k, **{key: getattr(est, key) for key in ESTIMATE_KEYS[1:]},
                **{key: getattr(bounds, key) for key in BOUNDS_KEYS}}
        assert list(printed) == list(want)
        for key, value in want.items():
            if isinstance(value, float) and not math.isfinite(value):
                assert printed[key] is None, key
            else:
                assert float(printed[key]).hex() == float(value).hex(), key
        if graph.max_weight == 1e300:
            assert report["estimate"]["mean_det"] is None
            assert math.isfinite(report["bounds"]["lower_log"])


class TestVerify:
    def test_triangle(self, capsys, triangle_file):
        code, out = run_json(
            capsys,
            ["verify", "--graph", triangle_file, "--t", "1", "--samples", "100000",
             "--seed", "2", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        oracle = report["oracle"]
        assert oracle["value"] == 4.0
        assert oracle["target_mean_det"] == 4.0  # sqrt(1) * (t + 3)
        assert abs(oracle["residual_std_errs"]) < 4.0
        assert oracle["sandwich_ok"] is True

    def test_edgeless_graph_exact(self, capsys, tmp_path):
        path = tmp_path / "edgeless.txt"
        path.write_text("4 0\n")
        code, out = run_json(
            capsys,
            ["verify", "--graph", path.as_posix(), "--t", "2.0", "--samples", "50",
             "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["estimate"]["std_err"] == 0.0
        assert report["oracle"]["sandwich_ok"] is True
        assert report["estimate"]["mean_log"] == pytest.approx(
            report["oracle"]["log_value"], abs=1e-12
        )

    @pytest.mark.parametrize("t", ["1", "1e-300"])
    def test_huge_weights_verify(self, capsys, tmp_path, t):
        # K_{2,3} at weight 1e300: Phi(t) = 6e600 + 6e300 t + t^2 exceeds the
        # largest double, and t / 1e300 underflows at t = 1e-300
        path = tmp_path / "k23_heavy.txt"
        path.write_text("5 6\n" + "".join(f"{u} {v} 1e300\n" for u in (1, 2) for v in (3, 4, 5)))
        code, out = run_json(
            capsys,
            ["verify", "--graph", path.as_posix(), "--t", t, "--samples", "100",
             "--format", "json"],
        )
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert oracle["log_value"] == pytest.approx(math.log(6.0) + 600 * math.log(10.0), rel=1e-13)
        assert oracle["value"] is None and oracle["target_mean_det"] is None
        assert math.isfinite(oracle["residual_std_errs"])
        assert oracle["sandwich_ok"] is True

    def test_too_large_graph_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(exact, "TABLE_CAP", 1_000)
        path = tmp_path / "k12.txt"
        path.write_text(serialize_graph(complete_graph(12)))
        assert main(["verify", "--graph", str(path), "--t", "1", "--samples", "10"]) == 2
        assert "table cells" in capsys.readouterr().err

    def test_count_overflow_is_usage_error(self, capsys, tmp_path):
        # the 2 x 800 ladder has bandwidth 2, but about 3 10^405 matchings
        path = tmp_path / "ladder.txt"
        path.write_text(serialize_graph(grid_graph(2, 800)))
        assert main(["verify", "--graph", str(path), "--t", "1", "--samples", "10"]) == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", [path_graph(64), sparse_graph()], ids=["p64", "sparse"])
    def test_large_sparse_graphs(self, capsys, tmp_path, graph):
        path = tmp_path / "g.txt"
        path.write_text(serialize_graph(graph))
        code, out = run_json(
            capsys,
            ["verify", "--graph", str(path), "--t", "1", "--samples", "2000", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["oracle"]["sandwich_ok"] is True

    def test_numerical_failure_exit_code(self, capsys, triangle_file, monkeypatch):
        from matchbound.linalg import NonPositiveDeterminantError

        def explode(*args, **kwargs):
            raise NonPositiveDeterminantError("sample 3 of the batch: determinant sign -1")

        monkeypatch.setattr(cli, "estimate_log_phi_tilde", explode)
        code = main(["verify", "--graph", triangle_file, "--t", "1", "--samples", "10"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_verification_failure_exit_code(self, capsys, triangle_file, monkeypatch):
        real = cli.estimate_log_phi_tilde

        def shifted(*args, **kwargs):
            est = real(*args, **kwargs)
            object.__setattr__(est, "mean_log", est.mean_log + 50.0)
            return est

        monkeypatch.setattr(cli, "estimate_log_phi_tilde", shifted)
        code = main(["verify", "--graph", triangle_file, "--t", "1", "--samples", "1000"])
        assert code == 4


class TestBench:
    def test_csv_table(self, capsys, tmp_path):
        code, out = run_json(
            capsys,
            ["bench", "--sides", "1,2", "--t", "1", "--w", "1", "--samples", "2000",
             "--seed", "1", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[:3] == ["m", "n", "t"]
        assert len(lines) == 3
        assert out.count("\r\n") >= 3  # RFC 4180 line endings

    def test_json_rows(self, capsys):
        code, out = run_json(
            capsys,
            ["bench", "--sides", "2,2x3", "--t", "1", "--w", "1", "--samples", "1000",
             "--seed", "1", "--format", "json"],
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert (rows[0]["m"], rows[0]["n"]) == (2, 2)
        assert (rows[1]["m"], rows[1]["n"]) == (2, 3)

    def test_weight_range_mode(self, capsys):
        code, out = run_json(
            capsys,
            ["bench", "--sides", "2", "--t", "1", "--w", "0.5,2", "--samples", "500",
             "--seed", "4", "--format", "json"],
        )
        assert code == 0
        # K_{2,2} with weights 0.5 + 1.5 u: the per-vertex gap min(2 nu / 4Nt, c1) of
        # the lighter side's heaviest weight sum nu, below the worst case
        # min(2 / 4t, c1) = 0.5
        u = estimator.RngStream(estimator.derive_seed(4, 0), 2**64 - 1).uniforms(4).tolist()
        w = [[0.5 + 1.5 * u[2 * i + j] for j in range(2)] for i in range(2)]
        nu = min(sum(map(max, w)), sum(map(max, zip(*w))))
        gap_bound = json.loads(out)["rows"][0]["gap_bound"]
        assert gap_bound == pytest.approx(min(2 * nu / 16, c1_constant()), rel=1e-15)
        assert gap_bound < 0.5

    def test_invalid_weight_is_usage_error(self, capsys):
        assert main(["bench", "--sides", "2", "--t", "1", "--w", "0"]) == 2
        assert main(["bench", "--sides", "2", "--t", "1", "--w", "-1"]) == 2
        assert main(["bench", "--sides", "2", "--t", "1", "--w", "inf"]) == 2

    # uniform weights are counted at w = 1, so a count overflows only past the
    # double at unit weight: K_{200,200} has 200! ~ 7.9e374 perfect matchings
    @pytest.mark.parametrize("sides, w", [("200", "1"), ("200", "4")])
    def test_count_overflow_is_usage_error(self, capsys, sides, w):
        argv = ["bench", "--sides", sides, "--t", "1", "--w", w, "--samples", "4"]
        assert main(argv) == 2
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("w", ["1e300", "1e200,1e300"])
    def test_weights_past_the_count_range(self, capsys, w):
        # K_{3,3} counts reach 6 w^3: finite only on weights divided by the largest
        argv = ["bench", "--sides", "3", "--t", "1", "--w", w, "--samples", "200",
                "--format", "json"]
        code, out = run_json(capsys, argv)
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert math.isfinite(row["exact_per_vertex"])
        assert math.isfinite(row["gap_per_vertex"])

    def test_empty_sides_is_usage_error(self, capsys):
        assert main(["bench", "--sides", ",", "--t", "1", "--w", "1"]) == 2

    def test_deterministic_json(self, capsys):
        argv = ["bench", "--sides", "1,2", "--t", "1", "--w", "1", "--samples",
                "1000", "--seed", "5", "--format", "json"]
        _, out1 = run_json(capsys, argv)
        _, out2 = run_json(capsys, argv)
        assert out1 == out2


class TestConstants:
    def test_text_output(self, capsys):
        code, out = run_json(capsys, ["constants"])
        assert code == 0
        assert "c1 = 1.2703628455" in out

    @pytest.mark.parametrize("grid_max, step", [("8", "0.25"), ("1e-13", "1e-14"), ("1", "0.1")])
    def test_text_table_tells_the_points_apart(self, capsys, grid_max, step):
        # each a is printed to the fewest significant digits that read back within 1e-12
        # of the largest point, so 1e-14 steps do not all read 0.00, 1.25 does not read
        # 1.2, and 3 x 0.1 reads 0.3, not 0.30000000000000004
        argv = ["constants", "--grid-max", grid_max, "--grid-step", step]
        assert main(argv + ["--format", "json"]) == 0
        points = [row["a"] for row in json.loads(capsys.readouterr().out)["gap_table"]]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[3:-1]
        cells = [row.split()[0] for row in rows]
        assert len(cells) == len(points) == len(set(cells))
        for cell, a in zip(cells, points):
            assert abs(float(cell) - a) <= 1e-12 * points[-1]
        if step == "0.1":
            assert cells == ["0"] + [f"0.{i}" for i in range(1, 10)] + ["1"]

    def test_json_grid(self, capsys):
        code, out = run_json(capsys, ["constants", "--format", "json", "--grid-max", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["c1"] == pytest.approx(1.270362845, abs=1e-8)
        table = report["gap_table"]
        assert table[0]["a"] == 0
        assert table[0]["gap"] == pytest.approx(report["c1"], abs=1e-9)
        gaps = [row["gap"] for row in table]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        assert len(table) == 9

    def test_grid_points_are_multiples_of_the_step(self, capsys):
        # ten additions of 0.1 give 0.9999999999999999, not 1.0; at the small steps an
        # absolute slack of 1e-12 would run past --grid-max, to 1.1e-12 and 10^4 rows
        for grid_max, step in (("1", 0.1), ("1e-13", 1e-14), ("1e-15", 1e-16)):
            code, out = run_json(
                capsys,
                ["constants", "--format", "json", "--grid-max", grid_max,
                 "--grid-step", str(step)],
            )
            assert code == 0, grid_max
            points = [row["a"] for row in json.loads(out)["gap_table"]]
            assert points == [i * step for i in range(11)]
            assert points[-1] <= float(grid_max) * (1 + 1e-12)

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid-step", "0"), ("--grid-step", "-0.25"), ("--grid-step", "nan"),
         ("--grid-step", "inf"), ("--grid-max", "nan"), ("--grid-max", "inf"),
         ("--grid-max", "-1"),
         # more than 10^4 rows: 8e300 of them, 10^8 + 1, and 10^4 + 1 where the last
         # point is within the rounding slack of --grid-max
         ("--grid-step", "1e-300"), ("--grid-max", "1e5 --grid-step 1e-3"),
         ("--grid-max", "9.9999999999999 --grid-step 1e-3")],
    )
    def test_bad_grid_is_usage_error(self, capsys, flag, value):
        assert main(["constants", flag, *value.split()]) == 2
        assert flag in capsys.readouterr().err

    def test_zero_grid_max_is_one_row(self, capsys):
        code, out = run_json(capsys, ["constants", "--format", "json", "--grid-max", "0"])
        assert code == 0
        assert [row["a"] for row in json.loads(out)["gap_table"]] == [0.0]

    def test_grid_past_the_square_of_a_double(self, capsys):
        # a^2 overflows past a = 1.3e154, and the Poisson mode with it
        argv = ["constants", "--format", "json", "--grid-max", "1e200", "--grid-step", "1e197"]
        code, out = run_json(capsys, argv)
        assert code == 0
        gaps = [row["gap"] for row in json.loads(out)["gap_table"]]
        assert len(gaps) >= 1000 and all(g is not None and g >= 0 for g in gaps)

    def test_largest_grid(self, capsys):
        # 10^4 rows is the most a grid may hold
        code, out = run_json(
            capsys, ["constants", "--format", "json", "--grid-max", "9.999", "--grid-step", "1e-3"]
        )
        assert code == 0
        assert len(json.loads(out)["gap_table"]) == 10_000


@pytest.mark.parametrize("threads", ["257", "100000"])
@pytest.mark.parametrize("subcommand", ["estimate", "verify", "bench"])
def test_threads_past_the_cap_are_usage_error(capsys, monkeypatch, k2_file, subcommand, threads):
    # refused before any pool exists: this starts no thread
    monkeypatch.setattr(estimator, "ThreadPoolExecutor", None)
    if subcommand == "bench":
        argv = ["bench", "--sides", "2", "--w", "1"]
    else:
        argv = [subcommand, "--graph", k2_file]
    assert main(argv + ["--t", "1", "--samples", "1000000000", "--threads", threads]) == 2
    assert "threads must be from 1 to 256" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["inf", "nan"])
@pytest.mark.parametrize("subcommand", ["estimate", "verify", "bench"])
def test_nonfinite_t_is_usage_error(capsys, k2_file, subcommand, t):
    if subcommand == "bench":
        argv = ["bench", "--sides", "2", "--w", "1"]
    else:
        argv = [subcommand, "--graph", k2_file]
    assert main(argv + ["--t", t, "--samples", "10"]) == 2
    assert "finite" in capsys.readouterr().err


def block_keys(report):
    """The key list of every JSON object in a report, in order, by its path."""
    keys = {}

    def walk(path, node):
        if isinstance(node, dict):
            assert keys.setdefault(path, list(node)) == list(node), path  # rows agree
            for key, value in node.items():
                walk(f"{path}.{key}", value)
        elif isinstance(node, list):
            for item in node:
                walk(f"{path}[]", item)

    walk("", report)
    return keys


ESTIMATE_KEYS = [
    "samples", "t", "seed", "mean_log", "std_err", "mean_det",
    "std_err_det", "log_mean_det", "max_abs_variate",
]
BOUNDS_KEYS = ["lower_log", "gap_asymptotic", "upper_log", "per_vertex_gap"]
GRAPH_KEYS = ["n_vertices", "n_edges", "amplitude", "heaviest_weight_sum", "cover_weight_sum"]


class TestReportSchema:
    """Pins the keys of every JSON block and their order, which no lookup test sees."""

    def report(self, capsys, argv):
        code, out = run_json(capsys, argv + ["--format", "json"])
        assert code == 0
        return block_keys(json.loads(out))

    def test_estimate_with_samples(self, capsys, k2_file):
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--samples", "100"]
        assert self.report(capsys, argv) == {
            "": ["command", "graph", "estimate", "bounds"],
            ".command": ["subcommand", "graph", "t", "eps", "delta", "samples", "seed"],
            ".graph": GRAPH_KEYS + ["bipartite"],
            ".estimate": ESTIMATE_KEYS,
            ".bounds": BOUNDS_KEYS,
        }

    def test_estimate_with_plan(self, capsys, k2_file):
        argv = ["estimate", "--graph", k2_file, "--t", "1", "--eps", "0.5", "--delta", "0.25"]
        assert self.report(capsys, argv) == {
            "": ["command", "graph", "plan", "estimate", "bounds"],
            ".command": ["subcommand", "graph", "t", "eps", "delta", "samples", "seed"],
            ".graph": GRAPH_KEYS + ["bipartite"],
            ".plan": ["epsilon", "delta", "deviation_radius", "samples"],
            ".estimate": ESTIMATE_KEYS,
            ".bounds": BOUNDS_KEYS,
        }

    def test_verify(self, capsys, triangle_file):
        argv = ["verify", "--graph", triangle_file, "--t", "1", "--samples", "100"]
        assert self.report(capsys, argv) == {
            "": ["command", "graph", "estimate", "bounds", "oracle"],
            ".command": ["subcommand", "graph", "t", "samples", "seed"],
            ".graph": GRAPH_KEYS,
            ".estimate": ESTIMATE_KEYS,
            ".bounds": BOUNDS_KEYS,
            ".oracle": [
                "log_value", "value", "target_mean_det", "residual_std_errs",
                "sandwich_lower_ok", "sandwich_upper_ok", "sandwich_ok",
            ],
        }

    def test_bench(self, capsys):
        argv = ["bench", "--sides", "1,2x3", "--t", "1", "--w", "0.5,2", "--samples", "100"]
        assert self.report(capsys, argv) == {
            "": ["command", "rows"],
            ".command": ["subcommand", "sides", "t", "w", "samples", "seed"],
            ".rows[]": [
                "m", "n", "t", "samples", "exact_per_vertex", "estimate_per_vertex",
                "gap_per_vertex", "std_err_per_vertex", "gap_bound",
            ],
        }

    def test_constants(self, capsys):
        assert self.report(capsys, ["constants", "--grid-max", "1"]) == {
            "": ["command", "c1", "gap_table"],
            ".command": ["subcommand"],
            ".gap_table[]": ["a", "gap"],
        }


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["fold"])
    assert exc.value.code == 2
