"""Tests for the command-line interface: commands, exit codes, stream discipline."""

import json
import warnings

import numpy as np
import pytest

from matmeans import ConvergenceError, RequestError, harness, means, random_spd
from matmeans.cli import EXIT_DOMAIN, EXIT_FAILURES, EXIT_OK, EXIT_USAGE, _parse_grid, main
from matmeans.harness import Built
from matmeans.linalg import matrix_from_json, matrix_to_json
from matmeans.scalar import ScalarChain


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(path, diag):
    path.write_text(json.dumps(matrix_to_json(np.diag([float(d) for d in diag]))))
    return str(path)


class TestGen:
    def test_one_by_one_positive(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        code, stdout, stderr = run_cli(
            capsys, "gen", "--n", "1", "--cond", "4", "--seed", "3", "--out", str(out)
        )
        assert code == EXIT_OK and stderr == ""
        obj = json.loads(out.read_text())
        assert obj["n"] == 1 and obj["re"][0][0] > 0

    def test_out_of_range_flags_are_usage_errors(self, capsys):
        for flags in (
            ("--n", "0"),
            ("--cond", "0.5"),
            ("--cond", "nan"),
            ("--cond", "inf"),
            ("--cond", "1e400"),
            ("--seed", "-1"),
        ):
            # argparse keeps the last of a repeated flag.
            code, stdout, stderr = run_cli(capsys, "gen", "--n", "2", "--seed", "1", *flags)
            assert code == EXIT_USAGE and stdout == "" and "usage error" in stderr, flags

    def test_deterministic_files(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "gen", "--n", "3", "--seed", "42", "--out", str(f1))
        run_cli(capsys, "gen", "--n", "3", "--seed", "42", "--out", str(f2))
        assert f1.read_text() == f2.read_text()

    def test_round_trip_matches_in_memory_value(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        run_cli(capsys, "gen", "--n", "4", "--cond", "100", "--seed", "9", "--out", str(out))
        parsed = matrix_from_json(json.loads(out.read_text()))
        np.testing.assert_array_equal(parsed.a, random_spd(4, 100.0, 9).a)

    def test_condition_bound_respected(self, capsys, tmp_path):
        out = tmp_path / "m.json"
        run_cli(capsys, "gen", "--n", "4", "--cond", "100", "--seed", "1", "--out", str(out))
        w = np.linalg.eigvalsh(matrix_from_json(json.loads(out.read_text())).a)
        assert w[-1] / w[0] <= 100.0 * (1 + 1e-12)


class TestMean:
    def test_commuting_geometric(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [1, 4])
        b = write_matrix(tmp_path / "b.json", [9, 16])
        code, stdout, stderr = run_cli(
            capsys, "mean", "--kind", "geom", "--nu", "0.5", "--a", a, "--b", b
        )
        assert code == EXIT_OK and stderr == ""
        result = matrix_from_json(json.loads(stdout))
        np.testing.assert_allclose(result.a, np.diag([3.0, 8.0]), atol=1e-12)

    def test_zero_weight_echoes_first(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [2, 5])
        b = write_matrix(tmp_path / "b.json", [7, 1])
        code, stdout, _ = run_cli(
            capsys, "mean", "--kind", "harm", "--nu", "0", "--a", a, "--b", b
        )
        assert code == EXIT_OK
        np.testing.assert_allclose(
            matrix_from_json(json.loads(stdout)).a, np.diag([2.0, 5.0]), atol=1e-12
        )

    def test_equal_inputs_echo(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [2, 3])
        code, stdout, _ = run_cli(
            capsys, "mean", "--kind", "arith", "--nu", "0.7", "--a", a, "--b", a
        )
        assert code == EXIT_OK
        np.testing.assert_allclose(
            matrix_from_json(json.loads(stdout)).a, np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_non_spd_input_exits_2(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [1, -1])
        b = write_matrix(tmp_path / "b.json", [1, 1])
        code, stdout, stderr = run_cli(
            capsys, "mean", "--kind", "geom", "--nu", "0.5", "--a", a, "--b", b
        )
        assert code == EXIT_DOMAIN
        assert stdout == "" and stderr.startswith("error:")

    def test_harmonic_resolvent_failure_exits_2(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [2])
        b = write_matrix(tmp_path / "b.json", [1])
        code, stdout, stderr = run_cli(
            capsys, "mean", "--kind", "harm", "--nu", "-1", "--a", a, "--b", b
        )
        assert code == EXIT_DOMAIN and "resolvent" in stderr

    def test_non_finite_weight_is_usage_error(self, capsys, tmp_path):
        # Rejected as a flag before any matrix arithmetic: no numpy warning.
        a = write_matrix(tmp_path / "a.json", [1, 4])
        b = write_matrix(tmp_path / "b.json", [9, 16])
        for kind in ("arith", "geom", "harm"):
            for nu in ("nan", "inf"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, stdout, stderr = run_cli(
                        capsys, "mean", "--kind", kind, "--nu", nu, "--a", a, "--b", b
                    )
                assert code == EXIT_USAGE and stdout == "", (kind, nu)
                assert stderr.startswith("usage error") and "--nu" in stderr, (kind, nu)

    def test_convergence_error_exits_2(self, capsys, tmp_path, monkeypatch):
        def unconverged(a, b, nu):
            raise ConvergenceError("LAPACK SVD did not converge")

        monkeypatch.setattr(means, "geometric_mean", unconverged)
        a = write_matrix(tmp_path / "a.json", [1, 4])
        code, stdout, stderr = run_cli(
            capsys, "mean", "--kind", "geom", "--nu", "0.5", "--a", a, "--b", a
        )
        assert code == EXIT_DOMAIN and stdout == ""
        assert stderr == "error: LAPACK SVD did not converge\n"

    def test_mismatched_sizes_exit_2_for_every_kind(self, capsys, tmp_path):
        a = write_matrix(tmp_path / "a.json", [1, 4])
        b = write_matrix(tmp_path / "b.json", [9, 16, 25])
        for kind in ("arith", "geom", "harm"):
            code, stdout, stderr = run_cli(
                capsys, "mean", "--kind", kind, "--nu", "0.5", "--a", a, "--b", b
            )
            assert code == EXIT_DOMAIN and stdout == "", kind
            assert stderr == "error: dimension mismatch: 2 vs 3\n", kind

    @staticmethod
    def _extreme_weights(capsys, tmp_path, kind, seeds):
        """``mean --kind kind`` at nu = +-1e308 on the gen pair of ``seeds``
        at cond 1e12, with warnings as errors: (nu, code, stdout, stderr)."""
        paths = [str(tmp_path / f"{seed}.json") for seed in seeds]
        for seed, path in zip(seeds, paths):
            run_cli(capsys, "gen", "--n", "3", "--cond", "1e12", "--seed", str(seed), "--out", path)
        for nu in ("1e308", "-1e308"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                yield nu, *run_cli(
                    capsys, "mean", "--kind", kind, f"--nu={nu}", "--a", paths[0], "--b", paths[1]
                )

    def test_harmonic_extreme_weight_names_its_overflow(self, capsys, tmp_path):
        # On the pair of seeds 1 and 2 at cond 1e12, nu / w leaves the float
        # range at |nu| = 1e308: a DomainError that says so, and no warning.
        for nu, code, stdout, stderr in self._extreme_weights(capsys, tmp_path, "harm", (1, 2)):
            assert code == EXIT_DOMAIN and stdout == "", nu
            assert stderr.startswith("error: harmonic resolvent overflows"), (nu, stderr)

    def test_harmonic_extreme_weight_with_a_normal_mean(self, capsys, tmp_path):
        # At nu = 1e308 on (1, 0.864) both terms of r = (1 - nu) + nu/w are
        # near the largest double, but r = 1.57e307 is far above their
        # rounding error, and so is the mean 1/r = 6.35e-308: no warning.
        a = write_matrix(tmp_path / "a.json", [1.0])
        b = write_matrix(tmp_path / "b.json", [0.864])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_cli(
                capsys, "mean", "--kind", "harm", "--nu=1e308", "--a", a, "--b", b
            )
        assert code == EXIT_OK and stderr == "", stderr
        mean = matrix_from_json(json.loads(stdout)).a[0, 0].real
        assert mean == pytest.approx(1.0 / ((1.0 - 1e308) + 1e308 / 0.864), rel=1e-13)

    def test_arithmetic_extreme_weight_names_its_overflow(self, capsys, tmp_path):
        # On the pair of seeds 2 and 1, (1 - nu) A + nu B leaves the float
        # range at |nu| = 1e308: a DomainError that says so, and no warning.
        for nu, code, stdout, stderr in self._extreme_weights(capsys, tmp_path, "arith", (2, 1)):
            assert code == EXIT_DOMAIN and stdout == "", nu
            assert stderr.startswith("error: arithmetic mean overflows"), (nu, stderr)


class TestNorm:
    def test_frobenius_hand_value(self, capsys, tmp_path):
        x = write_matrix(tmp_path / "x.json", [3, 4])
        code, stdout, _ = run_cli(capsys, "norm", "--kind", "frobenius", "--x", x)
        assert code == EXIT_OK
        assert float(stdout) == pytest.approx(5.0)

    def test_schatten_requires_p(self, capsys, tmp_path):
        x = write_matrix(tmp_path / "x.json", [1, 1])
        code, stdout, stderr = run_cli(capsys, "norm", "--kind", "schatten", "--x", x)
        assert code == EXIT_USAGE and stdout == ""

    def test_schatten_and_kyfan_values(self, capsys, tmp_path):
        x = write_matrix(tmp_path / "x.json", [3, 2, 1])
        code, stdout, _ = run_cli(
            capsys, "norm", "--kind", "schatten", "--p", "1", "--x", x
        )
        assert code == EXIT_OK and float(stdout) == pytest.approx(6.0)
        code, stdout, _ = run_cli(capsys, "norm", "--kind", "kyfan", "--k", "2", "--x", x)
        assert code == EXIT_OK and float(stdout) == pytest.approx(5.0)

    def test_out_of_range_flags_are_usage_errors(self, capsys, tmp_path):
        x = write_matrix(tmp_path / "x.json", [3, 2, 1])
        for flags in (
            ("--kind", "schatten", "--p", "0.5"),
            ("--kind", "schatten", "--p", "inf"),
            ("--kind", "schatten", "--p", "nan"),
            ("--kind", "kyfan", "--k", "0"),
        ):
            code, stdout, stderr = run_cli(capsys, "norm", *flags, "--x", x)
            assert code == EXIT_USAGE and stdout == "" and "usage error" in stderr, flags

    @pytest.mark.parametrize(
        "obj",
        [
            {"n": 2, "re": [[1, 0], [0]]},
            {"n": "x", "re": [[1]]},
            {"n": 1, "re": [["a"]]},
            {"n": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0]]},
            {"n": 2.5, "re": [[1, 0], [0, 1]]},
        ],
        ids=["ragged_re", "n_not_a_number", "entry_not_a_number", "ragged_im", "n_not_an_integer"],
    )
    def test_malformed_matrix_file_exits_2(self, capsys, tmp_path, obj):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(obj))
        code, stdout, stderr = run_cli(capsys, "norm", "--kind", "spectral", "--x", str(path))
        assert code == EXIT_DOMAIN and stdout == ""
        assert stderr.startswith("error: malformed matrix JSON: ") and stderr.count("\n") == 1

    def test_missing_file_exits_2(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "norm", "--kind", "spectral", "--x", "/nonexistent/m.json"
        )
        assert code == EXIT_DOMAIN and stdout == "" and "error:" in stderr

    def test_unwritable_output_exits_2(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "gen", "--n", "2", "--seed", "1", "--out", "/nonexistent/dir/m.json"
        )
        assert code == EXIT_DOMAIN and "error:" in stderr


class TestVerify:
    def test_unknown_case_is_usage_error(self, capsys):
        # Flag values no case config accepts are usage errors too.
        for argv, reason in (
            (("--case", "unknown_case"), "unknown"),
            (("--tol", "-1"), "rel_tol"),
            (("--tol", "nan"), "rel_tol"),
            (("--tol", "inf"), "rel_tol"),
            (("--instances", "0"), "instances"),
            (("--dim-max", "0"), "dimension"),
        ):
            code, stdout, stderr = run_cli(capsys, "verify", *argv)
            assert code == EXIT_USAGE, argv
            assert reason in stderr and stdout == "", argv

    def test_small_run_reproducible(self, capsys, tmp_path):
        args = (
            "verify",
            "--case", "kantorovich_scalar",
            "--case", "young_reverse_pos",
            "--instances", "10",
            "--seed", "5",
            "--csv", str(tmp_path / "report.csv"),
        )
        code1, out1, err1 = run_cli(capsys, *args)
        csv1 = (tmp_path / "report.csv").read_text()
        code2, out2, _ = run_cli(capsys, *args)
        csv2 = (tmp_path / "report.csv").read_text()
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert csv1 == csv2
        assert csv1.startswith("case,instances,skipped,failures,min_slack,max_gap")
        assert "kantorovich_scalar" in out1 and "total:" in out1

    def test_failing_case_exits_1(self, capsys, tmp_path):
        def always_fails():
            return Built(chain=ScalarChain(("hi", "lo"), (1.0, 0.5)))

        harness.REGISTRY["_cli_fail"] = harness.CaseDef(
            "_cli_fail", lambda rng, cfg, cond: {}, harness._each(always_fails),
            {"instances": 3}, (),
            "synthetic",
        )
        try:
            code, stdout, _ = run_cli(
                capsys,
                "verify", "--case", "_cli_fail",
                "--failures-dir", str(tmp_path / "failures"),
            )
            assert code == EXIT_FAILURES
            assert "FAIL" in stdout
        finally:
            harness.REGISTRY.pop("_cli_fail")


class TestSweep:
    def test_depth_grid_monotone_gain(self, capsys):
        code, stdout, stderr = run_cli(
            capsys,
            "sweep", "--case", "young_reverse_pos",
            "--param", "N", "--grid", "1:8:1", "--instances", "10",
        )
        assert code == EXIT_OK and stderr == ""
        lines = stdout.strip().split("\n")
        assert lines[0] == "N,mean_gap,mean_gain"
        gains = [float(line.split(",")[2]) for line in lines[1:]]
        assert len(gains) == 8
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_nu_grid_with_zero_row(self, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--case", "young_reverse_pos",
            "--param", "nu", "--grid", "0:2:1", "--instances", "5",
        )
        assert code == EXIT_OK
        first = stdout.strip().split("\n")[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(0.0, abs=1e-12)

    def test_grid_values(self, capsys):
        # A one-point grid at any magnitude has its one point, although
        # stop + step / 2 rounds back to stop at 1e300.
        np.testing.assert_array_equal(_parse_grid("1e300:1e300:1"), [1e300])
        np.testing.assert_array_equal(_parse_grid("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(_parse_grid("1:16:1"), np.arange(1.0, 17.0))
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--case", "harmonic_reverse",
            "--param", "nu", "--grid", "1e300:1e300:1", "--instances", "3",
        )
        assert code == EXIT_OK
        lines = stdout.strip().split("\n")
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == 1e300
        # A grid ends at its last point <= stop, not at a nearer one past
        # it; round-off in the span keeps a point that lands on stop.
        np.testing.assert_array_equal(_parse_grid("0:1:0.35"), [0.0, 0.35, 0.7])
        np.testing.assert_array_equal(_parse_grid("1:32:4"), np.arange(1.0, 30.0, 4.0))
        np.testing.assert_array_equal(
            _parse_grid("0:0.3:0.1"), [0.0, 0.1, 0.2, 0.30000000000000004]
        )
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--case", "young_reverse_pos",
            "--param", "N", "--grid", "1:32:4", "--instances", "3",
        )
        assert code == EXIT_OK
        depths = [float(line.split(",")[0]) for line in stdout.strip().split("\n")[1:]]
        assert depths == [1.0, 5.0, 9.0, 13.0, 17.0, 21.0, 25.0, 29.0]

    def test_grid_counts_points_from_its_span(self, capsys):
        # At 1e16 the doubles are 2 apart, so stop + step / 2 rounds back to
        # stop; the grid still ends at stop, with all three points.
        want = [1e16, 1e16 + 2.0, 1e16 + 4.0]
        np.testing.assert_array_equal(_parse_grid("1e16:1.0000000000000004e16:2"), want)
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--case", "harmonic_reverse",
            "--param", "nu", "--grid", "1e16:1.0000000000000004e16:2", "--instances", "2",
        )
        assert code == EXIT_OK
        assert [float(line.split(",")[0]) for line in stdout.strip().split("\n")[1:]] == want

    @pytest.mark.parametrize(
        "case, grid",
        [
            ("young_reverse_pos", "1e300:1e300:1"),
            ("young_reverse_neg", "-1e300:-1e300:1"),
            ("young_squared", "1e300:1e300:1"),
            ("convex_refined_a", "1e300:1e300:1"),
            ("convex_refined_b", "-1e30:-1e30:1"),
            ("logconvex_refined_a", "1e30:1e30:1"),
            ("logconvex_refined_b", "-1e30:-1e30:1"),
        ],
    )
    def test_overflowing_scalar_chain_exits_2(self, capsys, case, grid):
        # A weight so large that a value leaves the float range is a domain
        # error of the chain, not an uncaught OverflowError.
        code, stdout, stderr = run_cli(
            capsys,
            "sweep", "--case", case, "--param", "nu", f"--grid={grid}", "--instances", "3",
        )
        assert code == EXIT_DOMAIN and stdout == ""
        assert stderr.startswith("error:") and "overflows" in stderr

    @pytest.mark.parametrize(
        "case, grid, flow",
        [
            pytest.param(case, grid, flow, id=case)
            for case, grid, flow in (
                ("norm_reverse_pos", "1e300:1e300:1", "overflows"),
                ("heinz_reverse", "1e300:1e300:1", "overflows"),
                ("operator_reverse_pos", "1e300:1e300:1", "overflows"),
                ("operator_squared_pos", "1e300:1e300:1", "overflows"),
                ("operator_reverse_neg", "-1e300:-1e300:1", "overflows"),
                ("operator_squared_neg", "-1e300:-1e300:1", "overflows"),
                ("kantorovich_operator", "1e300:1e300:1", "underflows"),
                ("harmonic_geometric", "1e300:1e300:1", "underflows"),
            )
        ],
    )
    def test_overflowing_power_exits_2_without_warning(self, capsys, case, grid, flow):
        # A weight of +-1e300 takes a power of a spectrum (of A and B, or of
        # X for the operator chains) out of the float range: a domain error
        # that names the overflow, with no numpy RuntimeWarning on stderr.
        # The Kantorovich bound's base ((1 + 1/w)/2) is at most 1, so its
        # power underflows to 0, which would make the chain's lower bound
        # vacuous; so does the geometric-harmonic chain's x^{1+nu} y^{-nu}
        # with x < y.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run_cli(
                capsys,
                "sweep", "--case", case, "--param", "nu", f"--grid={grid}", "--instances", "3",
            )
        assert code == EXIT_DOMAIN and stdout == ""
        assert stderr.startswith("error:") and flow in stderr, stderr
        assert "RuntimeWarning" not in stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught

    def test_overflowing_chain_arithmetic_exits_2_without_warning(self, capsys):
        # At nu = 1e308 every value of the harmonic operator chain is finite,
        # but its secant (1 + nu) f(0) - nu f(1) is not: the chain names it,
        # and the refinement's array arithmetic warns of nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_cli(
                capsys,
                "sweep", "--case", "harmonic_operator", "--param", "nu",
                "--grid=1e308:1e308:1", "--instances", "2",
            )
        assert code == EXIT_DOMAIN and stdout == ""
        assert stderr == "error: chain values must be finite\n", stderr

    def test_function_outside_its_domain_exits_2(self, capsys):
        # At nu = 500 the target point of neg_log_shifted's chain lies below
        # -100, where -log(t + 100) is undefined: a domain error naming t.
        code, stdout, stderr = run_cli(
            capsys,
            "sweep", "--case", "convex_refined_a", "--param", "nu",
            "--grid", "500:500:1", "--instances", "50",
        )
        assert code == EXIT_DOMAIN and stdout == ""
        assert stderr.startswith("error: function is undefined at t=-"), stderr
        assert "Traceback" not in stderr

    def test_empty_grid_is_usage_error(self, capsys):
        # So is a grid value no instance can take: a depth that is not an
        # integer in 1..32, or a cond below 1.
        for case, param, grid in (
            ("young_reverse_pos", "N", "8:1:1"),
            ("young_reverse_pos", "N", "nan:1:1"),
            ("operator_reverse_pos", "N", "40:40:1"),
            ("operator_reverse_pos", "N", "0:0:1"),
            ("operator_reverse_pos", "N", "1.5:1.5:1"),
            ("operator_reverse_pos", "cond", "0.5:0.5:1"),
        ):
            code, stdout, stderr = run_cli(
                capsys, "sweep", "--case", case, "--param", param, "--grid", grid,
            )
            assert code == EXIT_USAGE and stdout == "", grid

    def test_oversized_grid_is_usage_error(self, capsys, monkeypatch):
        # The point count is checked before any grid array is built.
        def no_arange(*args, **kwargs):
            raise AssertionError("grid array allocated")

        monkeypatch.setattr(np, "arange", no_arange)
        for grid in ("0:1e300:1", "0:1.7e308:1e-300", "0:10000:1"):
            code, stdout, stderr = run_cli(
                capsys, "sweep", "--case", "young_reverse_pos", "--param", "nu",
                "--grid", grid,
            )
            assert code == EXIT_USAGE and stdout == "", grid
            assert "points" in stderr, grid

    def test_nu_off_branch_is_usage_error(self, capsys):
        for case, grid in (
            ("operator_squared_neg", "0:3:1.5"),
            ("norm_reverse_pos", "-2:-1:1"),
            ("convex_refined_a", "-0.5:-0.5:1"),
        ):
            code, stdout, stderr = run_cli(
                capsys, "sweep", "--case", case, "--param", "nu", f"--grid={grid}",
                "--instances", "2",
            )
            assert code == EXIT_USAGE and stdout == "", (case, grid)
            assert stderr.startswith("usage error: sweep_values requires nu"), (case, grid)

    def test_csv_file_output(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run_cli(
            capsys,
            "sweep", "--case", "young_reverse_pos", "--param", "nu",
            "--grid", "0:1:0.5", "--instances", "5", "--csv", str(out),
        )
        assert code == EXIT_OK and stdout == ""
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "nu,mean_gap,mean_gain" and len(lines) == 4

    def test_unknown_case_is_usage_error(self, capsys):
        # So is a parameter the case does not sweep, or a bad flag value.
        for argv in (
            ("--case", "nope", "--param", "N"),
            ("--case", "kantorovich_scalar", "--param", "N"),
            ("--case", "young_reverse_pos", "--param", "N", "--instances", "0"),
        ):
            code, stdout, _ = run_cli(capsys, "sweep", *argv, "--grid", "1:2:1")
            assert code == EXIT_USAGE and stdout == "", argv


class TestUsage:
    def test_harness_request_check_decides_usage_errors(self, capsys, monkeypatch):
        # verify and sweep keep no check of their own: whatever the harness's
        # request check rejects raises RequestError, a usage error, before
        # any instance is drawn.
        def reject(name, overrides, param=None, grid=()):
            raise RequestError(f"rejected {name}")

        def no_draw(*args, **kwargs):
            raise AssertionError("instance drawn")

        monkeypatch.setattr(harness, "_request", reject)
        monkeypatch.setattr(harness, "_instances", no_draw)
        for argv in (
            ("verify", "--case", "young_reverse_pos", "--instances", "2"),
            ("verify", "--instances", "2"),
            ("sweep", "--case", "young_reverse_pos", "--param", "N", "--grid", "1:2:1"),
        ):
            code, stdout, stderr = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and stdout == "", argv
            assert stderr.startswith("usage error: rejected "), (argv, stderr)

    def test_no_arguments_is_usage_error(self, capsys):
        code, stdout, stderr = run_cli(capsys)
        assert code == EXIT_USAGE and stdout == ""

    def test_bad_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "--n", "2", "--seed", "1", "--bogus")
        assert code == EXIT_USAGE
