"""Tests for the seeded verification harness: registry, reports, sweeps, repro files."""

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

from matmeans import (
    DomainError,
    HermitianMatrix,
    OperatorChain,
    ScalarChain,
    arithmetic_mean,
    harmonic_mean,
)
from matmeans import harness, linalg, norms, reporting, scalar
from matmeans.harness import Built, CaseConfig
from matmeans.reporting import chain_gap, chain_slacks, reports_to_csv


class TestChainChecking:
    def test_equal_chain_has_zero_slacks(self):
        chain = ScalarChain(("a", "b", "c"), (2.0, 2.0, 2.0))
        np.testing.assert_array_equal(chain_slacks(chain), [0.0, 0.0])

    def test_normalized_slacks(self):
        # Differences divided by max(1, largest magnitude): (1,1)/2 here.
        chain = ScalarChain(("a", "b", "c"), (0.0, 1.0, 2.0))
        np.testing.assert_allclose(chain_slacks(chain), [0.5, 0.5])

    def test_violation_reported(self):
        chain = ScalarChain(("hi", "lo"), (1.0, 0.5))
        np.testing.assert_allclose(chain_slacks(chain), [-0.5])

    def test_chain_validation(self):
        with pytest.raises(DomainError):
            ScalarChain(("one",), (1.0,))
        with pytest.raises(DomainError):
            ScalarChain(("a", "b"), (1.0, float("nan")))


class TestRegistry:
    def test_at_least_thirty_cases(self):
        assert len(harness.case_names()) >= 30

    def test_unknown_case_rejected(self):
        with pytest.raises(DomainError):
            harness.run_case("no_such_case")

    def test_descriptions_present(self):
        for name in harness.case_names():
            assert harness.case_description(name)


class TestRunCase:
    def test_deterministic_reports(self):
        r1 = harness.run_case("young_reverse_pos", instances=50)
        r2 = harness.run_case("young_reverse_pos", instances=50)
        assert _same_report(r1, r2)
        assert r1.csv_row() == r2.csv_row()

    def test_failure_counting_and_repro_files(self, tmp_path):
        def always_fails(note):
            return Built(chain=ScalarChain(("hi", "lo"), (1.0, 0.5)))

        harness.REGISTRY["_synthetic_fail"] = harness.CaseDef(
            "_synthetic_fail", lambda rng, cfg, cond: {"note": "synthetic"},
            harness._each(always_fails), {"instances": 5}, (), "synthetic",
        )
        try:
            report = harness.run_case("_synthetic_fail", failures_dir=tmp_path)
            assert report.failures == 5
            assert report.instances == 5
            assert report.min_slack == pytest.approx(-0.5)
            files = sorted(tmp_path.glob("_synthetic_fail-*.json"))
            assert len(files) == 5
            data = json.loads(files[0].read_text())
            assert data["case"] == "_synthetic_fail"
            assert data["slacks"] == [-0.5]
            assert data["params"] == {"note": "synthetic"}
            # The cap keeps the first failing indices, in index order.
            many = tmp_path / "many"
            report = harness.run_case("_synthetic_fail", failures_dir=many, instances=40)
            assert report.failures == 40
            files = sorted(p.name for p in many.iterdir())
            assert files == [f"_synthetic_fail-{i:05d}.json" for i in range(25)]
        finally:
            harness.REGISTRY.pop("_synthetic_fail")

    def test_chains_and_margins_in_one_case_raise(self):
        # A case's rows are decided in one block pass, by one kind of verdict.
        def mixed(i):
            if i % 2:
                return Built(margins=np.array([0.1]))
            return Built(chain=ScalarChain(("a", "b"), (0.0, 0.1)))

        harness.REGISTRY["_synthetic_mixed"] = harness.CaseDef(
            "_synthetic_mixed", lambda rng, cfg, cond: {"i": int(rng.integers(2))},
            harness._each(mixed), {"instances": 8}, (), "synthetic",
        )
        try:
            with pytest.raises(DomainError, match="more than one kind"):
                harness.run_case("_synthetic_mixed")
        finally:
            harness.REGISTRY.pop("_synthetic_mixed")

    def test_failure_file_replays_the_drawn_matrices(self, tmp_path):
        # The payload holds A, B and X as drawn and serializes them only for
        # the failure file, which parses back to them exactly.
        seen = []

        def descending(a, b, x, kind):
            seen.append((a.a, b.a, x))
            return Built(chain=ScalarChain(("hi", "lo"), (1.0, 0.5)))

        harness.REGISTRY["_synthetic_norm"] = harness.CaseDef(
            "_synthetic_norm", harness._norm_inputs, harness._each(descending),
            {"instances": 4, "dim_min": 1}, (), "synthetic",
        )
        try:
            report = harness.run_case("_synthetic_norm", failures_dir=tmp_path)
            assert report.failures == 4
            # Built once each: the failure files draw their payloads again.
            assert len(seen) == 4
            for index, arrays in enumerate(seen):
                data = json.loads((tmp_path / f"_synthetic_norm-{index:05d}.json").read_text())
                for key, array in zip("abx", arrays):
                    np.testing.assert_array_equal(
                        linalg.matrix_from_json(data["params"][key]).a, array
                    )
        finally:
            harness.REGISTRY.pop("_synthetic_norm")

    def test_passing_instances_serialize_nothing(self, monkeypatch):
        def refuse(m):
            raise AssertionError("a passing instance serialized its payload")

        monkeypatch.setattr(harness, "matrix_to_json", refuse)
        for name in ("harmonic_operator", "norm_combined", "heinz_monotonicity"):
            assert harness.run_case(name, instances=3).failures == 0

    def test_nan_slack_is_a_failure_with_a_repro_file(self, tmp_path):
        def nan_margin(note):
            return Built(margins=np.array([0.1, np.nan]))

        harness.REGISTRY["_synthetic_nan"] = harness.CaseDef(
            "_synthetic_nan", lambda rng, cfg, cond: {"note": "nan"},
            harness._each(nan_margin),
            {"instances": 3}, (), "synthetic",
        )
        try:
            report = harness.run_case("_synthetic_nan", failures_dir=tmp_path)
            assert report.failures == 3
            assert math.isnan(report.min_slack)
            files = sorted(tmp_path.glob("_synthetic_nan-*.json"))
            assert len(files) == 3
            assert json.loads(files[0].read_text())["params"] == {"note": "nan"}
        finally:
            harness.REGISTRY.pop("_synthetic_nan")

    def test_zero_weight_range_gives_zero_slack_ends(self):
        # Degenerate weight range: every chain collapses, slacks ~ 0.
        report = harness.run_case(
            "young_reverse_pos", instances=20, nu_range=(0.0, 0.0)
        )
        assert report.failures == 0
        assert report.max_gap <= 1e-10

    def test_non_finite_weight_range_rejected(self):
        # The weight is drawn as lo + (hi - lo) * u, which an infinite hi
        # would turn into inf or NaN: the config refuses it first.
        for bad in ((0.0, math.inf), (math.inf, math.inf), (0.0, math.nan), (math.nan, 1.0)):
            with pytest.raises(DomainError, match="weight magnitude range"):
                harness.run_case("young_reverse_pos", instances=3, nu_range=bad)
            with pytest.raises(DomainError, match="weight magnitude range"):
                CaseConfig(nu_range=bad)

    def test_depth_range_must_hold_integers(self):
        # A depth the draw would truncate (rng.integers(1.5, 3.5)) is refused,
        # with the chains' own depth message; so is an inverted range.
        for lo, hi in ((1.5, 2.5), (1, 2.5), (math.nan, 3), (0, 3), (1, 33)):
            with pytest.raises(DomainError, match=r"depth must be an integer in 1\.\.32"):
                harness.run_case("young_reverse_pos", instances=3, depth_min=lo, depth_max=hi)
        with pytest.raises(DomainError, match="bad depth range 3..2"):
            CaseConfig(depth_min=3, depth_max=2)

    @pytest.mark.parametrize("field", ["instances", "dim_min", "dim_max", "seed"])
    def test_integer_field_must_hold_an_integer(self, field):
        # A value that range() would refuse, or that rng.integers or the
        # stream key would take silently, is refused by the config's one
        # integer rule, naming the field; an integral float runs as its int.
        good = {"instances": 3, "dim_min": 2, "dim_max": 3, "seed": 7}
        for bad in (good[field] + 0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"^{field} must be an integer, got"):
                harness.run_case("operator_reverse_pos", **{**good, field: bad})
        want = harness.run_case("operator_reverse_pos", **good)
        same = harness.run_case("operator_reverse_pos", **{**good, field: float(good[field])})
        assert _same_report(same, want)
        assert type(getattr(CaseConfig(**{field: float(good[field])}), field)) is int


class TestRunSuite:
    def test_subset_and_csv(self):
        names = ("young_reverse_pos", "kantorovich_scalar")
        reports = harness.run_suite(names=names, instances=20)
        assert [r.name for r in reports] == list(names)
        csv = reports_to_csv(reports)
        lines = csv.strip().split("\n")
        assert lines[0] == "case,instances,skipped,failures,min_slack,max_gap"
        assert len(lines) == 3

    def test_unknown_name_rejected_before_running(self):
        with pytest.raises(DomainError):
            harness.run_suite(names=("young_reverse_pos", "bogus"))

    def test_deterministic_csv(self):
        names = ("harmonic_reverse", "trace_depth1")
        csv1 = reports_to_csv(harness.run_suite(names=names, instances=15))
        csv2 = reports_to_csv(harness.run_suite(names=names, instances=15))
        assert csv1 == csv2

    def test_blocks_across_cases_match_each_case_alone(self, monkeypatch, tmp_path):
        # Each case's report equals the one of its instances built alone,
        # and the failure files the call writes as it decides each case are
        # those of run_case of that case.
        _mixed_suite(monkeypatch)
        reports = harness.run_suite(
            MIXED_SUITE, tmp_path / "suite", instances=MIXED_INSTANCES, **MIXED_OVERRIDES
        )
        assert [r.name for r in reports] == list(MIXED_SUITE)
        for name, report in zip(MIXED_SUITE, reports):
            want = _fresh_report(name, MIXED_INSTANCES, report.notes, **MIXED_OVERRIDES)
            assert _same_report(report, want), name
            alone = tmp_path / "alone"
            harness.run_case(name, alone, instances=MIXED_INSTANCES, **MIXED_OVERRIDES)
        failing = {r.name: r.failures for r in reports if r.failures}
        assert failing.keys() == {"logconvex_refined_a", "harmonic_operator"}, failing
        assert failing["logconvex_refined_a"] == 3
        files = {
            side: {p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}
            for side in ("suite", "alone")
        }
        assert len(files["suite"]) == sum(failing.values())
        assert files["suite"] == files["alone"]

    def test_raise_mid_block_leaves_earlier_cases_decided(self, monkeypatch, tmp_path):
        # One block holds all three cases. Its instances are built in draw
        # order, so a later case that raises leaves every earlier case, the
        # matrix case too, decided with its failure files written: those
        # run_case of that case writes alone.
        _mixed_suite(monkeypatch)

        def always_fails():
            return Built(chain=ScalarChain(("hi", "lo"), (1.0, 0.5)))

        def raises():
            raise DomainError("planted")

        for name, build in (("_synthetic_fail", always_fails), ("_synthetic_raise", raises)):
            monkeypatch.setitem(harness.REGISTRY, name, harness.CaseDef(
                name, lambda rng, cfg, cond: {}, harness._each(build), {}, (), "synthetic",
            ))
        suite = ("_synthetic_fail", "harmonic_operator", "_synthetic_raise")
        assert 3 * len(suite) <= MIXED_BLOCK
        with pytest.raises(DomainError, match="planted"):
            harness.run_suite(suite, tmp_path / "suite", instances=3)
        report = harness.run_case("harmonic_operator", tmp_path / "alone", instances=3)
        alone = {p.name: p.read_bytes() for p in (tmp_path / "alone").iterdir()}
        assert report.failures == len(alone) > 0
        written = {p.name: p.read_bytes() for p in (tmp_path / "suite").iterdir()}
        scalar_files = [f"_synthetic_fail-{i:05d}.json" for i in range(3)]
        assert sorted(written) == sorted([*scalar_files, *alone])
        assert {name: written[name] for name in alone} == alone


def _same_report(report, want) -> bool:
    """Equal reports whose slack blocks are equal bit for bit (equality
    leaves the block out)."""
    return report == want and _bits(report.slacks) == _bits(want.slacks)


def _fresh_report(name, instances, notes, **overrides):
    """The report of instances ``0 .. instances - 1`` of a case, each built
    alone by ``build_instance``."""
    rel_tol = harness._request(name, overrides)[1].rel_tol
    verdicts = [
        harness.build_instance(name, index, **overrides).verdict() for index in range(instances)
    ]
    return _report(name, *zip(*verdicts), rel_tol, notes=notes)


#: One run_suite call in blocks of MIXED_BLOCK instances: its blocks mix
#: scalar and matrix cases and several n, and cases straddle block
#: boundaries. At depth 32, logconvex_refined_a fails on round-off at
#: instances 2, 12 and 14; ``_mixed_suite`` plants a harmonic_operator build
#: that fails at every even n.
MIXED_SUITE = (
    "logconvex_refined_a", "operator_reverse_pos", "young_reverse_pos",
    "harmonic_operator", "norm_heinz_power",
)
MIXED_INSTANCES = 15
MIXED_OVERRIDES = {"depth_min": 32, "depth_max": 32}
MIXED_BLOCK = 16


def _mixed_suite(monkeypatch):
    """Set the block size of a ``MIXED_SUITE`` run and plant its fault."""
    monkeypatch.setattr(harness, "_BLOCK", MIXED_BLOCK)
    case = harness.REGISTRY["harmonic_operator"]
    even_n_fails = harness._each(lambda a, b, nu, depth: Built(margins=np.array([a.n % 2 - 0.5])))
    monkeypatch.setitem(harness.REGISTRY, case.name, dataclasses.replace(case, build=even_n_fails))


def _report(name, rows, gaps, rel_tol, notes=""):
    """The report of slack rows each decided with its gap, as an operator
    chain's row is."""
    decided = [[*row, gap] for row, gap in zip(rows, gaps, strict=True)]
    return reporting.case_report(name, reporting._decided_verdicts, decided, rel_tol, notes)[0]


def _margins_report(name, rows, rel_tol):
    """The report of margin rows (each row's gap is its largest margin)."""
    return reporting.case_report(name, reporting._margin_verdicts, rows, rel_tol)[0]


#: The cases that draw matrices: operator, harmonic, Kantorovich, trace, norm
#: and Heinz.
MATRIX_CASES = [
    n for n in harness.case_names()
    if n.startswith(("operator_", "trace_", "norm_", "heinz_"))
    or n in ("harmonic_operator", "kantorovich_operator")
]

#: The stress settings, each run at ``STRESS_INSTANCES``: enough to meet a
#: defect that hits 1% of instances (300 draws miss it with probability 5%).
HIGH_CONDITION = (
    {"cond_max": 1e8},
    {"cond_max": 1e12},
    {"cond_max": 1e12, "dim_min": 1, "dim_max": 1},
)
LARGE_WEIGHTS = {"cond_max": 1e12, "nu_range": (8.0, 9.0)}
STRESS_INSTANCES = 300


def _stressed(names, settings):
    """Run each case of ``names`` at each of ``settings`` with warnings as
    errors: nothing warns or raises, and no instance fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for overrides in settings:
            for name in names:
                report = harness.run_case(name, instances=STRESS_INSTANCES, **overrides)
                assert report.failures == 0, (name, overrides, report.min_slack)


class TestStress:
    def test_norm_and_heinz_cases_at_high_condition(self):
        # Every norm and Heinz case at cond 1e8 and 1e12 with n in 2..6, and
        # at n = 1.
        names = [n for n in MATRIX_CASES if n.startswith(("norm_", "heinz_"))]
        assert len(names) == 14
        _stressed(names, HIGH_CONDITION)

    def test_operator_and_trace_cases_at_high_condition(self):
        # The operator, harmonic, Kantorovich and trace cases at cond 1e8 and
        # 1e12 with n in 2..8, and at n = 1.
        names = [n for n in MATRIX_CASES if not n.startswith(("norm_", "heinz_"))]
        assert len(names) == 9
        _stressed(names, HIGH_CONDITION)

    def test_every_case_at_dimension_one(self):
        # n = 1, the smallest stack a block assembles: every case, 50
        # instances, nothing raises and no instance fails.
        for name in harness.case_names():
            report = harness.run_case(name, instances=50, dim_min=1, dim_max=1)
            assert report.failures == 0, (name, report.min_slack)

    def test_every_case_at_large_weights(self):
        # |nu| in 8..9 on either branch, at each case's cond and at 1e12:
        # nothing raises, and no instance fails. The matrix cases run at 1e12
        # at the stress size, with warnings as errors; there sigma_max^3
        # passes the float range while the Schatten norms stay near 1e100.
        for cond in ({}, {"cond_max": 1e12}):
            for name in harness.case_names():
                if cond and name in MATRIX_CASES:
                    continue
                report = harness.run_case(name, instances=10, nu_range=(8.0, 9.0), **cond)
                assert report.failures == 0, (name, cond, report.min_slack)
        assert len(MATRIX_CASES) == 23
        _stressed(MATRIX_CASES, [LARGE_WEIGHTS])

    def test_heinz_symmetry_relative_at_high_condition(self):
        # The functional reaches 1e18 at cond 1e8, where one ulp of 1 - nu
        # moves it far above an absolute 1e-10; relative to the value, the
        # defect stays at round-off.
        report = harness.run_case("heinz_symmetry", instances=500, cond_max=1e8)
        assert report.failures == 0, report.min_slack

    def test_kantorovich_operator_checks_every_draw_at_high_condition(self):
        # Every drawn pair is checked, the ill-conditioned ones included.
        for cond in (1e8, 1e12):
            report = harness.run_case("kantorovich_operator", instances=300, cond_max=cond)
            assert (report.instances, report.skipped) == (300, 0), cond
            assert report.failures == 0, (cond, report.min_slack)

    def test_norm_and_heinz_cases_with_near_singular_x(self, monkeypatch):
        # X's smallest singular value scaled by 1e-8, 1e-14 and 0: nothing
        # raises, and no instance fails. Each case's own draw runs first and
        # the scaling draws nothing, so every other parameter keeps its value.
        names = [n for n in harness.case_names() if n.startswith(("norm_", "heinz_"))]
        assert len(names) == 14

        def near_singular(draw, scale):
            def scaled(rng, cfg, cond):
                args = draw(rng, cfg, cond)
                u, s, vh = np.linalg.svd(args["x"])
                s[-1] *= scale
                args["x"] = (u * s) @ vh
                args["x"].setflags(write=False)
                return args

            return scaled

        cases = {name: harness.REGISTRY[name] for name in names}
        for scale in (1e-8, 1e-14, 0.0):
            for name, case in cases.items():
                swapped = dataclasses.replace(case, draw=near_singular(case.draw, scale))
                monkeypatch.setitem(harness.REGISTRY, name, swapped)
                report = harness.run_case(name, instances=50)
                assert report.failures == 0, (name, scale, report.min_slack)


class TestBuildInstance:
    def test_deterministic(self):
        b1 = harness.build_instance("young_reverse_pos", 3)
        b2 = harness.build_instance("young_reverse_pos", 3)
        assert b1.payload == b2.payload
        assert b1.chain.values == b2.chain.values

    def test_forced_parameters_keep_instance_identity(self):
        # For every sweepable (case, param): the forced value reaches the
        # payload, and every entry it does not feed keeps its drawn value
        # (a forced cond rescales the spectra of A and B, nothing else).
        for name in harness.case_names():
            for param in harness.REGISTRY[name].sweep_params:
                drawn = harness.build_instance(name, 0).payload
                value = {
                    "depth": 3,
                    "nu": 2.0 if drawn.get("nu", 0.0) >= 0.0 else -2.5,
                    "cond": 10.0,
                }[param]
                forced = harness.build_instance(name, 0, forced={param: value}).payload
                assert forced[param] == value, (name, param)
                fed = {param, "a", "b"} if param == "cond" else {param}
                assert set(forced) == set(drawn), (name, param)
                for key in set(drawn) - fed:
                    assert forced[key] == drawn[key], (name, param, key)

    def test_payload_names_each_build_argument_once(self):
        # For every registered case, the payload derived from a draw's build
        # arguments holds each of them under its own name, and nothing else
        # but an SPD pair's cond and n, which come first after A and B. The
        # matrices are the drawn objects, f names its catalog function and
        # kind is the norm kind's str.
        catalog = dict(scalar.CONVEX_CATALOG + scalar.LOGCONVEX_CATALOG)
        for name in harness.case_names():
            case, cfg, _ = harness._request(name, {})
            slices = [(case, cfg, float(cfg.cond_max), range(4))]
            for _, _, args in harness._instances(slices, harness._new_generator()):
                payload = harness._replay(args, float(cfg.cond_max))
                head = []
                if isinstance(args.get("a"), linalg.SpdMatrix):
                    head = ["a", "b", "cond", "n"]
                    assert (payload["cond"], payload["n"]) == (cfg.cond_max, args["a"].n), name
                assert list(payload) == head + [key for key in args if key not in head], name
                for key, value in args.items():
                    if key == "f":
                        assert catalog[payload["f"]] is value, name
                    elif key == "kind":
                        assert payload["kind"] == str(value), name
                    else:
                        assert payload[key] is value, (name, key)

    def test_forced_parameter_must_be_swept(self):
        # A pin replaces a drawn sweep parameter; any other key, or a value
        # that a sweep of the case would reject, is a domain error.
        for name, forced in (
            ("kantorovich_operator", {"depth": 3}),
            ("heinz_symmetry", {"nu": 0.5}),
            ("operator_reverse_pos", {"nu": -2.0}),
            ("operator_reverse_pos", {"cond": 0.5}),
        ):
            with pytest.raises(DomainError):
                harness.build_instance(name, 0, forced=forced)

    def test_instance_rng_stability(self):
        a = harness.instance_rng(7, "case", 0).integers(1 << 30)
        b = harness.instance_rng(7, "case", 0).integers(1 << 30)
        assert a == b
        c = harness.instance_rng(7, "case", 1).integers(1 << 30)
        assert a != c


class TestDraws:
    """The harness's draws read the numbers numpy's own calls would read."""

    @staticmethod
    def _harness_ranges(monkeypatch):
        """Every (lo, hi) that the draws of every registered case pass to
        ``_uniform``, at each case's own config, over a few instances."""
        ranges, uniform = set(), harness._uniform

        def spy(rng, lo, hi):
            ranges.add((lo, hi))
            return uniform(rng, lo, hi)

        monkeypatch.setattr(harness, "_uniform", spy)
        for name, case in harness.REGISTRY.items():
            cfg = harness._request(name, {})[1]
            for index in range(8):
                case.draw(harness.instance_rng(cfg.seed, name, index), cfg, cfg.cond_max)
        monkeypatch.undo()
        return ranges

    def test_uniform_matches_numpy_on_every_harness_range(self, monkeypatch):
        # Bit for bit, and to the same stream position, also between
        # integers(2) calls, which read PCG64's buffered 32-bit half.
        ranges = self._harness_ranges(monkeypatch)
        assert len(ranges) >= 14, sorted(ranges)
        ranges |= {(0.0, 0.0), (8.0, 9.0), (3.0, 3.0)}
        pattern = np.random.default_rng(3).integers(3, size=3000).tolist()
        for lo, hi in sorted(ranges):
            ours, numpys = np.random.default_rng(11), np.random.default_rng(11)
            for step in pattern:
                if step == 0:
                    assert ours.integers(2) == numpys.integers(2)
                else:
                    got, want = harness._uniform(ours, lo, hi), numpys.uniform(lo, hi)
                    assert float(got).hex() == float(want).hex(), (lo, hi)
            assert ours.bit_generator.state == numpys.bit_generator.state, (lo, hi)


class TestStreamSeeding:
    """Block seeding must reproduce numpy's own seeding of every stream."""

    def test_block_states_match_default_rng(self):
        rng = np.random.default_rng(5)
        entropies = rng.integers(0, 2**64, size=10_000, dtype=np.uint64).tolist()
        # Edges, and 0xDEADBEEF: a high word of zero, one word to numpy.
        entropies += [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 0xDEADBEEF]
        block = harness._seed_words(np.array(entropies, dtype="<u8").tobytes())
        assert block.shape == (len(entropies), 4)
        gen = harness._new_generator()
        for entropy, words in zip(entropies, block.tolist()):
            want = np.random.default_rng(entropy).bit_generator.state
            assert harness._seat(gen, *words).bit_generator.state == want, entropy

    def test_stream_states_keep_the_digest_streams(self):
        # Instance i's stream is default_rng of the blake2b digest of
        # "seed:case:i", as it was before streams were seeded in blocks, in
        # every block of a call: two slices of 200 cut into blocks of at
        # most _BLOCK, one of them straddling a block boundary.
        case = harness.REGISTRY["convex_refined_a"]
        slices = [
            (case, CaseConfig(), 100.0, range(3, 203)),
            (dataclasses.replace(case, name="case"), CaseConfig(seed=7), 100.0, range(3, 203)),
        ]
        blocks = list(harness._blocks(slices))
        assert [sum(len(run) for _, run in block) for block in blocks] == [256, 144]
        keys = [(k, i) for block in blocks for k, run in block for i in run]
        assert keys == [(k, i) for k in (0, 1) for i in range(3, 203)]
        rows = [row for block in blocks for row in harness._seated(slices, block)]
        gen = harness._new_generator()
        for (k, i), row in zip(keys, rows, strict=True):
            seed, name = slices[k][1].seed, slices[k][0].name
            digest = hashlib.blake2b(f"{seed}:{name}:{i}".encode(), digest_size=8).digest()
            want = np.random.default_rng(int.from_bytes(digest, "little"))
            assert harness._seat(gen, *row).bit_generator.state == want.bit_generator.state, (k, i)

    def test_instance_stream_pinned(self):
        # Recorded with numpy's own seeding; fails if numpy changes it.
        rng = harness.instance_rng(harness.DEFAULT_SEED, "convex_refined_a", 0)
        assert rng.random().hex() == "0x1.c9b1b0aa0827ap-2"

    def test_block_path_matches_per_instance_streams(self):
        # One block of 30 streams, whose pairs mix n: its report equals the
        # one of instances 0..29 built alone, and no index is skipped.
        name, n = "kantorovich_operator", 30
        dims = {harness.build_instance(name, i).payload["n"] for i in range(n)}
        assert len(dims) > 1
        report = harness.run_case(name, instances=n)
        assert (report.instances, report.skipped) == (n, 0)
        assert _same_report(report, _fresh_report(name, n, report.notes))

    def test_block_assembly_matches_fresh_builds(self):
        # Every matrix case with n in 1..8, so that a block stacks several
        # n, at its own cond and at 1e12: the report of the blocks equals
        # the one of instances drawn and assembled alone.
        names = [
            name for name in harness.case_names() if "n" in harness.build_instance(name, 0).drawn
        ]
        assert len(names) == 23
        for cond in ({}, {"cond_max": 1e12}):
            for name in names:
                overrides = {"dim_min": 1, "dim_max": 8, **cond}
                report = harness.run_case(name, instances=10, **overrides)
                want = _fresh_report(name, 10, report.notes, **overrides)
                assert _same_report(report, want), (name, cond)

    def test_sweep_seeds_once_on_one_generator(self, monkeypatch):
        # A depth sweep draws each instance once, from one seeding block on
        # one generator, and builds all its grid values in one call.
        seedings, generators = [], []
        seed_words, new_generator = harness._seed_words, harness._new_generator
        monkeypatch.setattr(
            harness, "_seed_words", lambda e: seedings.append(e) or seed_words(e)
        )
        monkeypatch.setattr(
            harness, "_new_generator", lambda: generators.append(1) or new_generator()
        )

        def streams(name, count):
            return b"".join(harness._entropy(harness.DEFAULT_SEED, name, range(count)))

        for name in ("operator_reverse_pos", "young_reverse_pos"):
            seedings.clear()
            generators.clear()
            harness.sweep(name, "depth", [1, 2, 3], instances=6)
            assert seedings == [streams(name, 6)], name
            assert len(generators) == 1, name
        # A cond sweep runs one slice per value, a revisited one too, so its
        # one block seeds each stream at every value and draws it there.
        seedings.clear()
        name, case, conds = "operator_reverse_pos", harness.REGISTRY["operator_reverse_pos"], []

        def draw_cond(rng, cfg, cond):
            conds.append(cond)
            return case.draw(rng, cfg, cond)

        with monkeypatch.context() as patch:
            patch.setitem(harness.REGISTRY, name, dataclasses.replace(case, draw=draw_cond))
            harness.sweep(name, "cond", [50.0, 2.0, 50.0], instances=4)
        assert seedings == [streams(name, 4) * 3]
        assert sorted(conds) == [2.0] * 4 + [50.0] * 8
        # run_case and a sweep draw a whole block, then build its draws in
        # draw order: run_case at a grid of one, a sweep at its whole grid.
        case, events = harness.REGISTRY["young_reverse_pos"], []

        def draw(rng, cfg, cond):
            events.append("draw")
            return case.draw(rng, cfg, cond)

        def build(args, grid):
            events.append(("build", len(grid)))
            return case.build(args, grid)

        monkeypatch.setitem(
            harness.REGISTRY, case.name, dataclasses.replace(case, draw=draw, build=build)
        )
        harness.run_case(case.name, instances=3)
        assert events == ["draw"] * 3 + [("build", 1)] * 3
        events.clear()
        harness.sweep(case.name, "depth", [1, 2], instances=3)
        assert events == ["draw"] * 3 + [("build", 2)] * 3


class TestSweep:
    def test_row_means_bit_identical_to_numpy(self):
        # Lengths 1..300 cover pairwise summation's unrolled blocks; values
        # of mixed sign over many decades make the summation order matter.
        rng = np.random.default_rng(20261019)
        for k in range(1, 301):
            xs = (rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-8, 8, size=k)).tolist()
            assert harness._mean(xs).hex() == float(np.mean(xs)).hex(), k

    def test_depth_sweep_gain_nondecreasing(self):
        rows = harness.sweep(
            "young_reverse_pos", "depth", range(1, 9), instances=25
        )
        gains = [r.mean_gain for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(gains, gains[1:]))

    def test_nu_sweep_zero_row(self):
        rows = harness.sweep("young_reverse_pos", "nu", [0.0, 1.0, 2.0], instances=10)
        assert rows[0].mean_gain == pytest.approx(0.0, abs=1e-12)
        assert rows[0].mean_gap == pytest.approx(0.0, abs=1e-9)
        assert rows[2].mean_gain >= rows[1].mean_gain >= 0.0

    def test_cond_sweep_smoke(self):
        rows = harness.sweep(
            "operator_reverse_pos", "cond", [2.0, 10.0, 100.0], instances=5
        )
        assert len(rows) == 3
        assert all(np.isfinite(r.mean_gap) and np.isfinite(r.mean_gain) for r in rows)

    def test_unsupported_parameter_rejected(self, monkeypatch):
        with pytest.raises(DomainError):
            harness.sweep("kantorovich_scalar", "depth", [1, 2])
        # Out-of-range values are rejected before any instance is built.
        monkeypatch.setattr(harness, "_instances", None)
        for param, grid in (
            ("depth", [1, 40]), ("depth", [0]), ("depth", [1.5]),
            ("cond", [2.0, 0.5]), ("cond", [float("nan")]), ("cond", [float("inf")]),
        ):
            with pytest.raises(DomainError):
                harness.sweep("operator_reverse_pos", param, grid)

    def test_nu_off_branch_rejected(self, monkeypatch):
        # A nu on the other side of a case's weight branch, or in the gap
        # (-1, 0), is rejected before any instance is built.
        monkeypatch.setattr(harness, "_instances", None)
        for name, grid, message in (
            ("operator_squared_neg", [0.0, 1.5, 3.0], "nu <= -1, got nu = 0.0"),
            ("operator_squared_pos", [-2.0], "nu >= 0, got nu = -2.0"),
            ("norm_reverse_neg", [-2.0, -0.5], "nu <= -1, got nu = -0.5"),
            ("kantorovich_operator", [-1.0], "nu >= 0, got nu = -1.0"),
            ("young_squared", [-0.5], "nu >= 0 or nu <= -1, got nu = -0.5"),
            ("young_reverse_pos", [float("nan")], "nu >= 0, got nu = nan"),
        ):
            with pytest.raises(DomainError, match=f"^sweep_values requires {message}$"):
                harness.sweep(name, "nu", grid)
        assert harness.sweep_values("nu", [0.0, -1.0, 2.5]) == [0.0, -1.0, 2.5]
        assert harness.sweep_values("nu", [-1.0, -4.5], -1) == [-1.0, -4.5]


class TestReportAggregation:
    def test_failure_threshold(self):
        rows = [np.array([0.1, -1e-3]), np.array([0.2, 0.3]), np.array([-1e-12, 0.0])]
        report = _report("x", rows, [1.0, 2.0, 0.5], rel_tol=1e-9)
        assert report.instances == 3
        assert report.failures == 1  # only the -1e-3 row breaches -1e-9
        assert report.min_slack == pytest.approx(-1e-3)
        assert report.max_gap == 2.0

    def test_nan_slack_counts_as_failure(self):
        # NaN compares false against -rel_tol; it must still fail the row,
        # and show in min_slack.
        for nan_row in (np.array([np.nan, 0.1]), [0.1, float("nan")]):
            report = _report("x", [nan_row, [0.2, 0.3]], [0.0, 1.0], 1e-9)
            assert report.failures == 1
            assert math.isnan(report.min_slack)

    def test_block_quantiles_match_per_column(self):
        # Rows of one width take their quantiles in one call over the block;
        # they must equal the per-column quantiles bit for bit, NaN included.
        def per_column(rows):
            cols = np.asarray(rows, dtype=np.float64).T
            quantiles = tuple(
                tuple(float(q) for q in np.quantile(c, [0.1, 0.5, 0.9])) for c in cols
            )
            return float(np.min([c.min() for c in cols])), quantiles

        rng = np.random.default_rng(41)
        shapes = zip(rng.integers(1, 30, size=300), rng.integers(1, 7, size=300))
        blocks = [rng.standard_normal(shape) for shape in shapes]
        nan_block = rng.uniform(0.0, 1.0, (12, 4))
        nan_block[5, 2] = np.nan
        blocks.append(nan_block)
        for block in blocks:
            rows = block.tolist()
            report = _margins_report("b", rows, rel_tol=1e-9)
            min_slack, quantiles = per_column(rows)
            assert _bits(report.min_slack) == _bits(min_slack)
            assert _bits(report.link_quantiles) == _bits(quantiles)
        assert math.isnan(report.min_slack) and report.failures == 1
        assert all(math.isnan(q) for q in report.link_quantiles[2])
        assert not any(math.isnan(q) for q in report.link_quantiles[1])

    def test_failures_counted_over_the_block(self):
        # One vectorized count over the block; it must agree with the row
        # predicate "a slack below -rel_tol or NaN" taken row by row in
        # Python floats, NaN, -inf and slacks exactly at -rel_tol included.
        rng = np.random.default_rng(8)
        for rel_tol in (0.0, 1e-9, 0.25):
            values = [0.3, 0.0, -rel_tol, -2 * rel_tol - 1e-12, np.nan, -np.inf, 5e-10]
            block = rng.choice(values, size=(400, 3))
            rows = block.tolist()
            report = _margins_report("f", rows, rel_tol=rel_tol)
            want = sum(not all(s >= -rel_tol for s in row) for row in rows)
            assert 0 < report.failures == want < len(rows), rel_tol
            # The mask that picks the instances for failure files.
            _, fails = reporting.case_report("f", reporting._margin_verdicts, rows, rel_tol)
            assert fails.tolist() == [not all(s >= -rel_tol for s in row) for row in rows]

    def test_equality_and_repr_leave_out_the_block(self):
        report = _report("r", [[0.1, 0.2], [0.3, -0.4]], [0.0, 1.0], rel_tol=1e-9)
        other = dataclasses.replace(report, slacks=np.full((2, 2), 9.0))
        assert other == report and hash(other) == hash(report)
        assert repr(other) == repr(report)
        assert "slacks" not in repr(report) and "9.0" not in repr(other)

    def test_link_quantiles_taken_when_first_read(self, monkeypatch):
        calls, quantile = [], np.quantile
        monkeypatch.setattr(np, "quantile", lambda *a, **k: calls.append(1) or quantile(*a, **k))
        report = harness.run_case("young_reverse_pos", instances=20)
        assert calls == []
        first = report.link_quantiles
        assert report.link_quantiles is first and len(calls) == 1
        want = quantile(report.slacks, [0.1, 0.5, 0.9], axis=0).T
        assert _bits(first) == _bits(want)
        assert len(first) == 2 and report.slacks.shape == (20, 2)
        assert not report.slacks.flags.writeable

    def test_rows_of_unequal_width_raise(self):
        # One slack per link position: a row of another width has no place.
        for rows in ([[0.5, 0.1, 0.3], [0.2], [0.4, -0.2]], [[0.1], [0.2, 0.3]]):
            with pytest.raises(DomainError, match="unequal width"):
                _margins_report("r", rows, rel_tol=1e-9)

    def test_quantiles_shape(self):
        rows = [np.array([float(i), float(i)]) for i in range(10)]
        report = _margins_report("q", rows, rel_tol=1e-9)
        assert len(report.link_quantiles) == 2
        q10, q50, q90 = report.link_quantiles[0]
        assert q10 <= q50 <= q90

    def test_config_is_frozen_dataclass(self):
        cfg = CaseConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.instances = 5
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="rel_tol must be finite and >= 0"):
                CaseConfig(rel_tol=bad)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


OPERATOR_CASES = (
    "operator_reverse_pos",
    "operator_reverse_neg",
    "operator_squared_pos",
    "operator_squared_neg",
    "harmonic_operator",
    "kantorovich_operator",
)


class TestVerdictPath:
    def test_scalar_slacks_bit_identical_to_numpy(self):
        # Magnitudes from 1e-300 to 1e300, both signs, mixed within a chain.
        # Each chain alone, and the chains of each length as one block of
        # reporting._scalar_verdicts, the pass run_case decides them in.
        rng = np.random.default_rng(20261018)
        by_length = {}
        for _ in range(2000):
            k = int(rng.integers(2, 8))
            v = rng.choice([-1.0, 1.0], size=k) * 10.0 ** rng.uniform(-300, 300, size=k)
            chain = ScalarChain(tuple("abcdefgh"[:k]), tuple(v.tolist()))
            expected = np.diff(v) / max(1.0, float(np.max(np.abs(v))))
            row, gap = Built(chain=chain).verdict()
            assert _bits(row) == _bits(expected)
            assert _bits(chain_slacks(chain)) == _bits(expected)
            assert gap == chain_gap(chain) == float(v[-1] - v[0])
            by_length.setdefault(k, []).append((chain.values, expected, gap))
        for k, chains in by_length.items():
            values, expected, gaps = zip(*chains)
            slacks, block_gaps = reporting._scalar_verdicts(np.array(values))
            assert _bits(slacks) == _bits(np.array(expected)), k
            assert _bits(block_gaps) == _bits(gaps), k

    def test_overflowing_scalar_difference_is_an_infinite_slack(self):
        # Finite values whose difference overflows: the slack is inf (or
        # -inf, a failure), as in Python floats, and numpy warns nothing.
        chain = ScalarChain(("lo", "hi"), (-1e308, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, gap = Built(chain=chain).verdict()
            down = chain_slacks(ScalarChain(("hi", "lo"), (1e308, -1e308)))
        assert row == [math.inf] and gap == math.inf
        assert down.tolist() == [-math.inf]

    def test_every_case_report_matches_its_per_instance_verdicts(self):
        # run_case decides a case's value rows in one block pass; its report
        # equals the one of the same instances, each built alone and decided
        # by Built.verdict, bit for bit, for every registered case.
        names = harness.case_names()
        assert len(names) == 36
        for name in names:
            report = harness.run_case(name, instances=8)
            assert _same_report(report, _fresh_report(name, 8, report.notes)), name

    def test_failing_rows_and_files_match_per_instance_verdicts(self, tmp_path):
        # At depth 32 the catalog cases fail on some true instances (the
        # round-off of the telescoped drop): their rows, and the failure
        # files that run_case writes from payloads drawn again, are those of
        # the instances built alone.
        overrides = {"depth_min": 32, "depth_max": 32}
        names = ("convex_refined_a", "convex_refined_b", "logconvex_refined_a",
                 "logconvex_refined_b")
        for name in names:
            report = harness.run_case(name, failures_dir=tmp_path, instances=200, **overrides)
            assert _same_report(report, _fresh_report(name, 200, report.notes, **overrides))
            files = sorted(tmp_path.glob(f"{name}-*.json"))
            assert 0 < len(files) == report.failures <= harness.MAX_FAILURE_FILES_PER_CASE
            for path in files:
                data = json.loads(path.read_text())
                built = harness.build_instance(name, data["instance"], **overrides)
                row, _ = built.verdict()
                assert _bits(data["slacks"]) == _bits(row), path.name
                assert data["params"] == json.loads(json.dumps(built.payload)), path.name

    @staticmethod
    def _per_link(chain):
        """Each link's witness from its assembled difference, normalized by
        the spectral norms of its two assembled matrices."""
        slacks = []
        for x, y in zip(chain.matrices, chain.matrices[1:]):
            witness = float(HermitianMatrix(y.a - x.a).eig.eigenvalues[0])
            slacks.append(witness / max(1.0, x.spectral_norm, y.spectral_norm))
        return slacks

    @staticmethod
    def _stacked(chain):
        """The assembled verdict: one stacked ``eigh`` of every chain matrix
        X_i, each link's difference and X_k - X_0. Returns the links'
        normalized witnesses, the gap lambda_max(X_k - X_0) and the norm
        max(1, ||X_0||, ||X_k||)."""
        k = len(chain.matrices)
        xs = np.stack([m.a for m in chain.matrices])
        diffs = np.concatenate([xs[1:] - xs[:-1], xs[-1:] - xs[:1]])
        w = np.linalg.eigh(np.concatenate([xs, diffs]))[0].tolist()
        norm2 = [max(abs(wi[0]), abs(wi[-1])) for wi in w[:k]]
        slacks = [d[0] / max(1.0, x, y) for d, x, y in zip(w[k:-1], norm2, norm2[1:])]
        return slacks, w[-1][-1], max(1.0, norm2[0], norm2[-1])

    @staticmethod
    def _closed_form(name, drawn):
        """One matrix of each operator case's chain, from A and B alone:
        its position, the matrix and a tolerance relative to
        (1 + |nu|)^2 max(||A||, ||B||). The harmonic mean goes through
        inverses, so its tolerance grows with the condition number."""
        a, b, nu = drawn["a"], drawn["b"], drawn["nu"]
        position, tol = 0, 1e-13
        if name == "kantorovich_operator":
            position, want, tol = -1, harmonic_mean(a, b, -nu).a, 1e-13 * drawn["cond"]
        elif name == "operator_squared_pos":
            want = (1.0 + nu) * arithmetic_mean(a, b, -nu).a
        elif name == "operator_squared_neg":
            want = 2.0 * (1.0 + nu) * b.a
        else:
            want = arithmetic_mean(a, b, -nu).a
        scale = (1.0 + abs(nu)) ** 2 * max(a.spectral_norm, b.spectral_norm)
        return position, want, tol * scale

    def test_stacked_operator_verdict_matches_per_link(self):
        # The independent check of the assembly: every instance, at cond 1e8
        # too, 2 x 6 x 50 chains. The stacked and the per-link assembled
        # witnesses agree bit for bit; the spectral verdict on the rows
        # passes or fails each link exactly as the assembled one does at the
        # case's rel_tol; the spectral gap is the assembled one to round-off;
        # and one matrix of each chain is its closed form in A and B, which
        # a wrong transfer M would miss.
        checked = 0
        for cond in (100.0, 1e8):
            for name in OPERATOR_CASES:
                rel_tol = harness._request(name, {})[1].rel_tol
                for index in range(50):
                    built = harness.build_instance(name, index, cond_max=cond)
                    chain, where = built.chain, (name, cond, index)
                    row, gap = built.verdict()
                    # Stacked first, while no chain matrix has its spectrum cached.
                    stacked, assembled_gap, norm = self._stacked(chain)
                    assert _bits(stacked) == _bits(self._per_link(chain)), where
                    assert [s >= -rel_tol for s in row] == [s >= -rel_tol for s in stacked], where
                    assert abs(gap - assembled_gap) <= 1e-14 * norm, where
                    assert _bits([gap]) == _bits([chain_gap(chain)]), where
                    assert _bits(chain_slacks(chain)) == _bits(row), where
                    position, want, tol = self._closed_form(name, {**built.drawn, "cond": cond})
                    assert np.abs(chain.matrices[position].a - want).max() <= tol, where
                    checked += 1
        assert checked == 600

    def test_large_finite_difference_verifies(self):
        # hi - lo = 1.2e308 on every eigenvalue is finite: the slack is
        # 1.2e308 / 6e307 = 2, and the assembled matrices, whose
        # symmetrization halves before the sum, give the same witness.
        chain = OperatorChain(("lo", "hi"), np.eye(2), [[-6e307, -6e307], [6e307, 6e307]])
        per_link = self._per_link(chain)
        assert per_link == [2.0]
        row, gap = Built(chain=chain).verdict()
        assert _bits(row) == _bits(per_link)
        assert _bits(chain_slacks(chain)) == _bits(per_link)
        assert _bits([gap]) == _bits([chain_gap(chain)]) == _bits([1.2e308])

    def test_overflowing_difference_raises(self):
        # Each row is finite, but hi - lo overflows to inf: the spectral
        # verdict, chain_gap and HermitianMatrix(hi - lo) of the assembled
        # matrices reject it.
        chain = OperatorChain(("lo", "hi"), np.eye(2), [[-1e308, -1e308], [1e308, 1e308]])
        lo, hi = chain.matrices
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="finite"):
                HermitianMatrix(hi.a - lo.a)
            with pytest.raises(DomainError, match="finite"):
                chain_slacks(chain)
            with pytest.raises(DomainError, match="finite"):
                chain_gap(chain)
            with pytest.raises(DomainError, match="finite"):
                Built(chain=chain).verdict()

    def test_per_eigenvalue_slack(self):
        # Each link's slack is its smallest (hi - lo) / max(|lo|, |hi|) over
        # the eigenvalues, whatever their magnitude; a pair of exact zeros
        # has slack 0.
        m = np.diag([1e-6, 1.0, 1e6]).astype(complex)
        chain = OperatorChain(
            ("x", "y", "z"), m, [[0.0, 1.0, -4.0], [0.0, 3.0, -2.0], [-1e-300, 3.0, 2.0]]
        )
        assert chain_slacks(chain).tolist() == [0.0, -1.0]
        assert chain_gap(chain) == 6e12

def _hex_rows(rows) -> list[tuple[str, str, str]]:
    return [(r.value.hex(), r.mean_gap.hex(), r.mean_gain.hex()) for r in rows]


class TestSweepReuse:
    """A sweep draws each instance's inputs once per cond, with unchanged results."""

    # Grids that rise, that revisit a value and that reverse: a rebuild that
    # reused a value its pin moved would show at the repeated or lower one.
    SWEEPS = (
        ("depth", [1, 3, 6]),
        ("depth", [6, 1, 6, 3]),
        ("nu", [0.0, 1.5, 3.0]),
        ("nu", [3.0, 0.0, 3.0]),
        ("cond", [2.0, 50.0]),
    )
    NEG_NU = {(0.0, 1.5, 3.0): [-1.0, -2.5, -4.0], (3.0, 0.0, 3.0): [-4.0, -1.0, -4.0]}

    def test_rows_equal_fresh_builds(self):
        # Every sweepable case, scalar, operator, trace, norm and Heinz, on
        # every grid of its parameters: the rows equal the means of the same
        # instances built alone, each with nothing kept, bit for bit.
        k = 3
        names = [name for name in harness.case_names() if harness.REGISTRY[name].sweep_params]
        assert len(names) == 24
        for name in names:
            case = harness.REGISTRY[name]
            for param, grid in self.SWEEPS:
                if param not in case.sweep_params:
                    continue
                if param == "nu" and case.nu_branch < 0:
                    grid = self.NEG_NU[tuple(grid)]
                rows = harness.sweep(name, param, grid, instances=k)
                expected = []
                for value in grid:
                    built = [
                        harness.build_instance(name, i, forced={param: value}) for i in range(k)
                    ]
                    expected.append(harness.SweepRow(
                        float(value),
                        float(np.mean([b.gap() for b in built])),
                        float(np.mean([harness._gain(b) for b in built])),
                    ))
                assert _hex_rows(rows) == _hex_rows(expected), (name, param)

    def test_drawn_matrices_keep_only_their_own_fields(self, monkeypatch):
        # After run_case and every sweep of every matrix case, a drawn A or
        # B holds its entries and what derives from them alone: nothing of a
        # build outlives it.
        drawn = []
        assemble = harness._assemble_pairs

        def recording(pairs):
            pairs = list(pairs)
            assemble(pairs)
            drawn.extend(args[key] for args in pairs for key in "ab")

        grids = {"nu": [3.0, 0.0, 3.0], "depth": [6, 1, 6, 3], "cond": [50.0, 2.0]}
        names = [
            name for name in harness.case_names() if "n" in harness.build_instance(name, 0).drawn
        ]
        assert len(names) == 23
        monkeypatch.setattr(harness, "_assemble_pairs", recording)
        for name in names:
            case = harness.REGISTRY[name]
            drawn.clear()
            harness.run_case(name, instances=3)
            for param in case.sweep_params:
                grid = grids[param]
                if param == "nu" and case.nu_branch < 0:
                    grid = [-1.0 - v for v in grid]
                harness.sweep(name, param, grid, instances=3)
            assert drawn, name
            for m in drawn:
                assert set(vars(m)) <= {"_a", "eig", "spectral_norm"}, (name, set(vars(m)))

    def test_one_assembly_per_dimension_per_block(self, monkeypatch, tmp_path):
        # A block assembles its SPD pairs in one stack per distinct n, in
        # the order the dimensions first appear, across its cases. A sweep
        # assembles once per block, and not again at later grid values.
        k = 12
        stacks = {}
        for name in ("operator_reverse_pos", "harmonic_operator", "norm_heinz_power"):
            dims = [harness.build_instance(name, i).payload["n"] for i in range(k)]
            assert len(set(dims)) > 1, name
            stacks[name] = [(2 * dims.count(n), n) for n in dict.fromkeys(dims)]
        calls = []

        def counting(g, lam):
            calls.append(lam.shape)
            return linalg._assemble_spds(g, lam)

        monkeypatch.setattr(harness, "_assemble_spds", counting)
        for name, want in stacks.items():
            calls.clear()
            harness.run_case(name, instances=k)
            assert calls == want, name
        calls.clear()
        harness.sweep("operator_reverse_pos", "depth", [1, 2, 4, 8], instances=k)
        assert calls == stacks["operator_reverse_pos"]
        calls.clear()
        harness.sweep("norm_heinz_power", "nu", [0.0, 1.0, 2.0], instances=k)
        assert calls == stacks["norm_heinz_power"]
        # A cond sweep's block draws each instance at every value, and
        # assembles the pairs of all values in one stack per n.
        calls.clear()
        harness.sweep("operator_reverse_pos", "cond", [2.0, 10.0, 50.0], instances=k)
        assert calls == [(3 * count, n) for count, n in stacks["operator_reverse_pos"]]
        # Every index is drawn and assembled once, Kantorovich's included.
        calls.clear()
        harness.run_case("kantorovich_operator", instances=30)
        assert sum(count for count, _ in calls) == 2 * 30
        # One run_suite call over MIXED_SUITE: one generator for the call,
        # one seeding per block of MIXED_BLOCK instances across its cases,
        # and one assembly per distinct n per block, across cases. Writing
        # the failure files adds one seeding per failing case.
        _mixed_suite(monkeypatch)
        layout = [(name, i) for name in MIXED_SUITE for i in range(MIXED_INSTANCES)]
        blocks = [layout[s : s + MIXED_BLOCK] for s in range(0, len(layout), MIXED_BLOCK)]
        dims = {
            (name, i): harness.build_instance(name, i, **MIXED_OVERRIDES).drawn.get("n")
            for name, i in layout
        }
        want = []
        for block in blocks:
            ns = [dims[key] for key in block if dims[key] is not None]
            want.append([(2 * ns.count(n), n) for n in dict.fromkeys(ns)])
        assert [len(b) for b in blocks] == [16, 16, 16, 16, 11]
        assert want[0] and any(len(b) > 1 for b in want)  # a block mixes cases, and n
        seedings, generators = [], []
        seed_words, new_generator = harness._seed_words, harness._new_generator
        monkeypatch.setattr(
            harness, "_seed_words", lambda e: seedings.append(len(e) // 8) or seed_words(e)
        )
        monkeypatch.setattr(
            harness, "_new_generator", lambda: generators.append(1) or new_generator()
        )
        calls.clear()
        harness.run_suite(MIXED_SUITE, instances=MIXED_INSTANCES, **MIXED_OVERRIDES)
        assert seedings == [len(b) for b in blocks]
        assert len(generators) == 1
        assert calls == [call for block in want for call in block]
        seedings.clear()
        generators.clear()
        reports = harness.run_suite(
            MIXED_SUITE, tmp_path, instances=MIXED_INSTANCES, **MIXED_OVERRIDES
        )
        failing = [r.failures for r in reports if r.failures]
        assert sorted(seedings) == sorted([len(b) for b in blocks] + failing)
        assert len(generators) == 1

    def test_payload_not_changed_by_next_build(self):
        # Each build's payload is its own copy: the drawn payload with that
        # build's pins, unchanged by the builds after it.
        name = "norm_heinz_power"
        first = [harness.build_instance(name, i, {"depth": 1}) for i in range(2)]
        saved = json.dumps([b.payload for b in first])
        second = [harness.build_instance(name, i, {"depth": 5}) for i in range(2)]
        assert json.dumps([b.payload for b in first]) == saved
        for b1, b2 in zip(first, second):
            assert (b1.payload["depth"], b2.payload["depth"]) == (1, 5)
            assert {**b2.payload, "depth": 1} == b1.payload
            # The X a build shares with its payload cannot be written through.
            assert not b1.drawn["x"].flags.writeable
