import csv
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from confcurves import cli, families, mercator, tractors
from confcurves.cli import _quantity_table, main
from confcurves.curves import coefficients
from conftest import random_circle, random_spiral, random_transformed_spiral
from oracles import column_spread, scalar_jet_identity_draws, scalar_phase_points


SPIRAL_ARGS = [
    "--family", "spiral", "--n", "3", "--c", "2",
    "--p0", "1,0,0", "--q0", "0,1,0", "--r0", "0.3,-0.2,0.5",
]
# b = x(0.5) / |x(0.5)|^2 of the SPIRAL_ARGS spiral with pitch 1.5, and
# x(2) / |x(2)|^2 of the SPIRAL_ARGS one: the transform sends that curve
# point to infinity
POLE_AT_HALF = "--b=0.44664919965447963,0.273926174607408,0.1482553532231831"
POLE_AT_TWO = "--b=-0.08339566141607338,-0.10663414462256243,0.009205206484415317"
CIRCLE_ARGS = [
    "--family", "circle", "--n", "3",
    "--x0", "0.2,-0.1,0.4", "--u0", "1,0,0", "--a0", "0,0.8,0.3",
]


def assert_config_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


class TestVerify:
    def test_spiral_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["verify", *SPIRAL_ARGS, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert all({"name", "measured", "tolerance", "pass"} <= set(r) for r in report["checks"])
        by_name = {r["name"]: r for r in report["checks"]}
        assert by_name["delta4_matches_pitch"]["measured"] <= 1e-8
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text

    def test_circle_suite_passes(self, tmp_path):
        code = main(
            [
                "verify", "--family", "circle", "--n", "3",
                "--x0", "0.2,-0.1,0.4", "--u0", "1,0,0", "--a0", "0,0.8,0.3",
                "--out", str(tmp_path / "circle.json"),
            ]
        )
        assert code == 0

    def test_tspiral_suite_passes(self, tmp_path):
        code = main(
            [
                "verify", "--family", "tspiral", "--n", "3", "--c", "1.5",
                "--p0", "1,0,0", "--q0", "0,1,0", "--r0", "0.2,0.1,-0.3",
                "--b", "0.1,-0.1,0.15",
                "--out", str(tmp_path / "ts.json"),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("c", ["-2", "-0.5"])
    def test_negative_pitch_spiral_passes(self, c, tmp_path):
        # kappa_1 = -(c^2 - 1) / (2 |c|) is even in c, as delta_4 and alpha_1 are
        out = tmp_path / "report.json"
        assert main(["verify", *SPIRAL_ARGS[:4], "--c", c, *SPIRAL_ARGS[6:], "--out", str(out)]) == 0
        by_name = {r["name"]: r for r in json.loads(out.read_text())["checks"]}
        assert by_name["kappa1_matches"]["measured"] <= 1e-8

    def test_tspiral_pole_outside_the_window_is_not_scanned(self, tmp_path):
        # b sends the point at t = 0.5 of the pitch-1.5 spiral to infinity;
        # each command scans the times it evaluates: verify and quantities
        # the window [2, 3], integrate its start t0 = 2
        family = ["--family", "tspiral", *SPIRAL_ARGS[2:4], "--c", "1.5", *SPIRAL_ARGS[6:],
                  POLE_AT_HALF, "--t0", "2"]
        assert main(["verify", *family, "--t1", "3"]) == 0
        assert main(["quantities", *family, "--t1", "3", "--out", str(tmp_path / "q.csv")]) == 0
        assert main(["integrate", *family, "--t-end", "0.1", "--out", str(tmp_path / "t.csv")]) == 0
        assert main(["verify", *family[:-2], "--t0", "0", "--t1", "1"]) == 2

    def test_tspiral_pole_between_samples_is_config_error(self, capsys):
        # b = x(2) / |x(2)|^2 of the pitch-2 spiral: no sample of 20 on
        # [1.5, 2.5] lands on the pole at t = 2, the window scan does
        argv = ["verify", "--family", "tspiral", *SPIRAL_ARGS[2:], POLE_AT_TWO,
                "--t0", "1.5", "--t1", "2.5", "--samples", "20"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "config error: transform denominator vanishes near t = 2.000\n"

    def test_tspiral_pole_between_scan_points_is_config_error(self, capsys):
        # the same pole on [1.51, 2.5]: none of the 33 scan points lands
        # near t = 2, and the denominator's double zero stays above the scan
        # threshold between them; the scan adds the one time the base
        # spiral's radius reaches the pole's
        family = ["--family", "tspiral", *SPIRAL_ARGS[2:], "--t1", "2.5", "--samples", "20"]
        assert main(["verify", *family, POLE_AT_TWO, "--t0", "1.51"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: transform denominator vanishes near t = 2.000\n"
        # b = 0 is the identity transform, with no pole to scan for
        assert main(["verify", *family, "--b", "0,0,0", "--t0", "1.51"]) == 0

    def test_degenerate_pitch_is_config_error(self, capsys):
        # delta_4 = -c^2 lies in the conformal-circle band at c = 0 and 1e-5
        spiral = [*SPIRAL_ARGS[2:4], *SPIRAL_ARGS[6:]]
        for family, message in (
            (["spiral"], "c: the fourth invariant vanishes for this pitch, outside the spiral class"),
            (["tspiral", "--b", "0.1,-0.1,0.15"], "c: the fourth invariant vanishes, outside the spiral class"),
        ):
            for c in ("0", "1e-5"):
                assert main(["verify", "--family", *family, *spiral, "--c", c]) == 2
                assert capsys.readouterr().err == f"config error: {message}\n"

    def test_missing_parameter_is_config_error(self, capsys):
        code = main(["verify", "--family", "spiral", "--n", "3", "--c", "2"])
        assert code == 2

    def test_bad_vector_is_config_error(self, capsys):
        for argv in (
            [
                "verify", "--family", "spiral", "--n", "3", "--c", "2",
                "--p0", "1,x,0", "--q0", "0,1,0", "--r0", "0,0,0",
            ],
            ["verify", *SPIRAL_ARGS, "--samples", "0"],
            ["verify", *SPIRAL_ARGS, "--tol", "typo=1"],
            ["verify", "--family", "spiral", "--n", "3", "--c", "nan",
             "--p0", "1,0,0", "--q0", "0,1,0", "--r0", "0,0,0"],
            ["verify", "--family", "circle", "--n", "3",
             "--x0", "nan,0,0", "--u0", "1,0,0", "--a0", "0,0.8,0.3"],
            # a range check takes no tolerance override
            ["verify", *CIRCLE_ARGS, "--tol", "t3_parallel_decay_order=0"],
            # exp overflows at the window end
            ["verify", *SPIRAL_ARGS, "--samples", "3", "--t1", "800"],
            # the curve point at t = 2 goes to infinity
            ["verify", "--family", "tspiral", *SPIRAL_ARGS[2:], "--t1", "2", "--samples", "3",
             POLE_AT_TWO],
            # the family evaluates at t = 200, a power of its speed overflows
            ["verify", *SPIRAL_ARGS, "--samples", "2", "--t1", "200"],
            ["quantities", *SPIRAL_ARGS, "--samples", "2", "--t1", "200", "--out", "x.csv"],
            # argparse reads a value starting with '-' as a flag
            ["verify", *CIRCLE_ARGS[:-1], "-1,-1"],
            # |p0|^2 overflows in the spiral's own setup, before any sample
            ["verify", "--family", "spiral", "--n", "3", "--c", "2", "--p0", "1e200,0,0",
             "--q0", "0,1e200,0", "--r0", "0.3,-0.2,0.5", "--samples", "3"],
            # the Noether checks need a rotation plane
            ["verify", "--family", "circle", "--x0", "0", "--u0", "1", "--a0", "0"],
            # a spread over one sample time is 0 by construction
            ["verify", *SPIRAL_ARGS, "--samples", "1"],
            ["verify", *CIRCLE_ARGS, "--samples", "1"],
        ):
            assert_config_error(argv, capsys)

    def test_first_failing_time_names_the_failure(self, capsys):
        # the family is evaluated at all times at once; a failure is named
        # by the first time that fails on its own, as a per-time loop would
        for argv, code, where in (
            (["verify", *SPIRAL_ARGS, "--samples", "3", "--t1", "800"], 2, "t = 399.5"),
            (["verify", *CIRCLE_ARGS, "--t0", "10", "--t1", "1e200", "--samples", "3"], 2, "t = 5e+199"),
            # a speed below the floor at t = 2.5e79 comes before the
            # overflow at t = 1e80
            (["verify", *CIRCLE_ARGS, "--t0", "1e3", "--t1", "1e80", "--samples", "5"], 3, "t=2.5e+79"),
        ):
            assert main(argv) == code
            err = capsys.readouterr().err
            assert where in err and err.count("\n") == 1

    def test_straight_line_decay_order_is_vacuous(self, tmp_path, capsys):
        # both parallel defects are exactly 0, so there is no order to measure
        out = tmp_path / "line.json"
        code = main(
            [
                "verify", "--family", "circle", "--n", "3",
                "--x0", "0,0,0", "--u0", "1,0,0", "--a0", "0,0,0", "--out", str(out),
            ]
        )
        assert code == 0
        assert "note  t3_parallel_decay_order: vacuous" in capsys.readouterr().out
        names = {r["name"] for r in json.loads(out.read_text())["checks"]}
        assert "t3_parallel_decay_order" not in names

    @pytest.mark.parametrize("a0", ["0,1e-12,0", "0,1e-10,0", "0,1e-9,0", "0,1e-8,0"])
    def test_nearly_straight_decay_order_is_vacuous(self, a0, tmp_path, capsys):
        # both defects are round-off, so their ratio measures nothing
        out = tmp_path / "line.json"
        code = main(
            [
                "verify", "--family", "circle", "--n", "3",
                "--x0", "0,0,0", "--u0", "1,0,0", "--a0", a0, "--out", str(out),
            ]
        )
        assert code == 0
        assert "note  t3_parallel_decay_order: vacuous" in capsys.readouterr().out
        names = {r["name"] for r in json.loads(out.read_text())["checks"]}
        assert "t3_parallel_decay_order" not in names

    def test_small_curvature_decay_order_is_measured(self, tmp_path):
        out = tmp_path / "circle.json"
        code = main(
            [
                "verify", "--family", "circle", "--n", "3",
                "--x0", "0,0,0", "--u0", "1,0,0", "--a0", "0,1e-3,0", "--out", str(out),
            ]
        )
        assert code == 0
        records = {r["name"]: r for r in json.loads(out.read_text())["checks"]}
        assert records["t3_parallel_decay_order"]["pass"]

    @pytest.mark.parametrize("a0, turn", [("0,40,0", "1.6"), ("0,20,0", "0.8"), ("0,0,100", "4")])
    def test_tight_circle_decay_order_is_vacuous(self, a0, turn, tmp_path, capsys):
        # the larger step turns the circle past PARALLEL_TURN, where the
        # defect has left its h^2 law (at a0 = 0,40,0 the order reads 1.50)
        out = tmp_path / "tight.json"
        argv = ["verify", *CIRCLE_ARGS[:-1], a0, "--out", str(out)]
        assert main(argv) == 0
        assert f"note  t3_parallel_decay_order: vacuous, step turn {turn} > 0.5\n" in capsys.readouterr().out
        names = {r["name"] for r in json.loads(out.read_text())["checks"]}
        assert "t3_parallel_decay_order" not in names

    def test_non_circle_still_fails_the_decay_order(self, tmp_path, monkeypatch):
        # a mutated circle formula, an ellipse through the same initial
        # data, at unit scale: its three-tractor wedge is not parallel away
        # from the vertex at t = 0, where it osculates a circle to third order
        def conic(self, times, order):
            tau = families._constant(times, order)
            tau[:, 1] = 1.0
            tau2 = families._stack_product(tau, tau)
            lam = 1.5 * float(self.a0 @ self.a0)
            den = families._recip(families._times(tau2, lam) + families._constant(1.0, order))
            num = families._times(tau[:, None], self.u0) + families._times(tau2[:, None], self.a0)
            return families._stack_product(num, den[:, None]) + families._constant(self.x0, order)

        monkeypatch.setattr(families.Circle, "_coefficients", conic)
        out = tmp_path / "conic.json"
        assert main(["verify", *CIRCLE_ARGS, "--t0", "0", "--t1", "1", "--out", str(out)]) == 1
        records = {r["name"]: r for r in json.loads(out.read_text())["checks"]}
        assert not records["t3_parallel_decay_order"]["pass"]

    def test_tolerance_override_can_fail(self, capsys):
        code = main(["verify", *SPIRAL_ARGS, "--tol", "delta4_matches_pitch=1e-30"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_reports_are_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["verify", *SPIRAL_ARGS, "--seed", "5", "--out", str(out1)]) == 0
        assert main(["verify", *SPIRAL_ARGS, "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"c": 2.0}))
        code = main(
            [
                "verify", "--family", "spiral", "--n", "3", "--c", "0",
                "--p0", "1,0,0", "--q0", "0,1,0", "--r0", "0.3,-0.2,0.5",
                "--config", str(cfg),
            ]
        )
        assert code == 0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for text in (
            json.dumps({"pitch": 2.0}),
            json.dumps({"n": "3"}),
            json.dumps({"samples": 2.5}),
            json.dumps({"samples": True}),
            json.dumps([1]),
            '{"n": 3,',
        ):
            cfg.write_text(text)
            assert_config_error(["verify", *SPIRAL_ARGS, "--config", str(cfg)], capsys)
        assert_config_error(
            ["verify", *SPIRAL_ARGS, "--config", str(tmp_path / "missing.json")], capsys
        )


class TestIntegrate:
    def test_spiral_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            [
                "integrate", *SPIRAL_ARGS, "--t0", "0",
                "--t-end", "1", "--h", "1e-3", "--out", str(out),
            ]
        )
        assert code == 0
        header, data = read_csv(out)
        assert header[0] == "t" and "H" in header and "kappa1" in header
        assert data.shape[0] == 101
        h_col = data[:, header.index("H")]
        assert np.max(np.abs(h_col - h_col[0])) <= 1e-8 * (1 + abs(h_col[0]))
        # momentum columns exactly constant
        for name in ("E_T_1", "E_T_2", "E_T_3"):
            col = data[:, header.index(name)]
            assert np.max(np.abs(col - col[0])) <= 1e-12

    def test_drift_table_repeats_the_column_loop(self, tmp_path, monkeypatch, capsys):
        # the per-column loop the one array pass replaced, on the written
        # trace (17 digits round-trip); a column holding a NaN is left out
        table, h = cli._quantity_table, cli._quantity_columns(3).index("H")

        def with_nan(ts, coeffs):
            data = table(ts, coeffs)
            data[5, h] = np.nan
            return data

        monkeypatch.setattr(cli, "_quantity_table", with_nan)
        out = tmp_path / "trace.csv"
        argv = ["integrate", *SPIRAL_ARGS, "--t-end", "1", "--h", "1e-3", "--out", str(out)]
        assert main(argv) == 0
        header, data = read_csv(out)
        want = []
        for idx, name in enumerate(header):
            if name == "t" or name == "kappa1" or name.startswith(("x", "delta", "alpha")):
                continue
            col = data[:, idx]
            if np.any(np.isnan(col)):
                continue
            drift = float(np.max(np.abs(col - col[0]))) / (1.0 + abs(float(col[0])))
            want.append(f"  {name}: {drift:.3e}")
        assert len(want) == 25
        assert capsys.readouterr().out.splitlines()[2:] == want

    def test_free_motion_trace_is_affine(self, tmp_path):
        out = tmp_path / "free.csv"
        code = main(
            [
                "integrate", "--x", "0,0", "--u", "0.5,-0.25", "--p", "0,0", "--r", "0,0",
                "--t-end", "0.5", "--h", "1e-2", "--out", str(out),
            ]
        )
        assert code == 0
        header, data = read_csv(out)
        t = data[:, 0]
        assert np.max(np.abs(data[:, header.index("x1")] - 0.5 * t)) <= 1e-13
        assert np.max(np.abs(data[:, header.index("x2")] + 0.25 * t)) <= 1e-13

    def test_degeneracy_exits_3_with_partial_trace(self, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        code = main(
            [
                "integrate", "--x", "0,0", "--u", "1,0", "--p", "0,0", "--r", "5,0",
                "--t-end", "5", "--h", "1e-2", "--out", str(out),
            ]
        )
        assert code == 3
        header, data = read_csv(out)
        assert data.shape[0] >= 1
        assert "partial" in capsys.readouterr().out

    def test_stored_row_at_the_floor_exits_3(self, tmp_path, monkeypatch, capsys):
        # the table checks the floor before its sqrt and recip recurrences,
        # which would otherwise stop the run as a float error (exit 2)
        def stalled(p0, t_end, h, store_every):
            n = p0.size // 4
            states = np.array([p0, p0])
            states[1, n : 2 * n] = 0.0
            return mercator.Trajectory(np.array([0.0, h]), states, n, h)

        monkeypatch.setattr(mercator, "integrate", stalled)
        argv = ["integrate", "--x", "0,0", "--u", "1,0", "--p", "0,0", "--r", "0,0",
                "--t-end", "0.01", "--h", "0.01", "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 3
        assert "below the floor" in capsys.readouterr().err

    def test_table_needs_order_six(self, rng):
        coeffs = rng.uniform(-1.0, 1.0, (2, 3, 6))
        with pytest.raises(ValueError):
            _quantity_table([0.0, 1.0], coeffs)

    def test_json_trace_format(self, tmp_path):
        out = tmp_path / "trace.json"
        code = main(
            [
                "integrate", *SPIRAL_ARGS, "--t0", "0", "--t-end", "0.1",
                "--h", "1e-2", "--format", "json", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "t"
        assert len(payload["rows"]) == 2

    def test_requires_initial_point(self, capsys):
        for argv in (
            ["integrate", "--t-end", "1", "--out", "x.csv"],
            ["integrate", *SPIRAL_ARGS, "--store-every", "0", "--out", "x.csv"],
            ["integrate", *SPIRAL_ARGS, "--h", "-0.1", "--out", "x.csv"],
            ["integrate", *SPIRAL_ARGS, "--h", "0", "--out", "x.csv"],
            ["integrate", *SPIRAL_ARGS, "--t-end", "0", "--out", "x.csv"],
            # 1 / 0.3 is not a whole number of steps
            ["integrate", *SPIRAL_ARGS, "--t-end", "1", "--h", "0.3", "--out", "x.csv"],
            ["integrate", *SPIRAL_ARGS, "--t0", "800", "--out", "x.csv"],
            # the solution jet of a huge initial point overflows
            ["integrate", "--x", "0,0", "--u", "1e200,0", "--p", "0,0", "--r", "0,0",
             "--t-end", "0.01", "--h", "0.01", "--out", "x.csv"],
            ["integrate", "--x", "0,0", "--u", "1,0", "--p", "1e300,0", "--r", "0,0",
             "--t-end", "0.01", "--h", "0.01", "--out", "x.csv"],
            # initial vectors of unequal length
            ["integrate", "--x", "0,0,0", "--u", "1,0", "--p", "0,0", "--r", "0,0",
             "--t-end", "0.01", "--h", "0.01", "--out", "x.csv"],
            # initial vectors whose length is not --n
            ["integrate", "--n", "3", "--x", "0,0", "--u", "1,0", "--p", "0,0", "--r", "0,0",
             "--t-end", "0.01", "--h", "0.01", "--out", "x.csv"],
        ):
            assert_config_error(argv, capsys)
        # a velocity below the floor, refused before the first step
        argv = ["integrate", "--x=0,0", "--u=1e-7,0", "--p=0,0", "--r=0,0",
                "--t-end", "0.01", "--h", "0.01", "--out", "x.csv"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "config error: initial point: squared speed 1.000e-14 below floor\n"

    def test_rows_are_labelled_from_t0(self, tmp_path):
        # the run starts on the spiral at t0 = 0.5, and its rows say so
        out = tmp_path / "t0.csv"
        argv = ["integrate", *SPIRAL_ARGS, "--t0", "0.5", "--t-end", "0.1", "--h", "1e-2",
                "--store-every", "2", "--out", str(out)]
        assert main(argv) == 0
        header, data = read_csv(out)
        assert data[0, 0] == 0.5 and header[1:4] == ["x1", "x2", "x3"]
        spiral = families.LogSpiral(2.0, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, -0.2, 0.5])
        for t, x in zip(data[:, 0], data[:, 1:4]):
            exact = spiral.position(t)
            assert np.max(np.abs(x - exact)) <= 1e-6 * (1.0 + np.max(np.abs(exact)))

    @pytest.mark.parametrize(
        "flags",
        [
            # the first elementwise product of the float loop overflows
            ("--u=1e150,0,0", "--p=0,0,0", "--r=0,1e10,0"),
            ("--u=1e150,0,0", "--p=0,0,0", "--r=0,1e10,0", "--format", "json"),
            ("--u=1e100,0,0", "--p=0,0,0", "--r=1e100,1e50,0"),
            ("--u=1e150,0,0", "--p=1e300,0,0", "--r=0,1,0"),
        ],
    )
    def test_flow_overflow_is_config_error(self, flags, tmp_path, capsys):
        argv = ["integrate", "--n", "3", "--x=0,0,0", *flags, "--t-end", "1", "--h", "1e-3",
                "--out", str(tmp_path / "t.out")]
        assert_config_error(argv, capsys)

    def test_runs_over_the_bound_are_config_errors(self, tmp_path, capsys, monkeypatch):
        # 1e300 steps would loop for ever; 1e6 steps storing every one would
        # keep a 36-column table of 1e6 rows; neither gets to the RK4 loop
        def unreachable(*args):
            raise AssertionError("integrate ran")

        monkeypatch.setattr(mercator, "integrate", unreachable)
        out = str(tmp_path / "x.csv")
        assert_config_error(["integrate", *SPIRAL_ARGS, "--t-end", "1", "--h", "1e-300", "--out", out], capsys)
        assert_config_error(
            ["integrate", *SPIRAL_ARGS, "--t-end", "1", "--h", "1e-6", "--store-every", "1", "--out", out],
            capsys,
        )
        assert_config_error(["integrate", "--x=0", "--u=1", "--p=0", "--r=0", "--t-end", "1100",
                             "--h", "1e-3", "--store-every", "1000", "--out", out], capsys)

    def test_tolerances_only_where_checks_are_recorded(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": ["typo=1"]}))
        for command in ("integrate", "quantities"):
            out = str(tmp_path / "x.csv")
            assert_config_error([command, *SPIRAL_ARGS, "--tol", "typo=1", "--out", out], capsys)
            assert_config_error([command, *SPIRAL_ARGS, "--config", str(cfg), "--out", out], capsys)

    @pytest.mark.parametrize("flags", [("--t1", "-100"), ("--samples", "3"), ("--t1=0",)])
    def test_window_flags_are_refused(self, flags, tmp_path, capsys):
        # the sample window is verify's and quantities'; integrate used to
        # accept it and write the bytes of the run without it
        out = tmp_path / "t.csv"
        argv = ["integrate", *SPIRAL_ARGS, "--t-end", "0.1", "--h", "1e-2", *flags, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: integrate: unrecognized arguments: {' '.join(flags)}\n"
        assert not out.exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"samples": 3}))
        assert_config_error([*argv[:-2], "--config", str(cfg), "--out", str(out)], capsys)

    @pytest.mark.parametrize(
        "flags",
        [
            ("--c", "5"), ("--family", "spiral"), ("--p0", "1,0"), ("--q0", "0,1"),
            ("--r0", "0,0"), ("--b", "0.1,0"), ("--x0", "0,0"), ("--u0", "1,0"), ("--a0", "0,1"),
        ],
    )
    def test_family_flag_with_an_explicit_point_is_refused(self, flags, tmp_path, capsys):
        # an explicit point used to run as if the family flag were absent
        out = tmp_path / "t.csv"
        point = ["--x=0,0", "--u=1,0", "--p=0,0", "--r=0,0"]
        want = f"config error: initial point: {flags[0]} does not apply to an explicit --x --u --p --r point\n"
        for argv in (
            ["integrate", *point, *flags, "--t-end", "0.1", "--h", "1e-2", "--out", str(out)],
            ["integrate", *flags, point[0], "--t-end", "0.1", "--h", "1e-2", "--out", str(out)],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == want
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flags[0][2:]: 5.0 if flags[0] == "--c" else flags[1]}))
        assert main(["integrate", *point, "--config", str(cfg), "--t-end", "0.1", "--h", "1e-2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == want
        assert not out.exists()


class TestRelations:
    def test_identities_pass(self, tmp_path):
        out = tmp_path / "rel.json"
        code = main(["relations", "--n", "4", "--samples", "100", "--seed", "42", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        for record in report["checks"]:
            assert record["measured"] <= 1e-10

    def test_low_dimension_families_vacuous(self, capsys):
        code = main(["relations", "--n", "2", "--samples", "10", "--seed", "1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "vacuous" in text

    def test_jet_identity_mode(self):
        assert main(["relations", "--n", "3", "--samples", "50", "--seed", "7", "--jet-identity"]) == 0
        assert main(["relations", "--n", "1", "--samples", "5", "--jet-identity"]) == 0

    def test_nonpositive_samples_is_config_error(self, capsys):
        for argv in (
            ["relations", "--n", "4", "--samples", "0"],
            ["relations", "--n", "4", "--samples", "-5"],
            ["relations", "--n", "0"],
            ["relations", "--n", "abc"],
            # every identity family is vacuous in dimension 1
            ["relations", "--n", "1", "--samples", "3"],
        ):
            assert_config_error(argv, capsys)

    def test_jet_identity_alias(self):
        assert main(["relations", "--n", "3", "--samples", "10", "--seed", "7", "--appendix-c"]) == 0

    def test_vacuous_dimension_is_refused_before_any_draw(self, monkeypatch, capsys):
        # n = 1 has no identity to check whatever the draws, so the run
        # stops before drawing: the same four notes and one-line refusal
        def no_draw(*args):
            raise AssertionError("relations drew phase points in dimension 1")

        monkeypatch.setattr(cli, "_random_phase_points", no_draw)
        assert main(["relations", "--n", "1", "--samples", "2000000", "--seed", "3"]) == 2
        out, err = capsys.readouterr()
        notes = [f"note  identity_{f}: vacuous in dimension 1\n" for f in ("0ijN", "0ijk", "ijkN", "ijkl")]
        assert out == "".join(notes)
        assert err == "config error: nothing checked: every check is vacuous for this configuration\n"


class TestRelationChunks:
    """Plain ``relations`` runs ``quantity_identities`` a chunk of samples at
    a time; the per-sample values do not depend on the chunks."""

    def test_chunked_and_unchunked_reports_agree(self, tmp_path, monkeypatch):
        argv = ["relations", "--n", "24", "--samples", "40", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "chunked.json")]) == 0
        monkeypatch.setattr(cli, "_RELATIONS_BUDGET", 1 << 40)
        assert main(argv + ["--out", str(tmp_path / "whole.json")]) == 0
        assert (tmp_path / "chunked.json").read_bytes() == (tmp_path / "whole.json").read_bytes()

    def test_chunk_sizes(self):
        # 2^20 / (16 C(n+2, 4)) samples a chunk, and at least 16 while 16
        # samples fit in 2^23 elements (up to n = 29)
        rng = np.random.default_rng(0)
        for n in range(1, 9):
            assert [len(p[0]) for p in cli._random_phase_points(rng, n, 100)] == [100]
        assert [len(p[0]) for p in cli._random_phase_points(rng, 4, 10000)] == [4369, 4369, 1262]
        assert [len(p[0]) for p in cli._random_phase_points(rng, 16, 100)] == [21] * 4 + [16]
        assert [len(p[0]) for p in cli._random_phase_points(rng, 24, 100)] == [16] * 6 + [4]
        assert [len(p[0]) for p in cli._random_phase_points(rng, 28, 40)] == [16, 16, 8]
        assert [len(p[0]) for p in cli._random_phase_points(rng, 30, 3)] == [1] * 3


class TestBatchedOracles:
    """The batched spread and ``relations`` draws against the per-item loops
    they replaced (``tests/oracles.py``), compared with ``==``."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("count", (1, 100))
    def test_phase_points_match_the_per_draw_loop(self, n, count):
        for seed in range(20):
            rng, old = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = cli._random_phase_points(rng, n, count), scalar_phase_points(old, n, count)
            assert len(got) == len(want)
            for chunk, old_chunk in zip(got, want):
                for a, b in zip(chunk, old_chunk):
                    assert a.shape == b.shape and np.array_equal(a, b)
            # no draw goes unused: the stream is where the loop left it
            assert rng.random() == old.random()

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("samples", (1, 100))
    def test_jet_identity_draws_match_the_per_vector_loop(self, n, samples, monkeypatch, capsys):
        drawn = []

        def record(draws):
            drawn.append(np.array(draws))
            return coefficients(draws)

        monkeypatch.setattr(cli, "coefficients", record)
        for seed in range(3):
            argv = ["relations", "--n", str(n), "--samples", str(samples), "--seed", str(seed), "--jet-identity"]
            assert main(argv) == 0
            want = scalar_jet_identity_draws(np.random.default_rng(seed), n, samples)
            assert drawn[-1].shape == want.shape and np.array_equal(drawn[-1], want)
        capsys.readouterr()

    def test_spread_matches_the_per_column_loop(self, rng):
        tables = [
            rng.uniform(-1, 1, (m, k)) * 10.0 ** rng.integers(-3, 4, k) for m in (2, 3, 21) for k in (1, 7, 70)
        ]
        tables += [np.ones((5, 3)), np.zeros((2, 4)), -np.ones((3, 2))]
        times = np.linspace(-1.0, 1.0, 21)
        for n in range(2, 7):
            for family in (random_spiral(rng, n), random_transformed_spiral(rng, n)):
                tables.append(tractors.q_stack(family.jet(times)))
            tables.append(tractors.q_circle_stack(random_circle(rng, n).jet(times)))
        for values in tables:
            assert cli._spread(values) == column_spread(values)
            for column in values.T:
                assert cli._spread(column) == column_spread(column)


class TestParser:
    def test_main_builds_one_parser(self, tmp_path):
        cli.build_parser.cache_clear()
        for seed in ("1", "2"):
            argv = ["relations", "--n", "3", "--samples", "5", "--seed", seed]
            assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()

    def test_config_error_between_runs_leaves_the_report(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"samples": 5, "bogus": 1}))
        good = ["relations", "--n", "4", "--samples", "20", "--seed", "3", "--tol", "identity_0ijN=1e-9"]
        # an infinite tolerance passes any measurement, a negative or nan one
        # fails all: each is refused, by --tol and in a --config tol list
        tols = ["identity_0ijN=inf", "identity_0ijN=nan", "identity_0ijN=-1"]
        bads = [["--config", str(config)], ["--tol", "nope"], ["--n", "x"]]
        for k, tol in enumerate(tols):
            tol_config = tmp_path / f"tol{k}.json"
            tol_config.write_text(json.dumps({"tol": [tol]}))
            bads += [["--n", "4", "--samples", "10", flag, value]
                     for flag, value in (("--tol", tol), ("--config", str(tol_config)))]
        reports = []
        for bad in bads:
            out = tmp_path / f"r{len(reports)}.json"
            assert main(good + ["--out", str(out)]) == 0
            reports.append((out.read_bytes(), capsys.readouterr().out.replace(str(out), "OUT")))
            assert_config_error(["relations"] + bad, capsys)
        assert reports[1:] == reports[:-1]


class TestOneTractorPass:
    """Each ``verify`` suite and the quantity table run the canonical tractor
    recurrence once over their sample stack, whose values serve the Gram
    data, the pairing quantities, the acceleration tractor and the circle's
    wedge scale; the circle runs it once more in ``parallel_defect``, over
    the five times that it samples itself."""

    @pytest.mark.parametrize(
        "argv, passes",
        [
            (["verify", *SPIRAL_ARGS], [(21,)]),
            (["verify", *CIRCLE_ARGS], [(21,), (5,)]),
            (["verify", "--family", "tspiral", *SPIRAL_ARGS[2:], "--b", "0.1,0.05,-0.1"], [(21,)]),
            (["verify", *SPIRAL_ARGS, "--samples", "5"], [(5,)]),
            (["quantities", *SPIRAL_ARGS], [(21,)]),
            (["quantities", *CIRCLE_ARGS, "--samples", "7", "--format", "json"], [(7,)]),
            (["integrate", *SPIRAL_ARGS, "--t-end", "0.1", "--h", "1e-2", "--store-every", "1"], [(11,)]),
        ],
        ids=["spiral", "circle", "tspiral", "spiral-5", "quantities", "quantities-circle", "integrate"],
    )
    def test_one_pass_per_stack(self, tmp_path, monkeypatch, capsys, argv, passes):
        seen = []
        real = tractors.canonical_tractor_stack

        def counted(coeffs, count):
            seen.append(np.shape(coeffs)[:-2])
            return real(coeffs, count)

        monkeypatch.setattr(tractors, "canonical_tractor_stack", counted)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert seen == passes


class TestMemory:
    """Plain ``relations`` checks its samples a chunk at a time, and
    ``multilinear.minors`` holds one ``(rows, C(n, j))`` level of its
    Laplace expansion at a time, so stacked ``relations`` runs and a wide
    quantity table stay under a fixed traced peak; without the sample
    chunks each peaks above 50 MB.  ``relations --n 48 --samples 2``, one
    sample per chunk, peaks near 13 MB (18 MB with LU minors).  The
    table-size bound counts the columns before it names any, so an n = 80
    table (1,755,790 columns, about C(80, 4)) is refused in that peak too,
    where naming them peaks near 270 MiB.  ``relations`` refuses ``samples
    x max(n, C(n, 4))`` above 2^21 before it draws a sample: ``--n 80
    --samples 2`` ran 1.1 s in 211 MB without the bound."""

    WIDE = ",".join(["1"] + ["0"] * 15), ",".join(["0", "1"] + ["0"] * 14)
    N80 = [
        "--family", "spiral", "--n", "80", "--c", "2", "--p0", "1" + ",0" * 79,
        "--q0", "0,1" + ",0" * 78, "--r0", ",".join(["0.1"] * 80),
    ]

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["relations", "--n", "16", "--samples", "200", "--seed", "0", "--out", "r.json"],
             None),
            (["relations", "--n", "24", "--samples", "100", "--seed", "0", "--out", "r.json"],
             None),
            (["relations", "--n", "48", "--samples", "2", "--seed", "0", "--out", "r.json"],
             None),
            (["quantities", "--family", "spiral", "--n", "16", "--c", "2", "--p0", WIDE[0],
              "--q0", WIDE[1], "--r0=" + ",".join(["0.3", "-0.2"] * 8), "--samples", "201",
              "--out", "q.csv"], None),
            (["verify", *N80, "--samples", "2"],
             "samples: 2 rows of 1755790 columns exceed 1048576 cells"),
            (["integrate", *N80, "--t-end", "0.01", "--h", "0.01", "--out", "i.csv"],
             "store-every: 2 rows of 1755790 columns exceed 1048576 cells"),
            (["relations", "--n", "80", "--samples", "2", "--seed", "0", "--out", "r.json"],
             "samples: 2 rows of 1581580 columns exceed 2097152 cells"),
        ],
        ids=["relations", "wide-relations", "n48-relations", "quantities", "wide-verify", "wide-integrate",
             "n80-relations"],
    )
    def test_peak_is_bounded(self, tmp_path, monkeypatch, capsys, argv, refusal):
        monkeypatch.chdir(tmp_path)
        main(argv)  # fill the per-dimension caches first
        capsys.readouterr()
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if refusal is None:
            assert code == 0
        else:
            assert code == 2 and capsys.readouterr().err == f"config error: {refusal}\n"
        assert peak <= 40e6

    def test_small_dimension_chunks_count_every_key(self, tmp_path, monkeypatch, capsys):
        # a chunk is sized by the C(n+2, 4) keys each sample holds (15 at
        # n = 4), and the draws keep no third copy of the samples: 105 MB
        # when chunks counted C(n, 4) keys and the draws were concatenated
        # onto an empty array, about 53 MB now
        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code = main(["relations", "--n", "4", "--samples", "200000", "--seed", "1", "--out", "r.json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak <= 60e6


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_table_formats_each_cell_as_format_17g(tmp_path, fmt):
    # the writer formats each distinct bit pattern once; the bytes are those
    # of one format(x, ".17g") per cell
    nans = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(float)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, *nans, 5e-324, -1e-310, 2.2250738585072014e-308,
               1.0, 0.1, 1 / 3, -1e300]
    rng = np.random.default_rng(0)
    rows = rng.choice(np.array(special + list(rng.normal(size=6))), size=(30, 7))
    rows[:, 3] = rows[0, 3]  # a conserved column
    rows[::2, 5] = -0.0
    columns = [f"c{i}" for i in range(7)]
    cells = [[format(float(x), ".17g") for x in row] for row in rows]
    path = tmp_path / f"t.{fmt}"
    cli._write_table(path, columns, rows, fmt)
    if fmt == "csv":
        want = "".join(",".join(row) + "\n" for row in [columns] + cells)
    else:
        want = json.dumps({"columns": columns, "rows": cells}, indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == want.encode()
    assert "-0" in path.read_text() and "nan" in path.read_text()


def test_column_count_counts_the_names():
    for n in range(1, 31):
        assert cli._column_count(n) == len(cli._quantity_columns(n))


@pytest.mark.parametrize("command", ["verify", "quantities"])
def test_oversized_samples_are_config_errors(tmp_path, capsys, monkeypatch, command):
    # 29,128 rows of 36 columns pass the 2^20-cell bound of integrate's
    # stored rows, and no jet stack is made; 29,127 rows get to the family
    def reached(*args):
        raise AssertionError("the family was evaluated")

    monkeypatch.setattr(cli, "_family_jets", reached)
    out = str(tmp_path / "x.csv")
    for samples in ("29128", "400000000"):
        assert_config_error([command, *SPIRAL_ARGS, "--samples", samples, "--out", out], capsys)
    with pytest.raises(AssertionError, match="the family was evaluated"):
        main([command, *SPIRAL_ARGS, "--samples", "29127", "--out", out])


class TestQuantities:
    def test_circle_table_marks_undefined(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main(
            [
                "quantities", "--family", "circle",
                "--x0", "0.2,-0.1,0.4", "--u0", "1,0,0", "--a0", "0,0.8,0.3",
                "--samples", "5", "--out", str(out),
            ]
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        kappa = [r[header.index("kappa1")] for r in rows[1:]]
        assert all(v == "nan" for v in kappa)
        delta4 = [float(r[header.index("delta4")]) for r in rows[1:]]
        assert all(abs(v) <= 1e-9 for v in delta4)

    def test_spiral_table_values(self, tmp_path):
        out = tmp_path / "qs.csv"
        code = main(["quantities", *SPIRAL_ARGS, "--samples", "7", "--out", str(out)])
        assert code == 0
        header, data = read_csv(out)
        k = data[:, header.index("kappa1")]
        assert np.allclose(k, -0.75, atol=1e-9)
        # Noether columns agree with the phase-space basis columns
        noether = [name for name in header if name.startswith("F_")]
        assert len(noether) == 3 + 3 + 1 + 3
        for a in noether:
            b = "E_" + a[2:]
            assert np.allclose(data[:, header.index(a)], data[:, header.index(b)], atol=1e-10)

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONFCURVES_OUTDIR", str(tmp_path))
        code = main(["quantities", *SPIRAL_ARGS, "--samples", "3", "--out", "sub/q.csv"])
        assert code == 0
        assert (tmp_path / "sub" / "q.csv").exists()

    def test_traces_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(["quantities", *SPIRAL_ARGS, "--samples", "5", "--out", str(out1)]) == 0
        assert main(["quantities", *SPIRAL_ARGS, "--samples", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


BAD_NUMBERS = ("0", "-1", "nan", "inf", "800")
# drawn for vector components and --c only: --h 1e-160 would be a valid run
# of about 1e160 RK4 steps
MAGNITUDES = ("1e200", "1e-160")


@st.composite
def cli_argv(draw):
    """An argv from the parser's grammar: valid values, maybe one vector
    flag or --c scaled by a number from MAGNITUDES, then up to two numeric
    or vector flags replaced by a number from BAD_NUMBERS (a whole vector
    of it).  Values go after ``=`` or, which argparse rejects for a
    vector starting with '-', as the next word."""
    n = draw(st.integers(2, 4))
    command = draw(st.sampled_from(("verify", "integrate", "relations", "quantities")))
    flags = {"n": str(n), "samples": str(draw(st.integers(-1, 3)))}
    if command != "relations":
        e = [",".join("1" if i == k else "0" for i in range(n)) for k in range(2)]
        family = draw(st.sampled_from(("spiral", "circle", "tspiral")))
        if family == "circle":
            flags.update(x0=",".join(["0.2"] * n), u0=e[0], a0=",".join(["0", "0.8"] + ["0.3"] * (n - 2)))
        else:
            flags.update(c="2", p0=e[0], q0=e[1], r0=",".join(["0.3"] * n))
        if family == "tspiral":
            flags["b"] = ",".join(["0.1", "-0.1"] + ["0.15"] * (n - 2))
        flags.update({"family": family, "t0": "-1"})
        if command == "integrate":
            del flags["samples"]
            flags.update({"t-end": "0.01", "h": "0.005", "store-every": str(draw(st.integers(-1, 3)))})
        else:
            flags["t1"] = "1"
    sized = sorted(k for k in flags if k == "c" or "," in flags[k])
    magnitude = draw(st.sampled_from((*MAGNITUDES, None)))
    if magnitude and sized:
        name = draw(st.sampled_from(sized))
        flags[name] = ",".join(repr(float(v) * float(magnitude)) for v in flags[name].split(","))
    numeric = sorted(k for k in flags if k not in ("n", "samples", "store-every", "family"))
    for name in draw(st.lists(st.sampled_from(numeric), max_size=2, unique=True)) if numeric else ():
        # --t-end 800 would be a valid run of minutes, so it is not drawn
        bad = draw(st.sampled_from(BAD_NUMBERS[:-1] if name == "t-end" else BAD_NUMBERS))
        flags[name] = ",".join([bad] * len(flags[name].split(",")))
    if command in ("verify", "relations") and draw(st.booleans()):
        flags["tol"] = draw(st.sampled_from(("typo=1", "delta4_matches_pitch=1", "x")))
    joined = draw(st.booleans())
    argv = [command]
    for k, v in flags.items():
        argv += [f"--{k}={v}"] if joined else [f"--{k}", v]
    if command == "relations" and draw(st.booleans()):
        argv.append("--jet-identity")
    return argv


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=cli_argv())
def test_every_drawn_input_ends_in_a_documented_exit_code(argv, tmp_path, capsys):
    out = tmp_path / ("out.csv" if argv[0] in ("integrate", "quantities") else "out.json")
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.out + captured.err
    if code in (2, 3):
        assert captured.err.count("\n") == 1
