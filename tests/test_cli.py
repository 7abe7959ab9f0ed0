"""Command-line surface: exit codes, file formats, determinism and the
rendering contract."""

import ast
import bisect
import json
import math
import pathlib
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from halfelastica import cli, curvegen, periodmap
from halfelastica import moduli as M
import reference


def run_cli(args, tmp_path=None):
    """Invoke the entry point in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


class TestClassify:
    def test_lightlike_point(self):
        code, out, _ = run_cli(["classify", "--lambda", "-1.25", "--e2", "2.0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "halfelastica/1"
        assert doc["region"] == "L"
        assert abs(doc["c"]) < 1e-9
        assert doc["e1"] == pytest.approx(2.8507810593582121)

    def test_point_without_amplitude_is_center_boundary(self):
        code, out, _ = run_cli(["classify", "--lambda=-3970.806660815663",
                                "--e2", "7941.613321631323"])
        assert code == 2
        assert json.loads(out)["region"] == "B+"

    def test_outside_exit_code(self):
        code, out, _ = run_cli(["classify", "--lambda", "-0.5", "--e2", "1.0"])
        assert code == 2
        assert json.loads(out)["region"] == "Outside"

    def test_timelike_sign(self):
        code, out, _ = run_cli(["classify", "--lambda", "-1.3", "--e2", "2.3"])
        doc = json.loads(out)
        assert code == 0
        assert doc["region"].startswith("T")
        assert doc["c"] < 0.0

    def test_usage_error(self):
        code, _, _ = run_cli(["classify", "--lambda", "-1.0"])
        assert code == 64

    def test_huge_height_is_outside(self):
        code, out, _ = run_cli(["classify", "--lambda", "-1.2", "--e2", "1e100"])
        assert code == 2
        assert json.loads(out)["region"] == "Outside"

    @pytest.mark.parametrize("lam, e2", [("-1e100", "1e80"),
                                         ("-1e150", "1e100")])
    def test_far_spacelike_point_is_a_domain_error(self, lam, e2):
        code, out, err = run_cli(["classify", f"--lambda={lam}", "--e2", e2])
        assert code == 65
        assert out == "" and "leaves the float range" in err

    @pytest.mark.parametrize("args", [
        ["classify", "--lambda", "nan", "--e2", "1.5"],
        ["classify", "--lambda=-inf", "--e2", "1.5"],
        ["classify", "--lambda", "-1.2", "--e2", "inf"],
        ["curve", "--lambda", "-1.3", "--e2", "NaN"],
        ["scan-period", "--lambda", "inf"],
    ])
    def test_non_finite_arguments_are_usage_errors(self, args):
        code, out, err = run_cli(args)
        assert code == 64
        assert out == "" and "finite" in err


class TestCurve:
    def test_csv_row_count(self, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, _, _ = run_cli(["curve", "--lambda", "-1.3", "--e2", "2.3",
                              "--samples", "64", "--periods", "2",
                              "--format", "csv", "--out", str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "s,mu,mu_dot,x1,x2,x3,u,v,theta"
        assert len(lines) - 1 == 64 * 2 + 1

    def test_lightlike_svg_has_osculating_circles(self, tmp_path):
        out_file = tmp_path / "bl.svg"
        e2 = M.b0(-1.17)
        code, _, _ = run_cli(["curve", "--lambda", "-1.17", "--e2", repr(e2),
                              "--samples", "128", "--format", "svg",
                              "--out", str(out_file)])
        assert code == 0
        text = out_file.read_text()
        assert text.count("<circle") == 3  # boundary + two osculating circles
        assert "<path" in text
        assert "viewBox=\"0 0 1000 1000\"" in text
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")

    def test_exceptional_trajectory_reaches_origin(self, tmp_path):
        lam = -1.1
        e2 = M.exceptional_c(lam)
        code, out, _ = run_cli(["curve", "--lambda", str(lam), "--e2",
                                repr(e2), "--samples", "4096",
                                "--format", "csv"])
        assert code == 0
        rows = out.strip().split("\n")[1:]
        radii = [math.hypot(float(r.split(",")[6]), float(r.split(",")[7]))
                 for r in rows]
        assert min(radii) <= 1e-4

    def test_not_in_moduli_space(self):
        code, _, err = run_cli(["curve", "--lambda", "-0.5", "--e2", "1.0",
                                "--format", "csv"])
        assert code == 65
        assert "error" in err

    # criterion 08's CSV check: the printed table parses back to the library
    # curve exactly, on one point of each of T-, T+, S and L
    @pytest.mark.parametrize("lam, e2, region", [
        (-1.3, 2.3, "T-"), (-1.3, 2.51, "T+"), (-1.3, 1.2, "S"),
        (-1.17, M.b0(-1.17), "L"),
    ])
    def test_csv_parses_back_to_the_library_curve(self, lam, e2, region):
        point = M.resolve(lam, e2)
        assert point.region.value == region
        code, out, err = run_cli(["curve", "--lambda", repr(lam), "--e2",
                                  repr(e2), "--samples", "256", "--periods",
                                  "2", "--format", "csv"])
        assert code == 0 and err == ""
        header, body = out.split("\n", 1)
        assert header == "s,mu,mu_dot,x1,x2,x3,u,v,theta"
        table = np.array(body.replace("\n", ",").rstrip(",").split(","),
                         dtype=float).reshape(-1, 9)
        curve = curvegen.make_curve(point, samples=256, periods=2.0)
        columns = (curve.s, curve.mu, curve.mu_dot, *curve.gamma.T,
                   *curve.poincare.T, curve.theta)
        assert table.shape == (2 * 256 + 1, 9)
        assert all(np.array_equal(c, table[:, i]) for i, c in enumerate(columns))


class TestScanPeriod:
    def test_endpoint_limits(self):
        code, out, _ = run_cli(["scan-period", "--lambda", "-1.3",
                                "--samples", "256"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        values = [float(r[1]) for r in rows]
        assert abs(values[0] - 1.0) < 0.1
        assert abs(values[-1] - M.chi(-1.3)) < 0.01

    def test_monotone_above_transition(self):
        _, out, _ = run_cli(["scan-period", "--lambda", "-0.98",
                             "--samples", "128"])
        values = [float(line.split(",")[1])
                  for line in out.strip().split("\n")[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rows_match_period_map(self):
        from halfelastica import periodmap as P

        _, out, _ = run_cli(["scan-period", "--lambda", "-1.2",
                             "--samples", "32"])
        a, eta_p = M.a_lower(-1.2), M.eta_pm(-1.2)[1]
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for i, (e2, value) in enumerate(rows, start=1):
            assert float(e2) == a + (eta_p - a) * i / 33.0
            assert float(value) == pytest.approx(
                P.period_map((-1.2, float(e2))), abs=1e-11)

    def test_interior_minimum_below_transition(self):
        _, out, _ = run_cli(["scan-period", "--lambda", "-0.999",
                             "--samples", "128"])
        values = [float(line.split(",")[1])
                  for line in out.strip().split("\n")[1:]]
        k = values.index(min(values))
        assert 0 < k < len(values) - 1


class TestFindStringAndFiber:
    def test_string_report(self):
        code, out, _ = run_cli(["find-string", "--lambda", "-1.01",
                                "--q", "11/10"])
        assert code == 0
        doc = json.loads(out)
        assert doc["wave_number"] == 10
        assert abs(doc["period_map"] - 1.1) <= 1e-9

    def test_q_reduction(self):
        _, out, _ = run_cli(["find-string", "--lambda", "-1.01",
                             "--q", "22/20"])
        assert json.loads(out)["q"] == "11/10"

    # the one parser of q: a separator with no denominator is malformed
    @pytest.mark.parametrize("q", ["1/", "11/10/", "0/3", "1/0", "x"])
    def test_malformed_q_is_a_usage_error(self, q):
        code, out, err = run_cli(["fiber", "--q", q])
        assert code == 64
        assert out == "" and repr(q) in err
        # the message names the fault, not a private function
        assert "characteristic number" in err
        assert not re.search(r"\b_\w+", err)

    def test_malformed_lambda_is_a_usage_error(self):
        code, out, err = run_cli(["curve", "--lambda", "x", "--e2", "1"])
        assert code == 64
        assert out == "" and "must be a finite number, got 'x'" in err
        assert not re.search(r"\b_\w+", err)

    def test_q_out_of_range_exit(self):
        code, _, err = run_cli(["find-string", "--lambda", "-1.2",
                                "--q", "6/5"])
        assert code == 3
        assert "interval" in err

    def test_fiber_contains_locus_row(self):
        code, out, _ = run_cli(["fiber", "--q", "11/10", "--steps", "60"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        locus = [r for r in rows if r[2] == "E"]
        assert len(locus) == 1
        assert float(locus[0][1]) == pytest.approx(1.71966, abs=5e-4)

    @pytest.mark.parametrize("q, steps", [("11/10", "200"), ("25/24", "200"),
                                          ("6/5", "200"), ("16/15", "200"),
                                          ("13/11", "40")])
    def test_fiber_writes_nothing_to_stderr(self, q, steps):
        # the last two evaluate their crossing exactly on E, where kappa1 = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["fiber", "--q", q, "--steps", steps])
        assert code == 0 and err == ""
        assert sum(line.endswith(",E") for line in out.splitlines()) == 1

    # float ** overflows at -1e100; -2 lam + 1 rounds onto eta+ at the others
    @pytest.mark.parametrize("lam", ["-1e100", "-1e60", "-1e20"])
    @pytest.mark.parametrize("args", [["scan-period"],
                                      ["find-string", "--q", "11/10"],
                                      ["phase-portrait"]])
    def test_far_multiplier_is_a_domain_error(self, args, lam):
        code, out, err = run_cli(args + [f"--lambda={lam}"])
        assert code == 65
        assert out == "" and f"lambda={float(lam)!r}" in err

    # solve_mu's conservation budget is relative to the terms of the
    # residual, which grow like mu^6: the slice's closed orbits and the S
    # signatures at e2 = -0.3 lam pass it out to lam = -1e30
    @pytest.mark.parametrize("lam", ["-5", "-10", "-1e2", "-1e5", "-1e10",
                                     "-1e30"])
    def test_far_portrait_and_signature_succeed(self, lam):
        code, out, err = run_cli(["phase-portrait", f"--lambda={lam}",
                                  "--format", "csv"])
        assert code == 0 and err == ""
        rows = [row.split(",") for row in out.splitlines()[1:]]
        closed = np.array([[x, y] for _, kind, x, y in rows
                           if kind == "closed"], dtype=float)
        assert closed.shape == (6 * cli._PORTRAIT_SAMPLES, 2)
        assert np.all(closed[:, 0] > 0.0)
        xy = np.array([[x, y] for _, _, x, y in rows], dtype=float)
        assert np.all(np.isfinite(xy))
        e2 = -0.3 * float(lam)
        code, out, err = run_cli(["signature", f"--lambda={lam}",
                                  f"--e2={e2!r}", "--samples", "64"])
        assert code == 0 and err == ""
        table = np.array([row.split(",") for row in out.splitlines()[1:]],
                         dtype=float)
        assert table.shape == (64, 3) and np.all(np.isfinite(table))
        # s runs over [0, omega) in 64 steps
        omega = reference.wavelength(M.resolve(float(lam), e2).quartic.roots)
        assert abs(table[-1, 0] - float(omega) * 63 / 64) <= 1e-14 * omega

    def test_unreachable_fiber_exit(self):
        code, out, err = run_cli(["fiber", "--q", "4/3", "--steps", "20"])
        assert code == 65
        assert out == ""
        assert "bracket" in err and "q=" in err

    def test_string_svg(self, tmp_path):
        out_file = tmp_path / "string.svg"
        code, _, _ = run_cli(["find-string", "--lambda", "-1.01",
                              "--q", "11/10", "--samples", "256",
                              "--format", "svg", "--out", str(out_file)])
        assert code == 0
        assert "<path" in out_file.read_text()


class TestMisc:
    def test_signature_csv(self):
        code, out, _ = run_cli(["signature", "--lambda", "-1.3", "--e2",
                                "1.2", "--samples", "64", "--format", "csv"])
        assert code == 0
        assert out.startswith("s,mu,mu_dot\n")
        assert len(out.strip().split("\n")) == 65

    def test_phase_portrait_svg(self):
        code, out, _ = run_cli(["phase-portrait", "--lambda", "-1.0",
                                "--format", "svg"])
        assert code == 0
        assert out.startswith("<svg")
        assert out.count("circle") >= 2  # the two equilibrium markers

    def test_samples_floor(self):
        code, _, _ = run_cli(["curve", "--lambda", "-1.3", "--e2", "2.3",
                              "--samples", "4", "--format", "csv"])
        assert code == 64

    @pytest.mark.parametrize("args, message", [
        (["fiber", "--q", "11/10", "--steps", "-1"],
         "--steps must not be negative"),
        (["curve", "--lambda", "-1.3", "--e2", "2.3", "--periods", "nan"],
         "--periods must be finite and not negative"),
        (["curve", "--lambda", "-1.3", "--e2", "2.3", "--periods", "inf"],
         "--periods must be finite and not negative"),
        (["curve", "--lambda", "-1.3", "--e2", "2.3", "--periods", "-1"],
         "--periods must be finite and not negative"),
    ])
    def test_negative_or_non_finite_counts_are_usage_errors(self, args, message):
        code, out, err = run_cli(args)
        assert code == 64
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("args, circles, vertices", [
        # the signature loop closed on its first sample
        (["signature", "--lambda", "-1.3", "--e2", "1.2"], 0, 65),
        # an S curve: the disk and its two osculating circles
        (["curve", "--lambda", "-1.1", "--e2", "1.0"], 3, 65),
    ], ids=["signature", "S-curve"])
    def test_svg_document(self, args, circles, vertices):
        argv = args + ["--samples", "64", "--format", "svg"]
        code, out, err = run_cli(argv)
        assert code == 0 and err == ""
        assert out.startswith("<svg") and out.endswith("</svg>\n")
        assert out.count("<svg") == 1 and out.count("<path") == 1
        assert out.count("<circle") == circles
        path = re.search(r'<path d="([^"]*)"', out).group(1)
        assert path.count("M") == 1
        assert path.count("M") + path.count(" L") == vertices
        assert run_cli(argv) == (code, out, err)

    def test_zero_steps_and_periods_keep_their_output(self):
        assert run_cli(["fiber", "--q", "11/10", "--steps", "0"]) == (
            0, "lambda,e2,region\n", "")
        code, out, err = run_cli(["curve", "--lambda", "-1.3", "--e2", "2.3",
                                  "--samples", "16", "--periods", "0"])
        assert code == 0 and err == ""
        assert out == ("s,mu,mu_dot,x1,x2,x3,u,v,theta\n"
                       "0,2.2999999999999998,0,1.3815792463598073,"
                       "-0.95328967998826708,0,-0.40027627946680749,0,0\n")

    @pytest.mark.parametrize("args", [
        ["classify", "--lambda", "-1.25", "--e2", "2.0", "--tol", "1e-3"],
        ["fiber", "--q", "11/10", "--periods", "3"],
        ["fiber", "--q", "11/10", "--samples", "64"],
        ["signature", "--lambda", "-1.3", "--e2", "1.2", "--periods", "2"],
        ["phase-portrait", "--lambda", "-1.0", "--samples", "64"],
    ])
    def test_options_a_command_does_not_read_are_rejected(self, args):
        code, out, _ = run_cli(args)
        assert code == 64
        assert out == ""

    @pytest.mark.parametrize("args,resolves", [
        (["curve", "--lambda", "-1.3", "--e2", "2.3"], 1),
        (["classify", "--lambda", "-1.3", "--e2", "2.3"], 1),
        # the brentq evaluations of the period map, one resolve of the string
        (["find-string", "--lambda", "-1.01", "--q", "11/10"], 1),
    ])
    def test_quartic_solves(self, args, resolves, quartic_solves, monkeypatch):
        evaluations = []

        def counting_brentq(f, *args, _brentq=periodmap.brentq, **kwargs):
            def counted(x):
                evaluations.append(x)
                return f(x)
            return _brentq(counted, *args, **kwargs)

        monkeypatch.setattr(periodmap, "brentq", counting_brentq)
        code, _, _ = run_cli(args)
        assert code == 0
        assert bool(evaluations) is (args[0] == "find-string")
        assert len(quartic_solves) == len(evaluations) + resolves

    def test_determinism(self):
        _, out1, _ = run_cli(["scan-period", "--lambda", "-1.3",
                              "--samples", "32"])
        _, out2, _ = run_cli(["scan-period", "--lambda", "-1.3",
                              "--samples", "32"])
        assert out1 == out2
        _, j1, _ = run_cli(["classify", "--lambda", "-1.25", "--e2", "2.0"])
        _, j2, _ = run_cli(["classify", "--lambda", "-1.25", "--e2", "2.0"])
        assert j1 == j2


def _csv_text(header, columns):
    """write_csv's table as one str."""
    return b"".join(cli.write_csv(header, columns)).decode()


def _reference_csv(header, columns):
    """The table written one value at a time, as rows of Python values."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lines = [",".join(header)]
    for row in zip(*lists):
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    def test_float_block_matches_per_value_reference(self):
        rng = np.random.default_rng(20231)
        block = (rng.standard_normal((400, 6))
                 * 10.0 ** rng.integers(-300, 300, (400, 6)))
        # random bit patterns: every exponent, NaN payloads and signs
        block[200:] = rng.integers(0, 2**63, (200, 6), dtype=np.uint64).view(
            np.float64) * rng.choice([-1.0, 1.0], (200, 6))
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                   -1.5e-310, 1e300, -1e300, 1e-300, -1e-300,
                   1.7976931348623157e308, float("nan"), float("inf"),
                   -float("inf"), 1.0, 0.1, -2.5, 1e16 + 1]
        block[:len(special)] = np.array(special)[:, None]
        block[len(special):2 * len(special)] = np.array(special)[::-1, None]
        # array views, a transposed view and a list of Python floats
        columns = [block[:, 0], block[:, 1].copy(), *block[:, 2:5].T,
                   block[:, 5].tolist()]
        header = [f"c{i}" for i in range(6)]
        text = _csv_text(header, columns)
        assert text == _reference_csv(header, columns)
        assert text.count("\n") == 401
        assert "nan" in text and "-inf" in text and ",-0," in text

    def test_phase_portrait_table_matches_per_value_reference(self):
        orbits = cli.phase_portrait_orbits(-1.3)
        columns = [[i for i, (_, o) in enumerate(orbits) for _ in o],
                   [kind for kind, o in orbits for _ in o],
                   np.concatenate([o[:, 0] for _, o in orbits]),
                   np.concatenate([o[:, 1] for _, o in orbits])]
        header = ["orbit", "kind", "x", "y"]
        assert (_csv_text(header, columns)
                == _reference_csv(header, columns))
        code, out, _ = run_cli(["phase-portrait", "--lambda", "-1.3",
                                "--format", "csv"])
        assert code == 0 and out == _reference_csv(header, columns)

    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 40, 200])
    @pytest.mark.parametrize("q", ["11/10", "19/16", "25/24"])
    def test_fiber_table_matches_per_value_reference(self, q, steps):
        # the CLI writes the trace's columns and never builds the points:
        # it must print the points derived from them, the empty table and
        # an E crossing inserted between the first rows (bracketed from the
        # bottom of E at 2 and 3 steps) included
        trace = periodmap.trace_fiber(q, steps=steps)
        assert all(type(v) is float for v in trace.lam + trace.e2)
        assert all(type(v) is str for v in trace.regions)
        assert all(isinstance(c, tuple)
                   for c in (trace.lam, trace.e2, trace.regions))
        points = trace.points
        assert points == tuple(M.ModulusPoint(lam, e2, M.Region(region))
                               for lam, e2, region in zip(
                                   trace.lam, trace.e2, trace.regions))
        at = [i for i, pt in enumerate(points) if pt is trace.crossing]
        assert len(points) == steps + len(at)
        assert (0 < at[0] < steps) if steps >= 2 else not at
        if at:
            assert at == [bisect.bisect_right(trace.e2, trace.crossing.e2) - 1]
        again = periodmap.trace_fiber(q, steps=steps)
        assert again == trace and hash(again) == hash(trace)
        columns = [[pt.lam for pt in points], [pt.e2 for pt in points],
                   [pt.region.value for pt in points]]
        header = ["lambda", "e2", "region"]
        assert (_csv_text(header, columns)
                == _reference_csv(header, columns))
        code, out, _ = run_cli(["fiber", "--q", q, "--steps", str(steps)])
        assert code == 0 and out == _reference_csv(header, columns)

    def test_mixed_columns_with_special_floats(self):
        floats = [-0.0, 5e-324, float("nan"), -float("inf"), 1e-300]
        columns = [list(range(-2, 3)), ["T-", "E", "T+", "S", "a%sb"],
                   np.array(floats), floats]
        assert (_csv_text(["i", "tag", "x", "y"], columns)
                == _reference_csv(["i", "tag", "x", "y"], columns))


def _assert_same_lines(text, reference):
    # line lists, whose mismatch pytest reports without a slow text diff
    assert text.endswith("\n") and reference.endswith("\n")
    assert text.split("\n") == reference.split("\n")


def _assert_percent_g(values):
    """Every float of values, as a one-column table, is its '%.17g'."""
    x = np.asarray(values, dtype=float)
    _assert_same_lines(_csv_text(["x"], [x]), "x\n" + "".join(
        "%.17g\n" % v for v in x.tolist()))


class TestFloatCells:
    """The exact '%.17g' kernel of write_csv, value by value."""

    def test_exponent_ladder_and_range_edges(self):
        rng = np.random.default_rng(7)
        k = np.arange(cli._EXP_MIN - 2, cli._EXP_MAX + 3)
        ladder = 10.0 ** k[:, None] * rng.uniform(1.0, 10.0, (len(k), 200))
        edges = np.array([1e-10, 1e16])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0),
                                np.nextafter(edges, np.inf)])
        _assert_percent_g(np.concatenate([ladder.ravel(), edges]))
        _assert_percent_g(-np.concatenate([ladder.ravel(), edges]))

    def test_neighbours_of_powers_of_ten(self):
        p = 10.0 ** np.arange(cli._EXP_MIN - 1, cli._EXP_MAX + 2)
        values = np.concatenate([p, np.nextafter(p, np.inf),
                                 np.nextafter(p, -np.inf),
                                 np.nextafter(np.nextafter(p, 0.0), 0.0)])
        _assert_percent_g(np.concatenate([values, -values]))

    def test_digits_never_round_up_to_a_power_of_ten(self):
        """The largest float below each power of ten in the kernel's range
        keeps 17 digits below 10^17, so no carry case exists."""
        for k in range(cli._EXP_MIN + 1, cli._EXP_MAX + 1):
            below = math.nextafter(cli._at_least_pow10(k), 0.0)
            scaled = Fraction(below) * Fraction(10) ** (17 - k)
            assert scaled < 10**17 - Fraction(1, 2)

    def test_exact_halfway_ties(self):
        """Values halfway between two 17-digit decimals round to the even
        one: j / 2^(18 - X) with j odd is a tie at decimal exponent X,
        which the floats hold for X >= -7."""
        rng = np.random.default_rng(11)
        ties = [(1e15 + 0.25, 15), (1e15 + 0.75, 15)]
        for exp in range(-7, 16):
            k = 17 - exp
            lo = math.ceil(Fraction(10) ** exp * 2**k)
            hi = min(math.ceil(Fraction(10) ** (exp + 1) * 2**k), 2**53)
            ties += [(math.ldexp(j, -k), exp)
                     for j in (rng.integers(lo, hi, 40) | 1).tolist() if j < hi]
        for v, exp in ties:
            scaled = Fraction(v) * Fraction(10) ** (16 - exp)
            assert scaled.denominator == 2 and 10**16 <= scaled < 10**17
        assert len(ties) > 800
        # 2e15 + 0.5 is a tie of the float grid, not of the 17 digits
        values = [v for v, _ in ties] + [2e15 + 0.5, 2e15 + 1.5]
        _assert_percent_g(values)
        _assert_percent_g([-v for v in values])

    def test_zeros_subnormals_and_non_finite_values(self):
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   math.nextafter(2.2250738585072014e-308, 0.0), 1e-300,
                   9.9e-11, float("nan"), -float("nan"), float("inf"),
                   -float("inf"), 1.7976931348623157e308, 1e16 + 2.0, 1e300]
        _assert_percent_g(special)
        _assert_percent_g([v for v in special for _ in range(3)][::-1])

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_tables_across_block_boundaries(self, extra):
        rng = np.random.default_rng(3)
        block = cli._CSV_BLOCK_ROWS
        for rows in (1, block + extra, 2 * block + extra):
            x = (rng.standard_normal((rows, 3))
                 * 10.0 ** rng.integers(-12, 18, (rows, 3)))
            x[::7, 1] = 0.0
            x[::11, 2] = np.nan
            columns = [x[:, 0], list(range(rows)), x[:, 1].tolist(),
                       [f"r{i}%" for i in range(rows)], x[:, 2]]
            header = ["a", "i", "b", "tag", "c"]
            _assert_same_lines(_csv_text(header, columns),
                               _reference_csv(header, columns))

    def test_mixed_columns_with_percent_signs(self):
        tags = ["%", "%s", "%%", "100%", "%.17g", "a%(x)sb", "é", ""]
        n = len(tags) * 40
        columns = [list(range(-n // 2, n - n // 2)), tags * 40,
                   np.linspace(-1.0, 1.0, n), [True, False] * (n // 2)]
        header = ["i", "tag", "x", "flag"]
        _assert_same_lines(_csv_text(header, columns),
                           _reference_csv(header, columns))

    def test_empty_table_is_its_header(self):
        assert list(cli.write_csv(["a", "b"], [np.empty(0), []])) == [b"a,b\n"]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40),
           st.lists(st.floats(min_value=1e-10, max_value=1e16), max_size=40))
    def test_any_floats_match_percent_g(self, anything, in_range):
        _assert_percent_g(anything + in_range + [-v for v in in_range])

    def test_scan_period_with_nan_rows(self, monkeypatch):
        """A period-map scan whose values hold NaN and infinities prints
        them as '%.17g' does."""
        exact = periodmap.period_map_slice

        def with_gaps(lam, e2s):
            values = exact(lam, e2s).copy()
            values[::5] = np.nan
            values[2::10], values[7::10] = np.inf, -np.inf
            return values

        monkeypatch.setattr(periodmap, "period_map_slice", with_gaps)
        code, out, _ = run_cli(["scan-period", "--lambda", "-1.3",
                                "--samples", "300"])
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert code == 0 and len(rows) == 300
        a, eta_p = periodmap._slice_bounds(-1.3)
        e2 = a + (eta_p - a) * np.arange(1, 301) / 301.0
        _assert_same_lines(out, _reference_csv(["e2", "P"],
                                               [e2, with_gaps(-1.3, e2)]))
        assert [r[1] for r in rows[:10]].count("nan") == 2
        assert sum(r[1] in ("nan", "inf", "-inf") for r in rows) == 120


def _mixed_table(rows):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, 2)) * 10.0 ** rng.integers(-12, 18, (rows, 2))
    tags = ["é", "%", "a%sé", "100%", "%.17g", "T-"]
    columns = [x[:, 0], list(range(-rows // 2, rows - rows // 2)),
               [tags[i % len(tags)] for i in range(rows)], x[:, 1].tolist()]
    return ["x", "i", "tag", "y"], columns


class TestStreamedOutput:
    """write_csv yields the header line and then blocks of _CSV_BLOCK_ROWS
    rows, which _emit writes to --out, to a binary stdout and to a text-only
    stdout with the same bytes."""

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 511, 512, 513])
    def test_same_bytes_through_every_destination(self, rows, tmp_path):
        import io
        from argparse import Namespace
        from contextlib import redirect_stdout

        header, columns = _mixed_table(rows)
        expected = _reference_csv(header, columns).encode()
        chunks = list(cli.write_csv(header, columns))
        block = cli._CSV_BLOCK_ROWS
        assert chunks[0] == b"x,i,tag,y\n"
        assert [c.count(b"\n") for c in chunks[1:]] == (
            [block] * (rows // block) + [rows % block] * (rows % block > 0))
        assert b"".join(chunks) == expected

        path = tmp_path / "table.csv"
        cli._emit(Namespace(output=str(path)), cli.write_csv(header, columns))
        assert path.read_bytes() == expected
        # text written before the table stays before it
        binary = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with redirect_stdout(binary):
            sys.stdout.write("before\n")
            cli._emit(Namespace(output=None), cli.write_csv(header, columns))
        binary.flush()
        assert binary.buffer.getvalue() == b"before\n" + expected
        text = io.StringIO()
        with redirect_stdout(text):
            cli._emit(Namespace(output=None), cli.write_csv(header, columns))
        assert text.getvalue().encode() == expected

    def test_file_output_holds_one_block(self, tmp_path):
        """A 2^15-row table of nine float columns, 5.9 MB of text, is written
        with a traced peak of one block's arrays (measured 0.73 MB; 14.4 MB
        when the whole table was joined before writing)."""
        import tracemalloc
        from argparse import Namespace

        rng = np.random.default_rng(15)
        columns = list(rng.standard_normal((9, 2**15)))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            cli._emit(Namespace(output=str(path)),
                      cli.write_csv([f"c{j}" for j in range(9)], columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 5e6
        assert peak <= 1e6

    @pytest.mark.parametrize("vertices", [1, 255, 256, 257, 513])
    def test_svg_path_in_blocks_is_the_one_string_path(self, vertices):
        """The streamed <path> is the one '%' format of the whole polyline,
        in chunks of _CSV_BLOCK_ROWS vertices between its opening and its
        attributes."""
        rng = np.random.default_rng(vertices)
        xs, ys = rng.uniform(-1e3, 2e3, (2, vertices))
        coords = ("M%.6f,%.6f" + " L%.6f,%.6f" * (vertices - 1)) % tuple(
            np.column_stack([xs, ys]).ravel().tolist())
        expected = (f'<path d="{coords}" fill="none" stroke="black" '
                    f'stroke-width="1.50" stroke-dasharray="8,6"/>').encode()
        chunks = list(cli._svg_path(xs, ys, "black", 1.5, dashed=True))
        block = cli._CSV_BLOCK_ROWS
        assert len(chunks) == 2 + -(-vertices // block)
        assert b"".join(chunks) == expected
        document = b"".join(cli.svg_document(["<a/>", cli._svg_path(xs, ys, "black")]))
        assert document.decode() == (
            '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n'
            '<rect width="1000" height="1000" fill="white"/>\n<a/>\n'
            + b"".join(cli._svg_path(xs, ys, "black")).decode() + "\n</svg>\n")

    def test_svg_file_output_holds_one_block(self, tmp_path):
        """A 2^16-vertex path, 1.5 MB of text, is written with a traced peak
        of one block's text and floats (measured 32 kB; 6.7 MB when the
        whole path was one string)."""
        import tracemalloc
        from argparse import Namespace

        xs, ys = np.random.default_rng(16).uniform(0.0, 1e3, (2, 2**16))
        path = tmp_path / "big.svg"
        tracemalloc.start()
        try:
            cli._emit(Namespace(output=str(path)),
                      cli.svg_document([cli._svg_path(xs, ys, "black")]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 1.4e6
        assert peak <= 1e5

    @pytest.mark.parametrize("args", [
        ["curve", "--lambda", "-0.5", "--e2", "1.0"],
        ["phase-portrait", "--lambda=-1e20", "--format", "csv"],
        ["fiber", "--q", "4/3", "--steps", "20"],
    ])
    def test_failing_command_creates_no_file(self, args, tmp_path):
        path = tmp_path / "never.csv"
        code, out, err = run_cli(args + ["--out", str(path)])
        assert code == 65 and out == "" and err.startswith("error: ")
        assert not path.exists()


_VALID_CALLS = [
    ["classify", "--lambda", "-1.3", "--e2", "2.3"],
    ["scan-period", "--lambda", "-1.3", "--samples", "32"],
    ["find-string", "--lambda", "-1.01", "--q", "11/10"],
    ["curve", "--lambda", "-1.3", "--e2", "2.3", "--samples", "64"],
]


class TestSharedParser:
    def test_usage_error_leaves_later_calls_unchanged(self):
        fresh = []
        for args in _VALID_CALLS:
            cli._parser.cache_clear()
            fresh.append(run_cli(args))
        assert run_cli(["classify", "--lambda", "-1.3"])[0] == 64
        assert run_cli(["fiber", "--q", "0/1"])[0] == 64
        assert [run_cli(args) for args in _VALID_CALLS] == fresh
        assert cli._parser() is cli._parser()

    def test_concurrent_calls_match_sequential(self, tmp_path):
        def call(args, name):
            path = tmp_path / name
            code = cli.main(args + ["--out", str(path)])
            return code, path.read_text(encoding="utf-8")

        sequential = [call(args, f"seq-{i}") for i, args in enumerate(_VALID_CALLS)]
        results = [None] * len(_VALID_CALLS)

        def worker(i):
            results[i] = call(_VALID_CALLS[i], f"par-{i}")

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(_VALID_CALLS))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == sequential
        assert all(code == 0 for code, _ in sequential)


def test_scan_period_solves_boundary_quartic_once(monkeypatch):
    """One eta+- solve gives both ends of the scanned slice above lambda = -1,
    and they are the ones a_lower and eta_pm give."""
    lam, n = -0.95, 16
    a, eta_p = M.a_lower(lam), M.eta_pm(lam)[1]
    calls = []
    solve = M.eta_pm

    def counting(lam_arg):
        calls.append(lam_arg)
        return solve(lam_arg)

    monkeypatch.setattr(M, "eta_pm", counting)
    monkeypatch.setattr(periodmap, "eta_pm", counting)
    code, out, err = run_cli(["scan-period", "--lambda", str(lam),
                              "--samples", str(n)])
    assert (code, err, calls) == (0, "", [lam])
    heights = [float(row.split(",")[0]) for row in out.splitlines()[1:]]
    assert heights == (a + (eta_p - a) * np.arange(1, n + 1) / (n + 1.0)).tolist()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "halfelastica.cli", "classify", "--lambda",
         "-1.25", "--e2", "2.0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["region"] == "L"


# saddle heights eta-, and a point on the saddle boundary 2e-12 above it
@pytest.mark.parametrize("lam, e2", [
    ("-1.0", "1.0"), ("-1.2", "0.8673285543308487"),
    ("-0.9124405017295047", "1.127838485563682"),
    ("-50.0", "0.21559852289818898")])
def test_signature_at_saddle_writes_one_error_line(lam, e2):
    # a fresh interpreter, whose warnings print to stderr as a user sees
    proc = subprocess.run(
        [sys.executable, "-m", "halfelastica.cli", "signature",
         f"--lambda={lam}", "--e2", e2],
        capture_output=True, text=True)
    assert proc.returncode == 65 and proc.stdout == ""
    assert proc.stderr == "error: the constant solution carries no curvature flow\n"



def _assert_one_output_error(proc, stderr):
    # exit 74 (EX_IOERR) with one error line, and no traceback from main or
    # from the interpreter's exit flush
    assert proc.returncode == 74
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert stderr.endswith("\n")
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_closed_stdout_pipe_is_one_error_line():
    # a reader that stops after 100 bytes of a 0.7 MB table, as head -c 100
    proc = subprocess.Popen(
        [sys.executable, "-m", "halfelastica.cli", "curve", "--lambda",
         "-1.3", "--e2", "2.3", "--periods", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.wait()
    _assert_one_output_error(proc, stderr)
    assert stderr == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not pathlib.Path("/dev/full").exists(),
                    reason="needs the /dev/full device")
def test_full_stdout_is_one_error_line():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "halfelastica.cli", "classify",
             "--lambda", "-1.3", "--e2", "2.3"],
            stdout=full, stderr=subprocess.PIPE)
    _assert_one_output_error(proc, proc.stderr.decode())


def test_out_in_a_missing_directory_is_one_error_line(tmp_path):
    target = tmp_path / "missing" / "f.json"
    proc = subprocess.run(
        [sys.executable, "-m", "halfelastica.cli", "classify", "--lambda",
         "-1.3", "--e2", "2.3", "--out", str(target)],
        capture_output=True)
    _assert_one_output_error(proc, proc.stderr.decode())
    assert proc.stdout == b"" and str(target) in proc.stderr.decode()
    assert not target.parent.exists()

_COLD_START = """
import contextlib, io, json, sys
from halfelastica import cli, curvegen, dynamics, moduli, periodmap

def loaded():
    return [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    assert code == 0, (argv, code)

# a T-, an S, an L and an E point, each as CSV and as SVG
for lam, e2 in (("-1.3", "2.3"), ("-1.1", "1.0"), ("-2.0", "3.732050807568877"),
                ("-1.3", "2.477640202588786")):
    for fmt in ("csv", "svg"):
        run("curve", "--lambda", lam, "--e2", e2, "--samples", "64",
            "--format", fmt)
after_curves = loaded()
# every other subcommand, each of which solves roots
run("classify", "--lambda", "-1.25", "--e2", "2.0")
for fmt in ("csv", "svg"):
    run("signature", "--lambda", "-1.3", "--e2", "1.2", "--format", fmt)
    run("phase-portrait", "--lambda", "-1.3", "--format", fmt)
run("scan-period", "--lambda", "-1.3", "--samples", "16")
for fmt in ("json", "svg"):
    run("find-string", "--lambda", "-1.01", "--q", "11/10", "--format", fmt)
run("fiber", "--q", "19/16", "--steps", "20")
after_commands = loaded()
bindings = {f"{m.__name__}.{n}": callable(getattr(m, n, None))
            for m, n in ((moduli, "brentq"), (dynamics, "brentq"),
                         (curvegen, "brentq"), (periodmap, "brentq"),
                         (dynamics, "solve_ivp"), (curvegen, "solve_ivp"))}
moduli.eta_pm(-1.3)
after_root = loaded()
# the monodromy of a T-, an S, an L and an E point
for lam, e2 in ((-1.3, 2.3), (-1.1, 1.0), (-2.0, 3.732050807568877),
                (-1.3, 2.477640202588786)):
    curvegen.monodromy(moduli.resolve(lam, e2))
after_monodromy = loaded()
curvegen.frenet_oracle(moduli.resolve(-1.3, 2.3), samples=16)
print(json.dumps([after_curves, after_commands, bindings, after_root,
                  after_monodromy, loaded()]))
"""


def _callers_of(name):
    """Qualified names of the package's functions whose bodies call ``name``,
    read from the source under the package directory."""
    def called(call):
        func = getattr(call, "func", None)
        return getattr(func, "id", getattr(func, "attr", None)) == name

    callers = set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(called, ast.walk(node)))):
                callers.add(f"{path.stem}.{node.name}")
    return callers


def test_curve_command_loads_no_solver():
    """A fresh interpreter that imports the CLI and runs every subcommand
    (curve on a T-, S, L and E point), then takes the monodromy of such
    points, loads neither scipy.optimize nor scipy.integrate: root solves
    run on the package's own brentq, and the monodromy reads the closed-form
    frame.  The first ODE integration, which only the Frenet oracle makes,
    loads scipy.integrate (which imports scipy.optimize itself), through the
    module-global names that a tracer or a test may rebind."""
    proc = subprocess.run([sys.executable, "-c", _COLD_START],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (after_curves, after_commands, bindings, after_root, after_monodromy,
     after_ode) = json.loads(proc.stdout)
    assert after_curves == after_commands == []
    assert bindings == dict.fromkeys(bindings, True) and len(bindings) == 6
    assert after_root == after_monodromy == []
    assert after_ode == ["scipy.optimize", "scipy.integrate"]
    assert _callers_of("solve_ivp") == {"curvegen.frenet_oracle"}
