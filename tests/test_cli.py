import dataclasses
import math
import os
import re
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from bosonic_dd import cli, dyson, evolution, spin_boson
from bosonic_dd.cli import main


def run(args):
    return main(args)


def per_row_lines(check, report):
    """Oracle: a condition report's verify CSV lines, one f-string per row
    of its columns."""
    lines = []
    for j, (b, value, required, ok) in enumerate(zip(
            report.budget.tolist(), report.values.tolist(),
            report.required_zero.tolist(), report.row_passes.tolist())):
        s, powers = report.budgets[b]
        labels = ";".join("".join(str(bit) for bit in np.ravel(report.alphabet[p]).tolist())
                          for p in report.picks[j, :s].tolist())
        lines.append(f"{check},{s},{';'.join(str(r) for r in powers)},{labels},"
                     f"{value:.17g},{int(required)},{int(ok)}\n")
    return lines


def body_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


class TestSchedule:
    def test_decoupling_line_count(self, tmp_path):
        out = tmp_path / "dec.txt"
        assert run(["schedule", "--scheme", "decoupling", "--N", "2",
                    "--nS", "1", "--out", str(out)]) == 0
        assert len(body_lines(out)) == 2

    def test_nudd_line_count(self, tmp_path):
        out = tmp_path / "nudd.txt"
        assert run(["schedule", "--scheme", "qubit-nudd", "--N", "1",
                    "--m", "1", "--out", str(out)]) == 0
        assert len(body_lines(out)) == 16

    def test_homogenization_line_count(self, tmp_path):
        out = tmp_path / "hom.txt"
        assert run(["schedule", "--scheme", "homogenization", "--N", "1",
                    "--m", "1", "--out", str(out)]) == 0
        assert len(body_lines(out)) == 8

    def test_bad_order(self, tmp_path):
        assert run(["schedule", "--scheme", "decoupling", "--N", "0",
                    "--nS", "1", "--out", str(tmp_path / "x.txt")]) == 2

    @pytest.mark.parametrize("n_system", ["0", "-3"])
    def test_nonpositive_mode_count(self, tmp_path, capsys, n_system):
        out = tmp_path / "x.txt"
        assert run(["schedule", "--scheme", "decoupling", "--N", "2",
                    "--nS", n_system, "--out", str(out)]) == 2
        assert "error: n_system must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_idempotent(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            run(["schedule", "--scheme", "homogenization", "--N", "2",
                 "--m", "1", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestSweeps:
    def test_decouple_sweep_passes_and_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["decouple-sweep", "--seed", "3", "--N", "1", "--nS", "1",
                "--nE", "1", "--points", "6", "--tmin", "1e-3",
                "--tmax", "1e-1"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "T,residual,omega,bound,floor"

    def test_zero_coupling_floor_flags(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert run(["decouple-sweep", "--seed", "1", "--N", "1", "--nS", "1",
                    "--nE", "1", "--scale-se", "0.0", "--points", "4",
                    "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(row.split(",")[4] == "1" for row in rows)

    def test_no_environment_floor_flags(self, tmp_path, capsys):
        # without an environment every residual is 0: no slope claim, exit 0
        out = tmp_path / "closed.csv"
        assert run(["decouple-sweep", "--seed", "7", "--N", "2", "--nS", "1",
                    "--nE", "0", "--points", "4", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.split(",")[4] == "1" for row in rows)
        assert capsys.readouterr().err == ""

    def test_homogenize_sweep(self, tmp_path):
        out = tmp_path / "hom.csv"
        assert run(["homogenize-sweep", "--seed", "2", "--N", "1", "--m", "1",
                    "--nE", "1", "--points", "6", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        # omega column populated
        assert all(row.split(",")[2] != "" for row in rows)

    def test_sweep_without_a_fit_says_why(self, tmp_path, capsys):
        # every residual of this sweep lies below the fit window: no slope
        out = tmp_path / "hom.csv"
        assert run(["homogenize-sweep", "--seed", "7", "--N", "4", "--m", "1",
                    "--nE", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "slope acceptance failed: only 0 of 10 points inside the fit window "
            "[1e-12, 0.01] (10 below, 0 above); widen --tmin/--tmax\n")
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 10 and all(row.split(",")[4] == "1" for row in rows)

    def test_bound_past_the_float_range_reads_inf(self, tmp_path, capsys):
        # (J0+Jz)T passes 709.78 at T = 250, where e^x leaves the float range
        out = tmp_path / "dec.csv"
        assert run(["decouple-sweep", "--tmin", "1", "--tmax", "250", "--points", "3",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "only 0 of 3 points inside the fit window" in err and "Traceback" not in err
        bounds = [row.split(",")[3] for row in out.read_text().splitlines()[1:]]
        assert bounds[-1] == "inf" and all(b != "inf" for b in bounds[:-1])

    @pytest.mark.parametrize("argv", [
        ["homogenize-sweep", "--seed", "7", "--N", "3", "--m", "2", "--nE", "1",
         "--degree", "1", "--tmin", "1e-1", "--tmax", "1"],
        # its middle segment at T = 1 needs more than 256 CF4 steps
        ["decouple-sweep", "--seed", "7", "--N", "4", "--nS", "2", "--nE", "4",
         "--degree", "2", "--tmin", "1e-1", "--tmax", "1"],
    ], ids=["homogenization-N3-m2", "decoupling-N4-degree2"])
    def test_paper_scale_time_dependent_sweep(self, tmp_path, argv):
        out = tmp_path / "s.csv"
        assert run(argv + ["--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        fit = [(math.log(float(T)), math.log(float(r))) for T, r, *_ in rows
               if 1e-12 <= float(r) <= 1e-2]
        assert len(rows) == 10 and len(fit) >= 3
        order = int(argv[argv.index("--N") + 1])
        assert order + 0.7 <= np.polyfit(*zip(*fit), 1)[0] <= order + 1.5

    @pytest.mark.parametrize("flags, code", [
        (["--N", "2", "--m", "4", "--tmin", "1e-1", "--tmax", "1"], 0),
        (["--N", "4", "--m", "3", "--tmin", "4e-1", "--tmax", "3"], 0),
        # four points of this grid sit at the walk's rounding floor, just
        # inside the fit window, and pull the slope to 3
        (["--N", "4", "--m", "3", "--tmin", "1e-1", "--tmax", "1"], 1),
    ], ids=["N2-m4", "N4-m3", "N4-m3-floor"])
    def test_paper_scale_constant_sweep(self, tmp_path, capsys, flags, code):
        # the builder's largest homogenization schedules: 19,684 and 78,126
        # segments a walk, formed from 56 and 121 distinct factors
        out = tmp_path / "s.csv"
        assert run(["homogenize-sweep", "--seed", "7", "--nE", "1", *flags,
                    "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("slope acceptance failed: slope=")
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert len(rows) == 10 and all(math.isfinite(float(row[2])) for row in rows)

    def test_sweep_work_count(self):
        # the sweep-timedep benchmark argv at seed 7: one batched walk per
        # round, two rounds, the second of only the 2 re-tightened points,
        # and norm-sized first passes: 1,232 CF4 steps.  Per-point walks,
        # fixed 16-step first passes (2,656 steps) or a second round over
        # all 10 points would fail here
        argv = ["decouple-sweep", "--seed", "7", "--N", "4", "--nS", "2", "--nE", "4",
                "--degree", "2", "--tmin", "1e-2", "--tmax", "3e-1", "--out", os.devnull]
        with mock.patch.object(evolution, "_walk", wraps=evolution._walk) as walks, \
                mock.patch.object(evolution, "_cf4_pass",
                                  wraps=evolution._cf4_pass) as passes:
            assert run(argv) == 0
        assert walks.call_count == 2
        grid = walks.call_args_list[0].args[3]
        assert len(grid) == 10 and (walks.call_args_list[0].args[4] == 1e-12).all()
        T, tols = walks.call_args_list[1].args[3:5]
        assert T.tolist() == grid[:2].tolist() and (tols < 1e-12).all()
        steps = sum(int(call.args[3].sum()) for call in passes.call_args_list)
        assert steps <= 1300

    def test_one_cf4_pass_per_refinement_round(self):
        # the sweep-timedep benchmark argv at seed 11: every refinement round
        # of a walk passes all its unconverged segments, whatever their step
        # counts, in one _cf4_pass call: 7 calls for 1,538 CF4 steps and
        # 3,076 factor matrices.  A call per step count makes 23.  The
        # factors go to the Taylor kernel in full calls of 28 (dim 12): 59
        # calls, where a call per run of intervals of one step count made 74
        argv = ["decouple-sweep", "--seed", "11", "--N", "4", "--nS", "2", "--nE", "4",
                "--degree", "2", "--tmin", "1e-2", "--tmax", "3e-1", "--out", os.devnull]
        with mock.patch.object(evolution, "_walk", wraps=evolution._walk) as walks, \
                mock.patch.object(evolution, "_converged",
                                  wraps=evolution._converged) as tests, \
                mock.patch.object(evolution, "_cf4_pass",
                                  wraps=evolution._cf4_pass) as passes, \
                mock.patch.object(evolution, "_taylor_exponential",
                                  wraps=evolution._taylor_exponential) as kernel:
            assert run(argv) == 0
        # a walk's _flows tests convergence once after each pass but its first
        assert passes.call_count - walks.call_count == tests.call_count
        assert passes.call_count == 7
        assert max(len(set(call.args[3].tolist())) for call in passes.call_args_list) == 5
        assert sum(int(call.args[3].sum()) for call in passes.call_args_list) == 1538
        factors = [call.args[0] for call in kernel.call_args_list]
        assert sum(F.size // F.shape[-1] ** 2 for F in factors) == 3076
        assert all(F.size <= evolution.CF4_BLOCK_ELEMENTS for F in factors)
        assert kernel.call_count <= 62

    @pytest.mark.parametrize("degree", ["0", "1"])
    def test_sweep_past_the_float_range(self, tmp_path, capsys, degree):
        # degree 0: the exact flows overflow; degree 1: the first-pass sizing
        # refuses a generator bound of inf before any pass
        out = tmp_path / "s.csv"
        assert run(["decouple-sweep", "--tmin", "1e299", "--tmax", "1e300", "--points",
                    "2", "--degree", degree, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "T = 1e+299" in err
        assert not out.exists()

    def test_bound_past_the_factorial_range(self, tmp_path, capsys):
        # (N+1)! leaves the float range at N = 170: the bound reads 0
        out = tmp_path / "s.csv"
        assert run(["decouple-sweep", "--N", "171", "--points", "3", "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        assert [row.split(",")[3] for row in out.read_text().splitlines()[1:]] == ["0"] * 3

    def test_homogenize_rejects_bad_mode_count(self, tmp_path, capsys):
        # --m fixes the 2^m system modes, so there is no --nS flag to set them
        with pytest.raises(SystemExit) as exit_:
            run(["homogenize-sweep", "--N", "1", "--m", "1", "--nS", "2",
                 "--out", str(tmp_path / "x.csv")])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --nS 2" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path):
        assert run(["decouple-sweep", "--tmin", "0.1", "--tmax", "0.01",
                    "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("command,flags", [
        ("decouple-sweep", ["--scale-ss", "nan"]),
        ("decouple-sweep", ["--scale-se", "inf"]),
        ("decouple-sweep", ["--scale-ee", "-1"]),
        ("decouple-sweep", ["--tol", "0"]),
        ("decouple-sweep", ["--tol", "nan", "--degree", "1"]),
        ("decouple-sweep", ["--degree", "5"]),
        ("homogenize-sweep", ["--tol=-1e-12"]),
        ("homogenize-sweep", ["--tol", "nan", "--degree", "1"]),
        ("homogenize-sweep", ["--degree", "-1"]),
        ("verify", ["--check", "udd", "--tol", "nan"]),
        ("verify", ["--check", "udd", "--tol", "0"]),
        ("verify", ["--check", "udd", "--tol=-1"]),
        # a tolerance at which every check passes: the mutation self-test too
        ("verify", ["--check", "homogenization", "--mutate", "--tol", "inf"]),
        ("verify", ["--check", "homogenization", "--mutate", "--tol", "1"]),
        # at tolerance inf a time-dependent walk would converge before any pass
        ("decouple-sweep", ["--tol", "inf", "--degree", "1"]),
        ("homogenize-sweep", ["--tol", "inf", "--degree", "1"]),
    ], ids=["scale-ss-nan", "scale-se-inf", "scale-ee-negative", "tol-zero",
            "tol-nan", "degree-5", "hom-tol-negative", "hom-tol-nan",
            "hom-degree-negative", "verify-tol-nan", "verify-tol-zero",
            "verify-tol-negative", "verify-tol-inf", "verify-tol-one", "tol-inf",
            "hom-tol-inf"])
    def test_bad_sweep_input(self, tmp_path, capsys, command, flags):
        out = tmp_path / "s.csv"
        points = [] if command == "verify" else ["--points", "3"]
        assert run([command, *flags, *points, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if "--tol" in " ".join(flags):  # verify's own check, else the integrator's
            assert re.fullmatch(r"error: --tol must lie in \(0, 1\)\n" if command == "verify"
                                else r"error: tolerance must be finite and positive, got \S+\n",
                                err)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--N", "1", "--nS", "1", "--nE", "1", "--degree", "1", "--tol", "1e-16",
         "--points", "3"],
        ["--N", "4", "--nS", "2", "--nE", "4", "--degree", "2", "--tmin", "1e-2",
         "--tmax", "1.0", "--tol", "1e-14"],
    ], ids=["small", "deep"])
    def test_unreachable_tolerance(self, tmp_path, capsys, flags):
        # step halving runs out of its step budget: a usage error, not a traceback
        out = tmp_path / "s.csv"
        assert run(["decouple-sweep", "--seed", "7", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: propagator did not reach tolerance ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["schedule", "--scheme", "homogenization", "--N", "1", "--m", "5"],
        ["homogenize-sweep", "--N", "1", "--m", "5"],
    ], ids=["schedule", "homogenize-sweep"])
    def test_m_beyond_the_basis_guard(self, tmp_path, capsys, command):
        # m is bounded by pauli_basis.MAX_M = 4 on every homogenization path,
        # before any 2^m-mode generator is built
        out = tmp_path / "o.txt"
        with mock.patch.object(evolution, "random_generator",
                               side_effect=AssertionError("generator built")) as build:
            assert run([*command, "--out", str(out)]) == 2
        assert not build.called
        err = capsys.readouterr().err
        assert err == "error: m=5 exceeds the exhaustive-enumeration guard (max 4)\n"
        assert not out.exists()


@pytest.mark.parametrize("argv, code, out, err", [
    # a slope outside [N+0.7, N+1.5]: the sweep leaves the perturbative regime
    (["homogenize-sweep", "--N", "3", "--tmin", "0.3", "--tmax", "3", "--degree", "1",
      "--out", os.devnull], 1, "",
     r"slope acceptance failed: slope=4\.8\d* window=\[3\.7,4\.5\]\n"),
    (["schedule", "--N", "1", "--out", "-"], 0,
     "#scheme decoupling\n#N 1\n#m -\n#nS 1\n# bits: index pairs innermost-level first, "
     "x-bit then z-bit per position; flip schedules use the single bit 1\n"
     "0.49999999999999989\t1\n", ""),
    # N, nS, nE and m are checked where the library first uses them
    (["decouple-sweep", "--N", "0", "--out", "{out}"], 2, "", r"error: need at least one pulse\n"),
    (["decouple-sweep", "--nS", "0", "--out", "{out}"], 2, "",
     r"error: need at least one system mode\n"),
    (["decouple-sweep", "--nE", "-1", "--out", "{out}"], 2, "",
     r"error: environment mode count must be nonnegative\n"),
    (["homogenize-sweep", "--N", "0", "--out", "{out}"], 2, "",
     r"error: suppression order must be >= 1\n"),
    (["homogenize-sweep", "--m", "-1", "--out", "{out}"], 2, "",
     r"error: m must be nonnegative\n"),
    (["verify", "--check", "homogenization", "--mutate", "--m", "0", "--out", "{out}"], 2,
     "", r"error: the mutation self-test needs m >= 1\n"),
    (["spectrum", "--nE", "0", "--out", "{out}"], 2, "",
     r"error: need at least one bath line\n"),
    # numpy's own message for a negative seed does not name the seed
    (["decouple-sweep", "--seed", "-1", "--out", "{out}"], 2, "",
     r"error: seed must be nonnegative, got -1\n"),
    (["homogenize-sweep", "--seed", "-3", "--out", "{out}"], 2, "",
     r"error: seed must be nonnegative, got -3\n"),
    (["spectrum", "--seed", "-1", "--out", "{out}"], 2, "",
     r"error: seed must be nonnegative, got -1\n"),
    (["schedule", "--config", "{config}", "--out", "{out}"], 2, "",
     r"error: config file \S+ is not UTF-8 text\n"),
    # the generator check is scale-free: no norm overflows, so no numpy warning
    (["decouple-sweep", "--scale-ss", "1e200", "--points", "2", "--out", "{out}"], 2, "",
     r"error: the evolution to T = 0\.001 leaves the float range\n"),
    # a walk whose products overflow reports it once, with no numpy or scipy warning
    (["decouple-sweep", "--tmin", "1e3", "--tmax", "1e5", "--points", "3", "--out", "{out}"],
     2, "", r"error: the evolution to T = 1000\.0 leaves the float range\n"),
    (["homogenize-sweep", "--tmin", "1e3", "--tmax", "1e5", "--points", "3", "--out",
      "{out}"], 2, "", r"error: the evolution to T = 10000\.0 leaves the float range\n"),
    (["spectrum", "--L", "2", "--tmax", "1e300", "--cross-validate", "--out", "{out}"], 2, "",
     r"error: the evolution to T = 2\.5993687807452343e\+30 leaves the float range\n"),
    # a closed-form channel past the float range: its line weights (lambda/omega)^2,
    # or its thermal weights coth(beta omega / 2), overflow without a numpy warning
    (["spectrum", "--coupling-scale", "1e300", "--out", "{out}"], 2, "",
     r"error: the evolution to T = 0\.049999999999999996 leaves the float range\n"),
    (["spectrum", "--beta", "1e-320", "--out", "{out}"], 2, "",
     r"error: the evolution to T = 0\.049999999999999996 leaves the float range\n"),
], ids=["slope-outside-window", "stdout", "decouple-N", "decouple-nS", "decouple-nE",
        "homogenize-N", "homogenize-m", "mutate-m0", "spectrum-nE0", "decouple-seed",
        "homogenize-seed", "spectrum-seed", "config-not-utf8", "scale-overflow",
        "decouple-overflow", "homogenize-overflow", "spectrum-overflow",
        "channel-coupling-overflow", "channel-thermal-overflow"])
def test_input_check(tmp_path, capsys, argv, code, out, err):
    config = tmp_path / "latin1.cfg"
    config.write_bytes("scheme=d\xe9couplage\n".encode("latin-1"))
    target = tmp_path / "o.csv"
    assert run([a.format(out=target, config=config) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert re.fullmatch(err, captured.err)
    if code == 2:
        assert not target.exists()


class TestOutput:
    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_unopenable_output_is_a_usage_error(self, tmp_path, capsys, how):
        if how == "flag":
            argv = ["--out", str(tmp_path / "missing" / "x.txt")]
        else:  # an empty value names no file
            cfg = tmp_path / "run.cfg"
            cfg.write_text("out=\n")
            argv = ["--config", str(cfg)]
        assert run(["schedule", "--N", "2", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestVerify:
    def test_requires_checks(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path / "v.csv")]) == 2

    def test_small_suite_passes(self, tmp_path):
        out = tmp_path / "v.csv"
        assert run(["verify", "--check", "all", "--N", "1", "--m", "1",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,s,r,labels,value,required_zero,pass"
        assert len(lines) > 3

    def test_all_equals_the_single_checks_concatenated(self, tmp_path):
        header = "check,s,r,labels,value,required_zero,pass\n"
        rows = []
        for check in ("basis", "udd", "nudd", "homogenization", "correspondence"):
            out = tmp_path / f"{check}.csv"
            assert run(["verify", "--check", check, "--N", "2", "--m", "1",
                        "--out", str(out)]) == 0
            text = out.read_text()
            assert text.startswith(header)
            rows.append(text[len(header):])
        out = tmp_path / "all.csv"
        assert run(["verify", "--check", "all", "--N", "2", "--m", "1", "--out", str(out)]) == 0
        assert out.read_text() == header + "".join(rows)

    def test_mutation_detected(self, tmp_path):
        assert run(["verify", "--check", "homogenization", "--N", "2",
                    "--m", "1", "--mutate", "--out", str(tmp_path / "m.csv")]) == 1

    def test_udd_budget_guard(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert run(["verify", "--check", "udd", "--N", "13", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: budget guard: order <= 12\n"
        assert not out.exists()

    @pytest.mark.parametrize("check", ["nudd", "homogenization"])
    def test_order_guard_before_budgets(self, tmp_path, capsys, check):
        # the label guard alone admits N = 25 at m = 0; the budgets must not
        # be enumerated, so the patched enumeration fails the test if called
        out = tmp_path / "v.csv"
        with mock.patch.object(dyson, "_budget_pairs",
                               side_effect=AssertionError("budgets enumerated")):
            assert run(["verify", "--check", check, "--N", "25", "--m", "0",
                        "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: budget guard: order <= 12\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, max_tuples, code", [
        (["--check", "udd", "--N", "3"], None, 0),  # the witness row is the last
        (["--check", "nudd", "--N", "2", "--m", "1"], 40, 0),  # sampled
        (["--check", "homogenization", "--check", "correspondence", "--N", "2", "--m", "1"],
         None, 0),
        (["--check", "homogenization", "--N", "2", "--m", "1", "--mutate"], None, 1),
    ], ids=["udd", "nudd-sampled", "homogenization", "mutate"])
    def test_rows_equal_the_per_row_oracle(self, tmp_path, flags, max_tuples, code):
        # the writer formats a whole report with one template; each report's
        # rows must read as one f-string per row of its columns
        out = tmp_path / "v.csv"
        with mock.patch.object(cli, "_report_lines", wraps=cli._report_lines) as writer, \
                mock.patch.object(dyson, "MAX_TUPLES", max_tuples or dyson.MAX_TUPLES):
            assert run(["verify", *flags, "--out", str(out)]) == code
        reports = [call.args for call in writer.call_args_list]
        assert len(reports) == 1
        check, report = reports[0]
        assert report.exhaustive == (max_tuples is None)
        assert report.passed == (code == 0)
        lines = out.read_text().splitlines(keepends=True)
        assert lines[1:1 + len(report.values)] == per_row_lines(check, report)
        assert len(lines) == 1 + len(report.values) + ("correspondence" in flags)

    def test_non_finite_values_equal_the_per_row_oracle(self):
        report = dyson.check_udd_condition(3)
        values = report.values.copy()
        values[:4] = [math.nan, math.inf, -math.inf, -0.0]
        report = dataclasses.replace(report, values=values)
        text = cli._report_lines("udd", report)
        assert text.splitlines(keepends=True) == per_row_lines("udd", report)
        assert text.split("\n")[0].split(",")[4:] == ["nan", "1", "0"]

    def test_repeated_values_formatted_once_per_bit_pattern(self):
        # the writer formats each distinct value once, keyed by its bits: 0.0
        # and -0.0 (and NaNs of either sign) are apart, equal values share text
        report = dyson.check_homogenization_condition(2, 1)
        values = report.values.copy()
        special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
        values[:4 * len(special)] = special * 4
        values[-3:] = values[len(special):len(special) + 3]  # -0.0, nan, -nan again
        report = dataclasses.replace(report, values=values)
        assert len(np.unique(report.values)) < len(report.values)
        with mock.patch.object(cli, "_fmt", wraps=cli._fmt) as fmt:
            text = cli._report_lines("homogenization", report)
        assert text.splitlines(keepends=True) == per_row_lines("homogenization", report)
        bits = np.array([call.args[0] for call in fmt.call_args_list]).view(np.int64)
        assert sorted(bits.tolist()) == np.unique(values.view(np.int64)).tolist()
        assert [line.split(",")[4] for line in text.splitlines()[:len(special)]] == \
            ["0", "-0", "nan", "nan", "inf", "-inf"]

    @pytest.mark.parametrize("block", [1, 5, 101])
    def test_blocks_smaller_than_the_report_write_the_same_lines(self, block):
        # the table of text parts is built per block of rows; the lines, and
        # the one _fmt call per distinct value, are those of the whole report
        report = dyson.check_homogenization_condition(2, 1)  # 102 rows
        assert len(report.values) > block
        whole = cli._report_lines("homogenization", report)
        with mock.patch.object(cli, "REPORT_BLOCK_ROWS", block), \
                mock.patch.object(cli, "_fmt", wraps=cli._fmt) as fmt:
            text = cli._report_lines("homogenization", report)
        assert text == whole == "".join(per_row_lines("homogenization", report))
        assert fmt.call_count == len(np.unique(report.values.view(np.int64)))

    def test_unknown_check(self, tmp_path):
        with pytest.raises(SystemExit) as exit_:  # argparse rejects it
            run(["verify", "--check", "bogus", "--out", str(tmp_path / "u.csv")])
        assert exit_.value.code == 2


class TestSpectrum:
    def test_odd_pulse_count_rejected(self, tmp_path):
        assert run(["spectrum", "--L", "3", "--out", str(tmp_path / "s.csv")]) == 2

    def test_zero_couplings_zero_columns(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--L", "2", "--coupling-scale", "0.0",
                    "--points", "5", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        for row in rows:
            assert float(row[1]) == 0.0  # x (udd train)
            assert float(row[2]) == 0.0  # y (udd train)

    def test_comparison_columns_present(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--L", "2", "--points", "4",
                    "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["T", "x_udd", "y_udd", "yL2_udd",
                          "x_periodic", "y_periodic", "yL2_periodic"]

    def test_cross_validate_column(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--L", "2", "--points", "3", "--nE", "2",
                    "--cross-validate", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        for row in rows:
            assert float(row[4]) < 1e-8  # dev_udd
            assert float(row[8]) < 1e-8  # dev_periodic

    @pytest.mark.parametrize("flags, message", [
        (["--beta", "0"], "inverse temperature must be positive (math.inf allowed)"),
        (["--beta", "-1"], "inverse temperature must be positive (math.inf allowed)"),
        (["--tmax", "1e400"], "need finite 0 < tmin < tmax and at least two grid points"),
        (["--coupling-scale", "nan"], "bath couplings must be finite"),  # BathSpec's check
    ], ids=["beta-zero", "beta-negative", "tmax-overflow", "coupling-nan"])
    def test_bad_numeric_input(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s.csv"
        assert run(["spectrum", *flags, "--points", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_cross_validate_walks_once_per_train(self, tmp_path):
        out = tmp_path / "s.csv"
        with mock.patch.object(spin_boson, "resulting_evolution",
                               wraps=spin_boson.resulting_evolution) as walks:
            assert run(["spectrum", "--cross-validate", "--points", "5",
                        "--out", str(out)]) == 0
        assert walks.call_count == 2  # the udd and the periodic train
        assert all(len(call.args[2]) == 5 for call in walks.call_args_list)

    def test_largest_finite_channel_is_written(self, tmp_path, capsys):
        # couplings of 1e150 put x and y near 1e299, inside the float range:
        # the rows are the library's columns, written without a warning
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--coupling-scale", "1e150", "--points", "3",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        grid, bath = cli._t_grid(0.05, 2.0, 3), cli._seeded_bath(0, 3, 1.0, 1e150)
        columns = [grid]
        for deltas in (spin_boson.even_flip_train(2), (0.5, 1.0)):
            columns += [*spin_boson.channel_columns(grid, bath, deltas),
                        np.abs(spin_boson.y_filter(max(bath.frequencies) * np.array(grid),
                                                   deltas)) ** 2]
        lines = out.read_text().splitlines()
        assert lines[1:] == [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]
        assert 1e298 < max(abs(v) for column in columns for v in column) < math.inf

    def test_vacuum_beta_allowed(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--beta", "inf", "--points", "3",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_rows_equal_the_per_value_format(self, tmp_path):
        # the row writer against one _fmt call per value over the same columns
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--seed", "2", "--nE", "3", "--L", "4", "--points", "6",
                    "--tmin", "0.05", "--tmax", "4.0", "--beta", "2.0",
                    "--coupling-scale", "0.4", "--cross-validate", "--out", str(out)]) == 0
        grid, bath = cli._t_grid(0.05, 4.0, 6), cli._seeded_bath(2, 3, 2.0, 0.4)
        columns = [grid]
        for deltas in (spin_boson.even_flip_train(4), (0.25, 0.5, 0.75, 1.0)):
            columns += [*spin_boson.channel_columns(grid, bath, deltas),
                        np.abs(spin_boson.y_filter(max(bath.frequencies) * np.array(grid),
                                                   deltas)) ** 2,
                        spin_boson.cross_validate(bath, deltas, grid)]
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert lines[1:] == [",".join(cli._fmt(v) for v in row) for row in zip(*columns)]

    def test_columns_match_per_point_library_calls(self, tmp_path):
        # each column is computed over the whole grid at once; the values
        # equal the scalar calls at every grid point
        from bosonic_dd import cli, spin_boson

        out = tmp_path / "s.csv"
        assert run(["spectrum", "--seed", "4", "--nE", "5", "--L", "4",
                    "--points", "7", "--out", str(out)]) == 0
        rows = [[float(v) for v in r.split(",")]
                for r in out.read_text().splitlines()[1:]]
        bath = cli._seeded_bath(4, 5, 1.0, 0.3)
        deltas = spin_boson.even_flip_train(4)
        scale = sum((lam / om) ** 2 for lam, om in
                    zip(bath.couplings, bath.frequencies)) * max(bath.thermal_weights())
        for row in rows:
            T = row[0]
            assert row[1] == pytest.approx(
                spin_boson.shear_parameter(T, bath, deltas), abs=1e-12 * scale)
            assert row[2] == pytest.approx(
                spin_boson.added_noise(T, bath, deltas), abs=1e-12 * scale)


# every value flag of each subcommand but --out, set to a value that is not its
# default, spelled as a config key (a flag's long name, with '-' or '_'); True
# marks a switch; the pair is an explicit flag that must beat its config line
CONFIG_RUNS = {
    "schedule": ([], {"scheme": "homogenization", "N": "2", "m": "2", "nS": "2"},
                 ["--N", "1"]),
    "decouple-sweep": ([], {"seed": "5", "N": "1", "nE": "2", "degree": "1",
                            "tmin": "2e-3", "tmax": "5e-2", "points": "4", "tol": "1e-11",
                            "nS": "2", "scale-ss": "0.5", "scale_se": "0.8",
                            "scale-ee": "0.7"},
                       ["--points", "3"]),
    "homogenize-sweep": ([], {"seed": "4", "N": "2", "nE": "2", "degree": "1",
                              "tmin": "2e-3", "tmax": "5e-2", "points": "4",
                              "tol": "1e-11", "m": "0"},
                         ["--seed", "6"]),
    "verify": (["--check", "homogenization"], {"N": "1", "m": "2", "tol": "1e-9",
                                               "mutate": True},
               ["--N", "2"]),
    "spectrum": ([], {"seed": "3", "nE": "2", "beta": "2.0", "L": "4",
                      "coupling_scale": "0.2", "tmin": "0.1", "tmax": "1.0",
                      "points": "3", "cross-validate": True},
                 ["--L", "2"]),
}


class TestConfigFile:
    @pytest.mark.parametrize("command", CONFIG_RUNS)
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, command):
        extra, values, override = CONFIG_RUNS[command]
        parser = cli.build_parser().parse_args([command, *extra]).subparser
        actions = {a.dest: a for a in parser._actions
                   if a.dest not in ("help", "config", "check", "out")}
        assert {key.replace("-", "_") for key in values} == set(actions)
        for key, value in values.items():
            action = actions[key.replace("-", "_")]
            assert (value if value is True else (action.type or str)(value)) != action.default
        argv = [command, *extra]
        for key, value in values.items():
            argv += [f"--{key.replace('_', '-')}"] + ([] if value is True else [value])
        paths = {name: tmp_path / f"{name}.out" for name in ("config", "flags", "a", "b")}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# every flag\ncheck=bogus\nno_such_flag=1\n"
                       + "".join(f"{key}={'yes' if value is True else value}\n"
                                 for key, value in values.items())
                       + f"out={paths['config']}\n")
        code = run([command, *extra, "--config", str(cfg)])
        assert run([*argv, "--out", str(paths["flags"])]) == code
        assert paths["config"].read_bytes() == paths["flags"].read_bytes()
        # an explicit flag beats its config line, --out among them
        code = run([command, *extra, "--config", str(cfg), *override, "--out", str(paths["a"])])
        assert run([*argv, *override, "--out", str(paths["b"])]) == code
        assert paths["a"].read_bytes() == paths["b"].read_bytes()
        assert paths["a"].read_bytes() != paths["config"].read_bytes()

    @pytest.mark.parametrize("command", CONFIG_RUNS)
    def test_help_shows_every_default(self, capsys, command):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        extra = CONFIG_RUNS[command][0]
        parser = cli.build_parser().parse_args([command, *extra]).subparser
        actions = [a for a in parser._actions if a.dest != "help"]
        assert text.count("(default: ") == len(actions)
        for action in actions:
            assert f"(default: {action.default})" in text

    @pytest.mark.parametrize("word,columns", [("1", 9), ("YES", 9), ("True", 9),
                                              ("0", 7), ("no", 7), ("False", 7)])
    def test_boolean_config_words(self, tmp_path, word, columns):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"cross_validate={word}\n")
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--points", "3", "--config", str(cfg),
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()[0].split(",")) == columns

    @pytest.mark.parametrize("count,code", [(2, 0), (3, 2)])
    def test_config_value_takes_the_flag_type(self, tmp_path, count, code):
        # L's config value is cast to int like the flag, so an odd count is
        # the same usage error as on the command line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"L={count}\n")
        assert run(["spectrum", "--points", "3", "--config", str(cfg),
                    "--out", str(tmp_path / "s.csv")]) == code


class TestOneParser:
    @staticmethod
    def declared():
        """Every subparser's defaults: its flags' and its own (func, subparser)."""
        return {command: ({a.dest: a.default for a in parser._actions}, parser._defaults.copy())
                for command, parser in ((c, cli.build_parser().parse_args(
                    [c, *CONFIG_RUNS[c][0]]).subparser) for c in CONFIG_RUNS)}

    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_config_runs_leave_the_declared_defaults(self, tmp_path):
        before = self.declared()
        for command, (extra, values, _) in CONFIG_RUNS.items():
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text("".join(f"{key}={'yes' if value is True else value}\n"
                                   for key, value in values.items()))
            run([command, *extra, "--config", str(cfg), "--out", str(tmp_path / "c.out")])
        assert self.declared() == before
        # a plain run after them reads the declared defaults: decoupling, N = 1
        out = tmp_path / "plain.txt"
        assert run(["schedule", "--out", str(out)]) == 0
        assert len(body_lines(out)) == 1

    def test_argv_from_the_process(self, tmp_path, monkeypatch):
        cfg, out = tmp_path / "run.cfg", tmp_path / "hom.txt"
        cfg.write_text("scheme=homogenization\n")
        monkeypatch.setattr(sys, "argv", ["bosonic-dd", "schedule", "--config", str(cfg),
                                          "--m", "1", "--out", str(out)])
        assert main() == 0
        assert len(body_lines(out)) == 8


class TestBenchmarkWorkloads:
    """The benchmark's argvs pass their own output checks.  The workload file
    is executed from its source, so no bytecode is written beside it."""

    @pytest.fixture(scope="class")
    def workloads(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        module = types.ModuleType("perfbench_workloads")
        # dataclasses look the defining module up by name
        with mock.patch.dict(sys.modules, {module.__name__: module}):
            exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
        return module.WORKLOADS

    NAMES = ("sweep-const", "sweep-timedep", "verify-nested", "spectrum-closed")

    def test_every_workload_is_run(self, workloads):
        assert sorted(workloads) == sorted(self.NAMES)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("seed", [0, 2 ** 31 - 1])  # the ends of the op-seed range
    def test_argv_passes_its_check(self, tmp_path, workloads, name, seed):
        out = tmp_path / "op.csv"
        assert run(workloads[name].argv(seed, str(out))) == 0
        assert workloads[name].check(out.read_text()) is None


class TestLargeVerify:
    def test_nudd_n2_m2_passes(self, tmp_path):
        out = tmp_path / "nudd.csv"
        assert run(["verify", "--check", "nudd", "--N", "2", "--m", "2",
                    "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4158  # every non-exempt tuple with s + sum(r) <= 2
        assert all(row[-1] == "1" for row in rows)


SUBCOMMANDS = ("schedule", "decouple-sweep", "homogenize-sweep", "verify", "spectrum")


class TestConfigErrors:
    """A bad --config file is a usage error on every subcommand: exit code 2
    and an 'error:' line naming the file, never a traceback."""

    @staticmethod
    def run_with(tmp_path, capsys, command, cfg):
        extra = ["--check", "udd"] if command == "verify" else []
        code = run([command, *extra, "--config", str(cfg),
                    "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(cfg) in err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_value_of_wrong_type(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        key = "L" if command == "spectrum" else "N"
        cfg.write_text(f"# run\n{key}=abc\n")
        err = self.run_with(tmp_path, capsys, command, cfg)
        assert f"{key}='abc'" in err

    def test_boolean_value_not_a_known_word(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("cross_validate=ture\n")
        err = self.run_with(tmp_path, capsys, "spectrum", cfg)
        assert "cross_validate='ture'" in err

    @pytest.mark.parametrize("scheme", ["bogus", "qubit_nudd"])
    def test_value_outside_the_flag_choices(self, tmp_path, capsys, scheme):
        # argparse checks no default against choices; the config loader must
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scheme={scheme}\n")
        err = self.run_with(tmp_path, capsys, "schedule", cfg)
        assert f"scheme='{scheme}'" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_malformed_line(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# run\nN=2\nnot a setting\n")
        err = self.run_with(tmp_path, capsys, command, cfg)
        assert f"{cfg}:3:" in err

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_missing_file(self, tmp_path, capsys, command):
        self.run_with(tmp_path, capsys, command, tmp_path / "absent.cfg")


class TestRerunIdentity:
    # both sweeps re-tighten some points, so they resume step-halving records
    @pytest.mark.parametrize("argv", [
        ["decouple-sweep", "--seed", "11", "--N", "3", "--nS", "2", "--nE", "1",
         "--degree", "2"],
        ["homogenize-sweep", "--seed", "3", "--N", "2", "--m", "1", "--nE", "1",
         "--degree", "1"],
    ])
    def test_same_bytes_in_process_and_in_a_fresh_interpreter(self, tmp_path, argv,
                                                              fresh_python):
        a, b, c = (tmp_path / f"{name}.csv" for name in "abc")
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert fresh_python(f"""
from bosonic_dd import cli
print(cli.main({argv + ["--out", str(c)]!r}))
""") == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


class TestColdStart:
    def test_runs_load_no_module_and_never_scipy_linalg(self, tmp_path, fresh_python):
        out = str(tmp_path / "out.csv")
        result = fresh_python(f"""
import json, sys
import bosonic_dd
from bosonic_dd import cli
cli.build_parser()
loaded = set(sys.modules)
codes = [cli.main(argv + ["--out", {out!r}]) for argv in (
    ["homogenize-sweep", "--N", "1", "--m", "1", "--points", "3"],
    ["decouple-sweep", "--N", "1", "--degree", "1", "--points", "3"],
    ["decouple-sweep", "--N", "4", "--nS", "2", "--nE", "4", "--degree", "2",
     "--tmin", "1e-2", "--tmax", "3e-1"],
    ["verify", "--check", "udd", "--N", "2"],
    ["verify", "--check", "homogenization", "--N", "2", "--m", "1"],
    ["verify", "--check", "nudd", "--N", "1", "--m", "1"],
    ["verify", "--check", "correspondence", "--N", "2", "--m", "1"],
    ["verify", "--check", "basis", "--m", "1"],
    ["spectrum", "--nE", "2", "--L", "2", "--points", "3", "--tmin", "1e-3",
     "--tmax", "1e-2", "--cross-validate"])]
print(json.dumps([codes, "scipy.linalg" in sys.modules,
                  sorted(set(sys.modules) - loaded)]))
""")
        assert result == [[0] * 9, False, []]
