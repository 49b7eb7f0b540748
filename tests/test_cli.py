import pytest

from bosonic_dd import cli
from bosonic_dd.cli import main


def run(args):
    return main(args)


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

    def test_homogenize_rejects_bad_mode_count(self, tmp_path):
        assert run(["homogenize-sweep", "--N", "1", "--m", "1", "--nS", "3",
                    "--out", str(tmp_path / "x.csv")]) == 2

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
        if "--tol" in " ".join(flags):
            assert err == ("error: --tol must lie in (0, 1)\n" if command == "verify"
                           else "error: --tol must be finite and positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--N", "1", "--nS", "1", "--nE", "1", "--degree", "1", "--tol", "1e-16",
         "--points", "3"],
        ["--N", "4", "--nS", "2", "--nE", "4", "--degree", "2", "--tmin", "1e-2",
         "--tmax", "1.0", "--tol", "1e-14"],
    ], ids=["small", "deep"])
    def test_unreachable_tolerance(self, tmp_path, capsys, flags):
        # step halving runs out of refinements: a usage error, not a traceback
        out = tmp_path / "s.csv"
        assert run(["decouple-sweep", "--seed", "7", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: propagator did not reach tolerance ")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["schedule", "--scheme", "homogenization", "--N", "1", "--m", "5"],
        ["homogenize-sweep", "--N", "1", "--m", "5", "--nS", "32"],
    ], ids=["schedule", "homogenize-sweep"])
    def test_m_beyond_the_basis_guard(self, tmp_path, capsys, command):
        # m is bounded by pauli_basis.MAX_M = 4 on every homogenization path
        out = tmp_path / "o.txt"
        assert run([*command, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: m=5 exceeds the exhaustive-enumeration guard (max 4)\n"
        assert not out.exists()


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

    def test_mutation_detected(self, tmp_path):
        assert run(["verify", "--check", "homogenization", "--N", "2",
                    "--m", "1", "--mutate", "--out", str(tmp_path / "m.csv")]) == 1

    def test_udd_budget_guard(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert run(["verify", "--check", "udd", "--N", "13", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: budget guard: order <= 12\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("flags", [
        ["--beta", "0"],
        ["--beta", "-1"],
        ["--tmax", "1e400"],
        ["--coupling-scale", "nan"],
    ], ids=["beta-zero", "beta-negative", "tmax-overflow", "coupling-nan"])
    def test_bad_numeric_input(self, tmp_path, capsys, flags):
        out = tmp_path / "s.csv"
        assert run(["spectrum", *flags, "--points", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_vacuum_beta_allowed(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--beta", "inf", "--points", "3",
                    "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

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
                              "tol": "1e-11", "m": "0", "nS": "1"},
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

    @pytest.mark.parametrize("n_system,code", [(2, 0), (3, 2)])
    def test_config_value_takes_the_flag_type(self, tmp_path, n_system, code):
        # nS has no default; its config value is cast to int like the flag
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nS={n_system}\n")
        assert run(["homogenize-sweep", "--N", "1", "--m", "1", "--config",
                    str(cfg), "--out", str(tmp_path / "h.csv")]) == code


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
    ["verify", "--check", "udd", "--N", "2"],
    ["verify", "--check", "homogenization", "--N", "2", "--m", "1"],
    ["verify", "--check", "nudd", "--N", "1", "--m", "1"],
    ["spectrum", "--nE", "2", "--L", "2", "--points", "3", "--tmin", "1e-3",
     "--tmax", "1e-2", "--cross-validate"])]
print(json.dumps([codes, "scipy.linalg" in sys.modules,
                  sorted(set(sys.modules) - loaded)]))
""")
        assert result == [[0, 0, 0, 0, 0, 0], False, []]
