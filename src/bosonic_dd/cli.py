"""Command-line front end.

Subcommands: schedule, decouple-sweep, homogenize-sweep, verify, spectrum.
Every run is deterministic for a fixed seed: identical invocations produce
byte-identical output files.  Numbers are written with 17 significant
digits and '.' decimal separator.

Exit codes: 0 success, 1 acceptance failure (slope outside its window or a
failed verification), 2 usage error.  A subcommand reports a usage error by
raising ``ValueError``; ``main`` alone prints it as ``error: ...``, and
does the same for a tolerance the integrator cannot reach.

A plain-text config file (``--config``, ``key=value`` per line, '#'
comments) supplies defaults for any long flag name; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import IO, Iterator, Sequence

import numpy as np
import numpy.random  # numpy 2 loads it lazily; load it at import time

from . import dyson, evolution, pauli_basis, schedules, spin_boson
from .symplectic import ModeLayout

SLOPE_MARGIN = (0.7, 1.5)  # accepted slope window is [N+0.7, N+1.5]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class ConfigError(ValueError):
    """A ``--config`` file that cannot be read or holds a malformed line or
    a value of the wrong type; reported as a usage error (exit code 2)."""


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: malformed config line {line!r}, "
                              "expected key=value")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


_BOOLEANS = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}


def _merge_config(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Fill unset (None) arguments from the config file, then from defaults.

    A config value is cast with its flag's declared argparse ``type``; flags
    without one (choices, paths, switches) take the type of their default.
    """
    config = {}
    if getattr(args, "config", None):
        config = _load_config(args.config)
    flag_types = getattr(args, "flag_types", {})
    for key, fallback in defaults.items():
        if getattr(args, key, None) is None:
            if key in config:
                raw = config[key]
                caster = flag_types.get(key) or (
                    str if fallback is None else type(fallback))
                try:
                    value = _BOOLEANS[raw.lower()] if caster is bool else caster(raw)
                except (KeyError, ValueError) as exc:
                    raise ConfigError(f"{args.config}: {key}={raw!r} is not a "
                                      f"valid {caster.__name__}") from exc
                setattr(args, key, value)
            else:
                setattr(args, key, fallback)
    return args


@contextlib.contextmanager
def _output(path: str | None) -> Iterator[IO[str]]:
    """The output stream: stdout for no path or '-', else the file, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        yield stream


def _t_grid(tmin: float, tmax: float, points: int) -> tuple[float, ...]:
    if not (0 < tmin < tmax < math.inf) or points < 2:
        raise ValueError("need finite 0 < tmin < tmax and at least two grid points")
    return tuple(np.logspace(math.log10(tmin), math.log10(tmax), points))


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError("--tol must be positive")


def _sweep_grid(args: argparse.Namespace) -> tuple[float, ...]:
    """The sweep's T grid, after checking its tolerance, degree and scales."""
    _check_tol(args.tol)
    if not 0 <= args.degree <= 4:
        raise ValueError("--degree must lie in 0..4")
    for key in ("scale_ss", "scale_se", "scale_ee"):
        if not 0 <= getattr(args, key, 0.0) < math.inf:
            raise ValueError(f"--{key.replace('_', '-')} must be finite and >= 0")
    return _t_grid(args.tmin, args.tmax, args.points)


def _slope_exit(result: evolution.SweepResult) -> int:
    """0 if the fitted slope lies in [N+0.7, N+1.5], else 1 with a message."""
    lo, hi = result.order + SLOPE_MARGIN[0], result.order + SLOPE_MARGIN[1]
    if result.slope is None or not lo <= result.slope <= hi:
        print(f"slope acceptance failed: slope={result.slope} window=[{lo},{hi}]",
              file=sys.stderr)
        return 1
    return 0


def _write_sweep_csv(result: evolution.SweepResult, stream: IO[str]) -> None:
    stream.write("T,residual,omega,bound,floor\n")
    for i, T in enumerate(result.times):
        omega = _fmt(result.omegas[i]) if result.omegas is not None else ""
        bound = _fmt(result.bounds[i]) if result.bounds is not None else ""
        stream.write(f"{_fmt(T)},{_fmt(result.residuals[i])},{omega},{bound},"
                     f"{int(result.floor_flags[i])}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_schedule(args: argparse.Namespace) -> int:
    _merge_config(args, {"scheme": "decoupling", "N": 1, "m": 1, "nS": 1,
                         "out": None})
    if args.N < 1:
        raise ValueError("N must be >= 1")
    if args.scheme == "decoupling":
        sched = schedules.decoupling_schedule(args.N, args.nS)
    elif args.scheme == "qubit-nudd":
        sched = schedules.qubit_nudd_schedule(args.N, args.m)
    elif args.scheme == "homogenization":
        sched = schedules.homogenization_schedule(args.N, args.m)
    else:
        raise ValueError(f"unknown scheme {args.scheme!r}")
    with _output(args.out) as stream:
        schedules.write_schedule(sched, stream)
    return 0


def cmd_decouple_sweep(args: argparse.Namespace) -> int:
    _merge_config(args, {"seed": 0, "N": 2, "nS": 1, "nE": 1, "tmin": 1e-3,
                         "tmax": 1e-1, "points": 10, "tol": 1e-12,
                         "degree": 0, "scale_ss": 1.0, "scale_se": 1.0,
                         "scale_ee": 1.0, "out": None})
    if args.N < 1 or args.nS < 1 or args.nE < 0:
        raise ValueError("invalid N/nS/nE")
    grid = _sweep_grid(args)
    layout = ModeLayout(n_system=args.nS, n_env=args.nE)
    gen = evolution.random_generator(layout, seed=args.seed,
                                     scale_ss=args.scale_ss,
                                     scale_se=args.scale_se,
                                     scale_ee=args.scale_ee,
                                     degree=args.degree)
    cfg = evolution.PropagatorConfig(tolerance=args.tol)
    result = evolution.order_sweep(gen, "decoupling", args.N, grid, cfg)
    with _output(args.out) as stream:
        _write_sweep_csv(result, stream)
    if args.scale_se == 0.0 or args.nE == 0:
        # nothing to suppress; CSV carries the floor flags, no slope claim
        return 0
    return _slope_exit(result)


def cmd_homogenize_sweep(args: argparse.Namespace) -> int:
    _merge_config(args, {"seed": 0, "N": 1, "m": 1, "nS": None, "nE": 1,
                         "tmin": 1e-3, "tmax": 1e-1, "points": 10,
                         "tol": 1e-12, "degree": 0, "out": None})
    if args.N < 1 or args.m < 0:
        raise ValueError("invalid N/m")
    if args.nS is not None and args.nS != 2 ** args.m:
        raise ValueError(f"homogenization needs nS = 2^m = {2 ** args.m}, got {args.nS}")
    grid = _sweep_grid(args)
    layout = ModeLayout(n_system=2 ** args.m, n_env=args.nE)
    gen = evolution.random_generator(layout, seed=args.seed, scale_ss=1.0,
                                     scale_se=0.0, scale_ee=1.0,
                                     degree=args.degree)
    cfg = evolution.PropagatorConfig(tolerance=args.tol)
    result = evolution.order_sweep(gen, "homogenization", args.N, grid, cfg,
                                   m=args.m)
    with _output(args.out) as stream:
        _write_sweep_csv(result, stream)
    return _slope_exit(result)


_VERIFY_CHECKS = ("basis", "udd", "nudd", "homogenization", "correspondence")


def cmd_verify(args: argparse.Namespace) -> int:
    _merge_config(args, {"N": 2, "m": 1, "tol": 1e-10, "out": None,
                         "mutate": False})
    if not args.check:
        raise ValueError("select at least one check "
                         f"(--check {{{','.join(_VERIFY_CHECKS)},all}})")
    selected = set(args.check)
    if "all" in selected:
        selected = set(_VERIFY_CHECKS)
    unknown = selected - set(_VERIFY_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks {sorted(unknown)}")
    _check_tol(args.tol)

    rows: list[tuple[str, str, str, str, float, bool, bool]] = []
    all_pass = True

    def add_report(check: str, report: dyson.ConditionReport) -> None:
        nonlocal all_pass
        all_pass &= report.passed
        for row, labels in zip(report.rows, dyson.format_labels(report)):
            rows.append((check, str(row.s),
                         ";".join(str(r) for r in row.powers), labels,
                         row.value, row.required_zero, report.row_passed(row)))

    if "basis" in selected:
        count_ok = len(pauli_basis.gamma_set(args.m)) == \
            2 * 2 ** (2 * args.m) + 2 ** args.m
        adj = pauli_basis.verify_adjoint_action(args.m, tol=args.tol)
        ok = count_ok and adj.passed
        all_pass &= ok
        rows.append(("basis", "-", "-", f"m={args.m}", adj.max_deviation,
                     True, ok))
    if "udd" in selected:
        add_report("udd", dyson.check_udd_condition(args.N, tol=args.tol))
    if "nudd" in selected:
        add_report("nudd", dyson.check_qubit_nudd_condition(
            args.N, args.m, tol=args.tol))
    if "homogenization" in selected:
        if args.mutate:
            report = _mutated_homogenization_report(args.N, args.m, args.tol)
        else:
            report = dyson.check_homogenization_condition(
                args.N, args.m, tol=args.tol)
        add_report("homogenization", report)
    if "correspondence" in selected:
        corr = dyson.verify_qubit_bosonic_correspondence(args.N, args.m)
        all_pass &= corr.passed
        rows.append(("correspondence", "-", "-",
                     f"N={args.N};m={args.m}", float(len(corr.mismatches)),
                     True, corr.passed))
    with _output(args.out) as stream:
        stream.write("check,s,r,labels,value,required_zero,pass\n")
        for check, s, r, labels, value, required, ok in rows:
            stream.write(f"{check},{s},{r},{labels},{_fmt(value)},"
                         f"{int(required)},{int(ok)}\n")
    return 0 if all_pass else 1


def _mutated_homogenization_report(order: int, m: int, tol: float) -> dyson.ConditionReport:
    """Self-test aid: flip one pulse of the homogenization schedule and
    re-run the condition check (expected to fail)."""
    if m < 1:
        raise ValueError("the mutation self-test needs m >= 1")
    sched = schedules.homogenization_schedule(order, m)
    first = sched.entries[0]
    flipped = (first.pulse[0],
               (first.pulse[1][0] ^ 1, first.pulse[1][1])) + tuple(first.pulse[2:])
    entries = (schedules.PulseEntry(first.delta, flipped, first.sign),) + sched.entries[1:]
    mutated = schedules.PulseSchedule(scheme="bosonic-homogenization-mutated",
                                      order=sched.order, entries=entries,
                                      m=sched.m, n_system=sched.n_system)
    return dyson.check_homogenization_condition_for(mutated, order, m, tol=tol)


def _seeded_bath(seed: int, n_modes: int, beta: float,
                 coupling_scale: float) -> spin_boson.BathSpec:
    """Deterministic bath with max frequency normalized to 1."""
    rng = np.random.default_rng(seed)
    om = rng.uniform(0.2, 1.0, n_modes)
    om /= om.max()
    lam = coupling_scale * rng.uniform(0.5, 1.0, n_modes)
    return spin_boson.BathSpec(couplings=tuple(lam), frequencies=tuple(om),
                               beta=beta)


def cmd_spectrum(args: argparse.Namespace) -> int:
    _merge_config(args, {"seed": 0, "nE": 3, "beta": 1.0, "L": 2,
                         "coupling_scale": 0.3, "tmin": 0.05, "tmax": 2.0,
                         "points": 20, "cross_validate": False, "out": None})
    if args.L < 2 or args.L % 2:
        raise ValueError("the pulse count L must be even and >= 2")
    if args.nE < 1:
        raise ValueError("need at least one bath line")
    if not args.beta > 0:
        raise ValueError("beta must be positive (inf for the vacuum)")
    if not math.isfinite(args.coupling_scale):
        raise ValueError("the coupling scale must be finite")
    grid = _t_grid(args.tmin, args.tmax, args.points)
    bath = _seeded_bath(args.seed, args.nE, args.beta, args.coupling_scale)
    trains = {
        "udd": spin_boson.even_flip_train(args.L),
        "periodic": tuple((j + 1) / args.L for j in range(args.L)),
    }
    w_max = max(bath.frequencies)
    header = ["T"]
    columns = [grid]
    for name, deltas in trains.items():
        header += [f"x_{name}", f"y_{name}", f"yL2_{name}"]
        columns += [*spin_boson.channel_columns(grid, bath, deltas),
                    np.abs(spin_boson.y_filter(w_max * np.array(grid), deltas)) ** 2]
        if args.cross_validate:
            header.append(f"dev_{name}")
            columns.append([spin_boson.cross_validate(bath, deltas, T).max_deviation
                            for T in grid])
    with _output(args.out) as stream:
        stream.write(",".join(header) + "\n")
        for row in zip(*columns):
            stream.write(",".join(_fmt(v) for v in row) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonic-dd",
        description="Bosonic dynamical-decoupling schedules, symplectic "
                    "evolution sweeps and condition verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p: argparse.ArgumentParser, func) -> None:
        # the declared flag types let _merge_config cast config values alike
        p.set_defaults(func=func, flag_types={a.dest: a.type for a in p._actions
                                              if a.type is not None})

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("schedule", help="emit a pulse schedule file")
    common(p)
    p.add_argument("--scheme", choices=("decoupling", "qubit-nudd",
                                        "homogenization"))
    p.add_argument("--N", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--nS", type=int)
    finish(p, cmd_schedule)

    p = sub.add_parser("decouple-sweep", help="decoupling residual order sweep")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--nS", type=int)
    p.add_argument("--nE", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--scale-ss", dest="scale_ss", type=float)
    p.add_argument("--scale-se", dest="scale_se", type=float)
    p.add_argument("--scale-ee", dest="scale_ee", type=float)
    finish(p, cmd_decouple_sweep)

    p = sub.add_parser("homogenize-sweep", help="homogenization order sweep")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--nS", type=int)
    p.add_argument("--nE", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--tol", type=float)
    finish(p, cmd_homogenize_sweep)

    p = sub.add_parser("verify", help="basis, Dyson-condition and "
                                      "correspondence checks")
    common(p)
    p.add_argument("--check", action="append", default=[],
                   help=f"one of {','.join(_VERIFY_CHECKS)} or 'all' (repeatable)")
    p.add_argument("--N", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--mutate", action="store_true", default=None,
                   help="self-test: flip one pulse and expect failure")
    finish(p, cmd_verify)

    p = sub.add_parser("spectrum", help="filter-function and channel sweep")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--nE", type=int, help="number of bath lines")
    p.add_argument("--beta", type=float)
    p.add_argument("--L", type=int, help="pulse count (even)")
    p.add_argument("--coupling-scale", dest="coupling_scale", type=float)
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--cross-validate", dest="cross_validate",
                   action="store_true", default=None)
    finish(p, cmd_spectrum)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, evolution.ToleranceNotReached) as exc:
        # usage errors (ConfigError among them) and an unreachable --tol
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # pragma: no cover
        return 0


def entry_point() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
