"""Command-line front end.

Subcommands: schedule, decouple-sweep, homogenize-sweep, verify, spectrum.
Every run is deterministic for a fixed seed: identical invocations produce
byte-identical output files.  Numbers are written with 17 significant
digits and '.' decimal separator.

Exit codes: 0 success, 1 acceptance failure (slope outside its window or a
failed verification), 2 usage error.  A subcommand reports a usage error by
raising ``ValueError``; ``main`` alone prints it as ``error: ...``, and
does the same for a tolerance the integrator cannot reach.

Each flag is declared once, in ``build_parser``, with its type and default;
``--help`` shows a subcommand's defaults.  A plain-text config file
(``--config``, ``key=value`` per line, '#' comments) replaces them: a key is
a flag's long name, with '-' or '_', cast like the flag (a switch takes
1/0/true/false/yes/no) and held to the flag's choices, and keys that name
no value flag of the subcommand (``check`` among them) are ignored.  The
flags after the subcommand are then parsed over those values, so they win.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
from typing import IO, Iterator, Sequence

import numpy as np

from . import dyson, evolution, pauli_basis, schedules, spin_boson
from .symplectic import ModeLayout

SLOPE_MARGIN = (0.7, 1.5)  # accepted slope window is [N+0.7, N+1.5]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class ConfigError(ValueError):
    """A ``--config`` file that cannot be read or holds a malformed line or a
    value of the wrong type or choice; reported as a usage error (exit code 2)."""


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


def _config_values(parser: argparse.ArgumentParser, path: str) -> dict[str, object]:
    """The config file's values for the subcommand's flags, each cast like its
    flag (a switch takes a boolean word) and held to its choices, which argparse
    checks no namespace value against; keys naming no value flag are ignored."""
    flags = {action.dest: action for action in parser._actions
             if action.dest not in ("help", "config", "check")}
    values = {}
    for key, raw in _load_config(path).items():
        if key in flags:
            switch = flags[key].const is True  # store_true
            caster = bool if switch else flags[key].type or str
            try:
                values[key] = _BOOLEANS[raw.lower()] if switch else caster(raw)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{path}: {key}={raw!r} is not a "
                                  f"valid {caster.__name__}") from exc
            if flags[key].choices and values[key] not in flags[key].choices:
                raise ConfigError(f"{path}: {key}={raw!r} is not one of "
                                  f"{', '.join(flags[key].choices)}")
    return values


@contextlib.contextmanager
def _output(path: str) -> Iterator[IO[str]]:
    """The output stream: stdout for '-', else the file, closed on exit; a
    file that cannot be opened is a usage error."""
    if path == "-":
        yield sys.stdout
        return
    try:
        stream = open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc
    with stream:
        yield stream


def _t_grid(tmin: float, tmax: float, points: int) -> tuple[float, ...]:
    if not (0 < tmin < tmax < math.inf) or points < 2:
        raise ValueError("need finite 0 < tmin < tmax and at least two grid points")
    return tuple(np.logspace(math.log10(tmin), math.log10(tmax), points))


def _slope_exit(result: evolution.SweepResult) -> int:
    """0 if the fitted slope lies in [N+0.7, N+1.5], else 1 with a message;
    too few points in the fit window for a slope is an acceptance failure too."""
    if result.slope is None:
        (low, high), res = evolution.FIT_WINDOW, result.residuals
        print(f"slope acceptance failed: only {result.n_fit} of {len(res)} points inside the "
              f"fit window [{low}, {high}] ({sum(r < low for r in res)} below, "
              f"{sum(r > high for r in res)} above); widen --tmin/--tmax", file=sys.stderr)
        return 1
    lo, hi = result.order + SLOPE_MARGIN[0], result.order + SLOPE_MARGIN[1]
    if not lo <= result.slope <= hi:
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
    if args.scheme == "decoupling":
        sched = schedules.decoupling_schedule(args.N, args.nS)
    elif args.scheme == "qubit-nudd":
        sched = schedules.qubit_nudd_schedule(args.N, args.m)
    else:  # "homogenization", the last of the flag's choices
        sched = schedules.homogenization_schedule(args.N, args.m)
    with _output(args.out) as stream:
        schedules.write_schedule(sched, stream)
    return 0


def cmd_decouple_sweep(args: argparse.Namespace) -> int:
    grid = _t_grid(args.tmin, args.tmax, args.points)
    layout = ModeLayout(n_system=args.nS, n_env=args.nE)
    gen = evolution.random_generator(layout, seed=args.seed,
                                     scale_ss=args.scale_ss,
                                     scale_se=args.scale_se,
                                     scale_ee=args.scale_ee,
                                     degree=args.degree)
    result = evolution.order_sweep(gen, "decoupling", args.N, grid, args.tol)
    with _output(args.out) as stream:
        _write_sweep_csv(result, stream)
    if args.scale_se == 0.0 or args.nE == 0:
        # nothing to suppress; CSV carries the floor flags, no slope claim
        return 0
    return _slope_exit(result)


def cmd_homogenize_sweep(args: argparse.Namespace) -> int:
    pauli_basis._check_m(args.m)  # before any 2^m-mode allocation
    grid = _t_grid(args.tmin, args.tmax, args.points)
    layout = ModeLayout(n_system=2 ** args.m, n_env=args.nE)
    gen = evolution.random_generator(layout, seed=args.seed, scale_ss=1.0,
                                     scale_se=0.0, scale_ee=1.0,
                                     degree=args.degree)
    result = evolution.order_sweep(gen, "homogenization", args.N, grid, args.tol)
    with _output(args.out) as stream:
        _write_sweep_csv(result, stream)
    return _slope_exit(result)


# Rows of a verify report that one object table of text parts holds: a
# block of them takes 8 bytes a cell, rows x (s_max + 3) cells, 1 MB at
# udd N=12 (s_max = 12), where the whole 100,001-row table took 12 MB.
REPORT_BLOCK_ROWS = 8192


def _report_lines(check: str, report: dyson.ConditionReport) -> str:
    """The verify CSV lines of a condition report, as one string: per block
    of REPORT_BLOCK_ROWS rows, an object table of text parts, one row per
    line (budget head, first label, later labels, value, required-zero/pass
    tail), joined once.  Each label, each budget's s and r text and each
    distinct value of the report (by its bits, so 0.0 and -0.0 stay apart)
    is formatted once, by _fmt, and gathered."""
    # a label's text is its bits: a 0-d label (udd: 0 or 1) as is, an index as
    # the x-bit and z-bit of each position
    text = ["".join(map(str, bits))
            for bits in report.alphabet.reshape(len(report.alphabet), -1).tolist()]
    heads = np.array([f"{check},{s},{';'.join(map(str, powers))},"
                      for s, powers in report.budgets], dtype=object)
    # a -1 pick (past s) takes the last text, ""
    firsts = np.array(text + [""], dtype=object)
    laters = np.array([";" + t for t in text] + [""], dtype=object)
    tails = np.array([[",0,1\n", ",0,1\n"], [",1,0\n", ",1,1\n"]],
                     dtype=object)  # [required_zero][pass]
    _, first, which = np.unique(report.values.view(np.int64), return_index=True,
                                return_inverse=True)
    values = np.array(["," + _fmt(v) for v in report.values[first].tolist()], dtype=object)
    required, passes = report.required_zero.astype(int), report.row_passes.astype(int)
    blocks = []
    for r0 in range(0, len(report.values), REPORT_BLOCK_ROWS):
        rows = slice(r0, r0 + REPORT_BLOCK_ROWS)
        picks = report.picks[rows]
        table = np.empty((len(picks), picks.shape[1] + 3), dtype=object)
        table[:, 0] = heads[report.budget[rows]]
        table[:, 1] = firsts[picks[:, 0]]
        table[:, 2:-2] = laters[picks[:, 1:]]
        table[:, -2] = values[which[rows]]
        table[:, -1] = tails[required[rows], passes[rows]]
        blocks.append("".join(table.ravel().tolist()))
    return "".join(blocks)


_VERIFY_CHECKS = ("basis", "udd", "nudd", "homogenization", "correspondence")


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.check:
        raise ValueError("select at least one check "
                         f"(--check {{{','.join(_VERIFY_CHECKS)},all}})")
    selected = set(_VERIFY_CHECKS) if "all" in args.check else set(args.check)
    if not 0 < args.tol < 1:  # every row passes at tol >= 1, as |value| <= scale(r)
        raise ValueError("--tol must lie in (0, 1)")

    lines: list[str] = []
    passes: list[bool] = []

    def add_report(check: str, report: dyson.ConditionReport) -> None:
        passes.append(report.passed)
        lines.append(_report_lines(check, report))

    if "basis" in selected:
        count_ok = len(pauli_basis.gamma_set(args.m)) == \
            2 * 2 ** (2 * args.m) + 2 ** args.m
        adj = pauli_basis.verify_adjoint_action(args.m)  # its own absolute ADJOINT_TOL
        ok = count_ok and adj.passed
        passes.append(ok)
        lines.append(f"basis,-,-,m={args.m},{_fmt(adj.max_deviation)},1,{int(ok)}\n")
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
        passes.append(corr.passed)
        lines.append(f"correspondence,-,-,N={args.N};m={args.m},"
                     f"{_fmt(float(len(corr.mismatches)))},1,{int(corr.passed)}\n")
    with _output(args.out) as stream:
        stream.write("check,s,r,labels,value,required_zero,pass\n")
        stream.writelines(lines)
    return 0 if all(passes) else 1


def _mutated_homogenization_report(order: int, m: int, tol: float) -> dyson.ConditionReport:
    """Self-test aid: flip one pulse of the homogenization schedule and
    re-run the condition check (expected to fail)."""
    if m < 1:
        raise ValueError("the mutation self-test needs m >= 1")
    sched = schedules.homogenization_schedule(order, m)
    pulses = sched.pulses.copy()
    pulses[0, 1, 0] ^= 1
    return dyson.check_homogenization_condition_for(
        dataclasses.replace(sched, pulses=pulses), tol=tol)


def _seeded_bath(seed: int, n_modes: int, beta: float,
                 coupling_scale: float) -> spin_boson.BathSpec:
    """Deterministic bath with max frequency normalized to 1."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    om = rng.uniform(0.2, 1.0, n_modes)
    om /= om.max()
    lam = coupling_scale * rng.uniform(0.5, 1.0, n_modes)
    return spin_boson.BathSpec(couplings=tuple(lam), frequencies=tuple(om),
                               beta=beta)


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.L < 2 or args.L % 2:
        raise ValueError("the pulse count L must be even and >= 2")
    if args.nE < 1:
        raise ValueError("need at least one bath line")
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
            columns.append(spin_boson.cross_validate(bath, deltas, grid))
    row = ",".join(["%.17g"] * len(header)) + "\n"  # _fmt's format, one call per row
    with _output(args.out) as stream:
        stream.write(",".join(header) + "\n")
        stream.writelines(row % values for values in zip(*(np.asarray(c).tolist()
                                                           for c in columns)))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process, never changed
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonic-dd",
        description="Bosonic dynamical-decoupling schedules, symplectic "
                    "evolution sweeps and condition verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func, subparser=p)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", default="-", help="output path, - for stdout")
        return p

    def sweep(name: str, func, help: str, N: int) -> argparse.ArgumentParser:
        p = command(name, func, help)
        p.add_argument("--seed", type=int, default=0, help="generator seed")
        p.add_argument("--N", type=int, default=N, help="suppression order")
        p.add_argument("--nE", type=int, default=1, help="environment modes")
        p.add_argument("--degree", type=int, default=0, help="generator degree in t (0..4)")
        p.add_argument("--tmin", type=float, default=1e-3, help="smallest total time T")
        p.add_argument("--tmax", type=float, default=1e-1, help="largest total time T")
        p.add_argument("--points", type=int, default=10, help="log-spaced T points")
        p.add_argument("--tol", type=float, default=evolution.DEFAULT_TOL,
                       help="integrator tolerance (time-dependent generators)")
        return p

    p = command("schedule", cmd_schedule, "emit a pulse schedule file")
    p.add_argument("--scheme", default="decoupling",
                   choices=("decoupling", "qubit-nudd", "homogenization"), help="pulse family")
    p.add_argument("--N", type=int, default=1, help="suppression order")
    p.add_argument("--m", type=int, default=1, help="nesting level (not for decoupling)")
    p.add_argument("--nS", type=int, default=1, help="system modes (decoupling only)")

    p = sweep("decouple-sweep", cmd_decouple_sweep, "decoupling residual order sweep", N=2)
    p.add_argument("--nS", type=int, default=1, help="system modes")
    p.add_argument("--scale-ss", type=float, default=1.0, help="system block scale")
    p.add_argument("--scale-se", type=float, default=1.0, help="coupling block scale")
    p.add_argument("--scale-ee", type=float, default=1.0, help="environment block scale")

    p = sweep("homogenize-sweep", cmd_homogenize_sweep, "homogenization order sweep", N=1)
    p.add_argument("--m", type=int, default=1, help="nesting level: 2^m system modes")

    p = command("verify", cmd_verify, "basis, Dyson-condition and correspondence checks")
    p.add_argument("--check", action="append", default=[], choices=(*_VERIFY_CHECKS, "all"),
                   help="a check to run, or all of them (repeatable)")
    p.add_argument("--N", type=int, default=2, help="suppression order")
    p.add_argument("--m", type=int, default=1, help="nesting level")
    p.add_argument("--tol", type=float, default=dyson.ZERO_TOL,
                   help="zero tolerance, relative to each row's simplex scale")
    p.add_argument("--mutate", action="store_true",
                   help="self-test: flip one pulse and expect failure")

    p = command("spectrum", cmd_spectrum, "filter-function and channel sweep")
    p.add_argument("--seed", type=int, default=0, help="bath seed")
    p.add_argument("--nE", type=int, default=3, help="number of bath lines")
    p.add_argument("--beta", type=float, default=1.0, help="inverse temperature (inf: vacuum)")
    p.add_argument("--L", type=int, default=2, help="pulse count (even)")
    p.add_argument("--coupling-scale", type=float, default=0.3, help="bath coupling scale")
    p.add_argument("--tmin", type=float, default=0.05, help="smallest total time T")
    p.add_argument("--tmax", type=float, default=2.0, help="largest total time T")
    p.add_argument("--points", type=int, default=20, help="log-spaced T points")
    p.add_argument("--cross-validate", action="store_true",
                   help="add columns of the deviation from direct simulation")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:  # argparse fills only the names the namespace lacks, so flags win
            values = argparse.Namespace(**_config_values(args.subparser, args.config))
            args = args.subparser.parse_args(argv[argv.index(args.command) + 1:], values)
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
