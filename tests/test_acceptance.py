"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time
from unittest import mock

import numpy as np
import pytest

from bosonic_dd import dyson, evolution, pauli_basis, schedules, spin_boson
from bosonic_dd.cli import main as cli_main
from bosonic_dd.symplectic import (
    ModeLayout,
    is_symplectic,
    spectral_norm,
    symplectic_form,
)

T_GRID = tuple(np.logspace(-3, -1, 10))
SLOPE_LO, SLOPE_HI = 0.7, 1.5


def _record(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {criterion}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _slope_ok(order: int, slope) -> bool:
    return slope is not None and order + SLOPE_LO <= slope <= order + SLOPE_HI


def test_c01_decoupling_order_time_independent():
    t0 = time.time()
    slopes = {}
    ok = True
    for n_sys, n_env, order in itertools.product((1, 2), (1, 2), (1, 2, 3)):
        gen = evolution.random_generator(
            ModeLayout(n_sys, n_env), seed=100 + 10 * n_sys + n_env + order,
            scale_ss=1.0, scale_se=1.0, scale_ee=1.0)
        res = evolution.order_sweep(gen, "decoupling", order, T_GRID)
        slopes[(n_sys, n_env, order)] = res.slope
        ok &= _slope_ok(order, res.slope)
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    worst = {k: round(v, 2) for k, v in slopes.items()}
    _record("1 decoupling order, time-independent", ok,
            f"slopes={worst}, {elapsed:.0f}s")


def test_c02_decoupling_order_time_dependent():
    t0 = time.time()
    ok = True
    slopes = {}
    for n_sys, order in itertools.product((1, 2), (1, 2)):
        gen = evolution.random_generator(
            ModeLayout(n_sys, 1), seed=200 + 10 * n_sys + order,
            scale_ss=1.0, scale_se=1.0, scale_ee=1.0, degree=2)
        res = evolution.order_sweep(gen, "decoupling", order, T_GRID)
        slopes[(n_sys, order)] = round(res.slope, 2) if res.slope else None
        ok &= _slope_ok(order, res.slope)
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    _record("2 decoupling order, degree-2 generators", ok,
            f"slopes={slopes}, {elapsed:.0f}s")


def test_c03_homogenization_order():
    t0 = time.time()
    ok = True
    details = {}
    for m, order, n_pulses in [(1, 1, 8), (1, 2, 27), (2, 1, 32)]:
        sched = schedules.homogenization_schedule(order, m)
        ok &= len(sched) == n_pulses
        gen = evolution.random_generator(
            ModeLayout(2 ** m, 1), seed=300 + 10 * m + order,
            scale_ss=1.0, scale_se=0.0, scale_ee=1.0)
        res = evolution.order_sweep(gen, "homogenization", order, T_GRID)
        details[(m, order)] = round(res.slope, 2) if res.slope else None
        ok &= _slope_ok(order, res.slope)
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _record("3 homogenization order", ok, f"slopes={details}, {elapsed:.0f}s")


def test_c04_error_bound():
    layout = ModeLayout(1, 2)
    violations = 0
    checked = 0
    margin = math.inf
    for seed in range(20):
        gen = evolution.random_generator(layout, seed=400 + seed,
                                         scale_ss=1.0, scale_se=1.0,
                                         scale_ee=1.0)
        j0, jz = evolution.generator_block_norms(gen)
        for order in (1, 2, 3):
            sched = schedules.decoupling_schedule(order, 1)
            for frac in (0.25, 0.6, 0.95):
                T = frac / (j0 + jz)
                S = evolution.resulting_evolution(gen, sched, T)
                off = S - np.asarray(
                    [[S[i, j] if (i < 2) == (j < 2) else 0.0
                      for j in range(6)] for i in range(6)])
                measured = spectral_norm(off)
                bound = evolution.decoupling_error_bound(j0, jz, order, T)
                checked += 1
                margin = min(margin, bound - measured)
                if measured > bound:
                    violations += 1
    _record("4 time-independent residual bound", violations == 0,
            f"{checked} cases, min margin {margin:.2e}")


def test_c05_dyson_conditions():
    ok = True
    max_viol = 0.0
    for n in range(1, 7):
        rep = dyson.check_udd_condition(n, tol=1e-10)
        ok &= rep.passed
        max_viol = max(max_viol, rep.max_violation)
        probe = rep.values[~rep.required_zero][0]
        ok &= abs(probe) > 1e-6  # first violated order is exactly N+1
    for n, m in [(1, 1), (2, 1)]:
        rep = dyson.check_homogenization_condition(n, m, tol=1e-10)
        ok &= rep.passed and rep.exhaustive
        max_viol = max(max_viol, rep.max_violation)
    with mock.patch.object(dyson, "MAX_TUPLES", 1000), \
            mock.patch.object(dyson, "SAMPLE_SEED", 1):
        rep = dyson.check_homogenization_condition(2, 2, tol=1e-10)
    ok &= rep.passed and rep.n_checked == 1000
    max_viol = max(max_viol, rep.max_violation)
    _record("5 vanishing integral conditions", ok, f"max |F| = {max_viol:.2e}")


def test_c06_basis_algebra():
    ok = True
    for m in range(4):
        ok &= len(pauli_basis.gamma_set(m)) == 2 * 2 ** (2 * m) + 2 ** m
    for m in range(4):
        J = symplectic_form(ModeLayout(2 ** m, 0))
        for beta in pauli_basis.gamma_tilde_set(m):
            S = pauli_basis.s_matrix(beta)
            ok &= is_symplectic(S, J, tol=1e-12)
            ok &= bool(np.abs(S.T @ S - np.eye(2 ** (m + 1))).max() < 1e-12)
    devs = []
    for m in (0, 1, 2):
        rep = pauli_basis.verify_adjoint_action(m)
        ok &= rep.passed and rep.exhaustive
        devs.append(rep.max_deviation)
    rep3 = pauli_basis.verify_adjoint_action(3)
    ok &= rep3.passed and rep3.n_checked == 1000
    devs.append(rep3.max_deviation)
    _record("6 basis algebra", ok, f"max adjoint deviation {max(devs):.1e}")


def test_c07_channel_oracle_equivalence():
    rng = np.random.default_rng(77)
    covs = (np.eye(2), np.diag([4.0, 0.25]))
    assert np.array_equal(spin_boson.COVARIANCES, covs)
    worst = 0.0
    ok = True
    for n_modes in (1, 3):
        om = rng.uniform(0.2, 1.0, n_modes)
        om /= om.max()  # units with max frequency 1
        lam = 0.3 * rng.uniform(0.5, 1.0, n_modes)
        bath = spin_boson.BathSpec(couplings=tuple(lam),
                                   frequencies=tuple(om), beta=1.0)
        for n_pulses in (2, 4):  # L in {2, 4}
            deltas = spin_boson.even_flip_train(n_pulses)
            assert len(deltas) in (2, 4)
            deviations = spin_boson.cross_validate(bath, deltas, (0.1, 0.5, 1.0))
            worst = max(worst, float(deviations.max()))
            ok &= bool((deviations <= 1e-8).all())

    # shear parameter is independent of the temperature
    om = rng.uniform(0.2, 1.0, 3); om /= om.max()
    lam = 0.3 * rng.uniform(0.5, 1.0, 3)
    deltas = spin_boson.even_flip_train(2)
    xs = [spin_boson.shear_parameter(
        0.8, spin_boson.BathSpec(tuple(lam), tuple(om), beta), deltas)
        for beta in (0.1, 1.0, 10.0)]
    ok &= max(xs) - min(xs) <= 1e-12

    # added-noise small-T scaling: slope 2(N+1) within 0.4
    slopes = []
    bath = spin_boson.BathSpec(tuple(lam), tuple(om), beta=1.0)
    for order in (1, 2):
        deltas = spin_boson.even_flip_train(order)
        Ts = np.logspace(-2.5, -1.0, 8)
        ys = [spin_boson.added_noise(T, bath, deltas) for T in Ts]
        slope = float(np.polyfit(np.log(Ts), np.log(ys), 1)[0])
        slopes.append(round(slope, 2))
        ok &= abs(slope - 2 * (order + 1)) <= 0.4
    _record("7 exact channel vs simulation", ok,
            f"max deviation {worst:.1e}, noise slopes {slopes}")


def test_c08_qubit_bosonic_correspondence():
    ok = True
    for order in (1, 2):
        rep = dyson.verify_qubit_bosonic_correspondence(order, 1)
        ok &= rep.passed and rep.n_checked == len(pauli_basis.gamma_set(1))
    _record("8 qubit-bosonic sign-function correspondence", ok,
            "breakpoint-exact for all basis indices, N in {1,2}, m=1")


def test_c09_linear_term_invariance():
    layout = ModeLayout(1, 1)
    worst = 0.0
    ok = True
    for seed in range(10):
        base = evolution.random_generator(layout, seed=900 + seed,
                                          scale_ss=1.0, scale_se=1.0,
                                          scale_ee=1.0, degree=1)
        rng = np.random.default_rng(seed)
        M0 = np.diag(rng.uniform(0.5, 2.0, 4))
        d0 = rng.uniform(-1.0, 1.0, 4)
        T = float(rng.uniform(0.3, 1.0))
        outputs = []
        for drive in (None, "a", "b"):
            if drive is None:
                gen = base
            else:
                drv = tuple(rng.uniform(-1.0, 1.0, 4) for _ in range(2))
                gen = evolution.AnalyticGenerator(layout=layout,
                                                  coeffs=base.coeffs,
                                                  linear=drv)
            M, _ = evolution.affine_propagate(gen, M0, d0, T)
            outputs.append(M)
        dev = max(np.abs(outputs[0] - outputs[1]).max(),
                  np.abs(outputs[0] - outputs[2]).max())
        worst = max(worst, dev)
        ok &= dev <= 1e-11
    _record("9 linear terms do not move covariances", ok,
            f"max covariance deviation {worst:.1e}")


def test_c10_deterministic_csv(tmp_path):
    ok = True
    invocations = [
        ["decouple-sweep", "--seed", "5", "--N", "1", "--nS", "1", "--nE", "1",
         "--points", "5"],
        ["homogenize-sweep", "--seed", "5", "--N", "1", "--m", "1",
         "--points", "5"],
        ["spectrum", "--seed", "5", "--L", "2", "--points", "5"],
        ["verify", "--check", "udd", "--check", "basis", "--N", "2", "--m", "1"],
        ["schedule", "--scheme", "homogenization", "--N", "2", "--m", "1"],
    ]
    for k, args in enumerate(invocations):
        a = tmp_path / f"run{k}_a.csv"
        b = tmp_path / f"run{k}_b.csv"
        rc_a = cli_main(args + ["--out", str(a)])
        rc_b = cli_main(args + ["--out", str(b)])
        ok &= rc_a == rc_b == 0
        ok &= a.read_bytes() == b.read_bytes()
    _record("10 byte-identical reruns", ok,
            f"{len(invocations)} subcommand invocations")
