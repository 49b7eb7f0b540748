import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import mpmath
from hypothesis import example, given, settings, strategies as st

from bosonic_dd import evolution
from bosonic_dd.evolution import (
    DEFAULT_TOL,
    AnalyticGenerator,
    DegenerateRotationFit,
    _cf4_pass,
    _converged,
    _flows,
    _walk,
    affine_propagate,
    decoupling_error_bound,
    generator_block_norms,
    homogenization_fit,
    order_sweep,
    propagate,
    random_generator,
    resulting_evolution,
)
from bosonic_dd.pauli_basis import expand_in_basis, gamma_set, s_matrix, symplectic_form_index
from bosonic_dd.schedules import (
    PulseSchedule,
    decoupling_schedule,
    flip_train_schedule,
    homogenization_schedule,
    toggling_sign_function,
)
from bosonic_dd.symplectic import (
    ModeLayout,
    _TAYLOR_THETA,
    _taylor_exponential,
    block_decompose,
    is_symplectic,
    matrix_exponential,
    offdiag_residual,
    spectral_norm,
    symplectic_form,
    symplectic_residual,
)

from oracles import generator_values, sign_value, signed_closed_schedule


def make_generator(layout, seed=0, coupled=True, degree=0):
    return random_generator(layout, seed=seed, scale_ss=1.0,
                            scale_se=1.0 if coupled else 0.0,
                            scale_ee=1.0, degree=degree)


def with_drive(gen, seed, scale):
    """``gen`` with a linear drive of entries uniform in [-scale, scale], one
    vector per coefficient, drawn from the seeded stream right after the
    draws ``random_generator(layout, seed, ...)`` made for the coefficients."""
    rng = np.random.default_rng(seed)
    ds, de = gen.layout.system_dim, gen.layout.env_dim
    rng.uniform(-1.0, 1.0, len(gen.coeffs) * (ds * ds + de * (ds + de)))  # coefficients
    drive = tuple(scale * rng.uniform(-1.0, 1.0, gen.layout.dim) for _ in gen.coeffs)
    return replace(gen, linear=drive)


layouts = st.builds(ModeLayout, st.integers(1, 3), st.integers(0, 3))
seeds = st.integers(0, 2 ** 32 - 1)
durations = st.floats(0.01, 0.5)


def rel_dist(A, B):
    return np.linalg.norm(A - B) / max(1.0, spectral_norm(B))


class TestPropagate:
    def test_constant_generator(self):
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=1)
        S = propagate(gen, 0.2, 0.9)
        assert np.abs(S - matrix_exponential(0.7 * gen.coeffs[0])).max() < 1e-12

    def test_scalar_modulated_family(self):
        # X(t) = (1 + 2t + 3t^2) X0 commutes with itself; the closed form is
        # exp(integral of the scalar times X0)
        layout = ModeLayout(1, 1)
        X0 = make_generator(layout, seed=2).coeffs[0]
        gen = AnalyticGenerator(layout=layout,
                                coeffs=(X0, 2.0 * X0, 3.0 * X0))
        t0, t1 = 0.1, 0.8
        weight = (t1 - t0) + (t1 ** 2 - t0 ** 2) + (t1 ** 3 - t0 ** 3)
        S = propagate(gen, t0, t1)
        assert np.abs(S - matrix_exponential(weight * X0)).max() < 1e-12

    def test_zero_generator(self):
        layout = ModeLayout(1, 0)
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((2, 2)),))
        assert np.array_equal(propagate(gen, 0.0, 1.3), np.eye(2))

    def test_result_symplectic(self):
        layout = ModeLayout(2, 1)
        gen = make_generator(layout, seed=3, degree=2)
        S = propagate(gen, 0.0, 0.7)
        J = symplectic_form(layout)
        assert is_symplectic(S, J, tol=10 * DEFAULT_TOL)

    def test_reversed_interval_rejected(self):
        layout = ModeLayout(1, 0)
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((2, 2)),))
        with pytest.raises(ValueError):
            propagate(gen, 1.0, 0.0)

    @pytest.mark.parametrize("degree", [0, 1], ids=["constant", "time-dependent"])
    @pytest.mark.parametrize("t0, t1, message", [
        (0.0, math.nan, "need a finite t1, got t1 = nan"),
        (0.0, math.inf, "need a finite t1, got t1 = inf"),
        (math.nan, 1.0, "need a finite t0, got t0 = nan"),
        (-math.inf, 1.0, "need a finite t0, got t0 = -inf"),
    ], ids=["nan-t1", "inf-t1", "nan-t0", "inf-t0"])
    def test_non_finite_end_points_rejected(self, degree, t0, t1, message):
        gen = make_generator(ModeLayout(1, 1), seed=4, degree=degree)
        with pytest.raises(ValueError, match=re.escape(message)):
            propagate(gen, t0, t1)

    def test_refinement_exhaustion(self):
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=4, degree=1)
        # the first pass on [0, 1] takes 64 steps, so the budget allows two
        # refinements
        assert first_steps(gen, [0.0], [1.0]) == [64]
        with mock.patch.object(evolution, "MAX_STEPS", 256):
            with pytest.raises(RuntimeError, match=r"within 256 CF4 steps on \[0\.0, 1\.0\]"):
                propagate(gen, 0.0, 1.0, 1e-30)

    @pytest.mark.parametrize("t1, budget, bound", [(1.0, 32, "5.28867"),
                                                   (1e300, 4096, "inf")])
    def test_first_pass_over_the_budget_runs_no_pass(self, t1, budget, bound):
        # a first pass of 64 steps, or a generator bound past the float range
        # (degree 2 at t = 1e300), is rejected before any CF4 pass and with
        # no floating-point warning
        gen = make_generator(ModeLayout(1, 1), seed=4, degree=2 if t1 > 1 else 1)
        with mock.patch.object(evolution, "MAX_STEPS", budget), \
                mock.patch.object(evolution, "_cf4_pass") as passes:
            with pytest.raises(evolution.ToleranceNotReached, match=re.escape(
                    f"on [0.0, {t1!r}] needs more than {budget} CF4 steps a pass: "
                    f"its generator bound times its length is {bound}")):
                propagate(gen, 0.0, t1)
        passes.assert_not_called()

    @pytest.mark.parametrize("tolerance", [0.0, -1e-12, float("nan"), float("inf")])
    def test_config_rejects_bad_tolerance(self, tolerance):
        # at tolerance inf a time-dependent propagator would pass before any CF4 pass
        gen = make_generator(ModeLayout(1, 1), seed=4, degree=1)
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            propagate(gen, 0.0, 1.0, tolerance)

    def test_generator_validation(self):
        layout = ModeLayout(1, 0)
        with pytest.raises(ValueError):
            AnalyticGenerator(layout=layout, coeffs=(np.eye(2),))
        with pytest.raises(ValueError):
            AnalyticGenerator(layout=layout, coeffs=())


class TestResultingEvolution:
    def test_empty_schedule(self):
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=5)
        sched = flip_train_schedule([], n_system=1)
        S = resulting_evolution(gen, sched, 0.4)
        assert np.abs(S - propagate(gen, 0.0, 0.4)).max() < 1e-13

    def test_two_flips_cancel_on_zero_generator(self):
        layout = ModeLayout(1, 1)
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((4, 4)),))
        sched = flip_train_schedule([0.3, 0.8], n_system=1)
        assert np.array_equal(resulting_evolution(gen, sched, 1.0), np.eye(4))

    def test_flip_negates_only_the_system_block(self):
        layout = ModeLayout(2, 1)
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((6, 6)),))
        S = resulting_evolution(gen, flip_train_schedule([0.5], n_system=2), 1.0)
        assert np.array_equal(S, np.diag([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0]))

    def test_pulse_of_wrong_m_rejected(self):
        layout = ModeLayout(2, 1)
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((6, 6)),))
        # an m = 0 pulse is 2x2, the system block is 4x4
        sched = PulseSchedule(scheme="bosonic-homogenization", order=1, deltas=[0.5],
                              pulses=[[(1, 1)]], signs=[1], m=0, n_system=1)
        with pytest.raises(ValueError, match="pulse dimension 2 does not match "
                                             "system dimension 4"):
            resulting_evolution(gen, sched, 1.0)

    @pytest.mark.parametrize("degree", [0, 1])
    def test_empty_grid_gives_an_empty_stack(self, degree):
        # both generator classes: the exact path and the CF4 path
        layout = ModeLayout(2, 1)
        gen = make_generator(layout, seed=4, degree=degree)
        for sched in (decoupling_schedule(3, 2), homogenization_schedule(1, 1)):
            S = resulting_evolution(gen, sched, np.array([]))
            assert S.shape == (0, layout.dim, layout.dim)

    @given(seeds, st.integers(0, 2), st.integers(1, 5), st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_signed_pulses_match_per_entry_walk(self, seed, m, n_pulses, degree):
        sched = signed_closed_schedule(seed, m, n_pulses)
        layout = ModeLayout(2 ** m, 1)
        gen = make_generator(layout, seed=seed, degree=degree)
        T = 0.3
        bounds = [0.0, *(sched.deltas * T), T]
        S = np.eye(layout.dim)
        for j, t0, t1 in zip(range(len(sched)), bounds, bounds[1:]):
            S = embedded_pulse(sched, j, layout) @ propagate(gen, t0, t1) @ S
        S = propagate(gen, bounds[-2], T) @ S
        assert rel_dist(resulting_evolution(gen, sched, T), S) <= 1e-12

    def test_first_order_decoupling_slope(self):
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=6)
        grid = np.logspace(-3, -1.5, 5)
        res = order_sweep(gen, "decoupling", 1, grid)
        assert res.slope == pytest.approx(2.0, abs=0.3)

    def test_symplectic_output(self):
        layout = ModeLayout(2, 2)
        gen = make_generator(layout, seed=7)
        sched = decoupling_schedule(2, layout.n_system)
        S = resulting_evolution(gen, sched, 0.3)
        assert is_symplectic(S, symplectic_form(layout), tol=1e-9)

    @pytest.mark.parametrize("degree, T", [(0, 10.0), (1, 6.0)])
    def test_large_norm_evolution(self, degree, T):
        # ||S||_2 is ~1e5 (degree 0) and ~1e10 (degree 1): an absolute
        # step-halving test cannot reach 1e-12 here
        layout = ModeLayout(1, 2)
        gen = make_generator(layout, seed=3, degree=degree)
        S = resulting_evolution(gen, decoupling_schedule(2, 1), T)
        norm = spectral_norm(S)
        assert norm > 1e4
        assert symplectic_residual(S, symplectic_form(layout)) < 1e-12 * norm ** 2


def embedded_pulse(schedule, j, layout):
    """Pulse j on the system block and identity elsewhere, embedded on its
    own from s_matrix of its single index: the per-entry oracle."""
    P = np.eye(layout.dim)
    d = layout.system_dim
    P[:d, :d] = (-np.eye(d) if schedule.is_flip_schedule
                 else schedule.signs[j] * s_matrix(schedule.pulses[j]))
    return P


def control_product(schedule, t, T, layout):
    """Accumulated pulse product S_ctr(t): pulses applied strictly before t."""
    C = np.eye(layout.dim)
    for j, delta in enumerate(schedule.deltas):
        if delta * T < t:
            C = embedded_pulse(schedule, j, layout) @ C
    return C


def dense_product_sign(schedule):
    """Sign s of the dense time-ordered product prod sign * S_alpha = s I."""
    d = 2 ** (schedule.m + 1)
    P = np.eye(d)
    for sign, alpha in zip(schedule.signs, schedule.pulses):
        P = (sign * s_matrix(alpha)) @ P
    assert np.array_equal(P, P[0, 0] * np.eye(d))
    return int(P[0, 0])


def toggling_generator(gen, schedule, t, T):
    """S_ctr(t)^{-1} X(t) S_ctr(t): the dense-conjugation oracle for the
    toggling sign functions."""
    C = control_product(schedule, t, T, gen.layout)
    return np.linalg.solve(C, generator_values(gen, t) @ C)


class TestToggling:
    def test_before_first_pulse(self):
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=8)
        sched = decoupling_schedule(2, 1)
        X = toggling_generator(gen, sched, 0.1, 1.0)
        assert np.abs(X - generator_values(gen, 0.1)).max() < 1e-14

    def test_flip_negates_coupling_blocks(self):
        layout = ModeLayout(1, 2)
        gen = make_generator(layout, seed=9)
        sched = decoupling_schedule(2, 1)
        t = 0.5  # after the first pulse at 0.25, before 0.75
        X = toggling_generator(gen, sched, t, 1.0)
        b0 = block_decompose(generator_values(gen, t), layout)
        b1 = block_decompose(X, layout)
        assert np.abs(b1.ss - b0.ss).max() < 1e-14
        assert np.abs(b1.ee - b0.ee).max() < 1e-14
        assert np.abs(b1.se + b0.se).max() < 1e-14
        assert np.abs(b1.es + b0.es).max() < 1e-14

    def test_sign_grid_matches_sigma(self):
        layout = ModeLayout(2, 1)
        gen = make_generator(layout, seed=10)
        sched = decoupling_schedule(3, 2)
        sigma = sched.deltas[toggling_sign_function(sched, 1)]
        T = 2.0
        for tau in np.linspace(0.01, 0.99, 23):
            X = toggling_generator(gen, sched, tau * T, T)
            b0 = block_decompose(generator_values(gen, tau * T), layout)
            b1 = block_decompose(X, layout)
            s = sign_value(sigma, tau)
            assert np.abs(b1.se - s * b0.se).max() < 1e-13

    def test_homogenization_coefficients_pick_up_signs(self):
        # basis coefficients of the toggled generator are F_alpha * B_alpha
        m = 1
        layout = ModeLayout(2, 0)
        gen = random_generator(layout, seed=11, scale_ss=1.0, scale_se=0.0,
                               scale_ee=0.0)
        sched = homogenization_schedule(1, m)
        T = 1.0
        base = expand_in_basis(generator_values(gen, 0.37), m)
        toggled = expand_in_basis(toggling_generator(gen, sched, 0.37, T), m)
        for flips, b, t in zip(toggling_sign_function(sched, gamma_set(m)), base, toggled):
            assert t == pytest.approx(sign_value(sched.deltas[flips], 0.37) * b, abs=1e-13)


class TestHomogenizationFit:
    def test_exact_rotation(self):
        d = 4
        J = -s_matrix(symplectic_form_index(1))
        S = math.cos(0.3) * np.eye(d) + math.sin(0.3) * J
        fit = homogenization_fit(S, T=1.0)
        assert fit.omega == pytest.approx(0.3, abs=1e-14)
        assert fit.residual < 1e-12

    def test_identity(self):
        fit = homogenization_fit(np.eye(4), T=0.7)
        assert fit.omega == 0.0
        assert fit.residual < 1e-15

    def test_orthogonal_perturbation(self):
        # a perturbation trace-orthogonal to I and J passes through exactly
        m = 1
        J = -s_matrix(symplectic_form_index(m))
        alpha = next(a for a in gamma_set(m)
                     if (a != symplectic_form_index(m)).any())
        P = s_matrix(alpha)
        eps = 1e-4
        S = math.cos(0.2) * np.eye(4) + math.sin(0.2) * J + eps * P
        fit = homogenization_fit(S, T=1.0)
        assert fit.residual == pytest.approx(eps * np.linalg.norm(P), rel=1e-8)

    def test_degenerate(self):
        S = np.zeros((2, 2))
        S[0, 1] = S[1, 0] = 1.0  # trace-free, J-component-free
        with pytest.raises(DegenerateRotationFit):
            homogenization_fit(S, T=1.0)

    @given(st.integers(1, 16), st.integers(1, 20), seeds)
    @settings(max_examples=40, deadline=None)
    @example(1, 1, 0)
    @example(16, 20, 1)
    def test_stack_equals_each_matrix_alone(self, half, count, seed):
        # rotations perturbed at scales from 1e-12 to 10, and random T: each
        # entry of the stacked fit is bitwise the fit of its matrix alone,
        # and that is the one-matrix formula in math's scalar functions
        d, rng = 2 * half, np.random.default_rng(seed)
        J = symplectic_form(ModeLayout(half))
        theta = rng.uniform(-math.pi, math.pi, count)[:, None, None]
        scale = 10.0 ** rng.uniform(-12, 1, count)[:, None, None]
        S = np.cos(theta) * np.eye(d) + np.sin(theta) * J + scale * rng.normal(size=(count, d, d))
        T = 10.0 ** rng.uniform(-3, 1, count)
        fit = homogenization_fit(S, T)
        assert fit.omega.shape == fit.residual.shape == (count,)
        for k in range(count):
            alone = homogenization_fit(S[k], T[k])
            assert type(alone.omega) is type(alone.residual) is float
            assert (alone.omega, alone.residual) == (fit.omega[k], fit.residual[k])
            c1, c2 = float(np.trace(S[k])) / d, float(np.trace(J.T @ S[k])) / d
            angle = math.atan2(c2, c1)
            R = math.cos(angle) * np.eye(d) + math.sin(angle) * J
            assert alone.omega == angle / T[k]
            assert alone.residual == float(np.linalg.norm(S[k] - R))

    def test_one_degenerate_matrix_rejects_the_stack(self):
        S = np.tile(np.eye(2), (3, 1, 1))
        S[1] = [[0.0, 1.0], [1.0, 0.0]]  # trace-free, J-component-free
        with pytest.raises(DegenerateRotationFit,
                           match="both trace projections vanish; no rotation fit"):
            homogenization_fit(S, np.ones(3))


class TestOrderSweep:
    def test_zero_coupling_floors(self):
        layout = ModeLayout(1, 1)
        gen = random_generator(layout, seed=12, scale_ss=1.0, scale_se=0.0,
                               scale_ee=1.0)
        res = order_sweep(gen, "decoupling", 2, np.logspace(-3, -1, 4))
        assert all(res.floor_flags)
        assert res.slope is None

    def test_homogenization_requires_decoupled(self):
        layout = ModeLayout(2, 1)
        gen = make_generator(layout, seed=13, coupled=True)
        with pytest.raises(ValueError):
            order_sweep(gen, "homogenization", 1, [0.1, 0.2])

    def test_homogenization_requires_power_of_two(self):
        layout = ModeLayout(3, 1)
        gen = random_generator(layout, seed=14, scale_ss=1.0, scale_se=0.0,
                               scale_ee=1.0)
        with pytest.raises(ValueError):
            order_sweep(gen, "homogenization", 1, [0.1, 0.2])

    @pytest.mark.parametrize("scheme", ["decoupling", "homogenization"])
    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_bad_time_rejected_before_the_walk(self, scheme, bad):
        layout = ModeLayout(2, 1) if scheme == "homogenization" else ModeLayout(1, 1)
        gen = random_generator(layout, seed=15, scale_ss=1.0,
                               scale_se=0.0 if scheme == "homogenization" else 1.0,
                               scale_ee=1.0)
        with mock.patch.object(evolution, "_walk", wraps=evolution._walk) as walks, \
                pytest.raises(ValueError, match=re.escape(f"need 0 < T < inf, got T = {bad}")):
            order_sweep(gen, scheme, 1, [bad, 0.1])
        assert walks.call_count == 0

    @pytest.mark.parametrize("order", [1, 2])
    def test_homogenization_omega_stability(self, order):
        # fitted rotation frequency settles as T -> 0: the three smallest-T
        # estimates agree within 10% (after pulse-product sign correction,
        # which matters for even orders where the product is -I)
        layout = ModeLayout(2, 1)
        gen = random_generator(layout, seed=310 + order, scale_ss=1.0,
                               scale_se=0.0, scale_ee=1.0)
        res = order_sweep(gen, "homogenization", order,
                          np.logspace(-3, -1, 10))
        smallest = res.omegas[:3]
        spread = max(smallest) - min(smallest)
        assert spread < 0.1 * abs(np.mean(smallest))
        if order == 2:
            assert res.product_sign == -1

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_product_sign_matches_dense_product(self, order, m):
        dense = dense_product_sign(homogenization_schedule(order, m))
        gen = random_generator(ModeLayout(2 ** m, 0), seed=20 + order, scale_ss=1.0,
                               scale_se=0.0, scale_ee=1.0)
        res = order_sweep(gen, "homogenization", order, [1e-2, 2e-2])
        assert res.product_sign == dense

    @given(seeds, st.integers(0, 2), st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_product_sign_of_signed_schedules(self, seed, m, n_pulses):
        # random signs and an odd count of y factors can make the time order
        # and the entry signs matter, unlike in the nested schedules
        sched = signed_closed_schedule(seed, m, n_pulses)
        assert evolution._pulse_product_sign(sched) == dense_product_sign(sched)

    def test_product_not_identity_rejected(self):
        sched = homogenization_schedule(2, 1)
        pulses = sched.pulses.copy()
        pulses[0, 1, 0] ^= 1
        mutated = replace(sched, pulses=pulses)
        gen = random_generator(ModeLayout(2, 1), seed=21, scale_ss=1.0,
                               scale_se=0.0, scale_ee=1.0)
        with mock.patch.object(evolution, "homogenization_schedule",
                               return_value=mutated):
            with pytest.raises(ValueError, match="pulse product is not"):
                order_sweep(gen, "homogenization", 2, [1e-2, 2e-2])

    def test_integrator_self_consistency(self):
        # the residual does not depend on the first-pass size: the norm-sized
        # one and twice it
        layout = ModeLayout(1, 2)
        gen = make_generator(layout, seed=16, degree=1)
        sched = decoupling_schedule(2, 1)
        r = []
        for scale in (1, 2):
            with scaled_first_passes(scale):
                S = resulting_evolution(gen, sched, 0.05)
            r.append(offdiag_residual(S, layout))
        assert abs(r[0] - r[1]) < max(0.01 * abs(r[1]), 1e-13)


def per_point_sweep(gen, scheme, order, grid):
    """Residuals, omegas and the tolerances walked of a sweep whose every
    point is walked alone and afresh at each tolerance of the re-tightening
    rule, and fitted alone: the former per-point loop of ``order_sweep``,
    kept as its oracle.  A homogenization point walks the system block of
    the decoupled generator, as the sweep does."""
    coeffs, layout = gen.coeffs, gen.layout
    if scheme == "decoupling":
        sched, sign = decoupling_schedule(order, layout.n_system), 1
    else:
        sched = homogenization_schedule(order, layout.n_system.bit_length() - 1)
        sign = evolution._pulse_product_sign(sched)
        d = layout.system_dim
        coeffs, layout = tuple(X[:d, :d] for X in coeffs), ModeLayout(layout.n_system)
    residuals, omegas, tolerances = [], [], []
    for T in grid:
        tol = DEFAULT_TOL
        tolerances.append([])
        for _ in range(4):
            tolerances[-1].append(tol)
            S = _walk(coeffs, sched, layout, T, tol)
            if scheme == "decoupling":
                residual, omega = offdiag_residual(S, layout), math.nan
            else:
                fit = homogenization_fit(sign * S, T)
                residual, omega = fit.residual, fit.omega
            if residual < evolution.FIT_WINDOW[0] or tol <= residual / 100.0:
                break
            new_tol = max(residual / 200.0, 1e-13)
            if new_tol >= tol:
                break
            tol = new_tol
        residuals.append(residual)
        omegas.append(omega)
    return residuals, omegas, tolerances


class TestBatchedSweep:
    @given(st.sampled_from(["decoupling", "homogenization"]), st.integers(0, 1),
           st.integers(0, 2), seeds, st.integers(1, 2), st.integers(1, 3),
           st.floats(1e-3, 0.3), st.floats(1.5, 30.0), st.integers(2, 5),
           st.sampled_from([1, 360, 3000, evolution.FLOW_ELEMENTS]))
    @settings(max_examples=25, deadline=None)
    # a re-tightened point whose later passes move its residual, in one
    # batch of all five points and in batches of two
    @example("decoupling", 0, 2, 7, 2, 4, 1e-2, 30.0, 5, evolution.FLOW_ELEMENTS)
    @example("decoupling", 0, 2, 7, 2, 4, 1e-2, 30.0, 5, 360)
    def test_batched_sweep_equals_per_point_fresh_walks(self, scheme, m, n_env, seed,
                                                        degree, order, tmin, ratio,
                                                        points, elements):
        # the budget puts every point in its own batch (1), a few in each
        # (360: two points of the examples) or all in one; each point's
        # residual is bitwise a fresh walk's
        layout = ModeLayout(2 ** m if scheme == "homogenization" else m + 1, n_env)
        gen = random_generator(layout, seed=seed, scale_ss=1.0,
                               scale_se=0.0 if scheme == "homogenization" else 1.0,
                               scale_ee=1.0, degree=degree)
        grid = np.geomspace(tmin, tmin * ratio, points)
        try:
            expected = per_point_sweep(gen, scheme, order, grid)
        except evolution.ToleranceNotReached:
            return
        with mock.patch.object(evolution, "FLOW_ELEMENTS", elements):
            res = order_sweep(gen, scheme, order, grid)
        assert list(res.residuals) == expected[0]
        if scheme == "homogenization":
            assert list(res.omegas) == expected[1]

    @given(layouts, seeds, st.integers(1, 2), st.integers(1, 4), st.floats(0.01, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_time_dependent_walks_never_call_scipy_expm(self, layout, seed, degree,
                                                        order, T):
        # norm-sized passes keep every factor in the Taylor branch and call
        # the kernel directly; a walk whose first pass would need more than
        # MAX_STEPS steps is refused
        import scipy.linalg
        gen = make_generator(layout, seed=seed, degree=degree)
        sched = decoupling_schedule(order, layout.n_system)
        with mock.patch.object(scipy.linalg, "expm",
                               side_effect=AssertionError("scipy expm called")), \
                mock.patch.object(evolution, "matrix_exponential",
                                  side_effect=AssertionError("matrix_exponential called")):
            try:
                resulting_evolution(gen, sched, T)
            except evolution.ToleranceNotReached:
                pass

    @given(st.builds(ModeLayout, st.integers(1, 2), st.integers(0, 2)), seeds,
           st.integers(1, 4), st.floats(0.0, 30.0),
           st.lists(st.floats(-7.0, 1.0), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    # first passes of MAX_STEPS steps, far from t = 0 at degree 4
    @example(ModeLayout(1, 1), 3, 4, 20.0, [-2.99])
    @example(ModeLayout(1, 1), 3, 1, 30.0, [0.659, -3.0])
    def test_every_cf4_factor_stays_below_theta(self, layout, seed, degree, t0,
                                                log_spans):
        # _cf4_pass calls the Taylor kernel without a norm screen: every
        # factor of every pass, first or refined, must have 1-norm <= theta
        coeffs = np.asarray(make_generator(layout, seed=seed, degree=degree).coeffs)
        t0s, t1s = [], []
        for u in log_spans:  # the intervals whose first pass MAX_STEPS allows
            try:
                evolution._first_steps(coeffs, np.array([t0]), np.array([t0 + 10 ** u]))
            except evolution.ToleranceNotReached:
                continue
            t0s.append(t0)
            t1s.append(t0 + 10 ** u)
        norms = []  # read at each call: a pass reuses its scratch for the next

        def kernel(X, *work):
            norms.append(np.abs(X).sum(axis=-2).max())
            return _taylor_exponential(X, *work)

        with mock.patch.object(evolution, "_taylor_exponential", kernel):
            try:
                _flows(coeffs, t0s, t1s)
            except evolution.ToleranceNotReached:
                pass
        assert norms or not t0s
        assert all(norm <= _TAYLOR_THETA for norm in norms)


def full_dimension_sweep(gen, order, grid):
    """A homogenization sweep whose every walk takes the whole generator,
    environment block and all, and hands the fit its system block."""
    d = gen.layout.system_dim
    walk = evolution._walk

    def full_walk(coeffs, schedule, layout, T, tol):
        return walk(gen.coeffs, schedule, gen.layout, T, tol)[..., :d, :d]

    with mock.patch.object(evolution, "_walk", full_walk):
        return order_sweep(gen, "homogenization", order, grid)


class TestSystemBlockSweep:
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_walk_sees_the_system_block(self, degree):
        gen = random_generator(ModeLayout(2, 3), seed=5, scale_ss=1.0, scale_se=0.0,
                               scale_ee=1.0, degree=degree)
        with mock.patch.object(evolution, "_walk", wraps=evolution._walk) as walks:
            order_sweep(gen, "homogenization", 2, np.geomspace(1e-2, 0.3, 4))
        assert walks.call_count >= 1
        for call in walks.call_args_list:
            coeffs, _, layout = call.args[:3]
            assert layout == ModeLayout(2, 0)
            assert [X.shape for X in coeffs] == [(4, 4)] * (degree + 1)
            for X, full in zip(coeffs, gen.coeffs):
                assert np.array_equal(X, full[:4, :4])

    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_sweep_ignores_the_environment(self, order):
        # at degree 0 the system block is drawn first, whatever n_env
        grid = np.geomspace(2e-2, 0.5, 6)
        sweeps = [order_sweep(random_generator(ModeLayout(2, n_env), seed=3, scale_ss=1.0,
                                               scale_se=0.0, scale_ee=1.0),
                              "homogenization", order, grid) for n_env in (0, 1, 4, 8)]
        for res in sweeps[1:]:
            assert (res.residuals, res.omegas) == (sweeps[0].residuals, sweeps[0].omegas)

    @pytest.mark.parametrize("n_env", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    @pytest.mark.parametrize("seed, order", [(1, 1), (2, 2)])
    def test_equals_the_full_dimension_walk(self, n_env, degree, seed, order):
        # the environment block reaches neither the pulses nor the fit, so
        # dropping it moves a constant sweep at roundoff only, and a
        # time-dependent one within the integrator's tolerance (every walk is
        # at DEFAULT_TOL or tighter); omega is compared as the fitted angle
        gen = random_generator(ModeLayout(2, n_env), seed=seed, scale_ss=1.0,
                               scale_se=0.0, scale_ee=1.0, degree=degree)
        grid = np.geomspace(2e-2, 0.5, 6)
        res = order_sweep(gen, "homogenization", order, grid)
        full = full_dimension_sweep(gen, order, grid)
        bound = 1e-15 if degree == 0 else DEFAULT_TOL
        assert np.abs(np.subtract(res.residuals, full.residuals)).max() <= bound
        assert np.abs(grid * np.subtract(res.omegas, full.omegas)).max() <= bound
        if degree == 0:
            assert np.abs(np.subtract(res.omegas, full.omegas)).max() <= 1e-15
        assert res.product_sign == full.product_sign


class TestErrorBound:
    def test_zero_time(self):
        assert decoupling_error_bound(1.0, 1.0, 2, 0.0) == 0.0

    def test_frozen_value_at_unit_argument(self):
        # e sqrt(2) / 2 ~ 1.9221 at N = 1, (J0+Jz)T = 1
        expected = math.e * math.sqrt(2.0) / 2.0
        assert expected == pytest.approx(1.92212, abs=5e-6)
        assert decoupling_error_bound(0.6, 0.4, 1, 1.0) == pytest.approx(
            expected, rel=1e-12)

    def test_series_fallback(self):
        val = decoupling_error_bound(2.0, 1.0, 2, 1.0)  # x = 3 > 1
        assert math.isfinite(val) and val > 0
        # tail series: sqrt(2) (e^3 - 1 - 3 - 9/2)
        assert val == pytest.approx(math.sqrt(2) * (math.exp(3) - 8.5), rel=1e-12)

    @pytest.mark.parametrize("x", [710.0, 1e300])  # e^x, or x^2 before it, overflows
    def test_vacuous_past_the_float_range(self, x):
        assert decoupling_error_bound(x, 0.0, 2, 1.0) == math.inf

    @pytest.mark.parametrize("j0, jz, t_total, expected", [
        (math.inf, 0.0, 1.0, math.inf),
        (0.5, math.inf, 1.0, math.inf),
        (1.0, 1.0, math.inf, math.inf),
        (math.inf, 1.0, 0.0, 0.0),  # no time, no evolution
        (0.0, 0.0, math.inf, 0.0),  # no coupling, no evolution
    ])
    def test_infinite_inputs(self, j0, jz, t_total, expected):
        assert decoupling_error_bound(j0, jz, 2, t_total) == expected

    @pytest.mark.parametrize("order", [169, 170, 171, 400])
    @pytest.mark.parametrize("x", [0.0, 0.5, 0.99, 1.0])
    def test_closed_form_past_the_factorial_range(self, order, x):
        # (N+1)! leaves the float range at N = 170; the bound is then below
        # 1e-308, a subnormal or 0, and must not raise
        with mpmath.workdps(50):
            exact = float(mpmath.e * mpmath.sqrt(2) * mpmath.mpf(x) ** (order + 1)
                          / mpmath.factorial(order + 1))
        assert decoupling_error_bound(x, 0.0, order, 1.0) == pytest.approx(
            exact, rel=1e-9, abs=1e-320)

    @pytest.mark.parametrize("x, order, expected", [
        (1.5, 40, 7.2712345574054912e-43),
        (2.0, 170, 3.4510029403277494e-258),
        (2.0, 171, 4.0125213044889432e-260),
        (5.0, 10, 2.8744711994327527),
    ])
    def test_tail_series_to_full_precision(self, x, order, expected):
        # sqrt(2) sum_{s>N} x^s/s! from its first term: e^x minus the head
        # cancelled to rounding noise here (-2.5e-15 at x = 1.5, N = 40)
        with mpmath.workdps(50):
            xm = mpmath.mpf(x)
            exact = mpmath.sqrt(2) * mpmath.fsum(
                xm ** s / mpmath.factorial(s) for s in range(order + 1, order + 100))
        assert float(exact) == pytest.approx(expected, rel=1e-16, abs=0.0)
        assert decoupling_error_bound(x, 0.0, order, 1.0) == pytest.approx(
            expected, rel=1e-13, abs=0.0)

    def test_finite_just_inside_the_float_range(self):
        assert decoupling_error_bound(709.0, 0.0, 2, 1.0) == pytest.approx(
            math.sqrt(2) * math.exp(709.0), rel=1e-12)

    def test_block_norms(self):
        layout = ModeLayout(1, 2)
        gen = make_generator(layout, seed=17)
        j0, jz = generator_block_norms(gen)
        b = block_decompose(gen.coeffs[0], layout)
        assert j0 == pytest.approx(np.linalg.norm(b.ee, 2), rel=1e-8)
        assert jz == pytest.approx(np.linalg.norm(b.ss, 2)
                                   + np.linalg.norm(b.se, 2), rel=1e-8)

    def test_rejects_time_dependent(self):
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=18, degree=1)
        with pytest.raises(ValueError):
            generator_block_norms(gen)


class TestAffinePropagation:
    def test_zero_drive_displacement(self):
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=19)
        d0 = np.array([0.3, -0.2, 0.1, 0.5])
        M0 = np.eye(4)
        M, d = affine_propagate(gen, M0, d0, T=0.6)
        S = propagate(gen, 0.0, 0.6)
        assert np.abs(d - S @ d0).max() < 1e-12
        assert np.abs(M - S @ M0 @ S.T).max() < 1e-12

    def test_covariance_independent_of_drive(self):
        layout = ModeLayout(1, 1)
        base = make_generator(layout, seed=20)
        d0 = np.zeros(4)
        M0 = np.diag([2.0, 0.5, 1.0, 1.0])
        outputs = []
        for drive_seed in (None, 21, 22):
            if drive_seed is None:
                gen = base
            else:
                rng = np.random.default_rng(drive_seed)
                gen = AnalyticGenerator(layout=layout, coeffs=base.coeffs,
                                        linear=tuple(rng.uniform(-1, 1, 4)
                                                     for _ in range(2)))
            M, _ = affine_propagate(gen, M0, d0, T=0.8)
            outputs.append(M)
        assert np.abs(outputs[0] - outputs[1]).max() < 1e-11
        assert np.abs(outputs[1] - outputs[2]).max() < 1e-11

    def test_constant_drive_free_particle(self):
        layout = ModeLayout(1, 0)
        b = np.array([0.4, -0.7])
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((2, 2)),),
                                linear=(b,))
        d0 = np.array([1.0, 2.0])
        M0 = np.eye(2)
        M, d = affine_propagate(gen, M0, d0, T=1.5)
        assert np.abs(M - M0).max() < 1e-14
        assert np.abs(d - (d0 + 1.5 * b)).max() < 1e-12

    def test_time_dependent_drive_free_particle(self):
        # a constant X with a time-dependent drive is not a constant
        # embedded generator: d(T) = d0 + b0 T + b1 T^2 / 2
        layout = ModeLayout(1, 0)
        b0, b1 = np.array([0.4, -0.7]), np.array([-0.3, 0.9])
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((2, 2)),),
                                linear=(b0, b1))
        d0 = np.array([1.0, 2.0])
        _, d = affine_propagate(gen, np.eye(2), d0, T=1.5)
        assert np.abs(d - (d0 + 1.5 * b0 + 1.125 * b1)).max() < 1e-12

    def test_against_fine_step_reference(self):
        layout = ModeLayout(1, 1)
        rng = np.random.default_rng(23)
        gen = with_drive(random_generator(layout, seed=23, scale_ss=0.8, scale_se=0.5,
                                          scale_ee=0.8, degree=1), 23, 0.7)
        d0 = rng.uniform(-1, 1, 4)
        M0 = np.eye(4)
        T = 0.9
        _, d = affine_propagate(gen, M0, d0, T)

        # reference: classic RK4 on ddot = X(t) d + b(t)
        n = 20000
        h = T / n
        dref = d0.astype(float).copy()
        for k in range(n):
            t = k * h

            def f(tt, dd):
                drive = sum(b * tt ** r for r, b in enumerate(gen.linear))
                return generator_values(gen, tt) @ dd + drive

            k1 = f(t, dref)
            k2 = f(t + h / 2, dref + h / 2 * k1)
            k3 = f(t + h / 2, dref + h / 2 * k2)
            k4 = f(t + h, dref + h * k3)
            dref = dref + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.abs(d - dref).max() < 1e-9

    def test_with_pulses_applies_to_displacement(self):
        layout = ModeLayout(1, 1)
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((4, 4)),))
        sched = flip_train_schedule([0.5], n_system=1)
        d0 = np.array([1.0, 1.0, 1.0, 1.0])
        _, d = affine_propagate(gen, np.eye(4), d0, T=1.0, schedule=sched)
        assert np.abs(d - np.array([-1.0, -1.0, 1.0, 1.0])).max() < 1e-14

    def test_asymmetric_covariance_rejected(self):
        layout = ModeLayout(1, 0)
        gen = AnalyticGenerator(layout=layout, coeffs=(np.zeros((2, 2)),))
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            affine_propagate(gen, M, np.zeros(2), T=1.0)


class TestRandomGenerator:
    def test_deterministic(self):
        layout = ModeLayout(2, 1)
        a = random_generator(layout, seed=42, scale_ss=1.0, scale_se=0.5,
                             scale_ee=2.0, degree=2)
        b = random_generator(layout, seed=42, scale_ss=1.0, scale_se=0.5,
                             scale_ee=2.0, degree=2)
        for Xa, Xb in zip(a.coeffs, b.coeffs):
            assert np.array_equal(Xa, Xb)

    def test_membership_and_flag(self):
        layout = ModeLayout(1, 2)
        gen = random_generator(layout, seed=1, scale_ss=1.0, scale_se=0.0,
                               scale_ee=1.0, degree=1)
        assert gen.decoupled
        assert len(gen.coeffs) == 2


LAYOUT = ModeLayout(1, 1)  # dim 4


@pytest.mark.parametrize("call, message", [
    (lambda: order_sweep(make_generator(LAYOUT), "periodic", 2, [1e-2, 2e-2]),
     "unknown sweep scheme 'periodic'"),
    (lambda: homogenization_fit(np.eye(3), 1.0), "square of even dimension"),
    (lambda: homogenization_fit(np.eye(4)[:2], 1.0), "square of even dimension"),
    (lambda: homogenization_fit(np.eye(4), 0.0), "need 0 < T < inf, got T = 0.0"),
    (lambda: homogenization_fit(np.eye(4), -0.5), "need 0 < T < inf, got T = -0.5"),
    (lambda: homogenization_fit(np.eye(4), math.nan), "need 0 < T < inf, got T = nan"),
    (lambda: homogenization_fit(np.eye(4), math.inf), "need 0 < T < inf, got T = inf"),
    (lambda: homogenization_fit(np.zeros((2, 3, 3)), np.ones(2)), "square of even dimension"),
    (lambda: homogenization_fit(np.tile(np.eye(4), (3, 1, 1)), np.array([0.5, 0.0, -1.0])),
     "need 0 < T < inf, got T = 0.0"),
    (lambda: homogenization_fit(np.tile(np.eye(4), (2, 1, 1)), np.array([0.5, math.nan])),
     "need 0 < T < inf, got T = nan"),
    (lambda: AnalyticGenerator(layout=LAYOUT, coeffs=(np.zeros((2, 2)),)),
     "coefficient 0 has shape (2, 2), expected (4, 4)"),
    (lambda: AnalyticGenerator(layout=LAYOUT, coeffs=(np.zeros((4, 4)),),
                               linear=(np.zeros(4), np.zeros(3))),
     "linear coefficient 1 has shape (3,)"),
    (lambda: decoupling_error_bound(1.0, 1.0, -1, 1.0), "order and time must be nonnegative"),
    (lambda: decoupling_error_bound(1.0, 1.0, 2, -1.0), "order and time must be nonnegative"),
    (lambda: decoupling_error_bound(1.0, 1.0, 2, math.nan),
     "order and time must be nonnegative, got N = 2, T = nan"),
    (lambda: decoupling_error_bound(-5.0, 1.0, 2, 1.0),
     "norms must be nonnegative, got J0 = -5.0, Jz = 1.0"),
    (lambda: decoupling_error_bound(1.0, -0.5, 2, 1.0),
     "norms must be nonnegative, got J0 = 1.0, Jz = -0.5"),
    (lambda: decoupling_error_bound(math.nan, 1.0, 2, 1.0),
     "norms must be nonnegative, got J0 = nan, Jz = 1.0"),
    (lambda: decoupling_error_bound(1.0, math.nan, 2, 1.0),
     "norms must be nonnegative, got J0 = 1.0, Jz = nan"),
    (lambda: affine_propagate(make_generator(LAYOUT), np.eye(3), np.zeros(4), 1.0),
     "covariance shape (3, 3) != (4, 4)"),
    (lambda: affine_propagate(make_generator(LAYOUT), np.eye(4), np.zeros(5), 1.0),
     "displacement shape (5,) != (4,)"),
    (lambda: random_generator(LAYOUT, 0, 1.0, -0.5, 1.0), "scales must be nonnegative"),
    (lambda: random_generator(LAYOUT, 0, math.inf, 1.0, 1.0), "scales must be nonnegative"),
    (lambda: random_generator(LAYOUT, 0, 1.0, 1.0, math.nan), "nonnegative and finite"),
    (lambda: random_generator(LAYOUT, 0, 1.0, 1.0, 1.0, degree=5),
     "polynomial degree capped at 4"),
    (lambda: random_generator(LAYOUT, 0, 1.0, 1.0, 1.0, degree=-1),
     "got -1: need 0..4"),
    (lambda: resulting_evolution(make_generator(LAYOUT), decoupling_schedule(2, 1), -0.5),
     "need 0 <= T < inf, got T = -0.5"),
    (lambda: resulting_evolution(make_generator(LAYOUT, degree=1), decoupling_schedule(2, 1),
                                 [0.1, math.nan]), "need 0 <= T < inf, got T = nan"),
    (lambda: resulting_evolution(make_generator(LAYOUT, degree=1), decoupling_schedule(2, 1),
                                 math.inf), "need 0 <= T < inf, got T = inf"),
    (lambda: resulting_evolution(make_generator(LAYOUT), decoupling_schedule(1, 1),
                                 np.full((3, 3), 0.1)),
     "T must be one time or a 1-D grid, got shape (3, 3)"),
    (lambda: affine_propagate(make_generator(LAYOUT), np.eye(4), np.zeros(4), -1.0),
     "need 0 <= T < inf, got T = -1.0"),
    (lambda: affine_propagate(make_generator(LAYOUT), np.eye(4), np.zeros(4), [0.1, 0.2]),
     "affine propagation takes one T, got shape (2,)"),
    # a flip schedule for another number of system modes has the same pulses
    (lambda: resulting_evolution(make_generator(LAYOUT), decoupling_schedule(2, 2), 0.1),
     "schedule for 2 system modes does not match the layout's 1"),
    (lambda: resulting_evolution(make_generator(ModeLayout(2, 1), degree=1),
                                 decoupling_schedule(2, 3), [0.1, 0.2]),
     "schedule for 3 system modes does not match the layout's 2"),
    (lambda: affine_propagate(make_generator(LAYOUT), np.eye(4), np.zeros(4), 0.1,
                              schedule=decoupling_schedule(3, 2)),
     "schedule for 2 system modes does not match the layout's 1"),
], ids=["scheme", "odd-fit", "nonsquare-fit", "fit-time-zero", "fit-time-negative",
        "fit-time-nan", "fit-time-inf", "odd-fit-stack", "fit-stack-time-zero",
        "fit-stack-time-nan", "coefficient-shape", "linear-shape",
        "bound-order", "bound-time", "bound-time-nan", "bound-j0-negative",
        "bound-jz-negative", "bound-j0-nan", "bound-jz-nan", "covariance-shape", "displacement-shape",
        "generator-scale", "generator-scale-inf", "generator-scale-nan", "generator-degree",
        "generator-degree-negative", "walk-time-negative", "walk-time-nan", "walk-time-inf",
        "walk-time-2d", "affine-time-negative", "affine-time-grid",
        "walk-flip-modes", "walk-flip-modes-grid", "affine-flip-modes"])
def test_input_check(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def one_entry(value, dim=4):
    """A zero (dim, dim) matrix with ``value`` at row 0, column 1."""
    X = np.zeros((dim, dim))
    X[0, 1] = value
    return X


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda bad: AnalyticGenerator(layout=LAYOUT, coeffs=(one_entry(bad),)),
    lambda bad: AnalyticGenerator(layout=LAYOUT, coeffs=(one_entry(0.0),),
                                  linear=(one_entry(bad)[0],)),
    lambda bad: affine_propagate(make_generator(LAYOUT), one_entry(bad), np.zeros(4), 1.0),
    lambda bad: expand_in_basis(one_entry(bad), 1),
    # finite entries whose squares overflow: an inf residual passed `res <= 1e-10 * inf`
    lambda bad: AnalyticGenerator(layout=LAYOUT, coeffs=(np.diag([1e200] * 4),)),
], ids=["generator", "generator-linear", "covariance", "basis-expansion",
        "generator-norm-overflow"])
def test_relative_checks_reject_nonfinite_input(call, bad):
    # NaN fails every comparison, so a check written `residual > bound` lets it pass
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("exponent", [-1000, -10, 0, 10, 500, 1000])
def test_generator_check_is_scale_free(exponent):
    # an sp(2n) coefficient passes at any scale; one with a defect fails at every
    # scale where |X| >= 1 with the same residual relative to |X|, also where
    # its squared entries overflow
    X = make_generator(LAYOUT, seed=3).coeffs[0]
    X /= np.abs(X).max()
    defect = X + 1e-6 * np.eye(4)

    def message(M):
        with pytest.raises(ValueError, match="is not in sp") as info:
            AnalyticGenerator(layout=LAYOUT, coeffs=(M,))
        return str(info.value)

    AnalyticGenerator(layout=LAYOUT, coeffs=(np.ldexp(X, exponent),))
    if exponent >= 0:
        assert message(np.ldexp(defect, exponent)) == message(defect)


def forced_cf4(gen):
    """The same constant generator written with a zero degree-1 term, which
    sends it down the time-dependent path."""
    coeffs = gen.coeffs + (0.0 * gen.coeffs[0],)
    linear = None if gen.linear is None else gen.linear + (0.0 * gen.linear[0],)
    return AnalyticGenerator(layout=gen.layout, coeffs=coeffs, linear=linear)


class TestPropagationProperties:
    @given(layouts, seeds, durations, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_exact_route_matches_cf4(self, layout, seed, T, order):
        gen = make_generator(layout, seed=seed)
        sched = decoupling_schedule(order, layout.n_system)
        exact = resulting_evolution(gen, sched, T)
        assert rel_dist(exact, resulting_evolution(forced_cf4(gen), sched, T)) <= 1e-11

    @given(layouts, seeds, durations, st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_resulting_evolution_symplectic(self, layout, seed, T, degree):
        gen = make_generator(layout, seed=seed, degree=degree)
        S = resulting_evolution(gen, decoupling_schedule(2, layout.n_system), T)
        residual = symplectic_residual(S, symplectic_form(layout))
        assert residual <= 1e-11 * spectral_norm(S) ** 2

    @given(layouts, seeds, st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3),
           st.integers(0, 1))
    @settings(max_examples=25, deadline=None)
    def test_segment_split_invariance(self, layout, seed, times, degree):
        t0, t, t1 = sorted(times)
        gen = make_generator(layout, seed=seed, degree=degree)
        whole = propagate(gen, t0, t1)
        split = propagate(gen, t, t1) @ propagate(gen, t0, t)
        assert rel_dist(split, whole) <= 1e-11

    @given(layouts, seeds, durations)
    @settings(max_examples=25, deadline=None)
    def test_affine_exact_route_matches_cf4(self, layout, seed, T):
        gen = with_drive(random_generator(layout, seed=seed, scale_ss=1.0, scale_se=1.0,
                                          scale_ee=1.0), seed, 1.0)
        rng = np.random.default_rng(seed)
        M0 = np.diag(rng.uniform(0.5, 2.0, layout.dim))
        d0 = rng.uniform(-1.0, 1.0, layout.dim)
        M, d = affine_propagate(gen, M0, d0, T)
        M_cf4, d_cf4 = affine_propagate(forced_cf4(gen), M0, d0, T)
        assert rel_dist(M, M_cf4) <= 1e-11
        assert np.linalg.norm(d - d_cf4) <= 1e-11 * max(1.0, np.linalg.norm(d_cf4))

    @given(layouts, seeds, st.integers(0, 2),
           st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(1e-4, 0.01)),
                    min_size=1, max_size=5), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_batched_flows_equal_single_interval_flows(self, layout, seed, degree,
                                                        spans, n_empty):
        gen = make_generator(layout, seed=seed, degree=degree)
        # short intervals, some zero-length ones and one long interval that
        # keeps refining after its neighbours have converged
        intervals = ([(t, t + h) for t, h in spans]
                     + [(t, t) for t, _ in spans[:n_empty]] + [(0.0, 1.0)])
        t0s, t1s = zip(*intervals)
        with mock.patch.object(evolution, "_cf4_pass",
                               wraps=evolution._cf4_pass) as passes:
            batched = _flows(gen.coeffs, t0s, t1s)
        assert batched.shape == (len(intervals), layout.dim, layout.dim)
        batched_passes = pass_steps(passes)
        for F, t0, t1 in zip(batched, t0s, t1s):
            with mock.patch.object(evolution, "_cf4_pass",
                                   wraps=evolution._cf4_pass) as passes:
                single = _flows(gen.coeffs, [t0], [t1])[0]
            assert np.array_equal(F, single)
            # a later pass holds only unconverged intervals: each interval
            # takes the passes its own call takes, its first pass norm-sized
            # and each later one twice the one before
            steps = pass_steps(passes).get((t0, t1), [])
            copies = intervals.count((t0, t1))
            assert batched_passes.get((t0, t1), []) == sorted(steps * copies)
            if degree and t1 > t0:
                assert steps == [first_steps(gen, [t0], [t1])[0] << k
                                 for k in range(len(steps))]

    def test_constant_flows_split_at_the_block_cap(self):
        layout = ModeLayout(2, 2)  # dim 8: 64 elements a slice
        gen = make_generator(layout, seed=17)
        n = 3 * (evolution.CF4_BLOCK_ELEMENTS // 64) + 5
        t0s = np.linspace(0.0, 0.5, n)
        t1s = t0s + 0.01
        with mock.patch.object(evolution, "matrix_exponential",
                               wraps=evolution.matrix_exponential) as expm:
            batched = _flows(gen.coeffs, t0s, t1s)
        assert expm.call_count > 1
        assert all(call.args[0].size <= evolution.CF4_BLOCK_ELEMENTS
                   for call in expm.call_args_list)
        for F, t0, t1 in zip(batched, t0s, t1s):
            assert np.array_equal(F, _flows(gen.coeffs, [t0], [t1])[0])


def pass_steps(passes):
    """The step counts of every CF4 pass per interval (t0, t1), in the order
    of the calls ``passes`` (a spy on ``_cf4_pass``) saw."""
    steps = {}
    for call in passes.call_args_list:
        for t0, t1, n in zip(call.args[1].tolist(), call.args[2].tolist(),
                             call.args[3].tolist()):
            steps.setdefault((t0, t1), []).append(n)
    return steps


def first_steps(gen, t0s, t1s):
    return evolution._first_steps(np.asarray(gen.coeffs), np.asarray(t0s, dtype=float),
                                  np.asarray(t1s, dtype=float)).tolist()


def scaled_first_passes(scale):
    """Every first CF4 pass ``scale`` times its norm-sized step count."""
    first = evolution._first_steps
    return mock.patch.object(evolution, "_first_steps",
                             lambda *args: scale * first(*args))


def chunked_cf4_pass(coeffs, t0s, t1s, n):
    """The CF4 pass with its weights built per chunk and contracted by
    np.tensordot: the former formula, kept as an oracle."""
    d = coeffs.shape[-1]
    h = (t1s - t0s) / n
    chunk = max(1, evolution.CF4_BLOCK_ELEMENTS // max(1, 2 * len(h) * d * d))
    S = np.eye(d)
    for k0 in range(0, n, chunk):
        a = t0s + h * np.arange(k0, min(k0 + chunk, n))[:, None]
        powers = (a[..., None] + h[:, None] * evolution._NODES)[..., None] \
            ** np.arange(len(coeffs))
        weights = h[:, None, None] * (evolution._MIX @ powers)
        E = _taylor_exponential(np.tensordot(weights, coeffs, axes=1))
        for step in E[:, :, 0] @ E[:, :, 1]:
            S = step @ S
    return S


def full_convergence_test(S2, diff, tol):
    return diff <= tol * np.maximum(1.0, np.linalg.norm(S2, 2, axis=(-2, -1)))


def walk_intervals(sched, degree, T):
    """The intervals [t0s, t1s] of a walk to T, one per segment: the raw
    [T g_k, T g_{k+1}] of its grid g on a time-dependent walk, and [0, T len]
    on a constant one, len being the mean of the segment's length group."""
    grid = np.array([0.0, *sched.deltas, 1.0])
    if degree:
        return grid[:-1] * T, grid[1:] * T
    group, lengths = evolution._length_groups(np.diff(grid))
    return np.zeros(len(group)), T * lengths[group]


def distinct_factors(sched, degree):
    """The number of distinct (signed pulse, segment length) factors a walk
    forms: every segment is its own on a time-dependent walk; the last
    segment has no pulse."""
    grid = np.array([0.0, *sched.deltas, 1.0])
    group = (np.arange(len(grid) - 1) if degree
             else evolution._length_groups(np.diff(grid))[0])
    pulses = ([("flip",)] * len(sched) if sched.is_flip_schedule
              else [(*p.ravel().tolist(), s) for p, s in zip(sched.pulses, sched.signs)])
    return len(set(zip([*pulses, None], group.tolist())))


def walk_schedule(kind, seed, m, n_pulses):
    if kind == "flip":
        return decoupling_schedule(n_pulses, 2 ** m)
    if kind == "signed":
        return signed_closed_schedule(seed, m, n_pulses)
    return homogenization_schedule(min(n_pulses, 2), m)  # up to 243 segments


class TestResumedRefinement:
    @given(seeds, st.integers(0, 2), st.integers(1, 5), st.integers(0, 2),
           st.sampled_from(["flip", "signed", "nested"]),
           st.lists(st.floats(0.01, 0.5), min_size=1, max_size=5), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_system_row_pulses_equal_full_products(self, seed, m, n_pulses, degree, kind,
                                                   grid, per_batch):
        # the walk writes each pulse into the system rows of its segment's
        # flow, forms each distinct factor once and multiplies them in time
        # order, with its T points in batches of per_batch walks (0: one walk
        # a batch, as a budget below one walk's factors gives); the reference
        # walks each T alone, one flow a segment over the walk's intervals,
        # and multiplies the full-dimension pulse matrices in sequence
        sched = walk_schedule(kind, seed, m, n_pulses)
        layout = ModeLayout(2 ** m, 1)
        gen = make_generator(layout, seed=seed, degree=degree)
        walk_elements = distinct_factors(sched, degree) * layout.dim ** 2
        with mock.patch.object(evolution, "FLOW_ELEMENTS", per_batch * walk_elements):
            stack = resulting_evolution(gen, sched, np.array(grid))
        d = layout.system_dim
        pulses = np.tile(np.eye(layout.dim), (len(sched), 1, 1))
        pulses[:, :d, :d] = -np.eye(d) if kind == "flip" else \
            sched.signs[:, None, None] * s_matrix(sched.pulses)
        for S, T in zip(stack, grid):
            flows = _flows(gen.coeffs, *walk_intervals(sched, degree, T))
            expected = np.eye(layout.dim)
            for step in pulses @ flows[:-1]:
                expected = step @ expected
            assert S.tobytes() == (flows[-1] @ expected).tobytes()
            assert S.tobytes() == _walk(gen.coeffs, sched, layout, T).tobytes()

    @given(seeds, st.sampled_from([(1, 0), (2, 1), (3, 1), (1, 2), (2, 2)]),
           st.sampled_from(["flip", "signed", "nested"]), st.floats(0.01, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_constant_walk_equals_the_raw_segment_walk(self, seed, order_m, kind, T):
        # a constant walk exponentiates each length group's mean, not the raw
        # difference T g_{k+1} - T g_k of its grid: its K factors then move
        # by about LENGTH_MERGE T ||X|| each, and so does the product
        order, m = order_m
        sched = walk_schedule(kind, seed, m, order)
        layout = ModeLayout(2 ** m, 1)
        gen = make_generator(layout, seed=seed)
        bounds = np.array([0.0, *sched.deltas, 1.0]) * T
        walk = resulting_evolution(gen, sched, T)
        expected = np.eye(layout.dim)
        for j, F in enumerate(_flows(gen.coeffs, bounds[:-1], bounds[1:])):
            expected = F @ expected
            if j < len(sched):
                expected = embedded_pulse(sched, j, layout) @ expected
        K, scale = len(sched) + 1, max(1.0, T * spectral_norm(gen.coeffs[0]))
        assert rel_dist(walk, expected) <= 8 * K * np.finfo(float).eps * scale

    @pytest.mark.parametrize("degree, budget, points, calls",
                             [(0, evolution.FLOW_ELEMENTS, 1000, 2), (1, 1, 5, 5)])
    def test_walk_bounds_the_flows_of_each_call(self, degree, budget, points, calls):
        # a grid wider than one batch takes several _flows calls, whose
        # walks form at most max(F dim^2, FLOW_ELEMENTS) factor elements for
        # F distinct factors a walk.  Walks of 41 segments of 16 elements: a
        # constant one has 21 length groups (Uhrig's are symmetric) and 22
        # factors, so 744 walks a call; a time-dependent one has 41 of each,
        # one walk a call under a budget of 1
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=3, degree=degree)
        sched = decoupling_schedule(40, 1)
        intervals, factors = (21, 22) if degree == 0 else (41, 41)
        assert distinct_factors(sched, degree) == factors
        with mock.patch.object(evolution, "FLOW_ELEMENTS", budget), \
                mock.patch.object(evolution, "_flows", wraps=evolution._flows) as flows:
            resulting_evolution(gen, sched, np.linspace(0.01, 0.2, points))
        walks = [len(call.args[1]) // intervals for call in flows.call_args_list]
        assert len(walks) == calls and sum(walks) == points
        assert all(len(call.args[1]) == n * intervals
                   for call, n in zip(flows.call_args_list, walks))
        assert max(walks) * factors * 16 <= max(factors * 16, budget)

    @pytest.mark.parametrize("kind", ["first-pass", "refinement"])
    def test_later_batch_error_names_its_walk(self, kind):
        # the third walk fails: alone in its batch, or with the others in
        # one, the error names its T and its segment's position in the
        # whole stack of walks
        layout = ModeLayout(1, 1)
        gen = make_generator(layout, seed=4, degree=1)
        sched = decoupling_schedule(2, 1)  # K = 3 segments a walk
        grid, tols = np.array([0.1, 0.2, 1.0, 0.3]), np.full(4, DEFAULT_TOL)
        budget = 32 if kind == "first-pass" else 256
        if kind == "refinement":
            tols[2] = 1e-30
        errors = []
        with mock.patch.object(evolution, "MAX_STEPS", budget):
            with pytest.raises(evolution.ToleranceNotReached) as alone:
                _walk(gen.coeffs, sched, layout, 1.0, tols[2])
            for elements in (1, evolution.FLOW_ELEMENTS):
                with mock.patch.object(evolution, "FLOW_ELEMENTS", elements), \
                        pytest.raises(evolution.ToleranceNotReached) as info:
                    _walk(gen.coeffs, sched, layout, grid, tols)
                errors.append((str(info.value), info.value.interval))
        assert str(alone.value).endswith(" (walk to T = 1.0)")
        assert errors == [(str(alone.value), 2 * 3 + alone.value.interval)] * 2

    def test_resumed_flows_pass_intervals_of_unequal_depth(self):
        # a fresh _flows call passes all its unconverged intervals in one
        # _cf4_pass call per round, most steps first: first passes of 4, 32
        # and 4 steps, then doublings until each interval converges
        gen = make_generator(ModeLayout(1, 1), seed=5, degree=2)
        t0s, t1s = [0.0, 0.1, 0.5], [0.1, 0.5, 0.55]
        assert first_steps(gen, t0s, t1s) == [4, 32, 4]
        with mock.patch.object(evolution, "_cf4_pass", wraps=evolution._cf4_pass) as passes:
            _flows(gen.coeffs, t0s, t1s, 1e-12)
        assert [(call.args[3].tolist(), call.args[1].tolist())
                for call in passes.call_args_list] == [
            ([32, 4, 4], [0.1, 0.0, 0.5]), ([64, 8, 8], [0.1, 0.0, 0.5]),
            ([128, 16, 16], [0.1, 0.0, 0.5]), ([256, 32, 32], [0.1, 0.0, 0.5]),
            ([64], [0.0])]

    @given(layouts, seeds, st.integers(1, 2),
           st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.3)),
                    min_size=1, max_size=6), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_cf4_pass_equals_the_chunked_formula(self, layout, seed, degree, spans,
                                                 depth):
        gen = make_generator(layout, seed=seed, degree=degree)
        t0s = np.array([t for t, _ in spans])
        t1s = t0s + np.array([h for _, h in spans])
        coeffs = np.asarray(gen.coeffs)
        n = 16 << depth  # up to 1024 substeps: several weight blocks
        with mock.patch.object(evolution, "_taylor_exponential",
                               wraps=evolution._taylor_exponential) as expm:
            S = _cf4_pass(coeffs, t0s, t1s, np.full(len(spans), n))
        assert np.array_equal(S, chunked_cf4_pass(coeffs, t0s, t1s, n))
        one_substep = 2 * len(spans) * layout.dim ** 2
        assert expm.call_count > 0
        assert all(call.args[0].size <= max(evolution.CF4_BLOCK_ELEMENTS, one_substep)
                   for call in expm.call_args_list)

    def test_cf4_pass_blocks_its_intervals(self):
        # 100 intervals of dim 12 make 28,800 factor elements a substep: the
        # pass exponentiates them in calls of 28 (step, interval) pairs, so a
        # step's pairs span several calls, bitwise the same
        gen = make_generator(ModeLayout(2, 4), seed=9, degree=2)
        coeffs = np.asarray(gen.coeffs)
        t0s = np.linspace(0.0, 0.5, 100)
        t1s = t0s + 0.004
        with mock.patch.object(evolution, "_taylor_exponential",
                               wraps=evolution._taylor_exponential) as expm:
            S = _cf4_pass(coeffs, t0s, t1s, np.full(100, 3))
        assert np.array_equal(S, chunked_cf4_pass(coeffs, t0s, t1s, 3))
        assert max(call.args[0].size for call in expm.call_args_list) \
            <= evolution.CF4_BLOCK_ELEMENTS

    @given(st.integers(1, 6).flatmap(
               lambda modes: st.integers(1, modes).map(lambda n: ModeLayout(n, modes - n))),
           seeds, st.integers(1, 3),
           st.lists(st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.3), st.integers(0, 8)),
                    min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    # the intervals taking a step shrink inside one Taylor call
    @example(ModeLayout(1, 0), 3, 2, [(0.1 * i, 0.05, i) for i in range(5)])
    # nine step counts over 60 intervals of dim 12 (28 pairs a Taylor call):
    # runs of one step begin and end inside calls
    @example(ModeLayout(2, 4), 9, 2, [(0.008 * i, 0.004, i % 9) for i in range(60)])
    # step counts that fall at the last interval of a call and at call starts
    @example(ModeLayout(2, 4), 5, 1, [(0.008 * i, 0.004, (i < 27) + (i < 28) + (i < 56))
                                      for i in range(60)])
    # one step's pairs split across two Taylor calls (dim 12: 28 pairs a call)
    @example(ModeLayout(2, 4), 9, 2, [(0.008 * i, 0.004, 1) for i in range(40)])
    # one step's pairs split across two weight blocks (degree 2: 1,344 pairs)
    @example(ModeLayout(2, 4), 9, 2, [(0.008 * i, 0.004, 5) for i in range(60)])
    def test_mixed_step_counts_equal_single_interval_passes(self, layout, seed, degree,
                                                            intervals):
        # one pass over intervals of unequal step counts, most steps first,
        # gives each interval bitwise the flow of its own single-interval pass
        coeffs = np.asarray(make_generator(layout, seed=seed, degree=degree).coeffs)
        intervals = sorted(intervals, key=lambda iv: -iv[2])
        t0s = np.array([t for t, _, _ in intervals])
        t1s = t0s + np.array([h for _, h, _ in intervals])
        n = np.array([1 << k for _, _, k in intervals])
        with mock.patch.object(evolution, "_taylor_exponential",
                               wraps=evolution._taylor_exponential) as expm:
            S = _cf4_pass(coeffs, t0s, t1s, n)
        for i in range(len(intervals)):
            assert np.array_equal(S[i], _cf4_pass(coeffs, t0s[i:i + 1], t1s[i:i + 1],
                                                  n[i:i + 1])[0])
        one_substep = 2 * layout.dim ** 2
        assert all(call.args[0].size <= max(evolution.CF4_BLOCK_ELEMENTS, one_substep)
                   for call in expm.call_args_list)
        # the factors are exactly two per step of every interval
        assert sum(call.args[0].size for call in expm.call_args_list) \
            == 2 * n.sum() * layout.dim ** 2

    @given(st.integers(1, 6).flatmap(
               lambda modes: st.integers(1, modes).map(lambda n: ModeLayout(n, modes - n))),
           st.integers(1, 3), st.lists(st.integers(0, 8), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    # two weight blocks of dim 12 at degree 2 (1,344 pairs a block)
    @example(ModeLayout(2, 4), 2, [5] * 60)
    def test_taylor_calls_are_full_but_the_last_of_each_weight_block(self, layout, degree,
                                                                      depths):
        # a pass sends its (step, interval) pairs to the Taylor kernel in
        # calls of `rows` pairs, the most CF4_BLOCK_ELEMENTS holds; only the
        # last call of each weight block (the most whole calls whose node
        # weights, 2 (degree + 1) a pair, CF4_BLOCK_ELEMENTS holds) is short
        coeffs = np.asarray(make_generator(layout, seed=3, degree=degree).coeffs)
        n = np.array(sorted((1 << k for k in depths), reverse=True))
        t0s = 0.01 * np.arange(len(n))
        with mock.patch.object(evolution, "_taylor_exponential",
                               wraps=evolution._taylor_exponential) as expm:
            _cf4_pass(coeffs, t0s, t0s + 0.004, n)
        rows = max(1, evolution.CF4_BLOCK_ELEMENTS // (2 * layout.dim ** 2))
        block = rows * max(1, evolution.CF4_BLOCK_ELEMENTS // (2 * (degree + 1) * rows))
        expected, total = [], int(n.sum())
        for p0 in range(0, total, block):
            pairs = min(block, total - p0)
            expected += [rows] * (pairs // rows) + [pairs % rows] * (pairs % rows > 0)
        assert [len(call.args[0]) for call in expm.call_args_list] == expected

    def test_re_tightening_sweep_runs_no_pass_twice(self):
        # each later round walks afresh exactly the points it re-tightened,
        # at their new tolerances, and every point's residual is a fresh
        # walk's at its final tolerance
        gen = make_generator(ModeLayout(1, 2), seed=7, degree=2)
        grid = np.geomspace(1e-2, 0.3, 5)
        residuals, _, tolerances = per_point_sweep(gen, "decoupling", 4, grid)
        with mock.patch.object(evolution, "_walk", wraps=evolution._walk) as walks:
            res = order_sweep(gen, "decoupling", 4, grid)
        assert list(res.residuals) == residuals
        assert 0 < sum(len(tols) > 1 for tols in tolerances) < len(grid)
        rounds = [[(T, tols[k]) for T, tols in zip(grid.tolist(), tolerances) if len(tols) > k]
                  for k in range(max(map(len, tolerances)))]
        assert [list(zip(call.args[3].tolist(), call.args[4].tolist()))
                for call in walks.call_args_list] == rounds

    @given(seeds, st.integers(1, 12), st.integers(1, 6), st.floats(0.1, 3.0),
           st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_screened_convergence_test_decides_as_the_svd(self, seed, dim, count,
                                                          scale, factors):
        rng = np.random.default_rng(seed)
        S2 = scale * rng.uniform(-1.0, 1.0, (count, dim, dim))
        tol = 1e-10
        diff = tol * np.resize(factors, count) * np.linalg.norm(S2, axis=(-2, -1)) / 2
        assert np.array_equal(_converged(S2, diff, tol),
                              full_convergence_test(S2, diff, tol))

    def test_screened_convergence_test_at_its_boundaries(self):
        rng = np.random.default_rng(3)
        tol = 1e-12
        S2 = 3.0 * rng.uniform(-1.0, 1.0, (4, 6, 6))
        S2[3] = np.outer(rng.uniform(1, 2, 6), rng.uniform(1, 2, 6))  # ||.||_2 = ||.||_F
        spec = np.linalg.norm(S2, 2, axis=(-2, -1))
        assert (spec > 1).all()
        for diff in (np.full(4, tol), tol * spec, np.nextafter(tol * spec, np.inf),
                     tol * (1 + spec) / 2, np.nextafter(np.full(4, tol), 0)):
            expected = full_convergence_test(S2, diff, tol)
            assert np.array_equal(_converged(S2, diff, tol), expected)
        assert full_convergence_test(S2, tol * spec, tol).all()
        assert not full_convergence_test(S2, np.nextafter(tol * spec, np.inf), tol).any()
        # below ||S2||_2 = 1 the bound is tol itself
        small = 0.1 * S2 / spec[:, None, None]
        for diff, expected in ((np.full(4, tol), True),
                               (np.nextafter(np.full(4, tol), np.inf), False)):
            assert (_converged(small, diff, tol) == expected).all()
            assert (full_convergence_test(small, diff, tol) == expected).all()


class TestCF4Scratch:
    """A CF4 pass takes the factors, Taylor temporaries and steps of every
    Taylor call from one scratch kept for the process."""

    def test_taylor_calls_share_one_scratch(self):
        coeffs = np.asarray(make_generator(ModeLayout(2, 4), seed=9, degree=2).coeffs)
        t0s = np.linspace(0.0, 0.5, 60)
        n = np.array([1 << (i % 5) for i in range(60)])[::-1].copy()
        scratches = []
        for _ in range(2):  # the second pass reuses the first one's scratch
            with mock.patch.object(evolution, "_taylor_exponential",
                                   wraps=evolution._taylor_exponential) as expm:
                S = _cf4_pass(coeffs, t0s, t0s + 0.004, n)
            scratches.append(evolution._cf4_scratch)
            assert expm.call_count > 1
            for call in expm.call_args_list:
                X, work = call.args
                assert np.shares_memory(X, scratches[-1]) and np.shares_memory(work, scratches[-1])
            assert not np.shares_memory(S, scratches[-1])
        assert scratches[0] is scratches[1]

    def test_passes_at_two_dims_equal_single_interval_passes(self):
        # back to back at dim 12 and dim 66, whose single (step, interval)
        # pair is wider than a block and grows the scratch, then dim 12 again
        passes = []
        for layout in (ModeLayout(2, 4), ModeLayout(17, 16), ModeLayout(2, 4)):
            coeffs = np.asarray(make_generator(layout, seed=4, degree=2).coeffs)
            t0s = 0.01 * np.arange(20)
            t1s = t0s + 0.004
            n = np.array([1 << (3 - i // 5) for i in range(20)])
            S = _cf4_pass(coeffs, t0s, t1s, n)
            for i in range(20):
                assert np.array_equal(S[i], _cf4_pass(coeffs, t0s[i:i + 1], t1s[i:i + 1],
                                                      n[i:i + 1])[0])
            passes.append(S)
        assert evolution._cf4_scratch.size >= 14 * 66 ** 2
        assert passes[0].tobytes() == passes[2].tobytes()

    @pytest.mark.parametrize("steps, peak_kb", [(8, 322), (32, 351), (128, 404)])
    def test_warm_pass_memory(self, steps, peak_kb):
        # half the traced peak of a pass that allocated its Taylor temporaries
        # each call (644, 702 and 809 kB)
        coeffs = np.asarray(make_generator(ModeLayout(2, 4), seed=9, degree=2).coeffs)
        t0s = np.linspace(0.0, 0.5, 18)
        n = np.full(18, steps)
        _cf4_pass(coeffs, t0s, t0s + 0.004, n)
        tracemalloc.start()
        try:
            _cf4_pass(coeffs, t0s, t0s + 0.004, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_kb * 1024


def increasing_deltas():
    """Pulse times in (0, 1], strictly increasing: arbitrary ones, or the
    partial sums of lengths drawn from a few values and normalized, whose
    equal lengths come out of the grid differences a few eps apart."""
    arbitrary = st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=40, unique=True).map(
        lambda ds: np.sort(ds))
    repeated = st.tuples(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
                         st.lists(st.integers(0, 3), min_size=2, max_size=200)).map(
        lambda args: np.cumsum(np.resize(args[0], 4)[args[1]])[:-1]
        / np.sum(np.resize(args[0], 4)[args[1]]))
    return st.one_of(arbitrary, repeated).filter(
        lambda ds: len(ds) and (np.diff(ds) > 0).all() and 0 < ds[0] and ds[-1] <= 1)


class TestDistinctFactors:
    @given(increasing_deltas())
    @settings(max_examples=200, deadline=None)
    def test_length_groups_stay_within_the_merge_bound(self, deltas):
        # lengths further apart than LENGTH_MERGE never share a group, so
        # never one exponential; the group means keep the walk's total time
        lengths = np.diff([0.0, *deltas, 1.0])
        group, means = evolution._length_groups(lengths)
        for g in range(len(means)):
            members = lengths[group == g]
            assert members.size and members.max() - members.min() <= evolution.LENGTH_MERGE
            assert members.min() <= means[g] <= members.max()
        ranked = np.sort(means)
        assert (np.diff(ranked) > 0).all()
        K, eps = len(lengths), np.finfo(float).eps
        assert abs(math.fsum(means[group]) - 1.0) <= K * eps

    def test_a_chain_of_close_lengths_splits_at_the_bound(self):
        # lengths 2 ulps (eps / 2) apart at 0.25 chain past LENGTH_MERGE =
        # 4 eps: the nine within it of the shortest share a group, the tenth
        # opens the next
        eps = np.finfo(float).eps
        lengths = np.concatenate([0.25 + np.arange(10)[::-1] * eps / 2, [0.1, 0.0]])
        group, means = evolution._length_groups(lengths)
        assert group.tolist() == [3] + [2] * 9 + [1, 0]
        assert means.tolist() == [0.0, 0.1, 0.25 + 2 * eps, 0.25 + 4.5 * eps]

    @pytest.mark.parametrize("order, m, groups", [
        (2, 1, 5), (3, 1, 5), (3, 2, 7), (2, 3, 9), (3, 3, 9), (2, 4, 11)])
    def test_one_exponential_per_length_group_and_one_pulse_per_signed_pulse(
            self, order, m, groups):
        # a nested Uhrig segment's length is a product of one level fraction
        # a level, and each pulse one of a few signed permutations
        sched = homogenization_schedule(order, m)
        layout = ModeLayout(2 ** m, 1)
        gen = make_generator(layout, seed=order + m, coupled=False)
        grid = np.array([0.05, 0.1, 0.3])
        with mock.patch.object(evolution, "matrix_exponential",
                               wraps=evolution.matrix_exponential) as expm, \
                mock.patch.object(evolution, "s_matrix", wraps=evolution.s_matrix) as pulses:
            resulting_evolution(gen, sched, grid)
        assert sum(len(call.args[0]) for call in expm.call_args_list) == len(grid) * groups
        signed = {(*p.ravel().tolist(), s) for p, s in zip(sched.pulses, sched.signs)}
        assert [len(call.args[0]) for call in pulses.call_args_list] == [len(signed)]
        assert len(signed) < len(sched)

    @pytest.mark.parametrize("degree", [0, 1])
    def test_time_dependent_and_flip_walks_take_one_s_matrix_call(self, degree):
        # a time-dependent walk keeps one factor a segment, but its pulses
        # also come from the distinct signed pulses; a flip schedule calls
        # no s_matrix at all
        sched = homogenization_schedule(2, 1)
        layout = ModeLayout(2, 1)
        gen = make_generator(layout, seed=2, degree=degree, coupled=False)
        with mock.patch.object(evolution, "s_matrix", wraps=evolution.s_matrix) as pulses:
            resulting_evolution(gen, sched, 0.2)
            resulting_evolution(gen, decoupling_schedule(3, 2), 0.2)
        signed = {(*p.ravel().tolist(), s) for p, s in zip(sched.pulses, sched.signs)}
        assert [len(call.args[0]) for call in pulses.call_args_list] == [len(signed)]

    def test_paper_scale_walk_memory(self):
        # N=2 m=4: 19,684 segments of 34 x 34, 10 distinct signed pulses and
        # 11 length groups; one T point's per-segment flows alone took 182 MB
        sched = homogenization_schedule(2, 4)
        layout = ModeLayout(16, 1)
        gen = make_generator(layout, seed=7, coupled=False)
        grid = np.logspace(-1, 0, 10)
        tracemalloc.start()
        try:
            resulting_evolution(gen, sched, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20
