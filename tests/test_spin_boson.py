import cmath
import math
import re
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonic_dd import evolution, spin_boson
from bosonic_dd.evolution import resulting_evolution
from bosonic_dd.schedules import flip_train_schedule
from bosonic_dd.spin_boson import (
    BathSpec,
    added_noise,
    bath_generator,
    channel_columns,
    coupling_matrix,
    cross_validate,
    even_flip_train,
    pair_shear,
    shear_parameter,
    thermal_covariance,
    y_filter,
)
from bosonic_dd.symplectic import (
    ModeLayout,
    is_symplectic,
    matrix_exponential,
    symplectic_form,
)
from oracles import f_filter


def seeded_bath(seed, n, beta=1.0, scale=0.3):
    rng = np.random.default_rng(seed)
    om = rng.uniform(0.2, 1.0, n)
    om /= om.max()
    lam = scale * rng.uniform(0.5, 1.0, n)
    return BathSpec(couplings=tuple(lam), frequencies=tuple(om), beta=beta)


# ---------------------------------------------------------------------------
# Written-out oracle: one T point, one bath line and one pulse pair at a time
# ---------------------------------------------------------------------------


def oracle_y(z, deltas):
    acc = 0.0 + 0.0j
    for m, d in enumerate(deltas, start=1):
        acc += (-1) ** m * cmath.exp(1j * z * d)
    return 2.0 * acc + 1.0 - cmath.exp(1j * z)


def oracle_f(z, deltas):
    acc = 0.0 + 0.0j
    for m, d in enumerate(deltas, start=1):
        acc += (-1) ** m * cmath.exp(-1j * z * d)
    return 2j * acc


def oracle_pair(T, bath, deltas):
    out = 0.0
    for j in range(1, len(deltas) + 1):
        for l in range(1, j):
            sgn = -1.0 if (j + l) % 2 else 1.0
            for lam, om in zip(bath.couplings, bath.frequencies):
                z = om * T
                term = (math.sin(z * (deltas[j - 1] - deltas[l - 1]))
                        + math.sin(z * deltas[l - 1]) - math.sin(z * deltas[j - 1]))
                out += 4.0 * sgn * (lam / om) ** 2 * term
    return out


def oracle_shear(T, bath, deltas):
    out = 0.0
    for lam, om in zip(bath.couplings, bath.frequencies):
        z = om * T
        yl = oracle_y(z, deltas)
        out += (lam / om) ** 2 * (z - math.sin(z) - math.sin(z) * yl.real
                                  + (math.cos(z) - 1.0) * yl.imag)
    return out + oracle_pair(T, bath, deltas)


def oracle_noise(T, bath, deltas):
    out = 0.0
    for lam, om, w in zip(bath.couplings, bath.frequencies, bath.thermal_weights()):
        out += (lam / om) ** 2 * w * abs(oracle_y(om * T, deltas)) ** 2
    return out


def mp_channel(T, bath, deltas, dps=40):
    """The channel's (x, y) at ``dps`` digits, one bath line and one pulse
    pair at a time, from the exact binary values of T, the bath and deltas."""
    with mpmath.workdps(dps):
        d = [mpmath.mpf(v) for v in deltas]
        s = [(-1) ** k for k in range(1, len(d) + 1)]
        x = y = mpmath.mpf(0)
        for lam, om, coth in zip(bath.couplings, bath.frequencies, bath.thermal_weights()):
            z, weight = mpmath.mpf(om) * T, (mpmath.mpf(lam) / om) ** 2
            sins = [mpmath.sin(z * dk) for dk in d]
            yl = 2 * mpmath.fsum(sk * mpmath.expj(z * dk) for sk, dk in zip(s, d)) \
                + 1 - mpmath.expj(z)
            pairs = mpmath.fsum(s[j] * s[l] * (mpmath.sin(z * (d[j] - d[l])) + sins[l] - sins[j])
                                for j in range(len(d)) for l in range(j))
            x += weight * (z - mpmath.sin(z) - mpmath.sin(z) * yl.real
                           + (mpmath.cos(z) - 1) * yl.imag + 4 * pairs)
            y += weight * coth * abs(yl) ** 2
        return float(x), float(y)


def channel_scale(bath):
    """sum_j (lambda_j / omega_j)^2 max(1, coth(beta omega_j / 2))."""
    lam, om = np.array(bath.couplings), np.array(bath.frequencies)
    return float(np.sum((lam / om) ** 2 * np.maximum(1.0, bath.thermal_weights())))


@st.composite
def baths(draw):
    n = draw(st.integers(1, 8))
    lam = draw(st.lists(st.floats(0.0, 1.5), min_size=n, max_size=n))
    om = draw(st.lists(st.floats(0.05, 2.0), min_size=n, max_size=n))
    beta = draw(st.one_of(st.just(math.inf), st.floats(0.1, 20.0)))
    return BathSpec(couplings=tuple(lam), frequencies=tuple(om), beta=beta)


@st.composite
def even_trains(draw):
    # strictly increasing, mostly asymmetric, so the pair term is nonzero
    size = 2 * draw(st.integers(1, 6))
    points = draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size,
                           unique=True))
    return tuple(sorted(points))


class TestArrayClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(bath=baths(), deltas=even_trains(),
           times=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12),
           block=st.integers(1, 5))
    def test_grid_equals_points_and_oracle(self, bath, deltas, times, block):
        # a block of `block` grid points, so grids span several blocks that
        # need not divide them evenly
        # the floor keeps the tolerance above 0 when a coupling is so small
        # that lambda^2 is subnormal and only a few bits of it survive
        tol = 1e-12 * channel_scale(bath) + np.finfo(float).tiny
        per_point = bath.n_modes * len(deltas)
        with patch.object(spin_boson, "BLOCK_ELEMENTS", block * per_point):
            grid = {fn: fn(np.array(times), bath, deltas)
                    for fn in (shear_parameter, added_noise, pair_shear)}
        oracle = {shear_parameter: oracle_shear, added_noise: oracle_noise,
                  pair_shear: oracle_pair}
        for fn, values in grid.items():
            assert values.shape == (len(times),)
            for T, value in zip(times, values):
                point = fn(T, bath, deltas)
                assert type(point) is float
                assert value == pytest.approx(point, abs=tol)
                assert point == pytest.approx(oracle[fn](T, bath, deltas), abs=tol)

    @settings(max_examples=40, deadline=None)
    @given(deltas=even_trains(),
           zs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
           block=st.integers(1, 5))
    def test_filters_equal_points_and_oracle(self, deltas, zs, block):
        with patch.object(spin_boson, "BLOCK_ELEMENTS", block * len(deltas)):
            ys, fs = y_filter(np.array(zs), deltas), f_filter(np.array(zs), deltas)
        for z, y, f in zip(zs, ys, fs):
            assert type(y_filter(z, deltas)) is complex
            assert type(f_filter(z, deltas)) is complex
            assert y == pytest.approx(y_filter(z, deltas), abs=1e-12)
            assert f == pytest.approx(f_filter(z, deltas), abs=1e-12)
            assert y == pytest.approx(oracle_y(z, deltas), abs=1e-12)
            assert f == pytest.approx(oracle_f(z, deltas), abs=1e-12)

    def test_grid_spanning_module_blocks(self):
        # 64 lines x 16 pulses: 11 points are 2 full blocks and a partial one
        bath = seeded_bath(3, 64)
        deltas = even_flip_train(16)
        step = spin_boson.BLOCK_ELEMENTS // (64 * 16)
        Ts = np.linspace(0.05, 2.0, 2 * step + 3)
        tol = 1e-12 * channel_scale(bath)
        xs, ys = shear_parameter(Ts, bath, deltas), added_noise(Ts, bath, deltas)
        for T, x, y in zip(Ts, xs, ys):
            assert x == pytest.approx(oracle_shear(T, bath, deltas), abs=tol)
            assert y == pytest.approx(oracle_noise(T, bath, deltas), abs=tol)
        zs = np.linspace(0.0, 3.0, spin_boson.BLOCK_ELEMENTS // 16 + 7)
        for z, y in zip(zs, y_filter(zs, deltas)):
            assert y == pytest.approx(oracle_y(z, deltas), abs=1e-12)

    @pytest.mark.parametrize("L", [14, 16, 18, 34, 40, 100])
    @pytest.mark.parametrize("train", ["uhrig", "periodic", "asymmetric"])
    def test_trains_over_several_tiles(self, L, train):
        # one tile (L <= PULSE_TILE), whole tiles, and a padded last tile
        deltas = {
            "uhrig": even_flip_train(L),
            "periodic": tuple((j + 1) / L for j in range(L)),
            "asymmetric": tuple(np.sort(np.random.default_rng(L).uniform(1e-3, 1.0, L))),
        }[train]
        bath = seeded_bath(L, 3)
        tol = 1e-12 * channel_scale(bath)
        w = min(spin_boson.PULSE_TILE, L)
        per_point = bath.n_modes * -(-L // w) * w
        # blocks of 2 T points (2, 2, 1) and of 6 z points (6, 6, 1)
        Ts, zs = np.linspace(0.1, 2.0, 5), np.linspace(0.0, 3.0, 13)
        with patch.object(spin_boson, "BLOCK_ELEMENTS", 2 * per_point):
            grid = {fn: fn(Ts, bath, deltas)
                    for fn in (shear_parameter, added_noise, pair_shear)}
            ys = y_filter(zs, deltas)
        oracle = {shear_parameter: oracle_shear, added_noise: oracle_noise,
                  pair_shear: oracle_pair}
        for fn, values in grid.items():
            for T, value in zip(Ts, values):
                assert value == pytest.approx(oracle[fn](T, bath, deltas), abs=tol)
        for z, y in zip(zs, ys):
            assert y == pytest.approx(oracle_y(z, deltas), abs=1e-12)

    def test_long_train_against_40_digit_reference(self):
        # 200 Uhrig pulses: 13 tiles, the last one padded
        bath, deltas = seeded_bath(1, 2), even_flip_train(200)
        Ts = np.array([0.7, 2.0])
        for T, x, y in zip(Ts, *channel_columns(Ts, bath, deltas)):
            reference = mp_channel(T, bath, deltas)
            assert abs(x - reference[0]) <= 2e-14
            assert abs(y - reference[1]) <= 2e-14

    @pytest.mark.parametrize("L", [16, 18])
    @pytest.mark.parametrize("train", ["uhrig", "periodic"])
    def test_trains_against_40_digit_reference(self, L, train):
        # from short times to z ~ 900, where each phase z d_k is reduced mod pi
        deltas = even_flip_train(L) if train == "uhrig" else tuple((j + 1) / L
                                                                   for j in range(L))
        bath, Ts = seeded_bath(L, 3), np.array([0.05, 2.0, 900.0])
        for T, x, y in zip(Ts, *channel_columns(Ts, bath, deltas)):
            for value, reference in zip((x, y), mp_channel(T, bath, deltas)):
                assert abs(value - reference) <= 1e-13 * max(1.0, abs(reference))

    def test_runs_hold_at_most_the_cap(self):
        # the 4 T points x 7 lines are one flat axis of 28 z values, each of
        # 32 padded pulses; a run holds at most BLOCK_ELEMENTS elements, or
        # one z, and the results do not depend on the cap
        bath, deltas, Ts = seeded_bath(5, 7), even_flip_train(18), np.linspace(0.1, 3.0, 4)
        whole = channel_columns(Ts, bath, deltas), pair_shear(Ts, bath, deltas)
        seen = []

        def spy(z, padded, n_pulses, matrix):
            seen.append((z.shape, padded.size))
            return filter_sums(z, padded, n_pulses, matrix)

        filter_sums = spin_boson._filter_sums
        for cap, runs in ((8, [1] * 28), (64, [2] * 14), (127, [3] * 9 + [1]),
                          (7 * 32, [7] * 4), (28 * 32, [28]), (10**6, [28])):
            seen.clear()
            with patch.object(spin_boson, "BLOCK_ELEMENTS", cap), \
                    patch.object(spin_boson, "_filter_sums", spy):
                split = channel_columns(Ts, bath, deltas), pair_shear(Ts, bath, deltas)
            assert all(shape[0] * padded <= cap or shape == (1,) for shape, padded in seen)
            assert [shape for shape, _ in seen] == 2 * [(n,) for n in runs]
            for a, b in zip(whole, split):
                np.testing.assert_allclose(b, a, rtol=0, atol=1e-15 * channel_scale(bath))

    def test_benchmark_shape_runs(self):
        # 100 T points x 64 lines x 16 pulses: 6,400 z values in runs of 512
        seen = []
        filter_sums = spin_boson._filter_sums

        def spy(z, *args):
            seen.append(z.shape)
            return filter_sums(z, *args)

        with patch.object(spin_boson, "_filter_sums", spy):
            channel_columns(np.linspace(0.1, 3.0, 100), seeded_bath(1, 64), even_flip_train(16))
        assert seen == [(512,)] * 12 + [(256,)]

    def test_empty_bath_sums_to_zero(self):
        # a bath of no lines is a sum over no lines: x = y = 0, and the
        # simulation, pulses alone, agrees
        bath, deltas, Ts = BathSpec((), (), 1.0), (0.25, 0.75), np.array([0.5, 2.0])
        assert channel_columns(0.5, bath, deltas) == [0.0, 0.0]
        assert channel_columns(Ts, bath, deltas).tolist() == [[0.0, 0.0], [0.0, 0.0]]
        for fn in (shear_parameter, added_noise, pair_shear):
            value = fn(0.5, bath, deltas)
            assert type(value) is float and value == 0.0
            assert fn(Ts, bath, deltas).tolist() == [0.0, 0.0]
        assert cross_validate(bath, deltas, 0.5) == 0.0
        assert cross_validate(bath, deltas, Ts).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("T", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("entry", [channel_columns, shear_parameter, added_noise,
                                       pair_shear])
    def test_bad_times_rejected(self, T, entry):
        bath = seeded_bath(1, 2)
        for times in (T, np.array([0.5, T])):
            with pytest.raises(ValueError, match=re.escape(f"need 0 <= T < inf, got T = {T}")):
                entry(times, bath, (0.25, 0.75))

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_rejected(self, z):
        for zs in (z, np.array([0.5, z])):
            with pytest.raises(ValueError, match=re.escape(f"need a finite z, got z = {z}")):
                y_filter(zs, (0.25, 0.75))
        # any finite z is evaluated, negative ones included
        assert y_filter(-1.0, (0.25, 0.75)) == pytest.approx(oracle_y(-1.0, (0.25, 0.75)))

    def test_empty_and_bad_grids(self):
        bath = seeded_bath(1, 2)
        assert shear_parameter(np.array([]), bath, (0.25, 0.75)).shape == (0,)
        assert cross_validate(bath, (0.25, 0.75), np.array([])).shape == (0,)
        with pytest.raises(ValueError):
            added_noise(np.ones((2, 2)), bath, (0.25, 0.75))
        with pytest.raises(ValueError):
            cross_validate(bath, (0.25, 0.75), np.ones((2, 2)))
        with pytest.raises(ValueError):
            y_filter(np.ones(3), (0.5,))


class TestCosSin:
    @pytest.mark.parametrize("draw", [
        lambda rng, n: rng.uniform(-2.0, 2.0, n),
        lambda rng, n: rng.uniform(0.0, 1e3, n),
        lambda rng, n: rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n),
        # within 1e-9 of odd multiples of pi, where tan(x/2) is large
        lambda rng, n: ((2 * rng.integers(-10**6, 10**6, n) + 1) * math.pi
                        + rng.uniform(-1e-9, 1e-9, n)),
        lambda rng, n: np.array([0.0, -0.0, math.pi, -math.pi, 1.7e308, -1.7e308]),
    ], ids=["small", "to-1e3", "powers", "odd-pi", "exact"])
    def test_equals_numpy_cos_and_sin(self, draw):
        x = draw(np.random.default_rng(0), 200_000)
        cos, sin = spin_boson._cos_sin(x)
        assert np.abs(cos - np.cos(x)).max() <= 4.5e-16
        assert np.abs(sin - np.sin(x)).max() <= 4.5e-16

    def test_zero_is_exact(self):
        cos, sin = spin_boson._cos_sin(np.zeros(3))
        assert cos.tolist() == [1.0] * 3 and sin.tolist() == [0.0] * 3


class TestBathSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BathSpec(couplings=(1.0,), frequencies=(1.0, 2.0), beta=1.0)
        with pytest.raises(ValueError):
            BathSpec(couplings=(1.0,), frequencies=(0.0,), beta=1.0)
        with pytest.raises(ValueError):
            BathSpec(couplings=(1.0,), frequencies=(1.0,), beta=-1.0)

    @pytest.mark.parametrize("couplings, frequencies, message", [
        ((1.0,), (math.nan,), "bath frequencies must be finite and positive"),
        ((1.0,), (math.inf,), "bath frequencies must be finite and positive"),
        ((math.inf,), (1.0,), "bath couplings must be finite"),
        ((0.1, math.nan), (1.0, 0.5), "bath couplings must be finite"),
    ], ids=["nan-frequency", "inf-frequency", "inf-coupling", "nan-coupling"])
    def test_non_finite_rejected(self, couplings, frequencies, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            BathSpec(couplings=couplings, frequencies=frequencies, beta=1.0)

    def test_vacuum_flag(self):
        bath = BathSpec(couplings=(0.1,), frequencies=(1.0,), beta=math.inf)
        assert bath.thermal_weights() == pytest.approx([1.0])


class TestFilters:
    def test_y_vanishes_at_zero(self):
        for L, deltas in [(2, (0.25, 0.75)), (4, even_flip_train(4))]:
            assert abs(y_filter(0.0, deltas)) < 1e-15

    def test_y_frozen_value(self):
        # L=2, deltas (1/4, 3/4), z = 2pi: 2(-i + -i) + 1 - 1 = -4i
        val = y_filter(2 * math.pi, (0.25, 0.75))
        assert val == pytest.approx(-4j, abs=1e-12)

    def test_odd_train_rejected(self):
        with pytest.raises(ValueError):
            y_filter(1.0, (0.5,))
        with pytest.raises(ValueError):
            f_filter(1.0, (0.1, 0.5, 0.9))

    @pytest.mark.parametrize("n_pulses,zlo,zhi", [
        (1, -3.0, -1.5), (2, -3.0, -1.5), (3, -2.0, -1.0), (4, -1.5, -0.75),
    ])
    def test_small_z_suppression_order(self, n_pulses, zlo, zhi):
        # |y_L(z)| = O(z^{N+1}) for the (completed) Uhrig train; the window
        # moves with N to stay above the double-precision cancellation floor
        deltas = even_flip_train(n_pulses)
        zs = np.logspace(zlo, zhi, 8)
        vals = [abs(y_filter(z, deltas)) for z in zs]
        slope = np.polyfit(np.log(zs), np.log(vals), 1)[0]
        assert slope == pytest.approx(n_pulses + 1, abs=0.25)

    def test_f_identities_on_grid(self):
        deltas = even_flip_train(3)
        for z in np.linspace(0.05, 12.0, 100):
            fl = f_filter(z, deltas)
            yl = y_filter(z, deltas)
            assert fl.real - math.sin(z) == pytest.approx(yl.imag, abs=1e-12)
            assert fl.imag + 1.0 - math.cos(z) == pytest.approx(yl.real, abs=1e-12)

    @pytest.mark.parametrize("deltas, message", [
        ((0.0, 1.0), "pulse fractions must lie in (0, 1]"),
        ((-0.25, 0.5), "pulse fractions must lie in (0, 1]"),
        ((0.5, 1.5), "pulse fractions must lie in (0, 1]"),
        ((0.25, math.nan), "pulse fractions must lie in (0, 1]"),
        ((0.75, 0.25), "pulse fractions must be strictly increasing"),
        ((0.5, 0.5), "pulse fractions must be strictly increasing"),
    ])
    @pytest.mark.parametrize("entry", [
        lambda deltas: y_filter(1.0, deltas),
        lambda deltas: channel_columns(1.0, seeded_bath(1, 2), deltas),
        lambda deltas: cross_validate(seeded_bath(1, 2), deltas, 1.0),
    ], ids=["y_filter", "channel_columns", "cross_validate"])
    def test_bad_train_rejected(self, deltas, message, entry):
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(deltas)

    def test_even_train_completion(self):
        assert len(even_flip_train(1)) == 2
        assert even_flip_train(1)[-1] == 1.0
        assert len(even_flip_train(2)) == 2
        assert len(even_flip_train(3)) == 4


class TestChannelScalars:
    def test_channel_columns_scalar_and_grid(self):
        bath = seeded_bath(3, 4, beta=1.5)
        deltas = even_flip_train(4)
        grid = np.linspace(0.1, 2.0, 7)
        columns = channel_columns(grid, bath, deltas)
        assert columns.shape == (2, 7)
        for T, x, y in zip(grid, *columns):
            point = channel_columns(T, bath, deltas)
            assert [type(v) for v in point] == [float, float]
            assert point == pytest.approx([x, y], rel=1e-13)

    @pytest.mark.parametrize("entry", [shear_parameter, added_noise, pair_shear,
                                       cross_validate])
    def test_channel_past_the_float_range(self, entry):
        # (lambda/omega)^2 overflows: a ValueError naming the first T, no numpy
        # warning (tier-1 turns warnings into errors)
        bath, deltas = BathSpec((1e300,), (0.5,), 1.0), (0.25, 0.75)
        for times, first in ((0.5, "0.5"), (np.array([0.25, 0.5]), "0.25")):
            args = (bath, deltas, times) if entry is cross_validate else (times, bath, deltas)
            with pytest.raises(ValueError, match=re.escape(
                    f"the evolution to T = {first} leaves the float range")):
                entry(*args)

    def test_zero_coupling(self):
        bath = BathSpec(couplings=(0.0, 0.0), frequencies=(0.5, 1.0), beta=2.0)
        deltas = (0.25, 0.75)
        assert shear_parameter(1.0, bath, deltas) == 0.0
        assert added_noise(1.0, bath, deltas) == 0.0

    def test_shear_is_beta_independent(self):
        deltas = even_flip_train(2)
        vals = []
        for beta in (0.1, 1.0, 10.0):
            bath = seeded_bath(5, 3, beta=beta)
            vals.append(shear_parameter(0.9, bath, deltas))
        assert max(vals) - min(vals) < 1e-12

    def test_noise_nonnegative_and_beta_monotone(self):
        deltas = even_flip_train(2)
        for seed in range(8):
            y_prev = math.inf
            for beta in (0.1, 0.5, 2.0, 10.0):
                bath = seeded_bath(seed, 3, beta=beta)
                y = added_noise(0.7, bath, deltas)
                assert y >= 0.0
                assert y <= y_prev + 1e-15
                y_prev = y

    @pytest.mark.parametrize("n_pulses", [1, 2])
    def test_noise_small_time_scaling(self, n_pulses):
        # y ~ T^{2(N+1)} as T -> 0 under the (completed) Uhrig train
        bath = seeded_bath(2, 3)
        deltas = even_flip_train(n_pulses)
        Ts = np.logspace(-2.5, -1.0, 8)
        ys = [added_noise(T, bath, deltas) for T in Ts]
        slope = np.polyfit(np.log(Ts), np.log(ys), 1)[0]
        assert slope == pytest.approx(2 * (n_pulses + 1), abs=0.4)

    def test_spectrum_entry_point_equals_noise(self):
        # added noise as a sum over spectral lines:
        # sum_j lambda_j^2 coth(beta omega_j / 2) / omega_j^2 |y_L(omega_j T)|^2
        deltas = even_flip_train(2)
        for seed in range(20):
            bath = seeded_bath(seed, 1 + seed % 4, beta=0.5 + 0.3 * seed)
            lines = sum(lam ** 2 / math.tanh(bath.beta * om / 2) / om ** 2
                        * abs(y_filter(om * 0.8, deltas)) ** 2
                        for lam, om in zip(bath.couplings, bath.frequencies))
            assert added_noise(0.8, bath, deltas) == pytest.approx(lines, rel=1e-14)

    def test_zero_filter_line_contributes_nothing(self):
        # a single line at a frequency where y_L vanishes adds no noise
        deltas = (0.5, 1.0)
        z = 4.0 * math.pi  # y_L(2 pi k) = 0 for this train
        assert abs(y_filter(z, deltas)) < 1e-12
        bath = BathSpec(couplings=(0.3,), frequencies=(1.0,), beta=1.0)
        assert added_noise(z / 1.0, bath, deltas) == pytest.approx(0.0, abs=1e-24)


class TestThermalCovariance:
    def test_vacuum(self):
        bath = BathSpec(couplings=(0.1, 0.1), frequencies=(0.5, 1.0), beta=math.inf)
        assert np.array_equal(thermal_covariance(bath), np.eye(4))

    def test_coth_value(self):
        # beta omega = 2 -> coth(1)
        bath = BathSpec(couplings=(0.1,), frequencies=(1.0,), beta=2.0)
        M = thermal_covariance(bath)
        assert M[0, 0] == pytest.approx(1.3130352854993312, rel=1e-12)

    def test_entries_at_least_one(self):
        for seed in range(5):
            bath = seeded_bath(seed, 4, beta=0.3 + seed)
            assert thermal_covariance(bath).diagonal().min() >= 1.0


def uncontrolled_propagator(bath, t):
    """Closed-form free evolution on (Q, P, Q_1..Q_n, P_1..P_n):

        [[1, x(t), v(t)^T,    w(t)^T   ],
         [0, 1,    0,         0        ],
         [0, w(t), cos(Om t), -sin(Om t)],
         [0, v(t), sin(Om t), cos(Om t)]]

    with v = Om^{-1}(cos(Om t) - I) lam, w = -Om^{-1} sin(Om t) lam and
    x = t lam^T Om^{-1} lam - lam^T Om^{-2} sin(Om t) lam: the oracle for
    matrix_exponential(t A_eff J) with the model's coupling matrix.
    """
    n = bath.n_modes
    lam, om = np.asarray(bath.couplings), np.asarray(bath.frequencies)
    c, s = np.cos(om * t), np.sin(om * t)
    v, w = (c - 1.0) / om * lam, -s / om * lam
    x = t * float(np.sum(lam ** 2 / om)) - float(np.sum(lam ** 2 / om ** 2 * s))
    S = np.eye(2 * n + 2)
    S[0, 1] = x
    S[0, 2:] = np.concatenate([v, w])
    S[2:, 1] = np.concatenate([w, v])
    S[2:, 2:] = np.block([[np.diag(c), -np.diag(s)], [np.diag(s), np.diag(c)]])
    return S


class TestUncontrolledPropagator:
    def test_time_zero(self):
        bath = seeded_bath(1, 3)
        assert np.array_equal(uncontrolled_propagator(bath, 0.0), np.eye(8))

    def test_uncoupled_rotation(self):
        bath = BathSpec(couplings=(0.0, 0.0), frequencies=(0.5, 1.2), beta=1.0)
        t = 0.7
        S = uncontrolled_propagator(bath, t)
        assert np.array_equal(S[:2, :2], np.eye(2))
        c = np.cos(np.array([0.5, 1.2]) * t)
        s = np.sin(np.array([0.5, 1.2]) * t)
        assert np.allclose(S[2:4, 2:4], np.diag(c))
        assert np.allclose(S[2:4, 4:6], -np.diag(s))
        assert np.allclose(S[4:6, 2:4], np.diag(s))

    def test_matches_exponential_oracle(self):
        # 50 seeded (bath, t) pairs against expm(t X)
        rng = np.random.default_rng(9)
        J = None
        for k in range(50):
            bath = seeded_bath(k, int(rng.integers(1, 5)))
            t = float(rng.uniform(0.0, 3.0))
            layout = ModeLayout(1, bath.n_modes)
            X = coupling_matrix(bath) @ symplectic_form(layout)
            S_closed = uncontrolled_propagator(bath, t)
            assert np.abs(S_closed - matrix_exponential(t * X)).max() < 1e-10

    def test_symplectic(self):
        bath = seeded_bath(3, 4)
        layout = ModeLayout(1, 4)
        J = symplectic_form(layout)
        for t in (0.3, 1.1, 2.7):
            assert is_symplectic(uncontrolled_propagator(bath, t), J, tol=1e-10)


def simulated_system_block(bath, deltas, T, M0):
    """The system block of S (M0 (+) M_thermal) S^T for the walk S of the train."""
    S = resulting_evolution(bath_generator(bath), flip_train_schedule(deltas, n_system=1), T)
    M = np.zeros_like(S)
    M[:2, :2], M[2:, 2:] = M0, thermal_covariance(bath)
    return (S @ M @ S.T)[:2, :2]


class TestChannelApply:
    """The channel M0 -> [[1,x],[0,1]] M0 [[1,x],[0,1]]^T + diag(y, 0), read
    off the direct simulation."""

    def test_identity_channel(self):
        bath = BathSpec(couplings=(0.0, 0.0), frequencies=(0.5, 1.0), beta=2.0)
        M0 = np.array([[1.5, 0.2], [0.2, 0.9]])
        assert np.abs(simulated_system_block(bath, (0.25, 0.75), 1.3, M0) - M0).max() < 1e-15

    def test_shear_of_identity(self):
        bath, deltas, T = seeded_bath(15, 3, scale=1.0), (0.2, 0.55), 2.0
        x, y = channel_columns(T, bath, deltas)
        assert abs(x) > 1e-2 and y > 1e-1
        expected = np.array([[1 + x * x + y, x], [x, 1.0]])
        assert np.abs(simulated_system_block(bath, deltas, T, np.eye(2)) - expected).max() < 1e-12

    def test_determinant_grows_by_noise(self):
        # for M0 = I: det(M_out) = 1 + y
        bath, deltas, T = seeded_bath(16, 2), even_flip_train(2), 1.7
        y = added_noise(T, bath, deltas)
        out = simulated_system_block(bath, deltas, T, np.eye(2))
        assert np.linalg.det(out) == pytest.approx(1.0 + y, rel=1e-12)

    def test_shear_matrix_is_symplectic(self):
        sh = np.array([[1.0, 0.83], [0.0, 1.0]])
        assert np.linalg.det(sh) == 1.0


class TestCrossValidation:
    def test_uncoupled_exact(self):
        bath = BathSpec(couplings=(0.0, 0.0, 0.0),
                        frequencies=(0.4, 0.7, 1.0), beta=1.0)
        assert cross_validate(bath, even_flip_train(2), 0.8) < 1e-12

    def test_seeded_bath_oracle_equivalence(self):
        bath = seeded_bath(11, 3)
        for T in (0.3, 0.9, 1.7):
            assert cross_validate(bath, even_flip_train(2), T) < 1e-8

    def test_asymmetric_train(self):
        # breaks the Uhrig symmetry, exercising the pulse-pair shear part
        bath = seeded_bath(12, 2)
        assert abs(pair_shear(1.1, bath, (0.2, 0.55))) > 1e-6
        assert cross_validate(bath, (0.2, 0.55), 1.1) < 1e-10

    def test_covariance_choice_immaterial(self):
        bath = seeded_bath(13, 3)
        assert np.array_equal(spin_boson.COVARIANCES, [np.eye(2), np.diag([4.0, 0.25])])
        assert cross_validate(bath, even_flip_train(2), 0.6) < 1e-8
        # any other initial covariances agree as well
        rng = np.random.default_rng(13)
        factors = rng.normal(size=(4, 2, 2))
        with patch.object(spin_boson, "COVARIANCES", factors @ factors.transpose(0, 2, 1)):
            assert cross_validate(bath, even_flip_train(2), 0.6) < 1e-8

    def test_grid_equals_scalar_calls(self):
        bath, deltas = seeded_bath(17, 4, beta=0.7), even_flip_train(4)
        grid = np.logspace(math.log10(0.05), math.log10(2.0), 9)
        deviations = cross_validate(bath, deltas, grid)
        assert deviations.shape == grid.shape
        for T, deviation in zip(grid, deviations):
            point = cross_validate(bath, deltas, T)
            assert type(point) is float and point < 1e-8
            assert abs(deviation - point) <= 1e-15

    @pytest.mark.parametrize("per_batch", [0, 3])
    def test_batched_grid_equals_one_batch(self, per_batch):
        # 9 walks of 5 segments of 10 x 10, whose 3 length groups (Uhrig's
        # lengths are symmetric) and flips make 4 distinct factors, the last
        # segment having no flip: one batch as given, or batches of one walk
        # (a budget below one walk's factors) or of three walks
        bath, deltas = seeded_bath(17, 4, beta=0.7), even_flip_train(4)
        grid = np.logspace(math.log10(0.05), math.log10(2.0), 9)
        whole = cross_validate(bath, deltas, grid)
        with patch.object(evolution, "FLOW_ELEMENTS", per_batch * 4 * 100), \
                patch.object(evolution, "_flows", wraps=evolution._flows) as flows:
            batched = cross_validate(bath, deltas, grid)
        assert flows.call_count == (9 if per_batch == 0 else 3)
        assert batched.tobytes() == whole.tobytes()

    def test_bath_size_guard(self):
        bath = seeded_bath(1, 6)
        with pytest.raises(ValueError):
            cross_validate(bath, (0.25, 0.75), 1.0)
