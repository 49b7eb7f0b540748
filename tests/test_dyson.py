import contextlib
import dataclasses
import functools
import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonic_dd import cli, dyson
from bosonic_dd.dyson import (
    DEGREE_CAP,
    _budget_pairs,
    _evaluate,
    _integrate_stage,
    check_homogenization_condition,
    check_homogenization_condition_for,
    check_qubit_nudd_condition,
    check_udd_condition,
    iterated_integral,
    verify_qubit_bosonic_correspondence,
)
from bosonic_dd.pauli_basis import ALL_PAIRS, PAIR_I, PAIR_Y, gamma_set, symplectic_form_index
from bosonic_dd.schedules import (
    decoupling_schedule,
    homogenization_schedule,
    qubit_nudd_schedule,
    toggling_sign_function,
    udd_times,
)

from oracles import as_index, nudd_labels, sign_value


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def quadrature_oracle(signs, powers, panels=400):
    """Composite-midpoint evaluation of the nested integral, aligned with the
    sign functions' breakpoints so every panel sees a smooth integrand."""
    breaks = sorted({0.0, 1.0}.union(*signs))
    xs = []
    ws = []
    for a, b in zip(breaks, breaks[1:]):
        h = (b - a) / panels
        xs.extend(a + (k + 0.5) * h for k in range(panels))
        ws.extend([h] * panels)
    xs = np.asarray(xs)
    ws = np.asarray(ws)
    g = np.ones_like(xs)
    total = 1.0
    for F, r in zip(signs, powers):
        fv = np.array([sign_value(F, x) for x in xs])
        integrand = fv * xs ** r * g
        csum = np.concatenate([[0.0], np.cumsum(integrand * ws)])
        g = csum[:-1] + 0.5 * integrand * ws  # cumulative value at midpoints
        total = float(csum[-1])
    return total


def exact_sigma_moment(n_pulses, power):
    """Closed-form integral of sigma_UDD(t) t^r by direct piecewise summation."""
    pts = [0.0] + list(udd_times(n_pulses)) + [1.0]
    total = 0.0
    for i in range(len(pts) - 1):
        total += (-1) ** i * (pts[i + 1] ** (power + 1) - pts[i] ** (power + 1)) / (power + 1)
    return total


def _rational_polyval(coeffs, x):
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_oracle(flip_sets, powers, number=Fraction):
    """Exact nested integral in rational arithmetic.

    Each flip point is taken as the exact rational value of its float, so the
    result is the exact integral of the very functions ``iterated_integral``
    receives.  Pieces are ascending-power polynomials in the global variable.
    With ``number=mpmath.mpf`` the flips may be given exactly to the working
    precision instead, and the integral is taken at that precision.
    """
    flip_sets = [[number(f) for f in flips] for flips in flip_sets]
    grid = sorted({number(0), number(1)}.union(*flip_sets))
    pieces = [[number(1)] for _ in grid[:-1]]
    value = number(0)
    for flips, r in zip(flip_sets, powers):
        value = number(0)
        stage = []
        for lo, hi, coeffs in zip(grid, grid[1:], pieces):
            sign = -1 if sum(1 for f in flips if f <= lo) % 2 else 1
            anti = [number(0)] * (r + 1) + [sign * c / (r + k + 1)
                                              for k, c in enumerate(coeffs)]
            anti[0] = value - _rational_polyval(anti, lo)
            value = _rational_polyval(anti, hi)
            stage.append(anti)
        pieces = stage
    return value


def simplex_scale(powers):
    """Oracle: the all-+1 integral 1 / prod_k (k + r_1 + ... + r_k), the scale
    of the relative zero test."""
    return 1.0 / math.prod(k + sum(powers[:k]) for k in range(1, len(powers) + 1))


def rational_flips(rng, denominators):
    """Sorted distinct points k/q in (0, 1), q drawn from ``denominators``."""
    points = set()
    for _ in range(int(rng.integers(0, 5))):
        q = int(rng.choice(denominators))
        points.add(Fraction(int(rng.integers(1, q)), q))
    return tuple(float(f) for f in sorted(points))


CONST = ()  # the constant +1: no flip


class TestIteratedIntegralFrozen:
    def test_unit_integrand(self):
        assert iterated_integral([CONST], [0]) == pytest.approx(1.0, abs=1e-15)

    def test_udd1_zeroth_moment(self):
        sig = udd_times(1)
        assert iterated_integral([sig], [0]) == pytest.approx(0.0, abs=1e-15)

    def test_udd2_first_moment(self):
        # hand value: 1/32 - 8/32 + 7/32 = 0
        sig = udd_times(2)
        assert iterated_integral([sig], [1]) == pytest.approx(0.0, abs=1e-15)

    def test_udd1_first_moment(self):
        # beyond budget: 1/8 - 3/8 = -1/4
        sig = udd_times(1)
        assert iterated_integral([sig], [1]) == pytest.approx(-0.25, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_violated_moment_matches_piecewise_sum(self, n):
        sig = udd_times(n)
        expected = exact_sigma_moment(n, n)
        assert iterated_integral([sig], [n]) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx((-0.25) ** n, abs=1e-12)

    def test_constant_nested_is_inverse_factorial(self):
        for s in range(1, 6):
            assert iterated_integral([CONST] * s, [0] * s) == pytest.approx(
                1.0 / math.factorial(s), abs=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            iterated_integral([], [])
        with pytest.raises(ValueError):
            iterated_integral([CONST], [0, 1])
        with pytest.raises(ValueError):
            iterated_integral([CONST], [-1])

    @pytest.mark.parametrize("power", [0.5, 1.7, -1.0, math.nan, math.inf])
    def test_rejects_powers_that_are_not_nonnegative_integers(self, power):
        # an intp cast would truncate 0.5 to 0 and 1.7 to 1
        sig = udd_times(1)
        with pytest.raises(ValueError, match="powers must be nonnegative integers"):
            iterated_integral([sig], [power])
        with pytest.raises(ValueError, match="powers must be nonnegative integers"):
            iterated_integral([CONST, sig], [1, power])

    def test_integral_float_and_numpy_powers_accepted(self):
        sig = udd_times(1)
        assert (iterated_integral([sig], [2.0]) == iterated_integral([sig], [np.int64(2)])
                == iterated_integral([sig], [2]))

    @pytest.mark.parametrize("flips", [(0.0,), (0.5, 0.5), (1.0,), (0.6, 0.4), (math.nan,),
                                       ((0.5,),)],
                             ids=["zero", "repeated", "one", "decreasing", "nan", "nested"])
    def test_rejects_flip_times_outside_the_open_interval(self, flips):
        with pytest.raises(ValueError, match="strictly increasing in \\(0, 1\\)"):
            iterated_integral([CONST, flips], [0, 1])


class TestIteratedIntegralAgainstQuadrature:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_piecewise_signs(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 4))
        signs = []
        for _ in range(s):
            k = int(rng.integers(0, 4))
            flips = tuple(sorted(rng.uniform(0.05, 0.95, size=k)))
            signs.append(flips)
        powers = [int(r) for r in rng.integers(0, 3, size=s)]
        exact = iterated_integral(signs, powers)
        approx = quadrature_oracle(signs, powers)
        assert exact == pytest.approx(approx, abs=5e-7)


class TestIteratedIntegralAgainstRationalOracle:
    @pytest.mark.parametrize("denominators",
                             [(2, 4, 8, 16, 32), (3, 5, 6, 7, 9, 10, 12)],
                             ids=["dyadic", "small-denominator"])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_rational_flips(self, seed, denominators):
        rng = np.random.default_rng(seed)
        s = 1 + seed % 4
        flip_sets = [rational_flips(rng, denominators) for _ in range(s)]
        powers = [int(r) for r in rng.integers(0, 4, size=s)]
        exact = rational_oracle(flip_sets, powers)
        value = iterated_integral(flip_sets, powers)
        assert abs(value - float(exact)) <= 1e-14

    def test_uhrig_moments(self):
        for n in range(1, 5):
            sig = udd_times(n)
            for r in range(4):
                exact = rational_oracle([sig], [r])
                assert abs(iterated_integral([sig], [r]) - float(exact)) <= 1e-14


class TestIntegralProperties:
    @given(st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_simplex_bound(self, s, seed):
        rng = np.random.default_rng(seed)
        signs = [tuple(sorted(rng.uniform(0.1, 0.9, rng.integers(0, 3)))) for _ in range(s)]
        powers = [int(r) for r in rng.integers(0, 3, size=s)]
        assert abs(iterated_integral(signs, powers)) <= simplex_scale(powers) * (1 + 1e-12)

    @pytest.mark.parametrize("powers", [(0,), (3,), (0, 0, 0), (1, 0, 2), (2, 2), (0, 3, 1, 0, 2)])
    def test_simplex_scale_is_the_all_plus_integral(self, powers):
        exact = rational_oracle([()] * len(powers), powers)
        assert exact == Fraction(1, math.prod(k + sum(powers[:k])
                                              for k in range(1, len(powers) + 1)))
        assert iterated_integral([CONST] * len(powers), powers) == pytest.approx(
            simplex_scale(powers), rel=1e-15)

    def test_refinement_invariance(self):
        sig = udd_times(3)
        base = iterated_integral([sig, CONST], [1, 2])
        # the extra breakpoints are the flips of a function that no key uses
        refined = walk([sig, CONST, (0.111, 0.333, 0.777, 0.9)],
                       [[(0, 1), (1, 2)]])[0]
        assert refined == pytest.approx(base, abs=1e-14)

    def test_polynomial_continuity(self):
        # accumulated antiderivatives agree at interior breakpoints: the left
        # piece at u = h_{i-1} equals the right piece at u = 0
        sig = udd_times(2)
        breaks = np.array((0.0,) + sig + (1.0,))
        k = np.arange(DEGREE_CAP + 1)
        signs = np.array([1.0, -1.0, 1.0])
        anti = _integrate_stage(np.ones((1, 3, 1)), signs[None], np.array([1]), 2,
                                breaks[:-1, None] ** k, np.diff(breaks)[:, None] ** k)[0]
        for i in range(1, len(breaks) - 1):
            h = breaks[i] - breaks[i - 1]
            left = np.polynomial.polynomial.polyval(h, anti[i - 1])
            right = np.polynomial.polynomial.polyval(0.0, anti[i])
            assert left == pytest.approx(right, abs=1e-15)

    def test_degree_guard(self):
        with pytest.raises(RuntimeError):
            iterated_integral([CONST] * 3, [10, 10, 10])


@st.composite
def rational_functions(draw):
    """One to four sign functions with flips k/q from one denominator family."""
    denominators = draw(st.sampled_from([(2, 4, 8, 16, 32), (3, 5, 6, 7, 9, 10, 12)]))
    flip = st.sampled_from(denominators).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda k: Fraction(k, q)))
    flip_sets = draw(st.lists(st.sets(flip, max_size=4), min_size=1, max_size=4))
    return [tuple(float(f) for f in sorted(flips)) for flips in flip_sets]


@st.composite
def key_lists(draw, n_functions):
    """Keys of length 1-4 with powers 0-3; a key may reuse a prefix of an
    earlier key, so the list has shared prefixes, extensions and duplicates."""
    pair = st.tuples(st.integers(0, n_functions - 1), st.integers(0, 3))
    keys = []
    for _ in range(draw(st.integers(1, 12))):
        base = []
        if keys and draw(st.booleans()):
            base = keys[draw(st.integers(0, len(keys) - 1))]
            base = base[:draw(st.integers(0, len(base)))]
        keys.append(base + draw(st.lists(pair, min_size=0 if base else 1,
                                         max_size=4 - len(base))))
    return keys


def flip_masks(flip_sets):
    """The walker's input for sign functions given by their flip times: the
    sorted union of the times, and one flip mask over it per function."""
    times = np.array(sorted(set().union(*flip_sets)), dtype=float)
    return times, np.array([[t in flips for t in times.tolist()] for flips in flip_sets],
                           dtype=bool).reshape(len(flip_sets), len(times))


def walk(flip_sets, keys):
    """Values of ``keys`` from one walker call, the keys padded with (0, 0)."""
    pairs = np.zeros((len(keys), max(map(len, keys)), 2), dtype=np.intp)
    for row, key in zip(pairs, keys):
        row[:len(key)] = key
    return _evaluate(*flip_masks(flip_sets), pairs[..., 0], pairs[..., 1],
                     np.array([len(key) for key in keys])).tolist()


def report_rows(report):
    """(s, powers, labels, value, required_zero) of every row, read from the
    report's columns."""
    return [(s, powers, tuple(as_index(report.alphabet[p]) for p in picks[:s]), value, required)
            for (s, powers), picks, value, required in zip(
                [report.budgets[b] for b in report.budget.tolist()], report.picks.tolist(),
                report.values.tolist(), report.required_zero.tolist())]


class TestDepthWalker:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_values_match_the_rational_oracle(self, data):
        flip_sets = data.draw(rational_functions())
        keys = data.draw(key_lists(len(flip_sets)))
        for key, value in zip(keys, walk(flip_sets, keys)):
            exact = rational_oracle([flip_sets[f] for f, _ in key], [r for _, r in key])
            assert abs(value - float(exact)) <= 1e-14

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_value_does_not_depend_on_the_other_keys(self, data):
        flip_sets = data.draw(rational_functions())
        keys = data.draw(key_lists(len(flip_sets)))
        shared = walk(flip_sets, keys)
        for key, value in zip(keys, shared):
            assert walk(flip_sets, [key])[0].hex() == value.hex()
        assert [v.hex() for v in walk(flip_sets, keys[::-1])] == \
            [v.hex() for v in shared[::-1]]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_distinct_key_is_contracted_once(self, data):
        flip_sets = data.draw(rational_functions())
        distinct = list(dict.fromkeys(map(tuple, data.draw(key_lists(len(flip_sets))))))
        repeats = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
        keys = data.draw(st.permutations(distinct + repeats))
        # every leaf contraction is one einsum over its keys' rows
        with mock.patch.object(np, "einsum", wraps=np.einsum) as spy:
            values = walk(flip_sets, [list(key) for key in keys])
        assert sum(len(call.args[1]) for call in spy.call_args_list) == len(distinct)
        alone = dict(zip(distinct, walk(flip_sets, [list(key) for key in distinct])))
        for key, value in zip(keys, values):
            assert value.hex() == alone[key].hex() == walk(flip_sets, [list(key)])[0].hex()

    @pytest.mark.parametrize("n", [3, 17, 1025])  # odd interval counts
    def test_leaf_value_does_not_depend_on_the_block(self, n):
        # among thousands of keys most leaf rows sit at odd, so unaligned, offsets
        # of the contracted operands; a key alone sits at offset 0
        rng = np.random.default_rng(n)
        flips = (np.sort(rng.choice(np.arange(1, 4 * n), n - 1, replace=False)) / (4 * n)).tolist()
        times, functions = flip_masks([tuple(flips)] + [
            tuple(sorted(rng.choice(flips, k, replace=False).tolist()))
            for k in (1, n // 2, n - 2)])
        n_keys = 3000
        length = rng.integers(1, 4, n_keys)
        f = rng.integers(0, len(functions), (n_keys, 3))
        r = np.where(np.arange(3) < length[:, None], rng.integers(0, 4, (n_keys, 3)), 0)
        values = _evaluate(times, functions, f, r, length)
        for j in rng.choice(n_keys, 40, replace=False):
            alone = _evaluate(times, functions, f[j:j + 1], r[j:j + 1], length[j:j + 1])
            assert alone[0].hex() == values[j].hex()

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_stacked_stage_equals_one_prefix_stages(self, seed, n_prefixes, n):
        rng = np.random.default_rng(seed)
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 1)), [1.0]])
        k = np.arange(DEGREE_CAP + 1)
        left_pow, width_pow = breaks[:-1, None] ** k, np.diff(breaks)[:, None] ** k
        widths = rng.integers(1, 6, n_prefixes)  # real columns of each g_p
        powers = rng.integers(0, 4, n_prefixes)
        coeffs = np.where(np.arange(widths.max()) < widths[:, None, None],
                          rng.uniform(-1.0, 1.0, (n_prefixes, n, widths.max())), 0.0)
        signs = rng.choice([-1.0, 1.0], (n_prefixes, n))
        degrees = widths + powers
        stacked = _integrate_stage(coeffs, signs, powers, int(degrees.max()),
                                   left_pow, width_pow)
        for p in range(n_prefixes):
            alone = _integrate_stage(coeffs[p:p + 1, :, :widths[p]], signs[p:p + 1],
                                     powers[p:p + 1], int(degrees[p]), left_pow,
                                     width_pow)[0]
            assert stacked[p, :, :degrees[p] + 1].tobytes() == alone.tobytes()
            assert not stacked[p, :, degrees[p] + 1:].any()

    @given(st.lists(st.integers(0, 3), max_size=3), st.integers(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_degree_guard_on_the_contracted_step(self, prefix_powers, spare):
        # the key's prefix stays far below the cap; only its last power reaches it
        s = len(prefix_powers) + 1
        last = DEGREE_CAP + 1 - spare - s - sum(prefix_powers)
        powers = prefix_powers + [last]
        if spare:
            exact = rational_oracle([()] * s, powers)
            assert abs(iterated_integral([CONST] * s, powers) - float(exact)) <= 1e-14
        else:
            with pytest.raises(RuntimeError, match="degree exceeds cap"):
                iterated_integral([CONST] * s, powers)
            with pytest.raises(RuntimeError, match="degree exceeds cap"):
                walk([()], [[(0, 0)], list(zip([0] * s, powers))])


@contextlib.contextmanager
def sampling(max_tuples, seed=dyson.SAMPLE_SEED):
    """The condition reports with another sample size and seed."""
    with mock.patch.object(dyson, "MAX_TUPLES", max_tuples), \
            mock.patch.object(dyson, "SAMPLE_SEED", seed):
        yield


def seeded_draws(alphabet, exempt, order, max_tuples, seed):
    """The sampled mode's draw loop written out one draw at a time: the kept
    (s, powers, labels) rows, and whether each draw was kept."""
    pairs = _budget_pairs(order)
    rng = np.random.default_rng(seed)
    rows, kept = [], []
    while len(rows) < max_tuples and len(kept) < 20 * max_tuples:
        s, powers = pairs[int(rng.integers(len(pairs)))]
        alphas = tuple(alphabet[int(rng.integers(len(alphabet)))] for _ in range(s))
        acc = (PAIR_I,) * len(alphabet[0])
        for alpha in alphas:
            acc = tuple((a[0] ^ b[0], a[1] ^ b[1]) for a, b in zip(acc, alpha))
        kept.append(acc not in exempt)
        if kept[-1]:
            rows.append((s, powers, alphas))
    return rows, kept


def batches_with_rejections(kept, max_tuples):
    """How many draw batches reject a draw, when each batch draws as many
    tuples as are still missing."""
    count = n = start = 0
    while start < len(kept):
        batch = kept[start:start + max_tuples - n]
        count += not all(batch)
        n += sum(batch)
        start += len(batch)
    return count


def _label_functions(scheme, n, m):
    """Report and label -> sign function for the small exhaustive reports."""
    if scheme == "udd":
        sigma = udd_times(n)
        return check_udd_condition(n), lambda gamma: sigma if gamma else CONST
    if scheme == "nudd":
        sched = qubit_nudd_schedule(n, m)
        report = check_qubit_nudd_condition(n, m)
    else:
        sched = homogenization_schedule(n, m)
        report = check_homogenization_condition(n, m)
    return report, lambda alpha: tuple(sched.deltas[toggling_sign_function(sched, alpha)])


class TestWalkerProperties:
    @given(st.sampled_from([("udd", 3, None), ("udd", 5, None), ("nudd", 2, 0),
                            ("nudd", 1, 1), ("nudd", 2, 1), ("hom", 2, 1),
                            ("hom", 1, 2)]))
    @settings(max_examples=10, deadline=None)
    def test_report_rows_equal_standalone_integrals(self, case):
        report, function_of = _label_functions(*case)
        assert report.exhaustive
        for _, powers, labels, value, _ in report_rows(report):
            alone = iterated_integral([function_of(a) for a in labels], powers)
            assert abs(value - alone) <= 1e-15

    @pytest.mark.parametrize("case", [("udd", 3, None), ("nudd", 2, 1), ("hom", 2, 1),
                                      ("hom", 1, 2)])
    def test_equal_masks_share_one_function(self, case):
        # the walk's functions are distinct masks, and each label's id names its own
        # mask: equal masks get one id, distinct masks distinct ids
        with mock.patch.object(dyson, "_evaluate", wraps=dyson._evaluate) as spy:
            report, function_of = _label_functions(*case)
        times, functions, f = spy.call_args_list[0].args[:3]
        assert len({row.tobytes() for row in functions}) == len(functions)
        picks = report.picks[:len(f)]  # past them, the udd witness row
        for label, function in zip(picks[picks >= 0].tolist(), f[picks >= 0].tolist()):
            assert tuple(times[functions[function]]) == function_of(report.alphabet[label])

    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    max_size=6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_refinement_invariance(self, extra, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 5))
        signs = [tuple(np.unique(rng.uniform(0.05, 0.95, k))) for k in rng.integers(0, 4, size=s)]
        powers = [int(r) for r in rng.integers(0, 4, size=s)]
        base = iterated_integral(signs, powers)
        # the extra breakpoints are the flips of a function that no key uses
        refined = walk(signs + [tuple(sorted(set(extra)))],
                       [list(enumerate(powers))])[0]
        assert refined == pytest.approx(base, abs=1e-14)

    @given(st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sampled_rows_follow_the_seeded_draws(self, max_tuples, seed):
        exempt = {(PAIR_I,) * 3, as_index(symplectic_form_index(2))}
        expected, _ = seeded_draws(tuple(map(as_index, gamma_set(2))), exempt, 2,
                                   max_tuples, seed)
        with sampling(max_tuples, seed):
            report = check_homogenization_condition(2, 2)
            again = check_homogenization_condition(2, 2)
        assert not report.exhaustive
        assert [row[:3] for row in report_rows(report)] == expected
        assert report_rows(again) == report_rows(report)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_nudd_rows_follow_the_seeded_draws(self, seed):
        # 60 of the 124 tuples of N=3 m=0; about 1 draw in 4 is rejected, so
        # the batches after the first redraw what the earlier ones rejected
        alphabet = tuple(itertools.product(ALL_PAIRS, repeat=1))
        expected, kept = seeded_draws(alphabet, {(PAIR_I,)}, 3, 60, seed)
        assert batches_with_rejections(kept, 60) >= 2
        with sampling(60, seed):
            report = check_qubit_nudd_condition(3, 0)
        assert not report.exhaustive and report.passed
        assert [row[:3] for row in report_rows(report)] == expected


class TestUddCondition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_passes(self, n):
        report = check_udd_condition(n, tol=1e-10)
        assert report.passed
        assert report.exhaustive

    def test_boundary_probe_is_nonzero(self):
        for n in range(1, 7):
            report = check_udd_condition(n)
            probes = report.values[~report.required_zero]
            assert len(probes) == 1
            assert abs(probes[0]) == pytest.approx(0.25 ** n, rel=1e-9)
            assert abs(probes[0]) > 1e-6

    def test_n1_single_required_tuple(self):
        report = check_udd_condition(1)
        required = [row for row in report_rows(report) if row[4]]
        assert len(required) == 1
        assert required[0][:2] == (1, (0,))

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            check_udd_condition(13)

    def test_order_10_exhaustive(self):
        report = check_udd_condition(10)
        assert report.passed and report.exhaustive
        assert len(report.values) == 29525  # 3^10 // 2 required rows and the witness

    def test_order_12_sampled(self):
        report = check_udd_condition(12)
        assert report.passed and not report.exhaustive
        assert report.n_checked == 10 ** 5


class TestBosonicDecouplingCondition:
    """The udd check runs on sigma of the bosonic decoupling schedule."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_udd_rows_bitwise(self, n):
        # sigma flips at the Uhrig times, so every row, the witness too, is the
        # walk over a hand-built Uhrig mask, bit for bit
        report = check_udd_condition(n)
        length = np.array([s for s, _ in report.budgets])[report.budget]
        powers = np.array([r + (0,) * (n - s) for s, r in report.budgets])[report.budget]
        uhrig = _evaluate(np.array(udd_times(n)), np.array([[False] * n, [True] * n]),
                          np.maximum(report.picks, 0), powers, length)
        assert report.passed
        assert uhrig.tobytes() == report.values.tobytes()

    def test_even_parity_tuples_not_required(self):
        report = check_udd_condition(2)
        for _, _, labels, _, required in report_rows(report):
            if required:
                assert sum(labels) % 2 == 1


def test_budget_pairs_follow_the_filtered_product():
    # the sampled draws index this list, so its order is pinned: the old
    # enumeration, every power tuple filtered by its sum and stably sorted
    for order in range(1, 13):
        product = [(s, powers) for s in range(1, order + 1)
                   for powers in sorted(itertools.product(range(order - s + 1), repeat=s),
                                        key=sum)
                   if sum(powers) <= order - s]
        assert _budget_pairs(order) == product


@pytest.mark.parametrize("check, args, message", [
    (check_udd_condition, (0,), "order must be >= 1"),
    (check_udd_condition, (13,), "budget guard: order <= 12"),
    (check_qubit_nudd_condition, (0, 1), "suppression order must be >= 1"),
    (check_homogenization_condition, (1, -1), "m must be nonnegative"),
    pytest.param(check_qubit_nudd_condition, (9, 2),
                 "pulse count (N+1)^(2m+2) = 1000000 exceeds the qubit-condition guard 10000",
                 id="qubit-guard"),
    pytest.param(check_homogenization_condition, (9, 2), "pulse count (N+1)^(2m+2) = "
                 "1000000 exceeds the homogenization-condition guard 10000",
                 id="homogenization-guard"),
])
def test_condition_input_guards(check, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check(*args)


class TestQubitNuddCondition:
    def test_n1_m0_full(self):
        report = check_qubit_nudd_condition(1, 0)
        assert report.passed and report.exhaustive
        assert report.n_checked == 3  # the three nonzero indices at s=1, r=0

    def test_n2_m1(self):
        report = check_qubit_nudd_condition(2, 1)
        assert report.passed
        assert report.max_violation < 1e-10

    def test_zero_index_exempt(self):
        report = check_qubit_nudd_condition(1, 0)
        for _, _, labels, _, _ in report_rows(report):
            flat = tuple(b for alpha in labels for pair in alpha for b in pair)
            assert any(flat)

    def test_guard(self):
        with pytest.raises(ValueError):
            check_qubit_nudd_condition(9, 2)

    def test_n2_m2_exhaustive(self):
        report = check_qubit_nudd_condition(2, 2)
        assert report.exhaustive and report.passed
        assert report.n_checked == 63 * 2 + 64 ** 2 - 64  # zero-xor tuples exempt
        assert report.max_violation <= 1e-14


class TestHomogenizationCondition:
    def test_n1_m1_exhaustive(self):
        report = check_homogenization_condition(1, 1)
        assert report.passed and report.exhaustive

    def test_n2_m1_exhaustive(self):
        report = check_homogenization_condition(2, 1)
        assert report.passed and report.exhaustive

    def test_flip_schedule_rejected(self):
        # order and m come from the schedule, and a flip schedule has no m
        with pytest.raises(ValueError, match="needs an indexed schedule"):
            check_homogenization_condition_for(decoupling_schedule(2, 1))

    def test_exemptions_not_tested(self):
        report = check_homogenization_condition(2, 1)
        zero = (PAIR_I, PAIR_I)
        form = (PAIR_Y, PAIR_I)
        for _, _, labels, _, _ in report_rows(report):
            acc = list(zero)
            for alpha in labels:
                acc = [(a[0] ^ b[0], a[1] ^ b[1]) for a, b in zip(acc, alpha)]
            assert tuple(acc) not in (zero, form)

    def test_sampled_mode(self):
        with sampling(500, 3):
            report = check_homogenization_condition(2, 2)
        assert not report.exhaustive
        assert report.n_checked == 500
        assert report.passed

    def test_sampled_mode_without_draws(self):
        with sampling(0):
            report = check_homogenization_condition(2, 1)
        assert not report.exhaustive and report.passed
        assert len(report.values) == len(report.budget) == len(report.picks) == 0
        assert report.max_violation == 0.0 and report.n_checked == 0


class TestCorrespondence:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1)])
    def test_breakpoint_exact(self, n, m):
        report = verify_qubit_bosonic_correspondence(n, m)
        assert report.passed
        assert report.n_checked == len(gamma_set(m))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1)])
    def test_wrong_substitution_mismatches(self, monkeypatch, n, m):
        # keeping the qubit pulses (x_0 not replaced by y_0) breaks the
        # correspondence, and only for indices unlike their partner (a_0 in {x, y})
        monkeypatch.setattr(dyson, "substitute_bosonic", lambda qubit: qubit)
        report = verify_qubit_bosonic_correspondence(n, m)
        assert not report.passed
        assert report.mismatches.shape[1:] == (m + 1, 2) and len(report.mismatches)
        assert set(map(as_index, report.mismatches)) <= set(map(as_index, gamma_set(m)))
        assert all(x for x, _ in report.mismatches[:, 0].tolist())

    def test_unchanged_when_first_entry_trivial(self):
        # alpha with a_0 = (0, d): the partner index equals alpha itself
        for alpha in map(as_index, gamma_set(1)):
            c, d = alpha[0]
            if c == 0:
                partner = ((0, d ^ c),) + tuple(alpha[1:])
                assert partner == alpha


class TestCsv:
    def test_report_csv(self, tmp_path):
        out = tmp_path / "udd.csv"
        assert cli.main(["verify", "--check", "udd", "--N", "2",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "check,s,r,labels,value,required_zero,pass"
        assert len(lines) == len(check_udd_condition(2).values) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    def test_row_passed(self):
        # the one pass formula behind ConditionReport.passed and the CSV
        report = check_udd_condition(2, tol=1e-10)
        assert report.row_passes.all() and report.passed
        row = int(np.flatnonzero(report.required_zero)[0])
        witness = int(np.flatnonzero(~report.required_zero)[0])
        loud = report.values.copy()
        loud[witness] = 1.0
        assert dataclasses.replace(report, values=loud).passed
        for value in (1e-9, math.nan):
            values = report.values.copy()
            values[row] = value
            broken = dataclasses.replace(report, values=values)
            assert not broken.row_passes[row]
            assert not broken.passed

    def test_zero_test_is_relative(self):
        # a required-zero value between tol * scale(r) and tol fails
        report = check_udd_condition(3, tol=1e-10)
        rows = report_rows(report)
        for row in np.flatnonzero(report.required_zero).tolist():
            scale = simplex_scale(rows[row][1])
            if scale < 1.0:
                values = report.values.copy()
                values[row] = 1e-10 * (1 + scale) / 2  # in (tol * scale, tol)
                broken = dataclasses.replace(report, values=values)
                assert not broken.row_passes[row] and not broken.passed
                values[row] = 1e-10 * scale
                assert dataclasses.replace(report, values=values).passed

    def test_format_labels_per_row(self):
        for check, report in (("udd", check_udd_condition(3)),
                              ("nudd", check_qubit_nudd_condition(2, 1)),
                              ("homogenization", check_homogenization_condition(2, 1))):
            expected = [
                ";".join(str(l) for l in labels)
                if all(isinstance(l, int) for l in labels)
                else ";".join("".join(f"{x}{z}" for x, z in alpha) for alpha in labels)
                for _, _, labels, _, _ in report_rows(report)]
            lines = cli._report_lines(check, report).splitlines(keepends=True)
            assert [line.split(",")[3] for line in lines] == expected


def row_line(check, tol, row):
    """Oracle: the verify CSV line of one (s, powers, labels, value,
    required_zero) row, formatted label by label."""
    s, powers, labels, value, required = row
    text = ";".join(str(l) if isinstance(l, int) else "".join(f"{x}{z}" for x, z in l)
                    for l in labels)
    ok = abs(value) <= tol * simplex_scale(powers) if required else True
    return (f"{check},{s},{';'.join(str(r) for r in powers)},{text},{cli._fmt(value)},"
            f"{int(required)},{int(ok)}\n")


@functools.cache
def column_report(check):
    if check == "udd":
        return check_udd_condition(3)
    if check == "nudd":
        return check_qubit_nudd_condition(1, 1)
    with sampling(40, 5):
        return check_homogenization_condition(2, 2)


row_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 1.0000000000000002e-10, math.nan,
                     math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True))


class TestColumnReductions:
    @given(st.sampled_from(["udd", "nudd", "homogenization"]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_reductions_and_lines_equal_the_per_row_oracle(self, check, data):
        base = column_report(check)
        n = len(base.values)
        report = dataclasses.replace(
            base, values=np.array(data.draw(st.lists(row_values, min_size=n, max_size=n))),
            required_zero=np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                                   dtype=bool))
        rows = report_rows(report)
        oks = [abs(value) <= report.tol * simplex_scale(powers) if required else True
               for _, powers, _, value, required in rows]
        assert report.row_passes.tolist() == oks
        assert report.passed == all(oks)
        assert report.n_checked == sum(required for *_, required in rows)
        needed = [abs(value) for *_, value, required in rows if required]
        if any(math.isnan(v) for v in needed):
            assert math.isnan(report.max_violation)
        else:
            assert report.max_violation == max(needed, default=0.0)
        assert cli._report_lines(check, report).splitlines(keepends=True) == [
            row_line(check, report.tol, row) for row in rows]


class TestExactConditionValues:
    # worst |value - exact| over these rows is 1.4e-17 (nudd N=2 m=1)
    BOUND = 1e-16

    @pytest.mark.parametrize("case", [("udd", 6, None), ("nudd", 2, 1), ("hom", 3, 1)])
    def test_seeded_rows_equal_exact_fractions(self, case):
        # flips are floats, so exact dyadic rationals: the oracle integrates
        # the very functions the walker does, in exact arithmetic
        report, function_of = _label_functions(*case)
        rows = report_rows(report)
        rng = np.random.default_rng(2024)
        for j in rng.choice(len(rows), size=60, replace=False).tolist():
            _, powers, labels, value, _ = rows[j]
            exact = rational_oracle([function_of(a) for a in labels], powers)
            assert abs(Fraction(value) - exact) <= self.BOUND


def fifty_digit_nudd_times(n_pulses, m):
    """Each nested-schedule pulse time (as a float, the schedule's value) to
    its value at the working precision: the nesting recursion of
    ``nudd_labels`` run on Uhrig fractions sin^2 at that precision."""
    digits, times, level, _ = nudd_labels(n_pulses, m)
    width = 2 * m + 2
    grid = ([mpmath.mpf(0)] + [mpmath.sin(j * mpmath.pi / (2 * (n_pulses + 1))) ** 2
                               for j in range(1, n_pulses + 1)] + [mpmath.mpf(1)] * 2)
    exact = {}
    for label, t, lev in zip(digits.tolist(), times.tolist(), level.tolist()):
        if lev == width:
            exact[t] = mpmath.mpf(1)
            continue
        if lev >= 1:
            label[lev - 1], label[lev] = n_pulses + 1, label[lev] - 1
        value = grid[label[0]]
        for entry in label[1:]:
            value = grid[entry] + (grid[entry + 1] - grid[entry]) * value
        exact[t] = value
    return exact


class TestFiftyDigitValues:
    """A seeded sample of the required-zero rows of full order s + sum(r) = N,
    recomputed at 50 digits with every flip at 50 digits as well: the true
    integral vanishes, and the walker lies within 1e-13 scale(r) of it."""

    def check_sample(self, report, flips_of, size=40):
        rows = [row for row in report_rows(report) if row[4]]
        order = max(s + sum(powers) for s, powers, *_ in rows)
        deepest = [row for row in rows if row[0] + sum(row[1]) == order]
        rng = np.random.default_rng(50)
        for j in rng.choice(len(deepest), size=min(size, len(deepest)), replace=False).tolist():
            _, powers, labels, value, _ = deepest[j]
            exact = rational_oracle([flips_of(a) for a in labels], powers, mpmath.mpf)
            assert abs(exact) <= 1e-40
            assert abs(value - float(exact)) <= 1e-13 * simplex_scale(powers)

    def test_udd_rows(self):
        with mpmath.workdps(50):
            sigma = [mpmath.sin(j * mpmath.pi / 22) ** 2 for j in range(1, 11)]
            self.check_sample(check_udd_condition(10), lambda gamma: sigma if gamma else [])

    def test_homogenization_rows(self):
        schedule = homogenization_schedule(3, 1)
        with mpmath.workdps(50):
            exact = fifty_digit_nudd_times(3, 1)
            assert all(abs(float(v) - t) <= 1e-15 for t, v in exact.items())  # a few ulps
            self.check_sample(check_homogenization_condition(3, 1), lambda alpha: [
                exact[t] for t in schedule.deltas[toggling_sign_function(schedule, alpha)]])
