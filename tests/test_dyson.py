import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonic_dd import cli
from bosonic_dd.dyson import (
    DEGREE_CAP,
    _budget_pairs,
    _dedupe,
    _evaluate,
    _integrate_stage,
    check_bosonic_decoupling_condition,
    check_homogenization_condition,
    check_qubit_nudd_condition,
    check_udd_condition,
    format_labels,
    iterated_integral,
    simplex_bound,
    verify_qubit_bosonic_correspondence,
)
from bosonic_dd.pauli_basis import PAIR_I, PAIR_Y, gamma_set, symplectic_form_index
from bosonic_dd.schedules import (
    PiecewiseSignFunction,
    homogenization_schedule,
    qubit_nudd_schedule,
    toggling_sign_function,
    udd_times,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def quadrature_oracle(signs, powers, panels=400):
    """Composite-midpoint evaluation of the nested integral, aligned with the
    sign functions' breakpoints so every panel sees a smooth integrand."""
    grid = {0.0, 1.0}
    for F in signs:
        grid.update(F.flips)
    breaks = sorted(grid)
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
        fv = np.array([F.value(x) for x in xs])
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
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_oracle(flip_sets, powers):
    """Exact nested integral in rational arithmetic.

    Each flip point is taken as the exact rational value of its float, so the
    result is the exact integral of the very functions ``iterated_integral``
    receives.  Pieces are ascending-power polynomials in the global variable.
    """
    flip_sets = [[Fraction(f) for f in flips] for flips in flip_sets]
    grid = sorted({Fraction(0), Fraction(1)}.union(*flip_sets))
    pieces = [[Fraction(1)] for _ in grid[:-1]]
    value = Fraction(0)
    for flips, r in zip(flip_sets, powers):
        value = Fraction(0)
        stage = []
        for lo, hi, coeffs in zip(grid, grid[1:], pieces):
            sign = -1 if sum(1 for f in flips if f <= lo) % 2 else 1
            anti = [Fraction(0)] * (r + 1) + [sign * c / (r + k + 1)
                                              for k, c in enumerate(coeffs)]
            anti[0] = value - _rational_polyval(anti, lo)
            value = _rational_polyval(anti, hi)
            stage.append(anti)
        pieces = stage
    return value


def rational_flips(rng, denominators):
    """Sorted distinct points k/q in (0, 1), q drawn from ``denominators``."""
    points = set()
    for _ in range(int(rng.integers(0, 5))):
        q = int(rng.choice(denominators))
        points.add(Fraction(int(rng.integers(1, q)), q))
    return tuple(float(f) for f in sorted(points))


CONST = PiecewiseSignFunction(())


class TestIteratedIntegralFrozen:
    def test_unit_integrand(self):
        assert iterated_integral([CONST], [0]) == pytest.approx(1.0, abs=1e-15)

    def test_udd1_zeroth_moment(self):
        sig = PiecewiseSignFunction(udd_times(1))
        assert iterated_integral([sig], [0]) == pytest.approx(0.0, abs=1e-15)

    def test_udd2_first_moment(self):
        # hand value: 1/32 - 8/32 + 7/32 = 0
        sig = PiecewiseSignFunction(udd_times(2))
        assert iterated_integral([sig], [1]) == pytest.approx(0.0, abs=1e-15)

    def test_udd1_first_moment(self):
        # beyond budget: 1/8 - 3/8 = -1/4
        sig = PiecewiseSignFunction(udd_times(1))
        assert iterated_integral([sig], [1]) == pytest.approx(-0.25, abs=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_violated_moment_matches_piecewise_sum(self, n):
        sig = PiecewiseSignFunction(udd_times(n))
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


class TestIteratedIntegralAgainstQuadrature:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_piecewise_signs(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 4))
        signs = []
        for _ in range(s):
            k = int(rng.integers(0, 4))
            flips = tuple(sorted(rng.uniform(0.05, 0.95, size=k)))
            signs.append(PiecewiseSignFunction(flips))
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
        value = iterated_integral([PiecewiseSignFunction(f) for f in flip_sets], powers)
        assert abs(value - float(exact)) <= 1e-14

    def test_uhrig_moments(self):
        for n in range(1, 5):
            sig = PiecewiseSignFunction(udd_times(n))
            for r in range(4):
                exact = rational_oracle([sig.flips], [r])
                assert abs(iterated_integral([sig], [r]) - float(exact)) <= 1e-14


class TestIntegralProperties:
    @given(st.integers(1, 4), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_simplex_bound(self, s, seed):
        rng = np.random.default_rng(seed)
        signs = [PiecewiseSignFunction(tuple(sorted(rng.uniform(0.1, 0.9,
                                                                rng.integers(0, 3)))))
                 for _ in range(s)]
        powers = [int(r) for r in rng.integers(0, 3, size=s)]
        assert abs(iterated_integral(signs, powers)) <= simplex_bound(s) + 1e-12

    def test_refinement_invariance(self):
        sig = PiecewiseSignFunction(udd_times(3))
        base = iterated_integral([sig, CONST], [1, 2])
        refined = iterated_integral([sig, CONST], [1, 2],
                                    extra_breaks=(0.111, 0.333, 0.777, 0.9))
        assert refined == pytest.approx(base, abs=1e-14)

    def test_polynomial_continuity(self):
        # accumulated antiderivatives agree at interior breakpoints: the left
        # piece at u = h_{i-1} equals the right piece at u = 0
        sig = PiecewiseSignFunction(udd_times(2))
        breaks = np.array((0.0,) + sig.flips + (1.0,))
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


def walk(flip_sets, keys):
    """Values of ``keys`` from one walker call, one key array per length."""
    lengths = sorted({len(key) for key in keys})
    arrays = [np.array([key for key in keys if len(key) == s]) for s in lengths]
    functions = [PiecewiseSignFunction(flips) for flips in flip_sets]
    values = iter(_evaluate(functions, arrays).tolist())  # in array order
    by_length = {s: iter([next(values) for _ in array]) for s, array in zip(lengths, arrays)}
    return [next(by_length[len(key)]) for key in keys]


class TestDepthWalker:
    @given(st.lists(st.integers(0, 2 ** 40), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_dedupe_equals_np_unique(self, codes):
        codes = np.array(codes, dtype=np.intp)
        distinct, inverse = _dedupe(codes)
        expected, expected_inverse = np.unique(codes, return_inverse=True)
        assert distinct.tolist() == expected.tolist()
        assert inverse.tolist() == expected_inverse.tolist()

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


def _label_functions(scheme, n, m):
    """Report and label -> sign function for the small exhaustive reports."""
    if scheme == "udd":
        sigma = PiecewiseSignFunction(udd_times(n))
        return check_udd_condition(n), lambda gamma: sigma if gamma else CONST
    if scheme == "nudd":
        sched = qubit_nudd_schedule(n, m)
        report = check_qubit_nudd_condition(n, m)
    else:
        sched = homogenization_schedule(n, m)
        report = check_homogenization_condition(n, m)
    return report, lambda alpha: toggling_sign_function(sched, alpha)


class TestWalkerProperties:
    @given(st.sampled_from([("udd", 3, None), ("udd", 5, None), ("nudd", 2, 0),
                            ("nudd", 1, 1), ("nudd", 2, 1), ("hom", 2, 1),
                            ("hom", 1, 2)]))
    @settings(max_examples=10, deadline=None)
    def test_report_rows_equal_standalone_integrals(self, case):
        report, function_of = _label_functions(*case)
        assert report.exhaustive
        for row in report.rows:
            alone = iterated_integral([function_of(a) for a in row.labels], row.powers)
            assert abs(row.value - alone) <= 1e-15

    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    max_size=6),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_refinement_invariance(self, extra, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(1, 5))
        signs = [PiecewiseSignFunction(tuple(np.unique(rng.uniform(0.05, 0.95, k))))
                 for k in rng.integers(0, 4, size=s)]
        powers = [int(r) for r in rng.integers(0, 4, size=s)]
        base = iterated_integral(signs, powers)
        assert iterated_integral(signs, powers, extra_breaks=extra) == pytest.approx(
            base, abs=1e-14)

    @given(st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_sampled_rows_follow_the_seeded_draws(self, max_tuples, seed):
        # reference: the draw loop of the sampled mode, written out here
        alphabet = gamma_set(2)
        exempt = {(PAIR_I,) * 3, symplectic_form_index(2)}
        pairs = _budget_pairs(2)
        rng = np.random.default_rng(seed)
        expected = []
        attempts = 0
        while len(expected) < max_tuples and attempts < 20 * max_tuples:
            attempts += 1
            s, powers = pairs[int(rng.integers(len(pairs)))]
            alphas = tuple(alphabet[int(rng.integers(len(alphabet)))] for _ in range(s))
            acc = (PAIR_I,) * 3
            for alpha in alphas:
                acc = tuple((a[0] ^ b[0], a[1] ^ b[1]) for a, b in zip(acc, alpha))
            if acc not in exempt:
                expected.append((s, powers, alphas))
        report = check_homogenization_condition(2, 2, max_tuples=max_tuples, seed=seed)
        assert not report.exhaustive
        assert [(r.s, r.powers, r.labels) for r in report.rows] == expected
        again = check_homogenization_condition(2, 2, max_tuples=max_tuples, seed=seed)
        assert again.rows == report.rows


class TestUddCondition:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_passes(self, n):
        report = check_udd_condition(n, tol=1e-10)
        assert report.passed
        assert report.exhaustive

    def test_boundary_probe_is_nonzero(self):
        for n in range(1, 7):
            report = check_udd_condition(n)
            probes = [r for r in report.rows if not r.required_zero]
            assert len(probes) == 1
            assert abs(probes[0].value) == pytest.approx(0.25 ** n, rel=1e-9)
            assert abs(probes[0].value) > 1e-6

    def test_n1_single_required_tuple(self):
        report = check_udd_condition(1)
        required = [r for r in report.rows if r.required_zero]
        assert len(required) == 1
        assert required[0].s == 1 and required[0].powers == (0,)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            check_udd_condition(9)


class TestBosonicDecouplingCondition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_udd_rows_bitwise(self, n):
        a = check_udd_condition(n)
        b = check_bosonic_decoupling_condition(n)
        assert b.passed
        rows_a = [(r.s, r.powers, r.labels, r.value) for r in a.rows]
        rows_b = [(r.s, r.powers, r.labels, r.value) for r in b.rows]
        assert rows_a == rows_b

    def test_even_parity_tuples_not_required(self):
        report = check_bosonic_decoupling_condition(2)
        for row in report.rows:
            if row.required_zero:
                assert sum(row.labels) % 2 == 1


@pytest.mark.parametrize("check, args, message", [
    (check_udd_condition, (0,), "order must be >= 1"),
    (check_udd_condition, (9,), "budget guard: order <= 8"),
    (check_bosonic_decoupling_condition, (0,), "order must be >= 1"),
    (check_bosonic_decoupling_condition, (9,), "budget guard: order <= 8"),
    (check_qubit_nudd_condition, (9, 2), "label set exceeds the qubit-condition guard"),
    (check_homogenization_condition, (9, 2),
     "label set exceeds the homogenization-condition guard"),
])
def test_condition_input_guards(check, args, message):
    with pytest.raises(ValueError, match=message):
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
        for row in report.rows:
            flat = tuple(b for alpha in row.labels for pair in alpha for b in pair)
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

    def test_exemptions_not_tested(self):
        report = check_homogenization_condition(2, 1)
        zero = (PAIR_I, PAIR_I)
        form = (PAIR_Y, PAIR_I)
        for row in report.rows:
            acc = list(zero)
            for alpha in row.labels:
                acc = [(a[0] ^ b[0], a[1] ^ b[1]) for a, b in zip(acc, alpha)]
            assert tuple(acc) not in (zero, form)

    def test_sampled_mode(self):
        report = check_homogenization_condition(2, 2, max_tuples=500, seed=3)
        assert not report.exhaustive
        assert report.n_checked == 500
        assert report.passed

    def test_sampled_mode_without_draws(self):
        report = check_homogenization_condition(2, 1, max_tuples=0)
        assert not report.exhaustive and report.rows == () and report.passed


class TestCorrespondence:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1)])
    def test_breakpoint_exact(self, n, m):
        report = verify_qubit_bosonic_correspondence(n, m)
        assert report.passed
        assert report.n_checked == len(gamma_set(m))

    def test_unchanged_when_first_entry_trivial(self):
        # alpha with a_0 = (0, d): the partner index equals alpha itself
        for alpha in gamma_set(1):
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
        assert len(lines) == len(check_udd_condition(2).rows) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    def test_row_passed(self):
        # the one pass formula behind ConditionReport.passed and the CSV
        report = check_udd_condition(2, tol=1e-10)
        row = next(r for r in report.rows if r.required_zero)
        witness = next(r for r in report.rows if not r.required_zero)
        assert report.row_passed(row) and report.passed
        assert report.row_passed(dataclasses.replace(witness, value=1.0))
        for value in (1e-9, math.nan):
            broken = dataclasses.replace(
                report, rows=(dataclasses.replace(row, value=value), witness))
            assert not broken.row_passed(broken.rows[0])
            assert not broken.passed

    def test_format_labels_per_row(self):
        for report in (check_udd_condition(3), check_qubit_nudd_condition(2, 1),
                       check_homogenization_condition(2, 1)):
            expected = [
                ";".join(str(l) for l in row.labels)
                if all(isinstance(l, int) for l in row.labels)
                else ";".join("".join(f"{x}{z}" for x, z in alpha) for alpha in row.labels)
                for row in report.rows]
            assert format_labels(report) == expected
