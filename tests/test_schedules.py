import dataclasses
import functools
import io
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from bosonic_dd import cli, schedules
from bosonic_dd.pauli_basis import (
    MAX_M,
    PAIR_I,
    PAIR_X,
    PAIR_Y,
    PAIR_Z,
    gamma_tilde_set,
    s_matrix,
    symplectic_form_index,
    symplectic_inner_product,
)
from bosonic_dd.schedules import (
    FLIP,
    MERGE_TOL,
    NUDD_LABEL_GUARD,
    PulseSchedule,
    decoupling_schedule,
    flip_train_schedule,
    homogenization_schedule,
    qubit_nudd_schedule,
    read_schedule,
    substitute_bosonic,
    toggling_sign_function,
    udd_times,
    write_schedule,
)

from oracles import (
    as_index,
    label_nudd_schedule,
    nudd_labels,
    pairing_mask,
    sign_value,
    signed_closed_schedule,
)


def nudd_times(n, m):
    """Pulse fraction for every label in {0..N}^{2m+2}, in label order."""
    labels, times, _, _ = nudd_labels(n, m)
    return dict(zip(map(tuple, labels.tolist()), times.tolist()))


def nudd_pulses(n, m):
    """Pulse index for every label, in label order."""
    labels, _, level, table = nudd_labels(n, m)
    return dict(zip(map(tuple, labels.tolist()), (as_index(table[r]) for r in level)))


class TestUddTimes:
    def test_n1(self):
        assert udd_times(1) == pytest.approx((0.5,))

    def test_n2(self):
        # sin^2(pi/6) = 1/4, sin^2(pi/3) = 3/4
        assert udd_times(2) == pytest.approx((0.25, 0.75))

    def test_n3(self):
        t = udd_times(3)
        assert t == pytest.approx((0.14644660940672624, 0.5, 0.8535533905932737))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_symmetry_and_monotone(self, n):
        t = udd_times(n)
        assert all(b > a for a, b in zip(t, t[1:]))
        for j in range(n):
            assert t[j] + t[n - 1 - j] == pytest.approx(1.0, abs=1e-14)

    def test_invalid(self):
        with pytest.raises(ValueError):
            udd_times(0)


class TestDecouplingSchedule:
    def test_n2(self):
        s = decoupling_schedule(2, n_system=1)
        assert tuple(s.deltas) == pytest.approx((0.25, 0.75))
        assert s.pulses is None and s.signs.tolist() == [1, 1]
        assert s.is_flip_schedule

    def test_n1_single_pulse(self):
        assert len(decoupling_schedule(1, n_system=3)) == 1

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sigma_flips_at_the_uhrig_times_bitwise(self, n):
        # the udd condition check walks this mask
        assert flip_times(decoupling_schedule(n, n_system=1), 1) == udd_times(n)


def flip_times(schedule, alpha):
    """The flip times of F_alpha on ``schedule``."""
    return tuple(schedule.deltas[toggling_sign_function(schedule, alpha)].tolist())


def interval_values(flips):
    """Values of the sign function on the len(flips) + 1 intervals between
    consecutive flips, read at each interval's midpoint."""
    pts = [0.0, *flips, 1.0]
    return tuple(sign_value(flips, (a + b) / 2) for a, b in zip(pts, pts[1:]))


class TestSigma:
    def test_n1_values(self):
        sig = flip_times(decoupling_schedule(1, 1), 1)
        assert sig == pytest.approx((0.5,))
        assert sign_value(sig, 0.0) == 1
        assert sign_value(sig, sig[0]) == 1   # left-open right-closed: (0, 1/2] is +1
        assert sign_value(sig, 0.75) == -1

    def test_n2_interval_values(self):
        sig = flip_times(decoupling_schedule(2, 1), 1)
        assert interval_values(sig) == (1, -1, 1)

    def test_n1_integral_is_zero(self):
        sig = flip_times(decoupling_schedule(1, 1), 1)
        pts = [0.0] + list(sig) + [1.0]
        vals = interval_values(sig)
        total = sum(v * (b - a) for v, a, b in zip(vals, pts, pts[1:]))
        assert total == pytest.approx(0.0, abs=1e-15)

    def test_rejects_indexed_schedule(self):
        with pytest.raises(ValueError):
            toggling_sign_function(qubit_nudd_schedule(1, 0), 1)


def oracle_nested_time(label, grid):
    """The nesting recursion for one label, innermost entry first."""
    d = grid[label[0]]
    for lk in label[1:]:
        d = grid[lk] + (grid[lk + 1] - grid[lk]) * d
    return d


def oracle_nudd(n, m):
    """Per-label reference for nudd_times and nudd_pulses.

    The all-zero label maps to 1; a label whose first nonzero entry sits at
    r >= 1 is evaluated through the shifted label with entries (r-1, r)
    replaced by (N+1, l_r - 1).  The level r picks the pulse: z at even
    levels, x at odd ones, and for odd N every lower y factor joins in.
    """
    grid = [math.sin(j * math.pi / (2 * (n + 1))) ** 2 for j in range(n + 1)]
    grid += [1.0, 1.0]
    odd = n % 2 == 1
    times, pulses = {}, {}
    for label in itertools.product(range(n + 1), repeat=2 * m + 2):
        idx = [PAIR_I] * (m + 1)
        if not any(label):
            times[label] = 1.0
            if odd:
                idx = [PAIR_Y] * (m + 1)
        else:
            r = next(i for i, l in enumerate(label) if l != 0)
            shifted = list(label)
            if r > 0:
                shifted[r - 1] = n + 1
                shifted[r] = label[r] - 1
            times[label] = oracle_nested_time(shifted, grid)
            k, x_slot = divmod(r, 2)
            if x_slot:
                if odd:
                    for j in range(k + 1):
                        idx[j] = PAIR_Y
                else:
                    idx[k] = PAIR_X
            else:
                idx[k] = PAIR_Z
                if odd:
                    for j in range(k):
                        idx[j] = PAIR_Y
        pulses[label] = tuple(idx)
    return times, pulses


class TestNestedAgainstOracle:
    @pytest.mark.parametrize("m", range(6))
    def test_exact_for_every_size_up_to_1e4_labels(self, m):
        n = 1
        while (n + 1) ** (2 * m + 2) <= 10 ** 4:
            times, pulses = oracle_nudd(n, m)
            # exact equality, in label order
            assert list(nudd_times(n, m).items()) == list(times.items())
            assert list(nudd_pulses(n, m).items()) == list(pulses.items())
            if n <= 9:  # the time order; all of m >= 1, the start of m = 0
                order = sorted(times, key=times.get)
                sched = qubit_nudd_schedule(n, m)
                assert tuple(sched.deltas.tolist()) == tuple(map(times.get, order))
                assert list(map(as_index, sched.pulses)) == list(map(pulses.get, order))
            n += 1


def admitted_sizes(m, most=NUDD_LABEL_GUARD):
    """Every N that NUDD_LABEL_GUARD admits at ``m`` with at most ``most`` pulses."""
    return list(itertools.takewhile(lambda n: (n + 1) ** (2 * m + 2) <= most,
                                    itertools.count(1)))


PAPER_SIZES = [(4, 3), (2, 4), (1, 8), (9, 2)]


def built_fresh(builder, n, m):
    """builder(n, m) from a nest built for it alone, so that a sweep over
    sizes keeps none of them."""
    try:
        return builder(n, m)
    finally:
        schedules._nest.cache_clear()


def build_uncached(n, m):
    """A fresh nested schedule, so that a sweep over sizes keeps none of them."""
    return built_fresh(qubit_nudd_schedule.__wrapped__, n, m)


def assert_substituted(n, m):
    """The homogenization schedule is bitwise the substituted qubit schedule;
    past MAX_M the homogenization builder refuses the size."""
    if m > MAX_M:
        with pytest.raises(ValueError, match="exhaustive-enumeration guard"):
            built_fresh(homogenization_schedule, n, m)
        return
    assert_same(built_fresh(homogenization_schedule, n, m),
                substitute_bosonic(build_uncached(n, m)))


class TestNestedBuilderAgainstLabels:
    @pytest.mark.parametrize("m", range(8))
    def test_bitwise_for_every_size_up_to_1e5_pulses(self, m):
        sizes = admitted_sizes(m, most=10 ** 5)
        for n in sizes:
            assert_same(build_uncached(n, m), label_nudd_schedule(n, m))
        assert sizes

    @pytest.mark.parametrize("n,m", PAPER_SIZES)
    def test_bitwise_at_paper_sizes(self, n, m):
        assert_same(build_uncached(n, m), label_nudd_schedule(n, m))

    @pytest.mark.parametrize("m", range(8))
    def test_homogenization_is_the_substituted_schedule_up_to_1e5_pulses(self, m):
        sizes = admitted_sizes(m, most=10 ** 5)
        for n in sizes:
            assert_substituted(n, m)
        assert sizes

    @pytest.mark.parametrize("n,m", PAPER_SIZES)
    def test_homogenization_is_the_substituted_schedule_at_paper_sizes(self, n, m):
        assert_substituted(n, m)

    @given(st.sampled_from([(n, m) for m in range(1, 9) for n in admitted_sizes(m)]))
    @example((4, 3))
    @example((2, 4))
    @example((1, 8))
    @example((9, 2))
    @settings(max_examples=20, deadline=None)
    def test_first_interval_nests_the_schedule_one_qubit_down(self, size):
        # the first interval of level 2m+1, and within it the first of level
        # 2m, hold the whole (N, m-1) schedule scaled twice by delta_1; its
        # pulses gain an identity pair at position m, and its closing pulse
        # is level 2m's pulse instead: z_m, times y_0..y_{m-1} for odd N.
        # The first interval of level 2m+1 closes with x_m, or y_0..y_m for odd N
        n, m = size
        outer, inner = build_uncached(n, m), build_uncached(n, m - 1)
        d1, block = udd_times(n)[0], (n + 1) ** (2 * m)
        assert outer.deltas[:block].tobytes() == (d1 * (d1 * inner.deltas)).tobytes()
        padded = np.concatenate([inner.pulses, np.zeros((block, 1, 2), dtype=int)], axis=1)
        assert np.array_equal(outer.pulses[:block - 1], padded[:-1])
        odd = n % 2 == 1
        z_m = (PAIR_Y if odd else PAIR_I,) * m + (PAIR_Z,)
        x_m = (PAIR_Y,) * (m + 1) if odd else (PAIR_I,) * m + (PAIR_X,)
        assert as_index(outer.pulses[block - 1]) == z_m
        assert as_index(outer.pulses[(n + 1) * block - 1]) == x_m


class TestNestedTimes:
    def test_two_level_hand_values(self):
        # N=1, m=0: outer x-level splits at 1/2, inner z-level at the
        # rescaled Uhrig point of each outer interval
        times = nudd_times(1, 0)
        assert times[(1, 0)] == pytest.approx(0.25)
        assert times[(0, 1)] == pytest.approx(0.5)
        assert times[(1, 1)] == pytest.approx(0.75)
        assert times[(0, 0)] == 1.0

    def test_label_count(self):
        for n, m in [(1, 0), (2, 0), (1, 1), (2, 1)]:
            assert len(nudd_times(n, m)) == (n + 1) ** (2 * m + 2)

    def test_all_distinct_n2_m1(self):
        vals = sorted(nudd_times(2, 1).values())
        assert all(b - a > 1e-9 for a, b in zip(vals, vals[1:]))

    def test_range(self):
        assert all(0.0 < t <= 1.0 for t in nudd_times(2, 1).values())

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            nudd_times(9, 3)


class TestNestedPulses:
    def test_even_n_table(self):
        pulses = nudd_pulses(2, 0)
        assert pulses[(1, 0)] == (PAIR_Z,)
        assert pulses[(2, 2)] == (PAIR_Z,)
        assert pulses[(0, 1)] == (PAIR_X,)
        assert pulses[(0, 0)] == (PAIR_I,)

    def test_odd_n_replacements(self):
        pulses = nudd_pulses(1, 0)
        assert pulses[(0, 0)] == (PAIR_Y,)       # id -> product of all y
        assert pulses[(1, 0)] == (PAIR_Z,)
        assert pulses[(0, 1)] == (PAIR_Y,)       # x_0 -> y_0
        pulses_m1 = nudd_pulses(1, 1)
        assert pulses_m1[(0, 0, 1, 0)] == (PAIR_Y, PAIR_Z)   # z_1 carries y_0
        assert pulses_m1[(0, 0, 0, 1)] == (PAIR_Y, PAIR_Y)   # x_1 -> y_0 y_1
        assert pulses_m1[(0, 0, 0, 0)] == (PAIR_Y, PAIR_Y)

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2)])
    def test_scalar_product_formula(self, n, m):
        # ground truth: after the pulse with label lam, the accumulated flip
        # parity of every alpha equals the scalar product alpha . lam, with
        # the pairing (x-bit, z-bit of position k) <-> (level 2k, 2k+1)
        times = nudd_times(n, m)
        pulses = nudd_pulses(n, m)
        order = sorted(times, key=lambda lab: times[lab])
        from bosonic_dd.pauli_basis import ALL_PAIRS
        for alpha in itertools.product(ALL_PAIRS, repeat=m + 1):
            acc = 0
            for lab in order:
                acc = (acc + symplectic_inner_product(alpha, pulses[lab])) % 2
                dot = sum(a[0] * lab[2 * k] + a[1] * lab[2 * k + 1]
                          for k, a in enumerate(alpha)) % 2
                assert acc == dot


class TestNestedBuilderCached:
    def test_built_once_and_read_only(self):
        # one schedule per (N, m) and process, shared: its columns refuse writes
        sched = qubit_nudd_schedule(3, 1)
        assert qubit_nudd_schedule(3, 1) is sched and qubit_nudd_schedule(2, 1) is not sched
        for column in (sched.deltas, sched.pulses, sched.signs):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[0]

    def test_nest_is_read_only(self):
        times, level, table = schedules._nest(3, 1)
        assert level.dtype == np.int8 and len(times) == len(level) == 4 ** 4
        assert len(table) == 2 * 1 + 3
        for array in (times, level, table):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_verify_builds_the_nest_once(self, monkeypatch, tmp_path):
        # the homogenization check and the correspondence check (qubit and
        # bosonic schedules) share one nest
        calls = []

        def counted(n, m):
            calls.append((n, m))
            return nest(n, m)

        nest = schedules._nest.__wrapped__
        monkeypatch.setattr(schedules, "_nest", functools.cache(counted))
        qubit_nudd_schedule.cache_clear()
        try:
            assert cli.main(["verify", "--check", "homogenization", "--check", "correspondence",
                             "--N", "3", "--m", "1", "--out", str(tmp_path / "v.csv")]) == 0
        finally:
            qubit_nudd_schedule.cache_clear()
        assert calls == [(3, 1)]


class TestSubstitution:
    def test_replacement_rules(self):
        qubit = qubit_nudd_schedule(2, 1)
        bosonic = substitute_bosonic(qubit)
        # (sigma_z)_0 pulses vanish entirely
        z0 = (PAIR_Z, PAIR_I)
        dropped = {t for t, p in zip(qubit.deltas, qubit.pulses) if as_index(p) == z0}
        assert dropped.isdisjoint(bosonic.deltas.tolist())
        # (sigma_x)_0 pulses turn into the all-mode y rotation
        x0 = (PAIR_X, PAIR_I)
        y0 = (PAIR_Y, PAIR_I)
        for t, p in zip(qubit.deltas, qubit.pulses):
            if as_index(p) == x0:
                match = np.flatnonzero(bosonic.deltas == t)
                assert len(match) and as_index(bosonic.pulses[match[0]]) == y0

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_pulse_count(self, n, m):
        bosonic = homogenization_schedule(n, m)
        assert len(bosonic) == (n + 1) ** (2 * m + 1)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_pulses_in_gamma_tilde_and_product_identity(self, n, m):
        bosonic = homogenization_schedule(n, m)
        allowed = set(map(as_index, gamma_tilde_set(m)))
        P = np.eye(2 ** (m + 1))
        for sign, alpha in zip(bosonic.signs, bosonic.pulses):
            assert as_index(alpha) in allowed
            P = (sign * s_matrix(alpha)) @ P
        assert (np.abs(P - np.eye(2 ** (m + 1))).max() < 1e-12
                or np.abs(P + np.eye(2 ** (m + 1))).max() < 1e-12)

    def test_final_slot_retained(self):
        bosonic = homogenization_schedule(2, 1)
        assert bosonic.deltas[-1] == 1.0
        assert as_index(bosonic.pulses[-1]) == (PAIR_I, PAIR_I)


class TestTogglingSignFunction:
    def test_zero_index_constant(self):
        sched = qubit_nudd_schedule(1, 1)
        f = toggling_sign_function(sched, (PAIR_I, PAIR_I))
        assert f.shape == (len(sched),) and not f.any()

    def test_flip_schedule_matches_sigma(self):
        sched = decoupling_schedule(3, 1)
        assert flip_times(sched, 1) == tuple(sched.deltas.tolist())
        assert flip_times(sched, 0) == ()

    def test_form_index_constant_iff_pulses_commute(self):
        # every homogenization pulse commutes with J, so F is constant
        sched = homogenization_schedule(1, 1)
        alpha = symplectic_form_index(1)
        assert all(symplectic_inner_product(alpha, as_index(p)) == 0
                   for p in sched.pulses)
        assert flip_times(sched, alpha) == ()

    def test_first_value_plus_one(self):
        sched = homogenization_schedule(2, 1)
        for alpha in gamma_tilde_set(1):
            f = flip_times(sched, alpha)
            assert sign_value(f, 0.0) == 1
            assert set(interval_values(f)) <= {-1, 1}

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4), st.integers(1, 12), st.booleans(),
           hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))
    @settings(max_examples=60, deadline=None)
    def test_indexed_stack_equals_per_index_calls_and_pairing_loop(
            self, seed, m, n_pulses, final_at_one, stack_shape):
        sched = signed_closed_schedule(seed, m, n_pulses)
        if final_at_one:  # a pulse at delta = 1 never flips, whatever its pairing
            sched = dataclasses.replace(sched, deltas=np.append(sched.deltas[:-1], 1.0))
        alpha = np.random.default_rng(seed).integers(0, 2, stack_shape + (m + 1, 2))
        masks = toggling_sign_function(sched, alpha)
        assert masks.shape == stack_shape + (len(sched),) and masks.dtype == bool
        assert np.array_equal(masks, pairing_mask(sched, alpha))
        assert not (final_at_one and masks[..., -1].any())
        for index in np.ndindex(stack_shape):
            a = alpha[index].tolist()
            assert masks[index].tolist() == toggling_sign_function(sched, alpha[index]).tolist()
            assert masks[index].tolist() == [
                sum(x * pz + z * px for (x, z), (px, pz) in zip(a, pulse)) % 2 == 1
                and delta < 1.0
                for delta, pulse in zip(sched.deltas.tolist(), sched.pulses.tolist())]

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8), st.booleans(),
           st.sampled_from([(), (2,), (2, 2)]), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flip_bits_equal_per_bit_calls_and_pulse_loop(self, deltas, final_at_one,
                                                          stack_shape, seed):
        sched = flip_train_schedule(deltas + [1.0] * final_at_one, n_system=1)
        bits = np.random.default_rng(seed).integers(0, 2, stack_shape)
        masks = toggling_sign_function(sched, bits)
        assert masks.shape == stack_shape + (len(sched),) and masks.dtype == bool
        for index in np.ndindex(stack_shape):
            bit = int(bits[index])
            assert masks[index].tolist() == toggling_sign_function(sched, bit).tolist()
            assert masks[index].tolist() == [bit == 1 and delta < 1.0
                                              for delta in sched.deltas.tolist()]

    @pytest.mark.parametrize("bits", [2, -1, (0, 2), ((0, 1), (1, 3))])
    def test_flip_schedule_rejects_bits_outside_z2(self, bits):
        with pytest.raises(ValueError, match="Z2 bits, 0 or 1"):
            toggling_sign_function(decoupling_schedule(2, 1), bits)


def indexed(deltas, stack, signs=None, m=0):
    """An indexed schedule from plain columns."""
    return PulseSchedule(scheme="x", order=1, deltas=deltas, pulses=stack,
                         signs=[1] * len(deltas) if signs is None else signs, m=m)


class TestScheduleEntries:
    @pytest.mark.parametrize("m, pulse, message", [
        (1, ((1, 1),), "entry 1: pulse .* is not m\\+1 = 2 pairs"),
        (0, ((1, 1), (0, 0)), "entry 1: pulse .* is not m\\+1 = 1 pairs"),
        (0, ((1, 2),), "entry 1: pulse .*bits in"),
        (0, ((1, 1, 0),), "entry 1: pulse .*bits in"),
        (0, ((-1, 0),), "entry 1: pulse .*bits in"),
        (0, (1,), "entry 1: pulse .*bits in"),
        (0, FLIP, "entry 1: pulse 1 is not"),
    ])
    def test_malformed_indexed_pulse_rejected(self, m, pulse, message):
        # a stack whose entry 1 has the wrong shape or a bit outside {0, 1}
        with pytest.raises(ValueError, match=message):
            indexed([0.25, 0.5], [(PAIR_Y,) * (m + 1), pulse], m=m)

    @pytest.mark.parametrize("pulse", [0, 2, (PAIR_Y,)])
    def test_flip_schedule_holds_only_flips(self, pulse):
        # a flip schedule's pulses are all -I, so it takes no pulse stack
        with pytest.raises(ValueError, match="pulse stack iff m is set"):
            PulseSchedule(scheme="x", order=1, deltas=[0.25, 0.5], pulses=[FLIP, pulse],
                          signs=[1, 1], n_system=1)

    def test_indexed_schedule_needs_a_stack(self):
        with pytest.raises(ValueError, match="pulse stack iff m is set"):
            indexed([0.5], None)

    @pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
    @pytest.mark.parametrize("m, pulse", [(None, FLIP), (0, (PAIR_Y,))])
    def test_sign_must_be_plus_or_minus_one(self, sign, m, pulse):
        stack = None if m is None else [pulse, pulse]
        with pytest.raises(ValueError, match="entry 1: sign"):
            PulseSchedule(scheme="x", order=1, deltas=[0.25, 0.5], pulses=stack,
                          signs=[1, sign], m=m)

    def test_flip_schedule_signs_are_plus_one(self):
        # the file format and the walk read a flip as -I, whatever its sign
        with pytest.raises(ValueError, match="entry 1: sign -1 is not \\+1 on a flip schedule"):
            PulseSchedule(scheme="x", order=1, deltas=[0.25, 0.5], pulses=None, signs=[1, -1])

    def test_wrong_pair_count_fails_at_construction(self):
        # formerly accepted, failing later inside the walk with a reshape error
        with pytest.raises(ValueError, match="entry 0: pulse"):
            indexed([0.5], [((1, 1),)], m=1)

    @pytest.mark.parametrize("m, shape, message", [
        (1, (2, 1, 2), "entry 0: pulse .* is not m\\+1 = 2 pairs"),
        (0, (2, 1, 3), "entry 0: pulse .* is not m\\+1 = 1 pairs"),
        (0, (2, 2), "entry 0: pulse .* is not m\\+1 = 1 pairs"),
        (0, (3, 1, 2), "one sign and one pulse per time"),
    ])
    def test_stack_shape_is_entries_by_pairs(self, m, shape, message):
        with pytest.raises(ValueError, match=message):
            indexed([0.25, 0.5], np.ones(shape, dtype=int), m=m)

    @pytest.mark.parametrize("deltas, message", [
        ([0.25, 1.5], "entry 1: pulse time 1.5 outside"),
        ([0.0, 0.5], "entry 0: pulse time 0.0 outside"),
        ([0.25, float("nan")], "entry 1: pulse time nan outside"),
        ([0.5, 0.5], "entry 1: pulse times must be strictly increasing"),
        ([0.5, 0.25], "entry 1: pulse times must be strictly increasing"),
    ])
    def test_times_strictly_increasing_in_unit_interval(self, deltas, message):
        with pytest.raises(ValueError, match=message):
            indexed(deltas, [[PAIR_Y], [PAIR_Y]])

    def test_first_bad_entry_named(self):
        # entry 1 has a bad sign, entry 2 a repeated time and a bad bit
        with pytest.raises(ValueError, match="entry 1: sign 0"):
            indexed([0.25, 0.5, 0.5], [[PAIR_Y], [PAIR_Y], [(2, 0)]], signs=[1, 0, 1])

    def test_one_sign_per_time(self):
        with pytest.raises(ValueError, match="one sign and one pulse per time"):
            indexed([0.25, 0.5], [[PAIR_Y], [PAIR_Y]], signs=[1])

    def test_columns_are_read_only_copies(self):
        deltas, signs = np.array([0.25, 0.5]), np.array([1, -1])
        stack = np.array([[PAIR_Y], [PAIR_Z]])
        s = indexed(deltas, stack, signs)
        deltas[0], stack[0, 0, 0], signs[0] = 0.1, 0, -1
        assert (s.deltas[0], as_index(s.pulses[0]), s.signs[0]) == (0.25, (PAIR_Y,), 1)
        # a builder's stack cannot be edited behind its sign functions' back
        sched = homogenization_schedule(2, 1)
        with pytest.raises(ValueError, match="read-only"):
            sched.pulses[0, 1, 0] ^= 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            sched.pulses = sched.pulses.copy()


class TestMerging:
    def test_coincident_flips_cancel(self):
        # a run of coincident flips composes to one flip if odd, none if even
        for copies, expected in [(1, (0.3, 0.7)), (2, (0.7,)), (3, (0.3, 0.7)), (4, (0.7,))]:
            s = flip_train_schedule([0.3] * copies + [0.7], n_system=1)
            assert tuple(s.deltas) == pytest.approx(expected)

    def test_run_within_merge_tol_composes(self):
        # gaps of 0.6 MERGE_TOL chain three flips into one run, kept at its last time
        run = [0.3 + k * 0.6 * MERGE_TOL for k in range(3)]
        s = flip_train_schedule([0.7, *run], n_system=1)
        assert s.deltas.tolist() == [run[-1], 0.7]

    @pytest.mark.parametrize("m", range(8))
    def test_nested_times_never_merge(self, m):
        # the nested builder has no merge step: at every size the guard
        # admits with at most 10^5 labels, the sorted label times (the
        # schedule's deltas) stay more than MERGE_TOL apart
        n = 1
        while (n + 1) ** (2 * m + 2) <= min(10 ** 5, NUDD_LABEL_GUARD):
            assert np.diff(np.sort(nudd_labels(n, m)[1])).min() > MERGE_TOL
            n += 1
        assert n > 1


SCHEMES = {
    "decoupling": lambda N, k: decoupling_schedule(N, k + 1),
    "qubit-nudd": qubit_nudd_schedule,
    "homogenization": homogenization_schedule,
}


def text(sched):
    buf = io.StringIO()
    write_schedule(sched, buf)
    return buf.getvalue()


def roundtrip(sched):
    return read_schedule(io.StringIO(text(sched)))


def assert_same(a, b):
    """Same header fields and bitwise-equal columns."""
    assert (a.scheme, a.order, a.m, a.n_system) == (b.scheme, b.order, b.m, b.n_system)
    assert (a.pulses is None) == (b.pulses is None)
    for x, y in zip((a.deltas, a.pulses, a.signs), (b.deltas, b.pulses, b.signs)):
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


@st.composite
def random_schedules(draw, min_size=0):
    """Strictly increasing times in (0, 1], sometimes ending at 1.0, with an
    m in {0, 1, 2} index stack and random signs, or a flip schedule."""
    times = sorted(draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                 min_size=min_size, max_size=12, unique=True)))
    if draw(st.booleans()):
        times.append(1.0)
    n = len(times)
    m = draw(st.sampled_from([None, 0, 1, 2]))
    # an indexed schedule acts on 2^m modes, a flip train on any number
    modes = st.integers(1, 8) if m is None else st.just(2 ** m)
    header = dict(order=draw(st.integers(0, 9)), n_system=draw(st.none() | modes))
    if m is None:
        return PulseSchedule(scheme="flip-train", deltas=times, pulses=None, signs=[1] * n,
                             **header)
    stack = draw(hnp.arrays(np.int64, (n, m + 1, 2), elements=st.integers(0, 1)))
    signs = draw(hnp.arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    scheme = draw(st.sampled_from(["qubit-nudd", "bosonic-homogenization"]))
    if scheme == "bosonic-homogenization":
        stack[:, 0, 1] = stack[:, 0, 0]  # a_0 in {I, y}
    return PulseSchedule(scheme=scheme, deltas=times, pulses=stack, signs=signs, m=m,
                         **header)


class TestScheduleFile:
    def test_header_key_without_value_is_skipped(self):
        written = text(decoupling_schedule(2, 1))
        body = written.replace("#nS 1\n", "#N\n#nS\n#nS 1\n")
        assert text(read_schedule(io.StringIO(body))) == written

    @settings(max_examples=30, deadline=None)
    @given(scheme=st.sampled_from(sorted(SCHEMES)), order=st.integers(1, 3),
           k=st.integers(0, 2))
    def test_roundtrip_property(self, scheme, order, k):
        # k is nS - 1 for decoupling and m for the indexed schemes
        sched = SCHEMES[scheme](order, k)
        back = roundtrip(sched)
        assert_same(back, sched)
        assert_same(roundtrip(back), back)

    @settings(max_examples=60, deadline=None)
    @given(random_schedules())
    def test_random_schedule_roundtrip(self, sched):
        back = roundtrip(sched)
        assert_same(back, sched)
        assert text(back) == text(sched)

    @settings(max_examples=60, deadline=None)
    @given(random_schedules(min_size=2), st.data())
    def test_corruption_names_its_entry(self, sched, data):
        kinds = ["time", "sign"] + ([] if sched.is_flip_schedule else ["bit", "pairs"])
        kind = data.draw(st.sampled_from(kinds))
        i = data.draw(st.integers(1 if kind == "time" else 0, len(sched) - 1))
        deltas, signs = sched.deltas.copy(), sched.signs.copy()
        pulses = None if sched.is_flip_schedule else sched.pulses.copy()
        if kind == "time":
            deltas[i], message = deltas[i - 1], "pulse times must be strictly increasing"
        elif kind == "sign":
            signs[i], message = 0, "sign 0 is not"
        elif kind == "bit":
            pulses[i, data.draw(st.integers(0, sched.m)), data.draw(st.integers(0, 1))] = 2
            message = "pulse .* pairs of bits in"
        else:  # one pair too many: every entry is malformed, so entry 0 is named
            pulses, i = np.concatenate([pulses, pulses[:, :1]], axis=1), 0
            message = f"pulse .* is not m\\+1 = {sched.m + 1} pairs"
        with pytest.raises(ValueError, match=f"^entry {i}: {message}"):
            dataclasses.replace(sched, deltas=deltas, pulses=pulses, signs=signs)

    @settings(max_examples=30, deadline=None)
    @given(random_schedules())
    def test_columns_read_only(self, sched):
        for column in (sched.deltas, sched.pulses, sched.signs):
            if column is not None:
                with pytest.raises(ValueError, match="read-only"):
                    column[...] = column

    @pytest.mark.parametrize("body,message", [
        ("#m -\n0.5\t1\n0.75 1\n", "line 3: expected <delta><TAB><bits>"),
        ("#m -\nhalf\t1\n", "line 2: could not convert"),
        ("#m -\n1.5\t1\n", "line 2: pulse time 1.5 outside"),
        ("#m -\n0.5\t2\n", "line 2: malformed flip pulse"),
        ("#m 1\n0.5\t1100\n0.6\t110\n", "line 3: malformed pulse bits"),
        ("#m 1\n0.5\t11a0\n", "line 2: malformed pulse bits"),
        ("#m 0\n0.5\t1\n", "line 2: malformed pulse bits"),
        ("#scheme bosonic-homogenization\n#m 1\n0.5\t1100\n0.6\t1000\n",
         "line 4: homogenization pulse '1000' has a_0 outside"),
        ("#N two\n", "line 1: invalid literal"),
        ("#m -\n0.5\t1\n\n0.5\t1\n", "line 4: pulse times must be strictly increasing"),
        ("#m 0\n0.5\t11\n#m 1\n0.6\t1100\n", "line 3: #m changes after the first pulse line"),
    ])
    def test_malformed_line_named(self, body, message):
        with pytest.raises(ValueError, match=message):
            read_schedule(io.StringIO(body))

    @pytest.mark.parametrize("n_system", [0, -3])
    def test_nonpositive_mode_count(self, n_system):
        body = f"#scheme decoupling\n#N 1\n#m -\n#nS {n_system}\n0.5\t1\n"
        with pytest.raises(ValueError, match=f"n_system must be >= 1, got {n_system}"):
            read_schedule(io.StringIO(body))

    @pytest.mark.parametrize("body,message", [
        ("#scheme x\n#N -3\n#m -\n0.5\t1\n", "order must be nonnegative, got -3"),
        ("#scheme x\n#N 1\n#m -1\n", "m must be nonnegative, got -1"),
        ("#scheme x\n#N 1\n#m -2\n", "m must be nonnegative, got -2"),  # no pulse width
        ("#scheme x\n#N 1\n#m -\n#nS 0\n0.5\t1\n", "n_system must be >= 1, got 0"),
        ("#scheme x\n#N 1\n#m 1\n#nS 3\n0.5\t1000\n", "n_system must be 2^m = 2, got 3"),
    ], ids=["N", "m", "m-2", "nS", "nS-not-2^m"])
    def test_rejected_header_value_named(self, body, message):
        # each header parses as an integer; only the schedule rejects its value
        with pytest.raises(ValueError, match=f"^schedule header: {re.escape(message)}$"):
            read_schedule(io.StringIO(body))

    def test_negative_order_rejected(self):
        # the order is a suppression order (#N in a file); 0 is a flip train's default
        with pytest.raises(ValueError, match="order must be nonnegative, got -3"):
            PulseSchedule(scheme="x", order=-3, deltas=[], pulses=None, signs=[])
        with pytest.raises(ValueError, match="order must be nonnegative, got -3"):
            read_schedule(io.StringIO("#scheme x\n#N -3\n#m -\n"))
        assert read_schedule(io.StringIO("#scheme x\n#N 0\n#m -\n")).order == 0

    def test_negative_m_rejected(self):
        # m = 0 is one qubit's pulses; m = -1 has no pulse width at all
        with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
            PulseSchedule(scheme="x", order=1, deltas=[], pulses=np.zeros((0, 0, 2), int),
                          signs=[], m=-1)
        with pytest.raises(ValueError, match="m must be nonnegative, got -1"):
            read_schedule(io.StringIO("#scheme x\n#N 1\n#m -1\n"))
        assert read_schedule(io.StringIO("#scheme x\n#N 1\n#m 0\n")).m == 0

    def test_roundtrip(self):
        for sched in (decoupling_schedule(3, 2), qubit_nudd_schedule(1, 1),
                      homogenization_schedule(2, 1)):
            back = roundtrip(sched)
            assert back.scheme == sched.scheme
            assert back.order == sched.order
            assert back.m == sched.m
            assert_same(back, sched)

    def test_negative_sign_roundtrip(self):
        sched = PulseSchedule(scheme="bosonic-homogenization", order=1, deltas=[0.3, 0.7],
                              pulses=[(PAIR_Y, PAIR_I), (PAIR_Y, PAIR_Z)], signs=[-1, 1],
                              m=1, n_system=2)
        assert "\t-1100\n" in text(sched)
        assert_same(roundtrip(sched), sched)

    def test_format_details(self):
        lines = text(decoupling_schedule(2, 1)).splitlines()
        assert lines[0] == "#scheme decoupling"
        assert lines[1] == "#N 2"
        assert lines[2] == "#m -"
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 2
        delta, bits = body[0].split("\t")
        assert bits == "1"
        assert float(delta) == pytest.approx(0.25)


@pytest.mark.parametrize("call, message", [
    (lambda: qubit_nudd_schedule(0, 1), "suppression order must be >= 1"),
    (lambda: qubit_nudd_schedule(1, -1), "m must be nonnegative"),
    (lambda: substitute_bosonic(decoupling_schedule(2, 1)),
     "substitution expects an indexed qubit schedule"),
    (lambda: PulseSchedule(scheme="x", order=1, deltas=[0.5], pulses=[(PAIR_X, PAIR_I)],
                           signs=[1], m=1, n_system=3), "n_system must be 2^m = 2, got 3"),
    (lambda: toggling_sign_function(qubit_nudd_schedule(1, 1), (PAIR_X, PAIR_I, PAIR_Z)),
     "multi-index length mismatch"),
    # symplectic_inner_product checks alpha's bits, naming its first bad pair
    *[(lambda alpha=alpha: toggling_sign_function(qubit_nudd_schedule(1, 1), alpha),
       f"invalid Z2xZ2 entry {entry}")
      for alpha, entry in ((((2, 0), (0, 0)), "(2, 0)"), (((0, 0), (0, -1)), "(0, -1)"),
                           (((0, 0.5), (1, 0)), "(0.0, 0.5)"),
                           ([((1, 0), (0, 1)), ((0, 1), (3, 1))], "(3, 1)"))],
], ids=["nudd-order", "nudd-m-negative", "substitute-flip-schedule", "indexed-n-system",
        "mask-index-length",
        "mask-bit-2", "mask-bit-negative", "mask-bit-half", "mask-bit-in-stack"])
def test_input_check(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
