import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonic_dd.pauli_basis import (
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
    PiecewiseSignFunction,
    PulseEntry,
    PulseSchedule,
    decoupling_schedule,
    flip_train_schedule,
    homogenization_schedule,
    nudd_pulses,
    nudd_times,
    qubit_nudd_schedule,
    read_schedule,
    substitute_bosonic,
    toggling_sign_function,
    udd_times,
    write_schedule,
)


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
        assert s.times() == pytest.approx((0.25, 0.75))
        assert all(e.pulse == FLIP for e in s.entries)
        assert s.is_flip_schedule

    def test_n1_single_pulse(self):
        assert len(decoupling_schedule(1, n_system=3)) == 1


def interval_values(sig):
    """Values of ``sig`` on the len(flips) + 1 intervals between consecutive
    flips, read at each interval's midpoint."""
    pts = [0.0, *sig.flips, 1.0]
    return tuple(sig.value((a + b) / 2) for a, b in zip(pts, pts[1:]))


class TestSigma:
    def test_n1_values(self):
        sig = toggling_sign_function(decoupling_schedule(1, 1), 1)
        assert sig.flips == pytest.approx((0.5,))
        assert sig.value(0.0) == 1
        assert sig.value(sig.flips[0]) == 1   # left-open right-closed: (0, 1/2] is +1
        assert sig.value(0.75) == -1

    def test_n2_interval_values(self):
        sig = toggling_sign_function(decoupling_schedule(2, 1), 1)
        assert interval_values(sig) == (1, -1, 1)

    def test_n1_integral_is_zero(self):
        sig = toggling_sign_function(decoupling_schedule(1, 1), 1)
        pts = [0.0] + list(sig.flips) + [1.0]
        vals = interval_values(sig)
        total = sum(v * (b - a) for v, a, b in zip(vals, pts, pts[1:]))
        assert total == pytest.approx(0.0, abs=1e-15)

    def test_rejects_indexed_schedule(self):
        with pytest.raises(ValueError):
            toggling_sign_function(qubit_nudd_schedule(1, 0), 1)


class TestPiecewiseSignFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseSignFunction((0.0,))
        with pytest.raises(ValueError):
            PiecewiseSignFunction((0.5, 0.5))
        with pytest.raises(ValueError):
            PiecewiseSignFunction((1.0,))

    def test_constant(self):
        f = PiecewiseSignFunction(())
        assert f.value(0.0) == f.value(1.0) == 1


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
                assert sched.times() == tuple(map(times.get, order))
                assert [e.pulse for e in sched.entries] == list(map(pulses.get, order))
            n += 1


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


class TestSubstitution:
    def test_replacement_rules(self):
        qubit = qubit_nudd_schedule(2, 1)
        bosonic = substitute_bosonic(qubit)
        # (sigma_z)_0 pulses vanish entirely
        z0 = (PAIR_Z, PAIR_I)
        dropped = {e.delta for e in qubit.entries if e.pulse == z0}
        assert dropped.isdisjoint({e.delta for e in bosonic.entries})
        # (sigma_x)_0 pulses turn into the all-mode y rotation
        x0 = (PAIR_X, PAIR_I)
        y0 = (PAIR_Y, PAIR_I)
        for e in qubit.entries:
            if e.pulse == x0:
                match = [b for b in bosonic.entries if b.delta == e.delta]
                assert match and match[0].pulse == y0

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)])
    def test_pulse_count(self, n, m):
        bosonic = homogenization_schedule(n, m)
        assert len(bosonic) == (n + 1) ** (2 * m + 1)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_pulses_in_gamma_tilde_and_product_identity(self, n, m):
        bosonic = homogenization_schedule(n, m)
        allowed = set(gamma_tilde_set(m))
        P = np.eye(2 ** (m + 1))
        for e in bosonic.entries:
            assert e.pulse in allowed
            P = (e.sign * s_matrix(e.pulse)) @ P
        assert (np.abs(P - np.eye(2 ** (m + 1))).max() < 1e-12
                or np.abs(P + np.eye(2 ** (m + 1))).max() < 1e-12)

    def test_final_slot_retained(self):
        bosonic = homogenization_schedule(2, 1)
        assert bosonic.entries[-1].delta == 1.0
        assert bosonic.entries[-1].pulse == (PAIR_I, PAIR_I)


class TestTogglingSignFunction:
    def test_zero_index_constant(self):
        sched = qubit_nudd_schedule(1, 1)
        f = toggling_sign_function(sched, (PAIR_I, PAIR_I))
        assert f.flips == ()

    def test_flip_schedule_matches_sigma(self):
        sched = decoupling_schedule(3, 1)
        assert toggling_sign_function(sched, 1) == PiecewiseSignFunction(sched.times())
        assert toggling_sign_function(sched, 0).flips == ()

    def test_form_index_constant_iff_pulses_commute(self):
        # every homogenization pulse commutes with J, so F is constant
        sched = homogenization_schedule(1, 1)
        alpha = symplectic_form_index(1)
        assert all(symplectic_inner_product(alpha, e.pulse) == 0
                   for e in sched.entries)
        assert toggling_sign_function(sched, alpha).flips == ()

    def test_first_value_plus_one(self):
        sched = homogenization_schedule(2, 1)
        for alpha in gamma_tilde_set(1):
            f = toggling_sign_function(sched, alpha)
            assert f.value(0.0) == 1
            assert set(interval_values(f)) <= {-1, 1}


class TestScheduleEntries:
    @pytest.mark.parametrize("m, pulse, message", [
        (1, ((1, 1),), "entry 1: pulse .* is not m\\+1 = 2 pairs"),
        (0, ((1, 1), (0, 0)), "entry 1: pulse .* is not m\\+1 = 1 pairs"),
        (0, ((1, 2),), "entry 1: pulse .*bits in"),
        (0, ((1, 1, 0),), "entry 1: pulse .*bits in"),
        (0, ((-1, 0),), "entry 1: pulse .*bits in"),
        (0, (1,), "entry 1: pulse .*bits in"),
        (0, [(1, 1)], "entry 1: pulse .*bits in"),
        (0, FLIP, "entry 1: pulse 1 is not"),
    ])
    def test_malformed_indexed_pulse_rejected(self, m, pulse, message):
        good = PulseEntry(0.25, (PAIR_Y,) * (m + 1))
        with pytest.raises(ValueError, match=message):
            PulseSchedule(scheme="x", order=1, entries=(good, PulseEntry(0.5, pulse)), m=m)

    @pytest.mark.parametrize("pulse", [0, 2, (PAIR_Y,)])
    def test_flip_schedule_holds_only_flips(self, pulse):
        entries = (PulseEntry(0.25, FLIP), PulseEntry(0.5, pulse))
        with pytest.raises(ValueError, match="entry 1: flip schedule pulse"):
            PulseSchedule(scheme="x", order=1, entries=entries, n_system=1)

    @pytest.mark.parametrize("sign", [0, 2, -2, 0.5])
    @pytest.mark.parametrize("m, pulse", [(None, FLIP), (0, (PAIR_Y,))])
    def test_sign_must_be_plus_or_minus_one(self, sign, m, pulse):
        entries = (PulseEntry(0.25, pulse), PulseEntry(0.5, pulse, sign))
        with pytest.raises(ValueError, match="entry 1: sign"):
            PulseSchedule(scheme="x", order=1, entries=entries, m=m)

    def test_wrong_pair_count_fails_at_construction(self):
        # formerly accepted, failing later inside `arrays` with a reshape error
        with pytest.raises(ValueError, match="entry 0: pulse"):
            PulseSchedule(scheme="x", order=1, entries=(PulseEntry(0.5, ((1, 1),)),), m=1)


class TestMerging:
    def test_coincident_flips_cancel(self):
        s = flip_train_schedule([0.3, 0.3, 0.7], n_system=1)
        assert s.times() == pytest.approx((0.7,))

    def test_coincident_indexed_pulses_compose(self):
        e1 = PulseEntry(0.5, (PAIR_X,))
        e2 = PulseEntry(0.5, (PAIR_Z,))
        from bosonic_dd.schedules import _merge_entries
        merged = _merge_entries([e1, e2], flip_alphabet=False)
        assert len(merged) == 1
        idx, sign = merged[0].pulse, merged[0].sign
        dense = s_matrix((PAIR_Z,)) @ s_matrix((PAIR_X,))
        assert np.array_equal(dense, sign * s_matrix(idx))


SCHEMES = {
    "decoupling": lambda N, k: decoupling_schedule(N, k + 1),
    "qubit-nudd": qubit_nudd_schedule,
    "homogenization": homogenization_schedule,
}


def roundtrip(sched):
    buf = io.StringIO()
    write_schedule(sched, buf)
    buf.seek(0)
    return read_schedule(buf)


class TestScheduleFile:
    @settings(max_examples=30, deadline=None)
    @given(scheme=st.sampled_from(sorted(SCHEMES)), order=st.integers(1, 3),
           k=st.integers(0, 2))
    def test_roundtrip_property(self, scheme, order, k):
        # k is nS - 1 for decoupling and m for the indexed schemes
        sched = SCHEMES[scheme](order, k)
        back = roundtrip(sched)
        assert (back.scheme, back.order, back.m, back.n_system) == \
            (sched.scheme, sched.order, sched.m, sched.n_system)
        assert back.entries == sched.entries
        assert roundtrip(back) == back

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
    ])
    def test_malformed_line_named(self, body, message):
        with pytest.raises(ValueError, match=message):
            read_schedule(io.StringIO(body))

    @pytest.mark.parametrize("n_system", [0, -3])
    def test_nonpositive_mode_count(self, n_system):
        body = f"#scheme decoupling\n#N 1\n#m -\n#nS {n_system}\n0.5\t1\n"
        with pytest.raises(ValueError, match=f"n_system must be >= 1, got {n_system}"):
            read_schedule(io.StringIO(body))

    def test_roundtrip(self):
        for sched in (decoupling_schedule(3, 2), qubit_nudd_schedule(1, 1),
                      homogenization_schedule(2, 1)):
            buf = io.StringIO()
            write_schedule(sched, buf)
            buf.seek(0)
            back = read_schedule(buf)
            assert back.scheme == sched.scheme
            assert back.order == sched.order
            assert back.m == sched.m
            assert back.entries == sched.entries

    def test_negative_sign_roundtrip(self):
        sched = PulseSchedule(scheme="bosonic-homogenization", order=1,
                              entries=(PulseEntry(0.3, (PAIR_Y, PAIR_I), -1),
                                       PulseEntry(0.7, (PAIR_Y, PAIR_Z), 1)),
                              m=1, n_system=2)
        buf = io.StringIO()
        write_schedule(sched, buf)
        assert "\t-1100\n" in buf.getvalue()
        buf.seek(0)
        assert read_schedule(buf).entries == sched.entries

    def test_format_details(self):
        buf = io.StringIO()
        write_schedule(decoupling_schedule(2, 1), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "#scheme decoupling"
        assert lines[1] == "#N 2"
        assert lines[2] == "#m -"
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == 2
        delta, bits = body[0].split("\t")
        assert bits == "1"
        assert float(delta) == pytest.approx(0.25)
