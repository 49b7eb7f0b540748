"""Reference implementations and seeded test inputs shared by several test
modules."""

import itertools

import numpy as np

from bosonic_dd.pauli_basis import (
    ALL_PAIRS,
    PAIR_I,
    PAIR_X,
    PAIR_Y,
    PAIR_Z,
)
from bosonic_dd.schedules import PulseSchedule, _nudd_guard, udd_times
from bosonic_dd.spin_boson import _check_even


def sign_value(flips, tau):
    """Value at ``tau`` in [0, 1] of the sign function with flip times
    ``flips``: +1 flipped once per flip point strictly below ``tau``, so the
    value at a flip point still carries the pre-flip sign."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"argument {tau} outside [0, 1]")
    return -1 if sum(1 for t in flips if t < tau) % 2 else 1


def as_index(label):
    """A label as the tuples the oracles compare: a multi-index (an (m+1, 2)
    stack row, or pairs) as a tuple of (x, z) pairs, a 0-d label as its int."""
    label = np.asarray(label).tolist()
    return label if isinstance(label, int) else tuple(map(tuple, label))


def y_count(alpha):
    return sum(1 for a in alpha if tuple(a) == PAIR_Y)


def in_gamma(alpha):
    """The algebra-basis rule, one index at a time: y-count plus
    [a_0 in {x, z}] is odd."""
    leading_xz = 1 if tuple(alpha[0]) in (PAIR_X, PAIR_Z) else 0
    return (y_count(alpha) + leading_xz) % 2 == 1


def gamma_set_oracle(m):
    """Gamma(m) as tuples, enumerated one index at a time."""
    return tuple(alpha for alpha in itertools.product(ALL_PAIRS, repeat=m + 1)
                 if in_gamma(alpha))


def gamma_tilde_set_oracle(m):
    """Gamma~(m) as tuples (a_0 in {I, y}), enumerated one index at a time."""
    return tuple(alpha for alpha in itertools.product(ALL_PAIRS, repeat=m + 1)
                 if tuple(alpha[0]) in (PAIR_I, PAIR_Y))


def nudd_labels(n_pulses, m):
    """Labels {0..N}^{2m+2} in lexicographic order, with their pulse
    fractions, pulse levels and the (2m+3, m+1, 2) level-pulse table: the
    nested schedule enumerated one label at a time, the reference that
    ``qubit_nudd_schedule`` is checked against.

    A label's level is the position r of its first nonzero entry, and 2m+2
    for the all-zero label.  That label maps to 1 (a final pulse at readout
    time); a label with r >= 1 is evaluated through the shifted label with
    entries (r-1, r) replaced by (N+1, l_r - 1).  The nesting recursion
    d <- delta_l + (delta_{l+1} - delta_l) d runs innermost entry first over
    ``grid``, which holds delta_j for j = 0..N+1 plus a sentinel at N+2 that
    is only ever multiplied by a zero prefix.

    Pulses: for even N the level decides, z at even levels, x at odd.  For
    odd N each level pulse additionally carries the product of all lower y
    factors (z_k picks up y_0..y_{k-1}, x_k becomes y_0..y_k, and the
    all-zero label becomes the product of every y).
    """
    _nudd_guard(n_pulses, m)
    N, width = n_pulses, 2 * m + 2
    digits = np.indices((N + 1,) * width).reshape(width, -1)  # row r: entry r of each label
    level = np.full(digits.shape[1], width)
    for r in range(width - 1, -1, -1):
        level[digits[r] != 0] = r
    shifted = digits.copy()
    rows = np.flatnonzero((level >= 1) & (level < width))
    shifted[level[rows] - 1, rows] = N + 1
    shifted[level[rows], rows] -= 1
    grid = np.array((0.0, *udd_times(N), 1.0, 1.0))
    times = grid[shifted[0]]
    for column in shifted[1:]:
        times = grid[column] + (grid[column + 1] - grid[column]) * times
    times[level == width] = 1.0

    odd = N % 2 == 1
    table = np.zeros((width + 1, m + 1, 2), dtype=int)
    for r in range(width):
        k, x_slot = divmod(r, 2)
        if odd:
            table[r, :k + x_slot] = PAIR_Y
        if not (odd and x_slot):
            table[r, k] = PAIR_X if x_slot else PAIR_Z
    table[width] = PAIR_Y if odd else PAIR_I
    return digits.T, times, level, table


def label_nudd_schedule(n_pulses, m):
    """The nested schedule from its labels: ``nudd_labels`` sorted by time."""
    _, times, level, table = nudd_labels(n_pulses, m)
    order = np.argsort(times, kind="stable")
    return PulseSchedule(scheme="qubit-nudd", order=n_pulses, deltas=times[order],
                         pulses=table[level[order]], signs=np.ones(len(order), dtype=int),
                         m=m, n_system=2 ** m)


def pairing_mask(schedule, alpha):
    """F_alpha's flip mask over an indexed schedule from its definition: the
    symplectic pairing sum_j (a_x p_z + a_z p_x) mod 2 of alpha with the
    pulse is odd and its time is below 1."""
    a, p = np.asarray(alpha)[..., None, :, :], schedule.pulses
    pairing = (a[..., 0] * p[..., 1] + a[..., 1] * p[..., 0]).sum(axis=-1) % 2
    return (pairing == 1) & (schedule.deltas < 1.0)


def signed_closed_schedule(seed, m, n_pulses):
    """n_pulses random pulses of Gamma~ with random signs, closed by one more
    pulse, the xor of the others, so the product is +-identity."""
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 2, size=(n_pulses, m + 1, 2))
    stack[:, 0, 1] = stack[:, 0, 0]  # a_0 in {I, y}
    stack = np.concatenate([stack, np.bitwise_xor.reduce(stack, axis=0)[None]])
    deltas = np.sort(rng.uniform(0.05, 0.95, n_pulses + 1))
    signs = rng.choice([-1, 1], n_pulses + 1)
    return PulseSchedule(scheme="bosonic-homogenization", order=1, deltas=deltas,
                         pulses=stack, signs=signs, m=m, n_system=2 ** m)


def f_filter(z, deltas):
    """f_L(z) = 2i sum_m (-1)^m e^{-i z d_m}, a scalar or 1-D grid of z as
    ``y_filter`` takes it, summed from its definition over every (z, pulse).

    Satisfies Re f_L - sin z = Im y_L and Im f_L + 1 - cos z = Re y_L.
    """
    d = np.array(_check_even(deltas))
    s = (-1.0) ** np.arange(1, len(d) + 1)
    f = 2j * (np.exp(-1j * np.multiply.outer(z, d)) * s).sum(axis=-1)
    return complex(f) if np.ndim(z) == 0 else f
