"""Reference implementations and seeded test inputs shared by several test
modules."""

import itertools

import numpy as np

from bosonic_dd.pauli_basis import ALL_PAIRS, PAIR_I, PAIR_X, PAIR_Y, PAIR_Z
from bosonic_dd.schedules import PulseSchedule
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
