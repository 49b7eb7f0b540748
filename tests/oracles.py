"""Reference implementations shared by several test modules."""

import itertools

import numpy as np

from bosonic_dd.pauli_basis import ALL_PAIRS, PAIR_I, PAIR_X, PAIR_Y, PAIR_Z


def sign_value(sig, tau):
    """Value of the piecewise sign function ``sig`` at ``tau`` in [0, 1]: +1
    flipped once per flip point strictly below ``tau``, so the value at a
    flip point still carries the pre-flip sign."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"argument {tau} outside [0, 1]")
    return -1 if sum(1 for t in sig.flips if t < tau) % 2 else 1


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
