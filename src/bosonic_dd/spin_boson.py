"""Exact Gaussian channel for one mode coupled to a thermal oscillator bath
under a train of phase-flip pulses.

Model: a single system mode (Q, P) coupled through Q sum_j lambda_j Q_j to n
bath oscillators with frequencies omega_j > 0, bath initially thermal at
inverse temperature beta.  Flip pulses -I_S are applied at fractions
``deltas`` of the total time T; the train must have even length (odd trains
are completed by a final pulse at delta = 1, see :func:`even_flip_train`).

The resulting system channel on covariance matrices is

    M  ->  [[1, x],[0, 1]] M [[1, x],[0, 1]]^T + [[y, 0],[0, 0]]

with the added noise

    y = sum_j (lambda_j/omega_j)^2 coth(beta omega_j / 2) |y_L(omega_j T)|^2

and a shear parameter x assembled from two pieces: a per-mode filter part

    sum_j (lambda_j/omega_j)^2 [ z - sin z - sin z Re y_L(z)
                                 + (cos z - 1) Im y_L(z) ],  z = omega_j T

and a pulse-pair part collecting the ordered-product cross terms

    4 sum_{l<j} (-1)^{j+l} sum_modes (lambda/omega)^2
        [ sin(z (d_j - d_l)) + sin(z d_l) - sin(z d_j) ].

The pair part is the phase-space footprint of the commutators between the
single-pulse coupling generators: their commutator is a Q^2 shear (not a
scalar), so it survives in the covariance picture.  Both pieces together
reproduce the direct symplectic simulation to machine precision; the added
noise y is insensitive to it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .evolution import AnalyticGenerator, PropagatorConfig, DEFAULT_CONFIG, resulting_evolution
from .schedules import flip_train_schedule, udd_times
from .symplectic import ModeLayout, symplectic_form


@dataclass(frozen=True)
class BathSpec:
    """Discrete bath lines: couplings (energy), frequencies (1/time) and
    inverse temperature (time; may be math.inf for the vacuum)."""

    couplings: tuple[float, ...]
    frequencies: tuple[float, ...]
    beta: float

    def __post_init__(self) -> None:
        if len(self.couplings) != len(self.frequencies):
            raise ValueError("couplings and frequencies must have equal length")
        if any(w <= 0 for w in self.frequencies):
            raise ValueError("bath frequencies must be positive")
        if not (self.beta > 0):
            raise ValueError("inverse temperature must be positive (math.inf allowed)")

    @property
    def n_modes(self) -> int:
        return len(self.couplings)

    def thermal_weights(self) -> np.ndarray:
        """coth(beta omega / 2) per line; 1 in the vacuum limit."""
        if math.isinf(self.beta):
            return np.ones(self.n_modes)
        return 1.0 / np.tanh(self.beta * np.asarray(self.frequencies) / 2.0)


def even_flip_train(n_pulses: int) -> tuple[float, ...]:
    """Uhrig fractions, completed by a final pulse at 1 when N is odd.

    The closed-form channel requires an even number of flips; the added
    pulse closes the train without changing the suppression order.
    """
    times = udd_times(n_pulses)
    return times if n_pulses % 2 == 0 else times + (1.0,)


def _check_even(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if len(deltas) % 2:
        raise ValueError("the closed-form channel requires an even pulse count")
    if any(not 0.0 < d <= 1.0 for d in deltas):
        raise ValueError("pulse fractions must lie in (0, 1]")
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("pulse fractions must be strictly increasing")
    return deltas


def y_filter(z: float, deltas) -> complex:
    """y_L(z) = 2 sum_m (-1)^m e^{i z d_m} + 1 - e^{iz}."""
    deltas = _check_even(deltas)
    acc = 0.0 + 0.0j
    for m, d in enumerate(deltas, start=1):
        acc += (-1) ** m * cmath.exp(1j * z * d)
    return 2.0 * acc + 1.0 - cmath.exp(1j * z)


def f_filter(z: float, deltas) -> complex:
    """f_L(z) = 2i sum_m (-1)^m e^{-i z d_m}.

    Satisfies Re f_L - sin z = Im y_L and Im f_L + 1 - cos z = Re y_L.
    """
    deltas = _check_even(deltas)
    acc = 0.0 + 0.0j
    for m, d in enumerate(deltas, start=1):
        acc += (-1) ** m * cmath.exp(-1j * z * d)
    return 2j * acc


def pair_shear(total_time: float, bath: BathSpec, deltas) -> float:
    """Ordered-pulse-pair contribution to the shear parameter."""
    deltas = _check_even(deltas)
    lam = np.asarray(bath.couplings)
    om = np.asarray(bath.frequencies)
    out = 0.0
    for j in range(1, len(deltas) + 1):
        for l in range(1, j):
            sgn = -1.0 if (j + l) % 2 else 1.0
            z = om * total_time
            term = (np.sin(z * (deltas[j - 1] - deltas[l - 1]))
                    + np.sin(z * deltas[l - 1]) - np.sin(z * deltas[j - 1]))
            out += 4.0 * sgn * float(np.sum((lam / om) ** 2 * term))
    return out


def shear_parameter(total_time: float, bath: BathSpec, deltas) -> float:
    """The channel's x parameter (beta-independent)."""
    deltas = _check_even(deltas)
    out = 0.0
    for lam, om in zip(bath.couplings, bath.frequencies):
        z = om * total_time
        yl = y_filter(z, deltas)
        out += (lam / om) ** 2 * (z - math.sin(z) - math.sin(z) * yl.real
                                  + (math.cos(z) - 1.0) * yl.imag)
    return out + pair_shear(total_time, bath, deltas)


def added_noise(total_time: float, bath: BathSpec, deltas) -> float:
    """The channel's y parameter; nonnegative, decreasing in beta."""
    deltas = _check_even(deltas)
    weights = bath.thermal_weights()
    out = 0.0
    for lam, om, w in zip(bath.couplings, bath.frequencies, weights):
        out += (lam / om) ** 2 * w * abs(y_filter(om * total_time, deltas)) ** 2
    return out


def thermal_covariance(bath: BathSpec) -> np.ndarray:
    """Bath thermal covariance diag(coth) (+) diag(coth), QP-blocked."""
    D = np.diag(bath.thermal_weights())
    n = bath.n_modes
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = D
    M[n:, n:] = D
    return M


def coupling_matrix(bath: BathSpec) -> np.ndarray:
    """Symmetric matrix A_eff of the model generator X = A_eff J.

    The sign convention is fixed so that exp(t A_eff J) equals the
    closed-form free propagator below (QP-blocked ordering, system first).
    """
    n = bath.n_modes
    lam = np.asarray(bath.couplings)
    A = np.zeros((2 * n + 2, 2 * n + 2))
    A[0, 2:2 + n] = lam
    A[2:2 + n, 0] = lam
    A[2:2 + n, 2:2 + n] = np.diag(bath.frequencies)
    A[2 + n:, 2 + n:] = np.diag(bath.frequencies)
    return -A


def bath_generator(bath: BathSpec) -> AnalyticGenerator:
    """Time-independent coupled generator for the evolution engine."""
    layout = ModeLayout(n_system=1, n_env=bath.n_modes)
    X = coupling_matrix(bath) @ symplectic_form(layout)
    return AnalyticGenerator(layout=layout, coeffs=(X,))


def uncontrolled_propagator(bath: BathSpec, t: float) -> np.ndarray:
    """Closed-form free evolution on (Q, P, Q_1..Q_n, P_1..P_n):

        [[1, x(t), v(t)^T,    w(t)^T   ],
         [0, 1,    0,         0        ],
         [0, w(t), cos(Om t), -sin(Om t)],
         [0, v(t), sin(Om t), cos(Om t)]]

    with v = Om^{-1}(cos(Om t) - I) lam, w = -Om^{-1} sin(Om t) lam and
    x = t lam^T Om^{-1} lam - lam^T Om^{-2} sin(Om t) lam.  Equals
    matrix_exponential(t A_eff J) for the coupling matrix above.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    n = bath.n_modes
    lam = np.asarray(bath.couplings)
    om = np.asarray(bath.frequencies)
    c, s = np.cos(om * t), np.sin(om * t)
    v = (c - 1.0) / om * lam
    w = -s / om * lam
    x = t * float(np.sum(lam ** 2 / om)) - float(np.sum(lam ** 2 / om ** 2 * s))
    S = np.eye(2 * n + 2)
    S[0, 1] = x
    S[0, 2:2 + n] = v
    S[0, 2 + n:] = w
    S[2:2 + n, 1] = w
    S[2 + n:, 1] = v
    S[2:2 + n, 2:2 + n] = np.diag(c)
    S[2:2 + n, 2 + n:] = -np.diag(s)
    S[2 + n:, 2:2 + n] = np.diag(s)
    S[2 + n:, 2 + n:] = np.diag(c)
    return S


@dataclass(frozen=True)
class ChannelParams:
    x_shear: float
    y_noise: float
    total_time: float
    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.y_noise < 0:
            raise ValueError("added noise must be nonnegative")
        _check_even(self.deltas)


def channel_params(bath: BathSpec, total_time: float, deltas) -> ChannelParams:
    return ChannelParams(x_shear=shear_parameter(total_time, bath, deltas),
                         y_noise=added_noise(total_time, bath, deltas),
                         total_time=total_time,
                         deltas=tuple(float(d) for d in deltas))


def channel_apply(M0: np.ndarray, params: ChannelParams) -> np.ndarray:
    """Shear conjugation plus noise: [[1,x],[0,1]] M [[1,x],[0,1]]^T + diag(y, 0)."""
    M0 = np.asarray(M0, dtype=float)
    if M0.shape != (2, 2):
        raise ValueError("system covariance must be 2x2")
    sh = np.array([[1.0, params.x_shear], [0.0, 1.0]])
    out = sh @ M0 @ sh.T
    out[0, 0] += params.y_noise
    return out


@dataclass(frozen=True)
class CrossValidationReport:
    total_time: float
    deltas: tuple[float, ...]
    deviations: tuple[float, ...]

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)


def cross_validate(bath: BathSpec, deltas, total_time: float,
                   cfg: PropagatorConfig = DEFAULT_CONFIG,
                   covariances: tuple[np.ndarray, ...] | None = None
                   ) -> CrossValidationReport:
    """Compare the closed-form channel against direct symplectic simulation.

    Builds the full (2n+2)-dimensional evolution with flip pulses, applies
    it to M0 (+) M_thermal, extracts the system block and reports the max
    entrywise deviation from channel_apply for each initial covariance.
    """
    deltas = _check_even(deltas)
    if bath.n_modes > 5:
        raise ValueError("cross validation is limited to 5 bath modes")
    if covariances is None:
        covariances = (np.eye(2), np.diag([4.0, 0.25]))
    gen = bath_generator(bath)
    schedule = flip_train_schedule(deltas, n_system=1)
    S = resulting_evolution(gen, schedule, total_time, cfg)
    Mb = thermal_covariance(bath)
    params = channel_params(bath, total_time, deltas)
    deviations = []
    for M0 in covariances:
        M0 = np.asarray(M0, dtype=float)
        full = np.zeros((gen.layout.dim, gen.layout.dim))
        full[:2, :2] = M0
        full[2:, 2:] = Mb
        out = S @ full @ S.T
        closed = channel_apply(M0, params)
        deviations.append(float(np.abs(out[:2, :2] - closed).max()))
    return CrossValidationReport(total_time=total_time, deltas=deltas,
                                 deviations=tuple(deviations))
