"""Exact iterated integrals over piecewise sign functions, and the
vanishing-condition checks behind every suppression-order claim.

The central object is

    F[r_1..r_s; F_1..F_s] = int_0^1 dt_s ... int_0^{t_2} dt_1
                             prod_k F_k(t_k) t_k^{r_k}

evaluated by iterated antidifferentiation, exact up to roundoff: the sign
functions are piecewise constant, so every stage is a polynomial on each
interval of one grid laid over the union of all flips a report uses (labels
with identical flips share one function).  A stage is an
``(n_intervals, degree + 1)`` array in the local variable u = t - b_i, so
t^r is a binomial expansion in b_i, antidifferentiation a column shift and
scale, and the continuity constants an exclusive cumulative sum.  Integrands
are keys ((f_1, r_1), ..., (f_s, r_s)) walked in sorted order with only the
live path on a stack, so each distinct prefix is integrated exactly once.
Values are bounded by 1/s! (simplex volume), while the zero tolerance used
by the checks is 1e-10, many orders below the generic nonzero scale at the
budgets tested here.

Checked conditions (each over all tuples with s + sum(r) <= N):

* single-axis Uhrig (scalar sigma):    vanishes when xor(gamma) = 1
* nested multi-qubit train:            vanishes when xor(alpha) != 0
* bosonic homogenization:              vanishes when xor(alpha) is neither
                                       the zero index nor the index of -J
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
import numpy.random  # numpy 2 loads it lazily; load it at import time

from .pauli_basis import ALL_PAIRS, MultiIndex, PAIR_I, gamma_set, symplectic_form_index
from .schedules import (
    PiecewiseSignFunction,
    PulseSchedule,
    decoupling_schedule,
    homogenization_schedule,
    qubit_nudd_schedule,
    substitute_bosonic,
    toggling_sign_function,
    udd_times,
)

DEGREE_CAP = 24
ZERO_TOL = 1e-10
QUBIT_LABEL_GUARD = 10 ** 4


def _integrate_stage(coeffs: np.ndarray, signs: np.ndarray, power: int,
                     left_pow: np.ndarray, width_pow: np.ndarray) -> np.ndarray:
    """Antiderivative of F(t) t^power g(t), continuous and zero at t = 0.

    Row i of ``coeffs`` holds g on grid interval (b_i, b_{i+1}] in ascending
    powers of u = t - b_i, and ``signs[i]`` is F there; ``left_pow[i, k]`` is
    b_i^k and ``width_pow[i, k]`` is (b_{i+1} - b_i)^k.
    """
    n, width = coeffs.shape
    degree = width + power
    if degree > DEGREE_CAP:
        raise RuntimeError(f"polynomial degree exceeds cap {DEGREE_CAP}")
    out = np.zeros((n, degree + 1))
    for a in range(power + 1):  # t^power = sum_a C(power, a) b_i^(power-a) u^a
        scale = math.comb(power, a) * signs * left_pow[:, power - a]
        out[:, a + 1:a + 1 + width] += scale[:, None] * coeffs
    out[:, 1:] /= np.arange(1, degree + 1)
    increments = np.einsum("ij,ij->i", out, width_pow[:, :degree + 1])
    out[1:, 0] = np.cumsum(increments[:-1])
    return out


def _evaluate(functions: Sequence[PiecewiseSignFunction],
              keys: Sequence[tuple[tuple[int, int], ...]],
              extra_breaks: Sequence[float] = ()) -> list[float]:
    """Nested integral of each key ((f_1, r_1), ..., (f_s, r_s)), in order;
    f_k indexes ``functions``.  One stage per distinct key prefix."""
    grid = {0.0, 1.0}
    for F in functions:
        grid.update(F.flips)
    for b in extra_breaks:
        if not 0.0 < b < 1.0:
            raise ValueError("grid refinement points must lie in (0, 1)")
        grid.add(float(b))
    breaks = np.array(sorted(grid))
    k = np.arange(DEGREE_CAP + 1)
    left_pow = breaks[:-1, None] ** k
    width_pow = np.diff(breaks)[:, None] ** k
    # F is (-1)^(number of flips <= b_i) on (b_i, b_{i+1}]
    signs = [1.0 - 2.0 * (np.searchsorted(F.flips, breaks[:-1], side="right") % 2)
             for F in functions]
    values = {}
    previous: tuple = ()
    stages = [np.ones((len(breaks) - 1, 1))]  # stages[k] integrates previous[:k]
    for key in sorted(set(keys)):
        shared = 0
        while shared < min(len(key), len(previous)) and key[shared] == previous[shared]:
            shared += 1
        del stages[shared + 1:]
        for f, r in key[shared:]:
            stages.append(_integrate_stage(stages[-1], signs[f], r, left_pow, width_pow))
        last = stages[-1][-1]  # final piece; at u = h_{n-1} it is the value at t = 1
        values[key] = float(last @ width_pow[-1, :len(last)])
        previous = key
    return [values[key] for key in keys]


def iterated_integral(signs: Sequence[PiecewiseSignFunction],
                      powers: Sequence[int],
                      extra_breaks: Sequence[float] = ()) -> float:
    """Exact nested integral g_s(1) with g_k' = F_k(u) u^{r_k} g_{k-1}(u).

    ``extra_breaks`` refines the integration grid with spurious breakpoints;
    the value is invariant under any refinement (used by property tests).
    """
    if len(signs) != len(powers):
        raise ValueError("need one power per sign function")
    if not signs:
        raise ValueError("empty integrand")
    if any(r < 0 for r in powers):
        raise ValueError("powers must be nonnegative")
    return _evaluate(signs, [tuple((k, int(r)) for k, r in enumerate(powers))],
                     extra_breaks)[0]


def simplex_bound(s: int) -> float:
    """|F| <= 1/s! for any admissible integrand (ordered-simplex volume)."""
    return 1.0 / math.factorial(s)


# ---------------------------------------------------------------------------
# Condition reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    s: int
    powers: tuple[int, ...]
    labels: tuple
    value: float
    required_zero: bool


@dataclass(frozen=True)
class ConditionReport:
    scheme: str
    order: int
    tol: float
    rows: tuple[CheckRow, ...]
    exhaustive: bool
    m: int | None = None

    @property
    def max_violation(self) -> float:
        vals = [abs(r.value) for r in self.rows if r.required_zero]
        return max(vals, default=0.0)

    @property
    def n_checked(self) -> int:
        return sum(1 for r in self.rows if r.required_zero)

    def row_passed(self, row: CheckRow) -> bool:
        """A row fails only when it must vanish and exceeds tol in magnitude."""
        return abs(row.value) <= self.tol if row.required_zero else True

    @property
    def passed(self) -> bool:
        return all(self.row_passed(row) for row in self.rows)


def _budget_pairs(order: int) -> list[tuple[int, tuple[int, ...]]]:
    """All (s, powers) with s >= 1 and s + sum(powers) <= order."""
    pairs = []
    for s in range(1, order + 1):
        for total in range(order - s + 1):
            for comp in _compositions(total, s):
                pairs.append((s, comp))
    return pairs


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_scalar_order(order: int) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > 8:
        raise ValueError("budget guard: order <= 8")


def _check_label_guard(order: int, m: int, condition: str) -> None:
    if (order + 1) ** (2 * m + 2) > QUBIT_LABEL_GUARD:
        raise ValueError(f"label set exceeds the {condition}-condition guard")


def check_udd_condition(order: int, tol: float = ZERO_TOL) -> ConditionReport:
    """Single-axis Uhrig vanishing: all tuples with odd gamma parity vanish.

    Also probes the tuple (s=1, r=N, gamma=1) one order past the budget; its
    value (-1/4)^N is the witness that suppression stops exactly at order N.
    """
    _check_scalar_order(order)
    sigma = PiecewiseSignFunction(udd_times(order))
    return _scalar_condition_report("udd", order, sigma, tol)


def check_bosonic_decoupling_condition(order: int, tol: float = ZERO_TOL) -> ConditionReport:
    """Same integral equations, with sigma built from the pulse schedule.

    The sign function of the flip-pulse schedule must coincide with the
    Uhrig construction exactly; this is asserted before checking.
    """
    _check_scalar_order(order)
    sigma = toggling_sign_function(decoupling_schedule(order, n_system=1), 1)
    if sigma.flips != udd_times(order):
        raise AssertionError("schedule-derived sigma differs from the Uhrig times")
    return _scalar_condition_report("bosonic-decoupling", order, sigma, tol)


def _scalar_condition_report(scheme: str, order: int,
                             sigma: PiecewiseSignFunction, tol: float) -> ConditionReport:
    # gamma doubles as the function index: 0 is the constant, 1 is sigma
    tuples = [(gammas, powers) for s, powers in _budget_pairs(order)
              for gammas in itertools.product((0, 1), repeat=s) if sum(gammas) % 2]
    keys = [tuple(zip(gammas, powers)) for gammas, powers in tuples + [((1,), (order,))]]
    values = _evaluate((PiecewiseSignFunction(()), sigma), keys)
    rows = [CheckRow(len(powers), powers, gammas, value, required_zero=True)
            for (gammas, powers), value in zip(tuples, values)]
    rows.append(CheckRow(1, (order,), (1,), values[-1], required_zero=False))
    return ConditionReport(scheme=scheme, order=order, tol=tol,
                           rows=tuple(rows), exhaustive=True)


def _tuple_condition_report(scheme: str, schedule: PulseSchedule,
                            alphabet: Sequence[MultiIndex],
                            exempt_xors: frozenset,
                            order: int, tol: float,
                            max_tuples: int, seed: int) -> ConditionReport:
    # labels whose toggling functions coincide share one function index
    merged: dict[tuple[float, ...], int] = {}
    function = np.array([merged.setdefault(toggling_sign_function(schedule, alpha).flips,
                                           len(merged)) for alpha in alphabet])
    stack = np.array(alphabet)
    exempt = np.array(sorted(exempt_xors))

    def kept(picks: np.ndarray) -> np.ndarray:
        """Rows of alphabet positions whose index xor is not exempt."""
        xors = np.bitwise_xor.reduce(stack[picks], axis=1)
        return ~(xors[:, None] == exempt).all(axis=(2, 3)).any(axis=1)

    pairs = _budget_pairs(order)
    total = sum(len(alphabet) ** s for s, _ in pairs)
    chosen: list[tuple[tuple[int, ...], np.ndarray]] = []
    if total <= max_tuples:
        by_length: dict[int, np.ndarray] = {}
        for s, powers in pairs:
            if s not in by_length:  # all s-tuples in itertools.product order
                picks = np.indices((len(alphabet),) * s).reshape(s, -1).T
                by_length[s] = picks[kept(picks)]
            chosen += [(powers, row) for row in by_length[s]]
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        attempts = 0
        while len(chosen) < max_tuples and attempts < 20 * max_tuples:
            attempts += 1
            s, powers = pairs[int(rng.integers(len(pairs)))]
            picks = rng.integers(len(alphabet), size=(1, s))  # = s scalar draws
            if kept(picks)[0]:
                chosen.append((powers, picks[0]))
        exhaustive = False
    keys = [tuple(zip(function[picks].tolist(), powers)) for powers, picks in chosen]
    values = _evaluate([PiecewiseSignFunction(flips) for flips in merged], keys)
    labels = np.fromiter(alphabet, dtype=object, count=len(alphabet))
    rows = tuple(CheckRow(len(powers), powers, tuple(labels[picks]), value,
                          required_zero=True)
                 for (powers, picks), value in zip(chosen, values))
    return ConditionReport(scheme=scheme, order=order, tol=tol, rows=rows,
                           exhaustive=exhaustive, m=schedule.m)


def check_qubit_nudd_condition(order: int, m: int, tol: float = ZERO_TOL,
                               max_tuples: int = 10 ** 5,
                               seed: int = 0) -> ConditionReport:
    """Nested-train decoupling condition over the full (Z2xZ2)^{m+1} alphabet."""
    _check_label_guard(order, m, "qubit")
    schedule = qubit_nudd_schedule(order, m)
    alphabet = tuple(itertools.product(ALL_PAIRS, repeat=m + 1))
    exempt = frozenset({(PAIR_I,) * (m + 1)})
    return _tuple_condition_report("qubit-nudd", schedule, alphabet, exempt,
                                   order, tol, max_tuples, seed)


def check_homogenization_condition_for(schedule: PulseSchedule, order: int,
                                       m: int, tol: float = ZERO_TOL,
                                       max_tuples: int = 10 ** 5,
                                       seed: int = 0) -> ConditionReport:
    """Homogenization condition for an arbitrary indexed pulse schedule.

    Tuples whose index sum is the zero index (product ~ identity) or the
    index of the symplectic form (product ~ J) are exempt.
    """
    alphabet = gamma_set(m)
    exempt = frozenset({(PAIR_I,) * (m + 1), symplectic_form_index(m)})
    return _tuple_condition_report(schedule.scheme, schedule, alphabet,
                                   exempt, order, tol, max_tuples, seed)


def check_homogenization_condition(order: int, m: int, tol: float = ZERO_TOL,
                                   max_tuples: int = 10 ** 5,
                                   seed: int = 0) -> ConditionReport:
    """Homogenization condition for the nested-train bosonic schedule."""
    _check_label_guard(order, m, "homogenization")
    return check_homogenization_condition_for(homogenization_schedule(order, m),
                                              order, m, tol, max_tuples, seed)


# ---------------------------------------------------------------------------
# Qubit <-> bosonic correspondence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrespondenceReport:
    order: int
    m: int
    n_checked: int
    mismatches: tuple[MultiIndex, ...]

    @property
    def passed(self) -> bool:
        return not self.mismatches


def verify_qubit_bosonic_correspondence(order: int, m: int) -> CorrespondenceReport:
    """Breakpoint-exact equality F^bos_alpha == F^qubit_alpha'.

    alpha' differs from alpha only at position 0: with a_0 = (c, d), the
    partner index is (c, c, 0, ..., 0) xor alpha, i.e. a_0' = (0, d xor c).
    """
    qubit = qubit_nudd_schedule(order, m)
    bosonic = substitute_bosonic(qubit)
    mismatches = []
    gamma = gamma_set(m)
    for alpha in gamma:
        c, d = alpha[0]
        alpha_prime = ((0, d ^ c),) + tuple(alpha[1:])
        f_bos = toggling_sign_function(bosonic, alpha)
        f_qub = toggling_sign_function(qubit, alpha_prime)
        if f_bos != f_qub:
            mismatches.append(alpha)
    return CorrespondenceReport(order=order, m=m, n_checked=len(gamma),
                                mismatches=tuple(mismatches))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def format_labels(report: ConditionReport) -> list[str]:
    """Each row's labels, ';'-joined: gamma bits as digits, indices as bit
    pairs.  Each distinct label of the report is formatted once."""
    text = {label: str(label) if isinstance(label, int)
            else "".join(f"{x}{z}" for x, z in label)
            for label in {label for row in report.rows for label in row.labels}}
    return [";".join([text[label] for label in row.labels]) for row in report.rows]

