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
scale, and the continuity constants an exclusive cumulative sum.  Keys
((f_1, r_1), ..., (f_s, r_s)) come as integer arrays and are walked by
depth: the distinct length-d prefixes of the longer keys are integrated as
one stacked stage, and each key's last step is not integrated at all but
contracted against a per-report table of moments
int_0^{h_i} (b_i + u)^r u^j du.  Every sum runs in a fixed order, so a
key's value does not depend on the other keys of the walk.
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
from dataclasses import dataclass, replace
from typing import Sequence

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
WALK_BLOCK_ELEMENTS = 2 ** 18  # keys x intervals of one walk: bounds its arrays
# _BINOMIAL[r, a] = C(r, a), zero for a > r
_BINOMIAL = np.array([[math.comb(r, a) for a in range(DEGREE_CAP + 1)]
                      for r in range(DEGREE_CAP + 1)], dtype=float)


def _integrate_stage(coeffs: np.ndarray, signs: np.ndarray, powers: np.ndarray,
                     degree: int, left_pow: np.ndarray, width_pow: np.ndarray) -> np.ndarray:
    """Antiderivatives of F_p(t) t^(r_p) g_p(t), continuous and zero at t = 0.

    ``coeffs[p, i]`` holds g_p on grid interval (b_i, b_{i+1}] in ascending
    powers of u = t - b_i, ``signs[p, i]`` is F_p there and ``powers[p]`` is
    r_p; ``left_pow[i, k]`` is b_i^k and ``width_pow[i, k]`` is
    (b_{i+1} - b_i)^k.  ``degree`` is the largest degree of any antiderivative;
    the columns past a prefix's own degree stay zero and change no bit.
    """
    n_prefixes, n, width = coeffs.shape
    out = np.zeros((n_prefixes, n, degree + 1))
    for a in range(int(powers.max()) + 1):  # t^r = sum_a C(r, a) b_i^(r-a) u^a
        scale = _BINOMIAL[powers, a][:, None] * signs * left_pow[:, np.maximum(powers - a, 0)].T
        columns = min(width, degree - a)  # the rest would add zeros past `degree`
        out[:, :, a + 1:a + 1 + columns] += scale[:, :, None] * coeffs[:, :, :columns]
    out[:, :, 1:] /= np.arange(1, degree + 1)
    increments = np.cumsum(out * width_pow[:, :degree + 1], axis=-1)[..., -1]
    out[:, 1:, 0] = np.cumsum(increments[:, :-1], axis=-1)
    return out


def _dedupe(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` by a stable argsort (np.unique
    may import numpy.ma, which a cold process would pay for)."""
    order = np.argsort(codes, kind="stable")  # a lower memory peak than the default
    first = np.diff(codes[order], prepend=-1) != 0  # codes are >= 0
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return codes[order[first]], inverse


def _evaluate(functions: Sequence[PiecewiseSignFunction], keys: Sequence[np.ndarray],
              extra_breaks: Sequence[float] = ()) -> np.ndarray:
    """Nested integral of every key, in key order across the key arrays.

    ``keys[k]`` has shape (n_k, s_k, 2): row j is the key ((f_1, r_1), ...,
    (f_s, r_s)), f indexing ``functions``.  Walked by depth: the distinct
    length-d prefixes of the keys longer than d form one stacked stage, and a
    key of length d + 1 is its prefix stage g contracted with the moments
    mu_r[i, j] = int_0^{h_i} (b_i + u)^r u^j du: sum_i F(b_i) sum_j g mu_r.
    """
    grid = {0.0, 1.0}
    for F in functions:
        grid.update(F.flips)
    for b in extra_breaks:
        if not 0.0 < b < 1.0:
            raise ValueError("grid refinement points must lie in (0, 1)")
        grid.add(float(b))
    breaks = np.array(sorted(grid))
    n = len(breaks) - 1
    # F is (-1)^(number of flips <= b_i) on (b_i, b_{i+1}]
    signs = np.array([1.0 - 2.0 * (np.searchsorted(F.flips, breaks[:-1], side="right") % 2)
                      for F in functions]).reshape(len(functions), n)
    sizes = [len(block) for block in keys]
    length = np.repeat([block.shape[1] for block in keys], sizes)
    if not length.size:  # e.g. a sampled report that drew no tuple
        return np.empty(0)
    pairs = np.zeros((len(length), length.max(), 2), dtype=np.intp)  # keys padded with 0
    for start, block in zip(np.cumsum([0] + sizes), keys):
        pairs[start:start + len(block), :block.shape[1]] = block
    f, r = pairs[..., 0], pairs[..., 1]
    power_sum = np.cumsum(r, axis=1)  # a length-d prefix has degree d + power_sum[d - 1]
    if (length + power_sum[:, -1]).max() > DEGREE_CAP:
        raise RuntimeError(f"polynomial degree exceeds cap {DEGREE_CAP}")
    n_powers = int(r.max()) + 1
    k = np.arange(DEGREE_CAP + 1)  # one table shape, so the same bits for any keys
    left_pow = breaks[:-1, None] ** k
    width_pow = np.diff(breaks)[:, None] ** k
    moments = np.zeros((n_powers, n, DEGREE_CAP))  # moments[r] is mu_r
    for a in range(n_powers):  # entries past the cap stay partial but are never used
        scale = _BINOMIAL[:n_powers, a, None] * left_pow[:, np.maximum(k[:n_powers] - a, 0)].T
        moments[:, :, :DEGREE_CAP - a] += scale[:, :, None] * (
            width_pow[:, a + 1:] / np.arange(a + 1, DEGREE_CAP + 1))

    values = np.empty(len(length))
    prefix = np.zeros(len(length), dtype=np.intp)  # each key's row in `stage`
    # walks over blocks of keys in lexicographic order share most prefixes
    order = np.lexsort(np.where(np.arange(pairs.shape[1]) < length[:, None],
                                f * n_powers + r, -1).T[::-1])
    block = max(1, WALK_BLOCK_ELEMENTS // n)  # keys per walk
    for start in range(0, len(length), block):
        live = order[start:start + block]
        stage = np.ones((1, n, 1))  # the empty prefix: g = 1
        for d in range(pairs.shape[1]):
            leaf = live[length[live] == d + 1]
            last, which = _dedupe(prefix[leaf] * n_powers + r[leaf, d])
            inner = np.cumsum(stage[last // n_powers]
                              * moments[last % n_powers, :, :stage.shape[2]], axis=-1)
            terms = signs[f[leaf, d]]
            terms *= inner[which, :, -1]
            values[leaf] = np.cumsum(terms, axis=-1, out=terms)[:, -1]
            live = live[length[live] > d + 1]
            if not live.size:
                break
            steps, prefix[live] = _dedupe((prefix[live] * len(signs) + f[live, d])
                                          * n_powers + r[live, d])
            parent, steps = np.divmod(steps, len(signs) * n_powers)
            stage = _integrate_stage(stage[parent], signs[steps // n_powers], steps % n_powers,
                                     d + 1 + int(power_sum[live, d].max()), left_pow, width_pow)
    return values


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
    key = np.array([[(k, int(r)) for k, r in enumerate(powers)]])
    return float(_evaluate(signs, [key], extra_breaks)[0])


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
    """All (s, powers) with s >= 1 and s + sum(powers) <= order: by s, then
    by sum(powers), then lexicographically."""
    return [(s, powers) for s in range(1, order + 1)
            for powers in sorted(itertools.product(range(order - s + 1), repeat=s), key=sum)
            if sum(powers) <= order - s]


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
    # gamma labels 0 and 1 stand for the constant and sigma; their xor is 0 or 1
    report = _tuple_condition_report(scheme, (PiecewiseSignFunction(()), sigma), (0, 1),
                                     frozenset({0}), order, tol)
    witness = CheckRow(1, (order,), (1,), iterated_integral([sigma], [order]),
                       required_zero=False)
    return replace(report, rows=report.rows + (witness,))


def _tuple_condition_report(scheme: str, functions: Sequence[PiecewiseSignFunction],
                            alphabet: Sequence, exempt_xors: frozenset,
                            order: int, tol: float, max_tuples: int = 10 ** 5,
                            seed: int = 0) -> ConditionReport:
    """Every tuple of ``alphabet`` labels (sign function ``functions[k]`` for
    label k) whose index xor is not exempt, with every budget of powers."""
    # labels whose sign functions coincide share one function index
    merged: dict[tuple[float, ...], int] = {}
    function = np.array([merged.setdefault(F.flips, len(merged)) for F in functions])
    stack = np.array(alphabet)
    exempt = np.array(sorted(exempt_xors))

    def kept(picks: np.ndarray) -> np.ndarray:
        """Rows of alphabet positions whose index xor is not exempt."""
        xors = np.bitwise_xor.reduce(stack[picks], axis=1)
        same = (xors[:, None] == exempt).reshape(len(xors), len(exempt), -1)
        return ~same.all(axis=2).any(axis=1)

    pairs = _budget_pairs(order)
    total = sum(len(alphabet) ** s for s, _ in pairs)
    chosen: list[tuple[tuple[int, ...], np.ndarray]] = []  # (powers, rows of picks)
    if total <= max_tuples:
        by_length: dict[int, np.ndarray] = {}
        for s, powers in pairs:
            if s not in by_length:  # all s-tuples in itertools.product order
                picks = np.indices((len(alphabet),) * s).reshape(s, -1).T
                by_length[s] = picks[kept(picks)]
            chosen.append((powers, by_length[s]))
        exhaustive = True
    else:
        rng = np.random.default_rng(seed)
        attempts = 0
        while len(chosen) < max_tuples and attempts < 20 * max_tuples:
            attempts += 1
            s, powers = pairs[int(rng.integers(len(pairs)))]
            picks = rng.integers(len(alphabet), size=(1, s))  # = s scalar draws
            if kept(picks)[0]:
                chosen.append((powers, picks))
        exhaustive = False
    keys = [np.stack([function[picks], np.broadcast_to(powers, picks.shape)], axis=-1)
            for powers, picks in chosen]
    value = iter(_evaluate([PiecewiseSignFunction(flips) for flips in merged], keys).tolist())
    labels = np.fromiter(alphabet, dtype=object, count=len(alphabet))
    rows = tuple(CheckRow(len(powers), powers, tuple(labels[row]), next(value),
                          required_zero=True)
                 for powers, picks in chosen for row in picks)
    return ConditionReport(scheme=scheme, order=order, tol=tol, rows=rows,
                           exhaustive=exhaustive)


def check_qubit_nudd_condition(order: int, m: int, tol: float = ZERO_TOL,
                               max_tuples: int = 10 ** 5,
                               seed: int = 0) -> ConditionReport:
    """Nested-train decoupling condition over the full (Z2xZ2)^{m+1} alphabet."""
    _check_label_guard(order, m, "qubit")
    schedule = qubit_nudd_schedule(order, m)
    alphabet = tuple(itertools.product(ALL_PAIRS, repeat=m + 1))
    exempt = frozenset({(PAIR_I,) * (m + 1)})
    functions = [toggling_sign_function(schedule, alpha) for alpha in alphabet]
    return replace(_tuple_condition_report("qubit-nudd", functions, alphabet, exempt,
                                           order, tol, max_tuples, seed), m=m)


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
    functions = [toggling_sign_function(schedule, alpha) for alpha in alphabet]
    return replace(_tuple_condition_report(schedule.scheme, functions, alphabet,
                                           exempt, order, tol, max_tuples, seed),
                   m=schedule.m)


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

