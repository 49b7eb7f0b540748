"""Pulse schedules: single-axis Uhrig trains, nested multi-qubit trains,
and the bosonic homogenization schedules obtained by pulse substitution.

A ``PulseSchedule`` holds L pulses as three read-only columns, checked at
construction: ``deltas`` (L,), the application times as fractions of the
total time T, strictly increasing in (0, 1]; ``pulses`` (L, m+1, 2), one
multi-index over (Z2 x Z2)^{m+1} per pulse (see :mod:`bosonic_dd.pauli_basis`),
or None for a flip schedule; and ``signs`` (L,), the +-1 factor of each pulse.

* flip schedules ("decoupling", ``m`` None): every pulse is the phase flip
  -I on the system block and every sign is +1; the relevant sign
  information is the scalar function sigma that flips at every pulse.
* indexed schedules ("qubit-nudd", "bosonic-homogenization"): position 0
  of an index corresponds to the innermost nesting level of the nested
  train; level 2k is the z-slot and level 2k+1 the x-slot of position k.
  Their ``n_system``, when set, is 2^m.

The nested train is built by nesting: level 0 is UDD_N closed by a pulse
at 1, and each level r = 1..2m+1 places the train of the levels below it
inside every interval of its own UDD_N train, the end of each of those
blocks but the last carrying level r's pulse.  For odd N a level's pulse
also carries the y factors of every lower position.

A toggling-frame sign function F_alpha is a boolean flip mask over the
schedule's ``deltas``: F(0+) = +1 always, and F flips at each masked pulse.
A pulse at exactly delta = 1 is never masked (a flip there changes the
function on a zero-measure tail only, and leaving it out makes the flip
times of schedules that do or do not retain a final pulse comparable).

The nest (times, an int8 level per pulse, the table of level pulses) is
cached, one read-only nest per (N, m) and process: the qubit schedule (cached
too) reads the table at every level, and the homogenization schedule its
substituted table at the levels whose row is not the identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .pauli_basis import PAIR_I, PAIR_X, PAIR_Y, PAIR_Z, _check_m, symplectic_inner_product

FLIP = 1  # file token for -I on the system block

# Coincident flips of a flip train compose.  The nested recursion never puts
# two pulses this close: its smallest gap under NUDD_LABEL_GUARD is 6.1e-12.
MERGE_TOL = 1e-12

NUDD_LABEL_GUARD = 10 ** 6


@dataclass(frozen=True, eq=False)
class PulseSchedule:
    """A schedule's columns (see the module docstring); eq=False, as they
    are arrays."""

    scheme: str
    order: int
    deltas: np.ndarray
    pulses: np.ndarray | None
    signs: np.ndarray
    m: int | None = None
    n_system: int | None = None

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        if self.n_system is not None and self.n_system < 1:
            raise ValueError(f"n_system must be >= 1, got {self.n_system}")
        if self.m is not None and self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.m is not None and self.n_system not in (None, 2 ** self.m):
            raise ValueError(f"n_system must be 2^m = {2 ** self.m}, got {self.n_system}")
        flip = self.m is None
        if flip != (self.pulses is None):
            raise ValueError("a schedule has a pulse stack iff m is set")
        deltas, signs = np.array(self.deltas, dtype=float), np.array(self.signs)
        n, width = deltas.size, 0 if flip else self.m + 1
        if deltas.ndim != 1 or signs.shape != deltas.shape or not (flip or len(self.pulses) == n):
            raise ValueError(f"need a 1-D time column with one sign and one pulse per time, "
                             f"got times of shape {deltas.shape}, signs of shape {signs.shape}")
        try:
            pulses = np.zeros((n, 0, 2), dtype=int) if flip else np.array(self.pulses)
        except ValueError:  # a ragged stack
            pulses = None
        if pulses is None or pulses.shape != (n, width, 2):
            i = next((i for i, p in enumerate(self.pulses) if np.shape(p) != (width, 2)), 0)
            pulse = self.pulses[i]
            pulse = pulse.tolist() if isinstance(pulse, np.ndarray) else pulse
            raise ValueError(f"entry {i}: pulse {pulse!r} is not m+1 = {width} "
                             "pairs of bits in {0, 1}")
        bad = np.array([~((deltas > 0.0) & (deltas <= 1.0)),
                        ~(np.diff(deltas, prepend=0.0) > 0.0),
                        ~((signs == 1) | (signs == (1 if flip else -1))),
                        ((pulses != 0) & (pulses != 1)).reshape(n, 2 * width).any(axis=1)])
        if bad.any():  # name the first bad entry, by its first failed check
            i = int(bad.any(axis=0).argmax())
            raise ValueError(f"entry {i}: " + (
                f"pulse time {deltas[i]} outside (0, 1]",
                "pulse times must be strictly increasing",
                f"sign {signs[i].item()!r} is not {'+1 on a flip schedule' if flip else '+-1'}",
                f"pulse {pulses[i].tolist()} is not m+1 = {width} pairs of bits in {{0, 1}}",
            )[int(bad[:, i].argmax())])
        columns = {"deltas": deltas, "signs": signs.astype(int, copy=False)}
        if not flip:
            columns["pulses"] = pulses.astype(int, copy=False)
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def is_flip_schedule(self) -> bool:
        return self.m is None

    def __len__(self) -> int:
        return len(self.deltas)


def udd_times(n_pulses: int) -> tuple[float, ...]:
    """Uhrig fractions sin^2(j pi / (2(N+1))), j = 1..N.

    Strictly increasing in (0, 1) and symmetric: delta_j + delta_{N+1-j} = 1.
    """
    if n_pulses < 1:
        raise ValueError("need at least one pulse")
    return tuple(math.sin(j * math.pi / (2 * (n_pulses + 1))) ** 2
                 for j in range(1, n_pulses + 1))


def flip_train_schedule(deltas: Sequence[float], n_system: int,
                        order: int = 0, scheme: str = "flip-train") -> PulseSchedule:
    """Schedule applying -I_S at the given fractions.  Coincident flips
    compose: each run of times with gaps <= MERGE_TOL is one flip, at its
    last time, if the run is odd, and none if it is even."""
    d = np.sort(np.asarray(deltas, dtype=float))
    last = np.flatnonzero(~(np.diff(d, append=np.inf) <= MERGE_TOL))  # NaN ends a run
    d = d[last[np.diff(last, prepend=-1) % 2 == 1]]
    return PulseSchedule(scheme=scheme, order=order, deltas=d, pulses=None,
                         signs=np.ones(len(d), dtype=int), n_system=n_system)


def decoupling_schedule(n_pulses: int, n_system: int) -> PulseSchedule:
    """N applications of -I_S at the Uhrig fractions."""
    return flip_train_schedule(udd_times(n_pulses), n_system,
                               order=n_pulses, scheme="decoupling")


# ---------------------------------------------------------------------------
# Nested (multi-level) Uhrig schedules
# ---------------------------------------------------------------------------


def _nudd_guard(n_pulses: int, m: int) -> None:
    if n_pulses < 1:
        raise ValueError("suppression order must be >= 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if (n_pulses + 1) ** (2 * m + 2) > NUDD_LABEL_GUARD:
        raise ValueError(
            f"pulse count (N+1)^(2m+2) = {(n_pulses + 1) ** (2 * m + 2)} "
            f"exceeds the resource guard {NUDD_LABEL_GUARD}")


@functools.cache  # shared: its arrays are read-only
def _nest(n_pulses: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(times, level, table) of the (m+1)-qubit nested Uhrig train: pulse j
    is table[level[j]] at times[j], with int8 levels 0..2m+2.

    Level 0 is the UDD_N train delta_1..delta_N closed by a pulse at 1.  Each
    level r = 1..2m+1 puts the train built so far into every interval
    (delta_j, delta_{j+1}] of its own UDD_N grid (delta_0 = 0, delta_{N+1} = 1)
    by the affine map t -> delta_j + (delta_{j+1} - delta_j) t; the closing
    pulse of each block but the last becomes level r's pulse, and the last
    block's stays the closing pulse at 1 (row 2m+2).

    Pulses: for even N the level decides, z at even levels, x at odd.  For
    odd N each level pulse additionally carries the product of all lower y
    factors (z_k picks up y_0..y_{k-1}, x_k becomes y_0..y_k, and the
    closing pulse becomes the product of every y).
    """
    _nudd_guard(n_pulses, m)
    N, width = n_pulses, 2 * m + 2
    odd = N % 2 == 1
    table = np.zeros((width + 1, m + 1, 2), dtype=int)
    for r in range(width):
        k, x_slot = divmod(r, 2)
        if odd:
            table[r, :k + x_slot] = PAIR_Y
        if not (odd and x_slot):
            table[r, k] = PAIR_X if x_slot else PAIR_Z
    table[width] = PAIR_Y if odd else PAIR_I

    grid = np.array((0.0, *udd_times(N), 1.0))
    times, level = grid[1:], np.array([0] * N + [width], dtype=np.int8)
    for r in range(1, width):
        block = times.size
        times = (grid[:-1, None] + np.diff(grid)[:, None] * times).ravel()
        level = np.tile(level, N + 1)
        level[block - 1:-1:block] = r  # every block's closing pulse but the last
    for array in (times, level, table):
        array.flags.writeable = False
    return times, level, table


@functools.cache  # shared: a schedule is frozen, its columns read-only
def qubit_nudd_schedule(n_pulses: int, m: int) -> PulseSchedule:
    """The (m+1)-qubit nested Uhrig schedule: ``_nest``'s (N+1)^(2m+2) pulses."""
    times, level, table = _nest(n_pulses, m)
    return PulseSchedule(scheme="qubit-nudd", order=n_pulses, deltas=times,
                         pulses=table[level], signs=np.ones(len(times), dtype=int),
                         m=m, n_system=2 ** m)


def _bosonic(pulses: np.ndarray) -> np.ndarray:
    """A qubit pulse stack substituted (``substitute_bosonic``), as a new stack."""
    pulses = pulses.copy()
    pulses[:, 0, 1] = pulses[:, 0, 0]  # the x-bit picks y (for x and y) or I (for I and z)
    return pulses


def substitute_bosonic(qubit: PulseSchedule) -> PulseSchedule:
    """Replace qubit pulses by bosonic ones: the first index entry maps
    (1,0),(1,1) -> (1,1) and (0,0),(0,1) -> (0,0).

    Pulses that substitute to the all-zero index apply no operation and are
    dropped, except for the final slot at delta = 1, which is always kept so
    that the schedule has exactly (N+1)^{2m+1} pulses for nested input of
    any parity (the retained identity there is a bookkeeping no-op).
    """
    if qubit.is_flip_schedule:
        raise ValueError("substitution expects an indexed qubit schedule")
    pulses = _bosonic(qubit.pulses)
    keep = pulses.any(axis=(1, 2)) | (qubit.deltas == 1.0)
    return PulseSchedule(scheme="bosonic-homogenization", order=qubit.order,
                         deltas=qubit.deltas[keep], pulses=pulses[keep],
                         signs=qubit.signs[keep], m=qubit.m, n_system=qubit.n_system)


def homogenization_schedule(n_pulses: int, m: int) -> PulseSchedule:
    """Bosonic homogenization schedule for 2^m modes at suppression order N,
    ``substitute_bosonic(qubit_nudd_schedule(N, m))`` read off ``_nest``."""
    _check_m(m)
    times, level, table = _nest(n_pulses, m)
    table = _bosonic(table)
    keep = table.any(axis=(1, 2))[level] | (times == 1.0)
    return PulseSchedule(scheme="bosonic-homogenization", order=n_pulses,
                         deltas=times[keep], pulses=table[level[keep]],
                         signs=np.ones(np.count_nonzero(keep), dtype=int),
                         m=m, n_system=2 ** m)


# ---------------------------------------------------------------------------
# Toggling-frame sign functions
# ---------------------------------------------------------------------------


def toggling_sign_function(schedule: PulseSchedule, alpha) -> np.ndarray:
    """F_alpha as a flip mask over ``schedule.deltas``: True at each pulse
    whose index pairs oddly with alpha and whose time is below 1.

    For indexed schedules ``alpha`` is a multi-index or an index stack of
    shape (..., m+1, 2); for flip schedules it is a bit (0 or 1) or an array
    of bits, bit 1 pairing with every flip pulse.  The mask has shape
    ``alpha.shape[:-2] + (L,)``, or ``np.shape(alpha) + (L,)`` for bits.

    The pairing is :func:`bosonic_dd.pauli_basis.symplectic_inner_product`,
    one stacked call over alpha and the schedule's pulses.
    """
    a = np.asarray(alpha)
    if schedule.is_flip_schedule:
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("flip schedules pair with Z2 bits, 0 or 1")
        odd = a[..., None] == 1
    elif a.ndim < 2:
        raise ValueError("indexed schedules pair with a multi-index")
    else:  # symplectic_inner_product checks alpha's length and bits
        odd = symplectic_inner_product(a[..., None, :, :], schedule.pulses) == 1
    return odd & (schedule.deltas < 1.0)


# ---------------------------------------------------------------------------
# Schedule file format
# ---------------------------------------------------------------------------
#
# One pulse per line: "<delta><TAB><bits>", delta with 17 significant digits.
# For indexed schedules the bits are the index pairs in position order
# (innermost level first), x-bit then z-bit per position, prefixed with '-'
# for a negative sign.  Flip schedules use the single bit "1".  Header lines:
# #scheme, #N, #m ("-" for flip schedules), plus informational #-lines that
# readers ignore.


def _bits_to_pulse(bits: str, m: int | None) -> tuple[str, int]:
    """The unsigned bits of one pulse ("" for a flip) and its sign."""
    if m is None:
        if bits != str(FLIP):
            raise ValueError(f"malformed flip pulse {bits!r}, expected {FLIP}")
        return "", 1
    sign = -1 if bits.startswith("-") else 1
    bits = bits.removeprefix("-")
    if len(bits) != 2 * (m + 1) or set(bits) - {"0", "1"}:
        raise ValueError(f"malformed pulse bits {bits!r}, expected 2(m+1) = "
                         f"{2 * (m + 1)} bits of 0/1")
    return bits, sign


def write_schedule(schedule: PulseSchedule, stream: IO[str]) -> None:
    stream.write(f"#scheme {schedule.scheme}\n")
    stream.write(f"#N {schedule.order}\n")
    stream.write(f"#m {'-' if schedule.m is None else schedule.m}\n")
    if schedule.n_system is not None:
        stream.write(f"#nS {schedule.n_system}\n")
    stream.write("# bits: index pairs innermost-level first, x-bit then z-bit"
                 " per position; flip schedules use the single bit 1\n")
    bits = ([[FLIP]] * len(schedule) if schedule.is_flip_schedule else
            schedule.pulses.reshape(len(schedule), 2 * schedule.m + 2).tolist())
    for delta, sign, row in zip(schedule.deltas.tolist(), schedule.signs.tolist(), bits):
        stream.write(f"{delta:.17g}\t{'-' if sign < 0 else ''}{''.join(map(str, row))}\n")


def read_schedule(stream: IO[str]) -> PulseSchedule:
    """Parse a schedule file; a malformed line raises ValueError naming it, and
    a header value that the schedule rejects (#N, #m, #nS) one naming the header."""
    scheme, order, m, n_system = "unknown", 0, None, None
    deltas, rows, signs = [], [], []
    for lineno, line in enumerate(stream, 1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split(None, 1)
                if len(parts) != 2:
                    continue
                key, value = parts
                if key == "scheme":
                    scheme = value
                elif key == "N":
                    order = int(value)
                elif key == "m" and value != "-":
                    if deltas and int(value) != m:
                        raise ValueError("#m changes after the first pulse line")
                    m = int(value)
                elif key == "nS":
                    n_system = int(value)
                continue
            delta_str, tab, bits = line.partition("\t")
            if not tab:
                raise ValueError("expected <delta><TAB><bits>")
            delta = float(delta_str)
            if not 0.0 < delta <= 1.0:
                raise ValueError(f"pulse time {delta_str} outside (0, 1]")
            if deltas and delta <= deltas[-1]:
                raise ValueError("pulse times must be strictly increasing")
            pulse, sign = _bits_to_pulse(bits, m)
            if scheme == "bosonic-homogenization" and pulse[:1] != pulse[1:2]:
                raise ValueError(f"homogenization pulse {bits!r} has a_0 outside {{I, y}}")
            deltas.append(delta)
            rows.append(pulse)
            signs.append(sign)
        except ValueError as exc:
            raise ValueError(f"schedule line {lineno}: {exc}") from exc
    # a pulse line has 2(m+1) >= 0 bits, so m < -1 comes with no pulse line;
    # the width floor leaves such an m for the construction to reject
    pulses = None if m is None else (np.frombuffer("".join(rows).encode(), dtype=np.uint8)
                                     - ord("0")).reshape(len(rows), max(m + 1, 0), 2)
    try:  # the lines parsed, so what the construction rejects is a header value
        return PulseSchedule(scheme=scheme, order=order, deltas=deltas, pulses=pulses,
                             signs=signs, m=m, n_system=n_system)
    except ValueError as exc:
        raise ValueError(f"schedule header: {exc}") from exc
