"""The benchmark's workloads: how each operation's argv is made and how its
CSV output is checked.  See README.md for why each workload was chosen."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

SWEEP_HEADER = "T,residual,omega,bound,floor"
SWEEP_ROWS = 10  # the sweeps' default --points
VERIFY_HEADER = "check,s,r,labels,value,required_zero,pass"
# Exhaustive row count of `verify --check homogenization --check correspondence
# --N 3 --m 1`: 1,155 non-exempt homogenization tuples plus one correspondence
# row.  A verifier that skipped tuples would fail this check.
VERIFY_ROWS = 1156
SPECTRUM_HEADER = "T,x_udd,y_udd,yL2_udd,x_periodic,y_periodic,yL2_periodic"
SPECTRUM_ROWS = 100


def _table(text: str, header: str, rows: int) -> tuple[list[list[str]] | None, str | None]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None, f"unexpected header {lines[0] if lines else ''!r}"
    table = [line.split(",") for line in lines[1:]]
    if len(table) != rows:
        return None, f"{len(table)} rows, expected {rows}"
    width = header.count(",") + 1
    if any(len(row) != width for row in table):
        return None, "ragged row"
    return table, None


def _finite(field: str) -> bool:
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


def check_sweep(text: str) -> str | None:
    """Exit 0 already puts the slope in [N+0.7, N+1.5]; rows must be finite."""
    table, err = _table(text, SWEEP_HEADER, SWEEP_ROWS)
    if err:
        return err
    for T, residual, omega, bound, floor in table:
        if not (_finite(T) and _finite(residual)):
            return f"non-finite T or residual at T={T}"
        if any(f and not _finite(f) for f in (omega, bound)):
            return f"non-finite omega or bound at T={T}"
        if floor not in ("0", "1"):
            return f"bad floor flag {floor!r}"
    return None


def check_verify(text: str) -> str | None:
    table, err = _table(text, VERIFY_HEADER, VERIFY_ROWS)
    if err:
        return err
    failing = sum(1 for row in table if row[-1] != "1")
    return f"{failing} rows do not pass" if failing else None


def check_spectrum(text: str) -> str | None:
    table, err = _table(text, SPECTRUM_HEADER, SPECTRUM_ROWS)
    if err:
        return err
    noise_cols = [i for i, col in enumerate(SPECTRUM_HEADER.split(","))
                  if col.startswith("y_")]
    for row in table:
        if not all(_finite(f) for f in row):
            return f"non-finite value at T={row[0]}"
        if any(float(row[i]) < 0 for i in noise_cols):
            return f"negative added noise at T={row[0]}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    template: tuple[str, ...]  # "{seed}" is replaced by the operation's seed
    check: Callable[[str], str | None]

    def argv(self, op_seed: int, out_path: str) -> list[str]:
        return [a.format(seed=op_seed) for a in self.template] + ["--out", out_path]


WORKLOADS = {w.name: w for w in (
    Workload("sweep-const",
             ("homogenize-sweep", "--seed", "{seed}", "--N", "2", "--m", "1",
              "--nE", "2"),
             check_sweep),
    Workload("sweep-timedep",
             ("decouple-sweep", "--seed", "{seed}", "--N", "4", "--nS", "2",
              "--nE", "4", "--degree", "2", "--tmin", "1e-2", "--tmax", "3e-1"),
             check_sweep),
    # The conditions are fixed by N and m, so this workload has no seed.
    Workload("verify-nested",
             ("verify", "--check", "homogenization", "--check", "correspondence",
              "--N", "3", "--m", "1"),
             check_verify),
    Workload("spectrum-closed",
             ("spectrum", "--seed", "{seed}", "--nE", "64", "--L", "16",
              "--points", "100"),
             check_spectrum),
)}
