"""Closed-loop benchmark of the bosonic-dd command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one operation at a time.  An operation is one
``bosonic_dd.cli.main(argv)`` call in a fresh interpreter (see child.py), so
every operation pays the imports a user's CLI run pays and no cache survives
from one operation to the next.  Operation seeds are derived from --seed;
the program receives only the generated argv.  Every operation's CSV is
checked (workloads.py); a failed operation is never retried.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 operations run in pairs, traced and untraced with the same argv,
and the last line carries the per-layer metrics of BENCHMARK.json.  A full
report (provenance, every operation's argv, CSV sha256 and counts) is
written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

MIN_OPS = 11          # the tail needs at least 10 samples above it
TRACE_COUNT_OPS = 3   # count metrics: mean over the first traced operations
HARD_STOP_S = 90.0    # start no operation after this, whatever the minimum
OP_TIMEOUT_S = 30.0   # a traced step runs two operations: 90 + 2 * 30 < 180


def op_seed(workload: str, seed: int, i: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2 ** 31


# One operation runs at a time on small (4-32-dim) matrices, where BLAS
# worker threads only spin; a spinning worker slows the measured thread and
# widens the run-to-run spread (see README.md).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(write_bytecode: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BDD_THREADS", None)  # keeps the sweep pool at its default of 1
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], trace: bool, op_id: int, spans: str | None,
          write_bytecode: bool = False) -> tuple[dict | None, float, str]:
    """Run one child; returns (record, spawn stamp, stderr tail)."""
    RESULTS.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    result_path = RESULTS / "tmp" / "record.json"
    result_path.unlink(missing_ok=True)
    spec = {"src": str(SRC), "result": str(result_path), "trace": int(trace),
            "op_id": op_id, "spans": spans, "argv": argv}
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                            cwd=ROOT, env=child_env(write_bytecode), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, spawned, "timeout"
    if proc.returncode != 0 or not result_path.is_file():
        return None, spawned, (err or "").strip()[-500:] or f"child exit {proc.returncode}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), spawned, (err or "").strip()[-500:]


def run_op(wl: Workload, seed: int, i: int, trace: bool, spans: str | None) -> dict:
    s = op_seed(wl.name, seed, i)
    out = RESULTS / "tmp" / "op.csv"
    out.unlink(missing_ok=True)
    argv = wl.argv(s, str(out.relative_to(ROOT)))
    record, spawned, stderr = spawn(argv, trace, i, spans)
    op = {"i": i, "op_seed": s, "argv": argv, "traced": trace, "ok": False,
          "reason": None, "setup_s": None, "op_s": None, "ref_s": None, "op_ref": None,
          "rss_mb": None}
    if record is None:
        op["reason"] = f"no result: {stderr}"
        return op
    op.update(setup_s=record["ready"] - spawned, op_s=record["end"] - record["start"],
              ref_s=record["ref_s"], rss_mb=record["maxrss_mb"], exit=record["exit"])
    op["op_ref"] = op["op_s"] / op["ref_s"]
    if record["exit"] != 0:
        op["reason"] = record.get("error") or f"exit {record['exit']}: {stderr}"
        return op
    if not out.is_file():
        op["reason"] = "no CSV written"
        return op
    data = out.read_bytes()
    op["sha256"] = hashlib.sha256(data).hexdigest()
    op["csv_bytes"] = len(data)
    if trace:
        op["counts"] = dict(record["counts"], **{"cli.csv_bytes": len(data)})
        op["times"] = record["times"]
    op["reason"] = wl.check(data.decode("utf-8"))
    op["ok"] = op["reason"] is None
    return op


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least 10 samples above it (nearest rank)."""
    ordered = sorted(values)
    rank = max(len(ordered) - 10, 1)
    return (ordered[rank - 1] if ordered else 0.0), rank


def end_to_end(ops: list[dict]) -> tuple[dict, dict]:
    """Operation times in seconds and in calibration units (see README.md).

    An operation's ``op_ref`` is its ``cli.main`` time over ``ref_s``, the
    mean time of the calibration loop its own process ran just before and
    just after it (child.py).  A host running
    slower for a while slows both, so the ratio keeps the program's cost
    and drops most of the host's drift; the metrics BENCHMARK.json bounds
    are the ``_ref`` ones.
    """
    ok = [op for op in ops if op["ok"]]
    n = len(ok)
    timed = [op for op in ops if op["op_s"] is not None]
    metrics = {
        "setup_s": median([op["setup_s"] for op in ops if op["setup_s"] is not None]),
        "ok_ratio": n / len(ops),
        "peak_rss_mb": median([op["rss_mb"] for op in ops if op["rss_mb"] is not None]),
        "ref_p50_s": median([op["ref_s"] for op in timed]),
    }
    for unit, key in (("s", "op_s"), ("ref", "op_ref")):
        values = [op[key] for op in ok]
        total = sum(op[key] for op in timed)
        metrics[f"op_p50_{unit}"] = median(values)
        metrics[f"op_tail_{unit}"], rank = tail(values)
        metrics[f"ops_per_{unit}"] = n / total if total else 0.0
    tail_info = {"percentile": 100.0 * rank / n if n else None, "samples": n,
                 "samples_above": n - rank if n else 0}
    return metrics, tail_info


def per_layer(ops: list[dict]) -> dict:
    traced = [op for op in ops if op["traced"] and op["ok"]]
    untraced = [op for op in ops if not op["traced"] and op["ok"]]
    first = traced[:TRACE_COUNT_OPS]
    metrics: dict[str, float] = {}
    for name in (first[0]["counts"] if first else {}):
        metrics[name] = statistics.fmean(op["counts"][name] for op in first)
    for name in (traced[0]["times"] if traced else {}):
        metrics[name] = median([op["times"][name] for op in traced])
    traced_p50 = median([op["op_s"] for op in traced])
    metrics["trace.op_p50_s"] = traced_p50
    metrics["trace.overhead_s"] = traced_p50 - median([op["op_s"] for op in untraced])
    return metrics


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bosonic_dd" / "cli.py").is_file():
        print(f"error: no bosonic_dd sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    # warm-up: writes the bytecode cache, even where the environment turns
    # that off, and loads shared libraries once; an installed CLI has
    # already paid both
    warm, _, err = spawn([], False, -1, None, write_bytecode=True)
    if warm is None:
        print(f"error: interpreter warm-up failed: {err}", file=sys.stderr)
        return 2
    if Path(warm["package"]).resolve() != (SRC / "bosonic_dd").resolve():
        print(f"error: imported bosonic_dd from {warm['package']}, not {SRC}",
              file=sys.stderr)
        return 2

    ops: list[dict] = []
    start = time.monotonic()
    i = 0
    step_s = 0.0  # wall time of the last loop step
    while True:
        now = time.monotonic()
        elapsed = now - start
        done = i >= (TRACE_COUNT_OPS if args.trace else MIN_OPS)
        # stop when the next step would overrun --seconds
        if elapsed >= HARD_STOP_S or (elapsed + step_s >= args.seconds and done):
            break
        if args.trace:
            # traced and untraced in alternating order, so neither always runs first
            spans = str(RESULTS / f"{tag}-spans.json") if i == 0 else None
            pair = [True, False] if i % 2 == 0 else [False, True]
            for traced in pair:
                ops.append(run_op(wl, args.seed, i, traced, spans if traced else None))
        else:
            ops.append(run_op(wl, args.seed, i, False, None))
        step_s = time.monotonic() - now
        i += 1
    measured_s = time.monotonic() - start

    if args.trace:
        metrics = per_layer(ops)
        tail_info = None
    else:
        metrics, tail_info = end_to_end(ops)
    failed = sum(1 for op in ops if not op["ok"])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not failed:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "provenance": {
            "nproc": os.cpu_count(),
            "versions": warm["versions"],
            "git": git_state(),
            "thread_env": warm["thread_env"],
            "executable": Path(sys.executable).name,
        },
        "tail": tail_info,
        "all_metrics": metrics,
        "ops": ops,
        "failures": [{"i": op["i"], "reason": op["reason"]} for op in ops if not op["ok"]],
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    for f in report["failures"]:
        print(f"failed op {f['i']}: {f['reason']}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
