"""One benchmark operation: a fresh interpreter running ``cli.main(argv)``.

Usage: ``python3 child.py SPEC_JSON`` where SPEC_JSON holds ``src`` (the
directory that contains the ``bosonic_dd`` package), ``result`` (where to
write this process's JSON record), ``trace`` (0 or 1), ``op_id``, ``spans``
(path for the span dump, or null) and ``argv`` (the CLI arguments; empty
means import only, which warms the bytecode cache).

The record holds monotonic-clock stamps: ``ready`` is taken after the
numpy, scipy and ``bosonic_dd`` imports and ``build_parser``, which every
CLI run pays; ``start``/``end`` bracket ``cli.main``.  The parent spawns the
process and so owns the spawn stamp.  ``ref_s`` is the mean time of a fixed
calibration loop run just before and just after ``cli.main``: it tells the
parent how fast the host ran while the operation did.
"""

import cmath
import json
import os
import re
import resource
import sys
import time
import traceback

# The calibration loop: complex arithmetic in pure Python, timed just
# before and just after ``cli.main``.  About 60 ms on a 2-core KVM guest.
# It calls neither bosonic_dd nor numpy or scipy, so it warms nothing the
# operation uses, and a change to the program leaves it as it is.
CAL_LOOP = 200_000


def calibrate() -> float:
    start = time.perf_counter()
    z = 0j
    for k in range(CAL_LOOP):
        z += cmath.exp(1j * (k * 1e-3)) * 0.5
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import numpy  # noqa: F401  (imported by the CLI; named for the record)
    import scipy
    import bosonic_dd
    from bosonic_dd import cli

    cli.build_parser()
    ready = time.monotonic()
    record = {
        "ready": ready,
        "package": os.path.dirname(os.path.abspath(bosonic_dd.__file__)),
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if re.search(r"THREAD|^OMP_|OPENBLAS|^MKL_|^BLIS|VECLIB", k)},
    }
    if spec["argv"]:
        ref_before = calibrate()
        tracer = None
        main_fn = cli.main
        if spec["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import tracer as tracing

            tracer = tracing.Tracer(spec["op_id"])
            tracer.install("bosonic_dd")
            main_fn = tracer.wrap(cli.main, tracing.ROOT_SPAN)
        start = time.monotonic()
        try:
            record["exit"] = main_fn(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            record["exit"] = exc.code
        except Exception:
            record["exit"] = None
            record["error"] = traceback.format_exc(limit=5)
        record["start"], record["end"] = start, time.monotonic()
        record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["ref_s"] = (ref_before + calibrate()) / 2
        if tracer is not None:
            record["counts"], record["times"] = tracing.layer_metrics(tracer)
            if spec["spans"]:
                with open(spec["spans"], "w", encoding="utf-8") as fh:
                    json.dump(tracer.dump(), fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
