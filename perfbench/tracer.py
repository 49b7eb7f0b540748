"""In-memory span tracer for one bosonic-dd operation.

Each function is wrapped at the module attribute its caller looks up.
``evolution`` imported ``matrix_exponential`` by name, so wrapping
``symplectic.matrix_exponential`` would record zero calls; the wrapper goes
on ``evolution.matrix_exponential`` instead.  Spans are kept in memory as
``[name, parent, start, end]``; self and busy times are derived from them
after the operation ends, outside its timed region.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name, keep call arguments for derived counts)
PATCH_POINTS = (
    ("evolution", "matrix_exponential", "symplectic.matrix_exponential", False),
    ("evolution", "propagate", "evolution.propagate", False),
    ("evolution", "resulting_evolution", "evolution.resulting_evolution", False),
    ("evolution", "order_sweep", "evolution.order_sweep", True),
    ("evolution", "s_matrix", "pauli_basis.s_matrix", False),
    ("evolution", "homogenization_schedule", "schedules.build", False),
    ("evolution", "decoupling_schedule", "schedules.build", False),
    ("dyson", "homogenization_schedule", "schedules.build", False),
    ("dyson", "qubit_nudd_schedule", "schedules.build", False),
    ("dyson", "substitute_bosonic", "schedules.build", False),
    ("dyson", "toggling_sign_function", "schedules.toggling_sign_function", False),
    ("dyson", "iterated_integral", "dyson.iterated_integral", True),
    ("dyson", "check_homogenization_condition", "dyson.check", False),
    ("dyson", "verify_qubit_bosonic_correspondence", "dyson.check", False),
    ("spin_boson", "resulting_evolution", "evolution.resulting_evolution", False),
    ("spin_boson", "shear_parameter", "spin_boson.shear_parameter", True),
    ("spin_boson", "added_noise", "spin_boson.added_noise", True),
    ("spin_boson", "pair_shear", "spin_boson.pair_shear", False),
    ("spin_boson", "y_filter", "spin_boson.y_filter", False),
)

ROOT_SPAN = "cli"


class Tracer:
    """Records one span per wrapped call; one tracer serves one operation."""

    def __init__(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans: list[list] = []
        self.call_args: dict[int, tuple] = {}
        self._stack: list[int] = []

    def install(self, package: str) -> None:
        for module_name, attr, name, keep_args in PATCH_POINTS:
            module = importlib.import_module(f"{package}.{module_name}")
            setattr(module, attr, self.wrap(getattr(module, attr), name, keep_args))

    def wrap(self, fn, name: str, keep_args: bool = False):
        spans, stack, call_args = self.spans, self._stack, self.call_args
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            if keep_args:
                call_args[idx] = (args, kwargs)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    def dump(self) -> dict:
        return {"op_id": self.op_id, "fields": ["name", "parent", "start", "end"],
                "spans": self.spans}


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _per_name(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, busy (outermost spans of a name) and self time per span name."""
    n = len(spans)
    dur = [end - start for _, _, start, end in spans]
    covered = [0.0] * n
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    out: dict[str, dict[str, float]] = {}
    for i, (name, parent, _, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += dur[i] - covered[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            agg["busy_s"] += dur[i]
    return out


def _layer_busy(spans: list[list], prefix: str) -> float:
    """Time covered by spans whose name starts with ``prefix``, counted once."""
    total = 0.0
    for name, parent, start, end in spans:
        if not name.startswith(prefix):
            continue
        p = parent
        while p >= 0 and not spans[p][0].startswith(prefix):
            p = spans[p][1]
        if p < 0:
            total += end - start
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-operation layer numbers as (counts, times).

    Counts depend only on the operation's inputs and repeat exactly; times
    are wall-clock seconds (or rates derived from them).
    """
    spans = tracer.spans
    agg = _per_name(spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    root_s = get(ROOT_SPAN, "busy_s")
    expm_calls = get("symplectic.matrix_exponential", "calls")
    expm_busy = get("symplectic.matrix_exponential", "busy_s")

    grid_points = 0
    stages = 0
    interval_stages = 0
    prefixes: set = set()
    line_points = 0
    for idx, (args, kwargs) in tracer.call_args.items():
        name = spans[idx][0]
        if name == "evolution.order_sweep":
            grid_points += len(_arg(args, kwargs, 3, "T_grid"))
        elif name == "dyson.iterated_integral":
            signs = _arg(args, kwargs, 0, "signs")
            powers = _arg(args, kwargs, 1, "powers")
            extra = kwargs.get("extra_breaks", args[2] if len(args) > 2 else ())
            grid = {0.0, 1.0, *(float(b) for b in extra)}
            for F in signs:
                grid.update(F.flips)
            stages += len(signs)
            interval_stages += len(signs) * (len(grid) - 1)
            prefix: tuple = ()
            for F, r in zip(signs, powers):
                prefix += ((F.flips, int(r)),)
                prefixes.add(prefix)
        elif name in ("spin_boson.shear_parameter", "spin_boson.added_noise"):
            line_points += _arg(args, kwargs, 1, "bath").n_modes

    counts = {
        "symplectic.matrix_exponential.calls": expm_calls,
        "evolution.resulting_evolution.calls": get("evolution.resulting_evolution", "calls"),
        "evolution.propagate.calls": get("evolution.propagate", "calls"),
        "evolution.evolutions_per_point": _ratio(
            get("evolution.resulting_evolution", "calls"), grid_points),
        "evolution.expm_per_segment": _ratio(
            expm_calls, get("evolution.propagate", "calls")),
        "dyson.iterated_integral.calls": get("dyson.iterated_integral", "calls"),
        "dyson.stages": stages,
        "dyson.distinct_prefixes": len(prefixes),
        "dyson.prefix_reuse": _ratio(stages, len(prefixes)),
        "dyson.intervals_per_stage": _ratio(interval_stages, stages),
        "spin_boson.shear_parameter.calls": get("spin_boson.shear_parameter", "calls"),
        "spin_boson.added_noise.calls": get("spin_boson.added_noise", "calls"),
        "spin_boson.y_filter.calls": get("spin_boson.y_filter", "calls"),
        "spin_boson.pair_shear.calls": get("spin_boson.pair_shear", "calls"),
        "schedules.build.calls": get("schedules.build", "calls"),
        "schedules.toggling_sign_function.calls": get(
            "schedules.toggling_sign_function", "calls"),
        "pauli_basis.s_matrix.calls": get("pauli_basis.s_matrix", "calls"),
        "trace.spans": len(spans),
    }
    spin_boson_busy = _layer_busy(spans, "spin_boson.")
    iterated_busy = get("dyson.iterated_integral", "busy_s")
    times = {
        "symplectic.matrix_exponential.busy_s": expm_busy,
        "symplectic.matrix_exponential.us_per_call": 1e6 * _ratio(expm_busy, expm_calls),
        "symplectic.matrix_exponential.share": _ratio(expm_busy, root_s),
        "evolution.propagate.self_s": get("evolution.propagate", "self_s"),
        "evolution.order_sweep.self_s": get("evolution.order_sweep", "self_s"),
        "dyson.check.self_s": get("dyson.check", "self_s"),
        "dyson.iterated_integral.busy_s": iterated_busy,
        "dyson.iterated_integral.share": _ratio(iterated_busy, root_s),
        "dyson.us_per_stage": 1e6 * _ratio(iterated_busy, stages),
        "spin_boson.shear_parameter.self_s": get("spin_boson.shear_parameter", "self_s"),
        "spin_boson.added_noise.self_s": get("spin_boson.added_noise", "self_s"),
        "spin_boson.y_filter.busy_s": get("spin_boson.y_filter", "busy_s"),
        "spin_boson.pair_shear.busy_s": get("spin_boson.pair_shear", "busy_s"),
        "spin_boson.line_points_per_s": _ratio(line_points, spin_boson_busy),
        "spin_boson.share": _ratio(spin_boson_busy, root_s),
        "schedules.build.busy_s": get("schedules.build", "busy_s"),
        "schedules.toggling_sign_function.busy_s": get(
            "schedules.toggling_sign_function", "busy_s"),
        "pauli_basis.s_matrix.busy_s": get("pauli_basis.s_matrix", "busy_s"),
        "cli.self_s": get(ROOT_SPAN, "self_s"),
    }
    return counts, times

