"""The public names of ``bosonic_dd`` and the parameter names of every
exported callable, pinned: adding or removing an export or a parameter is a
deliberate edit of these tables, recorded in CHANGES.md."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import bosonic_dd

EXPORTS = {
    # symplectic
    "ModeLayout", "block_decompose", "is_in_sp_algebra", "is_symplectic",
    "matrix_exponential", "offdiag_residual", "spectral_norm", "symplectic_form",
    # pauli_basis
    "expand_in_basis", "gamma_set", "gamma_tilde_set", "product_index",
    "pulse_index", "pulse_matrix", "s_matrix", "symplectic_inner_product",
    "verify_adjoint_action",
    # schedules
    "PulseSchedule", "decoupling_schedule", "flip_train_schedule",
    "homogenization_schedule", "qubit_nudd_schedule", "read_schedule",
    "substitute_bosonic", "toggling_sign_function", "udd_times", "write_schedule",
    # dyson
    "check_homogenization_condition", "check_qubit_nudd_condition",
    "check_udd_condition", "iterated_integral", "verify_qubit_bosonic_correspondence",
    # evolution
    "AnalyticGenerator", "affine_propagate", "decoupling_error_bound",
    "generator_block_norms", "homogenization_fit", "order_sweep", "propagate",
    "random_generator", "resulting_evolution",
    # spin_boson
    "BathSpec", "added_noise", "cross_validate", "even_flip_train",
    "shear_parameter", "thermal_covariance", "y_filter",
}

# parameter names of every exported callable
SIGNATURES = {
    # symplectic
    "block_decompose": "M, layout",
    "is_in_sp_algebra": "X, J, tol",
    "is_symplectic": "S, J, tol",
    "matrix_exponential": "X",
    "ModeLayout": "n_system, n_env",
    "offdiag_residual": "M, layout",
    "spectral_norm": "M",
    "symplectic_form": "layout",
    # pauli_basis
    "expand_in_basis": "X, m",
    "gamma_set": "m",
    "gamma_tilde_set": "m",
    "product_index": "alphas",
    "pulse_index": "axis, qubit, m",
    "pulse_matrix": "axis, qubit, m",
    "s_matrix": "alpha",
    "symplectic_inner_product": "alpha, beta",
    "verify_adjoint_action": "m",
    # schedules
    "decoupling_schedule": "n_pulses, n_system",
    "flip_train_schedule": "deltas, n_system, order, scheme",
    "homogenization_schedule": "n_pulses, m",
    "PulseSchedule": "scheme, order, deltas, pulses, signs, m, n_system",
    "qubit_nudd_schedule": "n_pulses, m",
    "read_schedule": "stream",
    "substitute_bosonic": "qubit",
    "toggling_sign_function": "schedule, alpha",
    "udd_times": "n_pulses",
    "write_schedule": "schedule, stream",
    # dyson
    "check_homogenization_condition": "order, m, tol",
    "check_qubit_nudd_condition": "order, m, tol",
    "check_udd_condition": "order, tol",
    "iterated_integral": "signs, powers",
    "verify_qubit_bosonic_correspondence": "order, m",
    # evolution
    "affine_propagate": "gen, M0, d0, T, tol, schedule",
    "AnalyticGenerator": "layout, coeffs, linear",
    "decoupling_error_bound": "j0, jz, order, t_total",
    "generator_block_norms": "gen",
    "homogenization_fit": "S_sys, T",
    "order_sweep": "gen, scheme, order, T_grid, tol",
    "propagate": "gen, t0, t1, tol",
    "random_generator": "layout, seed, scale_ss, scale_se, scale_ee, degree",
    "resulting_evolution": "gen, schedule, T, tol",
    # spin_boson
    "added_noise": "total_time, bath, deltas",
    "BathSpec": "couplings, frequencies, beta",
    "cross_validate": "bath, deltas, total_time",
    "even_flip_train": "n_pulses",
    "shear_parameter": "total_time, bath, deltas",
    "thermal_covariance": "bath",
    "y_filter": "z, deltas",
}


def test_public_names_are_pinned():
    public = {name for name, value in vars(bosonic_dd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - EXPORTS) == [], "unlisted export"
    assert sorted(EXPORTS - public) == [], "listed name not exported"


def test_exported_signatures_are_pinned():
    assert sorted(EXPORTS ^ set(SIGNATURES)) == [], "callable without a pinned signature"
    actual = {name: ", ".join(inspect.signature(getattr(bosonic_dd, name)).parameters)
              for name in SIGNATURES}
    assert actual == SIGNATURES


def test_tracer_patch_points_resolve():
    # the benchmark tracer wraps these module attributes by name; its source is
    # parsed, not imported, so the check runs none of it and writes nothing
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    points = next(ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["PATCH_POINTS"])
    assert points
    missing = [f"{module}.{attr}" for module, attr, *_ in points
               if not callable(getattr(importlib.import_module(f"bosonic_dd.{module}"),
                                       attr, None))]
    assert missing == []
