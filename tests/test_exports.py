"""The public names of ``bosonic_dd``, pinned: adding or removing an export
is a deliberate edit of this set, recorded in CHANGES.md."""

import types

import bosonic_dd

EXPORTS = {
    # symplectic
    "ModeLayout", "block_decompose", "is_in_sp_algebra", "is_symplectic",
    "matrix_exponential", "offdiag_residual", "spectral_norm", "symplectic_form",
    # pauli_basis
    "MultiIndex", "expand_in_basis", "gamma_set", "gamma_tilde_set", "product_index",
    "pulse_index", "pulse_matrix", "s_matrix", "symplectic_inner_product",
    "verify_adjoint_action",
    # schedules
    "PiecewiseSignFunction", "PulseSchedule", "decoupling_schedule",
    "flip_train_schedule", "homogenization_schedule", "qubit_nudd_schedule",
    "read_schedule", "substitute_bosonic", "toggling_sign_function", "udd_times",
    "write_schedule",
    # dyson
    "check_bosonic_decoupling_condition", "check_homogenization_condition",
    "check_qubit_nudd_condition", "check_udd_condition", "iterated_integral",
    "verify_qubit_bosonic_correspondence",
    # evolution
    "AnalyticGenerator", "PropagatorConfig", "affine_propagate", "decoupling_error_bound",
    "generator_block_norms", "homogenization_fit", "order_sweep", "propagate",
    "random_generator", "resulting_evolution",
    # spin_boson
    "BathSpec", "ChannelParams", "added_noise", "channel_apply", "channel_params",
    "cross_validate", "even_flip_train", "f_filter", "shear_parameter",
    "thermal_covariance", "y_filter",
}


def test_public_names_are_pinned():
    public = {name for name, value in vars(bosonic_dd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - EXPORTS) == [], "unlisted export"
    assert sorted(EXPORTS - public) == [], "listed name not exported"
