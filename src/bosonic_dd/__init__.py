"""Uhrig-type dynamical decoupling and homogenization for bosonic systems.

Subpackages:

* :mod:`bosonic_dd.symplectic` - dense symplectic linear algebra utilities
* :mod:`bosonic_dd.pauli_basis` - tensor-product parametrization of sp(2*2^m)
* :mod:`bosonic_dd.schedules` - Uhrig / nested / bosonic pulse schedules
* :mod:`bosonic_dd.dyson` - exact iterated integrals and vanishing conditions
* :mod:`bosonic_dd.evolution` - time-ordered symplectic propagation, sweeps
* :mod:`bosonic_dd.spin_boson` - exact single-mode-plus-bath Gaussian channel
* :mod:`bosonic_dd.cli` - command-line front end
"""

import numpy.random  # numpy 2 loads it lazily; load it at import time

from .symplectic import (
    ModeLayout,
    symplectic_form,
    is_symplectic,
    matrix_exponential,
    block_decompose,
    offdiag_residual,
    spectral_norm,
)
from .pauli_basis import (
    s_matrix,
    gamma_set,
    gamma_tilde_set,
    symplectic_inner_product,
    product_index,
    expand_in_basis,
    verify_adjoint_action,
)
from .schedules import (
    PulseSchedule,
    udd_times,
    decoupling_schedule,
    flip_train_schedule,
    qubit_nudd_schedule,
    substitute_bosonic,
    homogenization_schedule,
    toggling_sign_function,
    write_schedule,
    read_schedule,
)
from .dyson import (
    iterated_integral,
    check_udd_condition,
    check_qubit_nudd_condition,
    check_homogenization_condition,
    verify_qubit_bosonic_correspondence,
)
from .evolution import (
    AnalyticGenerator,
    propagate,
    resulting_evolution,
    homogenization_fit,
    order_sweep,
    decoupling_error_bound,
    generator_block_norms,
    affine_propagate,
    random_generator,
)
from .spin_boson import (
    BathSpec,
    y_filter,
    shear_parameter,
    added_noise,
    thermal_covariance,
    cross_validate,
    even_flip_train,
)

__version__ = "0.1.0"
