"""Defect of Gaussian random spherical harmonics on S^d.

The defect of a field T is the signed measure of its positive minus its
negative region, D = integral of sign(T).  For the random degree-l
eigenfunction of the sphere Laplacian this package computes the exact
chaos-series variance with certified truncation error, the limiting
constant C_d by two independent routes, Gaunt-coefficient identities and
the circulant fourth-cumulant reduction, and seeded Monte Carlo CLT
diagnostics.
"""

from . import chaos, harmonics, montecarlo, specfun, spherequad
from .chaos import (
    chaos_weight,
    c_coefficient,
    constant_estimate,
    defect_constant_lower_bound,
    exact_variance,
    facile_check,
    variance_closed_form,
)
from .harmonics import (
    build_basis,
    circulant_closed,
    circulant_sum,
    cum4_ratio,
    gaunt_table,
    lemcg_check,
)
from .montecarlo import (
    clt_experiment,
    defect_estimate,
    sample_field,
    wasserstein1_empirical,
)
from .specfun import (
    eigenspace_dim,
    gegenbauer,
    scaled_bessel,
    sphere_surface,
)
from .spherequad import (
    build_grid,
    cubic_integral,
    gauss_legendre,
    gegenbauer_moment,
)

__version__ = "0.9.0"
