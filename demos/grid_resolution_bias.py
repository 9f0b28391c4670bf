"""Why the Monte Carlo grids are denser than the Nyquist rule demands.

The defect estimator integrates sign(T) over a quadrature grid.  sign is
not a polynomial, so polynomial exactness is only a floor: the discrete
defect variance sum_{xy} w_x w_y (2/pi) arcsin G_l(<x,y>) carries a
diagonal self-pair excess of order sum w_x^2, inflating the variance by
tens of percent on a bare 4l+19-exact grid at moderate l.  On a product
rule (polar Gauss-Legendre times uniform azimuth) the kernel depends on
the azimuth difference only, so the full double sum collapses to one
azimuth offset loop and can be evaluated exactly.  The shipped default
of degree 20l keeps the bias under a percent.
"""

import math

import numpy as np

from sphdefect.chaos import exact_variance
from sphdefect.montecarlo import default_degree, nyquist_degree
from sphdefect.specfun import gegenbauer
from sphdefect.spherequad import gauss_legendre

print(__doc__)


def discrete_sign_variance(l: int, degree: int) -> float:
    """Exact sum_{xy} w_x w_y (2/pi) arcsin G_l(<x,y>) on a product grid."""
    c, w = gauss_legendre(degree // 2 + 1)
    s = np.sqrt(1.0 - c * c)
    n_az = degree + 1
    w_az = 2.0 * math.pi / n_az
    cc = np.outer(c, c)
    ss = np.outer(s, s)
    total = 0.0
    for cos_phi in np.cos(2.0 * math.pi * np.arange(n_az) / n_az):
        t = np.clip(cc + ss * cos_phi, -1.0, 1.0)
        k = np.arcsin(gegenbauer(2, l, t))
        total += float(w @ k @ w)
    return (2.0 / math.pi) * n_az * w_az**2 * total


l = 20
exact = exact_variance(2, l, tol=1e-6).value
print(f"d=2, l={l}: exact Var(D_l) = {exact:.8f}")
print(f"{'grid degree':>12} {'discrete Var':>13} {'ratio to exact':>15}")
for degree in (nyquist_degree(l), 199, 299, default_degree(l), 599):
    discrete = discrete_sign_variance(l, degree)
    print(f"{degree:>12} {discrete:>13.8f} {discrete / exact:>15.4f}")

print()
print(f"default_degree({l}) = {default_degree(l)}; the Nyquist floor "
      f"{nyquist_degree(l)} alone would overshoot the variance by ~34%.")
