"""Integrating a slowly-decaying oscillation out to infinity.

The chaos coefficients c_{2q+1;d} = int_0^inf Jt_d(psi)^(2q+1) psi^(d-1)
dpsi converge only conditionally: the integrand decays like a power times
an oscillation.  Chopping the axis at the Bessel-kernel zeros turns the
integral into an alternating-ish series of lobe contributions, and
repeated pairwise averaging (Euler acceleration) of its partial sums
converges geometrically.  This script shows the raw partial sums
stalling while the accelerated values lock in, and ends with the q = 1
closed-form cross-check.
"""

import math

import numpy as np

from sphdefect.chaos import _accelerate, _c_batch, c3_closed, c_coefficient

print(__doc__)

d, q = 2, 1
lobes = _c_batch(d, [q], 40)[0]
partial = np.cumsum(lobes)
exact = c3_closed(d)

print(f"lobe partial sums vs accelerated values, d={d}, q={q} "
      f"(exact {exact:.15f}):")
print(f"  {'lobes':>6} {'raw partial sum':>20} {'raw error':>12} "
      f"{'accelerated':>20} {'acc. error':>12}")
for n in (6, 10, 16, 24, 32, 40):
    acc = float(_accelerate(lobes[:n])[0])
    print(f"  {n:>6} {partial[n - 1]:>20.15f} "
          f"{abs(partial[n - 1] - exact):>12.2e} "
          f"{acc:>20.15f} {abs(acc - exact):>12.2e}")

print()
print("the same machinery across dimensions and chaos orders:")
for d in (2, 3, 4, 5):
    row = ", ".join(f"q={q}: {c_coefficient(d, q):.10f}" for q in (1, 2, 3))
    print(f"  d={d}: {row}")

print()
print(f"closed form at q=1, d=2: 2/(pi sqrt(3)) = "
      f"{2.0 / (math.pi * math.sqrt(3.0)):.15f}")
print(f"quadrature reproduces it to "
      f"{abs(c_coefficient(2, 1) - c3_closed(2)):.1e}")
