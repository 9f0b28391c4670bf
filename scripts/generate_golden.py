"""Regenerate the frozen reference values in tests/golden/.

High-precision oracles computed with mpmath (arbitrary precision) and sympy
(exact rational/symbolic arithmetic), independently of the package's own
numerics: Bessel kernels via mpmath.besselj, oscillatory infinite integrals
via mpmath.quadosc between exact Bessel zeros, variance integrals via the
closed arcsin form with exact polynomial coefficients, triple Legendre
integrals and Wigner 3j squares as exact rationals.

Run from the repository root:  python scripts/generate_golden.py
"""

import json
import math
import os
from fractions import Fraction

import mpmath as mp
import sympy as sym

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "golden")
mp.mp.dps = 40


def write(name, obj):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    print("wrote", path)


def scaled_bessel_mp(d, psi):
    nu = mp.mpf(d) / 2 - 1
    if psi == 0:
        return mp.mpf(1)
    return 2**nu * mp.gamma(nu + 1) * mp.besselj(nu, psi) / mp.mpf(psi) ** nu


def gen_bessel():
    psis = [0.0, 0.05, 0.3, 1.0, 2.404825557695773, 5.2, 11.62, 27.49, 54.0, 99.7]
    table = {}
    for d in (2, 3, 4, 5, 6):
        table[str(d)] = {repr(p): float(scaled_bessel_mp(d, mp.mpf(repr(p)))) for p in psis}
    write("bessel_scaled.json", table)


def weight_q(q):
    # (2/pi) (2q)! / (4^q (q!)^2 (2q+1)) as an exact rational times 2/pi
    r = Fraction(math.factorial(2 * q), 4**q * math.factorial(q) ** 2 * (2 * q + 1))
    return r


def gen_weights():
    ws = {str(q): float(mp.mpf(2) / mp.pi * mp.mpf(weight_q(q).numerator) / weight_q(q).denominator)
          for q in range(1, 61)}
    write("chaos_weights.json", {
        "w_q": ws,
        "sum_q_ge_1": float(1 - mp.mpf(2) / mp.pi),
    })


def c3_closed_mp(d):
    # (2^(d/2-1) Gamma(d/2))^3 * 3^(d/2-3/2) / (2^(3(d/2-1)-1) sqrt(pi) Gamma(d/2-1/2))
    dd = mp.mpf(d)
    num = (2 ** (dd / 2 - 1) * mp.gamma(dd / 2)) ** 3 * mp.mpf(3) ** (dd / 2 - mp.mpf(3) / 2)
    den = 2 ** (3 * (dd / 2 - 1) - 1) * mp.sqrt(mp.pi) * mp.gamma(dd / 2 - mp.mpf("0.5"))
    return num / den


def c_coeff_quadosc(d, q):
    nu = mp.mpf(d) / 2 - 1
    s = 2 * q + 1

    def f(psi):
        return scaled_bessel_mp(d, psi) ** s * psi ** (d - 1)

    if q <= 3:
        return mp.quadosc(f, [0, mp.inf], zeros=lambda n: mp.besseljzero(nu, int(n)))
    # at large q the first-lobe peak has width ~ sqrt(d/q): cut that lobe
    # at z_1 2^-k, k = 10..1, then the oscillatory tail from z_1
    z1 = mp.besseljzero(nu, 1)
    first = mp.quad(f, [0] + [z1 / 2 ** k for k in range(10, 0, -1)] + [z1])
    return first + mp.quadosc(f, [z1, mp.inf], zeros=lambda n: mp.besseljzero(nu, int(n) + 1))


def gen_c_coefficients():
    closed = {str(d): float(c3_closed_mp(d)) for d in (2, 3, 4, 5, 6)}
    quad = {}
    for d in (2, 3, 4, 5):
        quad[str(d)] = {}
        for q in (1, 2, 3, 100, 400):
            quad[str(d)][str(q)] = float(c_coeff_quadosc(d, q))
            print(f"  c_({2*q+1};{d}) = {quad[str(d)][str(q)]}")
    # closed form and oscillatory quadrature must agree at oracle precision
    for d in (2, 3, 4, 5):
        rel = abs(quad[str(d)]["1"] / closed[str(d)] - 1)
        assert rel < 1e-12, (d, rel)
    write("c_coefficients.json", {"c3_closed": closed, "quadosc": quad})


def sphere_surface_mp(d):
    return 2 * mp.pi ** (mp.mpf(d + 1) / 2) / mp.gamma(mp.mpf(d + 1) / 2)


def gen_constants():
    # C_d = (4/pi) |S^d| |S^(d-1)| * int_0^inf psi^(d-1) (arcsin(Jt) - Jt) dpsi
    vals = {}
    for d in (2, 3, 4, 5):
        nu = mp.mpf(d) / 2 - 1

        def f(psi, d=d):
            j = scaled_bessel_mp(d, psi)
            return psi ** (d - 1) * (mp.asin(j) - j)

        integral = mp.quadosc(f, [0, mp.inf],
                              zeros=lambda n: mp.besseljzero(nu, int(n)))
        c = 4 / mp.pi * sphere_surface_mp(d) * sphere_surface_mp(d - 1) * integral
        vals[str(d)] = float(c)
        print(f"  C_{d} = {vals[str(d)]}")
    # the d-independent lower bound check: C_d > 2 |S^d||S^(d-1)| w_1 c_{3;d}
    lower = {}
    for d in (2, 3, 4, 5):
        lb = 2 * sphere_surface_mp(d) * sphere_surface_mp(d - 1) \
            * (1 / (3 * mp.pi)) * c3_closed_mp(d)
        lower[str(d)] = float(lb)
        assert vals[str(d)] > lower[str(d)]
    write("constants.json", {"C_d": vals, "lower_bound": lower})


def gegenbauer_poly_exact(d, l):
    # normalized: value 1 at t = 1; exact rational coefficients
    t = sym.Symbol("t")
    lam = sym.Rational(d - 1, 2)
    p = sym.gegenbauer(l, lam, t)
    return sym.Poly(p / p.subs(t, 1), t)


def gen_variance():
    # Var = (4/pi) |S^d||S^(d-1)| int_0^(pi/2) (arcsin(G(cos x)) - G(cos x)) sin^(d-1) x dx
    out = {}
    for d, l in [(2, 2), (2, 4), (2, 10), (3, 2), (3, 6)]:
        poly = gegenbauer_poly_exact(d, l)
        coeffs = [mp.mpf(str(c)) for c in poly.all_coeffs()]

        def g(x):
            return mp.polyval(coeffs, mp.cos(x))

        def f(x):
            v = g(x)
            v = mp.mpf(1) if v > 1 else (mp.mpf(-1) if v < -1 else v)
            return (mp.asin(v) - v) * mp.sin(x) ** (d - 1)

        pts = mp.linspace(0, mp.pi / 2, 2 * l + 2)
        integral = mp.quad(f, pts)
        var = 4 / mp.pi * sphere_surface_mp(d) * sphere_surface_mp(d - 1) * integral
        out[f"{d},{l}"] = float(var)
        print(f"  Var(d={d}, l={l}) = {out[f'{d},{l}']}")
    write("variance.json", out)


def gen_triples():
    t = sym.Symbol("t")
    triples = {}
    for l in (2, 4, 6, 8):
        p = sym.legendre(l, t)
        val = sym.integrate(p**3, (t, -1, 1))
        triples[str(l)] = {"num": int(sym.nsimplify(val).p), "den": int(sym.nsimplify(val).q)}
        print(f"  int P_{l}^3 = {val}")
    # Wigner 3j (l l l; 0 0 0)^2, exact: J = 3l even
    w3j = {}
    for l in (2, 4):
        J = 3 * l
        val = (Fraction(math.factorial(l)) ** 3 / math.factorial(J + 1)) * \
            Fraction(math.factorial(J // 2), math.factorial(J // 2 - l) ** 3) ** 2
        w3j[str(l)] = {"num": val.numerator, "den": val.denominator}
        print(f"  3j({l},{l},{l};0,0,0)^2 = {val}")
    # cubic Gegenbauer integrals, exact closed forms
    cubic = {}
    x = sym.Symbol("x")
    for d, l in [(2, 2), (2, 4), (3, 2), (3, 4)]:
        pp = gegenbauer_poly_exact(d, l).as_expr().subs(t, x)
        integrand = pp**3 * (1 - x**2) ** sym.Rational(d - 2, 2)
        val = sym.integrate(sym.expand(integrand), (x, -1, 1))
        cubic[f"{d},{l}"] = float(sym.N(val, 30))
        print(f"  cubic({d},{l}) = {val} = {cubic[f'{d},{l}']}")
    write("exact_integrals.json", {"legendre_triple": triples, "wigner3j_000_sq": w3j,
                                   "cubic": cubic})


if __name__ == "__main__":
    os.makedirs(OUT, exist_ok=True)
    print("Bessel kernels ...")
    gen_bessel()
    print("chaos weights ...")
    gen_weights()
    print("c coefficients (oscillatory) ...")
    gen_c_coefficients()
    print("limit constants C_d ...")
    gen_constants()
    print("variance values ...")
    gen_variance()
    print("exact integrals ...")
    gen_triples()
    print("done.")
