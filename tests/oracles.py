"""Reference computations the tests compare the library against."""

import cmath
import math

from tropdyn.tropical import FLOAT_TIE_TOL


def weyl_sum_bruteforce(m: int, nu) -> complex:
    """Direct summation over all root-of-unity tuples; oracle for `weyl_sum`."""
    nu = [int(x) for x in nu]
    total = 1.0 + 0j
    for nj in nu:
        total *= sum(cmath.exp(2j * cmath.pi * l * nj / m) for l in range(m))
    return total


def log_abs_power_pullback_scalar(f, x, theta, m: int) -> float:
    """log|f(z^m)| for z_j = exp(-x_j + i theta_j), one point at a time with cmath.

    Oracle for the batched `log_abs_power_pullback`, which must equal it bit
    for bit and mask exactly the points where this raises ZeroDivisionError.
    """
    parts = []
    for exp, coeff in f.terms:
        L = math.log(abs(coeff)) - m * sum(e * xj for e, xj in zip(exp, x))
        ph = cmath.phase(coeff) + m * sum(e * tj for e, tj in zip(exp, theta))
        parts.append((L, ph))
    top = max(L for L, _ in parts)
    val = sum(cmath.exp(complex(L - top, ph)) for L, ph in parts)
    if abs(val) < 1e-280:
        raise ZeroDivisionError("hit a zero of f(z^m)")
    return top + math.log(abs(val))


def eval_tropical_float_scalar(q, x):
    """(value, argmax) of q at one float point, term by term in plain Python.

    Oracle for the batched float path of `eval_tropical`.
    """
    vals = [(sum(float(xi) * e_i for xi, e_i in zip(x, e)) + float(c), e) for e, c in q.terms]
    top = max(v for v, _ in vals)
    tol = FLOAT_TIE_TOL * max(1.0, abs(top))
    return top, tuple(sorted(e for v, e in vals if top - v <= tol))


def compensated_sum(values) -> float:
    """sum() of floats as Python 3.12 and later add them (Neumaier compensation).

    Oracle for `builtin_sum(..., compensated=True)` on interpreters whose own
    sum() does not compensate.
    """
    total, comp = 0.0 + values[0], 0.0
    for x in values[1:]:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total
