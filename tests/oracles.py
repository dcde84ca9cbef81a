"""Reference computations the tests compare the library against."""

import cmath


def weyl_sum_bruteforce(m: int, nu) -> complex:
    """Direct summation over all root-of-unity tuples; oracle for `weyl_sum`."""
    nu = [int(x) for x in nu]
    total = 1.0 + 0j
    for nj in nu:
        total *= sum(cmath.exp(2j * cmath.pi * l * nj / m) for l in range(m))
    return total
