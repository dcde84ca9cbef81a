"""Exact integer-lattice linear algebra.

Everything here works over arbitrary-precision Python ints (and Fractions for
the few rational solves), so determinants and lattice indices never overflow.
Vectors are tuples of ints; matrices are tuples of row tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


class LatticeError(ValueError):
    """Raised on invalid lattice-level input (zero vectors, non-faces, ...)."""


def _as_int_vector(v) -> IntVector:
    return tuple(int(c) for c in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def is_zero_vector(v) -> bool:
    return all(x == 0 for x in v)


def primitive(v) -> tuple[IntVector, int]:
    """Write ``v = length * prim`` with gcd(prim) = 1 and length >= 1.

    The primitive vector keeps the direction of ``v``.  Raises LatticeError on
    the zero vector, which has no direction.
    """
    v = _as_int_vector(v)
    g = 0
    for c in v:
        g = math.gcd(g, c)
    if g == 0:
        raise LatticeError("no primitive direction")
    return tuple(c // g for c in v), g


def identity(n) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D for unimodular U, V and diagonal D, d_i | d_{i+1} >= 0.

    Only U_inv is kept, the one transform callers read: M * V = U_inv * D, so
    its first rank columns span the saturation of M's column span.  Integer
    kernels come from the Hermite form (see integer_kernel).
    """

    D: IntMatrix
    U_inv: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k) if self.D[i][i] != 0)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(M) -> SmithDecomposition:
    """Smith normal form by elementary row/column reduction.

    Pivots on the minimal nonzero absolute value, which keeps intermediate
    entries small for the n <= 8 matrices this engine sees.  A row operation
    on A is undone by the inverse column operation on U_inv; column
    operations act on A alone.
    """
    A = [list(_as_int_vector(row)) for row in M]
    r = len(A)
    c = len(A[0]) if r else 0
    if any(len(row) != c for row in A):
        raise LatticeError("ragged matrix")
    Ui = [list(row) for row in identity(r)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        for row in Ui:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, k):
        # row dst += k * row src
        A[dst] = [x + k * y for x, y in zip(A[dst], A[src])]
        for row in Ui:
            row[src] -= k * row[dst]

    def add_col(dst, src, k):
        for row in A:
            row[dst] += k * row[src]

    t = 0
    while t < min(r, c):
        pivot = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            col = [i for i in range(t + 1, r) if A[i][t] != 0]
            if col:
                i0 = min([t] + col, key=lambda i: abs(A[i][t]))
                if i0 != t:
                    swap_rows(t, i0)
                for i in range(t + 1, r):
                    if A[i][t] != 0:
                        add_row(i, t, -(A[i][t] // A[t][t]))
                if any(A[i][t] for i in range(t + 1, r)):
                    continue
            row = [j for j in range(t + 1, c) if A[t][j] != 0]
            if row:
                j0 = min([t] + row, key=lambda j: abs(A[t][j]))
                if j0 != t:
                    swap_cols(t, j0)
                for j in range(t + 1, c):
                    if A[t][j] != 0:
                        add_col(j, t, -(A[t][j] // A[t][t]))
                if any(A[t][j] for j in range(t + 1, c)):
                    continue
            if not any(A[i][t] for i in range(t + 1, r)) and not any(
                A[t][j] for j in range(t + 1, c)
            ):
                # divisibility fix-up: the pivot must divide the whole block
                bad = None
                for i in range(t + 1, r):
                    for j in range(t + 1, c):
                        if A[i][j] % A[t][t] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                add_row(t, bad, 1)
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            for row in Ui:
                row[t] = -row[t]
        t += 1

    freeze = lambda m: tuple(tuple(row) for row in m)
    return SmithDecomposition(freeze(A), freeze(Ui))


@dataclass(frozen=True)
class QuotientLattice:
    """Z^n = (H cap Z^n) + complement, presenting Z^n / (H cap Z^n).

    ``sublattice_basis`` is a saturated basis of H cap Z^n (so the quotient is
    torsion-free) and together with ``complement_basis`` it forms a Z-basis of
    Z^n (determinant +-1).
    """

    ambient_dim: int
    sublattice_basis: tuple[IntVector, ...]
    complement_basis: tuple[IntVector, ...]

    @property
    def rank(self) -> int:
        return len(self.sublattice_basis)

    @property
    def quotient_rank(self) -> int:
        return len(self.complement_basis)

    def quotient_coords(self, v) -> IntVector:
        """Coordinates of the class of ``v`` in Z^n/(H cap Z^n)."""
        v = _as_int_vector(v)
        basis = list(self.sublattice_basis) + list(self.complement_basis)
        coeffs = solve_rational([list(col) for col in zip(*basis)], v)
        out = []
        for x in coeffs[self.rank:]:
            if x.denominator != 1:
                raise LatticeError("vector not integral in the chosen basis")
            out.append(int(x))
        return tuple(out)


def saturate_and_complete(spanning) -> QuotientLattice:
    """Saturated basis of span(spanning) cap Z^n plus a complement to Z^n.

    Rank-deficient inputs are silently reduced to their rank.  The assembled
    n x n matrix of (sublattice basis, complement basis) has determinant +-1.
    """
    vecs = [_as_int_vector(v) for v in spanning]
    if not vecs or all(is_zero_vector(v) for v in vecs):
        raise LatticeError("need at least one nonzero spanning vector")
    n = len(vecs[0])
    if any(len(v) != n for v in vecs):
        raise LatticeError("mixed ambient dimensions")
    # columns of M are the spanning vectors; M V = U_inv D with V unimodular,
    # so the first rank columns of U_inv span the saturation and the rest
    # complete it to a Z-basis.
    M = [[v[i] for v in vecs] for i in range(n)]
    snf = smith_normal_form(M)
    rank = snf.rank
    cols = [tuple(snf.U_inv[i][j] for i in range(n)) for j in range(n)]
    return QuotientLattice(n, tuple(cols[:rank]), tuple(cols[rank:]))


def integer_kernel(rows) -> tuple[IntVector, ...]:
    """Saturated basis of {x in Z^n : A x = 0} for A with the given rows, in Hermite form.

    The rows of [A^T | I_n] span {(A x, x) : x in Z^n}.  Their Hermite basis
    lists last the vectors that vanish on the A^T block; cut to the I_n
    block these are a basis of the kernel, saturated because x -> (A x, x)
    is injective, and already reduced, so hnf_basis returns them unchanged.
    """
    rows = [_as_int_vector(r) for r in rows]
    rows = [r for r in rows if not is_zero_vector(r)]
    if not rows:
        raise LatticeError("kernel of an empty system is everything; handle upstream")
    m, n = len(rows), len(rows[0])
    if any(len(r) != n for r in rows):
        raise LatticeError("ragged matrix")
    aug = [tuple(r[j] for r in rows) + e for j, e in enumerate(identity(n))]
    return tuple(h[m:] for h in hnf_basis(aug) if is_zero_vector(h[:m]))


def _gauss_jordan(mat, ncols) -> list[int]:
    """Reduce Fraction rows in place on their first ncols columns; return the pivot columns.

    Pivot rows come first and are not normalised; the elimination stops as
    soon as every row holds a pivot.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / p
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    return pivots


def rank_int(rows) -> int:
    """Rank over Q of an integer (or Fraction) matrix, by exact elimination."""
    mat = [list(map(Fraction, r)) for r in rows]
    return len(_gauss_jordan(mat, len(mat[0]) if mat else 0))


def solve_rational(columns, target) -> tuple[Fraction, ...]:
    """Solve sum_j x_j * columns[j] = target exactly; unique solution required.

    ``columns`` is given as a matrix whose rows are coordinates (column-major
    input: columns[i][j] = i-th coordinate of the j-th basis vector).
    """
    ncols = len(columns[0]) if columns else 0
    aug = [[Fraction(x) for x in row] + [Fraction(t)] for row, t in zip(columns, target)]
    pivots = _gauss_jordan(aug, ncols)
    if any(row[ncols] != 0 for row in aug[len(pivots):]):
        raise LatticeError("inconsistent linear system")
    sol = [Fraction(0)] * ncols
    for row, col in zip(aug, pivots):
        sol[col] = row[ncols] / row[col]
    return tuple(sol)


def hnf_basis(vectors) -> tuple[IntVector, ...]:
    """Canonical (row-Hermite) basis of the integer lattice spanned by vectors."""
    mat = [list(v) for v in vectors if not is_zero_vector(v)]
    if not mat:
        return ()
    n = len(mat[0])
    pivot_row = 0
    for col in range(n):
        while True:
            nz = [i for i in range(pivot_row, len(mat)) if mat[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][col]))
            mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
            p = mat[pivot_row][col]
            for i in range(pivot_row + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // p
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[pivot_row])]
            if not any(mat[i][col] for i in range(pivot_row + 1, len(mat))):
                break
        if pivot_row < len(mat) and mat[pivot_row][col] != 0:
            if mat[pivot_row][col] < 0:
                mat[pivot_row] = [-a for a in mat[pivot_row]]
            pivot_row += 1
            if pivot_row == len(mat):
                break
    mat = [row for row in mat[:pivot_row]]
    pivots = []
    r = 0
    for col in range(n):
        if r < len(mat) and mat[r][col] != 0:
            pivots.append((r, col))
            r += 1
    for r, col in pivots:
        p = mat[r][col]
        for i in range(r):
            q = mat[i][col] // p
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
    return tuple(tuple(row) for row in mat)


def quotient_outward_generator(tau_basis, sigma_basis, direction_sample) -> IntVector:
    """Representative generating (Z^n cap H_sigma)/(Z^n cap H_tau), signed.

    ``tau_basis``/``sigma_basis`` are saturated integer bases of the direction
    spaces, with rank(sigma) = rank(tau) + 1.  ``direction_sample`` is any
    rational vector in H_sigma minus H_tau pointing to the sigma side (for
    cells: relint(sigma) - relint(tau)); the returned vector pairs positively
    with a functional vanishing on H_tau that is positive on that sample.
    """
    sigma_basis = [_as_int_vector(b) for b in sigma_basis]
    tau_basis = [_as_int_vector(b) for b in tau_basis]
    p = len(sigma_basis)
    if p != len(tau_basis) + 1:
        raise LatticeError("sigma must have direction rank one more than tau")
    n = len(sigma_basis[0])
    if p == 1:
        u = sigma_basis[0]
    else:
        cols = [list(col) for col in zip(*sigma_basis)]
        coords = []
        for b in tau_basis:
            x = solve_rational(cols, b)
            if any(c.denominator != 1 for c in x):
                raise LatticeError("tau lattice not contained in sigma lattice")
            coords.append(tuple(int(c) for c in x))
        ql = saturate_and_complete(coords)
        if ql.quotient_rank != 1:
            raise LatticeError("tau is not of codimension one in sigma")
        comp = ql.complement_basis[0]
        u = tuple(sum(comp[j] * sigma_basis[j][i] for j in range(p)) for i in range(n))
    # orient: pick a functional vanishing on H_tau and not on u
    if tau_basis:
        functionals = integer_kernel(tau_basis)
    else:
        functionals = identity(n)
    ell = next((f for f in functionals if dot(f, u) != 0), None)
    if ell is None:
        raise LatticeError("degenerate quotient: u lies in H_tau")
    side = sum(Fraction(ell[i]) * Fraction(direction_sample[i]) for i in range(n))
    if side == 0:
        raise LatticeError("direction sample lies in H_tau")
    if (dot(ell, u) > 0) != (side > 0):
        u = vec_neg(u)
    return u
