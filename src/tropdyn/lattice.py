"""Exact integer-lattice linear algebra.

Everything here works over arbitrary-precision Python ints, so determinants
and lattice indices never overflow.  Ranks, kernels and rational solves come
from fraction-free elimination on rows scaled to integers; Fractions are built
only for the quotients solve_rational returns.  The Smith normal form serves
saturate_and_complete alone.  Vectors are tuples of ints; matrices are tuples
of row tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]


class LatticeError(ValueError):
    """Raised on invalid lattice-level input (zero vectors, non-faces, ...)."""


class Record:
    """A small value type whose fields are the names in its ``__slots__``.

    Records print field by field and are equal when of the same class with
    equal field tuples; ``__init__`` sets the fields with ``_set``.  They are
    mutable and unhashable unless declared ``class C(Record, frozen=True)``,
    which hashes the field tuple and refuses assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen=False, **kwargs):
        super().__init_subclass__(**kwargs)
        if frozen:
            cls.__setattr__ = _refuse_assignment
            cls.__delattr__ = _refuse_deletion
            cls.__hash__ = lambda self: hash(self._values())

    def _set(self, *values):
        """Set the fields in ``__slots__`` order, a frozen record's included."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


def _refuse_assignment(record, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_deletion(record, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _as_int_vector(v) -> IntVector:
    """v as a tuple of Python ints; LatticeError on an entry that is not an integer, such as 1.5 (2.0 is one)."""
    if type(v) is tuple and all(type(x) is int for x in v):
        return v
    v = tuple(v)
    try:
        out = tuple(map(int, v))
    except (TypeError, ValueError, OverflowError):  # nan, inf, a string
        out = None
    if out != v:
        raise LatticeError(f"expected an integer vector, got {v}")
    return out


def _integral(v) -> IntVector:
    """A rational vector times the lcm of its denominators: an integer vector.

    Integer vectors come back as they are; entries other than ints and
    Fractions (floats and numpy integers, say) are taken exactly as Fractions
    first.  Every entry returned is a Python int.
    """
    v = tuple(v)
    if all(type(x) is int for x in v):
        return v
    v = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in v]
    den = math.lcm(*(x.denominator for x in v))
    return tuple(int(x.numerator) * (den // x.denominator) for x in v)


def dot(a, b):
    return sum(map(mul, a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def is_zero_vector(v) -> bool:
    return not any(v)


def primitive(v) -> tuple[IntVector, int]:
    """Write ``v = length * prim`` with gcd(prim) = 1 and length >= 1.

    The primitive vector keeps the direction of ``v``.  Raises LatticeError on
    the zero vector, which has no direction.
    """
    v = _as_int_vector(v)
    g = math.gcd(*v)
    if g == 1:
        return v, 1
    if g == 0:
        raise LatticeError("no primitive direction")
    return tuple(c // g for c in v), g


def identity(n) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class SmithDecomposition(Record, frozen=True):
    """U * M * V = D for unimodular U, V and diagonal D, d_i | d_{i+1} >= 0.

    Only U_inv is kept, the one transform its one caller, saturate_and_complete,
    reads: M * V = U_inv * D, so its first rank columns span the saturation
    of M's column span.
    """

    __slots__ = ("D", "U_inv")

    def __init__(self, D: IntMatrix, U_inv: IntMatrix):
        self._set(D, U_inv)

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


class QuotientLattice(Record, frozen=True):
    """Z^n = (H cap Z^n) + complement, presenting Z^n / (H cap Z^n).

    ``sublattice_basis`` is a saturated basis of H cap Z^n (so the quotient is
    torsion-free) and together with ``complement_basis`` it forms a Z-basis of
    Z^n (determinant +-1).
    """

    __slots__ = ("ambient_dim", "sublattice_basis", "complement_basis")

    def __init__(
        self, ambient_dim: int, sublattice_basis: tuple[IntVector, ...], complement_basis: tuple[IntVector, ...]
    ):
        self._set(ambient_dim, sublattice_basis, complement_basis)

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


def _det(rows):
    """Determinant of a square integer matrix: closed forms up to 3 x 3, Laplace above."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _cross_kernel(rows, d):
    """Kernel direction of (d-1) x d integer rows via signed maximal minors.

    Entry i is (-1)^i times the minor that deletes column i.  For d = 2 to 5
    the minors are written out as closed-form cofactors: for d = 4 the first
    row is expanded over the six 2 x 2 minors of the last two, for d = 5 each
    4 x 4 minor is the Laplace sum over the column pairs of rows 0-1, six
    products of a 2 x 2 minor of rows 0-1 and the complementary one of rows
    2-3; other d take _det's Laplace expansion.  Returns the primitive
    cofactor vector, its sign kept, or None when the rows are rank-deficient
    (kernel not 1-dimensional).
    """
    if d == 2:
        ((a, b),) = rows
        v = (b, -a)
    elif d == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        v = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    elif d == 4:
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = rows
        m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
        m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
        v = (
            a1 * m23 - a2 * m13 + a3 * m12,
            a2 * m03 - a0 * m23 - a3 * m02,
            a0 * m13 - a1 * m03 + a3 * m01,
            a1 * m02 - a0 * m12 - a2 * m01,
        )
    elif d == 5:
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), (d0, d1, d2, d3, d4) = rows
        p01, p02, p03, p04 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0, a0 * b4 - a4 * b0
        p12, p13, p14 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a1 * b4 - a4 * b1
        p23, p24, p34 = a2 * b3 - a3 * b2, a2 * b4 - a4 * b2, a3 * b4 - a4 * b3
        q01, q02, q03, q04 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0, c0 * d4 - c4 * d0
        q12, q13, q14 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c1 * d4 - c4 * d1
        q23, q24, q34 = c2 * d3 - c3 * d2, c2 * d4 - c4 * d2, c3 * d4 - c4 * d3
        v = (
            p12 * q34 - p13 * q24 + p14 * q23 + p23 * q14 - p24 * q13 + p34 * q12,
            p03 * q24 - p02 * q34 - p04 * q23 - p23 * q04 + p24 * q03 - p34 * q02,
            p01 * q34 - p03 * q14 + p04 * q13 + p13 * q04 - p14 * q03 + p34 * q01,
            p02 * q14 - p01 * q24 - p04 * q12 - p12 * q04 + p14 * q02 - p24 * q01,
            p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01,
        )
    else:
        v = tuple((-1) ** i * _det([row[:i] + row[i + 1:] for row in rows]) for i in range(d))
    g = math.gcd(*v)
    if g == 0:
        return None
    return v if g == 1 else tuple(x // g for x in v)


def _independent_rows(rows) -> list[int]:
    """Indices of a maximal linearly independent set of integer rows.

    Fraction-free (Bareiss) elimination with row pivoting: every entry stays
    a minor of the input, so each division by the previous pivot is exact.
    A step rewrites only the columns right of its pivot, the only ones read
    again.  The pivot rows' indices come back in pivot order; their number is
    the rank.
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    order = list(range(m))
    ncols = len(mat[0]) if mat else 0
    prev, k = 1, 0
    for col in range(ncols):
        if k == m:
            break
        for piv in range(k, m):
            if mat[piv][col]:
                break
        else:
            continue
        mat[k], mat[piv] = mat[piv], mat[k]
        order[k], order[piv] = order[piv], order[k]
        top = mat[k]
        p = top[col]
        for i in range(k + 1, m):
            row = mat[i]
            a = row[col]
            for j in range(col + 1, ncols):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
        k += 1
    return order[:k]


def integer_kernel(rows) -> tuple[IntVector, ...]:
    """Saturated basis of {x in Z^n : A x = 0} for A with the given rows, in Hermite form.

    Rank first: fraction-free elimination picks r independent rows of A,
    which have the same kernel.  For r = n the kernel is 0.  For r = n - 1
    it is the line of their signed cofactor vector; made primitive with a
    positive leading entry, that vector is the Hermite basis of the
    saturated kernel.  Only for a kernel of rank >= 2 is a Hermite form
    computed: the rows of [B^T | I_n], B the independent rows, span
    {(B x, x) : x in Z^n}, and their Hermite basis lists last the vectors
    that vanish on the B^T block.  Cut to the I_n block these are a basis of
    the kernel, saturated because x -> (B x, x) is injective, and already
    reduced, so hnf_basis returns them unchanged.
    """
    rows = [r for r in map(_as_int_vector, rows) if any(r)]
    if not rows:
        raise LatticeError("kernel of an empty system is everything; handle upstream")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise LatticeError("ragged matrix")
    basis = [rows[i] for i in _independent_rows(rows)]
    r = len(basis)
    if r == n:
        return ()
    if r == n - 1:
        v = _cross_kernel(basis, n)
        return (v if next(x for x in v if x) > 0 else vec_neg(v),)
    aug = [tuple(b[j] for b in basis) + e for j, e in enumerate(identity(n))]
    return tuple(h[r:] for h in hnf_basis(aug) if not any(h[:r]))


def rank_int(rows) -> int:
    """Rank over Q of an integer (or Fraction) matrix, by fraction-free elimination.

    A Fraction row is first scaled to an integer row by the lcm of its
    denominators; integer rows are eliminated as they are.
    """
    return len(_independent_rows([_integral(r) for r in rows]))


def solve_rational(columns, target) -> tuple[Fraction, ...]:
    """Solve sum_j x_j * columns[j] = target exactly; unique solution required.

    ``columns`` is column-major: columns[i][j] is the i-th coordinate of the
    j-th basis vector.  Rows (a_i | b_i) are scaled to integers, Cramer's
    rule on ncols independent rows gives integer numerators over one
    determinant, and every row is checked in integers; dependent columns or
    an inconsistent system raise LatticeError.
    """
    ncols = len(columns[0]) if columns else 0
    rows = [_integral((*row, t)) for row, t in zip(columns, target)]
    square = [rows[i] for i in _independent_rows([r[:ncols] for r in rows])]
    if len(square) < ncols:
        raise LatticeError("linear system has no unique solution")
    den = _det([r[:ncols] for r in square])
    num = [_det([r[:j] + r[ncols:] + r[j + 1:ncols] for r in square]) for j in range(ncols)]
    if any(dot(r[:ncols], num) != r[ncols] * den for r in rows):
        raise LatticeError("inconsistent linear system")
    return tuple(Fraction(x, den) for x in num)


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


def quotient_outward_generator(tau_quotient, direction_sample) -> IntVector:
    """Class of u_{sigma/tau} in Z^n/(H_tau cap Z^n), in ``tau_quotient``'s coordinates.

    ``tau_quotient`` presents Z^n/(H_tau cap Z^n).  ``direction_sample`` is any
    vector of ints and Fractions in H_sigma minus H_tau pointing to the sigma
    side (for cells: a positive multiple of a ray of sigma outside tau, or of
    a vertex of sigma outside tau minus a vertex of tau), so it is
    a * u_{sigma/tau} plus an element of H_tau for some a > 0.  The quotient is torsion-free, so the image of H_sigma cap
    Z^n is a saturated rank-one lattice, and its generator on the sample's
    side is the primitive vector along the sample's image.
    """
    image = tau_quotient.quotient_coords(_integral(direction_sample))
    if is_zero_vector(image):
        raise LatticeError("direction sample lies in H_tau")
    return primitive(image)[0]
