import math
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import (
    cross_kernel_laplace,
    independent_rows_full_bareiss,
    integer_kernel_hermite,
    rank_gauss_jordan,
    solve_gauss_jordan,
)
from tropdyn import lattice
from tropdyn.lattice import (
    LatticeError,
    QuotientLattice,
    _cross_kernel,
    _det,
    _independent_rows,
    identity,
    integer_kernel,
    dot,
    is_zero_vector,
    primitive,
    quotient_outward_generator,
    rank_int,
    saturate_and_complete,
    hnf_basis,
    smith_normal_form,
    solve_rational,
    vec_neg,
)


def mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def det(M):
    # exact cofactor expansion; only used on small test matrices
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def test_primitive_examples():
    assert primitive((2, -2)) == ((1, -1), 2)
    assert primitive((3, 0, 0)) == ((1, 0, 0), 3)
    # gcd(6, 10, 15) = 1 by direct computation
    assert math.gcd(math.gcd(6, 10), 15) == 1
    assert primitive((6, 10, 15)) == ((6, 10, 15), 1)


def test_primitive_zero_vector():
    with pytest.raises(LatticeError):
        primitive((0, 0, 0))


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=5).filter(lambda v: any(v)),
    st.integers(1, 9),
)
def test_primitive_scaling(v, k):
    prim, length = primitive(v)
    prim_k, length_k = primitive([k * c for c in v])
    assert length_k == k * length
    assert prim_k == prim


def check_snf(M):
    snf = smith_normal_form(M)
    # M V = U_inv D for some unimodular V: both have the same column lattice
    assert hnf_basis(zip(*M)) == hnf_basis(zip(*mat_mul(snf.U_inv, snf.D)))
    assert abs(det([list(r) for r in snf.U_inv])) == 1
    factors = snf.invariant_factors
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    # off-diagonal zero, diagonal nonnegative
    for i, row in enumerate(snf.D):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
            else:
                assert x >= 0
    return snf


def test_snf_examples():
    assert check_snf([[1, 0], [0, 1]]).invariant_factors == (1, 1)
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    assert check_snf([[2, 4], [6, 8]]).invariant_factors == (2, 4)
    # gcd of entries 1, product of factors = |det| = 6
    assert check_snf([[2, 0], [0, 3]]).invariant_factors == (1, 6)


@settings(max_examples=150)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_random(r, c, data):
    M = [[data.draw(st.integers(-9, 9)) for _ in range(c)] for _ in range(r)]
    check_snf(M)


def test_saturate_single_vector():
    ql = saturate_and_complete([(2, 2)])
    assert ql.sublattice_basis == ((1, 1),)
    assert ql.complement_basis == ((0, 1),)


def test_saturate_full_lattice():
    ql = saturate_and_complete([(1, 0), (0, 1)])
    assert ql.quotient_rank == 0
    assert len(ql.sublattice_basis) == 2


def test_saturate_z3_line():
    ql = saturate_and_complete([(1, 2, 3)])
    assert ql.sublattice_basis == ((1, 2, 3),)
    assert len(ql.complement_basis) == 2
    full = [list(v) for v in ql.sublattice_basis + ql.complement_basis]
    assert abs(det(full)) == 1


@settings(max_examples=100)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_saturate_invariants(n, k, data):
    vecs = [
        tuple(data.draw(st.integers(-6, 6)) for _ in range(n)) for _ in range(k)
    ]
    if all(all(c == 0 for c in v) for v in vecs):
        vecs[0] = (1,) * n
    ql = saturate_and_complete(vecs)
    full = [list(v) for v in ql.sublattice_basis + ql.complement_basis]
    assert abs(det(full)) == 1
    # saturated basis spans the same rational subspace as the input
    assert rank_int(list(vecs)) == len(ql.sublattice_basis)
    assert rank_int(list(vecs) + list(ql.sublattice_basis)) == len(ql.sublattice_basis)


def test_integer_kernel():
    ker = integer_kernel([(1, -1)])
    assert len(ker) == 1
    assert abs(ker[0][0]) == 1 and ker[0][0] == ker[0][1]
    ker = integer_kernel([(1, 1, 1), (1, -1, 0)])
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] + v[2] == 0 and v[0] == v[1]


@settings(max_examples=300)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_integer_kernel_is_saturated_hermite_basis(r, n, data):
    A = [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(r)]
    if all(is_zero_vector(row) for row in A):
        with pytest.raises(LatticeError):
            integer_kernel(A)
        return
    ker = integer_kernel(A)
    assert ker == hnf_basis(ker)
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A for v in ker)
    assert rank_int(A) + len(ker) == n
    if ker:
        # a primitive multiple of a rational kernel vector is an integer kernel
        # vector; a saturated basis gives it integral coordinates
        coeffs = [data.draw(st.integers(-3, 3)) for _ in ker]
        w = tuple(sum(c * v[i] for c, v in zip(coeffs, ker)) for i in range(n))
        if not is_zero_vector(w):
            x = solve_rational([list(col) for col in zip(*ker)], primitive(w)[0])
            assert all(c.denominator == 1 for c in x)


def _product_matrix(data, r, n):
    """An r x n integer matrix drawn as a product r x k times k x n, so its rank is at most k."""
    k = data.draw(st.integers(1, n), label="inner dimension")
    left = [[data.draw(st.integers(-3, 3)) for _ in range(k)] for _ in range(r)]
    right = [[data.draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(k)]
    return [tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*right)) for row in left]


def _counting_hnf(monkeypatch):
    calls = []

    def counting(vectors):
        calls.append(1)
        return hnf_basis(vectors)

    monkeypatch.setattr(lattice, "hnf_basis", counting)
    return calls


@settings(max_examples=400)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_integer_kernel_equals_hermite_route(r, n, data):
    A = _product_matrix(data, r, n)
    if all(is_zero_vector(row) for row in A):
        return
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_hnf(mp)
        ker = integer_kernel(A)
    event(f"corank {min(len(ker), 2)}")
    assert ker == integer_kernel_hermite(A)
    assert calls == ([1] if len(ker) >= 2 else [])


def test_integer_kernel_hermite_form_only_for_corank_two(monkeypatch):
    calls = _counting_hnf(monkeypatch)
    assert integer_kernel([(1, 2, 3), (0, 1, 4), (2, 5, 0), (1, 1, 1)]) == ()
    assert integer_kernel([(2, 4, 6), (1, 2, 3), (0, 3, -3)]) == ((5, -1, -1),)
    assert integer_kernel([(6, -4)]) == ((2, 3),) == integer_kernel_hermite([(6, -4)])
    assert calls == []
    assert integer_kernel([(1, 1, 1)]) == ((1, 0, -1), (0, 1, -1))
    assert calls == [1]


class _NoFraction(Fraction):
    def __new__(cls, *args, **kwargs):
        raise AssertionError("a Fraction was created")


@settings(max_examples=300)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
    st.sampled_from(["integer", "fraction", "zero", "repeated"]),
)
def test_rank_int_equals_gauss_jordan(r, n, data, kind):
    rows = [list(row) for row in _product_matrix(data, r, n)]
    if kind == "fraction":
        rows = [[Fraction(x, data.draw(st.integers(1, 7))) for x in row] for row in rows]
    elif kind == "zero":
        rows.insert(data.draw(st.integers(0, r)), [0] * n)
    elif kind == "repeated":
        rows.append(list(data.draw(st.sampled_from(rows))))
    assert rank_int(rows) == rank_gauss_jordan(rows)


def test_rank_int_creates_no_fraction_on_integer_rows(monkeypatch):
    monkeypatch.setattr(lattice, "Fraction", _NoFraction)
    assert rank_int([(1, 2, 3), (2, 4, 6), (0, 0, 0), (1, 0, -1)]) == 2
    assert rank_int([]) == 0
    assert integer_kernel([(1, 1, 1)]) == ((1, 0, -1), (0, 1, -1))


def test_rank_int_scales_fraction_rows():
    assert rank_int([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1
    assert rank_int([(Fraction(1, 2), 0.25), (2, 1)]) == 1
    assert rank_int([(Fraction(1, 2), Fraction(1, 3)), (3, 3)]) == 2


@given(
    st.integers(3, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-20, 20), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_det_equals_laplace_expansion(M):
    assert _det(M) == det(M)


# small entries make ties and rank drops likely; 10^20 keeps floats out
KERNEL_ENTRY = st.integers(-3, 3) | st.integers(-10**20, 10**20)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cross_kernel_matches_laplace(data):
    """Closed-form cofactors give the Laplace cofactor vector, sign included, or None with it."""
    d = data.draw(st.integers(1, 5), label="d")
    row = st.lists(KERNEL_ENTRY, min_size=d, max_size=d).map(tuple)
    rows = data.draw(st.lists(row, min_size=d - 1, max_size=d - 1), label="rows")
    if rows and data.draw(st.booleans(), label="last row a multiple of the first"):
        c = data.draw(st.integers(-2, 2), label="multiple")
        rows[-1] = tuple(c * x for x in rows[0])
    got = _cross_kernel(rows, d)
    assert got == cross_kernel_laplace(rows, d)
    event("rank-deficient" if got is None else f"d = {d}")
    if got is not None:
        assert all(type(x) is int for x in got)
        assert all(dot(r, got) == 0 for r in rows)


def test_cross_kernel_fixed_cases():
    # every term of every d = 4 cofactor is nonzero, so any one sign flip shows
    assert _cross_kernel([(1, 2, 3, 4), (0, 1, 5, 2), (3, 0, 1, 1)], 4) == (7, 39, 1, -22)
    assert _cross_kernel([(2, 4)], 2) == (2, -1)
    assert _cross_kernel([(1, 0, 0), (0, 1, 0)], 3) == (0, 0, 1)
    assert _cross_kernel([(1, 2, 3), (2, 4, 6)], 3) is None
    assert _cross_kernel([], 1) == (1,)


def test_independent_rows_scales_rows_with_a_zero_in_the_pivot_column():
    # the third row is 0 under the first pivot 2, but the step must still
    # scale it by 2, or the next step's exact division by 2 floors it to 0
    assert _independent_rows([(0, -1, 0), (2, 0, 1), (0, 1, -1)]) == [1, 0, 2]
    assert _independent_rows([(1, 2), (2, 4), (0, 0), (0, 3)]) == [0, 3]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_independent_rows_match_full_bareiss(data):
    """Same pivot rows in the same order as Bareiss steps that rewrite every column."""
    ncols = data.draw(st.integers(1, 5), label="ncols")
    row = st.lists(KERNEL_ENTRY, min_size=ncols, max_size=ncols).map(tuple)
    rows = data.draw(st.lists(row, max_size=7), label="rows")
    if rows and data.draw(st.booleans(), label="add a combination of two rows"):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(-2, 2), label="multiple")
        rows.append(tuple(x + c * y for x, y in zip(rows[i], rows[j])))
    got = _independent_rows(rows)
    assert got == independent_rows_full_bareiss(rows)
    event(f"rank {len(got)} of {len(rows)} rows")


def test_solve_rational():
    cols = [[2, 0], [0, 4]]
    assert solve_rational(cols, (1, 2)) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(LatticeError):
        solve_rational([[1], [1]], (1, 2))


def test_solve_rational_needs_a_unique_solution():
    # x + y = 1, 2x + 2y = 2 is consistent, but y is free
    assert solve_gauss_jordan([[1, 1], [2, 2]], (1, 2)) == (1, 0)
    with pytest.raises(LatticeError, match="no unique solution"):
        solve_rational([[1, 1], [2, 2]], (1, 2))
    with pytest.raises(LatticeError, match="no unique solution"):
        solve_rational([[1, 2]], (1,))


RATIONAL_ENTRY = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_rational_matches_gauss_jordan(data):
    """Square and overdetermined systems, consistent or not, agree with Fraction Gauss-Jordan."""
    ncols = data.draw(st.integers(0, 5), label="ncols")
    nrows = data.draw(st.integers(ncols, ncols + 2), label="nrows")
    row = st.lists(RATIONAL_ENTRY, min_size=ncols, max_size=ncols)
    A = data.draw(st.lists(row, min_size=nrows, max_size=nrows), label="A")
    x = data.draw(row, label="x")
    b = [sum((a * xj for a, xj in zip(row, x)), Fraction(0)) for row in A]
    shifted = nrows > 0 and data.draw(st.booleans(), label="shift one entry of b")
    if shifted:
        b[data.draw(st.integers(0, nrows - 1))] += 1
    if rank_gauss_jordan(A) < ncols:
        event("rank-deficient")
        with pytest.raises(LatticeError, match="no unique solution"):
            solve_rational(A, b)
        return
    try:
        expected = solve_gauss_jordan(A, b)
    except LatticeError:
        event("inconsistent")
        with pytest.raises(LatticeError, match="inconsistent"):
            solve_rational(A, b)
        return
    event("solved")
    assert solve_rational(A, b) == expected
    if not shifted:
        assert expected == tuple(x)


def test_quotient_coords():
    ql = saturate_and_complete([(2, 2)])
    assert ql.quotient_coords((3, 4)) == (1,)
    assert ql.quotient_coords((5, 5)) == (0,)


def test_outward_generator_vector_level():
    # tau = 0, sigma = ray (1, 0): the primitive ray itself, in the trivial quotient
    point = QuotientLattice(2, (), identity(2))
    assert quotient_outward_generator(point, (1, 0)) == (1, 0)
    assert quotient_outward_generator(point, (Fraction(2, 3), 0)) == (1, 0)
    # tau = ray (1,0) inside sigma = first quadrant: class of e2, pointing up
    ql = saturate_and_complete([(1, 0)])
    u = quotient_outward_generator(ql, (1, 1))
    assert u in ((1,), (-1,))
    assert u == ql.quotient_coords((0, 1))
    # tau = ray (1,1) inside sigma = cone((1,1),(1,-1)): class of (0,-1)
    ql = saturate_and_complete([(1, 1)])
    u = quotient_outward_generator(ql, (2, 0))
    assert u in ((1,), (-1,))  # a generator of the rank-1 quotient
    assert u == ql.quotient_coords((0, -1))
    assert quotient_outward_generator(ql, (-2, 0)) == vec_neg(u)
    # a sample in H_tau has no side
    with pytest.raises(LatticeError, match="lies in H_tau"):
        quotient_outward_generator(ql, (Fraction(1, 2), Fraction(1, 2)))
