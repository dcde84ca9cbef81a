"""Floating-point harness: equidistribution, amoebas, and dequantization at finite m.

Conventions fixed once here: positions are measured with Log = -log|.| (see
LOG_SIGN), every randomized experiment takes an explicit seed, and point
clouds carry (m, seed) metadata so artifacts are reproducible byte for byte.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .lattice import Record
from .polyhedra import Polyhedron, WeightedComplex
from .tropical import (
    COMPLEX_SUM_COMPENSATES,
    ComplexPolynomial,
    builtin_max,
    builtin_sum,
    eval_tropical,
    exponent_dots,
    np,
    tropical_hypersurface,
    tropicalize_poly,
)

#: sign convention for the logarithm map; Log(z) = LOG_SIGN * log|z| coordinatewise
LOG_SIGN = -1.0

#: most points of an all-mode root set, a sampling grid and an orbit point's preimages
ALL_MODE_BUDGET = 10 ** 6

#: an Aberth row stops at corrections below ROOT_TOL (relative) and fails after MAX_SWEEPS sweeps
ROOT_TOL = 1e-12
MAX_SWEEPS = 200

#: most phase redraws of one grid point where f(z^m) is near zero
MAX_RETRIES = 20

#: the spacing of floats at 1.0
EPS = math.ulp(1.0)


class DynamicsError(ValueError):
    pass


class RootFindingError(DynamicsError):
    """Never raised; bench/spans.py names it as polynomial_roots' failure type and fails without it."""


class GridSpec(Record, frozen=True):
    """Sampling window: per-axis [lo, hi], per-axis resolution, exclusion radius."""

    __slots__ = ("box", "resolution", "delta")

    def __init__(self, box: tuple[tuple[float, float], ...], resolution: tuple[int, ...], delta: float = 0.0):
        self._set(box, resolution, delta)
        if not self.box:
            raise DynamicsError("a grid needs at least one axis")
        if len(self.box) != len(self.resolution):
            raise DynamicsError("box and resolution must have the same length")
        if not all(math.isfinite(x) for interval in self.box for x in interval):
            raise DynamicsError("box bounds must be finite numbers")
        if any(lo >= hi for lo, hi in self.box):
            raise DynamicsError("box intervals need lo < hi")
        if not all(math.isfinite(hi - lo) for lo, hi in self.box):
            raise DynamicsError("box intervals need a finite width")
        if any(r < 2 for r in self.resolution):
            raise DynamicsError("resolution must be at least 2 per axis")
        if math.prod(self.resolution) > ALL_MODE_BUDGET:
            raise DynamicsError(f"a grid has at most {ALL_MODE_BUDGET} points")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise DynamicsError("exclusion radius must be a finite nonnegative number")

    def axis(self, i):
        lo, hi = self.box[i]
        return np.linspace(lo, hi, self.resolution[i])


class PointCloud(Record):
    """Fixed-dimension samples; complex clouds are used for root/torus data.

    counters holds deterministic work counts of the sampler that made the
    cloud (amoeba_sample fills it); they never enter the CSV artifact.
    """

    __slots__ = ("dim", "points", "m", "seed", "counters")

    def __init__(self, dim: int, points: np.ndarray, m: int | None = None, seed: int | None = None, counters=None):
        self._set(dim, np.asarray(points), m, seed, {} if counters is None else counters)
        if self.points.size == 0:
            self.points = self.points.reshape(0, self.dim)
        if self.points.ndim != 2 or self.points.shape[1] != self.dim:
            raise DynamicsError("points must be an (N, dim) array")
        if not np.issubdtype(self.points.dtype, np.complexfloating):
            if not np.all(np.isfinite(self.points)):
                raise DynamicsError("point coordinates must be finite")

    def __len__(self):
        return self.points.shape[0]


class ConvergenceReport(Record):
    """Per-m errors with a least-squares power-law fit errors ~ C * m^(-rho)."""

    __slots__ = ("experiment", "ms", "errors", "C", "rho", "seed", "details")

    def __init__(
        self, experiment: str, ms: tuple[int, ...], errors: tuple[float, ...], C: float, rho: float, seed: int,
        details=None,
    ):
        self._set(experiment, ms, errors, C, rho, seed, {} if details is None else details)


# ---------------------------------------------------------------------------
# roots of unity and Weyl sums


def mth_roots(a, m: int) -> PointCloud:
    """All m^n componentwise m-th roots of a nonzero complex n-vector (at most 10^6 points)."""
    if m < 1:
        raise DynamicsError("m must be a positive integer")
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    n = a.shape[0]
    if np.any(a == 0):
        raise DynamicsError("all components must be nonzero")
    if m ** n > ALL_MODE_BUDGET:
        raise DynamicsError("all-mode root budget exceeded")
    radii = np.abs(a) ** (1.0 / m)
    base = np.angle(a) / m
    axes = [
        radii[j] * np.exp(1j * (base[j] + 2 * np.pi * np.arange(m) / m))
        for j in range(n)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return PointCloud(n, pts, m=m)


def weyl_sum(m: int, nu) -> complex:
    """prod_j sum_{l=0}^{m-1} zeta^(l nu_j) in closed form: m per divisible factor, else 0."""
    if m < 1:
        raise DynamicsError("m must be a positive integer")
    total = 1
    for nj in nu:
        total *= m if int(nj) % m == 0 else 0
    return complex(total)


def empirical_fourier(cloud: PointCloud, nu) -> complex:
    """(1/N) sum exp(-i <nu, theta>) over the arguments of the cloud points."""
    if len(cloud) == 0:
        raise DynamicsError("empty cloud")
    nu = np.asarray([int(x) for x in nu], dtype=float)
    theta = np.angle(cloud.points)
    return complex(np.mean(np.exp(-1j * (theta @ nu))))


def star_discrepancy(cloud: PointCloud) -> float:
    """Star discrepancy of the arguments of a one-dimensional torus cloud."""
    if cloud.dim != 1 or len(cloud) == 0:
        raise DynamicsError("expected a nonempty one-dimensional cloud")
    u = np.sort(np.mod(np.angle(cloud.points[:, 0]) / (2 * np.pi), 1.0))
    N = len(u)
    idx = np.arange(1, N + 1)
    return float(max(np.max(idx / N - u), np.max(u - (idx - 1) / N)))


# ---------------------------------------------------------------------------
# univariate roots: one batched kernel (closed form at degree 1, Aberth--Ehrlich above)


class BatchRoots(Record, frozen=True):
    """Roots of a batch of polynomials of one degree d, one row per polynomial.

    roots[r] holds row r's d roots sorted by modulus, then phase.  Where
    failed[r] is set they are the last approximations (NaN for a row that
    could not be started) and must not be used.  iterations[r] counts the
    Aberth sweeps row r took (0 at degree 1).
    """

    __slots__ = ("roots", "failed", "iterations")

    def __init__(self, roots: np.ndarray, failed: np.ndarray, iterations: np.ndarray):
        self._set(roots, failed, iterations)

    def __len__(self):
        """The number of roots in rows that did not fail."""
        return int(np.count_nonzero(~self.failed)) * self.roots.shape[1]


def _horner(c, z):
    """Row-wise values of the polynomials c (ascending, (S, k)) at the points z (S, d)."""
    acc = np.zeros_like(z)
    for k in range(c.shape[1] - 1, -1, -1):
        acc = acc * z + c[:, k, None]
    return acc


def _relative_residuals(c, z):
    """|p(z)| / sum_k |c_k| |z|^k per root, the backward error of each root."""
    scale = _horner(np.abs(c), np.abs(z))
    return np.abs(_horner(c, z)) / np.maximum(scale, 1e-300)


def polynomial_roots(coeffs) -> BatchRoots:
    """All roots of each row sum_k c_k z^k of an (S, d+1) array (ascending), d >= 1.

    Returns a BatchRoots: the (S, d) roots, a per-row failure mask and the
    per-row sweep counts.  Degree-1 rows are solved in closed form, -c0/c1;
    higher degrees run simultaneous Aberth--Ehrlich iteration (started on a
    Cauchy-bound circle) on all rows at once, each row stopping when its
    corrections are below ROOT_TOL or its residuals are small (Bini, Numer.
    Algorithms 13, 1996).  A row fails, without raising, when it does not
    converge in MAX_SWEEPS sweeps, when a root's relative residual is above
    1e-8, or when its constant or leading coefficient is zero or an entry is
    not finite; so a polynomial with a zero root fails (callers shift such
    roots out first, as amoeba_sample does).
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 2 or c.shape[1] < 2:
        raise DynamicsError("coefficients must be an (S, d+1) array with degree d >= 1")
    S, d = c.shape[0], c.shape[1] - 1
    iterations = np.zeros(S, dtype=np.int64)
    started = np.all(np.isfinite(c), axis=1) & (c[:, 0] != 0) & (c[:, -1] != 0)
    ok = started.copy()
    if d == 1:
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (-c[:, 0] / c[:, 1])[:, None]
    else:
        c = np.where(ok[:, None], c, 1.0)  # rows that cannot start iterate on a dummy
        c = c / np.max(np.abs(c), axis=1, keepdims=True)
        radius = 1.0 + np.max(np.abs(c[:, :-1] / c[:, -1:]), axis=1)
        angles = 2 * np.pi * (np.arange(d) + 0.25) / d + 0.42
        z = 0.5 * radius[:, None] * np.exp(1j * angles)
        dc = c[:, 1:] * np.arange(1, d + 1)
        diagonal = (slice(None), np.arange(d), np.arange(d))
        active = ok.copy()
        for _ in range(MAX_SWEEPS):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                break
            zr, cr = z[rows], c[rows]
            dp = _horner(dc[rows], zr)
            w = _horner(cr, zr) / np.where(dp == 0, 1e-300, dp)
            diff = zr[:, :, None] - zr[:, None, :]
            diff[diagonal] = 1.0
            s = np.sum(1.0 / diff, axis=2) - 1.0  # subtract the diagonal's 1/1
            corr = w / (1.0 - w * s)
            zr = zr - corr
            z[rows] = zr
            iterations[rows] += 1
            done = np.max(np.abs(corr), axis=1) <= ROOT_TOL * (1.0 + np.max(np.abs(zr), axis=1))
            done |= np.all(_relative_residuals(cr, zr) <= 1e-15, axis=1)
            active[rows[done]] = False
        ok &= ~active
        order = np.lexsort((np.round(np.angle(z), 9), np.round(np.abs(z), 9)))
        z = np.take_along_axis(z, order, axis=1)
    with np.errstate(invalid="ignore"):
        ok &= np.max(_relative_residuals(c, z), axis=1) <= 1e-8
    z[~started] = np.nan
    return BatchRoots(z, ~ok, iterations)


# ---------------------------------------------------------------------------
# amoeba sampling


def _slice_matrix(f: ComplexPolynomial, axis: int, log_w, phi):
    """Log-scale coefficients of every slice of f along axis, one row per slice.

    Row r sets z_axis = exp(log_w[r] + i phi[r]).  Returns (logmag, phase,
    present): column j is the coefficient of z_other^(k_min + j) as
    exp(logmag + i phase); present is False where no term has that degree or
    its terms cancel exactly.  Everything stays in log scale so slices at
    |z_axis| = e^(+-3m) do not overflow.
    """
    other = 1 - axis
    exps = np.array([exp for exp, _ in f.terms])
    coeffs = np.array([coeff for _, coeff in f.terms])
    L = np.log(np.abs(coeffs)) + exps[:, axis] * log_w[:, None]
    theta = np.angle(coeffs) + exps[:, axis] * phi[:, None]
    ks = exps[:, other]
    k_min = int(ks.min())
    shape = (len(log_w), int(ks.max()) - k_min + 1)
    logmag, phase = np.full(shape, -np.inf), np.zeros(shape)
    present = np.zeros(shape, dtype=bool)
    for k in np.unique(ks):
        terms = np.flatnonzero(ks == k)
        top = np.max(L[:, terms], axis=1)
        val = 0j
        for j in terms:  # in term order
            val = val + np.exp((L[:, j] - top) + 1j * theta[:, j])
        col = k - k_min
        present[:, col] = val != 0
        with np.errstate(divide="ignore"):
            logmag[:, col] = np.where(present[:, col], top + np.log(np.abs(val)), -np.inf)
        phase[:, col] = np.angle(val)
    return logmag, phase, present


def amoeba_sample(f: ComplexPolynomial, grid: GridSpec, m: int) -> PointCloud:
    """Sample of the 1/m-scaled amoeba of V(f) on the slice lines of the grid.

    For each slice value s on an axis the slice variable is set to
    exp(-m*s + i*phi) and the roots of the resulting univariate polynomial are
    emitted as (1/m) Log(z); both variable roles are swept.  The phases phi
    are as many equal steps of the circle, from 0, as the other axis has
    grid points.  The grid box is the window in the scaled Log
    coordinates, so larger m slices at modulus e^(-m*s), matching
    Log(preimage) = (1/m) Log(Z).  Only the slice coordinate lies in the
    window; the root coordinate is not clipped, so callers apply clip_to_box.

    All slices of an axis go to polynomial_roots as one (S, d+1) batch, with
    S = slice values x phases, each row balanced by its exponent-spread shift.
    A row whose lowest or highest coefficient cancels exactly has a smaller
    degree and is solved in its own batch, so an axis needs more than one
    call only for such inputs.  Points keep the order of axis, slice value,
    phase, then root.  The cloud's counters give slices (rows solved),
    failed_slices (rows the kernel failed; their roots are dropped) and
    aberth_iterations (sweeps summed over rows).
    """
    if f.ambient_dim != 2:
        raise DynamicsError("amoeba sampling is two-dimensional")
    if m < 1:
        raise DynamicsError("m must be a positive integer")
    if len(grid.box) != 2:
        raise DynamicsError("need a two-axis grid")
    for var in (0, 1):
        if all(exp[var] == 0 for exp, _ in f.terms):
            raise DynamicsError("polynomial is univariate in effect")
    counters = {"slices": 0, "failed_slices": 0, "aberth_iterations": 0}
    blocks = []
    for axis in (0, 1):
        other = 1 - axis
        nphi = grid.resolution[other]
        phis = 2 * np.pi * np.arange(nphi) / nphi
        values = grid.axis(axis)
        s = np.repeat(values, nphi)  # row r: slice value r // nphi, phase r % nphi
        logmag, phase, present = _slice_matrix(f, axis, -m * s, np.tile(phis, len(values)))
        width = present.shape[1]
        k_lo = np.argmax(present, axis=1)
        k_hi = width - 1 - np.argmax(present[:, ::-1], axis=1)
        # rows with no term or a single degree have no finite nonzero roots
        solvable = present.any(axis=1) & (k_hi > k_lo)
        coord = np.full((len(s), width - 1), np.nan)
        for span in np.unique(k_lo[solvable] * width + k_hi[solvable]):
            lo, hi = divmod(int(span), width)
            deg = hi - lo
            rows = np.flatnonzero(solvable & (k_lo == lo) & (k_hi == hi))
            L, theta = logmag[rows, lo:hi + 1], phase[rows, lo:hi + 1]
            # balance the exponent spread so the scaled coefficients are finite
            t = (L[:, 0] - L[:, -1]) / deg
            L = L + np.arange(deg + 1) * t[:, None]
            top = np.max(L, axis=1, keepdims=True)
            batch = polynomial_roots(np.exp((L - top) + 1j * theta))
            good = ~batch.failed
            with np.errstate(divide="ignore", invalid="ignore"):
                log_root = t[good, None] + np.log(np.abs(batch.roots[good]))
            coord[rows[good], :deg] = LOG_SIGN * log_root / m
            counters["slices"] += len(rows)
            counters["failed_slices"] += int(np.count_nonzero(batch.failed))
            counters["aberth_iterations"] += int(batch.iterations.sum())
        keep = np.isfinite(coord)  # drops unfilled entries and zero or infinite roots
        pts = np.empty((int(keep.sum()), 2))
        pts[:, axis] = np.broadcast_to(s[:, None], coord.shape)[keep]
        pts[:, other] = coord[keep]
        blocks.append(pts)
    return PointCloud(2, np.concatenate(blocks), m=m, counters=counters)


# ---------------------------------------------------------------------------
# tropical support sampling and Hausdorff distances


def box_constraints(box):
    """The box as integer inequalities (a, b) meaning a.x >= b, exact in the bounds.

    A bound p/q (a float taken at its exact binary value) gives q x_i >= p
    below and -q x_i >= -p above.
    """
    out = []
    for i, (lo, hi) in enumerate(box):
        for sign, bound in ((1, Fraction(lo)), (-1, Fraction(hi))):
            a = tuple(sign * bound.denominator if j == i else 0 for j in range(len(box)))
            out.append((a, sign * bound.numerator))
    return out


def _clipped_cells(C: WeightedComplex, box):
    """The nonempty intersections of the complex's cells with the box, cell by cell."""
    box_ineqs = tuple(box_constraints(box))
    for cell, _ in C.cells:
        clipped = Polyhedron.from_constraints(
            C.ambient_dim, eqs=cell.eqs, ineqs=tuple(cell.ineqs) + box_ineqs
        )
        if not clipped.is_empty:
            yield clipped


def spine_segments(C: WeightedComplex, box):
    """End points of the one-dimensional cells of a plane cycle, clipped to the box."""
    segs = []
    for clipped in _clipped_cells(C, box):
        if clipped.dim == 1 and len(clipped.vertices) == 2:
            a, b = clipped.vertices
            segs.append(((float(a[0]), float(a[1])), (float(b[0]), float(b[1]))))
    return segs


def _float_rows(rows):
    """Integer rows (a, b) as (float array a, float b); DynamicsError where one outgrows a float."""
    try:
        return [(np.asarray(a, dtype=float), float(b)) for a, b in rows]
    except OverflowError:
        raise DynamicsError(
            "box bounds too fine to sample: a cell clipped to the box has rows too large for floats"
        ) from None


def sample_tropical_support(C: WeightedComplex, box, density: float) -> PointCloud:
    """Uniform samples on each cell of the complex clipped to the box.

    Every cell with nonempty intersection contributes at least its relative
    interior point, the mean of its vertices (a clipped cell is bounded):
    integer sums over one common denominator, divided once, which rounds as
    the float of the exact mean does.  The samples are a grid of pitch
    1/density in an orthonormal basis of the cell's directions, kept where
    the cell's rows hold to 1e-9; the bases of all cells of one dimension
    come from one QR factorisation of their stacked integer direction bases.
    Weights play no role in sampling.
    """
    if not (math.isfinite(density) and density > 0):
        raise DynamicsError("density must be a finite positive number")
    n = C.ambient_dim
    if len(box) != n:
        raise DynamicsError("box dimension mismatch")
    cells = list(_clipped_cells(C, box))
    dirs = [clipped.direction_basis() for clipped in cells]
    bases = [None] * len(cells)
    for p in {len(d) for d in dirs if d}:
        idx = [k for k, d in enumerate(dirs) if len(d) == p]
        Qs, _ = np.linalg.qr(np.array([dirs[k] for k in idx], dtype=float).transpose(0, 2, 1))
        for k, Q in zip(idx, Qs):
            bases[k] = Q  # n x p
    step = 1.0 / density
    blocks = []
    for clipped, Q in zip(cells, bases):
        gens = clipped.gens  # all vertices (p, q), q > 0: the box bounds the cell
        den = math.lcm(*(g[n] for g in gens))
        total = len(gens) * den
        center = np.array([sum(g[i] * (den // g[n]) for g in gens) / total for i in range(n)])
        blocks.append(center[None])
        if Q is None:
            continue
        verts = np.array([[x / g[n] for x in g[:n]] for g in gens])
        coords = (verts - center) @ Q
        ranges = [(coords[:, j].min(), coords[:, j].max() + step / 2) for j in range(Q.shape[1])]
        # np.arange(lo, stop, step) has ceil((stop - lo) / step) entries
        count = math.prod(np.ceil((stop - lo) / step) for lo, stop in ranges)
        if not count <= ALL_MODE_BUDGET:  # also catches an infinite count
            raise DynamicsError(f"a cell would take more than {ALL_MODE_BUDGET} samples at density {density:g}")
        axes = [np.arange(lo, stop, step) for lo, stop in ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        u = np.stack([g.ravel() for g in mesh], axis=-1)
        cand = center + u @ Q.T
        keep = np.ones(len(cand), dtype=bool)
        for a, b in _float_rows(clipped.ineqs):
            keep &= cand @ a >= b - 1e-9
        for a, b in _float_rows(clipped.eqs):
            keep &= np.abs(cand @ a - b) <= 1e-9
        blocks.append(cand[keep])
    return PointCloud(n, np.concatenate(blocks) if blocks else np.zeros((0, n)))


def distance_to_complex(C: WeightedComplex, X) -> np.ndarray:
    """Euclidean distance from each row of X to the support of C, cells of dimension <= 2.

    The nearest point of a cell P to x lies in the relative interior of a
    face F of P, and there it is the orthogonal projection of x onto aff(F).
    So dist(x, P) is the least over P's faces of a closed form:
    - a segment, ray or line v + t u gives |x - v - t u| at t = (x - v).u / u.u
      clamped to [0, 1], [0, inf) or R; a vertex is the case u = 0, and
      enters only as a 0-cell, since the 1-faces hold every other vertex;
    - a 2-cell gives the distance to its plane, counted only where the
      projection satisfies P's inequalities.  A projection that rounding
      puts on the wrong side of P's boundary is that close to a 1-face, so
      the value moves by no more than the rounding.
    Each 2-cell's faces come from face_vkeys as generator subsets, with no
    H -> V conversion.  Rows are taken a block at a time, about BLOCK_PAIRS
    (row, face) pairs per block.
    """
    n = C.ambient_dim
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise DynamicsError("points must be an (N, n) array matching the complex")
    if C.dim > 2:
        raise DynamicsError("distances need cells of dimension at most 2")
    best = np.full(len(X), np.inf)
    flats = {}  # face key -> (v, u, lo, hi): the points v + t u with lo <= t <= hi
    for cell, _ in C.cells:
        keys = [cell.vkey()]
        if cell.dim == 2:
            np.minimum(best, _plane_distance(cell, X), out=best)
            keys = [k for k in cell.face_vkeys() if len(k[0]) + len(k[1]) == 2]
        for gens, lin in keys:
            v = np.array([float(Fraction(x, gens[0][n])) for x in gens[0][:n]])
            if lin:
                flats[(gens, lin)] = (v, np.array(lin[0], dtype=float), -np.inf, np.inf)
            elif len(gens) == 1:
                flats[(gens, lin)] = (v, np.zeros(n), 0.0, 0.0)
            elif gens[1][n]:
                w = np.array([float(Fraction(x, gens[1][n])) for x in gens[1][:n]])
                flats[(gens, lin)] = (v, w - v, 0.0, 1.0)
            else:
                flats[(gens, lin)] = (v, np.array(gens[1][:n], dtype=float), 0.0, np.inf)
    if flats:
        V, U, lo, hi = (np.array(col) for col in zip(*flats.values()))
        uu = np.einsum("kj,kj->k", U, U)
        uu[uu == 0] = 1.0
        rows = max(1, BLOCK_PAIRS // len(V))
        for start in range(0, len(X), rows):
            D = X[start:start + rows, None, :] - V
            t = np.clip(np.einsum("rkj,kj->rk", D, U) / uu, lo, hi)
            D -= t[..., None] * U
            d2 = np.einsum("rkj,rkj->rk", D, D).min(axis=1)
            np.minimum(best[start:start + rows], np.sqrt(d2), out=best[start:start + rows])
    return best


def _plane_distance(P: Polyhedron, X):
    """Distance from each row of X to aff(P) where its projection satisfies P's inequalities, else inf."""
    Y, h = X, np.zeros(len(X))
    if P.eqs:  # one equation: P is 2-dimensional in R^3
        a, b = P.eqs[0]
        a = np.array(a, dtype=float)
        norm = math.sqrt(a @ a)
        h = (X @ a - float(b)) / norm
        Y = X - h[:, None] * (a / norm)
    inside = np.ones(len(X), dtype=bool)
    for a, b in P.ineqs:
        inside &= Y @ np.array(a, dtype=float) >= float(b)
    return np.where(inside, np.abs(h), np.inf)


#: pairs per block of the nearest-distance loop: two 512 KB buffers, which stay in cache
BLOCK_PAIRS = 2 ** 16
#: directed_hausdorff bounds every row by its distance to every PRUNE_STRIDE-th point of B
PRUNE_STRIDE = 8


def _nearest_distances(P, Q) -> np.ndarray:
    """Euclidean distance from each row of P to the nearest row of Q.

    Brute force over all pairs, a block of P's rows at a time, sized to about
    BLOCK_PAIRS pairs so the two reused (rows, len(Q)) buffers stay in cache.
    Squared differences are added coordinate by coordinate, left to right,
    so no (rows, len(Q), dim) array is built.  Below 8 coordinates numpy's
    sum over a last axis adds in the same order, so the distances equal that
    formulation bit for bit.
    """
    out = np.empty(len(P))
    rows = max(1, min(len(P), BLOCK_PAIRS // max(len(Q), 1)))
    d2_buf, diff_buf = np.empty((rows, len(Q))), np.empty((rows, len(Q)))
    for start in range(0, len(P), rows):
        block = P[start:start + rows]
        d2, diff = d2_buf[:len(block)], diff_buf[:len(block)]
        np.subtract(block[:, 0, None], Q[None, :, 0], out=d2)
        d2 *= d2
        for j in range(1, P.shape[1]):
            np.subtract(block[:, j, None], Q[None, :, j], out=diff)
            diff *= diff
            d2 += diff
        out[start:start + rows] = np.sqrt(np.min(d2, axis=1))
    return out


def directed_hausdorff(A: PointCloud, B: PointCloud) -> float:
    """sup over a in A of the Euclidean distance from a to B.

    Bound and prune, equal bit for bit to the maximum of the brute-force
    nearest distances.  A pair's distance takes the same float operations in
    every call of _nearest_distances, so a row's distance to every
    PRUNE_STRIDE-th point of B is an upper bound on its nearest distance, and
    the exact distance of the row with the largest bound is a lower bound on
    the answer.  Only rows whose upper bound exceeds it can hold the maximum;
    they alone are measured against all of B.
    """
    if A.dim != B.dim:
        raise DynamicsError("dimension mismatch")
    if len(A) == 0 or len(B) == 0:
        raise DynamicsError("empty cloud")
    if np.iscomplexobj(A.points) or np.iscomplexobj(B.points):
        raise DynamicsError("Hausdorff distances need real point clouds")
    P, Q = A.points, B.points
    ub = _nearest_distances(P, Q[::PRUNE_STRIDE])
    i = int(np.argmax(ub))
    best = _nearest_distances(P[i:i + 1], Q)[0]
    rest = P[ub > best]
    if len(rest):
        best = max(best, np.max(_nearest_distances(rest, Q)))
    return float(best)


def hausdorff(A: PointCloud, B: PointCloud) -> float:
    return max(directed_hausdorff(A, B), directed_hausdorff(B, A))


def clip_to_box(cloud: PointCloud, box) -> PointCloud:
    pts = cloud.points
    keep = np.ones(len(pts), dtype=bool)
    for i, (lo, hi) in enumerate(box):
        keep &= (pts[:, i] >= lo) & (pts[:, i] <= hi)
    return PointCloud(cloud.dim, pts[keep], m=cloud.m, seed=cloud.seed)


# ---------------------------------------------------------------------------
# dequantization error and convergence experiments


def _libm(fn, a):
    """fn of the math module (or abs) mapped over an array: libm's results, bit for bit.

    numpy's own exp, log and complex abs differ from libm's by an ulp on some
    inputs; a scalar formula written with math and cmath gets libm's values.
    """
    return np.fromiter(map(fn, a.ravel().tolist()), float, count=a.size).reshape(a.shape)


def log_abs_power_pullback(f: ComplexPolynomial, x, theta, m: int):
    """log|f(z^m)| for z_j = exp(-x_j + i theta_j), via an exponent shift.

    x and theta are (N, n) arrays of points and phases.  Every row is
    evaluated in one batch, which returns the N values and a mask of the rows
    where |f(z^m)| < 1e-280 (their values are NaN).

    Per row this is the scalar formula: with L_a = log|c_a| - m <a, x> and
    phi_a = arg c_a + m <a, theta>, top = max L_a, the value is
    top + log|sum_a exp(L_a - top + i phi_a)|.  The exponentials are one map
    of cmath.exp, the scalar formula's own function: for a finite argument
    with real part <= 0 it returns exactly e^a cos b + i e^a sin b from
    libm's exp, cos and sin.  The sums run term by term in f.terms order as
    sum() would add them, and abs and log are libm's (see _libm), so each
    row equals that formula bit for bit.
    """
    X, T = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
    if X.shape != T.shape or X.ndim != 2 or X.shape[1] != f.ambient_dim:
        raise DynamicsError("points and phases must be (N, n) arrays matching the polynomial")
    exps = [exp for exp, _ in f.terms]
    L = np.array([math.log(abs(c)) for _, c in f.terms]) - m * exponent_dots(exps, X)
    top = builtin_max(L.T)
    arg = np.empty(L.shape, dtype=complex)
    arg.real = L - top[:, None]
    arg.imag = np.array([math.atan2(c.imag, c.real) for _, c in f.terms]) + m * exponent_dots(exps, T)
    parts = np.fromiter(map(cmath.exp, arg.ravel().tolist()), complex, count=arg.size).reshape(arg.shape)
    re = builtin_sum(parts.real.T, COMPLEX_SUM_COMPENSATES)
    im = builtin_sum(parts.imag.T, COMPLEX_SUM_COMPENSATES)
    val = np.empty(len(X), dtype=complex)
    val.real, val.imag = re, im
    modulus = _libm(abs, val)
    zero = modulus < 1e-280
    vals = top + _libm(math.log, np.where(zero, 1.0, modulus))
    vals[zero] = np.nan
    return vals, zero


def _outside_exclusion(C: WeightedComplex, support: PointCloud, pts, grid: GridSpec) -> np.ndarray:
    """The rows of pts at least radius = delta + pitch from every sample: a mask.

    Equal bit for bit to _nearest_distances(pts, support.points) >= radius.
    A row that distance_to_complex puts at least radius + slack from |C| is
    kept unmeasured; the others alone go through _nearest_distances, whose
    value for a row does not depend on the rows beside it.

    slack is derived, not tuned.  C is a fan (trop(f) of the trivial
    valuation), sampled at pitch = delta / 8 in the box; M is the box's
    largest |bound|, so |x| <= 2 M for every grid point and sample x.  Let
    e_s bound the distance from a sample to |C| and e_k the error of
    distance_to_complex at a grid point.  A point it puts at least
    radius + e_s + e_k + 8 EPS radius from |C| is at least radius (1 + 8 EPS)
    from every sample, and _nearest_distances, off by under 4 EPS relative,
    gives it at least radius.  slack covers each term:
    - e_k <= 64 EPS M.  Every face of a fan holds the origin, its only
      vertex, and has integer directions, exact as floats, so each closed
      form, and the 2-cell test (see distance_to_complex), rounds by a few
      EPS |x|.
    - e_s for n <= 2.  A clipped cell K is a point, sampled by its relative
      interior point rounded (within EPS M), or a segment of a line L through
      the origin.  K's integer rows a.x >= b are orthogonal to L's equation,
      so a lies along L and |a| >= 1.  The filter keeps a candidate with
      a.x >= b - 1e-9 up to the rounding of a.x and b, at most 8 EPS |a| M,
      so at most (1e-9 + 8 EPS |a| M) / |a| <= 1e-9 + 8 EPS M past K along L.
      Off L a candidate c + u q is out only by the rounding of c, q and the
      sum: below 16 EPS (M + pitch), as |u| < 3 M + pitch.  So
      e_s <= 1e-9 + 32 EPS (M + pitch).
    - e_s for n = 3.  In a clipped polygon the 1e-9 tolerance grows at a
      sharp corner by 1 / sin of its angle, and a piece meeting the box only
      in its boundary has rows off its plane; neither has a small a priori
      bound.  So e_s is measured: the samples' largest distance_to_complex,
      plus 64 EPS M for that kernel's own error.
    """
    pitch = grid.delta / 8
    radius = grid.delta + pitch
    M = max(abs(x) for interval in grid.box for x in interval)
    slack = 1e-9 + 128 * EPS * (M + pitch) + 8 * EPS * radius
    if C.ambient_dim == 3:
        slack += float(np.max(distance_to_complex(C, support.points)))
    near = distance_to_complex(C, pts) < radius + slack
    keep = ~near
    keep[near] = _nearest_distances(pts[near], support.points) >= radius
    return keep


def dequantization_error(f: ComplexPolynomial, m: int, grid: GridSpec, seed: int = 0) -> tuple[float, float]:
    """(sup, mean) of |(1/m) log|f(z^m)| - trop(f)(x)| over the admissible grid.

    z_j = exp(-x_j + i theta_j) with seeded random phases.  The tropical
    hypersurface is sampled at pitch delta/8, and grid points closer than
    delta + delta/8 to that sample are skipped (the grid's delta must be
    positive since trop(f) o Log is non-smooth on the set).  Only the grid
    points that the exact distance to the hypersurface leaves in doubt are
    measured against the sample (_outside_exclusion); the rest are certified
    kept, and the kept set is the brute-force one bit for bit.

    The kept points go through eval_tropical and log_abs_power_pullback as
    one (N, n) batch each.  Point k takes the k-th phase draw of the seeded
    stream, as a loop drawing n phases per point would.  A point where
    f(z^m) is near zero takes the next draw, and every point after it the
    draws after that; a point may be re-phased up to MAX_RETRIES times.
    """
    if grid.delta <= 0:
        raise DynamicsError("dequantization grids need a positive exclusion radius")
    if m < 1:
        raise DynamicsError("m must be a positive integer")
    if seed is not None and seed < 0:  # numpy seeds a generator from a nonnegative integer only
        raise DynamicsError(f"seed must be a nonnegative integer, got {seed}")
    q = tropicalize_poly(f)
    cycle = tropical_hypersurface(q)
    pitch = grid.delta / 8
    support = sample_tropical_support(cycle, grid.box, density=1.0 / pitch)
    axes = [grid.axis(i) for i in range(len(grid.box))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    if len(support) > 0:
        pts = pts[_outside_exclusion(cycle, support, pts, grid)]
    if len(pts) == 0:
        raise DynamicsError("no grid points outside the exclusion zone")
    target = eval_tropical(q, pts).value
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2 * np.pi, size=pts.shape)  # the draws of points done, done+1, ...
    errors = np.empty(len(pts))
    done, failures = 0, 0  # failures: draws the point at done has failed on
    while True:
        vals, zero = log_abs_power_pullback(f, pts[done:], theta, m)
        k = int(np.argmax(zero)) if zero.any() else len(vals)
        errors[done:done + k] = np.abs(vals[:k] / m - target[done:done + k])
        if k == len(vals):
            break
        failures = failures + 1 if k == 0 else 1
        if failures > MAX_RETRIES:
            raise DynamicsError("exceeded the phase retry budget near a zero")
        done += k
        theta = np.concatenate([theta[k + 1:], rng.uniform(0.0, 2 * np.pi, size=(1, pts.shape[1]))])
    return float(np.max(errors)), float(np.mean(errors))


EXPERIMENTS = ("hausdorff-to-tropical", "dequantization", "equidistribution-discrepancy")


def _fit_power_law(ms, errors):
    logm = np.log(np.asarray(ms, dtype=float))
    loge = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    A = np.stack([np.ones_like(logm), -logm], axis=-1)
    (logC, rho), *_ = np.linalg.lstsq(A, loge, rcond=None)
    return float(np.exp(logC)), float(rho)


def convergence_report(
    experiment: str,
    ms,
    f: ComplexPolynomial | None = None,
    grid: GridSpec | None = None,
    seed: int = 0,
    density: float = 40.0,
) -> ConvergenceReport:
    """Run a named experiment for each m and fit errors ~ C * m^(-rho).

    A hausdorff-to-tropical report also lists, per m, the amoeba sampler's
    deterministic counters in details: slices, failed_slices and
    aberth_iterations (see amoeba_sample).  No timing enters a report.
    """
    ms = tuple(int(m) for m in ms)
    if len(ms) < 2 or any(b <= a for a, b in zip(ms, ms[1:])):
        raise DynamicsError("need at least two strictly increasing m values")
    if experiment not in EXPERIMENTS:
        raise DynamicsError(f"unknown experiment {experiment!r}")
    errors = []
    details = {}
    if experiment == "equidistribution-discrepancy":
        for m in ms:
            errors.append(star_discrepancy(mth_roots([1.0], m)))
    elif experiment == "dequantization":
        if f is None or grid is None:
            raise DynamicsError("dequantization needs a polynomial and a grid")
        for m in ms:
            linf, l1 = dequantization_error(f, m, grid, seed=seed)
            errors.append(linf)
            details.setdefault("l1", []).append(l1)
    else:  # hausdorff-to-tropical
        if f is None or grid is None:
            raise DynamicsError("hausdorff-to-tropical needs a polynomial and a grid")
        cycle = tropical_hypersurface(tropicalize_poly(f))
        spine = clip_to_box(sample_tropical_support(cycle, grid.box, density), grid.box)
        details["grid_pitch"] = max(
            (hi - lo) / (r - 1) for (lo, hi), r in zip(grid.box, grid.resolution)
        )
        for m in ms:
            sample = amoeba_sample(f, grid, m)
            for key, count in sample.counters.items():
                details.setdefault(key, []).append(count)
            errors.append(hausdorff(clip_to_box(sample, grid.box), spine))
    C, rho = _fit_power_law(ms, errors)
    return ConvergenceReport(experiment, ms, tuple(float(e) for e in errors), C, rho, seed, details)
