"""Floating-point harness: equidistribution, amoebas, and dequantization at finite m.

Conventions fixed once here: positions are measured with Log = -log|.| (see
LOG_SIGN), every randomized experiment takes an explicit seed, and point
clouds carry (m, seed) metadata so artifacts are reproducible byte for byte.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .polyhedra import Polyhedron, WeightedComplex
from .tropical import ComplexPolynomial, eval_tropical, tropical_hypersurface, tropicalize_poly

#: sign convention for the logarithm map; Log(z) = LOG_SIGN * log|z| coordinatewise
LOG_SIGN = -1.0

ALL_MODE_BUDGET = 10 ** 6


class DynamicsError(ValueError):
    pass


class RootFindingError(DynamicsError):
    """Root iteration did not converge; carries the partial approximations."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = list(partial)


def log_map(z):
    """Coordinatewise Log = -log|z|; the single place the sign convention lives."""
    return LOG_SIGN * np.log(np.abs(z))


@dataclass(frozen=True)
class GridSpec:
    """Sampling window: per-axis [lo, hi], per-axis resolution, exclusion radius."""

    box: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    delta: float = 0.0

    def __post_init__(self):
        if len(self.box) != len(self.resolution):
            raise DynamicsError("box and resolution must have the same length")
        if any(lo >= hi for lo, hi in self.box):
            raise DynamicsError("box intervals need lo < hi")
        if any(r < 2 for r in self.resolution):
            raise DynamicsError("resolution must be at least 2 per axis")
        if self.delta < 0:
            raise DynamicsError("exclusion radius must be nonnegative")

    def axis(self, i):
        lo, hi = self.box[i]
        return np.linspace(lo, hi, self.resolution[i])


@dataclass
class PointCloud:
    """Fixed-dimension samples; complex clouds are used for root/torus data."""

    dim: int
    points: np.ndarray
    m: int | None = None
    seed: int | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points)
        if self.points.size == 0:
            self.points = self.points.reshape(0, self.dim)
        if self.points.ndim != 2 or self.points.shape[1] != self.dim:
            raise DynamicsError("points must be an (N, dim) array")
        if not np.issubdtype(self.points.dtype, np.complexfloating):
            if not np.all(np.isfinite(self.points)):
                raise DynamicsError("point coordinates must be finite")

    def __len__(self):
        return self.points.shape[0]


@dataclass
class ConvergenceReport:
    """Per-m errors with a least-squares power-law fit errors ~ C * m^(-rho)."""

    experiment: str
    ms: tuple[int, ...]
    errors: tuple[float, ...]
    C: float
    rho: float
    seed: int
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# roots of unity and Weyl sums


def mth_roots(a, m: int, mode: str = "all", k: int | None = None, seed: int | None = None) -> PointCloud:
    """Componentwise m-th roots of a nonzero complex vector.

    mode="all" enumerates all m^n combinations (capped at 10^6 points);
    mode="sampled" draws k independent uniform root choices with the seed.
    """
    if m < 1:
        raise DynamicsError("m must be a positive integer")
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    n = a.shape[0]
    if np.any(a == 0):
        raise DynamicsError("all components must be nonzero")
    radii = np.abs(a) ** (1.0 / m)
    base = np.angle(a) / m
    if mode == "all":
        if m ** n > ALL_MODE_BUDGET:
            raise DynamicsError("all-mode root budget exceeded")
        axes = [
            radii[j] * np.exp(1j * (base[j] + 2 * np.pi * np.arange(m) / m))
            for j in range(n)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        return PointCloud(n, pts, m=m)
    if mode == "sampled":
        if k is None or k < 1:
            raise DynamicsError("sampled mode needs k >= 1")
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, m, size=(k, n))
        pts = radii * np.exp(1j * (base + 2 * np.pi * picks / m))
        return PointCloud(n, pts, m=m, seed=seed)
    raise DynamicsError(f"unknown mode {mode!r}")


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
# univariate roots (Aberth--Ehrlich)


def polynomial_roots(coeffs, tol: float = 1e-12, max_iter: int = 200) -> list[complex]:
    """All roots with multiplicity of sum c_k z^k (coeffs ascending).

    Simultaneous Aberth--Ehrlich iteration started on a Cauchy-bound circle;
    zero roots are deflated exactly first.  Raises RootFindingError carrying
    the partial approximations on non-convergence, and checks the final
    relative residuals against 1e-8.
    """
    c = np.asarray(list(coeffs), dtype=complex)
    if c.size < 2:
        raise DynamicsError("degree must be at least one")
    if c[-1] == 0:
        raise DynamicsError("leading coefficient must be nonzero")
    nz = int(np.nonzero(c)[0][0])
    zeros = [0j] * nz
    c = c[nz:]
    d = c.size - 1
    if d == 0:
        return zeros
    c = c / np.max(np.abs(c))
    radius = 1.0 + float(np.max(np.abs(c[:-1] / c[-1])))
    angles = 2 * np.pi * (np.arange(d) + 0.25) / d + 0.42
    z = 0.5 * radius * np.exp(1j * angles)
    dc = c[1:] * np.arange(1, d + 1)

    def horner(values, pts):
        acc = np.zeros_like(pts)
        for ck in values[::-1]:
            acc = acc * pts + ck
        return acc

    converged = False
    for _ in range(max_iter):
        p = horner(c, z)
        dp = horner(dc, z)
        dp = np.where(dp == 0, 1e-300, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = np.sum(1.0 / diff, axis=1) - 1.0  # subtract the diagonal's 1/1
        corr = w / (1.0 - w * s)
        z = z - corr
        if np.max(np.abs(corr)) <= tol * (1.0 + np.max(np.abs(z))):
            converged = True
            break
        scale = np.polyval(np.abs(c)[::-1], np.abs(z))
        if np.all(np.abs(horner(c, z)) <= 1e-15 * np.maximum(scale, 1e-300)):
            converged = True
            break
    if not converged:
        raise RootFindingError("Aberth iteration did not converge", zeros + list(z))
    scale = np.polyval(np.abs(c)[::-1], np.abs(z))
    rel = np.abs(horner(c, z)) / np.maximum(scale, 1e-300)
    if np.max(rel) > 1e-8:
        raise RootFindingError("root residuals above tolerance", zeros + list(z))
    return zeros + sorted(z.tolist(), key=lambda r: (round(abs(r), 9), round(cmath.phase(r), 9)))


# ---------------------------------------------------------------------------
# amoeba sampling


def _slice_coefficients(f: ComplexPolynomial, axis: int, log_w: float, phi: float):
    """Coefficients of f with z_axis = exp(log_w + i phi), as (logmag, phase) pairs.

    Returns a dict degree -> (L, theta) meaning coefficient exp(L + i theta);
    exact zero coefficients are dropped.  Everything stays in log scale so
    slices at |z_axis| = e^(+-3m) do not overflow.
    """
    other = 1 - axis
    buckets: dict[int, list[tuple[float, float]]] = {}
    for exp, coeff in f.terms:
        L = math.log(abs(coeff)) + exp[axis] * log_w
        theta = cmath.phase(coeff) + exp[axis] * phi
        buckets.setdefault(exp[other], []).append((L, theta))
    out = {}
    for k, parts in buckets.items():
        top = max(L for L, _ in parts)
        val = sum(cmath.exp(complex(L - top, theta)) for L, theta in parts)
        if val == 0:
            continue
        out[k] = (top + math.log(abs(val)), cmath.phase(val))
    return out


def amoeba_sample(
    f: ComplexPolynomial,
    grid: GridSpec,
    m: int,
    phases: int | None = None,
    phase_offset: float = 0.0,
) -> PointCloud:
    """Sample of the 1/m-scaled amoeba of V(f) inside the grid window.

    For each slice value s on an axis the slice variable is set to
    exp(-m*s + i*phi) and the roots of the resulting univariate polynomial are
    emitted as (1/m) Log(z); both variable roles are swept.  The grid box is
    the window in the scaled Log coordinates, so larger m slices at modulus
    e^(-m*s), matching Log(preimage) = (1/m) Log(Z).
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
    pts = []
    for axis in (0, 1):
        other = 1 - axis
        nphi = phases if phases is not None else grid.resolution[other]
        phis = phase_offset + 2 * np.pi * np.arange(nphi) / nphi
        for s in grid.axis(axis):
            log_w = -m * float(s)
            for phi in phis:
                coeffs = _slice_coefficients(f, axis, log_w, float(phi))
                if not coeffs:
                    continue
                k_lo = min(coeffs)
                k_hi = max(coeffs)
                deg = k_hi - k_lo
                if deg == 0:
                    continue  # no finite nonzero roots on this slice
                # balance the exponent spread so the scaled coefficients are finite
                t = (coeffs[k_lo][0] - coeffs[k_hi][0]) / deg
                logs = []
                for j in range(deg + 1):
                    if k_lo + j in coeffs:
                        L, theta = coeffs[k_lo + j]
                        logs.append((L + j * t, theta))
                    else:
                        logs.append(None)
                top = max(L for Lt in logs if Lt is not None for L in [Lt[0]])
                cs = []
                for Lt in logs:
                    if Lt is None:
                        cs.append(0j)
                    else:
                        cs.append(cmath.exp(complex(Lt[0] - top, Lt[1])))
                try:
                    roots = polynomial_roots(cs)
                except RootFindingError:
                    continue
                for y in roots:
                    if y == 0 or not np.isfinite(abs(y)):
                        continue
                    log_root = t + math.log(abs(y))
                    coord = [0.0, 0.0]
                    coord[axis] = float(s)
                    coord[other] = LOG_SIGN * log_root / m
                    pts.append(coord)
    return PointCloud(2, np.asarray(pts, dtype=float) if pts else np.zeros((0, 2)), m=m)


# ---------------------------------------------------------------------------
# tropical support sampling and Hausdorff distances


def box_constraints(box):
    """The box as inequalities (a, b) meaning a.x >= b, exact in the bounds."""
    out = []
    for i, (lo, hi) in enumerate(box):
        e = tuple(1 if j == i else 0 for j in range(len(box)))
        out.append((e, Fraction(lo)))
        out.append((tuple(-x for x in e), -Fraction(hi)))
    return out


def sample_tropical_support(C: WeightedComplex, box, density: float) -> PointCloud:
    """Uniform samples on each cell of the complex clipped to the box.

    Every cell with nonempty intersection contributes at least its relative
    interior point; weights play no role in sampling.
    """
    if density <= 0:
        raise DynamicsError("density must be positive")
    n = C.ambient_dim
    if len(box) != n:
        raise DynamicsError("box dimension mismatch")
    box_ineqs = box_constraints(box)
    pts = []
    for cell, _ in C.cells:
        clipped = Polyhedron.from_constraints(
            n, eqs=cell.eqs, ineqs=tuple(cell.ineqs) + tuple(box_ineqs)
        )
        if clipped.is_empty:
            continue
        center = np.array([float(x) for x in clipped.relint_point()])
        pts.append(center)
        dirs = clipped.direction_basis()
        if not dirs:
            continue
        D = np.array(dirs, dtype=float).T  # n x p
        Q, _ = np.linalg.qr(D)
        verts = np.array([[float(x) for x in v] for v in clipped.vertices])
        coords = (verts - center) @ Q
        step = 1.0 / density
        axes = []
        for j in range(Q.shape[1]):
            lo, hi = coords[:, j].min(), coords[:, j].max()
            axes.append(np.arange(lo, hi + step / 2, step))
        mesh = np.meshgrid(*axes, indexing="ij")
        u = np.stack([g.ravel() for g in mesh], axis=-1)
        cand = center + u @ Q.T
        keep = np.ones(len(cand), dtype=bool)
        for a, b in clipped.ineqs:
            keep &= cand @ np.asarray(a, dtype=float) >= float(b) - 1e-9
        for a, b in clipped.eqs:
            keep &= np.abs(cand @ np.asarray(a, dtype=float) - float(b)) <= 1e-9
        pts.extend(cand[keep])
    arr = np.asarray(pts, dtype=float) if pts else np.zeros((0, n))
    return PointCloud(n, arr)


def _nearest_distances(P, Q, chunk=256) -> np.ndarray:
    """Euclidean distance from each row of P to the nearest row of Q.

    Brute force over all pairs, chunk rows of P at a time, so memory stays
    at chunk * len(Q) squared distances.
    """
    out = np.empty(len(P))
    for start in range(0, len(P), chunk):
        block = P[start:start + chunk]
        d2 = np.sum((block[:, None, :] - Q[None, :, :]) ** 2, axis=2)
        out[start:start + chunk] = np.sqrt(np.min(d2, axis=1))
    return out


def directed_hausdorff(A: PointCloud, B: PointCloud) -> float:
    """sup over a in A of the Euclidean distance from a to B."""
    if A.dim != B.dim:
        raise DynamicsError("dimension mismatch")
    if len(A) == 0 or len(B) == 0:
        raise DynamicsError("empty cloud")
    return float(np.max(_nearest_distances(A.points, B.points)))


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


def log_abs_power_pullback(f: ComplexPolynomial, x, theta, m: int) -> float:
    """log|f(z^m)| for z_j = exp(-x_j + i theta_j), via an exponent shift."""
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


def dequantization_error(
    f: ComplexPolynomial, m: int, grid: GridSpec, seed: int = 0, max_retries: int = 20
) -> tuple[float, float]:
    """(sup, mean) of |(1/m) log|f(z^m)| - trop(f)(x)| over the admissible grid.

    z_j = exp(-x_j + i theta_j) with seeded random phases.  The tropical
    hypersurface is sampled at pitch delta/8, and grid points closer than
    delta + delta/8 to that sample are skipped (the grid's delta must be
    positive since trop(f) o Log is non-smooth on the set).  Near-zeros of
    f(z^m) are re-phased up to max_retries.
    """
    if grid.delta <= 0:
        raise DynamicsError("dequantization grids need a positive exclusion radius")
    if m < 1:
        raise DynamicsError("m must be a positive integer")
    q = tropicalize_poly(f)
    cycle = tropical_hypersurface(q)
    pitch = grid.delta / 8
    support = sample_tropical_support(cycle, grid.box, density=1.0 / pitch)
    axes = [grid.axis(i) for i in range(len(grid.box))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    if len(support) > 0:
        pts = pts[_nearest_distances(pts, support.points) >= grid.delta + pitch]
    if len(pts) == 0:
        raise DynamicsError("no grid points outside the exclusion zone")
    rng = np.random.default_rng(seed)
    n = f.ambient_dim
    errors = []
    for x in pts:
        x = tuple(float(v) for v in x)
        target = eval_tropical(q, x).value
        for attempt in range(max_retries + 1):
            theta = rng.uniform(0.0, 2 * np.pi, size=n)
            try:
                g = log_abs_power_pullback(f, x, tuple(theta), m) / m
            except ZeroDivisionError:
                continue
            errors.append(abs(g - target))
            break
        else:
            raise DynamicsError("exceeded the phase retry budget near a zero")
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
    """Run a named experiment for each m and fit errors ~ C * m^(-rho)."""
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
            cloud = clip_to_box(amoeba_sample(f, grid, m), grid.box)
            errors.append(hausdorff(cloud, spine))
    C, rho = _fit_power_law(ms, errors)
    return ConvergenceReport(experiment, ms, tuple(float(e) for e in errors), C, rho, seed, details)
