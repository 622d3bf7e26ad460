"""Positive-energy single-particle states on a rapidity grid.

Representation
--------------
A state of mass m is a complex amplitude vector a_j over a uniform rapidity
grid theta_j, understood as the quadrature version of

    |f> = integral dtheta/2  a(theta) |p(theta)>,

with the Lorentz-invariant measure dp/(2E) = dtheta/2 and momentum kets
normalized as <p'|p> = 2 E delta(p - p').  The spacetime wavefunction is

    psi(t, x) = <t, x | f> = sum_j w_j exp(-i E_j t + i p_j x) a_j,

with trapezoid weights w_j (= h/2 in the interior).  The inner product
carried by the same measure,

    <f|g> = sum_j w_j conj(a_j) b_j,

is the conserved (Klein-Gordon) product: for equal-time wavefunctions it
equals (i/2pi) integral dx (psi* d_t phi - (d_t psi*) phi).

`from_spacetime_function` prepares a state from a Gaussian spacetime
function: a `Gaussian2D` packet, or a `GaussianProfile` on an equal-time
`Slice` or a `TiltedSlice`.  Each has a closed-form transform, evaluated on
shell, and every such state is normalizable.

Every spectral sum of the wavefunction's form (wavefunctions, gridded
wavefunctions, slice profiles) goes through one kernel, `_synthesize`.  It
sums only over the smallest index window holding every |a_j| > 1e-16 max|a|,
n sites (`RapidityState.window`, found once per state), and runs each call
as one tiled complex GEMM.  An x axis that is an arithmetic progression
(np.linspace axes are) is split as x[a*B + b] = X_a + b*dx with B about
sqrt(N_t N_x): GEMM rows are the pairs (t, X_a) and columns the offsets b.
Any other x axis is columns, one per point.  Every factor comes from small
exponential tables: a progression v of N values gives exp(i k v_a) =
hi[a // s] lo[a % s] from s = ceil(sqrt(N)) rows of each, for the t points,
the x anchors and the x offsets, and a row entry is one fused exponential
exp(i (p X_hi - E T_hi)) per pair of hi values times lo_t c lo_x, one
product per entry; a t axis or anchor set that is no progression takes one
exponential per point.  A 1xN line then costs about 4 N^(1/4) n complex
exponentials (50 n for N = 20001, against N n for the direct sum), a 72x72
patch about 35 n and a single point n, with the N_t N_x n multiply-adds in
the GEMM.  Each split moves a point by at most 4 ulps of its axis's largest
|value| (a point of x passes three: its own, its anchor's, its offset's),
so the phase errs by O(|E| ulp(max|t|) + |p| ulp(max|x|)), the order at
which the direct sum already rounds p*x; the at most 5 exponentials and 4
complex products per term add about 14 u = 1.6e-15 relative (u = 2^-53).
Zero sites pad the sum to a multiple of 8 (a single point is summed in dot
products of at most 4096 terms instead), so it keeps its bits across the
thread counts of one BLAS.  The columns, and each tile of rows with its
result, hold at most half of a 2^19-entry block (8 MiB complex), so working
memory stays within two blocks however many points are requested.  The
equation-of-motion residual uses the same window and rotates its nine
stencil samples from one cos/sin row per probe.

A state sits at theta_j = grid.thetas[j] + origin.  A boost by alpha only
moves the origin by -alpha (a'(theta) = a(theta + alpha), support moved by
the kinematics boost matrix), so it is O(1), exact and drops nothing.  The
origin carries its rounding error in `origin_lo` (`kinematics.add_rapidity`),
so opposite boosts restore it bit for bit from any origin.  Only
`resample` interpolates, back onto the grid's lattice where origins meet,
with a six-point filter on the demodulated support window (see there).

The two-point function

    W(dt, dx) = integral dtheta/2 exp(-i E dt + i p dx)

is evaluated, for either sign of the interval, by rotating the integration
contour onto one Gaussian-decaying half-line integral in z = m*s, which a
fixed 24-node Gauss-Legendre rule sums on doubling panels (`_gauss_panels`);
see `propagator`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .kinematics import SpacetimePoint, add_rapidity, check_mass

__all__ = [
    "RapidityGrid",
    "RapidityState",
    "GaussianProfile",
    "Gaussian2D",
    "Slice",
    "TiltedSlice",
    "PropagatorQuery",
    "from_spacetime_function",
    "wavefunction",
    "wavefunction_grid",
    "slice_profile",
    "propagator",
    "kg_inner",
    "kg_norm",
    "normalize",
    "translate",
    "boost_state",
    "resample",
    "kg_equation_residual",
]


# ---------------------------------------------------------------------------
# grid


@dataclass(frozen=True)
class RapidityGrid:
    """Uniform rapidity lattice theta_j = theta_min + j*step, j = 0..count-1."""

    theta_min: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if isinstance(self.count, bool) or not isinstance(self.count, (int, np.integer)):
            raise TypeError(f"grid count must be an integer, got {self.count!r}")
        if not (math.isfinite(self.theta_min) and math.isfinite(self.step)):
            raise ValueError("grid parameters must be finite")
        if self.step <= 0.0:
            raise ValueError(f"grid step must be positive, got {self.step!r}")
        if self.count < 8:
            raise ValueError(f"grid needs at least 8 points, got {self.count}")

    @classmethod
    def symmetric(cls, half_width: float = 10.0, count: int = 4096) -> "RapidityGrid":
        """Grid covering [-half_width, half_width] with the given point count."""
        if half_width <= 0.0:
            raise ValueError("half_width must be positive")
        step = 2.0 * half_width / (count - 1)
        return cls(-half_width, step, count)

    @classmethod
    def default(cls) -> "RapidityGrid":
        return cls.symmetric(10.0, 4096)

    @property
    def theta_max(self) -> float:
        return self.theta_min + self.step * (self.count - 1)

    @property
    def thetas(self) -> np.ndarray:
        return _grid_thetas(self)

    @property
    def weights(self) -> np.ndarray:
        return _grid_weights(self)


@lru_cache(maxsize=64)
def _grid_thetas(grid: RapidityGrid) -> np.ndarray:
    th = grid.theta_min + grid.step * np.arange(grid.count)
    th.flags.writeable = False
    return th


@lru_cache(maxsize=64)
def _grid_weights(grid: RapidityGrid) -> np.ndarray:
    w = np.full(grid.count, grid.step / 2.0)
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


# ---------------------------------------------------------------------------
# spacetime preparation functions


@dataclass(frozen=True)
class GaussianProfile:
    """Spatial profile exp(-(x-center)^2/(4 sigma^2) + i momentum (x-center))."""

    center: float = 0.0
    sigma: float = 1.0
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma <= 0.0 or not math.isfinite(self.sigma):
            raise ValueError("profile sigma must be positive and finite")
        limit = math.sqrt(sys.float_info.max)
        if self.sigma > limit:
            raise ValueError(
                f"profile sigma must be at most {limit:.4g}, where sigma**2 "
                f"still fits a float, got {self.sigma!r}"
            )

    def fourier(self, p: np.ndarray) -> np.ndarray:
        """integral dx exp(-i p x) phi(x)."""
        amp = 2.0 * self.sigma * math.sqrt(math.pi)
        return amp * np.exp(
            -self.sigma**2 * (p - self.momentum) ** 2 - 1j * p * self.center
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        u = np.asarray(x) - self.center
        return np.exp(-(u**2) / (4.0 * self.sigma**2) + 1j * self.momentum * u)


@dataclass(frozen=True)
class Gaussian2D:
    """Unconstrained spacetime Gaussian exp(-(t-t0)^2/4st^2 - (x-x0)^2/4sx^2)
    carrying optional central phases exp(-i energy (t-t0) + i momentum (x-x0))."""

    t0: float = 0.0
    x0: float = 0.0
    sigma_t: float = 1.0
    sigma_x: float = 1.0
    energy: float = 0.0
    momentum: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma_t <= 0.0 or self.sigma_x <= 0.0:
            raise ValueError("gaussian widths must be positive")

    def transform(self, e: np.ndarray, p: np.ndarray) -> np.ndarray:
        """integral dt dx exp(i e t - i p x) f(t, x)."""
        amp = 4.0 * math.pi * self.sigma_t * self.sigma_x
        return amp * np.exp(
            1j * (e * self.t0 - p * self.x0)
            - self.sigma_t**2 * (e - self.energy) ** 2
            - self.sigma_x**2 * (p - self.momentum) ** 2
        )

    def __call__(self, t: np.ndarray, x: np.ndarray) -> np.ndarray:
        u, v = np.asarray(t) - self.t0, np.asarray(x) - self.x0
        return np.exp(
            -(u**2) / (4.0 * self.sigma_t**2)
            - (v**2) / (4.0 * self.sigma_x**2)
            - 1j * self.energy * u
            + 1j * self.momentum * v
        )


@dataclass(frozen=True)
class Slice:
    """Equal-time preparation delta(t - t0) phi(x)."""

    t0: float
    profile: GaussianProfile

    def transform(self, e: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.exp(1j * e * self.t0) * self.profile.fourier(p)


@dataclass(frozen=True)
class TiltedSlice:
    """Preparation on the tilted surface t = t0 + tilt*x: delta(t - t0 - tilt*x) phi(x)."""

    t0: float
    tilt: float
    profile: GaussianProfile

    def __post_init__(self) -> None:
        if abs(self.tilt) >= 1.0:
            raise ValueError("slice tilt must satisfy |tilt| < 1 (spacelike surface)")

    def transform(self, e: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.exp(1j * e * self.t0) * self.profile.fourier(p - self.tilt * e)


SpacetimeFunction = Gaussian2D | Slice | TiltedSlice


# ---------------------------------------------------------------------------
# states

_WINDOW_CUT = 1e-16  # relative amplitude below which sites leave spectral sums


@dataclass(frozen=True, eq=False)
class RapidityState:
    """Amplitudes over a rapidity grid for a particle of fixed mass.

    `notes` accumulates non-fatal diagnostics (support truncation).
    Amplitude j sits at rapidity grid.thetas[j] + origin; `origin_lo` is the
    rounding error boosts left in origin (`boost_state`).
    """

    grid: RapidityGrid
    mass: float
    amplitudes: np.ndarray
    notes: tuple[str, ...] = field(default=())
    origin: float = 0.0
    origin_lo: float = 0.0

    def __post_init__(self) -> None:
        check_mass(self.mass)
        # a pair given by hand is normalized as a boost would leave it
        origin, lo = add_rapidity(self.origin, self.origin_lo, 0.0)
        if not math.isfinite(origin):
            raise ValueError("rapidity origin must be finite")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "origin_lo", lo)
        a = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if a.shape != (self.grid.count,):
            raise ValueError(
                f"amplitudes shape {a.shape} does not match grid count {self.grid.count}"
            )
        if not np.all(np.isfinite(a.view(float))):
            raise ValueError("amplitudes must be finite")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def thetas(self) -> np.ndarray:
        th = self.grid.thetas
        return th + self.origin if self.origin else th

    @property
    def weights(self) -> np.ndarray:
        return self.grid.weights

    @property
    def energies(self) -> np.ndarray:
        return self.mass * np.cosh(self.thetas)

    @property
    def momenta(self) -> np.ndarray:
        return self.mass * np.sinh(self.thetas)

    @cached_property
    def window(self) -> slice:
        """Smallest index range holding every |a_j| > _WINDOW_CUT * max |a|:
        the sites spectral sums run over."""
        mag = np.abs(self.amplitudes)
        peak = float(np.max(mag))
        if peak == 0.0:
            return slice(0, 0)
        idx = np.flatnonzero(mag > _WINDOW_CUT * peak)
        return slice(int(idx[0]), int(idx[-1]) + 1)

    def with_amplitudes(
        self, amplitudes: np.ndarray, extra_notes: tuple[str, ...] = ()
    ) -> "RapidityState":
        return replace(
            self, amplitudes=amplitudes, notes=self.notes + tuple(extra_notes)
        )


_SUPPORT_CUT = 1e-10  # relative amplitude treated as negligible for support checks


def _support_notes(grid: RapidityGrid, a: np.ndarray) -> tuple[str, ...]:
    peak = float(np.max(np.abs(a))) if a.size else 0.0
    if peak == 0.0:
        return ()
    edge = max(abs(a[0]), abs(a[-1])) / peak
    if edge > _SUPPORT_CUT:
        return (
            f"rapidity support reaches the grid boundary (edge/peak = {edge:.1e}); "
            "results may be truncated",
        )
    return ()


def from_spacetime_function(
    f: SpacetimeFunction, mass: float, grid: RapidityGrid | None = None
) -> RapidityState:
    """Project a spacetime preparation onto the positive-energy shell.

    The amplitudes are the spacetime Fourier transform of the preparation
    evaluated on shell: a_j = f~(E_j, p_j).
    """
    grid = grid or RapidityGrid.default()
    mass = check_mass(mass)
    if not isinstance(f, (Gaussian2D, Slice, TiltedSlice)):
        raise TypeError(f"not a spacetime preparation: {f!r}")
    th = grid.thetas
    a = f.transform(mass * np.cosh(th), mass * np.sinh(th))
    return RapidityState(grid, mass, a, notes=_support_notes(grid, a))


_BLOCK_ENTRIES = 1 << 19  # phase entries per block of a spectral sum (8 MiB complex)
# an axis counts as an arithmetic progression when anchors plus offsets
# rebuild it within this many ulps of its largest |value|
_PROGRESSION_ULPS = 4


def _ceil_sqrt(n: int) -> int:
    return math.isqrt(n - 1) + 1


def _split(v: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Anchors v[::size] and offsets b*d (b < size) with v[a*size + b] =
    anchors[a] + offsets[b] to within _PROGRESSION_ULPS ulps of max |v|, or
    None when v is no such progression (or not finite)."""
    offsets = (v[-1] - v[0]) / max(v.size - 1, 1) * np.arange(size)
    anchors = v[::size]
    rebuilt = (anchors[:, None] + offsets).reshape(-1)[: v.size]
    if np.max(np.abs(rebuilt - v)) <= _PROGRESSION_ULPS * np.spacing(np.max(np.abs(v))):
        return anchors, offsets
    return None


def _even(n: int, most: int) -> int:
    """Size of the fewest, most even blocks of at most `most` covering n."""
    return -(-n // -(-n // most))


def _synthesize(
    state: RapidityState, coeffs: np.ndarray, ts: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """sum_j c_j exp(-i E_j t + i p_j x) on the outer grid (len(ts), len(xs)),
    over `state.window` only, with one c_j per window site in `coeffs`: GEMM
    rows (t, x anchor) times x-offset columns, each term within about 1.6e-15
    of its phase factor at t and x moved by a few ulps (module docstring)."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    out = np.zeros((ts.size, xs.size), dtype=complex)
    win = state.window
    n = win.stop - win.start
    if n == 0 or out.size == 0:
        return out
    th = state.thetas[win]
    e, p = state.mass * np.cosh(th), state.mass * np.sinh(th)
    if out.size == 1:  # one fused exponential per site, summed in unpadded dot
        # products of at most 4096 terms, which OpenBLAS adds on one thread
        terms = np.exp(1j * (xs[0] * p - ts[0] * e)) * coeffs
        ones = np.ones(min(n, 4096), dtype=complex)
        dots = [c @ ones[: c.size] for c in np.split(terms, range(4096, n, 4096))]
        out[0, 0] = sum(dots[1:], dots[0])
        return out
    # zero sites pad the sum to a multiple of 8 terms, which every BLAS kernel
    # adds in one order at any thread count
    size = -(-n // 8) * 8
    e, p, c = (np.concatenate((v, np.zeros(size - n))) for v in (e, p, coeffs))
    half = max(1, _BLOCK_ENTRIES // (2 * size))  # columns in half a tile
    # every x anchor adds a row per t while offsets are shared columns, so
    # about sqrt(N_t N_x) columns balance the two
    split = _split(xs, _even(xs.size, min(_ceil_sqrt(ts.size * xs.size), half)))
    if split is not None:
        _panel(out, e, p, c, ts, *split)
        return out
    width = _even(xs.size, half)
    for i in range(0, xs.size, width):
        _panel(out[:, i : i + width], e, p, c, ts, np.zeros(1), xs[i : i + width])
    return out


def _panel(out, e, p, c, ts, anchors, offsets) -> None:
    """out[t, a*B + b] = sum_j c_j exp(-i E_j t + i p_j (anchors[a] + offsets[b]))
    in tiles of at most half a block: GEMM rows (t, a) times B columns b."""
    size, width = e.size, offsets.size
    o_hi, o_lo = _split(offsets, _ceil_sqrt(width)) or (offsets, np.zeros(1))
    columns = np.exp(1j * np.outer(o_hi, p))[:, None] * np.exp(1j * np.outer(o_lo, p))
    columns = columns.reshape(-1, size)[:width].T
    cap = max(1, _BLOCK_ENTRIES // (2 * (size + width)))  # rows in half a tile
    t_hi, t_lo = _split(ts, min(_ceil_sqrt(ts.size), cap)) or (ts, np.zeros(1))
    sa = min(_ceil_sqrt(anchors.size), cap // t_lo.size)
    x_hi, x_lo = _split(anchors, sa) or (anchors, np.zeros(1))
    lo = (np.exp(-1j * np.outer(t_lo, e)) * c)[:, None] * np.exp(1j * np.outer(x_lo, p))
    st, sa = lo.shape[:2]
    ga = min(x_hi.size, max(1, cap // (st * sa)))  # hi anchors in a tile
    gt = max(1, cap // (st * sa * ga))  # hi t values in a tile
    for i in range(0, t_hi.size, gt):
        t0, t1 = i * st, min((i + gt) * st, ts.size)
        for j in range(0, x_hi.size, ga):
            # one fused exponential per pair of hi values and site, and one
            # product with lo_t c lo_x per row entry
            hi = 1j * (x_hi[j : j + ga, None] * p - t_hi[i : i + gt, None, None] * e)
            rows = (np.exp(hi, out=hi)[:, None, :, None] * lo[:, None]).reshape(-1, size)
            tile = rows[: (t1 - t0) * hi.shape[1] * sa] @ columns
            dest = out[t0:t1, j * sa * width : (j + hi.shape[1]) * sa * width]
            dest[...] = tile.reshape(t1 - t0, -1)[:, : dest.shape[1]]
            del hi, rows  # before the next tile's are built


def wavefunction(
    state: RapidityState, point: SpacetimePoint | tuple[float, float]
) -> complex:
    """psi(t, x) = sum_j w_j exp(-i E_j t + i p_j x) a_j."""
    t, x = point
    win = state.window
    coeffs = state.weights[win] * state.amplitudes[win]
    return complex(_synthesize(state, coeffs, [t], [x])[0, 0])


def wavefunction_grid(
    state: RapidityState, ts: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """psi on the outer grid (len(ts), len(xs))."""
    win = state.window
    return _synthesize(state, state.weights[win] * state.amplitudes[win], ts, xs)


def slice_profile(state: RapidityState, t0: float, xs: np.ndarray) -> np.ndarray:
    """Equal-time preparation profile phi(x) with Slice(t0, phi) == state.

    Inverts the slice construction a_j = exp(i E_j t0) phi^(p_j):
    phi(x) = (1/2pi) integral dp exp(i p x) phi^(p), with dp = E dtheta.
    This is the plain Fourier profile of the preparation on the t0 surface,
    not the measure-weighted wavefunction <t0,x|f>.
    """
    # dp/2pi = E dtheta/2pi = E w/pi, since dtheta = 2 w
    win = state.window
    e = state.mass * np.cosh(state.thetas[win])
    coeffs = e * state.weights[win] * state.amplitudes[win] / math.pi
    return _synthesize(state, coeffs, [t0], xs)[0]


# ---------------------------------------------------------------------------
# two-point function


@dataclass(frozen=True)
class PropagatorQuery:
    """Invariant two-point function arguments: W(dt, dx) at the given mass."""

    dt: float
    dx: float
    mass: float

    def __post_init__(self) -> None:
        check_mass(self.mass)
        if not (math.isfinite(self.dt) and math.isfinite(self.dx)):
            raise ValueError("separation must be finite")


# The half-line integral stops at r = sqrt(40/(m*s)), where its integrand has
# fallen by e^-40 (below 1e-17 relative); r^2 there overflows below _MIN_MS.
_TAIL_EFOLDS = 40.0
_MIN_MS = _TAIL_EFOLDS / sys.float_info.max


@lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on P_n for all nodes at once, from Tricomi's initial
    guesses, with P_n and P_n' from the three-term recurrence: O(n^2) work
    where leggauss's eigenproblem is O(n^3).  Three sweeps converge.
    """
    theta = math.pi * (4 * np.arange(n, 0, -1) - 1) / (4 * n + 2)
    x = np.cos(theta) * (
        1 - (n - 1) / (8 * n**3) - (39 - 28 / np.sin(theta) ** 2) / (384 * n**4)
    )
    for _ in range(10):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0  # symmetric, as leggauss
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_panels(f, edges: np.ndarray) -> complex:
    """Sum of the 24-node Gauss-Legendre rule over the panels between
    consecutive edges; f maps an array of nodes to integrand values."""
    x, w = _leggauss(24)
    half = np.diff(edges)[:, None] / 2.0
    mid = (edges[:-1] + edges[1:])[:, None] / 2.0
    return complex(np.sum(f(mid + half * x) * (half * w)))


def _doubling_edges(cut: float) -> np.ndarray:
    """Panel edges 0, 1, 2, 4, ..., cut."""
    doublings = 2.0 ** np.arange(max(0, math.ceil(math.log2(cut))))
    return np.concatenate(([0.0], doublings, [cut]))


def _halfline(z: float, c: complex) -> complex:
    """2 integral_0^{sqrt(40/z)} exp(-z r^2) / sqrt(2 + c r^2) dr for z > 0,
    on doubling panels; c is 1 or -i (the rotated contour, see `propagator`)."""
    return 2.0 * _gauss_panels(
        lambda r: np.exp(-z * r * r) / np.sqrt(2.0 + c * r * r),
        _doubling_edges(math.sqrt(_TAIL_EFOLDS / z)),
    )


def propagator(query: PropagatorQuery) -> complex:
    """W(dt, dx) = integral dtheta/2 exp(-i E dt + i p dx).

    Centred on its stationary point, W is integral_0^inf exp(-i z cosh t) dt
    (dt > 0; conjugate for dt < 0) or integral_0^inf exp(-z cosh u) du
    (spacelike), with z = m*s.  Putting cosh t = 1 + w^2 gives
    exp(-i z) 2 integral_0^inf exp(-i z w^2) / sqrt(2 + w^2) dw, and the
    rotation w = exp(-i pi/4) r, inside the sector where exp(-i z w^2) decays
    and clear of the branch points +-i sqrt(2), makes it exp(-i z) exp(-i pi/4)
    times `_halfline(z, -i)`; the spacelike leg is exp(-z) `_halfline(z, 1)`.
    Both match the Bessel closed forms to about 4e-16 relative for m*s from
    _MIN_MS to 1e12, at a cost that does not grow with m*s.  Lightlike or
    coincident separations raise, since the continuum value diverges; so do
    m*s below _MIN_MS and a timelike m*s that overflows to inf.  s^2 is formed as (dt - dx)(dt + dx), which stays
    finite wherever dt^2 - dx^2 would be inf - inf.
    """
    dt, dx, m = query.dt, query.dx, query.mass
    s2 = (dt - dx) * (dt + dx)
    if s2 == 0.0:
        raise ValueError("propagator diverges at lightlike/coincident separation")
    z = m * math.sqrt(abs(s2))
    if z < _MIN_MS:
        raise ValueError(
            f"m*s = {z!r} is below {_MIN_MS:.3g}, where the propagator's "
            f"tail cut {_TAIL_EFOLDS:g}/(m*s) overflows"
        )
    if s2 < 0.0:
        scale = math.exp(-z)  # 0 past z ~ 745
        return complex(scale * _halfline(z, 1.0).real) if scale else 0j
    if math.isinf(z):
        raise ValueError(
            "timelike m*s exceeds the float range: the phase exp(-i m s) is undefined"
        )
    # two factors: exp(-i (z + pi/4)) would round z + pi/4 by up to ulp(z)/2
    val = cmath.exp(-1j * z) * cmath.exp(-0.25j * math.pi) * _halfline(z, -1j)
    return val if dt > 0.0 else val.conjugate()


# ---------------------------------------------------------------------------
# inner product and maps


def _check_compatible(a: RapidityState, b: RapidityState) -> None:
    if a.grid != b.grid:
        raise ValueError("states live on different rapidity grids")
    if a.mass != b.mass:
        raise ValueError(f"states have different masses ({a.mass} vs {b.mass})")


def kg_inner(a: RapidityState, b: RapidityState) -> complex:
    """Conserved inner product <a|b> = sum_j w_j conj(a_j) b_j; states on
    different origins meet on the grid's lattice (`resample`)."""
    _check_compatible(a, b)
    if a.origin != b.origin:
        a, b = resample(a), resample(b)
    return complex(np.sum(a.weights * np.conj(a.amplitudes) * b.amplitudes))


def kg_norm(state: RapidityState) -> float:
    return math.sqrt(max(kg_inner(state, state).real, 0.0))


def normalize(state: RapidityState) -> RapidityState:
    n = kg_norm(state)
    if not (n > 0.0 and math.isfinite(n)):
        raise ValueError(f"cannot normalize state with norm {n!r}")
    return state.with_amplitudes(state.amplitudes / n)


def translate(state: RapidityState, dt: float, dx: float) -> RapidityState:
    """Rigid support shift by (dt, dx): amplitudes pick up exp(i E dt - i p dx)."""
    phase = np.exp(1j * (state.energies * dt - state.momenta * dx))
    return state.with_amplitudes(state.amplitudes * phase)


def boost_state(state: RapidityState, alpha: float) -> RapidityState:
    """Boost by rapidity alpha: a'(theta) = a(theta + alpha).

    The spacetime support of the result is the kinematics boost_matrix(alpha)
    image of the original support (wavefunction covariance:
    psi'(boost_point(alpha, pt)) == psi(pt)).

    Only the origin moves, by -alpha, as a compensated pair (origin,
    origin_lo), so boosts by alpha and -alpha restore it bit for bit; the
    validated, read-only amplitudes and any cached `window` are shared
    unchanged, so the boost is O(1), exact at every rapidity and drops
    nothing.
    """
    if not math.isfinite(alpha):
        raise ValueError("boost rapidity must be finite")
    origin, lo = add_rapidity(state.origin, state.origin_lo, -alpha)
    if not math.isfinite(origin):
        raise ValueError("rapidity origin must be finite")
    boosted = object.__new__(type(state))
    boosted.__dict__.update(vars(state), origin=origin, origin_lo=lo)
    return boosted


_LATTICE_SNAP = 1e-9  # |origin/step - round| below this counts as a lattice shift
_TAPS = range(-2, 4)  # source sites about the floor of a target's index, read by resample


def _carrier(a: np.ndarray, e: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """Centre (t, x) of the carrier exp(i (E t - p x)) fitted to the phase
    steps of `a`: the |a|-weighted least squares of angle(a_j+1 conj(a_j)) on
    the carrier's own steps t dE_j - x dp_j, or (0, 0) if that is singular."""
    z = a[1:] * np.conj(a[:-1])
    w, de, dp = np.sqrt(np.abs(z)), np.diff(e), np.diff(p)
    wde, wdp, dphi = w * de, w * dp, np.angle(z)
    s_ee, s_ep, s_pp = wde @ de, wde @ dp, wdp @ dp
    r_e, r_p = wde @ dphi, wdp @ dphi
    det = s_ee * s_pp - s_ep * s_ep
    if det > 1e-12 * s_ee * s_pp:  # False when singular or not finite
        t, x = (r_e * s_pp - s_ep * r_p) / det, (s_ep * r_e - s_ee * r_p) / det
        if math.isfinite(t) and math.isfinite(x):
            return float(t), float(x)
    return 0.0, 0.0


def resample(state: RapidityState) -> RapidityState:
    """The state on its grid's own lattice (origin 0).

    An origin that is a lattice multiple of the step shifts indices exactly.
    Otherwise lattice site i sits at source index i + k, k = -origin/step,
    and one six-point Lagrange filter reads every site from the sites
    floor(i + k) - 2 .. + 3 of `state.window` plus 3 each side, demodulated:
    the carrier exp(i (E t - p x)) of the fitted centre (t, x) (`_carrier`)
    is divided out at the source rapidities and put back exactly at the
    lattice's.  That is the diagonal phase of `translate`, exact for any
    (t, x); the fit only smooths the envelope, so the error does not grow
    with the offset.  Samples beyond the window or the grid read 0, and
    sites the filter does not reach are 0.  Amplitudes falling off the grid
    are dropped, with a note when the support ends within 5% of its boundary.
    """
    if state.origin == 0.0:
        return state
    grid, a, alpha = state.grid, state.amplitudes, -state.origin
    th, n = grid.thetas, grid.count
    k = alpha / grid.step
    kr = round(k)
    new = np.zeros_like(a)
    if abs(k - kr) <= _LATTICE_SNAP:
        if abs(kr) < n:
            new[max(-kr, 0) : n - max(kr, 0)] = a[max(kr, 0) : n - max(-kr, 0)]
    else:
        win, kf = state.window, math.floor(k)
        lo, hi = max(win.start - 3, 0), min(win.stop + 3, n)
        i0, i1 = max(lo - kf, 0), min(hi - kf, n)
        if i0 < i1:
            src = th[lo:hi] - alpha
            e, p = state.mass * np.cosh(src), state.mass * np.sinh(src)
            t, x = _carrier(a[lo:hi], e, p)
            env = np.zeros(hi - lo + 5, dtype=complex)
            env[2:-3] = a[lo:hi] * np.exp(-1j * (e * t - p * x))
            f, first = k - kf, i0 + kf - lo  # env index of site i0's first tap
            weights = [math.prod((f - m) / (j - m) for m in _TAPS if m != j) for j in _TAPS]
            out = sum(w * env[first + r : first + r + i1 - i0] for r, w in enumerate(weights))
            e, p = state.mass * np.cosh(th[i0:i1]), state.mass * np.sinh(th[i0:i1])
            new[i0:i1] = out * np.exp(1j * (e * t - p * x))
    notes = state.notes
    mag = np.abs(new)
    sig = np.flatnonzero(mag > _SUPPORT_CUT * np.max(mag))
    margin = 0.05 * (grid.theta_max - grid.theta_min)
    if sig.size and (th[sig[0]] < th[0] + margin or th[sig[-1]] > th[-1] - margin):
        notes += ("boosted support within 5% of the grid boundary; amplitudes may be truncated",)
    return replace(state, amplitudes=new, origin=0.0, origin_lo=0.0, notes=notes)


# ---------------------------------------------------------------------------
# equation-of-motion residual


# 8th-order central second-derivative stencil, coefficients * 1/(5040 step^2);
# integers, so they sum to exactly zero in any precision
_FD8 = np.array([-9, 128, -1008, 8064, -14350, 8064, -1008, 128, -9])


def default_probe_points(state: RapidityState, n: int = 16) -> list[SpacetimePoint]:
    """Probe events spread over the state's spacetime support scale."""
    dens = state.weights * np.abs(state.amplitudes) ** 2
    total = float(np.sum(dens))
    if total <= 0.0:
        raise ValueError("state has no support")
    e_mean = float(np.sum(dens * state.energies) / total)
    scale = 1.0 / e_mean
    rng = np.random.default_rng(161803)
    pts = rng.uniform(-4.0, 4.0, size=(n, 2)) * scale
    return [SpacetimePoint(float(t), float(x)) for t, x in pts]


def kg_equation_residual(
    state: RapidityState,
    points: list[SpacetimePoint] | None = None,
) -> float:
    """Max |d^2psi/dt^2 (finite differences) - sum_j w_j (-E_j^2) e^{...} a_j|.

    Path 1 differentiates the reconstructed wavefunction numerically in t
    (8th-order central stencil, step scaled to the state's energy content);
    path 2 multiplies the amplitudes spectrally by -E^2.  Both equal
    (d^2/dx^2 - m^2) psi for an on-shell state, so the difference is a pure
    discretization/consistency residual.
    """
    if points is None:
        points = default_probe_points(state)
    dens = state.weights * np.abs(state.amplitudes) ** 2
    total = float(np.sum(dens))
    if total <= 0.0:
        raise ValueError("state has no support")
    e2_mean = float(np.sum(dens * state.energies**2) / total)
    e_eff = math.sqrt(e2_mean)
    # stencil step: balance 8th-order truncation against extended-precision rounding
    delta = 0.06 / e_eff
    # extended precision throughout: the answer is a small difference of
    # terms of size E^2 |psi|, where double rounding would dominate
    ld = np.longdouble
    win = state.window
    th = state.thetas[win].astype(ld)
    e = ld(state.mass) * np.cosh(th)
    p = ld(state.mass) * np.sinh(th)
    w = state.grid.weights[win].astype(ld)
    wa_re = w * state.amplitudes[win].real.astype(ld)
    wa_im = w * state.amplitudes[win].imag.astype(ld)
    fd_scale = 5040 * ld(delta) ** 2
    # the stencil samples psi at the doubles t + k*delta, k = -4..4; write each
    # as t + k*delta_ld + r, where k*delta_ld is exact in longdouble and the
    # rounding remainder r is too (up to longdouble rounding when |t| is far
    # below delta).  Every probe then shares the rotations exp(-i E k delta)
    # and keeps one cos/sin row of its own, with
    # exp(-i E r) = 1 - i E r - (E r)^2/2 + O((E r)^3) and |E r| ~ 1e-16 |E t|
    ks = range(-4, 5)
    steps = np.array(ks) * ld(delta)
    rot = -np.outer(steps, e)
    rot_re, rot_im = np.cos(rot), np.sin(rot)
    powers = (1, e, e * e)
    worst = 0.0
    for pt in points:
        t, x = pt
        r = np.array([t + k * delta for k in ks], dtype=ld) - ld(t) - steps
        arg = -(e * ld(t) - p * ld(x))
        cos, sin = np.cos(arg), np.sin(arg)
        b_re = cos * wa_re - sin * wa_im
        b_im = cos * wa_im + sin * wa_re
        # one row of terms per stencil sample; row 4 is the probe itself
        terms_re = b_re * rot_re - b_im * rot_im
        terms_im = b_re * rot_im + b_im * rot_re
        # pairwise sums over the sites of E^0, E^1 and E^2 times the terms
        (s0_re, s1_re, s2_re), (s0_im, s1_im, s2_im) = (
            [(terms * f).sum(axis=1) for f in powers] for terms in (terms_re, terms_im)
        )
        sample_re = s0_re + r * s1_im - r * r / 2 * s2_re
        sample_im = s0_im - r * s1_re - r * r / 2 * s2_im
        # path 2 is -sum E^2 (terms of row 4), whose remainder r is 0
        d_re = _FD8 @ sample_re / fd_scale + s2_re[4]
        d_im = _FD8 @ sample_im / fd_scale + s2_im[4]
        worst = max(worst, math.hypot(float(d_re), float(d_im)))
    return worst
