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
wavefunctions, slice profiles, the lattice propagator) goes through one
kernel, `_synthesize`.  It sums only over the smallest index window holding
every |a_j| > 1e-16 max|a|, n sites (`RapidityState.window`, found once per
state).  An axis that is an arithmetic progression (np.linspace axes are)
is split as v[a*B + b] = V_a + b*d, so the phase factors into one fused
anchor exponential and two offset rotations,

    exp(-i E t + i p x) = exp(-i (E T_alpha - p X_a)) exp(-i E beta dt) exp(i p b dx),

where offset 0 needs no exponential.  With B_t = ceil(sqrt(N_t)) and
B_x = ceil(sqrt(N_t N_x)) (at most N_x), a call takes
n (A_t A_x + B_t + B_x - 2) complex exponentials instead of n (N_t + N_x):
about 2 sqrt(N) n for a 1xN line and n for a single point.  The N_t N_x n
multiply-adds run as complex GEMMs with rows (t, X_a) and columns b.  The
split evaluates the phase at V_a + b*d, which the progression test holds
within 4 ulps of max|v| of the requested point; the direct sum already
rounds p*x to within half an ulp of p*x, so both make phase errors of the
same order, |p| ulp(max|x|) (and |E| ulp(max|t|) in time).  Any other axis
is its own anchors with the single offset 0.  A GEMM tile holds at most
2^19 phase entries (8 MiB complex), so working memory does not grow with
the number of t or x points.  The equation-of-motion residual uses the same
window and rotates its nine stencil samples from one cos/sin row per probe.

A state sits at theta_j = grid.thetas[j] + origin.  A boost by alpha only
moves the origin by -alpha (a'(theta) = a(theta + alpha), support moved by
the kinematics boost matrix), so it is O(1), exact and drops nothing.  Only
`resample` interpolates, back onto the grid's lattice where origins meet.

The two-point function

    W(dt, dx) = integral dtheta/2 exp(-i E dt + i p dx)

is evaluated by rotating the integration contour onto half-line integrals
in z = m*s, which one fixed 24-node Gauss-Legendre rule sums over panels
counted from z (`_gauss_panels`); see `propagator`.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from .kinematics import SpacetimePoint, check_mass

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
    "MAX_TIMELIKE_MS",
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
    Amplitude j sits at rapidity grid.thetas[j] + origin.
    """

    grid: RapidityGrid
    mass: float
    amplitudes: np.ndarray
    notes: tuple[str, ...] = field(default=())
    origin: float = 0.0

    def __post_init__(self) -> None:
        check_mass(self.mass)
        if not math.isfinite(self.origin):
            raise ValueError("rapidity origin must be finite")
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


def _split_axis(v: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchors v[::B] and offsets b*d (b < B) with v[a*B + b] = anchors[a] + offsets[b].

    B = size when the anchors plus offsets rebuild v to within
    _PROGRESSION_ULPS ulps of max |v|; any other axis (or size 1) is its own
    anchors with the single offset 0.
    """
    if size > 1:
        offsets = (v[-1] - v[0]) / (v.size - 1) * np.arange(size)
        anchors = v[::size]
        rebuilt = (anchors[:, None] + offsets).reshape(-1)[: v.size]
        tol = _PROGRESSION_ULPS * np.spacing(np.max(np.abs(v)))
        if np.max(np.abs(rebuilt - v)) <= tol:  # False for non-finite axes
            return anchors, offsets
    return v, np.zeros(1)


def _offset_phases(offsets: np.ndarray, k: np.ndarray) -> np.ndarray:
    """exp(i offsets[b] k_j) as rows b; offsets[0] = 0 takes no exponential."""
    phases = np.ones((offsets.size, k.size), dtype=complex)
    phases[1:] = np.exp(1j * np.outer(offsets[1:], k))
    return phases


def _synthesize(
    state: RapidityState, coeffs: np.ndarray, ts: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """sum_j c_j exp(-i E_j t + i p_j x) on the outer grid (len(ts), len(xs)).

    The sum runs over `state.window` only, and `coeffs` holds one c_j per
    window site.  Each axis is split by `_split_axis` into anchors and
    offsets as the module docstring describes: rows (t, X) times offset
    columns b make one complex GEMM per tile of at most _BLOCK_ENTRIES phase
    entries.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    out = np.zeros((ts.size, xs.size), dtype=complex)
    win = state.window
    n = win.stop - win.start
    if n == 0 or out.size == 0:
        return out
    th = state.thetas[win]
    e, p = state.mass * np.cosh(th), state.mass * np.sinh(th)
    block = max(1, _BLOCK_ENTRIES // n)
    # every x anchor adds a row per t while x offsets are shared columns, so
    # B_x = sqrt(N_t N_x) balances row products against column exponentials
    t_anchors, t_offsets = _split_axis(ts, min(_ceil_sqrt(ts.size), block))
    x_anchors, x_offsets = _split_axis(
        xs, min(_ceil_sqrt(ts.size * xs.size), xs.size, block)
    )
    bt, bx = t_offsets.size, x_offsets.size
    c_rows = _offset_phases(-t_offsets, e) * coeffs
    columns = _offset_phases(x_offsets, p).T
    # a tile takes gt t anchors (gt*bt times) and gx x anchors: <= block rows
    gx = min(x_anchors.size, block // bt)
    gt = max(1, block // (bt * gx))
    for i in range(0, t_anchors.size, gt):
        t_phase = t_anchors[i : i + gt, None, None] * e
        rows = slice(i * bt, (i + gt) * bt)
        for k in range(0, x_anchors.size, gx):
            # the one fused exponential per (T, X) anchor pair and site
            anchors = np.exp(1j * (x_anchors[k : k + gx, None] * p - t_phase))
            left = anchors[:, None] * c_rows[:, None]  # (T, beta, X, site)
            tile = left.reshape(-1, n) @ columns
            dest = out[rows, k * bx : (k + gx) * bx]
            dest[...] = tile.reshape(-1, anchors.shape[1] * bx)[
                : dest.shape[0], : dest.shape[1]
            ]
    return out


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


# The half-line integrals cut their tails where the integrand has fallen by
# e^-40 (below 1e-17 relative); the cut 40/(m*s) overflows below _MIN_MS.
_TAIL_EFOLDS = 40.0
_MIN_MS = _TAIL_EFOLDS / sys.float_info.max
# Cost, not accuracy, sets this cap (the panel rule meets 1e-10 relative error
# against the Bessel closed forms up to it): a timelike call is linear in m*s,
# about 7 ms and 1 MB of nodes at 1e4.
MAX_TIMELIKE_MS = 1e4


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


def _timelike_halfline(z: float) -> complex:
    """integral_0^inf exp(-i z cosh t) dt for z > 0, by contour rotation.

    Dropping the contour to Im t = -pi/2 gives a finite oscillatory leg, on
    ceil(z/pi) + 1 equal panels of under one period each, plus a decaying
    tail on doubling panels (hypot keeps w ~ 1e301 finite):
        -i integral_0^{pi/2} exp(-i z cos y) dy
        + integral_0^{40/z} exp(-z w) / sqrt(1 + w^2) dw.
    """
    edges = np.linspace(0.0, math.pi / 2, math.ceil(z / math.pi) + 2)
    leg = _gauss_panels(lambda y: np.exp(-1j * z * np.cos(y)), edges)
    tail = _gauss_panels(
        lambda w: np.exp(-z * w) / np.hypot(1.0, w), _doubling_edges(_TAIL_EFOLDS / z)
    )
    return -1j * leg + tail


def _spacelike_halfline(z: float) -> float:
    """integral_0^inf exp(-z cosh u) du for z > 0 (real, non-negative).

    Substituting v = cosh u = 1 + w^2 removes the endpoint singularity:
        2 exp(-z) integral_0^{sqrt(40/z)} exp(-z w^2) / sqrt(w^2 + 2) dw,
    on doubling panels; past z ~ 745 the factor exp(-z) underflows to 0.
    """
    scale = 2.0 * math.exp(-z)
    if scale == 0.0:
        return 0.0
    val = _gauss_panels(
        lambda w: np.exp(-z * w * w) / np.hypot(math.sqrt(2.0), w),
        _doubling_edges(math.sqrt(_TAIL_EFOLDS / z)),
    )
    return scale * val.real


def propagator(query: PropagatorQuery, grid: RapidityGrid | None = None) -> complex:
    """W(dt, dx) = integral dtheta/2 exp(-i E dt + i p dx).

    Without a grid the integral is evaluated by contour rotation, as a
    half-line integral in z = m*s that a fixed 24-node Gauss-Legendre panel
    rule computes to about 1e-13 relative error.  Lightlike or coincident
    separations raise, since the continuum value diverges; so do m*s below
    _MIN_MS and timelike m*s above MAX_TIMELIKE_MS (see there).  With an
    explicit grid the literal truncated lattice sum is returned
    (cutoff-dependent for lightlike/coincident separations, which only
    warn on this path).
    """
    dt, dx, m = query.dt, query.dx, query.mass
    if grid is not None:
        s2 = dt * dt - dx * dx
        if s2 == 0.0:
            warnings.warn(
                "lattice propagator at lightlike/coincident separation is "
                "cutoff-dependent",
                RuntimeWarning,
                stacklevel=2,
            )
        # unit amplitudes: the sum runs over the whole grid
        flat = RapidityState(grid, m, np.ones(grid.count))
        return complex(_synthesize(flat, grid.weights, [dt], [dx])[0, 0])

    s2 = dt * dt - dx * dx
    if s2 == 0.0:
        raise ValueError(
            "propagator diverges at lightlike/coincident separation; "
            "pass a grid for the (cutoff-dependent) lattice sum"
        )
    z = m * math.sqrt(abs(s2))
    if z < _MIN_MS:
        raise ValueError(
            f"m*s = {z!r} is below {_MIN_MS:.3g}, where the propagator's "
            f"tail cut {_TAIL_EFOLDS:g}/(m*s) overflows"
        )
    if s2 < 0.0:
        # spacelike: W = int dtheta/2 e^{+/- i m s' sinh u} = int_0^inf cos(m s' sinh u) du
        return complex(_spacelike_halfline(z))
    # centre the rapidity on the stationary point: W = int dtheta/2 e^{-i m s cosh u} (dt>0)
    if z > MAX_TIMELIKE_MS:
        raise ValueError(
            f"timelike m*s = {z!r} exceeds {MAX_TIMELIKE_MS:g}, beyond which "
            "the propagator's panel count grows too costly"
        )
    val = _timelike_halfline(z)
    return val if dt > 0.0 else complex(val.real, -val.imag)


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

    Only the origin moves, by -alpha; the amplitudes are shared unchanged,
    so the boost is exact at every rapidity and drops nothing.
    """
    if not math.isfinite(alpha):
        raise ValueError("boost rapidity must be finite")
    return replace(state, origin=state.origin - alpha)


_LATTICE_SNAP = 1e-9  # |origin/step - round| below this counts as a lattice shift


def resample(state: RapidityState) -> RapidityState:
    """The state on its grid's own lattice (origin 0).

    An origin that is a lattice multiple of the step shifts indices exactly;
    any other origin evaluates one cubic spline through the real and
    imaginary parts at grid.thetas - origin.  Amplitudes falling off the grid
    are dropped, with a note when the support ends within 5% of its boundary.
    """
    if state.origin == 0.0:
        return state
    grid, a, alpha = state.grid, state.amplitudes, -state.origin
    th, n = grid.thetas, grid.count
    k = alpha / grid.step
    kr = round(k)
    if abs(k - kr) <= _LATTICE_SNAP:
        new = np.zeros_like(a)
        if abs(kr) < n:
            new[max(-kr, 0) : n - max(kr, 0)] = a[max(kr, 0) : n - max(-kr, 0)]
    else:
        from scipy.interpolate import CubicSpline

        parts = CubicSpline(th, np.stack([a.real, a.imag], axis=1), extrapolate=False)(
            th + alpha
        )
        parts[np.isnan(parts)] = 0.0
        new = parts[:, 0] + 1j * parts[:, 1]
    notes = state.notes
    mag = np.abs(new)
    sig = np.flatnonzero(mag > _SUPPORT_CUT * np.max(mag))
    margin = 0.05 * (grid.theta_max - grid.theta_min)
    if sig.size and (th[sig[0]] < th[0] + margin or th[sig[-1]] > th[-1] - margin):
        notes += ("boosted support within 5% of the grid boundary; amplitudes may be truncated",)
    return replace(state, amplitudes=new, origin=0.0, notes=notes)


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
