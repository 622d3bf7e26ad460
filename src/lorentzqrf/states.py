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
n sites (`RapidityState.window`), and reads the window's E_j, p_j and
w_j a_j from `RapidityState.spectrum`; both are computed once per state.  It
runs each call as one tiled complex GEMM.  An x axis that is an arithmetic
progression (np.linspace axes are) is split as x[a*B + b] = X_a + b*dx with
B about sqrt(N_t N_x): GEMM rows are the pairs (t, X_a) and columns the
offsets b.  Any other x axis is columns, one per point, in panels of one
width that are built up to a block at a time, so each tile of rows is built
once per block of columns.  Every factor comes from small tables of phase
factors: a progression v of N values gives exp(i k v_a) = hi[a // s] lo[a % s]
from s = ceil(sqrt(N)) rows of each, for the t points, the x anchors and the
x offsets, and a row entry is one fused phase factor exp(i (p X_hi - E T_hi))
per pair of hi values times lo_t c lo_x, one product per entry; a t axis or
anchor set that is no progression takes one phase factor per point.  A 1xN
line then costs about 4 N^(1/4) n phase factors (50 n for N = 20001,
against N n for the direct sum), a 72x72 patch about 35 n and a single point
n, with the N_t N_x n multiply-adds in the GEMM.  Each phase factor is one
`_cis`, exp(i phi) from the half-angle tangent u = tan(phi/2): numpy's float
tan is vectorized (about 2 ns per element on an AVX-512 Xeon), where its
complex exp (29-55 ns) and float sin and cos (12-29 ns each) are scalar libm
calls, so a factor costs 6-9 ns against 30-75 ns for np.exp(1j * phi); on a
CPU without a vectorized tan the factors are as accurate, only slower.  Each
split moves a point by at most 4 ulps of its axis's largest |value| (a point
of x passes three: its own, its anchor's, its offset's), so the phase errs by
O(|E| ulp(max|t|) + |p| ulp(max|x|)), the order at which the direct sum
already rounds p*x; the at most 5 phase factors, each within 4.2e-16 = 3.8 u
of exp(i phi) (u = 2^-53, measured against long double over |phi| <= 1e9),
and 4 complex products (sqrt(5) u each) per term add about 28 u = 3.1e-15
relative.  Zero sites pad the sum to a multiple of 8 (a single point's
factors are dotted with c in chunks of at most 4096 terms instead), so it
keeps its bits across the thread counts of one BLAS.  Each tile of rows with
its result holds at most half of a 2^19-entry block (8 MiB complex) and the
columns at most one block, so working memory stays within two blocks however
many points are requested.  The equation-of-motion residual samples its
stencil at the exact times, folds it into one long-double factor per window
site once per call and sums each probe through the single-point path.

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
from dataclasses import dataclass, field, fields, replace
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
            raise ValueError(
                f"grid theta_min and step must be finite, got {self.theta_min!r} "
                f"and {self.step!r}"
            )
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
        limit = math.sqrt(sys.float_info.max)
        for name in ("sigma_t", "sigma_x"):
            if getattr(self, name) > limit:
                raise ValueError(
                    f"{name} must be at most {limit:.4g}, where {name}**2 "
                    f"still fits a float, got {getattr(self, name)!r}"
                )
        if math.isinf(4.0 * math.pi * self.sigma_t * self.sigma_x):
            raise ValueError(
                "sigma_t * sigma_x must be at most "
                f"{sys.float_info.max / (4.0 * math.pi):.4g}, where the transform's "
                "prefactor 4*pi*sigma_t*sigma_x still fits a float, got "
                f"sigma_t={self.sigma_t!r} and sigma_x={self.sigma_x!r}"
            )

    def transform(self, e: np.ndarray, p: np.ndarray) -> np.ndarray:
        """integral dt dx exp(i e t - i p x) f(t, x), for 1-d arrays e and p."""
        amp = 4.0 * math.pi * self.sigma_t * self.sigma_x
        de = self.sigma_t**2 * (e - self.energy) ** 2
        dp = self.sigma_x**2 * (p - self.momentum) ** 2
        # the exponential is 0 wherever its real part is below -746, so it is
        # evaluated only between the first and last site above that; the rest
        # hold amp * 0 (nan when amp overflows, as the full evaluation gives)
        out = np.full(np.shape(e), amp * 0j)
        live = np.flatnonzero(~(de + dp > 746.0))
        if live.size:
            s = slice(live[0], live[-1] + 1)
            out[s] = amp * np.exp(1j * (e[s] * self.t0 - p[s] * self.x0) - de[s] - dp[s])
        return out


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


def _span(mag: np.ndarray, cut: float, start: int = 0) -> slice:
    """Smallest index range holding every mag_j > cut, from `start`; else (0, 0)."""
    idx = np.flatnonzero(mag > cut)
    return slice(start + int(idx[0]), start + int(idx[-1]) + 1) if idx.size else slice(0, 0)


@dataclass(frozen=True, eq=False)
class RapidityState:
    """Amplitudes over a rapidity grid for a particle of fixed mass.

    `notes` accumulates non-fatal diagnostics (support truncation).
    Amplitude j sits at rapidity grid.thetas[j] + origin; `origin_lo` is the
    rounding error boosts left in origin (`boost_state`).

    Two properties are computed once per state, on first use: `window`, the
    sites spectral sums run over, and `spectrum`, the energies, momenta and
    weighted amplitudes w_j a_j on those sites.  A boost keeps `window` and
    drops `spectrum`, whose E and p move with the origin.
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
        return _span(mag, _WINDOW_CUT * float(np.max(mag)))

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (E_j, p_j, w_j a_j) over `window`, each zero-padded to a
        multiple of 8 sites: what every spectral sum of the state reads."""
        win = self.window
        n = win.stop - win.start
        th, size = self.thetas[win], -(-n // 8) * 8
        e, p, c = np.zeros(size), np.zeros(size), np.zeros(size, dtype=complex)
        e[:n], p[:n] = self.mass * np.cosh(th), self.mass * np.sinh(th)
        c[:n] = self.weights[win] * self.amplitudes[win]
        for v in (e, p, c):
            v.flags.writeable = False
        return e, p, c

    def with_amplitudes(self, amplitudes: np.ndarray) -> "RapidityState":
        return replace(self, amplitudes=amplitudes)


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


def _cis(phase) -> np.ndarray:
    """exp(i phase) for a real array: with u = tan(phase/2), cos =
    2/(1 + u^2) - 1 and sin = u * 2/(1 + u^2) are written into the result's
    real and imaginary parts (why a tangent: module docstring).  Each part is
    within 4e-16 of the exact value, 0 gives exactly 1 + 0j (-0 keeps a -0
    sine), +-inf and nan give nan, and the bits do not depend on the input's
    layout or length."""
    u = np.multiply(phase, 0.5, out=np.empty(np.shape(phase)))
    np.tan(u, out=u)
    out = np.empty(u.shape, dtype=complex)
    _cis_from_half_tangent(u, out.real, out.imag)
    return out


def _cis_from_half_tangent(u: np.ndarray, re: np.ndarray, im: np.ndarray) -> None:
    """cos and sin of phase from u = tan(phase/2), written into `re` and
    `im`: cos = 2/(1 + u^2) - 1 and sin = u * 2/(1 + u^2).  `u` is only read."""
    np.multiply(u, u, out=re)
    np.add(re, 1.0, out=re)
    np.divide(2.0, re, out=re)
    np.multiply(u, re, out=im)
    np.subtract(re, 1.0, out=re)


def _point(state: RapidityState, coeffs: np.ndarray, t: float, x: float) -> complex:
    """sum_j c_j exp(-i E_j t + i p_j x) at one point, over `state.window`:
    one phase factor per site, dotted with c in unpadded dot products of at
    most 4096 terms, which OpenBLAS adds on one thread."""
    win = state.window
    n = win.stop - win.start
    if n == 0:
        return 0j
    e, p, _ = state.spectrum
    factors, c = _cis(x * p[:n] - t * e[:n]), coeffs[:n]
    total = factors[:4096] @ c[:4096]
    for i in range(4096, n, 4096):
        total = total + factors[i : i + 4096] @ c[i : i + 4096]
    return complex(total)


def _synthesize(
    state: RapidityState, coeffs: np.ndarray, ts: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """sum_j c_j exp(-i E_j t + i p_j x) on the outer grid (len(ts), len(xs)),
    over `state.window` only, with one c_j per window site in `coeffs` (or
    per site of `state.spectrum`, 0 past the window): GEMM rows (t, x anchor)
    times x-offset columns, each term within about 3.1e-15 of its phase
    factor at t and x moved by a few ulps: at most 5 `_cis` factors of
    4.2e-16 each and 4 complex products (module docstring)."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    out = np.zeros((ts.size, xs.size), dtype=complex)
    win = state.window
    n = win.stop - win.start
    if n == 0 or out.size == 0:
        return out
    if out.size == 1:
        out[0, 0] = _point(state, coeffs, ts[0], xs[0])
        return out
    e, p, _ = state.spectrum
    # zero sites pad the sum to a multiple of 8 terms, which every BLAS kernel
    # adds in one order at any thread count
    size = e.size
    c = coeffs if coeffs.size == size else np.concatenate((coeffs, np.zeros(size - n)))
    half = max(1, _BLOCK_ENTRIES // (2 * size))  # columns in half a tile
    # every x anchor adds a row per t while offsets are shared columns, so
    # about sqrt(N_t N_x) columns balance the two
    split = _split(xs, _even(xs.size, min(_ceil_sqrt(ts.size * xs.size), half)))
    if split is not None:
        _panel(out, e, p, c, ts, *split, split[1].size)
        return out
    # column panels of one width share their row tiles, so up to a block of
    # their columns is built at once and each tile of rows once per block
    width = _even(xs.size, half)
    full = xs.size - xs.size % width
    group = width * max(1, _BLOCK_ENTRIES // (width * size))
    for i in range(0, full, group):
        j = min(i + group, full)
        _panel(out[:, i:j], e, p, c, ts, np.zeros(1), xs[i:j], width)
    if full < xs.size:
        _panel(out[:, full:], e, p, c, ts, np.zeros(1), xs[full:], xs.size - full)
    return out


def _columns(offsets: np.ndarray, p: np.ndarray) -> np.ndarray:
    """exp(i p_j offsets[b]) as a (sites, len(offsets)) matrix, from hi and lo
    tables when the offsets are a progression."""
    o_hi, o_lo = _split(offsets, _ceil_sqrt(offsets.size)) or (offsets, np.zeros(1))
    columns = _cis(np.outer(o_hi, p))[:, None] * _cis(np.outer(o_lo, p))
    return columns.reshape(-1, p.size)[: offsets.size].T


def _panel(out, e, p, c, ts, anchors, offsets, width) -> None:
    """out[t, a*B + b] = sum_j c_j exp(-i E_j t + i p_j (anchors[a] + offsets[b]))
    in tiles of at most half a block: GEMM rows (t, a) times panels of `width`
    offset columns b, each built once (several anchors need one panel, B =
    width)."""
    size = e.size
    panels = [_columns(offsets[k : k + width], p) for k in range(0, offsets.size, width)]
    cap = max(1, _BLOCK_ENTRIES // (2 * (size + width)))  # rows in half a tile
    t_hi, t_lo = _split(ts, min(_ceil_sqrt(ts.size), cap)) or (ts, np.zeros(1))
    sa = min(_ceil_sqrt(anchors.size), cap // t_lo.size)
    x_hi, x_lo = _split(anchors, sa) or (anchors, np.zeros(1))
    lo = (_cis(np.outer(-t_lo, e)) * c)[:, None] * _cis(np.outer(x_lo, p))
    st, sa = lo.shape[:2]
    ga = min(x_hi.size, max(1, cap // (st * sa)))  # hi anchors in a tile
    gt = max(1, cap // (st * sa * ga))  # hi t values in a tile
    for i in range(0, t_hi.size, gt):
        t0, t1 = i * st, min((i + gt) * st, ts.size)
        for j in range(0, x_hi.size, ga):
            # one fused phase factor per pair of hi values and site, and one
            # product with lo_t c lo_x per row entry
            hi = _cis(x_hi[j : j + ga, None] * p - t_hi[i : i + gt, None, None] * e)
            na = hi.shape[1] * sa  # anchors in the tile
            rows = (hi[:, None, :, None] * lo[:, None]).reshape(-1, size)
            del hi  # before the tiles are built
            for k, columns in enumerate(panels):
                tile = rows[: (t1 - t0) * na] @ columns
                dest = out[t0:t1, (j * sa + k) * width : (j * sa + k + na) * width]
                dest[...] = tile.reshape(t1 - t0, -1)[:, : dest.shape[1]]
            del rows  # before the next tile's are built


def wavefunction(
    state: RapidityState, point: SpacetimePoint | tuple[float, float]
) -> complex:
    """psi(t, x) = sum_j w_j exp(-i E_j t + i p_j x) a_j."""
    t, x = point
    return _point(state, state.spectrum[2], float(t), float(x))


def wavefunction_grid(
    state: RapidityState, ts: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """psi on the outer grid (len(ts), len(xs))."""
    return _synthesize(state, state.spectrum[2], ts, xs)


def slice_profile(state: RapidityState, t0: float, xs: np.ndarray) -> np.ndarray:
    """Equal-time preparation profile phi(x) with Slice(t0, phi) == state.

    Inverts the slice construction a_j = exp(i E_j t0) phi^(p_j):
    phi(x) = (1/2pi) integral dp exp(i p x) phi^(p), with dp = E dtheta.
    This is the plain Fourier profile of the preparation on the t0 surface,
    not the measure-weighted wavefunction <t0,x|f>.
    """
    # dp/2pi = E dtheta/2pi = E w/pi, since dtheta = 2 w
    win = state.window
    e = state.spectrum[0][: win.stop - win.start]
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


def kg_inner(a: RapidityState, b: RapidityState) -> complex:
    """Conserved inner product <a|b> = sum_j w_j conj(a_j) b_j over the two
    `window`s' overlap (0j if none), on the grid's lattice (`resample`) for
    states on different origins.  Each dropped term has |a_j| or |b_j| under
    1e-16 of its state's peak, so together they are at most
    1e-16 (max|a| sum_j w_j |b_j| + max|b| sum_j w_j |a_j|)."""
    if a.grid != b.grid:
        raise ValueError("states live on different rapidity grids")
    if a.mass != b.mass:
        raise ValueError(f"states have different masses ({a.mass} vs {b.mass})")
    if a.origin != b.origin:
        a, b = resample(a), resample(b)
    lo, hi = max(a.window.start, b.window.start), min(a.window.stop, b.window.stop)
    return complex(np.vdot(a.amplitudes[lo:hi], a.weights[lo:hi] * b.amplitudes[lo:hi]))


def kg_norm(state: RapidityState) -> float:
    return math.sqrt(max(kg_inner(state, state).real, 0.0))


def normalize(state: RapidityState) -> RapidityState:
    """The state over its norm, built without re-validation (a finite state
    over a finite positive norm passes it) and without `window` or `spectrum`."""
    n = kg_norm(state)
    if not (n > 0.0 and math.isfinite(n)):
        raise ValueError(f"cannot normalize state with norm {n!r}")
    return _rebuilt(state, amplitudes=state.amplitudes / n)


def _rebuilt(state: RapidityState, **changes) -> RapidityState:
    """`state` with `changes` (amplitudes made read-only), unvalidated, caching only those."""
    changes["amplitudes"].flags.writeable = False
    new = object.__new__(type(state))
    new.__dict__.update({f.name: getattr(state, f.name) for f in fields(state)}, **changes)
    return new


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
    nothing.  A cached `spectrum` is not carried over: its E and p belong to
    the old origin.
    """
    if not math.isfinite(alpha):
        raise ValueError("boost rapidity must be finite")
    origin, lo = add_rapidity(state.origin, state.origin_lo, -alpha)
    if not math.isfinite(origin):
        raise ValueError("rapidity origin must be finite")
    boosted = object.__new__(type(state))
    boosted.__dict__.update(vars(state), origin=origin, origin_lo=lo)
    boosted.__dict__.pop("spectrum", None)  # its E and p are the old origin's
    return boosted


# |origin/step - round| below this counts as a lattice shift: a boost by
# n*step formed in floats does not always divide back to exactly n, and the
# six-point filter would then interpolate what is an exact index shift
_LATTICE_SNAP = 1e-9
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
    are dropped, with a note when the support ends within 5% of its boundary
    or lies wholly beyond it.

    |a| is read only over the written range (the shifted copy, or the
    filtered sites: O(window) off the lattice); its one peak gives the note
    and the result's cached `window`, and only filtered sites, which can
    overflow, are checked finite.
    """
    if state.origin == 0.0:
        return state
    grid, a, alpha = state.grid, state.amplitudes, -state.origin
    th, n, win = grid.thetas, grid.count, state.window
    k = alpha / grid.step
    kr = round(k)
    new = np.zeros(n, dtype=complex)
    if abs(k - kr) <= _LATTICE_SNAP:
        lo, hi = min(max(-kr, 0), n), max(n - max(kr, 0), 0)
        new[lo:hi] = a[lo + kr : hi + kr]  # sub-cut tails too, keeping their bits
    else:
        kf = math.floor(k)
        src_lo, src_hi = max(win.start - 3, 0), min(win.stop + 3, n)
        lo, hi = max(src_lo - kf, 0), max(min(src_hi - kf, n), 0)
        if lo < hi:
            src = th[src_lo:src_hi] - alpha
            e, p = state.mass * np.cosh(src), state.mass * np.sinh(src)
            t, x = _carrier(a[src_lo:src_hi], e, p)
            env = np.zeros(src_hi - src_lo + 5, dtype=complex)
            env[2:-3] = a[src_lo:src_hi] * _cis(p * x - e * t)
            f, first = k - kf, lo + kf - src_lo  # env index of site lo's first tap
            weights = [math.prod((f - m) / (j - m) for m in _TAPS if m != j) for j in _TAPS]
            out = sum(w * env[first + r : first + r + hi - lo] for r, w in enumerate(weights))
            e, p = state.mass * np.cosh(th[lo:hi]), state.mass * np.sinh(th[lo:hi])
            new[lo:hi] = out * _cis(e * t - p * x)
            if not np.all(np.isfinite(new[lo:hi].view(float))):
                raise ValueError("amplitudes must be finite")
    mag = np.abs(new[lo:hi])
    peak = float(np.max(mag, initial=0.0))
    sig = _span(mag, _SUPPORT_CUT * peak, lo)
    notes, margin = state.notes, 0.05 * (grid.theta_max - grid.theta_min)
    if sig.start == sig.stop:
        if win.start < win.stop:
            notes += ("boosted support lies entirely off the grid; all amplitude dropped",)
    elif th[sig.start] < th[0] + margin or th[sig.stop - 1] > th[-1] - margin:
        notes += ("boosted support within 5% of the grid boundary; amplitudes may be truncated",)
    return _rebuilt(
        state, amplitudes=new, notes=notes, origin=0.0, origin_lo=0.0,
        window=_span(mag, _WINDOW_CUT * peak, lo),
    )


# ---------------------------------------------------------------------------
# equation-of-motion residual


# 8th-order central second-derivative stencil, coefficients * 1/(5040 step^2);
# integers, so they sum to exactly zero in any precision
_FD8 = np.array([-9, 128, -1008, 8064, -14350, 8064, -1008, 128, -9])


def _energy_moment(state: RapidityState, n: int) -> float:
    """Density moment sum w |a|^2 E^n / sum w |a|^2."""
    dens = state.weights * np.abs(state.amplitudes) ** 2
    total = float(np.sum(dens))
    if total <= 0.0:
        raise ValueError("state has no support")
    return float(np.sum(dens * state.energies**n) / total)


def default_probe_points(state: RapidityState, n: int = 16) -> list[SpacetimePoint]:
    """Probe events spread over the state's spacetime support scale."""
    scale = 1.0 / _energy_moment(state, 1)
    rng = np.random.default_rng(161803)
    pts = rng.uniform(-4.0, 4.0, size=(n, 2)) * scale
    return [SpacetimePoint(float(t), float(x)) for t, x in pts]


def kg_equation_residual(
    state: RapidityState,
    points: list[SpacetimePoint] | None = None,
) -> float:
    """Max |d^2psi/dt^2 (finite differences) - sum_j w_j (-E_j^2) e^{...} a_j|.

    Path 1 differentiates the reconstructed wavefunction numerically in t
    (8th-order central stencil c_k, step delta scaled to the state's energy
    content); path 2 multiplies the amplitudes spectrally by -E^2.  Both
    equal (d^2/dx^2 - m^2) psi for an on-shell state, so the difference is a
    pure discretization/consistency residual.

    Both paths are linear in the amplitudes, and the stencil samples psi at
    the exact times t + k delta, so at each probe the difference is one
    spectral sum |sum_j w_j a_j exp(-i (E_j t - p_j x)) H_j| with H_j = E_j^2
    + (c_0 + 2 sum_{k>0} c_k cos(k delta E_j)) / (5040 delta^2) (the stencil
    is symmetric).  H_j cancels E_j^2 to its O((delta E_j)^8) truncation
    from terms up to 14350 / (5040 delta^2), about 800 <E^2>, so it is taken
    once per call in long double; nothing cancels in the sum over sites,
    which `_synthesize` takes in double.  Non-finite probes, an empty probe
    list and a non-finite residual raise ValueError.
    """
    if points is None:
        points = default_probe_points(state)
    if len(points) == 0:
        raise ValueError("kg_equation_residual needs at least one probe point")
    ld = np.longdouble
    # stencil step: balance 8th-order truncation against extended-precision rounding
    delta = ld(0.06 / math.sqrt(_energy_moment(state, 2)))
    win = state.window
    e = ld(state.mass) * np.cosh(state.thetas[win].astype(ld))
    stencil = _FD8[4] + 2 * (_FD8[5:] @ np.cos(np.outer(np.arange(1, 5) * delta, e)))
    h = (e * e + stencil / (5040 * delta**2)).astype(float)
    coeffs = state.spectrum[2][: win.stop - win.start] * h
    worst = 0.0
    for pt in points:
        t, x = pt
        if not (math.isfinite(t) and math.isfinite(x)):
            raise ValueError(f"probe point {pt!r} is not finite")
        value = abs(_point(state, coeffs, float(t), float(x)))
        if not math.isfinite(value):
            raise ValueError(f"residual at probe point {pt!r} is not finite")
        worst = max(worst, value)
    return float(worst)
