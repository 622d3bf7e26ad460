"""Changing between quantum reference frames tied to massive particles.

A `BranchedFrameState` is the description, relative to a chosen frame
particle, of one "sharp" system held in a superposition of definite
rapidities (the branches) together with arbitrarily many payload systems
whose rapidity-grid states are correlated with the branches:

    |Psi>  =  sum_i  c_i |omega_i>_sharp (x) |payload_i,1> (x) |payload_i,2> ...

Sharp branch kets with distinct rapidities are treated as orthonormal
pointer states, so ||Psi||^2 = sum_i |c_i|^2 prod_k <ik|ik>.

`change_frame` re-expresses the composite relative to the sharp system:
branch rapidities flip sign, every payload is boosted by -omega_i in branch
i (exactly: only its rapidity origin moves, as a compensated pair, so a
round trip restores it bit for bit from any origin), and, when the old sharp
system carries a temporal wave profile g(t), each branch amplitude picks up
the transfer factor g^(m cosh omega_i), where g^(E) = integral dt e^{iEt} g(t)
and m is the sharp system's mass.  The Dirac profile at t0 (`DeltaTime`)
contributes pure phases exp(i m cosh(omega_i) t0).  The branchwise boost is
`controlled_boost`, which `coordinates.transform_frame` runs on event lists.

The module also contains an exactly solvable model of the same frame-change
on a finite cyclic rapidity lattice (`twirl_lattice`, `jump_to_frame`),
where the group average over lattice boosts is a finite sum and all
factorization claims can be checked against dense matrix arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kinematics import check_mass
from .states import (
    GaussianProfile,
    RapidityGrid,
    RapidityState,
    Slice,
    boost_state,
    from_spacetime_function,
    kg_inner,
    resample,
)

__all__ = [
    "DeltaTime",
    "SharpBranch",
    "BranchedFrameState",
    "total_norm",
    "branch_overlap_matrix",
    "change_frame",
    "check_branches",
    "controlled_boost",
    "superposed_slice_state",
    "CyclicLattice",
    "SharpExternalState",
    "LatticeTwirlState",
    "twirl_lattice",
    "jump_to_frame",
    "twirl_factor_fidelity",
]


# ---------------------------------------------------------------------------
# the temporal profile carried by the sharp system


@dataclass(frozen=True)
class DeltaTime:
    """Dirac time profile delta(t - t0); transfer factors are pure phases."""

    t0: float

    def fourier(self, e: float) -> complex:
        return cmath.exp(1j * e * self.t0)


# ---------------------------------------------------------------------------
# branched states


def check_branches(keys: list, rows: tuple | None = None, labels: tuple = ()) -> None:
    """Branch bookkeeping: at least one branch, distinct branch keys
    (rapidities, velocities or lattice sites), one payload row each, all of
    one length, where `rows` are given, and no system label used twice."""
    if not keys:
        raise ValueError("need at least one branch")
    if len(set(keys)) != len(keys):
        raise ValueError(f"branches must be distinct, got {keys!r}")
    if rows is not None and (len(rows) != len(keys) or len({len(r) for r in rows}) > 1):
        raise ValueError("one payload row per branch required, all of one length")
    _check_labels(labels)


def _check_labels(labels: tuple) -> None:
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"system label {label!r} is repeated")


def controlled_boost(branches, rows, rapidity, flip, boost) -> tuple[tuple, tuple]:
    """The quantum-controlled boost: per branch b, (flip(b), boost(row,
    -rapidity(b))), where `boost` moves the rapidity origins carried by b's
    payload row.  Returns (branches, rows)."""
    return tuple(zip(*[(flip(b), boost(row, -rapidity(b))) for b, row in zip(branches, rows)]))


@dataclass(frozen=True)
class SharpBranch:
    """One definite-rapidity component of the sharp reference system."""

    rapidity: float
    amplitude: complex
    mass: float

    def __post_init__(self) -> None:
        check_mass(self.mass)
        if not math.isfinite(self.rapidity):
            raise ValueError("branch rapidity must be finite")


@dataclass(frozen=True)
class BranchedFrameState:
    frame: str
    frame_mass: float
    branch_system: str
    branches: tuple[SharpBranch, ...]
    payload_labels: tuple[str, ...] = ()
    payloads: tuple[tuple[RapidityState, ...], ...] = ()
    time_profile: DeltaTime | None = None

    def __post_init__(self) -> None:
        check_mass(self.frame_mass)
        branches = tuple(self.branches)
        payloads = tuple(tuple(row) for row in self.payloads) or tuple(() for _ in branches)
        labels = tuple(self.payload_labels)
        check_branches(
            [b.rapidity for b in branches], payloads, (self.frame, self.branch_system, *labels)
        )
        if len({b.mass for b in branches}) != 1:
            raise ValueError("all branches must share the sharp system's mass")
        if len(payloads[0]) != len(labels):
            raise ValueError("payload row length must match payload_labels")
        for k in range(len(labels)):
            col = [row[k] for row in payloads]
            if len({s.mass for s in col}) != 1 or len({s.grid for s in col}) != 1:
                raise ValueError(
                    f"payload '{labels[k]}' must have one mass and grid across branches"
                )
        # keep branches ordered by rapidity, payload rows aligned
        order = sorted(range(len(branches)), key=lambda i: branches[i].rapidity)
        object.__setattr__(self, "branches", tuple(branches[i] for i in order))
        object.__setattr__(self, "payloads", tuple(payloads[i] for i in order))
        object.__setattr__(self, "payload_labels", labels)

    @property
    def branch_mass(self) -> float:
        return self.branches[0].mass

    @property
    def system_labels(self) -> tuple[str, ...]:
        return (self.branch_system, *self.payload_labels)


def total_norm(state: BranchedFrameState) -> float:
    """sqrt(sum_i |c_i|^2 prod_k <payload_ik | payload_ik>)."""
    total = 0.0
    for branch, row in zip(state.branches, state.payloads):
        term = abs(branch.amplitude) ** 2
        for payload in row:
            term *= kg_inner(payload, payload).real
        total += term
    return math.sqrt(total)


def branch_overlap_matrix(state: BranchedFrameState) -> np.ndarray:
    """G[i, j] = prod_k <payload_ik | payload_jk>.

    The composite factorizes into (sharp system) x (payloads) exactly when
    the normalized G has rank one, e.g. when all branches carry identical
    payload states.  Each payload column (one mass and grid, checked at
    construction) is one weighted Gram product (conj(A) w) A^T of its
    amplitude rows A; a column whose branches sit on different origins is
    resampled once per payload first.

    The product runs over the span of the column's nonempty `window`s (none:
    the factor is 0), so it costs O(K^2 span) and drops at most 1e-16 (max|a|
    sum w|b| + max|b| sum w|a|) of each factor <a|b>, as `kg_inner` does.
    """
    n = len(state.branches)
    g = np.ones((n, n), dtype=complex)
    for k in range(len(state.payload_labels)):
        col = [row[k] for row in state.payloads]
        if len({p.origin for p in col}) > 1:
            col = [resample(p) for p in col]
        wins = [p.window for p in col if p.window.start < p.window.stop] or [slice(0, 0)]
        lo, hi = min(w.start for w in wins), max(w.stop for w in wins)
        amps = np.array([p.amplitudes[lo:hi] for p in col])
        g *= (np.conj(amps) * col[0].weights[lo:hi]) @ amps.T
    return g


def change_frame(
    state: BranchedFrameState, from_label: str, to_label: str
) -> BranchedFrameState:
    """Jump from the current frame onto the sharp system.

    Relative to the new frame the old frame particle appears as the sharp
    system with reversed branch rapidities; payloads are boosted branchwise
    by -omega_i; a pending time profile on the old sharp system is consumed
    into branch transfer factors g^(m cosh omega_i).
    """
    if from_label != state.frame:
        raise ValueError(f"state is the {state.frame!r}-frame description, not {from_label!r}")
    if to_label != state.branch_system:
        raise ValueError(f"can only jump onto the sharp system {state.branch_system!r}")
    m_new_frame, profile = state.branch_mass, state.time_profile

    def flip(branch: SharpBranch) -> SharpBranch:
        factor = 1.0 + 0.0j
        if profile is not None:
            factor = profile.fourier(m_new_frame * math.cosh(branch.rapidity))
        return SharpBranch(-branch.rapidity, branch.amplitude * factor, state.frame_mass)

    branches, payloads = controlled_boost(
        state.branches, state.payloads, lambda branch: branch.rapidity, flip,
        lambda row, alpha: tuple(boost_state(p, alpha) for p in row),
    )
    # the flip reverses the rapidity order and keeps every other invariant,
    # so the new state is built without a second validation pass
    moved = object.__new__(BranchedFrameState)
    moved.__dict__.update(
        frame=to_label, frame_mass=m_new_frame, branch_system=from_label,
        branches=branches[::-1], payload_labels=state.payload_labels,
        payloads=payloads[::-1], time_profile=None,
    )
    return moved


def superposed_slice_state(
    profile: GaussianProfile,
    branches: list[tuple[float, complex]],
    *,
    payload_time: float = 0.0,
    frame_time: float = 0.0,
    frame_mass: float = 1.0,
    branch_mass: float = 1.0,
    payload_mass: float = 1.0,
    grid: RapidityGrid | None = None,
) -> BranchedFrameState:
    """Jumped description of 'slice payload + frame in superposed boosts'.

    Starting description (relative to the frame "C"): the system "A" is
    sharp in each rapidity branch, the payload "B" is prepared on the
    equal-time surface t = payload_time with the given spatial profile, and
    the sharp system carries a Dirac time profile at frame_time.  The
    returned state is the same physics relative to "A": branch rapidities
    reversed, payloads boosted to tilted slices, branch phases
    exp(i m cosh(omega_i) frame_time).
    """
    grid = grid or RapidityGrid.default()
    payload = from_spacetime_function(Slice(payload_time, profile), payload_mass, grid)
    start = BranchedFrameState(
        frame="C",
        frame_mass=frame_mass,
        branch_system="A",
        branches=tuple(SharpBranch(om, amp, branch_mass) for om, amp in branches),
        payload_labels=("B",),
        payloads=tuple((payload,) for _ in branches),
        time_profile=DeltaTime(frame_time),
    )
    return change_frame(start, "C", "A")


# ---------------------------------------------------------------------------
# exact cyclic-lattice model


@dataclass(frozen=True)
class CyclicLattice:
    """Rapidity lattice omega_n = n*step, n = 0..size-1, additive mod size."""

    size: int
    step: float

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("lattice needs at least 2 sites")
        if self.step <= 0.0 or not math.isfinite(self.step):
            raise ValueError("lattice step must be positive and finite")


@dataclass(frozen=True)
class SharpExternalState:
    """External (pre-twirl) description: each system at a sharp lattice site.

    branches is a tuple of (amplitude, sites) with one site per label.
    """

    lattice: CyclicLattice
    labels: tuple[str, ...]
    branches: tuple[tuple[complex, tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise ValueError("need at least one system")
        size = self.lattice.size
        branches = tuple(
            (complex(amp), tuple(int(s) % size for s in sites)) for amp, sites in self.branches
        )
        if any(len(sites) != len(labels) for _, sites in branches):
            raise ValueError("each branch needs one site per system")
        check_branches([sites for _, sites in branches], labels=labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "branches", branches)

    def tensor(self) -> np.ndarray:
        t = np.zeros((self.lattice.size,) * len(self.labels), dtype=complex)
        for amp, sites in self.branches:
            t[sites] += amp
        return t


@dataclass(frozen=True, eq=False)
class LatticeTwirlState:
    """Group-averaged (boost-invariant) state on the cyclic lattice."""

    lattice: CyclicLattice
    labels: tuple[str, ...]
    tensor: np.ndarray

    def __post_init__(self) -> None:
        _check_labels(tuple(self.labels))
        t = np.asarray(self.tensor, dtype=complex)
        if t.shape != (self.lattice.size,) * len(self.labels):
            raise ValueError("tensor shape must be (size,)^n_systems")
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "tensor", t)
        object.__setattr__(self, "labels", tuple(self.labels))


def twirl_lattice(external: SharpExternalState) -> LatticeTwirlState:
    """Average the external description over all lattice boosts.

    T = (1/sqrt(L)) sum_w  Shift(w)^(x) applied to the external tensor,
    which projects onto the boost-invariant (relational) sector exactly.
    """
    lat = external.lattice
    size = lat.size
    t = np.zeros((size,) * len(external.labels), dtype=complex)
    for amp, sites in external.branches:
        for w in range(size):
            shifted = tuple((s + w) % size for s in sites)
            t[shifted] += amp / math.sqrt(size)
    return LatticeTwirlState(lat, external.labels, t)


def _relational_tensor(state: LatticeTwirlState, frame_label: str) -> np.ndarray:
    """R[w, r...] = T[w, (r+w)...]: frame site first, others relative to it."""
    if frame_label not in state.labels:
        raise ValueError(f"unknown system {frame_label!r}")
    axis = state.labels.index(frame_label)
    t = np.moveaxis(state.tensor, axis, 0)
    size = state.lattice.size
    r = np.empty_like(t)
    for w in range(size):
        block = t[w]
        for ax in range(block.ndim):
            block = np.roll(block, -w, axis=ax)
        r[w] = block
    return r


def jump_to_frame(
    state: LatticeTwirlState, frame_label: str
) -> tuple[np.ndarray, SharpExternalState]:
    """Split the twirl state into (frame factor) x (relational state).

    Returns the frame system's amplitude vector over lattice sites (uniform,
    modulus 1/sqrt(L), for any twirled state) and the sharp relational state
    of the remaining systems, with sites measured relative to the frame.
    Raises if the state does not factorize this way.
    """
    r = _relational_tensor(state, frame_label)
    size = state.lattice.size
    m = r.reshape(size, -1)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    total = float(np.sum(s**2))
    if total <= 0.0:
        raise ValueError("empty state")
    fidelity = float(s[0] ** 2 / total)
    if fidelity < 1.0 - 1e-9:
        raise ValueError(
            f"state does not factorize into frame x relational (fidelity {fidelity})"
        )
    rel_flat = vh[0] * s[0]
    factor = u[:, 0]
    # canonical phase: largest relational entry real positive
    k = int(np.argmax(np.abs(rel_flat)))
    phase = rel_flat[k] / abs(rel_flat[k])
    rel_flat = rel_flat / phase
    factor = factor * phase
    rest_labels = tuple(l for l in state.labels if l != frame_label)
    rel = rel_flat.reshape((size,) * len(rest_labels))
    cut = 1e-12 * float(np.max(np.abs(rel)))
    branches = []
    for idx in np.ndindex(*rel.shape):
        if abs(rel[idx]) > cut:
            branches.append((complex(rel[idx]), idx))
    relational = SharpExternalState(state.lattice, rest_labels, tuple(branches))
    return factor, relational


def twirl_factor_fidelity(state: LatticeTwirlState, frame_label: str) -> float:
    """Largest-singular-value weight of the frame x relational split (1 = exact)."""
    r = _relational_tensor(state, frame_label)
    s = np.linalg.svd(r.reshape(state.lattice.size, -1), compute_uv=False)
    total = float(np.sum(s**2))
    return float(s[0] ** 2 / total) if total > 0.0 else 0.0
