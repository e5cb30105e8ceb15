"""Thermomajorization oracle and TO/ETO reachability checks for
incoherent states.

Curves are beta-ordered Lorenz curves: levels sorted by p_i / gamma_i
descending (ties broken by level index), vertices at cumulative
(Gibbs weight, population) pairs.  A Gibbs weight below an ulp of the
running sum leaves x unchanged, so a run of vertices with equal x is
merged into its last one, the one with the largest y.  A Gibbs weight
that underflows to 0 sorts its level first when it holds population and
last when it holds none.  The first levels then rise at x = 0: that run
is merged into one vertex (0, y) after the origin, and this first
segment is the only vertical one a curve may have.  np.interp reads the
top of it, y, at x = 0.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import beta_swap
from .errors import CapacityError, DomainError
from .thermal import DiagonalState, Spectrum, energy_blocks, gibbs_state

REACH_NODE_CAP = 10**6  # most search-tree nodes eto_reach_search will visit


def _check_curve(xs: np.ndarray, ys: np.ndarray) -> None:
    """Raise DomainError unless the vertices (xs, ys) form a thermo curve;
    only the first segment may be vertical, and then it must rise."""
    if xs[0] != 0.0 or ys[0] != 0.0:
        raise DomainError("curve must start at (0, 0)")
    dx, dy = xs[1:] - xs[:-1], ys[1:] - ys[:-1]
    # A rising vertical first segment has slope +inf, so it keeps any
    # curve after it concave; the slopes are checked from the next one.
    v = int(len(dx) > 0 and dx[0] == 0 and dy[0] > 0)
    if (dx[v:] <= 0).any() or abs(xs[-1] - 1.0) > 1e-12:
        raise DomainError("x must increase strictly to 1")
    if (dy < -1e-12).any() or abs(ys[-1] - 1.0) > 1e-12:
        raise DomainError("y must be nondecreasing to 1")
    # A rise over a subnormal dx overflows to slope +inf, which is still ordered.
    with np.errstate(over="ignore"):
        slopes = dy[v:] / dx[v:]
    if (slopes[1:] - slopes[:-1] > 1e-9).any():
        raise DomainError("curve is not concave")


def _curve_arrays(p: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checked vertices (xs, ys) of the curve of populations p over
    Gibbs weights gamma, runs of equal x merged into their last vertex
    (the origin kept)."""
    # A zero Gibbs weight gives the ratio inf (p > 0), first, or NaN (p = 0),
    # which argsort puts last; a subnormal one may overflow to inf, which
    # still sorts first.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        order = np.argsort(-(p / gamma), kind="stable")
    xs, ys = np.zeros(len(p) + 1), np.zeros(len(p) + 1)
    np.cumsum(gamma[order], out=xs[1:])
    np.cumsum(p[order], out=ys[1:])
    # Guard the invariants against accumulated rounding at the endpoints.
    xs[-1] = 1.0
    ys[-1] = 1.0
    merged = xs[1:] == xs[:-1]
    if merged.any():
        last = np.append(~merged, True)
        last[0] = True
        xs, ys = xs[last], ys[last]
    _check_curve(xs, ys)
    return xs, ys


@dataclass(frozen=True)
class ThermoCurve:
    vertices: tuple[tuple[float, float], ...]  # includes the (0, 0) prefix

    def __post_init__(self):
        v = np.asarray(self.vertices)
        _check_curve(v[:, 0], v[:, 1])

    def evaluate(self, xs) -> np.ndarray:
        v = np.asarray(self.vertices)
        return np.interp(np.asarray(xs, dtype=float), v[:, 0], v[:, 1])

    @property
    def xs(self) -> np.ndarray:
        return np.asarray(self.vertices)[:, 0]


def _check_dim(p: DiagonalState, spec: Spectrum) -> None:
    if p.dim != spec.dim:
        raise DomainError(f"state dim {p.dim} != spectrum dim {spec.dim}")


def thermo_curve(p: DiagonalState, spec: Spectrum) -> ThermoCurve:
    _check_dim(p, spec)
    xs, ys = _curve_arrays(p.populations, gibbs_state(spec).populations)
    return ThermoCurve(tuple(zip(xs.tolist(), ys.tolist())))


def thermo_majorizes(p: DiagonalState, q: DiagonalState, spec: Spectrum,
                     tol: float = 1e-9) -> bool:
    """True iff p's curve lies above q's at every vertex of either curve."""
    _check_dim(p, spec)
    gamma = gibbs_state(spec).populations
    xp, yp = _curve_arrays(p.populations, gamma)
    _check_dim(q, spec)
    xq, yq = _curve_arrays(q.populations, gamma)
    xs = np.concatenate((xp, xq))
    return bool((np.interp(xs, xp, yp) >= np.interp(xs, xq, yq) - tol).all())


def max_ground_population_TO(p: DiagonalState, spec_s: Spectrum, spec_c: Spectrum,
                             tau_c: DiagonalState | None = None) -> float:
    """Highest system ground population achievable with any energy-preserving
    unitary on system ⊗ bath(spec_c).

    Within each degenerate joint block any permutation is allowed, and a
    coordinate-subset sum over doubly stochastic images is maximized at a
    permutation: greedily assign each block's largest populations to its
    ground-system slots.  Each block sorts its own joint weights
    p_s * gamma_c, largest first, and sums its first k, k its number of
    s = 0 members.  tau_c is the bath's Gibbs state, for a caller that
    already has it; by default it is built from spec_c.
    """
    if p.dim != spec_s.dim:
        raise DomainError(f"state dim {p.dim} != system dim {spec_s.dim}")
    if tau_c is None:
        tau_c = gibbs_state(spec_c)
    if tau_c.dim != spec_c.dim:
        raise DomainError(f"bath state dim {tau_c.dim} != bath dim {spec_c.dim}")
    blocks = energy_blocks(spec_s, spec_c)
    offsets = blocks.offsets
    # Negated weights: an ascending sort of a block puts its largest weights
    # first, and a negated sum rounds as the sum of the weights would.
    neg = np.multiply.outer(-p.populations, tau_c.populations).ravel()[blocks.order]
    ground = np.add.reduceat(blocks.order < spec_c.dim, offsets[:-1], dtype=np.intp)  # s = 0
    total = 0.0
    # One sort and sum per block, in block order: a float np.add.reduceat
    # would round differently from summing each slice on its own.
    for a, b, k in zip(offsets[:-1].tolist(), offsets[1:].tolist(), ground.tolist()):
        if k:
            block = neg[a:b]  # a view of neg, which is this call's own copy
            block.sort()
            total -= block[:k].sum()
    return float(total)


def eto_reach_search(p: DiagonalState, spec: Spectrum,
                     depth: int = 4) -> tuple[float, list[tuple[int, int]]]:
    """Exhaustive search over beta-swap sequences of length <= depth.

    Returns the best ground population found and the lexicographically
    smallest witnessing sequence.  A sanity lower bound on the ETO
    reachable set, not its full characterization.  Raises CapacityError,
    before visiting anything, when the search tree (sum of pairs^k over
    k <= depth) has more than REACH_NODE_CAP nodes.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative")
    pairs = list(itertools.combinations(range(spec.dim), 2))
    nodes = level = 1  # sum of len(pairs)**k for k <= depth, stopped past the cap
    for _ in range(depth):
        level *= len(pairs)
        nodes += level
        if nodes > REACH_NODE_CAP or not level:
            break
    if nodes > REACH_NODE_CAP:
        raise CapacityError(
            f"depth {depth} on dim {spec.dim} visits more than {REACH_NODE_CAP} nodes"
        )
    best = [float(p.populations[0]), []]

    def visit(state: DiagonalState, seq: list[tuple[int, int]]) -> None:
        g = float(state.populations[0])
        if g > best[0] + 1e-12:
            best[0], best[1] = g, list(seq)
        if len(seq) == depth:
            return
        for pair in pairs:
            seq.append(pair)
            visit(beta_swap(state, spec, *pair), seq)
            seq.pop()

    visit(p, [])
    return best[0], best[1]
