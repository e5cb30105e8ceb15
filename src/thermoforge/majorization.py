"""Thermomajorization oracle and TO/ETO reachability checks for
incoherent states.

Curves are beta-ordered Lorenz curves: levels sorted by p_i / gamma_i
descending (ties broken by level index), vertices at cumulative
(Gibbs weight, population) pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import beta_swap
from .errors import CapacityError, DomainError
from .thermal import DiagonalState, Spectrum, energy_blocks, gibbs_state

REACH_NODE_CAP = 10**6  # most search-tree nodes eto_reach_search will visit


@dataclass(frozen=True)
class ThermoCurve:
    vertices: tuple[tuple[float, float], ...]  # includes the (0, 0) prefix

    def __post_init__(self):
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        if x[0] != 0.0 or y[0] != 0.0:
            raise DomainError("curve must start at (0, 0)")
        if np.any(np.diff(x) <= 0) or abs(x[-1] - 1.0) > 1e-12:
            raise DomainError("x must increase strictly to 1")
        if np.any(np.diff(y) < -1e-12) or abs(y[-1] - 1.0) > 1e-12:
            raise DomainError("y must be nondecreasing to 1")
        slopes = np.diff(y) / np.diff(x)
        if np.any(np.diff(slopes) > 1e-9):
            raise DomainError("curve is not concave")

    def evaluate(self, xs) -> np.ndarray:
        v = np.asarray(self.vertices)
        return np.interp(np.asarray(xs, dtype=float), v[:, 0], v[:, 1])

    @property
    def xs(self) -> np.ndarray:
        return np.asarray(self.vertices)[:, 0]


def thermo_curve(p: DiagonalState, spec: Spectrum) -> ThermoCurve:
    if p.dim != spec.dim:
        raise DomainError(f"state dim {p.dim} != spectrum dim {spec.dim}")
    gamma = gibbs_state(spec).populations
    ratios = p.populations / gamma
    order = np.argsort(-ratios, kind="stable")
    xs = np.concatenate([[0.0], np.cumsum(gamma[order])])
    ys = np.concatenate([[0.0], np.cumsum(p.populations[order])])
    # Guard the invariants against accumulated rounding at the endpoints.
    xs[-1] = 1.0
    ys[-1] = 1.0
    return ThermoCurve(tuple((float(x), float(y)) for x, y in zip(xs, ys)))


def thermo_majorizes(p: DiagonalState, q: DiagonalState, spec: Spectrum,
                     tol: float = 1e-9) -> bool:
    """True iff p's curve lies above q's at every vertex of either curve."""
    cp = thermo_curve(p, spec)
    cq = thermo_curve(q, spec)
    xs = np.union1d(cp.xs, cq.xs)
    return bool(np.all(cp.evaluate(xs) >= cq.evaluate(xs) - tol))


def max_ground_population_TO(p: DiagonalState, spec_s: Spectrum, spec_c: Spectrum,
                             tau_c: DiagonalState | None = None) -> float:
    """Highest system ground population achievable with any energy-preserving
    unitary on system ⊗ bath(spec_c).

    Within each degenerate joint block any permutation is allowed, and a
    coordinate-subset sum over doubly stochastic images is maximized at a
    permutation: greedily assign each block's largest populations to its
    ground-system slots.  One segmented sort orders every block's joint
    weights p_s * gamma_c largest first; each block then sums its first k,
    k its number of s = 0 members.  tau_c is the bath's Gibbs state, for a
    caller that already has it; by default it is built from spec_c.
    """
    if p.dim != spec_s.dim:
        raise DomainError(f"state dim {p.dim} != system dim {spec_s.dim}")
    if tau_c is None:
        tau_c = gibbs_state(spec_c)
    if tau_c.dim != spec_c.dim:
        raise DomainError(f"bath state dim {tau_c.dim} != bath dim {spec_c.dim}")
    blocks = energy_blocks(spec_s, spec_c)
    w = np.outer(p.populations, tau_c.populations).ravel()[blocks.order]
    sizes = np.diff(blocks.offsets)
    bid = np.repeat(np.arange(len(sizes)), sizes)
    w = w[np.lexsort((-w, bid))]
    ground = np.bincount(bid[blocks.order < spec_c.dim], minlength=len(sizes))  # s = 0
    total = 0.0
    # One slice sum per block, in block order: np.add.reduceat would
    # round differently from summing each slice on its own.
    for a, k in zip(blocks.offsets.tolist(), ground.tolist()):
        if k:
            total += w[a:a + k].sum()
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
