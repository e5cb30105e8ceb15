"""Thermomajorization oracle and TO/ETO reachability checks for
incoherent states.

Curves are beta-ordered Lorenz curves: levels sorted by p_i / gamma_i
descending (ties broken by level index), vertices at cumulative
(Gibbs weight, population) pairs.  A Gibbs weight below an ulp of the
running sum leaves x unchanged, so a run of vertices with equal x is
merged into its last one, the one with the largest y; the last run
merges before its vertex becomes (1, 1).  A Gibbs weight that underflows
to 0 sorts its level first when it holds population and last when it
holds none.  The first levels then rise at x = 0: that run is merged
into one vertex (0, y) after the origin, and this first segment is the
only vertical one a curve may have.  np.interp reads the top of it, y,
at x = 0.

Curves are built and checked as stacks: an (m, n) array of populations
gives (m, n + 1) vertex arrays, one row per curve: its vertices, then
copies of its last one, (1, 1).  A reading of a curve at x lands, as
np.searchsorted(side="right") - 1 does, on the last vertex at or left
of x.  thermo_majorizes takes p and q as DiagonalStates or (..., n)
arrays and one spectrum or one per row; a 1-D call is the stack with no
leading axes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import beta_swap
from .errors import CapacityError, DomainError, ShapeError
from .thermal import (DiagonalState, Spectrum, _checked_populations, _gibbs_weights, energy_blocks,
                      gibbs_state)

REACH_NODE_CAP = 10**6  # most search-tree nodes eto_reach_search will visit
CURVE_END_TOL = 1e-12  # how far a curve's last vertex may lie from 1 in x and in y
CURVE_DROP_TOL = 1e-12  # how far y may fall from one vertex to the next
CONCAVITY_TOL = 1e-9  # how far a slope may exceed the one before it, times max(1, |that one|)


def _check_curve(xs: np.ndarray, ys: np.ndarray, size: np.ndarray) -> None:
    """Raise DomainError unless the vertices (xs, ys) form a thermo curve;
    only the first segment may be vertical, and then it must rise.  An
    (m, k) stack is checked row by row, row r on its first size[r]
    vertices (any entries after them copies of the last), and the first
    rule any row fails is raised."""
    if (xs[..., 0] != 0.0).any() or (ys[..., 0] != 0.0).any():
        raise DomainError("curve must start at (0, 0)")
    dx, dy = xs[..., 1:] - xs[..., :-1], ys[..., 1:] - ys[..., :-1]
    last_x, last_y = xs[..., -1], ys[..., -1]
    seg = np.arange(xs.shape[-1] - 1) < (size - 1)[:, None]  # a row's segments
    # A rising vertical first segment has slope +inf, so it keeps any
    # curve after it concave; the slopes are checked from the next one.
    vertical = np.zeros(dx.shape, dtype=bool)
    vertical[..., :1] = (dx[..., :1] == 0) & (dy[..., :1] > 0)
    rest = seg & ~vertical
    if (rest & ~(dx > 0)).any() or (abs(last_x - 1.0) > CURVE_END_TOL).any():
        raise DomainError("x must increase strictly to 1")
    if (seg & (dy < -CURVE_DROP_TOL)).any() or (abs(last_y - 1.0) > CURVE_END_TOL).any():
        raise DomainError("y must be nondecreasing to 1")
    # A slope may exceed the one before it by CONCAVITY_TOL * max(1, |earlier|):
    # two tied ratios of 1e20 give slopes apart by far more than 1e-9.  A rise
    # over a subnormal dx overflows to slope +inf.  Two such slopes in a row
    # (inf - inf is NaN) are compared, to a relative CONCAVITY_TOL, over dx
    # scaled by 2**600, which is exact.
    pair = rest[..., 1:] & rest[..., :-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slopes = dy / dx
        earlier = np.abs(slopes[..., :-1])
        rise = slopes[..., 1:] - slopes[..., :-1]
        tol = CONCAVITY_TOL * np.where(earlier < np.inf, np.maximum(earlier, 1.0), 1.0)
        both = np.isnan(rise) & pair
        if both.any():
            scaled = dy / np.ldexp(dx, 600)
            rise[both] = ((scaled[..., 1:] - scaled[..., :-1]) / scaled[..., :-1])[both]
    if (pair & ~(rise <= tol)).any():
        raise DomainError("curve is not concave")


def _curve_arrays(p: np.ndarray, gamma: np.ndarray):
    """The curves of the rows of populations p, (m, n), over Gibbs weights
    gamma, (m, n) or (1, n), checked.

    Returns (xs, ys, size): xs and ys are (m, n + 1), and row r's curve is
    its first size[r] vertices; its last vertex and every entry after it
    are (1, 1).
    """
    m, n = p.shape
    rows = np.arange(m)[:, None]
    gamma = np.broadcast_to(gamma, p.shape)
    # A zero Gibbs weight gives the ratio inf (p > 0), first, or NaN (p = 0),
    # which sorts last; a subnormal one may overflow to inf too.  Ratios
    # tied at inf are ordered by p over gamma scaled by 2**600 (exact).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = p / gamma
        inf = ratio == np.inf
        if (np.count_nonzero(inf, axis=-1) > 1).any():
            order = np.lexsort((np.where(inf, -(p / np.ldexp(gamma, 600)), 0.0), -ratio))
        else:
            order = np.argsort(-ratio, axis=-1, kind="stable")
    xs, ys = np.zeros((m, n + 1)), np.zeros((m, n + 1))
    np.cumsum(gamma[rows, order], axis=-1, out=xs[:, 1:])
    np.cumsum(p[rows, order], axis=-1, out=ys[:, 1:])
    # A running Gibbs sum that rounds above 1 is clamped, so x never steps
    # back.  Each run of equal x merges into its last vertex (the origin
    # kept) before the last vertex is set to (1, 1), so a sum that ends at
    # 1 - ulp ahead of levels lighter than an ulp leaves no ulp-wide segment.
    np.minimum(xs, 1.0, out=xs)
    merged = np.zeros(xs.shape, dtype=bool)
    merged[:, 1:-1] = xs[:, 2:] == xs[:, 1:-1]
    xs[:, -1] = ys[:, -1] = 1.0
    if merged.any():  # merged vertices become (1, 1), behind the kept ones
        xs[merged] = ys[merged] = 1.0
        front = np.argsort(merged, axis=-1, kind="stable")
        xs, ys = xs[rows, front], ys[rows, front]
    size = n + 1 - merged.sum(axis=-1)
    _check_curve(xs, ys, size)
    return xs, ys, size


@dataclass(frozen=True)
class ThermoCurve:
    vertices: tuple[tuple[float, float], ...]  # includes the (0, 0) prefix

    def __post_init__(self):
        v = np.asarray(self.vertices)
        _check_curve(v[None, :, 0], v[None, :, 1], np.array([len(v)]))

    @property
    def xs(self) -> np.ndarray:
        return np.asarray(self.vertices)[:, 0]


def _check_dim(n: int, spec: Spectrum) -> None:
    if n != spec.dim:
        raise DomainError(f"state dim {n} != spectrum dim {spec.dim}")


def thermo_curve(p: DiagonalState, spec: Spectrum) -> ThermoCurve:
    _check_dim(p.dim, spec)
    xs, ys, size = _curve_arrays(p.populations[None], _gibbs_weights(spec.energies))
    return ThermoCurve(tuple(zip(xs[0, :size[0]].tolist(), ys[0, :size[0]].tolist())))


def _stack(p) -> np.ndarray:
    """The populations of a DiagonalState, or p as a float (..., n) array."""
    if isinstance(p, DiagonalState):
        return p.populations
    p = np.asarray(p, dtype=float)
    if p.ndim < 1:
        raise ShapeError(f"populations must have a level axis, got shape {p.shape}")
    return p


def thermo_majorizes(p, q, spec, tol: float = 1e-9):
    """True iff p's curve lies above q's at every vertex of either curve.

    p and q are DiagonalStates or (..., n) population arrays whose leading
    axes broadcast; every row is read by the DiagonalState rule.  spec is
    one Spectrum, or a sequence of one per row (in C order).  A stacked
    call returns the bool array of its rows, each equal to the 1-D call on
    that row; a 1-D call returns a bool.  A failing stack raises the
    DomainError of its first row whose 1-D call fails.
    """
    p, q = _stack(p), _stack(q)
    lead = np.broadcast_shapes(p.shape[:-1], q.shape[:-1])
    p = np.broadcast_to(p, lead + p.shape[-1:]).reshape(-1, p.shape[-1])
    q = np.broadcast_to(q, lead + q.shape[-1:]).reshape(-1, q.shape[-1])
    specs = [spec] if isinstance(spec, Spectrum) else list(spec)
    if len(specs) not in (1, len(p)):
        raise ShapeError(f"{len(specs)} spectra for {len(p)} rows")
    try:
        ok = _majorizes(p, q, specs, tol)
    except DomainError:
        for i in range(len(p)):
            _raise_row_fault(p[i], q[i], specs[min(i, len(specs) - 1)])
        raise
    return ok.reshape(lead) if lead else bool(ok[0])


def _raise_row_fault(p: np.ndarray, q: np.ndarray, spec: Spectrum) -> None:
    """Raise the DomainError of the 1-D thermo_majorizes call on one row,
    if it fails: p and q are read, then p's dim and curve are checked
    before q's."""
    p, q = _checked_populations(p), _checked_populations(q)
    for r in (p, q):
        _check_dim(len(r), spec)
        _curve_arrays(r[None], _gibbs_weights(spec.energies))


def _majorizes(p: np.ndarray, q: np.ndarray, specs: list[Spectrum], tol: float) -> np.ndarray:
    """thermo_majorizes on (m, n) rows, both curves of every row built
    and checked as one stack; any DomainError it raises is replaced by
    the first failing row's own."""
    m, n = p.shape
    if q.shape[-1] != n or any(spec.dim != n for spec in specs):
        raise DomainError("state and spectrum dims differ")
    gamma = _gibbs_weights(np.array([spec.energies for spec in specs]))
    xs, ys, _ = _curve_arrays(_checked_populations(np.concatenate((p, q))),
                              gamma if len(gamma) == 1 else np.concatenate((gamma, gamma)))
    # Each curve at the other's vertices, as np.interp reads it: the segment
    # starts at the last vertex j at or left of x; an exact hit takes y[j],
    # else slope * (x - x[j]) + y[j], where x - x[j] > 0 makes no NaN.
    at = np.concatenate((xs[m:], xs[:m]))
    rows = np.arange(2 * m)[:, None]
    j = _segments(xs, at)
    j1 = np.minimum(j + 1, n)
    x0, y0 = xs[rows, j], ys[rows, j]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slope = (ys[rows, j1] - y0) / (xs[rows, j1] - x0)
        value = np.where(at == x0, y0, slope * (at - x0) + y0)
    # At its own origin a curve reads the top of a vertical first segment too.
    ys[:, 0] = np.where(xs[:, 1] == 0, ys[:, 1], 0.0)
    return (value[:m] >= ys[m:] - tol).all(axis=-1) & (ys[:m] >= value[m:] - tol).all(axis=-1)


def _segments(xp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """np.searchsorted(xp[r], x[r], side="right") - 1 for every row r of
    ascending (m, k) rows xp: one stable sort of each row's xp followed by
    its x, which puts every vertex of xp at or left of an x before it."""
    k = xp.shape[-1]
    order = np.argsort(np.concatenate((xp, x), axis=-1), axis=-1, kind="stable")
    out = np.empty_like(order)
    out[np.arange(len(order))[:, None], order] = np.cumsum(order < k, axis=-1) - 1
    return out[:, k:]


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
