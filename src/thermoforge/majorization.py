"""Thermomajorization oracle and TO/ETO reachability checks for
incoherent states.

thermo_majorizes decides p > q by hockey-stick sums, sum_i (p_i -
t gamma_i)_+, compared at every kink t of either side: the Legendre form
of the curves below, which it never builds.  It takes p and q as
DiagonalStates or (..., n) arrays and one spectrum or one per row; a 1-D
call is the stack with no leading axes.

Curves are beta-ordered Lorenz curves: levels sorted by p_i / gamma_i
descending (ties broken by level index), vertices at cumulative
(Gibbs weight, population) pairs.  A Gibbs weight below an ulp of the
running sum leaves x unchanged, so a run of vertices with equal x is
merged into its last one, the one with the largest y; the last run, and
any vertex within CURVE_END_TOL of x = 1, merges before the last vertex
becomes (1, 1).  A Gibbs weight that underflows to 0 sorts its level
first when it holds population and last when it holds none.  The first
levels then rise at x = 0: that run is merged into one vertex (0, y)
after the origin, and this first segment is the only vertical one a
curve may have.

Curves are built and checked as stacks: an (m, n) array of populations
gives (m, n + 1) vertex arrays, one row per curve: its vertices, then
copies of its last one, (1, 1).
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
MAJORIZE_TOL = 1e-9  # how far p's hockey-stick sum may fall below q's where p > q


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
    # kept), and so does every vertex within CURVE_END_TOL of x = 1, before
    # the last vertex is set to (1, 1): a sum that ends at 1 - ulp ahead of
    # levels lighter than an ulp leaves no ulp-wide segment, and neither
    # does a population sum of 1 - ulp at x = 1 - ulp.
    np.minimum(xs, 1.0, out=xs)
    merged = np.zeros(xs.shape, dtype=bool)
    merged[:, 1:-1] = (xs[:, 2:] == xs[:, 1:-1]) | (xs[:, 1:-1] >= 1.0 - CURVE_END_TOL)
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


def _checked_rows(p: np.ndarray, q: np.ndarray, specs: list[Spectrum]):
    """(m, n) rows p and q read by the DiagonalState rule, after the checks
    of the 1-D call on each row: p's population rule, q's, then p's and q's
    dims against the row's spectrum.  Raises the DomainError of the first
    row that fails."""
    n = p.shape[-1]
    dims = np.array([spec.dim for spec in specs])
    bad = np.flatnonzero((dims != n) | (dims != q.shape[-1]))
    rows = bad[0] + 1 if len(bad) else len(p)  # the rows up to the first bad dim
    if q.shape[-1] == n:  # p and q interleaved, row by row
        pq = _checked_populations(np.stack((p[:rows], q[:rows]), axis=1))
        p, q = pq[:, 0], pq[:, 1]
    else:  # every row fails its dim check, the first one first
        p, q = _checked_populations(p[:1]), _checked_populations(q[:1])
    if len(bad):
        _check_dim(n, specs[bad[0]])
        _check_dim(q.shape[-1], specs[bad[0]])
    return p, q


def thermo_majorizes(p, q, spec, tol: float = MAJORIZE_TOL):
    """True iff p thermo-majorizes q, up to tol: sum_i (p_i - t gamma_i)_+
    >= sum_i (q_i - t gamma_i)_+ - tol at every kink t = p_i / gamma_i and
    q_i / gamma_i of the levels with gamma_i > 0, and as t -> inf, where
    each sum is the population of the levels with gamma_i = 0.

    These hockey-stick sums are the Legendre transform of the thermo
    curves, so tol bounds how far p's curve may lie below q's at any x.
    gamma is scaled by 2**600 (exact), so a subnormal weight gives a
    finite t.  No curve is built, and no curve rule is checked.

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
    p, q = _checked_rows(p, q, specs)
    gamma = np.ldexp(_gibbs_weights(np.array([spec.energies for spec in specs])), 600)
    # Each row's kinks t, (m, 2n).  A level with gamma_i = 0 gives t = inf,
    # where t gamma_j is taken as inf for gamma_j > 0 and as 0 for gamma_j = 0.
    pq, gg = np.concatenate((p, q), axis=-1), np.concatenate((gamma, gamma), axis=-1)
    t = np.divide(pq, gg, out=np.full(pq.shape, np.inf), where=gg > 0)
    with np.errstate(over="ignore", invalid="ignore"):  # t gamma past 1e308 clips to 0 all the same
        tg = np.where(gamma[:, None] > 0, t[..., None] * gamma[:, None], 0.0)  # (m, 2n, n)
    # Each sum runs over its terms in ascending order, so two states that
    # differ by a relabelling of equal-weight levels get equal sums.
    hockey_p, hockey_q = (np.sort(np.maximum(r[:, None] - tg, 0.0), axis=-1).sum(axis=-1)
                          for r in (p, q))
    ok = (hockey_p >= hockey_q - tol).all(axis=-1)
    return ok.reshape(lead) if lead else bool(ok[0])


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
