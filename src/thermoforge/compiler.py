"""Compile energy-preserving unitaries into elementary two-level gates.

Back-ends:
  exact   per-block Givens-style column elimination (<= d(d-1)/2 two-level
          gates plus <= d phase gates per block)
  trotter first-order product formula over a generator combination
  bch     group-commutator synthesis of exp(t[K_j, K_k])
  nested  outer Trotter over a depth-1 mix of linear and commutator terms

A GateSequence applies steps[0] first, i.e. reconstruct() multiplies
steps right-to-left.

Cost model: every step reduces to a 1x1 or 2x2 block on flat joint
indices (GateStep.local), and apply_gates updates only the rows (and, when
conjugating, the columns) those indices name.  One gate on an n-row
operand therefore costs O(n); reconstruct costs O(n^2) for the identity
plus O(gates * n), and evolving a density matrix costs O(gates * n).
trotter, bch and nested list one slice of L step objects m = trotter_m
times, and reconstruct squares up the slice product instead: O(L*n +
n^3 log m) for a sequence of one slice repeated m times.
compile_approximate, which doubles m until the accuracy is met, pays
that once per doubling.
"""
from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .generators import KINDS, ElementaryGenerator, enumerate_basis
from .linalg import frobenius_distance
from .thermal import EnergyBlocks, is_energy_preserving, max_cross_block_entry

_ELIM_TOL = 1e-13
M_CAP = 1 << 14  # largest slice count compile_approximate tries


@dataclass(frozen=True, eq=False)
class GateStep:
    """One elementary gate: exp(param * K) for a named generator kind,
    or an explicit 2x2 unitary block on an ordered joint index pair."""

    kind: str  # 'h' | 'm' | 'p' | 'g_diag' | 'givens'
    indices: tuple[tuple[int, int], ...]
    param: float | None = None
    u2: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "givens":
            if self.u2 is None or len(self.indices) != 2:
                raise DomainError("givens step needs a 2x2 block and two indices")
            u2 = np.asarray(self.u2, dtype=complex)
            if u2.shape != (2, 2):
                raise DomainError(f"givens step needs a 2x2 block, got shape {u2.shape}")
            a, b, c, d = u2.ravel().tolist()
            if not all(map(cmath.isfinite, (a, b, c, d))):
                raise DomainError("givens block has non-finite entries")
            # ||U^dagger U - I||_F from the column norms and their inner product.
            off = abs(a.conjugate() * b + c.conjugate() * d)
            if math.hypot(abs(a) ** 2 + abs(c) ** 2 - 1, abs(b) ** 2 + abs(d) ** 2 - 1,
                          off, off) > 1e-12:
                raise DomainError("givens block is not unitary")
            u2.flags.writeable = False
            object.__setattr__(self, "u2", u2)
        else:
            if self.kind not in KINDS:
                raise DomainError(f"unknown gate kind {self.kind!r}")
            if self.param is None:
                raise DomainError("generator step needs a parameter")
            if not math.isfinite(self.param):
                raise DomainError(f"{self.kind!r} step has non-finite param {self.param}")
            want = 1 if self.kind == "p" else 2
            if len(self.indices) != want:
                raise DomainError(f"kind {self.kind!r} takes {want} joint indices")

    @classmethod
    def from_generator(cls, gen: ElementaryGenerator, param: float) -> "GateStep":
        return cls(gen.kind, gen.support(), param=param)

    def local(self, dims: tuple[int, int]) -> tuple[list[int], np.ndarray]:
        """Flat joint indices and the 1x1 or 2x2 block acting on them.

        Each joint index (s, c) must satisfy 0 <= s < dims[0] and
        0 <= c < dims[1]; otherwise it would alias another flat level.
        """
        if len(self.indices) > 2:
            raise DomainError("non-elementary gate: more than two joint indices")
        flats = []
        for pair in self.indices:
            try:
                s, c = (operator.index(i) for i in pair)
            except (TypeError, ValueError):
                raise ShapeError(f"joint index {pair!r} is not an integer pair") from None
            if not (0 <= s < dims[0] and 0 <= c < dims[1]):
                raise ShapeError(f"joint index ({s}, {c}) out of range for dims {dims}")
            flats.append(s * dims[1] + c)
        if len(flats) == 2 and flats[0] == flats[1]:
            raise DomainError(f"two-level gate acts twice on flat level {flats[0]}")
        if self.kind == "givens":
            return flats, self.u2
        if self.kind == "p":
            return flats, np.array([[cmath.exp(-1j * self.param)]])
        c, s = math.cos(self.param), math.sin(self.param)
        if self.kind == "h":
            return flats, np.array([[c, -1j * s], [-1j * s, c]])
        if self.kind == "m":
            return flats, np.array([[c, s], [-s, c]], dtype=complex)
        return flats, cmath.exp(1j * self.param) * np.eye(2)  # g_diag

    def matrix(self, dims: tuple[int, int]) -> np.ndarray:
        """Dense n x n unitary: the local block embedded into the identity."""
        flats, block = self.local(dims)
        u = np.eye(dims[0] * dims[1], dtype=complex)
        u[np.ix_(flats, flats)] = block
        return u

    def to_json(self) -> dict:
        d = {"kind": self.kind, "indices": [list(p) for p in self.indices]}
        if self.kind == "givens":
            d["u2"] = [[z.real, z.imag] for z in self.u2.ravel()]
        else:
            d["param"] = self.param
        return d

    @classmethod
    def from_json(cls, d: dict) -> "GateStep":
        indices = tuple(tuple(p) for p in d["indices"])
        if d["kind"] == "givens":
            flat = [complex(re, im) for re, im in d["u2"]]
            return cls("givens", indices, u2=np.array(flat).reshape(2, 2))
        return cls(d["kind"], indices, param=float(d["param"]))


@dataclass
class GateSequence:
    steps: list[GateStep]
    method: str  # 'exact' | 'trotter' | 'bch' | 'nested' | 'handcrafted'
    dims: tuple[int, int]
    error_bound: float = 0.0
    trotter_m: int | None = None

    def __len__(self) -> int:
        return len(self.steps)

    def _json_fields(self, steps: list) -> dict:
        d = {
            "method": self.method,
            "dims": list(self.dims),
            "error_bound": self.error_bound,
            "steps": steps,
        }
        if self.trotter_m is not None:
            d["trotter_m"] = self.trotter_m
        return d

    def to_json(self) -> dict:
        return self._json_fields([s.to_json() for s in self.steps])

    def save(self, path: str) -> None:
        """Write the bytes of json.dump(self.to_json(), f, indent=1).

        Each distinct step object is encoded once; where objects repeat
        (one slice listed trotter_m times), their text is spliced in.
        """
        distinct = {id(step): step for step in self.steps}
        fields = self._json_fields([s.to_json() for s in distinct.values()])
        with open(path, "w") as f:
            if len(distinct) == len(self.steps):
                json.dump(fields, f, indent=1)  # streamed: no step repeats
                return
            # JSON strings escape newlines and each level indents one more
            # space, so these markers match only the top-level steps list
            # and the starts of its items.
            head, rest = json.dumps(fields, indent=1).split('\n "steps": [\n  ', 1)
            body, tail = rest.split('\n ]', 1)
            first, *others = body.split(',\n  {')
            encoded = dict(zip(distinct, [first, *('{' + item for item in others)]))
            items = ',\n  '.join(map(encoded.__getitem__, map(id, self.steps)))
            f.write(f'{head}\n "steps": [\n  {items}\n ]{tail}')

    @classmethod
    def from_json(cls, obj) -> "GateSequence":
        if isinstance(obj, str):
            with open(obj) as f:
                obj = json.load(f)
        steps = []
        for i, step in enumerate(obj["steps"]):
            try:
                steps.append(GateStep.from_json(step))
            except DomainError as e:
                raise DomainError(f"step {i}: {e}") from None
        return cls(
            steps=steps,
            method=obj["method"],
            dims=tuple(obj["dims"]),
            error_bound=float(obj.get("error_bound", 0.0)),
            trotter_m=obj.get("trotter_m"),
        )


def apply_gates(seq: GateSequence, x: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """Apply every step to x in place, steps[0] first, and return x.

    x <- U x updates the two rows of each gate; with conjugate=True the
    two columns follow, giving x <- U x U†.  Every step is resolved (and
    its indices checked) before x is touched.
    """
    n = seq.dims[0] * seq.dims[1]
    if x.shape[0] != n or (conjugate and x.shape != (n, n)):
        raise ShapeError(f"operand shape {x.shape} does not match sequence dims {seq.dims}")
    if x.dtype != complex:
        raise TypeError(f"gates update a complex array in place, got {x.dtype}")
    for flats, block in [step.local(seq.dims) for step in seq.steps]:
        x[flats] = block @ x[flats]
        if conjugate:
            x[:, flats] = x[:, flats] @ block.conj().T
    return x


def _slice_length(seq: GateSequence) -> int | None:
    """L when seq.steps is one list of L step objects repeated trotter_m
    times (the same objects, not equal copies), else None."""
    steps, m = seq.steps, seq.trotter_m
    if not (isinstance(m, int) and m > 1 and steps and len(steps) % m == 0):
        return None
    p = len(steps) // m
    return p if all(map(operator.is_, steps[p:], steps[:-p])) else None


def reconstruct(seq: GateSequence, joint_dim: int | None = None) -> np.ndarray:
    """Ordered product of the steps, steps[0] acting first.

    A sequence of one slice repeated m times is reconstructed as
    slice^m by repeated squaring; any other sequence (including one
    loaded from JSON, whose steps are distinct objects) gate by gate.
    """
    n = seq.dims[0] * seq.dims[1]
    if joint_dim is not None and joint_dim != n:
        raise ShapeError(f"sequence dims {seq.dims} do not match joint dim {joint_dim}")
    p = _slice_length(seq)
    if p is None:
        return apply_gates(seq, np.eye(n, dtype=complex))
    one = GateSequence(steps=seq.steps[:p], method=seq.method, dims=seq.dims)
    return np.linalg.matrix_power(apply_gates(one, np.eye(n, dtype=complex)), seq.trotter_m)


def _require_energy_preserving(u: np.ndarray, blocks: EnergyBlocks, tol: float) -> None:
    if not is_energy_preserving(u, blocks, tol):
        i, j, mag = max_cross_block_entry(u, blocks)
        raise DomainError(
            f"unitary entry ({i},{j}) of magnitude {mag:.3e} couples energy blocks"
        )


def compile_exact(u, blocks: EnergyBlocks, tol: float = 1e-9) -> GateSequence:
    """Two-level elimination of each energy block's sub-unitary."""
    u = np.asarray(u, dtype=complex)
    _require_energy_preserving(u, blocks, tol)
    givens: list[GateStep] = []
    phases: list[GateStep] = []
    for energy, idx in blocks.blocks:
        idx = sorted(idx)
        flats = [blocks.flat(p) for p in idx]
        d = len(idx)
        a = u[np.ix_(flats, flats)].copy()
        block_rots: list[GateStep] = []
        for col in range(d - 1):
            for row in range(col + 1, d):
                b = a[row, col]
                if abs(b) < _ELIM_TOL:
                    continue
                x = a[col, col]
                r = math.hypot(abs(x), abs(b))
                # R zeroes a[row, col]; the emitted gate is R†.
                r2 = np.array([[np.conj(x), np.conj(b)], [-b, x]]) / r
                a[[col, row], :] = r2 @ a[[col, row], :]
                block_rots.append(
                    GateStep("givens", (idx[col], idx[row]), u2=r2.conj().T)
                )
        # a is now diagonal with unit-modulus phases.
        for k in range(d):
            theta = float(np.angle(a[k, k]))
            if abs(a[k, k] - 1.0) > 1e-12:
                phases.append(GateStep("p", (idx[k],), param=-theta))
        givens.extend(reversed(block_rots))
    # Phases act first; eliminations are undone outermost-last.
    return GateSequence(steps=phases + givens, method="exact", dims=blocks.dims)


def _sorted_coeffs(coeffs) -> list[tuple[ElementaryGenerator, float]]:
    items = list(coeffs.items()) if isinstance(coeffs, dict) else list(coeffs)
    items.sort(key=lambda t: t[0])
    return items


def compile_trotter(coeffs, t: float, m: int, dims: tuple[int, int]) -> GateSequence:
    """First-order product formula for exp(t * sum_j r_j K_j).

    One slice applies every generator in lexicographic order with parameter
    t*r_j/m; the slice repeats m times.  The reported bound uses the
    heuristic constant c=1 on the O(t^2/M) term.
    """
    if m <= 0:
        raise DomainError(f"trotter step count must be positive, got {m}")
    items = [(g, r) for g, r in _sorted_coeffs(coeffs) if r != 0.0]
    if not items or t == 0.0:
        return GateSequence(steps=[], method="trotter", dims=dims, trotter_m=m)
    slice_steps = [GateStep.from_generator(g, t * r / m) for g, r in items]
    total = sum(abs(r) for _, r in items)  # every kind has unit spectral norm
    bound = (t * total) ** 2 / m
    return GateSequence(
        steps=slice_steps * m, method="trotter", dims=dims,
        error_bound=bound, trotter_m=m,
    )


def _bch_group(j: ElementaryGenerator, k: ElementaryGenerator, s: float) -> list[GateStep]:
    # Product e^{-sJ} e^{-sK} e^{sJ} e^{sK}; steps listed first-acting first.
    return [
        GateStep.from_generator(k, s),
        GateStep.from_generator(j, s),
        GateStep.from_generator(k, -s),
        GateStep.from_generator(j, -s),
    ]


def compile_bch(j: ElementaryGenerator, k: ElementaryGenerator, t: float, m: int,
                dims: tuple[int, int]) -> GateSequence:
    """Group-commutator synthesis of exp(t [K_j, K_k]), 4m gates.

    Negative t swaps the pair ([K_k, K_j] = -[K_j, K_k]) so sqrt(t/m)
    stays real.  Error decays as t^{3/2}/sqrt(m).
    """
    if m <= 0:
        raise DomainError(f"bch step count must be positive, got {m}")
    if t < 0:
        j, k, t = k, j, -t
    if t == 0.0:
        return GateSequence(steps=[], method="bch", dims=dims, trotter_m=m)
    s = math.sqrt(t / m)
    steps = _bch_group(j, k, s) * m
    bound = t ** 1.5 / math.sqrt(m)
    return GateSequence(steps=steps, method="bch", dims=dims,
                        error_bound=bound, trotter_m=m)


@dataclass(frozen=True)
class GeneratorCombination:
    """Depth-1 description of -i H_int: linear terms plus single commutators."""

    linear: tuple[tuple[ElementaryGenerator, float], ...] = ()
    commutators: tuple[tuple[ElementaryGenerator, ElementaryGenerator, float], ...] = ()

    def __post_init__(self):
        for a, b, _ in self.commutators:
            if not (isinstance(a, ElementaryGenerator) and isinstance(b, ElementaryGenerator)):
                raise DomainError("commutator terms deeper than one level are unsupported")

    def target_matrix(self, dims: tuple[int, int]) -> np.ndarray:
        n = dims[0] * dims[1]
        k = np.zeros((n, n), dtype=complex)
        for g, c in self.linear:
            k += c * g.matrix(dims)
        for a, b, c in self.commutators:
            am, bm = a.matrix(dims), b.matrix(dims)
            k += c * (am @ bm - bm @ am)
        return k


def compile_nested(combo: GeneratorCombination, t: float, m: int,
                   dims: tuple[int, int]) -> GateSequence:
    """Outer Trotter over the combination's summands; each commutator
    summand is realized by one BCH group per slice."""
    if m <= 0:
        raise DomainError(f"step count must be positive, got {m}")
    if not combo.commutators:
        return compile_trotter(dict(combo.linear), t, m, dims)
    if not combo.linear and len(combo.commutators) == 1:
        a, b, c = combo.commutators[0]
        return compile_bch(a, b, t * c, m, dims)
    slice_steps: list[GateStep] = [
        GateStep.from_generator(g, t * c / m)
        for g, c in sorted(combo.linear, key=lambda p: p[0])
        if c != 0.0
    ]
    for a, b, c in combo.commutators:
        tc = t * c / m
        if tc == 0.0:
            continue
        if tc < 0:
            a, b, tc = b, a, -tc
        slice_steps.extend(_bch_group(a, b, math.sqrt(tc)))
    return GateSequence(steps=slice_steps * m, method="nested", dims=dims,
                        trotter_m=m)


def _log_unitary(u: np.ndarray) -> np.ndarray:
    """Anti-Hermitian K with e^K = u (principal branch), via Schur form."""
    from scipy.linalg import schur

    t, z = schur(u, output="complex")
    phases = np.log(np.diag(t))
    k = z @ np.diag(phases) @ z.conj().T
    return (k - k.conj().T) / 2


def _expand_in_basis(k: np.ndarray, blocks: EnergyBlocks) -> dict[ElementaryGenerator, float]:
    """Coefficients of K over the orthogonal h/m/p basis."""
    coeffs = {}
    for gen in enumerate_basis(blocks, include_rank1=True):
        gm = gen.matrix(blocks.dims)
        norm2 = np.real(np.trace(gm.conj().T @ gm))
        r = float(np.real(np.trace(gm.conj().T @ k)) / norm2)
        if abs(r) > 1e-14:
            coeffs[gen] = r
    return coeffs


def _rank2_combination(k: np.ndarray, blocks: EnergyBlocks) -> GeneratorCombination:
    """Depth-1 rank-2-only description of K: h/m linear terms plus
    f-type commutators and one g_diag per block for the diagonal part."""
    linear: list[tuple[ElementaryGenerator, float]] = []
    comms: list[tuple[ElementaryGenerator, ElementaryGenerator, float]] = []
    for energy, idx in blocks.blocks:
        idx = sorted(idx)
        d = len(idx)
        flats = [blocks.flat(p) for p in idx]
        diag = np.array([np.imag(k[f, f]) for f in flats])
        if d == 1:
            if abs(diag[0]) > 1e-12:
                raise DomainError(
                    f"singleton block at energy {energy} carries a phase; "
                    "tensor a two-level zero-energy catalyst to double it"
                )
            continue
        for i in range(d):
            for j in range(i + 1, d):
                gh = ElementaryGenerator("h", energy, idx[i], idx[j])
                gm = ElementaryGenerator("m", energy, idx[i], idx[j])
                for g in (gh, gm):
                    m = g.matrix(blocks.dims)
                    r = float(np.real(np.trace(m.conj().T @ k)) / 2.0)
                    if abs(r) > 1e-14:
                        linear.append((g, r))
        # diag = sum c_i * f_(i,i+1) + c_g * g_(0,1) in the +/-1 patterns.
        cols = np.zeros((d, d))
        for i in range(d - 1):
            cols[i, i], cols[i + 1, i] = 1.0, -1.0
        cols[0, d - 1] = cols[1, d - 1] = 1.0
        sol = np.linalg.solve(cols, diag)
        for i in range(d - 1):
            if abs(sol[i]) > 1e-14:
                gh = ElementaryGenerator("h", energy, idx[i], idx[i + 1])
                gm = ElementaryGenerator("m", energy, idx[i], idx[i + 1])
                comms.append((gh, gm, float(sol[i]) / 2.0))
        if abs(sol[d - 1]) > 1e-14:
            linear.append((ElementaryGenerator("g_diag", energy, idx[0], idx[1]), float(sol[d - 1])))
    return GeneratorCombination(linear=tuple(linear), commutators=tuple(comms))


def compile_approximate(u, blocks: EnergyBlocks, method: str,
                        accuracy: float) -> tuple[GateSequence, float]:
    """Approximate u = e^K with the trotter or bch back-end.

    trotter expands K over the h/m/p basis; bch over rank-2 h/m terms
    plus commutators (compile_nested).  The slice count m doubles from 1
    until the Frobenius error is below `accuracy`, up to M_CAP.  Returns
    the sequence and its error; if M_CAP is not enough, the M_CAP
    sequence and an error at or above `accuracy`.
    """
    u = np.asarray(u, dtype=complex)
    _require_energy_preserving(u, blocks, 1e-9)
    k = _log_unitary(u)
    if method == "trotter":
        coeffs = _expand_in_basis(k, blocks)
        resid = frobenius_distance(
            sum((r * g.matrix(blocks.dims) for g, r in coeffs.items()), np.zeros_like(k)),
            k,
        )
        if resid > 1e-8:
            raise DomainError(f"generator expansion residual {resid:.3e}")
        build = lambda m: compile_trotter(coeffs, 1.0, m, blocks.dims)
    elif method == "bch":
        combo = _rank2_combination(k, blocks)
        build = lambda m: compile_nested(combo, 1.0, m, blocks.dims)
    else:
        raise DomainError(f"unknown approximate method {method!r}")
    m = 1
    while True:
        seq = build(m)
        err = frobenius_distance(reconstruct(seq), u)
        if err < accuracy or 2 * m > M_CAP:
            return seq, err
        m *= 2
