"""Elementary gates and gate sequences.

GateSequence holds an ordered list of elementary gates as columns of one
slice plus a repeat count, reads and writes the JSON sequence format
(docs/formats.md), and apply_gates applies it layer by layer; the cost
model is in compiler.py.  GateStep is one gate as a value (a named
generator kind with a parameter, or an explicit 2x2 unitary, on one or
two joint (system, catalyst) indices): the value type of a JSON step,
of the loader's error messages and of the read-only seq.steps view.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FormatError, ShapeError
from .generators import KINDS

_UNITARY_TOL = 1e-12  # largest ||U†U - I||_F of an accepted givens block

STEP_KINDS = KINDS + ("givens",)
KIND_CODE = {kind: code for code, kind in enumerate(STEP_KINDS)}  # code: position in STEP_KINDS
_P, _GIVENS = KIND_CODE["p"], KIND_CODE["givens"]


# Entries [0,0], [0,1], [1,0], [1,1] of exp(param * K) per kind code, as
# weights of (cos, -i sin, sin, exp(-i param), exp(i param)).
_BLOCK_WEIGHTS = np.array([
    [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]],   # h
    [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, -1, 0, 0], [1, 0, 0, 0, 0]],  # m
    [[0, 0, 0, 1, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],   # p: [0, 0] only
    [[0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]],   # g_diag
    [[0, 0, 0, 0, 0]] * 4,                                                   # givens
], dtype=complex)


def kind_blocks(kinds: np.ndarray, params: np.ndarray) -> np.ndarray:
    """(L, 2, 2) blocks exp(param * K) of generator steps; a phase sits in
    [0, 0] and givens rows are not meaningful."""
    values = np.empty((len(params), 5, 1), dtype=complex)
    values[:, 0, 0] = np.cos(params)
    values[:, 2, 0] = np.sin(params)
    values[:, 1, 0] = -1j * values[:, 2, 0]
    values[:, 4, 0] = np.exp(1j * params)
    values[:, 3, 0] = np.exp(-1j * params)
    return (_BLOCK_WEIGHTS[kinds] @ values).reshape(-1, 2, 2)


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
                          off, off) > _UNITARY_TOL:
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

    def _flats(self, dims: tuple[int, int]) -> list[int]:
        """Flat joint indices, each checked: an index (s, c) must satisfy
        0 <= s < dims[0] and 0 <= c < dims[1]; otherwise it would alias
        another flat level."""
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
        return flats

    def local(self, dims: tuple[int, int]) -> tuple[list[int], np.ndarray]:
        """Flat joint indices and the 1x1 or 2x2 block acting on them."""
        flats = self._flats(dims)
        if self.kind == "givens":
            return flats, self.u2
        block = kind_blocks(np.array([KIND_CODE[self.kind]]), np.array([float(self.param)]))[0]
        return flats, block[:len(flats), :len(flats)]

    def matrix(self, dims: tuple[int, int]) -> np.ndarray:
        """Dense n x n unitary: the local block embedded into the identity."""
        flats, block = self.local(dims)
        u = np.eye(dims[0] * dims[1], dtype=complex)
        u[np.ix_(flats, flats)] = block
        return u

    def to_json(self) -> dict:
        d = {"kind": self.kind, "indices": [[int(s), int(c)] for s, c in self.indices]}
        if self.kind == "givens":
            d["u2"] = [[z.real, z.imag] for z in self.u2.ravel().tolist()]
        else:
            d["param"] = float(self.param)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "GateStep":
        indices = tuple(tuple(p) for p in d["indices"])
        if d["kind"] == "givens":
            flat = [complex(re, im) for re, im in d["u2"]]
            return cls("givens", indices, u2=np.array(flat).reshape(2, 2))
        return cls(d["kind"], indices, param=float(d["param"]))


class _StepView(Sequence):
    """Read-only view of a GateSequence as GateStep values, built on first use."""

    __slots__ = ("_seq",)

    def __init__(self, seq: "GateSequence"):
        self._seq = seq

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, i):
        k = range(len(self))[i]
        one = self._seq._slice_steps()
        if isinstance(k, range):
            return tuple(one[j % len(one)] for j in k)
        return one[k % len(one)]

    def __iter__(self):
        one = self._seq._slice_steps()
        for _ in range(self._seq.repeat):
            yield from one

    def __repr__(self) -> str:
        return f"<{len(self)} steps of {self._seq!r}>"


# save() text of one step at the nesting depth of json.dump(..., indent=1).
_PAIR = "    [\n     %d,\n     %d\n    ]"
_ENTRY = "    [\n     %r,\n     %r\n    ]"
_KIND_LINE = '  {\n   "kind": "%s",\n   "indices": [\n'
_TWO_PAIRS = _PAIR + ",\n" + _PAIR + "\n   ],\n"
_PARAM = '   "param": %r\n  }'
_TEMPLATES = {
    code: _KIND_LINE % kind
    + (_PAIR + "\n   ],\n" if code == _P else _TWO_PAIRS)
    + ('   "u2": [\n' + ",\n".join([_ENTRY] * 4) + "\n   ]\n  }" if code == _GIVENS else _PARAM)
    for kind, code in KIND_CODE.items()
}
_SAVE_CHUNK = 1 << 16  # characters per write of a repeated slice


class GateSequence:
    """An ordered list of elementary gates on joint dims (d_S, d_C),
    steps[0] acting first, held as one slice of L steps in columns

      kinds   (L,)      kind codes, positions in STEP_KINDS
      flats   (L, 2)    flat levels s * dims[1] + c; a phase lists its level twice
      blocks  (L, 2, 2) complex blocks; a phase keeps exp(-i param) in [0, 0]
      params  (L,)      generator parameters, NaN for givens

    and listed `repeat` times; len() counts L * repeat.

    The caller guarantees valid columns: known kind codes, in-range flat
    levels (distinct for two-level steps), unitary givens blocks and
    finite parameters; from_json is the checked entry for outside input.
    Generator blocks are computed from params; only the givens rows of
    `blocks` are read.
    """

    def __init__(self, kinds, flats, blocks, params, method: str, dims: tuple[int, int],
                 error_bound: float = 0.0, trotter_m: int | None = None, repeat: int = 1):
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.params = np.asarray(params, dtype=float)
        self.blocks = np.where((self.kinds == _GIVENS)[:, None, None],
                               np.asarray(blocks, dtype=complex).reshape(-1, 2, 2),
                               kind_blocks(self.kinds, self.params))
        self.flats = np.asarray(flats, dtype=np.intp).reshape(-1, 2)
        for column in (self.kinds, self.flats, self.blocks, self.params):
            column.flags.writeable = False
        self.method, self.dims = method, tuple(dims)
        self.error_bound, self.trotter_m = error_bound, trotter_m
        self.repeat = repeat if len(self.kinds) else 1
        self._steps = self._layers = None

    def __len__(self) -> int:
        return len(self.kinds) * self.repeat

    def __repr__(self) -> str:
        return (f"GateSequence(method={self.method!r}, dims={self.dims}, "
                f"gates={len(self)}, repeat={self.repeat})")

    @property
    def steps(self) -> _StepView:
        """The steps as GateStep values (read-only; built on first use)."""
        return _StepView(self)

    def _slice_steps(self) -> tuple:
        if self._steps is None:
            dc = self.dims[1]
            steps = []
            for code, (a, b), param, u2 in zip(self.kinds.tolist(), self.flats.tolist(),
                                               self.params.tolist(), self.blocks):
                if code == _GIVENS:
                    steps.append(GateStep("givens", (divmod(a, dc), divmod(b, dc)), u2=u2))
                else:
                    pairs = (divmod(a, dc),) if code == _P else (divmod(a, dc), divmod(b, dc))
                    steps.append(GateStep(STEP_KINDS[code], pairs, param=param))
            self._steps = tuple(steps)
        return self._steps

    def count(self, kind: str) -> int:
        """Number of steps of one kind."""
        return int(np.count_nonzero(self.kinds == KIND_CODE[kind])) * self.repeat

    def _plan(self) -> list[tuple]:
        """The slice's ASAP layers, as layer_views lists them."""
        if self._layers is None:
            order, cuts = layer_order(self.flats, self.kinds, self.dims[0] * self.dims[1])
            self._layers = layer_views(self.flats[order], self.blocks[order], cuts)
        return self._layers

    @property
    def layers(self) -> int:
        """Number of layers apply_gates applies: the slice's ASAP layers
        times repeat."""
        return len(self._plan()) * self.repeat

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
        return self._json_fields([s.to_json() for s in self._slice_steps()] * self.repeat)

    def _step_texts(self):
        """The slice's steps as save() writes them, one by one."""
        s, c = np.divmod(self.flats, self.dims[1])
        pairs = np.stack([s[:, 0], c[:, 0], s[:, 1], c[:, 1]], axis=1).tolist()
        u2 = self.blocks.reshape(-1, 4).view(float).tolist()  # re, im of each entry
        for code, pair, param, entries in zip(self.kinds.tolist(), pairs,
                                              self.params.tolist(), u2):
            if code == _GIVENS:
                yield _TEMPLATES[code] % (*pair, *entries)
            elif code == _P:
                yield _TEMPLATES[code] % (pair[0], pair[1], param)
            else:
                yield _TEMPLATES[code] % (*pair, param)

    def save(self, path: str) -> None:
        """Write the bytes of json.dump(self.to_json(), f, indent=1).

        The steps are formatted from the columns with float repr, as the
        json module does, and streamed; a repeated slice is formatted once
        and written as chunks of about _SAVE_CHUNK characters, each holding
        whole copies of it.
        """
        text = json.dumps(self._json_fields([]), indent=1)
        with open(path, "w") as f:
            if not len(self):
                f.write(text)
                return
            head, tail = text.split('\n "steps": []', 1)
            items = self._step_texts()
            if self.repeat > 1:
                one = ",\n".join(items)
                k = min(self.repeat, max(1, _SAVE_CHUNK // (len(one) + 2)))
                q, r = divmod(self.repeat, k)
                items = itertools.chain(itertools.repeat(",\n".join([one] * k), q),
                                        [",\n".join([one] * r)] if r else [])
            f.write(f'{head}\n "steps": [\n{next(items)}')
            for item in items:
                f.write(",\n")
                f.write(item)
            f.write(f"\n ]{tail}")

    @classmethod
    def from_json(cls, obj) -> "GateSequence":
        """Load a sequence from a path or a parsed JSON object.

        Structural faults raise FormatError; values GateStep would reject
        raise its DomainError or ShapeError, prefixed `step <i>:` (see
        _read_steps).  An `error_bound` that is not a finite non-negative
        number, or a `trotter_m` that is neither absent, null nor a
        positive integer, raises DomainError (a bool is neither).  A
        loaded sequence has repeat 1.
        """
        if isinstance(obj, str):
            with open(obj) as f:
                obj = json.load(f)
        if not isinstance(obj, dict):
            raise FormatError("a gate sequence must be a JSON object")
        dims = obj["dims"]
        if not (isinstance(dims, (list, tuple)) and len(dims) == 2
                and all(type(d) is int and d > 0 for d in dims)):
            raise FormatError(f"'dims' must be two positive integers, got {dims!r}")
        dims = tuple(dims)
        bound = obj.get("error_bound", 0.0)
        try:
            error_bound = float(bound) if type(bound) in (int, float) else math.nan
        except OverflowError:  # an integer beyond the float range
            error_bound = math.inf
        if not 0.0 <= error_bound < math.inf:
            raise DomainError(f"'error_bound' {bound!r} is not a finite non-negative number")
        trotter_m = obj.get("trotter_m")
        if trotter_m is not None and not (type(trotter_m) is int and trotter_m > 0):
            raise DomainError(f"'trotter_m' {trotter_m!r} is not a positive integer")
        return cls(*_read_steps(obj["steps"], dims), method=obj["method"], dims=dims,
                   error_bound=error_bound, trotter_m=trotter_m)


def _unpack_indices(idx) -> tuple:
    """The two (s, c) pairs of a list of [s, c] pairs, the one pair of a
    phase listed twice; two (0, 0) for another pair count.  TypeError or
    ValueError if idx is not a list of pairs."""
    if not isinstance(idx, (list, tuple)):
        raise TypeError
    if len(idx) == 2:
        (s0, c0), (s1, c1) = idx
        return (s0, c0), (s1, c1)
    if len(idx) == 1:
        (s0, c0), = idx
        return (s0, c0), (s0, c0)
    if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in idx):
        raise ValueError
    return (0, 0), (0, 0)


def _numbers(rows: list, width: int, integer: bool) -> tuple[np.ndarray, np.ndarray]:
    """(len(rows), width) array of rows of JSON numbers (int64 if integer,
    else float) and the mask of rows holding anything else, zeroed in the
    array.  Integers too large for int64 become -1, out of any range;
    too large for a float, they are not numbers."""
    try:
        arr = np.array(rows) if rows else np.zeros((0, width), dtype=np.int64)
        if arr.shape == (len(rows), width) and arr.dtype.kind in ("i" if integer else "iuf"):
            return (arr if integer else arr.astype(float)), np.zeros(len(rows), dtype=bool)
    except (TypeError, ValueError):  # ragged rows
        pass

    def number(v):
        if not isinstance(v, int if integer else (int, float)):
            return None
        if integer:
            return v if abs(v) < 1 << 62 else -1
        try:
            return float(v)
        except OverflowError:
            return None

    values = [[number(v) for v in row] for row in rows]
    bad = np.array([None in row for row in values], dtype=bool)
    return np.array([[0] * width if b else row for row, b in zip(values, bad)],
                    dtype=np.int64 if integer else float), bad


def _read_steps(items, dims: tuple[int, int]):
    """(kinds, flats, blocks, params) of a JSON step list.

    Structural faults raise FormatError at the first step that has one:
    a step that is not an object or lacks a key, `indices` that are not
    a list of [s, c] pairs, a givens `u2` that is not four [re, im]
    pairs.  GateStep's checks (known kind, index count, finite param or
    u2 entries, ||U†U - I||_F <= 1e-12, integer in-range indices,
    distinct levels) then run over all steps at once as array masks,
    with one more for a param or u2 entry that is not a number; the
    first step they flag raises GateStep's own error, prefixed
    `step <i>:`.
    """
    if not isinstance(items, list):
        raise FormatError("'steps' must be a list")
    codes, counts, pairs, params, u2s = [], [], [], [], []
    for i, step in enumerate(items):
        try:
            kind, idx = step["kind"], step["indices"]
            value = step["u2"] if kind == "givens" else step["param"]
        except KeyError as e:
            raise FormatError(f"step {i}: missing key {e}") from None
        except TypeError:
            raise FormatError(f"step {i}: not a JSON object") from None
        try:
            pairs.extend(_unpack_indices(idx))
        except (TypeError, ValueError):
            raise FormatError(f"step {i}: 'indices' must be a list of [s, c] pairs") from None
        codes.append(KIND_CODE.get(kind, -1) if isinstance(kind, str) else -1)
        counts.append(len(idx))
        if kind == "givens":
            try:
                (a, b), (c, d), (e, f), (g, h) = value
            except (TypeError, ValueError):
                raise FormatError(f"step {i}: 'u2' must be four [re, im] pairs") from None
            u2s.append((a, b, c, d, e, f, g, h))
            params.append(0.0)
        else:
            params.append(value)

    kinds = np.array(codes, dtype=np.int8)
    givens, phase = kinds == _GIVENS, kinds == _P
    params, non_number = _numbers([(v,) for v in params], 1, integer=False)
    params = np.where(givens, math.nan, params[:, 0])
    entries, bad_u2 = _numbers(u2s, 8, integer=False)
    non_number[givens] = bad_u2
    blocks = np.zeros((len(items), 2, 2), dtype=complex)
    blocks[givens] = entries.view(complex).reshape(-1, 2, 2)
    joint, nonint = _numbers(pairs, 2, integer=True)
    s, c = joint[:, 0].reshape(-1, 2), joint[:, 1].reshape(-1, 2)
    outside = nonint.reshape(-1, 2) | ~((0 <= s) & (s < dims[0]) & (0 <= c) & (c < dims[1]))
    flats = np.where(outside, 0, s * dims[1] + c)
    with np.errstate(invalid="ignore", over="ignore"):
        g = blocks[givens]
        defect = np.linalg.norm(np.swapaxes(g, 1, 2).conj() @ g - np.eye(2), axis=(1, 2))
    bad = ((kinds < 0) | (np.array(counts) != np.where(phase, 1, 2)) | non_number
           | ~np.isfinite(np.where(givens, 0.0, params)) | outside.any(axis=1)
           | (~phase & (flats[:, 0] == flats[:, 1])))
    bad[givens] |= ~(defect <= _UNITARY_TOL)
    for i in np.flatnonzero(bad).tolist():
        if non_number[i]:
            raise DomainError(f"step {i}: givens block has non-numeric entries" if givens[i]
                              else f"step {i}: param {items[i]['param']!r} is not a number")
        try:
            GateStep.from_json(items[i]).local(dims)
        except (DomainError, ShapeError) as e:
            raise type(e)(f"step {i}: {e}") from None
    return kinds, flats, blocks, params


def layer_order(flats: np.ndarray, kinds: np.ndarray, n: int) -> tuple[np.ndarray, list]:
    """The ASAP layers of a slice on n levels, from its flat level pairs
    and kind codes alone.

    Each step goes into the earliest layer after every earlier step that
    shares a level with it.  `order` lists the steps layer by layer, each
    layer's two-level steps and then its phases, in stored order; layer k
    is order[cuts[2k]:cuts[2k+1]] (two-level) plus
    order[cuts[2k+1]:cuts[2k+2]] (phases).
    """
    last = [0] * n  # latest layer on each level
    layer = []
    for a, b in flats.tolist():
        k = max(last[a], last[b]) + 1
        last[a] = last[b] = k
        layer.append(k)
    key = 2 * np.array(layer, dtype=np.intp) + (kinds == _P)
    order = np.argsort(key, kind="stable")
    cuts = np.searchsorted(key[order], np.arange(2, 2 * max(layer, default=0) + 3)).tolist()
    return order, cuts


def layer_views(flats: np.ndarray, blocks: np.ndarray, cuts: list) -> list[tuple]:
    """Each layer as (pairs, blocks, phase levels, phases), from the
    columns of a slice already listed in layer_order."""
    return [(flats[lo:mid], blocks[lo:mid], flats[mid:hi, 0], blocks[mid:hi, 0, 0])
            for lo, mid, hi in zip(cuts[0::2], cuts[1::2], cuts[2::2])]


def apply_layers(layers: list[tuple], repeat: int, x: np.ndarray) -> None:
    """x <- U x for the slice U given by its layers, applied `repeat` times."""
    for _ in range(repeat):
        for pairs, blocks, levels, phases in layers:
            if len(pairs):
                x[pairs] = blocks @ x[pairs]
            if len(levels):
                x[levels] *= phases[:, None]


def apply_gates(seq: GateSequence, x: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """Apply every step to x in place, steps[0] first, and return x.

    x <- U x updates the rows of each layer at once (x may be a vector or
    an n-row matrix).  With conjugate=True, x <- U x U† = conj(conj(U x) U^T):
    the second pass updates rows of the transposed view, i.e. columns, between
    two in-place conjugations.
    """
    n = seq.dims[0] * seq.dims[1]
    if x.ndim not in (1, 2) or x.shape[0] != n or (conjugate and x.shape != (n, n)):
        raise ShapeError(f"operand shape {x.shape} does not match sequence dims {seq.dims}")
    if x.dtype != complex:
        raise TypeError(f"gates update a complex array in place, got {x.dtype}")
    layers = seq._plan()
    apply_layers(layers, seq.repeat, x if x.ndim == 2 else x[:, None])
    if conjugate:
        np.conjugate(x, out=x)
        apply_layers(layers, seq.repeat, x.T)
        np.conjugate(x, out=x)
    return x
