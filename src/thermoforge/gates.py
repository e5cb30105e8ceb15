"""Elementary gates and gate sequences.

GateSequence holds an ordered list of elementary gates as columns of one
slice plus a repeat count, reads and writes the JSON sequence format
(docs/formats.md), and plans its slice as ASAP layers, which
apply_layers applies; compiler.reconstruct multiplies a whole sequence
out, and the cost model is in compiler.py.  GateStep is one gate as a
value (a named generator kind with a parameter, or an explicit 2x2
unitary, on one or two joint (system, catalyst) indices): the value type
of the read-only seq.steps view, and the one judge of a JSON step.

A file has one writer and one judge.  save is the only serializer: it
writes each slice with two string formats over flat field tuples.  The
loader reads each step field for all steps at once and checks the
columns as arrays, which only decides whether the file is clean; the
error of a file that is not comes from one fallback scan, its
structural faults first and then GateStep.from_json(step).local(dims).
"""
from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, FormatError, ShapeError, json_float, json_reals,
                     load_json_object)
from .generators import KINDS
from .thermal import flat_index

_UNITARY_TOL = 1e-12  # largest ||U†U - I||_F of an accepted givens block

STEP_KINDS = KINDS + ("givens",)
METHODS = ("exact", "trotter", "bch", "nested", "handcrafted")  # a sequence file's `method`
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


def _givens_defect(blocks: np.ndarray) -> np.ndarray:
    """||U†U - I||_F of each block of a (k, 2, 2) stack, from its column
    norms and their inner product: the one unitarity bound of a givens
    step, for a file's steps at once and for one GateStep alike.  An
    entry too large to square gives inf or NaN."""
    with np.errstate(invalid="ignore", over="ignore"):
        u00, u01, u10, u11 = blocks.reshape(-1, 4).T
        off = np.abs(u00.conj() * u01 + u10.conj() * u11)
        return np.sqrt((np.abs(u00) ** 2 + np.abs(u10) ** 2 - 1) ** 2
                       + (np.abs(u01) ** 2 + np.abs(u11) ** 2 - 1) ** 2 + 2 * off ** 2)


def kind_blocks(kinds: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Blocks exp(param * K) of generator steps, shape params.shape + (2, 2),
    kinds broadcast against params; a phase sits in [0, 0] and givens
    rows are not meaningful."""
    values = np.empty(params.shape + (5, 1), dtype=complex)
    values[..., 0, 0] = np.cos(params)
    values[..., 2, 0] = np.sin(params)
    values[..., 1, 0] = -1j * values[..., 2, 0]
    values[..., 4, 0] = np.exp(1j * params)
    values[..., 3, 0] = np.exp(-1j * params)
    return (_BLOCK_WEIGHTS[kinds] @ values).reshape(params.shape + (2, 2))


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
            if not np.isfinite(u2).all():
                raise DomainError("givens block has non-finite entries")
            if not _givens_defect(u2[None])[0] <= _UNITARY_TOL:  # NaN once an entry overflows
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
        """Flat joint indices, each checked by thermal.flat_index."""
        flats = [flat_index(pair, dims) for pair in self.indices]
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

    @classmethod
    def from_json(cls, d: dict) -> "GateStep":
        """The step of a JSON step object.  A `param` or `u2` entry that is
        not a JSON number (errors.json_float) raises DomainError."""
        indices = tuple(tuple(p) for p in d["indices"])
        if d["kind"] == "givens":
            try:
                flat = [complex(json_float(re), json_float(im)) for re, im in d["u2"]]
            except (TypeError, OverflowError):
                raise DomainError("givens block has non-numeric entries") from None
            return cls("givens", indices, u2=np.array(flat).reshape(2, 2))
        try:
            param = json_float(d["param"])
        except (TypeError, OverflowError):
            raise DomainError(f"param {d['param']!r} is not a number") from None
        return cls(d["kind"], indices, param=param)


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
# Index fields are formatted first; each float field stays as %s (written
# %%s) for a second pass over the texts of _float_texts.
_PAIR = "    [\n     %d,\n     %d\n    ]"
_ENTRY = "    [\n     %%s,\n     %%s\n    ]"
_KIND_LINE = '  {\n   "kind": "%s",\n   "indices": [\n'
_TWO_PAIRS = _PAIR + ",\n" + _PAIR + "\n   ],\n"
_PARAM = '   "param": %%s\n  }'
_TEMPLATES = [
    _KIND_LINE % kind
    + (_PAIR + "\n   ],\n" if code == _P else _TWO_PAIRS)
    + ('   "u2": [\n' + ",\n".join([_ENTRY] * 4) + "\n   ]\n  }" if code == _GIVENS else _PARAM)
    for kind, code in KIND_CODE.items()
]
# Which of (s0, c0, s1, c1) and of 8 floats (re, im of each u2 entry, or
# the param first) each kind's template takes.
_INT_FIELDS = np.ones((len(STEP_KINDS), 4), dtype=bool)
_INT_FIELDS[_P, 2:] = False
_FLOAT_FIELDS = np.zeros((len(STEP_KINDS), 8), dtype=bool)
_FLOAT_FIELDS[:, 0] = _FLOAT_FIELDS[_GIVENS] = True
_SHARED_REPR_MIN = 128  # floats below which repr runs on each (np.unique costs more)
_SAVE_CHUNK = 1 << 16  # characters per write of a repeated slice


def _float_texts(x: np.ndarray) -> list[str]:
    """repr of each float of x, as json.dumps writes it.  From
    _SHARED_REPR_MIN floats on, repr runs once per distinct magnitude and
    the sign is a "-" prefix: exact, since repr(-v) == "-" + repr(v) for
    every finite v, -0.0 included."""
    if len(x) < _SHARED_REPR_MIN:
        return list(map(repr, x.tolist()))
    mags, inverse = np.unique(np.abs(x), return_inverse=True)
    texts = list(map(repr, mags.tolist()))
    texts += ["-" + text for text in texts]
    return list(map(texts.__getitem__, (inverse + len(mags) * np.signbit(x)).tolist()))


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
        """Number of layers in the sequence: the slice's ASAP layers
        times repeat (reconstruct applies the slice's once)."""
        return len(self._plan()) * self.repeat

    def _slice_text(self) -> str:
        """The slice's steps as save() writes them, joined by ",\n": the
        steps' templates in one string, formatted with one flat tuple of
        index fields and then one of float texts."""
        pairs = np.stack(np.divmod(self.flats, self.dims[1]), axis=2).reshape(-1, 4)
        ints = pairs[_INT_FIELDS[self.kinds]]
        floats = np.where((self.kinds == _GIVENS)[:, None],
                          self.blocks.reshape(-1, 4).view(float), self.params[:, None])
        template = ",\n".join([_TEMPLATES[code] for code in self.kinds.tolist()])
        return (template % tuple(ints.tolist())
                % tuple(_float_texts(floats[_FLOAT_FIELDS[self.kinds]])))

    def save(self, path: str) -> None:
        """Write the sequence file: the bytes json.dump(obj, f, indent=1)
        writes for its JSON object obj, keys in the order method, dims,
        error_bound, steps and trotter_m (absent when None), with the
        slice's steps listed repeat times.

        The slice is formatted once (_slice_text): its steps' templates
        are joined into one string and filled from the columns by one %
        with every index field, then one % with every float's repr, taken
        once per distinct magnitude (_float_texts), as the json module
        writes floats.  A repeated slice is written as chunks of about
        _SAVE_CHUNK characters, each holding whole copies of it.
        """
        head = {"method": self.method, "dims": list(self.dims),
                "error_bound": self.error_bound, "steps": []}
        if self.trotter_m is not None:
            head["trotter_m"] = self.trotter_m
        text = json.dumps(head, indent=1)
        with open(path, "w") as f:
            if not len(self):
                f.write(text)
                return
            head, tail = text.split('\n "steps": []', 1)
            one = self._slice_text()
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
        number, a `trotter_m` that is neither absent, null nor a positive
        integer (a bool is neither), or a `method` not in METHODS raises
        DomainError.  A loaded sequence has repeat 1.
        """
        obj = load_json_object(obj, "a gate sequence")
        dims = obj["dims"]
        if not (isinstance(dims, (list, tuple)) and len(dims) == 2
                and all(type(d) is int and d > 0 for d in dims)):
            raise FormatError(f"'dims' must be two positive integers, got {dims!r}")
        dims = tuple(dims)
        bound = obj.get("error_bound", 0.0)
        try:
            error_bound = json_float(bound)
        except (TypeError, OverflowError):
            error_bound = math.nan
        if type(bound) is bool or not 0.0 <= error_bound < math.inf:
            raise DomainError(f"'error_bound' {bound!r} is not a finite non-negative number")
        trotter_m = obj.get("trotter_m")
        if trotter_m is not None and not (type(trotter_m) is int and trotter_m > 0):
            raise DomainError(f"'trotter_m' {trotter_m!r} is not a positive integer")
        method = obj["method"]
        if method not in METHODS:
            raise DomainError(f"'method' {method!r} is not one of {', '.join(METHODS)}")
        return cls(*_read_steps(obj["steps"], dims), method=method, dims=dims,
                   error_bound=error_bound, trotter_m=trotter_m)


def _has_len(value, n: int) -> bool:
    """Whether a JSON value unpacks into n items (a list, string or
    object of length n)."""
    try:
        return len(value) == n
    except TypeError:
        return False


def _raise_first_fault(items: list, dims: tuple[int, int]) -> None:
    """Raise the error of a step list the loader's array checks flag: the
    FormatError of the first step with a structural fault, else the error
    of the first step GateStep.from_json(step).local(dims) rejects,
    prefixed `step <i>:`.

    A structural fault is a step that is not an object or lacks a key,
    `indices` that are not a list of [s, c] pairs, or a givens `u2` that
    is not four [re, im] pairs.  The array checks flag only steps this
    scan rejects.
    """
    for i, step in enumerate(items):
        try:
            kind, idx = step["kind"], step["indices"]
            value = step["u2"] if kind == "givens" else step["param"]
        except KeyError as e:
            raise FormatError(f"step {i}: missing key {e}") from None
        except TypeError:
            raise FormatError(f"step {i}: not a JSON object") from None
        if not (isinstance(idx, (list, tuple)) and all(
                _has_len(p, 2) if len(idx) in (1, 2) else isinstance(p, (list, tuple)) and len(p) == 2
                for p in idx)):
            raise FormatError(f"step {i}: 'indices' must be a list of [s, c] pairs")
        if kind == "givens" and not (_has_len(value, 4) and all(_has_len(e, 2) for e in value)):
            raise FormatError(f"step {i}: 'u2' must be four [re, im] pairs")
    for i, step in enumerate(items):
        try:
            GateStep.from_json(step).local(dims)
        except (DomainError, ShapeError) as e:
            raise type(e)(f"step {i}: {e}") from None


def _read_steps(items, dims: tuple[int, int]):
    """(kinds, flats, blocks, params) of a JSON step list.

    Each field is read for all steps by one comprehension and flattened
    to one flat list, and each flat list becomes one array: the kind
    codes, the `param`s and the `u2` entries (errors.json_reals), and the
    (s, c) entries of each step's first and last index pair.  GateStep's
    checks then run over all steps at once: known kind, index count per
    kind, integer in-range indices, distinct levels, finite params and
    _givens_defect <= 1e-12 (which also needs finite u2 entries), the
    same expression GateStep evaluates on its one block.  These
    only decide whether the list is clean; a conversion that fails or a
    flagged value hands the list to _raise_first_fault, the one judge of
    its errors.
    """
    if not isinstance(items, list):
        raise FormatError("'steps' must be a list")
    chain = itertools.chain.from_iterable
    try:
        codes = [KIND_CODE.get(step["kind"], -1) for step in items]
        indices = [step["indices"] for step in items]
        params = json_reals([0.0 if code == _GIVENS else step["param"]
                             for step, code in zip(items, codes)], "param")
        u2s = [step["u2"] for step, code in zip(items, codes) if code == _GIVENS]
        entries = list(chain(u2s))
        u2 = json_reals(list(chain(entries)), "u2")
        pairs = [pair for idx in indices for pair in (idx[0], idx[-1])]  # a phase's pair twice
        joint = np.array(list(chain(pairs)))
        clean = (list(map(len, indices)) == [1 if code == _P else 2 for code in codes]
                 and set(map(len, pairs)) <= {2} and set(map(len, u2s)) <= {4}
                 and set(map(len, entries)) <= {2} and params.ndim == u2.ndim == 1
                 and (joint.ndim == 1 and joint.dtype.kind in "bi" or not items))
    except (KeyError, IndexError, TypeError, ValueError):  # FormatError, DomainError included
        clean = False
    if clean:
        kinds = np.array(codes, dtype=np.int8)
        givens, phase = kinds == _GIVENS, kinds == _P
        s, c = np.moveaxis(joint.astype(np.intp).reshape(-1, 2, 2), 2, 0)
        flats = s * dims[1] + c
        blocks = np.zeros((len(items), 2, 2), dtype=complex)
        blocks[givens] = u2.view(complex).reshape(-1, 2, 2)
        clean = ((kinds >= 0).all() and np.isfinite(params).all()
                 and (_givens_defect(blocks[givens]) <= _UNITARY_TOL).all()
                 and ((0 <= s) & (s < dims[0]) & (0 <= c) & (c < dims[1])).all()
                 and (phase | (flats[:, 0] != flats[:, 1])).all())
    if not clean:
        _raise_first_fault(items, dims)
    return kinds, flats, blocks, np.where(givens, math.nan, params)


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


def apply_layers(layers: list[tuple], x: np.ndarray) -> None:
    """x <- U x in place for the slice U given by its layers (layer_views),
    x an n-row complex array."""
    for pairs, blocks, levels, phases in layers:
        if len(pairs):
            x[pairs] = blocks @ x[pairs]
        if len(levels):
            x[levels] *= phases[:, None]
