"""Per-layer tracing installed from outside the program.

`Tracer.install` wraps public functions of the thermoforge modules by
rebinding every `thermoforge.*` module attribute (and module-level dict
value) that holds the original object, because `cli`, `channels`,
`cooling` and `verify` import names directly.  Methods are rebound on
their class.  Spans are kept in memory, one stack per thread, and
written out when the run ends.  Nothing under src/ is modified.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

LAYERS = ("cli", "compiler", "channels", "cooling", "majorization",
          "generators", "thermal", "linalg", "verify")

SPANNED = {
    "compiler": ("compile_exact", "compile_trotter", "compile_nested", "compile_bch",
                 "reconstruct", "GateSequence.save", "GateSequence.from_json"),
    "channels": ("run_gc_eto", "classify_catalysis", "thermalize", "apply_TO"),
    "cooling": ("run_cooling", "run_cooling_dense", "build_cooling_sequence",
                "build_cooling_catalyst", "build_cooling_instance"),
    "majorization": ("max_ground_population_TO", "thermo_majorizes", "thermo_curve"),
    "generators": ("lie_closure", "enumerate_basis", "rank2_basis"),
    "thermal": ("Spectrum.from_energies", "Spectrum.from_json", "energy_blocks",
                "gibbs_state", "is_energy_preserving", "random_energy_preserving_unitary"),
    "linalg": ("kron", "partial_trace", "trace_distance", "frobenius_distance"),
    "verify": ("suite_numerics", "suite_generators", "suite_compiler",
               "suite_channels", "suite_majorization", "suite_cooling"),
}

# Called too often for a span each: counted only.
COUNTED = {
    "compiler.GateStep.init": ("compiler", "GateStep.__post_init__"),
    "compiler.GateStep.matrix": ("compiler", "GateStep.matrix"),
    "linalg.expm_skew": ("linalg", "expm_skew"),
    "generators.ElementaryGenerator.matrix": ("generators", "ElementaryGenerator.matrix"),
}

# Work counts: (metric, better), each filled by a hook on one span below.
WORK = (("compiler.gates_emitted", "lower"), ("compiler.gates_applied", "lower"),
        ("channels.gates_applied", "lower"), ("cooling.catalyst_levels", "higher"),
        ("generators.closure_dim", "higher"))

ROOT = "cli.main"


def metric_specs() -> list[dict]:
    """Every per-layer metric a traced run prints, as listed in BENCHMARK.json."""
    specs = []
    for mod, names in SPANNED.items():
        for fn in names:
            specs.append({"name": f"{mod}.{fn}.calls", "unit": "count", "better": "lower"})
            specs.append({"name": f"{mod}.{fn}.self_s", "unit": "s", "better": "lower"})
    specs += [{"name": f"{mod}.self_s", "unit": "s", "better": "lower"} for mod in LAYERS]
    specs += [{"name": f"{key}.calls", "unit": "count", "better": "lower"} for key in COUNTED]
    specs += [{"name": name, "unit": "count", "better": better} for name, better in WORK]
    specs += [
        {"name": "compiler.reconstruct.us_per_gate", "unit": "us", "better": "lower"},
        {"name": "channels.run_gc_eto.us_per_gate", "unit": "us", "better": "lower"},
        {"name": "trace.overhead_ratio", "unit": "ratio", "better": "lower"},
        {"name": "trace.uncovered_share", "unit": "ratio", "better": "lower"},
    ]
    return specs


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int | None


class _ThreadState:
    def __init__(self):
        self.stack: list[tuple[int, str]] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _emitted(st, fn, args, kwargs, result):
    # compile_nested calls compile_trotter/compile_bch: count the outermost only.
    if not any(name.startswith("compiler.compile_") for _, name in st.stack):
        st.counts["compiler.gates_emitted"] += len(result.steps)


HOOKS = {
    "compiler.compile_exact": _emitted,
    "compiler.compile_trotter": _emitted,
    "compiler.compile_nested": _emitted,
    "compiler.compile_bch": _emitted,
    "compiler.reconstruct": lambda st, fn, a, k, r: st.counts.update(
        {"compiler.gates_applied": len(_bound(fn, a, k)["seq"].steps)}),
    "channels.run_gc_eto": lambda st, fn, a, k, r: st.counts.update(
        {"channels.gates_applied": len(_bound(fn, a, k)["seq"].steps)}),
    "cooling.build_cooling_catalyst": lambda st, fn, a, k, r: st.counts.update(
        {"cooling.catalyst_levels": r.dim}),
    "generators.lie_closure": lambda st, fn, a, k, r: st.counts.update(
        {"generators.closure_dim": int(r)}),
}


class Tracer:
    """Span and count recorder; `op` and `root` are set by the benchmark
    loop, which runs one op at a time on the main thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._undo: list = []
        self.op: int | None = None
        self.root: int | None = None

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            with self._lock:
                self._states.append(st)
            return st

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn):
        tracer, hook = self, HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1][0] if st.stack else tracer.root
            sid = next(tracer._ids)
            st.stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                st.stack.pop()
                st.spans.append(Span(sid, parent, name, start, end, tracer.op))
            if hook is not None:
                hook(st, fn, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._state().counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def call_root(self, fn, *args):
        """Run one CLI call as the root span of the current op."""
        st = self._state()
        sid = next(self._ids)
        self.root = sid
        st.stack.append((sid, ROOT))
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            st.stack.pop()
            st.spans.append(Span(sid, None, ROOT, start, end, self.op))
            self.root = None

    # ------------------------------------------------------------ install

    def _rebind(self, orig, new) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "thermoforge" or modname.startswith("thermoforge.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append(functools.partial(setattr, mod, attr, orig))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is orig:
                            val[key] = new
                            self._undo.append(functools.partial(val.__setitem__, key, orig))

    def _wrap(self, mod: str, qualname: str, make) -> None:
        module = importlib.import_module(f"thermoforge.{mod}")
        if "." not in qualname:
            orig = getattr(module, qualname)
            self._rebind(orig, make(orig))
            return
        clsname, attr = qualname.split(".")
        cls = getattr(module, clsname)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append(functools.partial(setattr, cls, attr, raw))

    def install(self) -> None:
        for mod, names in SPANNED.items():
            for qualname in names:
                name = f"{mod}.{qualname}"
                self._wrap(mod, qualname, lambda fn, name=name: self._span_wrapper(name, fn))
        for key, (mod, qualname) in COUNTED.items():
            self._wrap(mod, qualname, lambda fn, key=key: self._count_wrapper(key, fn))

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # ------------------------------------------------------------ results

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for st in self._states for s in st.spans]

    def counts(self) -> Counter:
        with self._lock:
            total = Counter()
            for st in self._states:
                total.update(st.counts)
            return total

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans():
                f.write(json.dumps(s._asdict()) + "\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans) -> list[tuple[str, float]]:
    """(name, self time) per span: duration minus what its children cover.
    Children on pool threads overlap, hence the union."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.name, (s.end - s.start) - _covered(s.start, s.end, children.get(s.id, ())))
            for s in spans]


def layer_metrics(tracer: Tracer, n_ops: int, traced_time: float,
                  overhead_ratio: float) -> tuple[dict, dict]:
    """Per-op averages of every per-layer metric, plus each layer's and
    each span's share of the summed self time."""
    calls, self_s = Counter(), defaultdict(float)
    for name, t in self_times(tracer.spans()):
        calls[name] += 1
        self_s[name] += t
    counts = tracer.counts()
    values = {}
    for mod, names in SPANNED.items():
        for fn in names:
            values[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"] / n_ops
            values[f"{mod}.{fn}.self_s"] = self_s[f"{mod}.{fn}"] / n_ops
    rollup = {mod: sum(t for name, t in self_s.items() if name.startswith(mod + "."))
              for mod in LAYERS}
    for mod in LAYERS:
        values[f"{mod}.self_s"] = rollup[mod] / n_ops
    for key in COUNTED:
        values[f"{key}.calls"] = counts[key] / n_ops
    for name, _ in WORK:
        values[name] = counts[name] / n_ops

    def us_per_gate(span, gates):
        return 1e6 * self_s[span] / counts[gates] if counts[gates] else 0.0

    values["compiler.reconstruct.us_per_gate"] = us_per_gate(
        "compiler.reconstruct", "compiler.gates_applied")
    values["channels.run_gc_eto.us_per_gate"] = us_per_gate(
        "channels.run_gc_eto", "channels.gates_applied")
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.uncovered_share"] = rollup["cli"] / traced_time
    # Shares of summed self time: pool threads overlap, so wall-time shares
    # could add up to more than one.
    total = sum(self_s.values())
    shares = {
        "layers": {mod: rollup[mod] / total for mod in LAYERS},
        "functions": {name: t / total for name, t in self_s.items()},
    }
    return values, shares
