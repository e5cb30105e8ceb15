"""Closed-loop benchmark of the thermoforge CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in one process calls
`thermoforge.cli.main(argv)` with stdout captured; each op starts only
after the previous one returned.  Every op is checked against the
references in reference.py outside the timed region.  The last stdout
line is one JSON object: end-to-end metrics with --trace 0, with times
scaled to a reference host speed (hostspeed.py), or per-layer metrics
(tracing.py) with --trace 1.  The line before it records the
environment, op counts, failures and the unscaled times.
"""
from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# Pin BLAS threads before numpy loads: `cool` already runs a 2-thread pool,
# and multi-threaded OpenBLAS stalls small dense ops on 2 cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("THERMOFORGE_SEED", None)  # would override verify's --seed

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import zlib
from importlib import metadata
from pathlib import Path

import numpy as np

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MIN_OPS = 100     # p90 then has >= 10 samples beyond it
WALL_CAP = 1.4    # ...unless the loop's wall time passes WALL_CAP * --seconds
SETUP_PROBES = 3
TRACE_MIN_OPS = 20


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def seed_rng(seed: int, workload: str, stream: int):
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), stream])


def run_op(op, call) -> tuple[float, list, str | None]:
    """Time one op; returns (seconds, [(exit code, stdout)], error)."""
    outs, error = [], None
    start = time.perf_counter()
    try:
        for argv in op.calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(argv)
            outs.append((code, out.getvalue()))
            if code != 0:
                break
    except SystemExit as e:  # argparse rejects its argv
        error = f"exit {e.code}"
    except Exception as e:
        error = f"{type(e).__name__}: {e}"
    return time.perf_counter() - start, outs, error


class Loop:
    """Runs rounds of ops; records each op's time and failure."""

    def __init__(self, workload, seed: int, workdir: Path, call):
        self.workload, self.workdir, self.call = workload, workdir, call
        self.rng = seed_rng(seed, workload.name, 1)
        self.times: list[float] = []
        self.kernel_times: list[float] = []  # host-speed kernel, before each op
        self.failures: list[str] = []
        self.rounds = 0

    def run_round(self, stop=None, on_op=None) -> None:
        """One round of ops; `stop()` is asked before each op."""
        d = self.workdir / f"round{self.rounds}"
        d.mkdir()
        for op in self.workload.round_ops(self.rng, d):
            if stop is not None and stop():
                break
            if on_op is not None:
                on_op(len(self.times))
            self.kernel_times.append(hostspeed.kernel_seconds())
            dt, outs, error = run_op(op, self.call)
            self.times.append(dt)
            try:
                reason = error or op.check(outs)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
                reason = f"malformed output: {type(e).__name__}: {e}"
            if reason:
                self.failures.append(f"op {len(self.times) - 1} ({op.kind}): {reason}")
        shutil.rmtree(d)
        self.rounds += 1

    def run_for(self, seconds: float, min_ops: int) -> None:
        """Whole rounds until the summed op time reaches `seconds` and
        `min_ops` ops ran; the wall-time cap may cut a round short."""
        deadline = time.perf_counter() + WALL_CAP * seconds

        def capped():
            return len(self.times) > 1 and time.perf_counter() >= deadline
        while (sum(self.times) < seconds or len(self.times) < min_ops) and not capped():
            self.run_round(stop=capped)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def probe_setup(args) -> list[float]:
    """Seconds from process start to ready-for-the-first-op, per fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(ready)
    return times


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "thermoforge").glob("*.py")):
        src.update(f.name.encode() + f.read_bytes())
    return {
        "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"), "blas": openblas,
        "blas_threads": int(BLAS_THREADS), "git_sha": _git_sha(),
        "src_sha256": src.hexdigest()[:16], "seed": seed,
    }


E2E_UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s",
             "setup_s": "s", "peak_rss_mib": "MiB"}


def end_to_end(loop: Loop, setup: list[float]) -> tuple[dict, dict]:
    """Metrics with times scaled to the reference host speed, and the
    same times as measured."""
    times = loop.times
    completed = len(times) - len(loop.failures)
    wall = {
        "ops_per_s": completed / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": percentile(times, 90),
        "setup_s": statistics.median(setup),
    }
    scale = hostspeed.REFERENCE_S / statistics.median(loop.kernel_times)
    values = {name: v / scale if name == "ops_per_s" else v * scale for name, v in wall.items()}
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return metrics, {"wall": wall, "host_speed_scale": scale}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "thermoforge" / "cli.py").is_file():
        print(f"perfbench: no thermoforge sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    from thermoforge.cli import main as cli_main

    (BENCH_DIR / ".tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".tmp") as tmp:
        workdir = Path(tmp)
        warm = workdir / "warmup"
        warm.mkdir()
        # The warm-up instance does not depend on --seed, so set-up times
        # of runs with different seeds are comparable.
        for op in workload.warmup_ops(seed_rng(0, workload.name, 0), warm):
            run_op(op, cli_main)
        main_setup = time.perf_counter() - T_START
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        if args.trace:
            return traced_run(args, workload, workdir, cli_main, main_setup)
        setup = probe_setup(args)
        loop = Loop(workload, args.seed, workdir, cli_main)
        loop.run_for(args.seconds, MIN_OPS)
        metrics, measured = end_to_end(loop, setup)
    return emit(args, loop, metrics,
                {"setup_probes_s": setup, "main_setup_s": main_setup, **measured})


def traced_run(args, workload, workdir: Path, cli_main, main_setup: float) -> int:
    """Untraced ops for half the time, then the same ops traced."""
    import tracing
    plain = Loop(workload, args.seed, workdir, cli_main)
    plain.run_for(args.seconds / 2, TRACE_MIN_OPS)
    tracer = tracing.Tracer()
    traced = Loop(workload, args.seed, workdir, lambda argv: tracer.call_root(cli_main, argv))
    tracer.install()
    try:
        def begin(op_index):
            tracer.op = op_index

        def done():
            return len(traced.times) >= len(plain.times)
        while not done():
            traced.run_round(stop=done, on_op=begin)
    finally:
        tracer.uninstall()
    ratio = statistics.median(traced.times) / statistics.median(plain.times)
    values, shares = tracing.layer_metrics(tracer, len(traced.times), sum(traced.times), ratio)
    units = {s["name"]: s["unit"] for s in tracing.metric_specs()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    out_dir = BENCH_DIR / ".out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_file)
    def top(d, n):
        return {k: round(v, 4) for k, v in sorted(d.items(), key=lambda kv: -kv[1])[:n]}
    extra = {"main_setup_s": main_setup, "untraced_ops": len(plain.times),
             "layer_self_share": top(shares["layers"], len(shares["layers"])),
             "top_function_self_share": top(shares["functions"], 8),
             "spans_file": str(spans_file.relative_to(ROOT))}
    plain.times += traced.times
    plain.failures += traced.failures
    return emit(args, plain, metrics, extra)


def emit(args, loop: Loop, metrics: dict, extra: dict) -> int:
    attempted, failed = len(loop.times), len(loop.failures)
    for reason in loop.failures[:20]:
        print(f"perfbench: failed {reason}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "trace": args.trace, "env": environment(args.seed),
        "ops": attempted, "rounds": loop.rounds, "timed_s": sum(loop.times),
        "failed_op_ratio": failed / attempted, **extra,
    }))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
