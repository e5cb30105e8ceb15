"""Self-test of the benchmark's bookkeeping.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Shows that a corrupted output
is counted as a failed op: one compile_run round with one altered gate
in a saved sequence, and one cooling_sweep round with one wrong row in
the report.  Also checks that BENCHMARK.json lists exactly the metrics
and workloads the benchmark prints.  Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from thermoforge.cli import main as cli_main  # noqa: E402


def corrupting_call(corrupt):
    """A CLI call that lets `corrupt(argv, stdout) -> stdout` alter one output."""
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        sys.stdout.write(corrupt(argv, buf.getvalue()))
        return code
    return call


def alter_one_gate(state):
    def corrupt(argv, text):
        if argv[0] == "compile" and not state["done"]:
            path = Path(argv[argv.index("--out") + 1])
            seq = json.loads(path.read_text())
            step = next(s for s in seq["steps"] if s["kind"] == "givens")
            step["u2"] = step["u2"][2:] + step["u2"][:2]  # swap the rows
            path.write_text(json.dumps(seq))
            state["done"] = True
        return text
    return corrupt


def wrong_cooling_row(state):
    def corrupt(argv, text):
        if argv[0] == "cool" and not state["done"]:
            report = json.loads(text)
            report["outputs"]["rows"][3]["ground"] += 1e-9
            text = json.dumps(report)
            state["done"] = True
        return text
    return corrupt


def failed_ratio(workload, make_corrupt, workdir: Path) -> tuple[int, int]:
    state = {"done": False}
    loop = run.Loop(workload, 0, workdir, corrupting_call(make_corrupt(state)))
    loop.run_round()
    if not state["done"]:
        raise RuntimeError(f"{workload.name}: no output was corrupted")
    for reason in loop.failures:
        print(f"  counted as failed: {reason}")
    return len(loop.failures), len(loop.times)


def main() -> int:
    problems = []
    (run.BENCH_DIR / ".tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR / ".tmp") as tmp:
        for name, corrupt in (("compile_run", alter_one_gate),
                              ("cooling_sweep", wrong_cooling_row)):
            d = Path(tmp) / name
            d.mkdir()
            failed, attempted = failed_ratio(workloads.WORKLOADS[name], corrupt, d)
            print(f"{name}: failed_op_ratio {failed}/{attempted}")
            if failed != 1:
                problems.append(f"{name}: {failed} ops counted as failed, expected 1")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if spec["per_layer"] != tracing.metric_specs():
        problems.append("BENCHMARK.json per_layer differs from tracing.metric_specs()")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"] for m in spec["end_to_end"]} != set(run.E2E_UNITS):
        problems.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
