"""Host-speed calibration for a shared, noisy host.

On a 2-core VM shared with other tenants the same ops ran up to 50%
slower for minutes at a time, and process CPU time slowed with wall time.
A fixed kernel, independent of thermoforge and shaped like its work
(small frozen dataclasses, 4x4 `eigh`, fancy-indexed writes, small
matmuls, JSON round trips), is timed before every op.  Time metrics are
scaled by REFERENCE_S / (median kernel time of the run), i.e. reported in
seconds of a host on which the kernel takes REFERENCE_S.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.009  # about the kernel's median time on a quiet 2-core x86-64 VM


@dataclass(frozen=True)
class _Item:
    kind: str
    pair: tuple[int, int]
    param: float

    def __post_init__(self):
        if len(self.pair) != 2:
            raise ValueError("pair needs two indices")


_H4 = (lambda a: a + a.T)(np.random.default_rng(0).standard_normal((4, 4)))
_M24 = np.random.default_rng(1).standard_normal((24, 24))
_DOC = {"steps": [{"kind": "h", "indices": [[i, 0], [i, 1]], "param": 0.1 * i}
                  for i in range(150)]}


def _body() -> float:
    items = [_Item("h", (i, i + 1), 0.5 * i) for i in range(300)]
    acc = 0.0
    for item in items[:60]:
        _, v = np.linalg.eigh(_H4 * item.param)
        u = np.eye(4, dtype=complex)
        u[np.ix_([0, 1], [0, 1])] = v[:2, :2]
        acc += float(np.abs(u @ u).sum())
    for _ in range(4):
        acc += float((_M24 @ _M24)[0, 0])
    return acc + len(json.loads(json.dumps(_DOC))["steps"])


def kernel_seconds(reps: int = 4) -> float:
    """Wall time of `reps` runs of the fixed kernel."""
    start = time.perf_counter()
    for _ in range(reps):
        _body()
    return time.perf_counter() - start
