"""Host-speed probes: BLAS throughput and the reference chunk.

* :func:`measure`: fixed n = 61 ``dsyrk`` / ``dsymm`` throughput, run
  before and after each benchmark run at the workload's pattern width,
  so a reader can see how fast this host's BLAS was at the time.  It is
  recorded, never used to rescale a time: on a shared host its
  best-of-five rate swings without tracking the program's wall clock.
* :func:`reference_chunk`: a fixed chunk of likelihood-shaped work (a
  61-state eigendecomposition, a transition matrix, one propagation,
  and some interpreter work), timed on the CPU the program under test
  runs on while it is paused.  Its mean over an invocation tracks how
  fast this shared host was meanwhile; ``wall_norm_s`` divides by it
  (see ``run.py``).
* :func:`reference_spawn`: a fresh interpreter that imports the
  numerical libraries the program imports and exits: the fixed part of
  the program's set-up, timed just before each set-up sample;
  ``setup_s`` divides by it.

The nominal times are what the probes take on the host the benchmark
was tuned on (2 vCPUs of a shared x86-64 host, OpenBLAS on one thread);
the normalised metrics are seconds on a host that fast.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict

import numpy as np
from scipy.linalg.blas import dsymm, dsyrk

__all__ = [
    "measure", "median_of", "reference_chunk", "reference_spawn",
    "REF_NOMINAL_S", "SPAWN_NOMINAL_S",
]

N_STATES = 61
#: Nominal seconds of one :func:`reference_chunk`.
REF_NOMINAL_S = 0.1
#: Likelihood-shaped steps in one reference chunk.
REF_STEPS = 200
#: Nominal seconds of one :func:`reference_spawn`.
SPAWN_NOMINAL_S = 1.0
SPAWN_CODE = "import numpy, scipy, scipy.linalg, scipy.linalg.blas, scipy.optimize, scipy.stats"


def _rate(kernel, flops_per_call: float, min_seconds: float) -> float:
    """Best-of-five GF/s of ``kernel``, each trial lasting ``min_seconds``."""
    kernel()  # warm up
    rates = []
    for _ in range(5):
        calls, start = 0, time.perf_counter()
        while True:
            kernel()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds:
                break
        rates.append(calls * flops_per_call / elapsed / 1e9)
    return max(rates)


def measure(width: int, min_seconds: float = 0.02, seed: int = 0) -> Dict[str, float]:
    """``{"dsymm_gflops", "dsyrk_gflops"}`` at ``width`` right-hand columns."""
    rng = np.random.default_rng(seed)
    n = N_STATES
    y = np.asfortranarray(rng.standard_normal((n, n)))
    sym = np.asfortranarray(y @ y.T)
    clv = np.asfortranarray(rng.random((n, max(1, int(width)))))
    return {
        "dsymm_gflops": _rate(
            lambda: dsymm(1.0, sym, clv, side=0, lower=0), 2.0 * n * n * clv.shape[1], min_seconds
        ),
        "dsyrk_gflops": _rate(lambda: dsyrk(1.0, y), float(n * n * n), min_seconds),
    }


def reference_chunk(width: int = 230) -> float:
    """Seconds one fixed chunk of likelihood-shaped work takes now."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal((N_STATES, N_STATES))
    sym = y + y.T
    clv = rng.random((N_STATES, max(1, int(width))))
    eye = np.eye(N_STATES)
    acc = 0.0
    start = time.perf_counter()
    for step in range(REF_STEPS):
        w, v = np.linalg.eigh(sym + (step * 1e-6) * eye)
        prob = (v * np.exp(w * 1e-3)) @ v.T
        acc += float(np.log(np.abs(prob @ clv).sum()))
        for k in range(32):
            acc += k * 1e-9
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference chunk produced a non-finite value")
    return elapsed


def reference_spawn(timeout: float = 60.0) -> float:
    """Seconds a fresh interpreter takes to import the numerical stack and exit."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], check=True, timeout=timeout,
                   env=dict(os.environ), stdout=subprocess.DEVNULL)
    return time.monotonic() - start


def median_of(runs) -> Dict[str, float]:
    """Key-wise median of several :func:`measure` results."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}
