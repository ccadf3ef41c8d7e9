"""Shared pieces of the benchmark: source lookup, the op record, seeded designs.

Importing this module pins BLAS/OpenMP to one thread (before numpy is
imported anywhere); `use_checkout_source` puts the checkout's `src` first
on `sys.path`, so the benchmark always measures the package of the tree
it sits in.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "buckettrees")
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")

# one round of each workload takes about this long on the seed code (2 CPUs)
ROUND_SECONDS = 15.0

WORKLOADS = ("grow", "exact", "replicate", "oracle")


class SourceMissing(RuntimeError):
    pass


def use_checkout_source() -> None:
    """Import `buckettrees` from this checkout's `src`, never from elsewhere."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise SourceMissing(f"no package source at {PACKAGE}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import buckettrees
    where = os.path.dirname(os.path.abspath(buckettrees.__file__))
    if where != PACKAGE:
        raise SourceMissing(f"buckettrees imported from {where}, not {PACKAGE}")


class GateFailure(AssertionError):
    """A correctness gate rejected an op's output."""


def need(cond: bool, message: str) -> None:
    if not cond:
        raise GateFailure(message)


@dataclass
class Op:
    """One timed operation of a workload.

    `run` makes the calls that are timed and returns an `Outcome`; `check`
    runs the correctness gate on it, untimed, and returns a p-value for
    stochastic gates (None for exact ones) or raises GateFailure.
    `prepare`, when given, builds exact references before any timing.
    A `known_defect` op is expected to fail today; it is kept out of the
    timed set and only counted in the failure ratio.
    """

    id: str
    layer: str
    run: Callable[[Any, dict], "Outcome"]
    check: Callable[["Outcome", Any], Optional[float]]
    prepare: Optional[Callable[[], Any]] = None
    known_defect: Optional[str] = None


@dataclass
class Outcome:
    """What an op produced: its result, work units and the time in its key calls."""

    value: Any
    work: int = 0            # workload unit: labels, atoms, replicate-steps, trees
    busy: float = 0.0        # seconds inside the calls the work unit is credited to
    pmfs: list = field(default_factory=list)   # exact pmfs to digest


def stream(seed: int, *key: int):
    """A numpy Generator for one design decision, independent per key."""
    import numpy as np
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def interleaved_sizes(rng, lo: float, hi: float, strata: int, slot: int, slots: int) -> list[int]:
    """Log-spaced sizes over [lo, hi]: one per stratum, in sub-slot `slot` of `slots`.

    Every stratum is split into `slots` equal sub-slots and each caller
    (family, op kind) owns one of them, with a seeded position in the middle
    half of it.  The sizes cover the range log-uniformly, yet the set of
    sizes, and so the work and the latency quantiles, vary little from seed
    to seed.
    """
    span = math.log(hi) - math.log(lo)
    out = []
    for i in range(strata):
        pos = (i + (slot + 0.25 + 0.5 * rng.random()) / slots) / strata
        out.append(max(1, int(round(math.exp(math.log(lo) + pos * span)))))
    return out


def pmf_digest(pmf) -> str:
    """A digest of an exact pmf: every atom as value:numerator/denominator."""
    parts = []
    for v in sorted(pmf.mass):
        p = Fraction(pmf.mass[v])
        parts.append(f"{v}:{p.numerator}/{p.denominator}")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:20]


def ops_digest(digests: dict) -> str:
    """One digest over every op's pmf digests, in op-id order."""
    text = "\n".join(f"{k}={digests[k]}" for k in sorted(digests))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


# Median time of one calibration kernel on a quiet host.  Shared 2-vCPU hosts
# swing by +-30% in speed over tens of seconds, so every timing is divided
# by the host's speed factor, measured with this kernel right around it.
CALIBRATION_NOMINAL_S = 0.8e-3
CALIBRATION_REPEATS = 5
_POLY = tuple(range(1, 12))


def _calibration_kernel() -> int:
    import mpmath
    acc, table = 0, {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i % 97] = acc
    big = 1
    for i in range(1, 200):
        big *= i
    frac = sum(Fraction(1, k) for k in range(1, 40))
    with mpmath.workdps(100):  # high-precision mpmath, as the spectral layer uses
        z = mpmath.mpc(0.3, 0.7)
        for _ in range(2):
            z -= mpmath.polyval(_POLY, z) / (mpmath.polyval(_POLY[:-1], z) + 1)
    return acc + len(table) + big % 7 + frac.numerator % 7 + int(abs(z) > 0)


def host_speed_factor() -> float:
    """How much slower than nominal the host runs right now (1.0 = nominal).

    The median of a few short runs of a fixed pure-Python kernel (integer,
    dict, Fraction and mpmath work, like the package's own), so one
    interrupt does not move it.
    """
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2] / CALIBRATION_NOMINAL_S


def rounds_for(seconds: float) -> int:
    return max(1, int(round(seconds / ROUND_SECONDS)))
