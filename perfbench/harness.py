"""Measurement plumbing shared by every workload.

Nothing here imports the measured package at module level: the
environment pin (:func:`pinned_environment_violations`) must run before
``repro`` reads its environment switches at import time.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: the repository root (this file lives in ``<root>/perfbench``)
ROOT = Path(__file__).resolve().parent.parent

#: environment switches that change what the package executes; a run
#: refuses to start while any of them is present, so an exported knob can
#: never silently change the measured program
PINNED_ENV = ("REPRO_KERNEL", "REPRO_METRICS", "REPRO_DEBUG_INVARIANTS")

clock = time.perf_counter


class CorrectnessError(Exception):
    """A program output disagreed with its reference; no numbers reported."""


def pinned_environment_violations() -> List[str]:
    """Names of pinned environment switches that are currently set."""
    return [name for name in PINNED_ENV if name in os.environ]


def check_program_defaults() -> Dict[str, Any]:
    """Verify the imported package runs its defaults; return them."""
    from repro.common import invariants
    from repro.core.kernel import resolve_kernel
    from repro.observability import metrics

    if metrics.ENABLED or invariants.ENABLED:
        raise RuntimeError(
            "metrics or debug invariants are enabled; the benchmark "
            "measures the package default (both off)"
        )
    return {"kernel": resolve_kernel(None), "metrics": False, "invariants": False}


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / mid) if mid else 0.0


def quiet_decile(values: Sequence[float], higher_is_better: bool) -> float:
    """The first decile of a time, the ninth of a rate.

    The program's speed in the host's quiet phases: the host alternates
    between phases in which identical code runs at full speed and phases
    up to 1.5x slower, and how much of a run each takes changes from run
    to run, so a median over epochs follows that share while a low
    decile follows the program.
    """
    if len(values) < 2:
        return float(values[0])
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return float(deciles[-1] if higher_is_better else deciles[0])


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, n=100)."""
    return float(statistics.quantiles(values, n=100)[pct - 1])


# --------------------------------------------------------------------- #
# failure accounting
# --------------------------------------------------------------------- #
class Ops:
    """Attempted and failed operations of one run.

    Every ingest call, push, service query, in-process query/task and
    export counts as one operation; an operation fails when it raises
    (errors, exhausted retries, shed/refused responses and deadline
    expiries all surface as exceptions).  A partial decode is not a
    failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: Dict[str, int] = {}

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1


# --------------------------------------------------------------------- #
# host and process diagnostics
# --------------------------------------------------------------------- #
def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (host drift, not program speed)."""
    started = clock()
    total = 0
    for i in range(120_000):
        total += i * i % 7
    elapsed = clock() - started
    if total < 0:  # pragma: no cover - keeps the loop observable
        raise AssertionError
    return elapsed


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance(seed: int, extra: Dict[str, Any]) -> Dict[str, Any]:
    """What identifies a result: code, toolchain, host size and inputs."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit: Optional[str] = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
        commit = done.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": sys.platform,
        "seed": seed,
        **extra,
    }
