"""Measurement helpers shared by the workloads: order statistics, peak
RSS, output digests and the environment record.

Stdlib only: ``run.py`` imports this module at top level, and worker
processes re-import ``run.py``, so nothing here may be slow to import.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import platform
import re
import subprocess

#: a tail percentile needs at least this many ops beyond it
TAIL_BEYOND = 10

#: pairs pickled per digest slice (bounds the digest's own memory)
_DIGEST_SLICE = 65536


class Tally:
    """Ops attempted and failed, with the first few reasons, plus checks
    that concern the whole run rather than one op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.problems: list[str] = []

    def op(self, problems: list[str]) -> bool:
        """Count one op, failed if ``problems`` is not empty; True if it passed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons += problems[: max(0, 5 - len(self.reasons))]
        return not problems

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """``(percentile, value, n_beyond)`` for the highest percentile with
    at least :data:`TAIL_BEYOND` ops beyond it, or ``None`` when a run
    holds too few ops for that percentile to lie above the median."""
    n = len(values)
    index = n - TAIL_BEYOND - 1
    if index <= (n - 1) / 2:
        return None
    return 100.0 * (index + 1) / n, sorted(values)[index], TAIL_BEYOND


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux ≥ 4.0).

    Where the reset is not available the mark keeps covering the whole
    process lifetime, which only ever reads higher.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mib() -> float:
    """Peak resident set of this process in MiB.

    ``/proc/self/status`` ``VmHWM`` belongs to the current address space,
    so it starts fresh at ``exec``; ``ru_maxrss`` would inherit the
    high-water mark of whichever process launched this one.
    """
    try:
        with open("/proc/self/status") as f:
            match = re.search(r"^VmHWM:\s+(\d+)\s+kB", f.read(), re.M)
        if match:
            return int(match.group(1)) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def output_digest(pairs: list) -> str:
    """SHA-256 over an ordered ``(key, count)`` list, pickled in slices.

    Equal digests mean equal content *and* order.  Slicing keeps the
    pickled bytes small, so checking a 1M-key result does not raise the
    driver's peak RSS by the size of its serialization.
    """
    h = hashlib.sha256()
    for i in range(0, len(pairs), _DIGEST_SLICE):
        h.update(pickle.dumps(pairs[i : i + _DIGEST_SLICE], protocol=5))
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    """The commit checked out at ``root``, or ``None`` when ``root`` is not
    the top of a git work tree (a parent directory's repository does not
    count)."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def stop_helper_processes() -> None:
    """Stop and reap the forkserver and resource-tracker processes that
    ``multiprocessing`` starts on first use and would otherwise leave to
    exit after this process does.  Both stop methods are private, so a
    Python without them keeps the default behaviour."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def environment(root: str, seed: int) -> dict:
    """What a later reader needs to tell results from different boxes
    apart; workloads add their start method, transport and input shape."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "seed": seed,
    }
