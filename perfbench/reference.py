"""A fixed reference kernel that measures how fast the machine is running.

The benchmark runs on shared machines whose speed changes by up to 2x,
as other tenants come and go: within a second, and in phases that last
minutes.  A phase moves every wall time of a run together, and the
library's times with it, so no amount of sampling inside one run
averages it away.  The run therefore times this kernel around every
timed operation, and scales every time it reports to a machine on which
the kernel takes :data:`REFERENCE_MS`.

The kernel uses no library code, so a change to the library cannot move
it.  It does what the engines' inner loops do: allocate small objects
with structural ``__eq__``/``__hash__``, build tuples of them, and hash
them into dicts and frozensets.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Kernel time, in ms, on the machine the reported times are scaled to.
REFERENCE_MS = 4.0
#: A kernel sample at most this old (s) brackets the next operation too.
REUSE_S = 0.05


class _Label:
    __slots__ = ("name", "_hash")

    def __init__(self, name: int):
        self.name = name
        self._hash = hash(("label", name))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Label) and self.name == other.name

    def __hash__(self) -> int:
        return self._hash


def kernel() -> int:
    rows = [(_Label(i % 211), _Label(i % 97), (_Label(i % 13), i % 7))
            for i in range(2000)]
    index: dict = {}
    for row in rows:
        index.setdefault(row[1], []).append(row)
    table = frozenset(rows)
    hits = 0
    for a, b, c in rows:
        hits += (a, b, c) in table
        hits += len(index.get(a, ()))
    return hits


class Speed:
    """Kernel timings taken over one run.

    :meth:`bracket` times the kernel right before and right after an
    operation, so the operation is scaled by the speed the machine had
    while it ran; the speed flips within a second, and a mean over the
    whole run would leave each sample with its own phase's noise.
    """

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self._last_at = float("-inf")

    def sample(self) -> float:
        """Time the kernel once; returns its time in ms."""
        # The collector would scan the library's heap, whose size a
        # change to the library may alter; the kernel must not see it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.samples_ms.append(elapsed * 1e3)
        self._last_at = time.perf_counter()
        return self.samples_ms[-1]

    def bracket(self, fn):
        """``fn()`` between two kernel samples.

        Returns ``(result, scale)``: ``scale`` turns a time measured
        inside ``fn`` into a reference time.  A sample taken within
        :data:`REUSE_S` before the call serves as its first sample.
        """
        if time.perf_counter() - self._last_at > REUSE_S:
            self.sample()
        before = self.samples_ms[-1]
        result = fn()
        after = self.sample()
        return result, 2 * REFERENCE_MS / (before + after)

    def mean_ms(self) -> float:
        return statistics.fmean(self.samples_ms)
