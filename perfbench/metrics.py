"""Summary statistics and failure accounting for the benchmark.

Pure functions with no Spark dependency, so the self-tests in
``test_perfbench.py`` can check them in isolation.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

TAIL_BEYOND = 10  # a tail percentile must have at least this many ops above it


@dataclass(frozen=True)
class Tail:
    """The tail latency: its value, its percentile and how many ops lie beyond it."""

    value: float
    percentile: float
    n_ops: int
    beyond: int


def tail(values: list[float]) -> Tail:
    """Highest percentile with at least ``TAIL_BEYOND`` ops beyond it.

    With the ops sorted, index ``j`` is percentile ``100*j/(N-1)`` and has
    ``N-1-j`` ops beyond it, so the answer is index ``N-1-TAIL_BEYOND``.
    A run with fewer than ``2*TAIL_BEYOND + 1`` ops has no such percentile
    at or above the median; the median is reported instead, and ``beyond``
    says how many ops actually lie above it.
    """
    if not values:
        raise ValueError("no ops to summarise")
    xs = sorted(values)
    n = len(xs)
    j = n - 1 - TAIL_BEYOND
    if j < (n - 1) / 2:
        med = statistics.median(xs)
        return Tail(med, 50.0, n, sum(x > med for x in xs))
    return Tail(xs[j], 100.0 * j / (n - 1), n, n - 1 - j)


@dataclass
class Tally:
    """Ops attempted and ops failed, with every failure reason kept.

    An op fails when it raised or when any correctness gate rejected its
    output; one op with several failed gates counts once.
    """

    attempted: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)

    def record(self, op: str, reasons: list[str]) -> None:
        """Count op ``op`` as attempted, and as failed if ``reasons`` is non-empty."""
        self.attempted += 1
        if reasons:
            self.failures.setdefault(op, []).extend(reasons)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
