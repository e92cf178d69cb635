"""Shared helpers of the benchmark: statistics, spans, memory, results.

Nothing here imports the program under test, so ``run.py`` can report a
missing source tree before any of it is loaded.
"""

from __future__ import annotations

import json
import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

#: Percentiles a tail may be reported at, lowest first.  The tail is the
#: highest of them with at least ``TAIL_MIN_BEYOND`` samples beyond it; p99.9
#: is left out so that a run-to-run change in the sample count cannot flip
#: the reported percentile near 10,000 samples.
TAIL_LADDER = (50.0, 90.0, 99.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; inf counts."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values) -> tuple[float, str]:
    """The tail statistic and its label, e.g. ``(0.042, "p99 of n=2210")``.

    The highest percentile of :data:`TAIL_LADDER` with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it.  With fewer than
    ``2 * TAIL_MIN_BEYOND`` samples no percentile qualifies and the maximum
    is reported instead, labelled ``p100``.
    """
    values = list(values)
    n = len(values)
    chosen = None
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_MIN_BEYOND:
            chosen = q
    if chosen is None:
        return (max(values) if values else 0.0), f"p100 of n={n}"
    return percentile(values, chosen), f"p{chosen:g} of n={n}"


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


#: Steps of the calibration kernel, and its typical time when sampled on
#: the machine the benchmark was defined on (a shared 2-vCPU Intel Xeon VM
#: at 2.0 GHz).  The nominal time only sets the scale of normalised times.
KERNEL_STEPS = 6000
KERNEL_NOMINAL_S = 0.0015
_KERNEL_DATA = list(range(512))


def _kernel() -> int:
    """Fixed pure-Python work: list indexing, integer ops, dict stores."""
    data = _KERNEL_DATA
    table = {}
    acc = 0
    for i in range(KERNEL_STEPS):
        j = (i * 7919) & 511
        acc = (acc + (data[j] ^ i)) & 0xFFFFF
        table[j] = acc
    return acc


class Speedometer:
    """Samples how fast the machine runs Python while the benchmark measures.

    On a shared machine the same code runs up to 1.6x slower for seconds at a
    time.  Every ``interval`` seconds of this process's CPU time a
    ``SIGVTALRM`` handler times :func:`_kernel`.  :meth:`slowdown` is the
    harmonic mean of the samples taken between two :meth:`mark` calls over
    :data:`KERNEL_NOMINAL_S`; the samples are evenly spaced in CPU time, so a
    measured time divided by it is the time at the nominal speed.  Each
    sample costs about 0.5% of the interval it interrupts.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """Slowdown over samples ``first:last``, or over all samples when
        that range holds none; 1.0 without any sample."""
        chosen = self.samples[first:last] or self.samples
        if not chosen:
            return 1.0
        return statistics.harmonic_mean(chosen) / KERNEL_NOMINAL_S


@dataclass
class Span:
    """One timed call: name, start, end, parent span and instance id."""

    name: str
    start: float
    end: float
    parent: int | None
    instance: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """In-memory span recorder, written out only when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def open(self, name: str, instance: str, parent: int | None = None,
             **attrs) -> int:
        """Start a span now; returns its index for :meth:`close`."""
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               instance, attrs))
        return len(self.spans) - 1

    def close(self, index: int, **attrs) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        return span

    def select(self, name: str, **match) -> list[Span]:
        """Spans called ``name`` whose attributes include ``match``."""
        return [s for s in self.spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent,
        instance and the span's attributes."""
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "instance": s.instance, **s.attrs})
                    + "\n")


class Outcome:
    """Correctness bookkeeping of one run: verdicts attempted and failed.

    A verdict fails when any of the problems found for it is non-empty;
    ``failures`` keeps one line per failed verdict for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def verdict(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
