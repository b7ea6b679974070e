"""The observatory core: one gauge sampler under every monitor.

A :class:`GaugeSampler` observes one simulated run.  It owns the one-shot
attach/finalize shell (tracer subscribe and unsubscribe), the lazy
cadence (a sample is taken when an observed event moves the clock past
the next boundary, so a monitor never schedules simulator events and
cannot perturb the run's drain order), one :class:`RingBuffer` per
(site, gauge) mirrored into an optional metrics registry, and structured
violations.  A subclass names its gauge family and violation vocabulary
in class attributes and implements :meth:`~GaugeSampler._measure`; see
DESIGN.md, "Observatory core".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import InvariantViolationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import EXPORTED_KINDS, TraceEvent, Tracer


@dataclass(frozen=True)
class SamplerConfig:
    """The knobs every monitor shares.

    Attributes:
        cadence: simulated seconds between samples (> 0).
        ring_capacity: samples kept per (site, gauge) series.
        strict: raise :class:`~repro.errors.InvariantViolationError` on
            the first violation instead of counting it.
    """

    cadence: float = 0.25
    ring_capacity: int = 1024
    strict: bool = False

    def __post_init__(self) -> None:
        if self.cadence <= 0:
            raise ValueError(f"cadence must be > 0, got {self.cadence}")
        if self.ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, "
                             f"got {self.ring_capacity}")


class RingBuffer:
    """A fixed-capacity append-only series; oldest entries fall off."""

    __slots__ = ("capacity", "_items", "dropped")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, time: float, value: float) -> None:
        """Push one ``(time, value)`` sample, evicting the oldest if full."""
        if len(self._items) == self.capacity:
            self.dropped += 1
        self._items.append((time, value))

    def items(self) -> List[Tuple[float, float]]:
        """``(time, value)`` pairs, oldest first."""
        return list(self._items)

    def values(self) -> List[float]:
        """The sample values alone, oldest first."""
        return [value for _, value in self._items]

    def latest(self) -> Optional[float]:
        """The most recent sample value (None when empty)."""
        return self._items[-1][1] if self._items else None

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class InvariantViolation:
    """Structured evidence of one failed inline check."""

    check: str
    message: str
    time: Optional[float] = None
    fields: Dict[str, Any] = field(default_factory=dict)


def per_region(topology: Any, values: Dict[str, Optional[float]],
               rollup: Callable[[List[float]], Dict[str, Any]]
               ) -> Dict[str, Any]:
    """Roll per-site ``values`` up per region of ``topology``."""
    return {region.name: {"sites": region.sites, **rollup(
                [values[site] for site in topology.region_sites(region.name)
                 if values.get(site) is not None])}
            for region in topology.regions}


class GaugeSampler:
    """Per-site gauges sampled on clock movement, plus violations.

    Subclasses set the class attributes below and implement
    :meth:`_measure`; they may extend :meth:`_on_attach`,
    :meth:`_on_finalize` and :meth:`_on_trace_event`.
    """

    #: The per-site gauges every sample records, in report order.
    GAUGES: Tuple[str, ...] = ()
    #: Metric and export prefix: ``<family>.<site>.<gauge>`` gauges.
    FAMILY = ""
    #: Export help text of one gauge of the family.
    GAUGE_HELP = ""
    #: A violation's trace kind, counter name, and the word naming it in
    #: messages ("invariant" in "invariant 'accounting' violated").
    VIOLATION_KIND = ""
    VIOLATION_METRIC = ""
    VIOLATION_LABEL = ""

    def __init__(self, config: SamplerConfig, *,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        self.metrics = metrics
        #: The private tracer; a run constructed without a tracer adopts
        #: it so events exist to observe.  It delivers every event to
        #: subscribers but keeps only the kinds the exports read; pass
        #: the run a full :class:`Tracer` to record everything.
        self.tracer = Tracer(keep=EXPORTED_KINDS)
        self.violations: List[InvariantViolation] = []
        self.samples = 0
        self.sites: List[str] = []
        self._target: Any = None
        self._series: Dict[str, Dict[str, RingBuffer]] = {}
        self._next_sample: Optional[float] = None
        self._subscribed: Optional[Tracer] = None
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------

    def attach(self, target: Any) -> None:
        """Bind to the run starting up: subscribe, take the t=0 sample."""
        if self._target is not None:
            raise InvariantViolationError(
                f"{type(self).__name__} instances are one-shot; attach a "
                f"fresh one per run")
        self._target = target
        self.sites = list(target.sites)
        for site in self.sites:
            self._series[site] = {name: RingBuffer(self.config.ring_capacity)
                                  for name in self.GAUGES}
        self._on_attach()
        tracer = target.tracer
        if tracer is not None:
            tracer.subscribe(self._on_trace_event)
            self._subscribed = tracer
        self._next_sample = self.config.cadence
        self._sample(0.0)

    def finalize(self) -> None:
        """Take the final sample, run end-of-run checks, unsubscribe."""
        if self._target is None or self._finalized:
            return
        self._finalized = True
        now = self._now()
        self._sample(now)
        self._on_finalize(now)
        if self._subscribed is not None:
            self._subscribed.unsubscribe(self._on_trace_event)
            self._subscribed = None

    def _on_attach(self) -> None:
        """Set up per-site state before the first sample."""

    def _on_finalize(self, now: float) -> None:
        """Run end-of-run checks after the final sample."""

    def _on_trace_event(self, event: TraceEvent) -> None:
        if event.time is not None and event.kind != self.VIOLATION_KIND:
            self._maybe_sample(event.time)

    # -- sampling ----------------------------------------------------------------

    def _now(self) -> float:
        sim = getattr(self._target, "sim", None)
        return sim.now if sim is not None else 0.0

    def _maybe_sample(self, now: float) -> None:
        if self._next_sample is None or now < self._next_sample:
            return
        self._sample(now)
        cadence = self.config.cadence
        # Skip boundaries the clock already jumped over: the next sample
        # is due one cadence past *now*, not past the missed boundary.
        periods = int((now - self._next_sample) / cadence) + 1
        self._next_sample += periods * cadence

    def _measure(self, now: float) -> Iterator[Tuple[str, Tuple[float, ...]]]:
        """Yield ``(site, values)`` for every site, values in GAUGES order."""
        raise NotImplementedError

    def _sample(self, now: float) -> None:
        """Record one sample of every gauge for every site at ``now``."""
        metrics = self.metrics
        for site, values in self._measure(now):
            series = self._series[site]
            for name, value in zip(self.GAUGES, values):
                series[name].append(now, value)
                if metrics is not None:
                    metrics.gauge(f"{self.FAMILY}.{site}.{name}").set(value)
        self.samples += 1
        if metrics is not None:
            metrics.counter(f"{self.FAMILY}.samples").inc()

    # -- violations --------------------------------------------------------------

    def _violate(self, check: str, now: float, message: str,
                 **fields: Any) -> None:
        self.violations.append(InvariantViolation(
            check=check, message=message, time=now, fields=dict(fields)))
        tracer = self._target.tracer if self._target is not None else None
        if tracer is None:
            tracer = self.tracer
        tracer.event(self.VIOLATION_KIND, time=now, check=check,
                     message=message, **fields)
        if self.metrics is not None:
            self.metrics.counter(self.VIOLATION_METRIC).inc()
            self.metrics.counter(f"{self.VIOLATION_METRIC}.{check}").inc()
        if self.config.strict:
            raise InvariantViolationError(
                f"{self.VIOLATION_LABEL} {check!r} violated at t={now:.6f}: "
                f"{message}")

    # -- read API ----------------------------------------------------------------

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def series(self, site: str, name: str) -> List[Tuple[float, float]]:
        """One site's ``(time, value)`` series for gauge ``name``."""
        return self._series[site][name].items()

    def latest(self, site: str, name: str) -> Optional[float]:
        """The most recent sample of one site's gauge (None before any)."""
        return self._series[site][name].latest()
