"""Outside-in layer profiler for the perfbench workloads.

The profiler never edits ``src/``: it replaces the public entry points of
each repro layer with timing wrappers for the length of a traced run and
puts the originals back afterwards.  Every wrapper pushes a frame on one
shared stack, so a layer's *self time* is its spans' wall time minus the
child spans nested inside them.  Garbage-collector pauses arrive through
``gc.callbacks`` and are pushed on the same stack as their own child span:
a pause is charged to ``runtime.gc`` and subtracted from whichever layer
happened to be allocating, instead of inflating it the way cProfile does.

The root span (the whole repetition) collects everything no wrapper
covers; its self time is reported as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.arrayvec import (ArrayBasicRotatingVector,
                                 ArrayConflictRotatingVector,
                                 ArraySkipRotatingVector)
from repro.net import cluster as net_cluster
from repro.net.sharding import ShardMap
from repro.net.simulator import Simulator
from repro.net.stats import DirectionStats, TransferStats
from repro.net.topology import TopologySpec
from repro.obs import metrics as obs_metrics
from repro.obs.consistency import ConsistencyMonitor
from repro.obs.metrics import Histogram
from repro.obs.trace import Tracer
from repro.protocols.registry import ProtocolSpec
from repro.store import cluster as store_cluster
from repro.store import kv as store_kv
from repro.store.kv import SiteStore
from repro.workload import clients as workload_clients
from repro.workload import epidemic as workload_epidemic

_clock = time.perf_counter

#: Vector classes whose methods count as the ``core`` layer.  Each gets
#: its own wrapper on the class itself, so a ``super()`` call inside an
#: override reaches the unwrapped parent and is not counted twice.
VECTOR_CLASSES = (ArrayBasicRotatingVector, ArrayConflictRotatingVector,
                  ArraySkipRotatingVector)
VECTOR_METHODS = ("copy", "restore", "compare", "record_update")

MONITOR_HOOKS = ("attach", "finalize", "on_client_op", "on_absorb",
                 "on_session_end", "audit_op", "summary")


def scheduled_events(sim: Simulator) -> int:
    """How many events ``sim`` has ever queued, read without side effects.

    The simulator numbers every queued event from one ``itertools.count``;
    its repr shows the next number, which equals the events queued so far.
    """
    text = repr(sim._sequence)  # "count(N)"
    return int(text[text.index("(") + 1:-1])


class LayerProfiler:
    """Wall-time spans and call counts at the repro layer boundaries.

    Use :meth:`install` before a traced repetition and :meth:`uninstall`
    after it; :meth:`root` wraps the repetition itself.  Self times, call
    counts and GC figures accumulate across repetitions until
    :meth:`reset`.
    """

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_collections: Counter = Counter()
        #: id(simulator) -> events it had queued when its run() returned.
        self.sim_events: Dict[int, int] = {}

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.gc_pause_s = 0.0
        self.gc_collections.clear()
        self.sim_events.clear()

    # -- spans ---------------------------------------------------------------

    def timed(self, layer: str, fn: Callable, key: str,
              after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` wrapped in a ``layer`` span, counted under ``key``.

        ``after``, if given, is called with ``fn``'s positional arguments
        when ``fn`` returns or raises, inside the span.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            # Allocate before reading the clock: an allocation can start
            # a GC pause, which must land before this span opens.
            frame = [0.0, 0.0]
            stack.append(frame)
            frame[0] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if after is not None:
                    after(*args)
                elapsed = _clock() - frame[0]
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def counted(self, fn: Callable, key: str) -> Callable:
        """``fn`` with a call counter and no span (for cheap hot calls)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span; its self time is unattributed."""
        return self.timed("unattributed", fn, "root")()

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._stack.append([_clock(), 0.0])
            return
        end = _clock()
        frame = self._stack.pop()
        elapsed = end - frame[0]
        self.gc_pause_s += elapsed
        self.gc_collections[info["generation"]] += 1
        if self._stack:
            self._stack[-1][1] += elapsed

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        own = name in vars(owner)
        self._patches.append((owner, name, getattr(owner, name), own))
        setattr(owner, name, replacement)

    def _wrap(self, owner: Any, name: str, layer: str, key: str) -> None:
        self._patch(owner, name, self.timed(layer, getattr(owner, name), key))

    def install(self, schedule_builders: Iterable[Tuple[Any, str]] = ()
                ) -> None:
        """Wrap every layer's entry points and start watching the GC.

        ``schedule_builders`` are extra ``(owner, name)`` schedule builders
        of the benchmark's own that count as the ``workload`` layer.
        """
        if self._patches:
            raise RuntimeError("profiler already installed")
        for module, name in ((workload_clients, "generate_client_ops"),
                             (workload_clients, "gossip_peers"),
                             (workload_epidemic, "epidemic_schedule"),
                             (workload_epidemic, "sharded_update_schedule"),
                             (workload_epidemic, "closing_sweep"),
                             *schedule_builders):
            self._wrap(module, name, "workload", f"workload.{name}")

        self._wrap(net_cluster, "launch_cluster", "net.topology",
                   "net.topology.launch_cluster")
        self._wrap(net_cluster.ClusterRunner, "__init__", "net.topology",
                   "net.topology.cluster_init")
        self._wrap(TopologySpec, "channel_for", "net.topology",
                   "net.topology.channel_for")
        self._wrap(ShardMap, "shared_objects", "net.topology",
                   "net.topology.shared_objects")

        # ``launch`` is imported by name into both cluster modules.
        for module in (net_cluster, store_cluster):
            self._wrap(module, "launch", "net.runner", "net.runner.launch")

        self._patch(ProtocolSpec, "build",
                    self._timed_build(ProtocolSpec.build))

        originals = {(cls, name): getattr(cls, name)
                     for cls in VECTOR_CLASSES for name in VECTOR_METHODS}
        for (cls, name), original in originals.items():
            self._patch(cls, name,
                        self.timed("core", original, f"core.{name}"))

        for name in ("step", "call_at", "spawn"):
            self._wrap(Simulator, name, "net.simulator",
                       f"net.simulator.{name}")
        self._patch(Simulator, "run",
                    self.timed("net.simulator", Simulator.run,
                               "net.simulator.run", after=self._note_events))

        self._patch(DirectionStats, "__init__",
                    self.counted(DirectionStats.__init__,
                                 "net.stats.objects_built"))
        self._patch(TransferStats, "merge",
                    self.counted(TransferStats.merge, "net.stats.merges"))

        for name in ("get", "put", "delete", "absorb", "snapshot",
                     "restore"):
            self._wrap(SiteStore, name, "store", f"store.{name}")
        merge = self.timed("store", store_kv.merge_siblings,
                           "store.merge_siblings")
        for module in (store_kv, store_cluster):
            self._patch(module, "merge_siblings", merge)
        for name in ("submit", "request_sync"):
            self._wrap(store_cluster.StoreCluster, name, "store",
                       f"store.{name}")

        for name in MONITOR_HOOKS:
            self._wrap(ConsistencyMonitor, name, "obs", f"obs.{name}")
        self._wrap(Tracer, "event", "obs", "obs.trace_event")
        self._wrap(Histogram, "observe", "obs", "obs.observe")
        observe = self.timed("obs", obs_metrics.observe_session,
                             "obs.observe_session")
        for module in (obs_metrics, net_cluster, store_cluster):
            self._patch(module, "observe_session", observe)

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _timed_build(self, build: Callable) -> Callable:
        """``ProtocolSpec.build`` whose coroutines time every resume."""
        timed_build = self.timed("protocols.build", build, "protocols.build")

        def proxied(spec: ProtocolSpec, *args: Any, **kwargs: Any) -> Any:
            sender, receiver, reconciled = timed_build(spec, *args, **kwargs)
            return (_TimedCoroutine(sender, self), _TimedCoroutine(receiver,
                                                                   self),
                    reconciled)

        return functools.wraps(build)(proxied)

    def _note_events(self, sim: Simulator, *args: Any) -> None:
        """Note how many events ``sim`` has queued, as its run() ends."""
        self.sim_events[id(sim)] = scheduled_events(sim)


class _TimedCoroutine:
    """A protocol coroutine whose every resume is a ``protocols.step`` span.

    Drivers only ever call ``next``/``send``/``throw``/``close`` on the
    coroutines :meth:`ProtocolSpec.build` hands them, so this proxy stands
    in for the generator unchanged.
    """

    def __init__(self, gen: Any, profiler: LayerProfiler) -> None:
        self._gen = gen
        self.send = profiler.timed("protocols.step", gen.send,
                                   "protocols.step")

    def __iter__(self) -> "_TimedCoroutine":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def throw(self, *args: Any) -> Any:
        return self._gen.throw(*args)

    def close(self) -> None:
        self._gen.close()


class RunMark:
    """Timestamps the first ``Simulator.run`` entry of each repetition.

    That instant splits a repetition into set-up (building the fleet and
    its schedule) and run (every simulated event up to a verified
    result).  Installed for the whole benchmark process, traced or not;
    the cost is one extra Python call per ``Simulator.run``.
    """

    def __init__(self) -> None:
        self.first: Optional[float] = None
        self._original: Optional[Callable] = None

    def install(self) -> None:
        original = self._original = Simulator.run
        mark = self

        @functools.wraps(original)
        def run(sim: Simulator, *args: Any, **kwargs: Any) -> float:
            if mark.first is None:
                mark.first = _clock()
            return original(sim, *args, **kwargs)

        Simulator.run = run

    def uninstall(self) -> None:
        if self._original is not None:
            Simulator.run = self._original
            self._original = None
