"""Host-time attribution by layer, from wrappers the benchmark installs.

Nothing here touches ``src/``: the tracer replaces class attributes and
module-level function references with timing wrappers at run time.
Classes are patched before the traced iteration instantiates anything,
so callbacks bound in constructors (``Interface._on_tx_complete`` and
friends) already resolve to wrapped methods.

Two kinds of records, both kept in memory and exported once:

* **Stats** — per wrapped entry point: calls, total seconds and self
  seconds (total minus the time covered by wrapped callees).  Every
  per-packet call lands here, aggregated.  Simulator events are wrapped
  at scheduling time and attributed to the layer that owns the callback,
  so a transmission completion counts as ``net`` and an RTO as
  ``transport`` although the simulator loop calls both.
* **Spans** — coarse boundaries (experiment run, sweep, job, plan,
  instantiate, simulator run per controller kind, encode): name, start,
  end, self time, parent span and run id.

The *light* mode wraps only what the untraced end-to-end metrics need
(``run_planned`` time and cell-hops, hop-sender registration, and the
pool-worker hand-back); its cost is a few calls per experiment run.

Pool workers forked after patching inherit the wrappers.  Each job's
records travel back on the ``JobOutcome`` the worker returns and are
merged into the parent's, with worker spans re-parented under the sweep.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

LAYERS = ("sim", "net", "transport", "core", "tor", "scenario", "experiments", "jobs")

_PAYLOAD_ATTR = "_perfbench_trace"

_perf = time.perf_counter


def layer_of(module: Optional[str]) -> str:
    """``repro.net.link`` -> ``net``; anything outside the layers -> ``other``."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "other"


class Tracer:
    """In-memory stats, counts and spans of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.full = False
        #: Child-time accumulators of the open wrapped calls (root first).
        self.stack: List[float] = [0.0]
        #: "layer|name" -> [calls, total_s, self_s]; entries keep identity.
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Dict[str, Any]] = []
        self._span_stack: List[Optional[str]] = [None]
        self._next_span = 0
        self._event_stats: Dict[Any, List[float]] = {}
        self._sim_kind: Dict[int, str] = {}
        self._sim_depth = 0
        self._encode_depth = 0
        self._fault_depth = 0
        #: Hop senders built in the running experiment (kept only when
        #: asked), folded into ``counts`` when it returns.
        self.senders: List[Any] = []
        self.keep_senders = False
        self.run_id = "untraced"
        self.origin = _perf()

    # --- bookkeeping ------------------------------------------------------

    def begin(self, run_id: str) -> None:
        """Start the record of one iteration; span times count from here."""
        self.reset(run_id)
        self.origin = _perf()

    def reset(self, run_id: str) -> None:
        """Drop every record (wrappers stay installed)."""
        del self.stack[1:]
        self.stack[0] = 0.0
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.spans.clear()
        del self._span_stack[1:]
        self._sim_kind.clear()
        self.senders.clear()
        self.run_id = run_id

    def _stat(self, layer: str, name: str) -> List[float]:
        return self.stats.setdefault("%s|%s" % (layer, name), [0, 0.0, 0.0])

    def stat(self, layer: str, name: str) -> List[float]:
        return self.stats.get("%s|%s" % (layer, name), [0, 0.0, 0.0])

    # --- wrapper factories ------------------------------------------------

    def lean(self, layer: str, name: str, fn: Callable) -> Callable:
        """Count calls and total/self time of *fn* (per-packet safe)."""
        stat = self._stat(layer, name)
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _perf() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner

        return functools.update_wrapper(wrapper, fn)

    def spanned(self, layer: str, name: str, fn: Callable,
                attrs: Optional[Callable[..., Dict[str, Any]]] = None) -> Callable:
        """Like :meth:`lean`, and record each call as a span (full mode)."""
        stat = self._stat(layer, name)
        stack = self.stack
        span_stack = self._span_stack

        def wrapper(*args, **kwargs):
            if not self.full:
                span_id = None
            else:
                span_id = "%d:%d" % (os.getpid(), self._next_span)
                self._next_span += 1
            parent = span_stack[-1]
            span_stack.append(span_id if span_id is not None else parent)
            stack.append(0.0)
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _perf()
                elapsed = end - start
                inner = stack.pop()
                stack[-1] += elapsed
                span_stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if span_id is not None:
                    span = {
                        "id": span_id, "parent": parent, "run": self.run_id,
                        "name": name, "layer": layer, "pid": os.getpid(),
                        "start": start - self.origin, "end": end - self.origin,
                        "self_s": elapsed - inner,
                    }
                    if attrs is not None:
                        span.update(attrs(*args, **kwargs))
                    self.spans.append(span)

        return functools.update_wrapper(wrapper, fn)

    def event(self, callback: Callable) -> Callable:
        """Wrap a scheduled callback, attributed to the layer that owns it."""
        fn = getattr(callback, "__func__", callback)
        key = getattr(fn, "__code__", None) or getattr(fn, "__qualname__", repr(type(fn)))
        stat = self._event_stats.get(key)
        if stat is None:
            stat = self._stat(
                layer_of(getattr(fn, "__module__", None)),
                "event:%s" % getattr(fn, "__qualname__", type(fn).__name__),
            )
            self._event_stats[key] = stat
        stack = self.stack

        def fire(*args):
            stack.append(0.0)
            start = _perf()
            try:
                return callback(*args)
            finally:
                elapsed = _perf() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner

        return fire

    # --- installation -----------------------------------------------------

    def install(self, full: bool) -> None:
        """Patch the entry points; *full* adds the per-layer wrappers."""
        from repro.jobs import dispatch
        from repro.scenario import engine
        from repro.transport.hop import HopSender

        if not getattr(HopSender.__init__, "_perfbench", False):
            self._install_light(dispatch, engine, HopSender)
        if full and not self.full:
            self._install_full()
            self.full = True
            self.keep_senders = True

    def _folding(self, fn: Callable) -> Callable:
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold_senders()

        return functools.update_wrapper(run, fn)

    def _install_light(self, dispatch, engine, HopSender) -> None:
        from repro.experiments.registry import iter_experiments

        senders = self.senders
        init = HopSender.__init__

        def hop_init(sender, *args, **kwargs):
            init(sender, *args, **kwargs)
            if self.keep_senders:
                senders.append(sender)

        hop_init._perfbench = True
        HopSender.__init__ = functools.update_wrapper(hop_init, init)
        # Sum the senders' counters when each experiment returns, so the
        # record does not keep finished simulations alive.
        for experiment in iter_experiments():
            cls = type(experiment)
            if "run" in vars(cls):
                cls.run = self._folding(cls.run)

        run_planned = engine.run_planned

        def planned(plan, *args, **kwargs):
            kinds = args[0] if args else kwargs.get("kinds")
            kinds = plan.scenario.kinds if kinds is None else kinds
            result = run_planned(plan, *args, **kwargs)
            self.counts["planned_events"] += sum(result.events_executed.values())
            # Cell transmissions over hops.  A run without faults delivers
            # every planned cell over every hop exactly once; under faults
            # the engine reports what the hop senders actually sent.
            if result.transport_counters:
                self.counts["cell_hops"] += sum(
                    kind.get("cells_sent", 0)
                    for kind in result.transport_counters.values())
            else:
                self.counts["cell_hops"] += (
                    plan.estimated_cost()["cell_hops"] * len(kinds))
            return result

        self._patch_function(run_planned, self.spanned(
            "scenario", "run_planned", functools.update_wrapper(planned, run_planned)))
        self._patch_function(dispatch.execute_task, self._worker_side(dispatch.execute_task))
        self._patch_function(dispatch.run_tasks, self._parent_side(dispatch.run_tasks))

    def _install_full(self) -> None:
        from repro.experiments.registry import iter_experiments
        from repro.jobs.store import JobStore
        from repro.net.faults import FaultModel
        from repro.net.link import Interface
        from repro.net.node import Node
        from repro.net.queues import QueueStats
        from repro.scenario import engine, netgen, spec
        from repro.scenario.cache import DEFAULT_CACHE
        from repro import serialize
        from repro.sim.events import EventHandle
        from repro.sim.simulator import Simulator
        from repro.tor.circuit import CircuitFlow
        from repro.tor.hosts import TorHost
        from repro.transport.controller import WindowController
        from repro.transport.hop import HopSender

        self._install_sim(Simulator, EventHandle)

        Interface.send = self.lean("net", "Interface.send", Interface.send)
        deliver = Node.deliver
        counts = self.counts

        def node_deliver(node, packet, *args, **kwargs):
            if not node.up:
                counts["net.drops"] += 1
            return deliver(node, packet, *args, **kwargs)

        Node.deliver = self.lean("net", "Node.deliver",
                                 functools.update_wrapper(node_deliver, deliver))
        QueueStats.note_drop = self.lean("net", "QueueStats.note_drop", QueueStats.note_drop)
        for cls in _subclasses(FaultModel):
            if "on_transmit" in vars(cls):
                cls.on_transmit = self._fault_verdict(cls.on_transmit)

        HopSender.pump = self.lean("transport", "HopSender.pump", HopSender.pump)
        HopSender.on_feedback = self.lean(
            "transport", "HopSender.on_feedback", HopSender.on_feedback)
        # The window-control algorithm (repro.core) runs under this call:
        # core controllers override its hooks, not the method itself.
        WindowController.on_feedback = self.lean(
            "core", "WindowController.on_feedback", WindowController.on_feedback)

        TorHost.handle_packet = self.lean("tor", "TorHost.handle_packet", TorHost.handle_packet)
        TorHost.teardown = self.lean("tor", "TorHost.teardown", TorHost.teardown)
        TorHost.fail_all_circuits = self.lean(
            "tor", "TorHost.fail_all_circuits", TorHost.fail_all_circuits)
        CircuitFlow.__init__ = self.lean("tor", "CircuitFlow.__init__", CircuitFlow.__init__)
        CircuitFlow.teardown = self.lean("tor", "CircuitFlow.teardown", CircuitFlow.teardown)

        self._patch_function(spec.plan_scenario, self.spanned(
            "scenario", "plan", spec.plan_scenario))
        self._patch_function(netgen.instantiate_network, self.spanned(
            "scenario", "instantiate", netgen.instantiate_network))
        build = engine.build_circuit_run

        def build_circuit_run(*args, **kwargs):
            if len(args) >= 4:
                self._sim_kind[id(args[3])] = args[2]
            return build(*args, **kwargs)

        self._patch_function(build, self.lean(
            "scenario", "build_circuit_run", functools.update_wrapper(build_circuit_run, build)))

        for experiment in iter_experiments():
            cls = type(experiment)
            if "run" in vars(cls):
                cls.run = self.spanned(
                    layer_of(cls.__module__), "experiment", cls.run,
                    attrs=lambda exp, *a, **k: {"experiment": exp.name})
        self._patch_function(serialize.encode, self._outermost_encode(serialize.encode))

        # Iterations clear the plan cache between passes, which zeroes its
        # counters: fold them into the record first.
        clear = DEFAULT_CACHE.clear

        def clear_cache():
            for key, value in DEFAULT_CACHE.stats().items():
                counts["cache." + key] += value
            clear()

        DEFAULT_CACHE.clear = clear_cache

        get = JobStore.get

        def store_get(store, key):
            payload = get(store, key)
            counts["jobs.checkpoint_hits"] += payload is not None
            return payload

        JobStore.get = self.lean("jobs", "JobStore.get", functools.update_wrapper(store_get, get))
        JobStore.put = self.lean("jobs", "JobStore.put", JobStore.put)

    def _install_sim(self, Simulator, EventHandle) -> None:
        event = self.event
        for name in ("run", "run_until", "run_for"):
            setattr(Simulator, name, self._sim_run(getattr(Simulator, name)))
        schedule = self.lean("sim", "schedule", Simulator.schedule)
        schedule_fast = self.lean("sim", "schedule_fast", Simulator.schedule_fast)
        schedule_at = self.lean("sim", "schedule_at", Simulator.schedule_at)
        call_soon = self.lean("sim", "call_soon", Simulator.call_soon)
        Simulator.schedule = lambda sim, delay, cb, *a: schedule(sim, delay, event(cb), *a)
        Simulator.schedule_fast = (
            lambda sim, delay, cb, *a: schedule_fast(sim, delay, event(cb), *a))
        Simulator.schedule_at = lambda sim, at, cb, *a: schedule_at(sim, at, event(cb), *a)
        Simulator.call_soon = lambda sim, cb, *a: call_soon(sim, event(cb), *a)
        Simulator.cancel = self.lean("sim", "Simulator.cancel", Simulator.cancel)
        EventHandle.cancel = self.lean("sim", "EventHandle.cancel", EventHandle.cancel)

    def _sim_run(self, fn: Callable) -> Callable:
        """Simulator loop entry: one span and an event count per outer call."""
        spanned = self.spanned(
            "sim", "run", fn,
            attrs=lambda sim, *a, **k: {"kind": self._sim_kind.get(id(sim))})
        counts = self.counts

        def run(sim, *args, **kwargs):
            if self._sim_depth:
                return fn(sim, *args, **kwargs)
            self._sim_depth = 1
            before = sim.events_executed
            try:
                return spanned(sim, *args, **kwargs)
            finally:
                self._sim_depth = 0
                counts["sim.events"] += sim.events_executed - before

        return functools.update_wrapper(run, fn)

    def _fault_verdict(self, fn: Callable) -> Callable:
        """Count packets a fault model drops (outermost verdict < 0)."""
        counts = self.counts

        def on_transmit(model, packet):
            self._fault_depth += 1
            try:
                verdict = fn(model, packet)
            finally:
                self._fault_depth -= 1
            if not self._fault_depth and verdict < 0.0:
                counts["net.drops"] += 1
            return verdict

        return self.lean("net", "FaultModel.on_transmit",
                         functools.update_wrapper(on_transmit, fn))

    def _outermost_encode(self, fn: Callable) -> Callable:
        spanned = self.spanned("experiments", "encode", fn)

        def encode(obj):
            if self._encode_depth:
                return fn(obj)
            self._encode_depth = 1
            try:
                return spanned(obj)
            finally:
                self._encode_depth = 0

        return functools.update_wrapper(encode, fn)

    def _patch_function(self, original: Callable, wrapper: Callable) -> None:
        """Point every module-level reference to *original* at *wrapper*."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or module is sys.modules.get(__name__):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    setattr(module, name, wrapper)

    # --- pool workers -------------------------------------------------------

    def _worker_side(self, fn: Callable) -> Callable:
        """``execute_task``: in a forked worker, ship this job's records back."""
        job = self.spanned("jobs", "job", fn, attrs=lambda task: {"index": task[0]})

        def execute_task(task):
            if os.getpid() == self.pid:
                return job(task)
            self.reset(self.run_id)
            start = _perf()
            outcome = job(task)
            payload = self.export()
            payload["busy_s"] = _perf() - start
            setattr(outcome, _PAYLOAD_ATTR, payload)
            return outcome

        return functools.update_wrapper(execute_task, fn)

    def _parent_side(self, fn: Callable) -> Callable:
        """``run_tasks``: merge worker records; measure worker busy share."""
        job_stat = self._stat("jobs", "job")

        def run_tasks(tasks, workers=None, *args, **kwargs):
            tasks = list(tasks)
            busy_before = job_stat[1]
            start = _perf()
            outcomes = fn(tasks, workers, *args, **kwargs)
            wall = _perf() - start
            busy = job_stat[1] - busy_before
            for outcome in outcomes:
                payload = outcome.__dict__.pop(_PAYLOAD_ATTR, None)
                if payload is not None:
                    busy += payload["busy_s"]
                    self.merge(payload, outcome.cache_delta)
            pooled = workers is not None and workers > 1
            slots = min(workers, max(len(tasks), 1)) if pooled else 1
            self.counts["jobs.busy_s"] += busy
            self.counts["jobs.capacity_s"] += wall * slots
            return outcomes

        # Merging inside the span re-parents worker spans under the sweep.
        return self.spanned("jobs", "sweep", functools.update_wrapper(run_tasks, fn))

    def fold_senders(self) -> None:
        """Add the registered senders' counters to the record; drop them."""
        for sender in self.senders:
            for name, value in sender.counters().items():
                self.counts["sender." + name] += value
        self.senders.clear()

    def sender_totals(self) -> Dict[str, float]:
        """Transport counters summed over this process's and merged senders."""
        self.fold_senders()
        totals: Dict[str, float] = defaultdict(float)
        for key, value in self.counts.items():
            if key.startswith("sender."):
                totals[key[len("sender."):]] = value
        return totals

    def export(self) -> Dict[str, Any]:
        """This process's records as plain data."""
        self.fold_senders()
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    def merge(self, payload: Dict[str, Any], cache_delta: Dict[str, int]) -> None:
        """Fold a worker's records into this process's."""
        for key, (calls, total, self_s) in payload["stats"].items():
            stat = self.stats.setdefault(key, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += self_s
        for key, value in payload["counts"].items():
            self.counts[key] += value
        for key, value in cache_delta.items():
            self.counts["cache." + key] += value
        parent = self._span_stack[-1]
        for span in payload["spans"]:
            if span["parent"] is None:
                span = dict(span, parent=parent)
            self.spans.append(span)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def layer_metrics(tracer: Tracer, cell_hops: float, result_bytes: int,
                  traced_s: float, overhead_s: float, resume_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration, by name."""
    self_s: Dict[str, float] = defaultdict(float)
    for key, (_, _, own) in tracer.stats.items():
        self_s[key.split("|", 1)[0]] += own
    # Parent-process time under no wrapper at all (the benchmark's own
    # JSON encoding of results) counts as unattributed.
    self_s["other"] += traced_s - tracer.stack[0]

    def calls(layer: str, *names: str) -> float:
        return sum(tracer.stat(layer, name)[0] for name in names)

    def total(layer: str, *names: str) -> float:
        return sum(tracer.stat(layer, name)[1] for name in names)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    counts = tracer.counts
    senders = tracer.sender_totals()
    events = counts["sim.events"]
    sends = calls("net", "Interface.send")
    from repro.scenario.cache import DEFAULT_CACHE

    cache = DEFAULT_CACHE.stats()
    hits = cache["plan_hits"] + counts["cache.plan_hits"]
    misses = cache["plan_misses"] + counts["cache.plan_misses"]
    reads = calls("jobs", "JobStore.get")
    return {
        "sim.events": events,
        "sim.events_per_cell_hop": ratio(events, cell_hops),
        "sim.self_s": self_s["sim"],
        "sim.ns_per_event": ratio(self_s["sim"], events, 1e9),
        "sim.fast_schedules": calls("sim", "schedule_fast"),
        "sim.handle_schedules": calls("sim", "schedule", "schedule_at", "call_soon"),
        "sim.cancels": calls("sim", "EventHandle.cancel"),
        "net.send_calls": sends,
        "net.deliver_calls": calls("net", "Node.deliver"),
        "net.self_s": self_s["net"],
        "net.us_per_packet": ratio(self_s["net"], sends, 1e6),
        "net.drops": counts["net.drops"] + calls("net", "QueueStats.note_drop"),
        "transport.pump_calls": calls("transport", "HopSender.pump"),
        "transport.feedback_calls": calls("transport", "HopSender.on_feedback"),
        "transport.self_s": self_s["transport"],
        "transport.retransmissions": senders["retransmissions"],
        "transport.timeouts": senders["timeouts"],
        "transport.useful_ratio": ratio(
            senders["cells_sent"] - senders["retransmissions"], senders["cells_sent"]),
        "core.feedback_calls": calls("core", "WindowController.on_feedback"),
        "core.self_s": self_s["core"],
        "tor.handle_packet_calls": calls("tor", "TorHost.handle_packet"),
        "tor.self_s": self_s["tor"],
        "tor.circuits": calls("tor", "CircuitFlow.__init__"),
        "tor.teardowns": calls("tor", "TorHost.teardown"),
        "tor.relay_failures": calls("tor", "TorHost.fail_all_circuits"),
        "scenario.plan_s": total("scenario", "plan"),
        "scenario.instantiate_s": total("scenario", "instantiate"),
        "scenario.run_s": total("scenario", "run_planned"),
        "scenario.plan_cache_hit_ratio": ratio(hits, hits + misses),
        "experiments.aggregate_s": tracer.stat("experiments", "experiment")[2],
        "experiments.encode_s": total("experiments", "encode"),
        "experiments.result_bytes": result_bytes,
        "jobs.checkpoint_writes": calls("jobs", "JobStore.put"),
        "jobs.checkpoint_reads": reads,
        "jobs.checkpoint_hit_ratio": ratio(counts["jobs.checkpoint_hits"], reads),
        "jobs.store_s": total("jobs", "JobStore.get", "JobStore.put"),
        "jobs.worker_busy_share": ratio(counts["jobs.busy_s"], counts["jobs.capacity_s"]),
        "jobs.resume_s": resume_s,
        "other.self_s": self_s["other"],
        "trace.overhead_s": overhead_s,
    }
