"""Micro-benchmarks of the simulation substrate.

These measure the engine itself (events/second, cells/second through a
circuit) rather than reproducing a paper artifact; they exist so that
performance regressions in the substrate are visible and so the cost of
the Figure-1 experiments stays predictable.

Run:  pytest benchmarks/bench_engine.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator
from repro.tor.circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from repro.net.topology import LinkSpec, build_chain
from repro.transport.config import CELL_PAYLOAD, TransportConfig
from repro.units import mbit_per_second, milliseconds


def test_event_queue_throughput(benchmark):
    """Push/pop 10k events through the calendar queue."""

    def churn():
        q = EventQueue()
        for i in range(10_000):
            q.push(float(i % 97), lambda: None)
        count = 0
        while q:
            q.pop()
            count += 1
        return count

    assert benchmark(churn) == 10_000


def test_event_queue_fast_path_throughput(benchmark):
    """Push/pop 10k handle-free events through the calendar queue."""

    def churn():
        q = EventQueue()
        for i in range(10_000):
            q.push_fast(float(i % 97), _noop)
        count = 0
        while q:
            q.pop_callback()
            count += 1
        return count

    assert benchmark(churn) == 10_000


def _noop():
    pass


def test_event_queue_burst_ring_throughput(benchmark):
    """Drain 100 same-timestamp bursts of 100 fast events each.

    Same-time fast-path pushes land in the array-backed burst ring
    instead of the heap, so this case isolates the ring's append/drain
    cost from heap sifting.
    """

    def churn():
        q = EventQueue()
        count = 0
        for burst in range(100):
            t = float(burst)
            for __ in range(100):
                q.push_fast(t, _noop)
            while q:
                q.pop_callback()
                count += 1
        return count

    assert benchmark(churn) == 10_000


def test_simulator_event_rate(benchmark):
    """Execute 10k chained timer events."""

    def run():
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 10_000


def test_circuit_cell_throughput(benchmark):
    """Move 500 cells across a 3-relay circuit, end to end."""

    def run():
        sim = Simulator()
        spec = LinkSpec(mbit_per_second(100), milliseconds(2))
        names = ["source", "r1", "r2", "r3", "sink"]
        topo = build_chain(sim, names, [spec] * 4)
        flow = CircuitFlow(
            sim,
            topo,
            CircuitSpec(allocate_circuit_id(), "source", ["r1", "r2", "r3"], "sink"),
            TransportConfig(),
            payload_bytes=500 * CELL_PAYLOAD,
        )
        sim.run()
        return flow.sink.cells_received

    assert benchmark(run) == 500


def test_trace_experiment_wall_time(benchmark):
    """Wall-clock cost of one Figure-1a style run (400 ms simulated)."""
    from repro import TraceConfig, run_trace_experiment

    result = benchmark(run_trace_experiment, TraceConfig())
    assert result.startup_exit_time is not None

