"""Churn at paper scale: the steady-state study (``repro churn-study``).

The paper's central steady-state claim (Figure 1c) is that the
start-up scheme's benefit grows with bottleneck utilization under
continuous circuit churn.  ``repro netscale --churn`` runs *one*
operating point of that curve; this experiment makes the whole curve a
reproducible artifact: it sweeps :class:`~repro.scenario.OpenLoopChurn`
``arrival_rate`` across a configurable grid (default 1..16 circuits per
second), runs every operating point through the scenario engine with a
:class:`~repro.scenario.UtilizationProbe` and the per-circuit
:class:`~repro.scenario.GoodputProbe`, trims warm-up via the churn
process's ``settle_time()``, and aggregates steady-state bottleneck
utilization against the start-up scheme's improvement (TTFB / TTLB /
start-up-duration deltas per controller kind).

Each operating point is one :class:`~.netscale.NetScaleConfig` job, so
the sweep is a :func:`~repro.experiments.runner.run_batch` batch:
``workers > 1`` fans the points over a multiprocessing pool, and — all
points share one topology source and seed — the generated network is
planned **exactly once** across all workers whenever a disk plan cache
is attached (``--plan-cache`` / ``REPRO_PLAN_CACHE``).  The structured
output is byte-identical serial vs. parallel and cold vs. warm cache;
the plan-cache counters ride along as run metadata only.

The text rendering includes a Figure-1c-style ASCII panel
(:func:`repro.report.render_improvement_vs_utilization`): improvement
on the y axis, steady-state bottleneck utilization on the x axis, one
point per swept arrival rate.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..analysis.stats import EmpiricalCdf
from ..scenario import GoodputProbe, OpenLoopChurn, UtilizationProbe, plan_scenario
from ..scenario.cache import DEFAULT_CACHE
from ..transport.config import TransportConfig
from ..units import kib, seconds
from .api import Experiment, ExperimentResult, ExperimentSpec
from .netgen import NetworkConfig
from .netscale import NetScaleConfig, NetScaleResult
from .registry import register_experiment
from .runner import BatchJob, run_batch

__all__ = [
    "ChurnStudyConfig",
    "ChurnStudyExperiment",
    "ChurnStudyImprovement",
    "ChurnStudyPoint",
    "ChurnStudyResult",
    "run_churn_study",
]

#: The default sweep grid: 1..16 circuits/s, doubling (Figure 1c's span).
DEFAULT_RATES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)


def _default_network() -> NetworkConfig:
    return NetworkConfig(relay_count=30, client_count=30, server_count=30)


@dataclass(frozen=True)
class ChurnStudyConfig(ExperimentSpec):
    """Parameters of the churn-rate sweep.

    ``workers`` is an execution detail, not a model parameter: it is a
    non-field attribute (set via :meth:`with_workers`, never
    serialized), so a parallel sweep's structured output — config
    included — stays byte-identical to a serial one.
    """

    #: Arrival rates swept (circuits per second of open-loop churn).
    rates: Tuple[float, ...] = DEFAULT_RATES
    #: Initial-wave size at every operating point.
    circuit_count: int = 40
    hops: int = 3
    bulk_fraction: float = 0.7
    bulk_payload_bytes: int = kib(300)
    interactive_payload_bytes: int = kib(25)
    seed: int = 2018
    #: The initial wave arrives within this window; it is also the
    #: churn settle time — samples before it are warm-up, not steady
    #: state.
    start_window: float = seconds(2.0)
    #: No re-arrival is planned at or after this simulated time; it is
    #: also the steady-state window's upper edge (the system drains
    #: afterwards).
    horizon: float = seconds(8.0)
    #: Utilization/goodput sampling grid.
    probe_interval: float = 0.25
    max_sim_time: float = seconds(120.0)
    kinds: Tuple[str, str] = ("with", "without")
    network: NetworkConfig = field(default_factory=_default_network)
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("a churn study needs at least one arrival rate")
        if any(rate <= 0 for rate in self.rates):
            raise ValueError(
                "arrival rates must be positive, got %r" % (self.rates,)
            )
        if len(set(self.rates)) != len(self.rates):
            raise ValueError(
                "arrival rates must be distinct, got %r" % (self.rates,)
            )
        if self.horizon < self.start_window:
            raise ValueError(
                "horizon (%r) must not precede the start window (%r)"
                % (self.horizon, self.start_window)
            )
        if self.probe_interval <= 0:
            raise ValueError(
                "probe_interval must be positive, got %r" % self.probe_interval
            )
        if len(self.kinds) != 2 or len(set(self.kinds)) != 2:
            # The improvement rows are with-vs-without deltas; fail at
            # construction, not after the whole sweep has run.
            raise ValueError(
                "a churn study compares exactly two distinct controller "
                "kinds, got %r" % (self.kinds,)
            )
        # Execution details, not dataclass fields: never serialized, so
        # parallel and serial sweeps emit byte-identical results.
        object.__setattr__(self, "workers", 1)

    def with_workers(self, workers: int) -> "ChurnStudyConfig":
        """A copy of this config whose sweep runs over *workers* processes.

        Purely an execution knob: the copy compares equal to the
        original and serializes identically (the attribute is not a
        dataclass field), the batch runner guarantees the output is
        byte-identical for any value.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % workers)
        clone = replace(self)
        object.__setattr__(clone, "workers", int(workers))
        return clone

    def point_config(self, rate: float) -> NetScaleConfig:
        """The network-scale config of one operating point.

        Every point shares the topology source and seed, so the whole
        sweep shares one generated network (planned once, cached by
        fingerprint); only the churn process's arrival rate varies.
        """
        return NetScaleConfig(
            circuit_count=self.circuit_count,
            hops=self.hops,
            bulk_fraction=self.bulk_fraction,
            bulk_payload_bytes=self.bulk_payload_bytes,
            interactive_payload_bytes=self.interactive_payload_bytes,
            seed=self.seed,
            start_window=self.start_window,
            max_sim_time=self.max_sim_time,
            kinds=self.kinds,
            network=self.network,
            transport=self.transport,
            churn=OpenLoopChurn(
                start_window=self.start_window,
                arrival_rate=rate,
                horizon=self.horizon,
            ),
            probes=(
                UtilizationProbe(interval=self.probe_interval),
                GoodputProbe(interval=self.probe_interval),
            ),
        )


@dataclass
class ChurnStudyPoint(ExperimentResult):
    """One (arrival rate, controller kind) row of the study.

    Medians are over the *steady-state* circuits (those that arrived at
    or after the churn settle time); ``None`` when no circuit reached
    steady state at that rate.  Utilization and goodput are means over
    the steady window ``[settle, horizon)`` of the probe grids.
    """

    arrival_rate: float
    kind: str
    #: All circuits of the run (initial wave + re-arrivals).
    circuits: int
    #: Circuits that arrived at steady state (the rows medians cover).
    steady_circuits: int
    #: Steady-window mean of the bottleneck relay's link utilization.
    bottleneck_utilization: float
    #: Steady-window mean per-circuit delivered rate (bytes/second).
    steady_goodput: float
    median_ttfb: Optional[float]
    median_ttlb: Optional[float]
    #: Steady circuits whose source controller exited start-up.
    startup_exits: int
    median_startup: Optional[float]


@dataclass
class ChurnStudyImprovement(ExperimentResult):
    """One arrival rate's with-vs-without deltas (positive = faster).

    ``bottleneck_utilization`` is the *baseline* (second kind) figure —
    the x axis of the Figure-1c panel: how loaded the relay is without
    the start-up scheme.
    """

    arrival_rate: float
    bottleneck_utilization: float
    ttfb_improvement: Optional[float]
    ttlb_improvement: Optional[float]
    startup_improvement: Optional[float]


@dataclass
class ChurnStudyResult(ExperimentResult):
    """The study: per-(rate, kind) rows plus per-rate improvements.

    The run's plan-cache counters are carried as the non-serialized
    ``plan_cache`` attribute (set per instance, like
    :class:`~repro.experiments.runner.BatchResult`), so cached and
    uncached sweeps stay byte-identical on disk.
    """

    config: ChurnStudyConfig
    #: The relay every circuit crosses — identical at every operating
    #: point, because the whole sweep shares one generated network.
    bottleneck_relay: str
    #: One row per (arrival rate, controller kind), rate-major order.
    points: List[ChurnStudyPoint]
    #: One row per arrival rate: the with-vs-without deltas.
    improvements: List[ChurnStudyImprovement]

    def __post_init__(self) -> None:
        #: Aggregated plan-cache counters of the sweep (run metadata).
        self.plan_cache: Optional[Dict[str, int]] = None

    # --- analysis helpers -------------------------------------------------

    def point(self, rate: float, kind: str) -> ChurnStudyPoint:
        """The row for (*rate*, *kind*); raises ``KeyError`` if absent."""
        for row in self.points:
            if row.arrival_rate == rate and row.kind == kind:
                return row
        raise KeyError("no study point for rate=%r kind=%r" % (rate, kind))

    def points_for(self, kind: str) -> List[ChurnStudyPoint]:
        """The rows of one controller kind, in swept-rate order."""
        return [row for row in self.points if row.kind == kind]

    def improvement_points(
        self, metric: str = "ttfb"
    ) -> List[Tuple[float, float]]:
        """(utilization, improvement) pairs for the Figure-1c panel.

        *metric* is ``"ttfb"``, ``"ttlb"`` or ``"startup"``; rates where
        either kind lacks steady-state data are skipped.
        """
        attribute = {
            "ttfb": "ttfb_improvement",
            "ttlb": "ttlb_improvement",
            "startup": "startup_improvement",
        }[metric]
        return [
            (row.bottleneck_utilization, value)
            for row in self.improvements
            if (value := getattr(row, attribute)) is not None
        ]

    def figure(self, width: int = 72, height: int = 18) -> str:
        """The Figure-1c-style ASCII panel of this study."""
        from ..report import render_improvement_vs_utilization

        return render_improvement_vs_utilization(
            [
                ("TTFB", self.improvement_points("ttfb")),
                ("TTLB", self.improvement_points("ttlb")),
                ("startup", self.improvement_points("startup")),
            ],
            width=width,
            height=height,
        )


def _median(values: List[float]) -> Optional[float]:
    return EmpiricalCdf(values).median if values else None


def _aggregate_point(
    config: ChurnStudyConfig, rate: float, result: NetScaleResult, kind: str
) -> ChurnStudyPoint:
    """Reduce one operating point's per-circuit samples to one row."""
    settle = config.start_window
    horizon = config.horizon
    steady = result.steady_samples(kind)
    utilization_series = result.utilization_series(kind)
    if len(utilization_series) != 1:
        # point_config builds exactly one bottleneck-scoped probe;
        # averaging (or last-wins over) several relays would silently
        # corrupt the study's x axis.
        raise RuntimeError(
            "churn study expects exactly one bottleneck utilization "
            "series per kind, got %d" % len(utilization_series)
        )
    utilization = utilization_series[0].mean_between(settle, horizon)
    goodput_window = [
        value
        for series in result.probes.get(kind, [])
        if series.probe == "goodput"
        for __, value in series.between(settle, horizon)
    ]
    startup = [
        sample.startup_duration
        for sample in steady
        if sample.startup_duration is not None
    ]
    return ChurnStudyPoint(
        arrival_rate=rate,
        kind=kind,
        circuits=len(result.samples[kind]),
        steady_circuits=len(steady),
        bottleneck_utilization=utilization,
        steady_goodput=(
            sum(goodput_window) / len(goodput_window) if goodput_window else 0.0
        ),
        median_ttfb=_median([s.time_to_first_byte for s in steady]),
        median_ttlb=_median([s.time_to_last_byte for s in steady]),
        startup_exits=len(startup),
        median_startup=_median(startup),
    )


def _improvement(
    rate: float, with_point: ChurnStudyPoint, without_point: ChurnStudyPoint
) -> ChurnStudyImprovement:
    def delta(
        without_value: Optional[float], with_value: Optional[float]
    ) -> Optional[float]:
        if without_value is None or with_value is None:
            return None
        return without_value - with_value

    return ChurnStudyImprovement(
        arrival_rate=rate,
        bottleneck_utilization=without_point.bottleneck_utilization,
        ttfb_improvement=delta(without_point.median_ttfb, with_point.median_ttfb),
        ttlb_improvement=delta(without_point.median_ttlb, with_point.median_ttlb),
        startup_improvement=delta(
            without_point.median_startup, with_point.median_startup
        ),
    )


def _aggregate(
    config: ChurnStudyConfig, results: List[NetScaleResult]
) -> ChurnStudyResult:
    """Assemble the study from one NetScaleResult per swept rate."""
    bottlenecks = {result.bottleneck_relay for result in results}
    if len(bottlenecks) != 1:
        raise RuntimeError(
            "sweep points disagree on the bottleneck relay (%r): the "
            "operating points no longer share one generated network"
            % sorted(bottlenecks)
        )
    with_kind, without_kind = config.kinds
    points: List[ChurnStudyPoint] = []
    improvements: List[ChurnStudyImprovement] = []
    for rate, result in zip(config.rates, results):
        per_kind = {
            kind: _aggregate_point(config, rate, result, kind)
            for kind in config.kinds
        }
        points.extend(per_kind[kind] for kind in config.kinds)
        improvements.append(
            _improvement(rate, per_kind[with_kind], per_kind[without_kind])
        )
    return ChurnStudyResult(
        config=config,
        bottleneck_relay=bottlenecks.pop(),
        points=points,
        improvements=improvements,
    )


@register_experiment
class ChurnStudyExperiment(Experiment):
    """The steady-state churn sweep behind ``repro churn-study``."""

    name = "churn-study"
    help = "steady-state churn sweep: improvement vs bottleneck utilization"
    spec_type = ChurnStudyConfig
    result_type = ChurnStudyResult

    def run(self, spec: ChurnStudyConfig) -> ChurnStudyResult:
        jobs = [
            BatchJob(experiment="netscale", spec=spec.point_config(rate))
            for rate in spec.rates
        ]
        workers = getattr(spec, "workers", 1)
        if workers > 1 and multiprocessing.current_process().daemon:
            # Inside a pool worker (the study itself swept by `repro
            # batch --workers N`): daemonic processes cannot spawn
            # children, so the inner sweep degrades to serial.
            workers = 1
        disk = DEFAULT_CACHE.disk
        batch = run_batch(
            jobs,
            workers=workers,
            plan_cache_dir=disk.directory if disk is not None else None,
        )
        results = [item.result_object() for item in batch.items]
        study = _aggregate(spec, results)
        study.plan_cache = batch.plan_cache
        return study

    def estimate_cost(self, spec: ChurnStudyConfig) -> Dict[str, int]:
        totals = {"circuits": 0, "cells": 0, "cell_hops": 0}
        for rate in spec.rates:
            cost = plan_scenario(
                spec.point_config(rate).to_scenario(), cache=DEFAULT_CACHE
            ).estimated_cost()
            for key in totals:
                totals[key] += cost[key]
        totals["kinds"] = len(spec.kinds)
        return totals

    def add_cli_arguments(self, parser) -> None:
        parser.add_argument(
            "--rates", default="1,2,4,8,16", metavar="R1,R2,...",
            help="comma-separated churn arrival rates to sweep "
                 "(circuits/second; default 1,2,4,8,16)",
        )
        parser.add_argument("--circuits", type=int, default=40)
        parser.add_argument("--relays", type=int, default=30)
        parser.add_argument("--bulk-fraction", type=float, default=0.7)
        parser.add_argument("--bulk-payload-kib", type=int, default=300)
        parser.add_argument("--seed", type=int, default=2018)
        parser.add_argument(
            "--horizon", type=float, default=8.0, metavar="SECONDS",
            help="simulated time after which no re-arrival is planned "
                 "(default 8.0)",
        )
        parser.add_argument(
            "--probe-interval", type=float, default=0.25, metavar="SECONDS",
            help="utilization/goodput sampling grid (default 0.25)",
        )
        parser.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="run sweep points over N worker processes (output is "
                 "byte-identical to --workers 1)",
        )

    def spec_from_cli(self, args) -> ChurnStudyConfig:
        from .api import SpecError

        try:
            rates = tuple(
                float(token) for token in args.rates.split(",") if token.strip()
            )
        except ValueError:
            raise SpecError(
                "--rates expects comma-separated numbers, got %r" % args.rates
            ) from None
        try:
            return ChurnStudyConfig(
                rates=rates,
                circuit_count=args.circuits,
                bulk_fraction=args.bulk_fraction,
                bulk_payload_bytes=kib(args.bulk_payload_kib),
                seed=args.seed,
                horizon=args.horizon,
                probe_interval=args.probe_interval,
                network=NetworkConfig(
                    relay_count=args.relays,
                    client_count=max(args.relays, 1),
                    server_count=max(args.relays, 1),
                ),
            ).with_workers(args.workers)
        except ValueError as error:
            # Config validation (negative/duplicate rates, bad horizon,
            # workers < 1, ...) becomes a clean exit-2 message, not a
            # traceback.
            raise SpecError(str(error)) from error

    def render(self, result: ChurnStudyResult) -> str:
        from ..report import format_table

        config = result.config
        rows = [
            [
                point.arrival_rate, point.kind, point.circuits,
                point.steady_circuits, point.bottleneck_utilization,
                point.steady_goodput, point.median_ttfb, point.median_ttlb,
                point.median_startup,
            ]
            for point in result.points
        ]
        table = format_table(
            ["rate [1/s]", "controller", "circuits", "steady",
             "utilization", "goodput [B/s]", "med TTFB [s]",
             "med TTLB [s]", "med startup [s]"],
            rows,
            title="Churn study: %d operating points through bottleneck %s"
            % (len(config.rates), result.bottleneck_relay),
        )
        improvement_rows = [
            [
                row.arrival_rate, row.bottleneck_utilization,
                row.ttfb_improvement, row.ttlb_improvement,
                row.startup_improvement,
            ]
            for row in result.improvements
        ]
        improvement_table = format_table(
            ["rate [1/s]", "utilization", "TTFB gain [s]", "TTLB gain [s]",
             "startup gain [s]"],
            improvement_rows,
            title="Steady-state improvement (%s vs %s, positive = faster)"
            % (config.kinds[0], config.kinds[1]),
        )
        lines = [table, "", improvement_table, "", result.figure()]
        stats = getattr(result, "plan_cache", None)
        if stats and sum(stats.values()):
            lines.append("")
            lines.append(
                "plan cache: %d plan hit(s) / %d miss(es), %d network "
                "hit(s) / %d miss(es)"
                % (stats.get("plan_hits", 0), stats.get("plan_misses", 0),
                   stats.get("network_hits", 0),
                   stats.get("network_misses", 0))
            )
        return "\n".join(lines)


def run_churn_study(
    config: Optional[ChurnStudyConfig] = None, workers: int = 1
) -> ChurnStudyResult:
    """Run the churn-rate sweep (wrapper over the registry)."""
    from .registry import get_experiment

    spec = config if config is not None else ChurnStudyConfig()
    if workers != 1:
        spec = spec.with_workers(workers)
    return get_experiment("churn-study").run(spec)
