"""The benchmark's workloads: seeded inputs and one timed iteration each.

Each workload has a family of 16 inputs of equal work, recorded with
their output digests in ``inputs.json`` (written by ``calibrate.py``);
seed *n* runs member ``n % 16``, so every seed has a recorded digest.

* ``netscale`` members are spec seeds whose planned cell-hops equal
  the default's (member 0 is the default spec, seed 2018); the network
  and workload placement differ, the events executed are identical.
* ``figures`` members scale each experiment's link delay by a factor in
  [0.95, 1.05] (member 0: the defaults); the runs are bounded in
  simulated time, so the work stays within about 1 %.
* ``adversity`` members are spec seeds whose planned cell-hops lie
  within 3 % of seed 2018's and whose executed events lie within 3 % of
  the candidates' median: where relays die and how often go-back-N fires
  varies the work by +-20 % between seeds of equal plan, so the family
  is chosen by measured work.

Only this module and the tools beside it import :mod:`repro`; the
program receives nothing but the specs built here.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    AblationsConfig,
    DynamicConfig,
    FriendlinessConfig,
    InteractiveConfig,
    NetScaleConfig,
    TraceConfig,
    get_experiment,
    kib,
)
from repro.experiments.adversity import AdversityStudyConfig
from repro.scenario.cache import DEFAULT_CACHE
from repro.serialize import encode

WORKLOADS = ("netscale", "figures", "adversity")

#: The only field the output digests leave out: an engine-cost counter,
#: not a model output (event fusion must be free to change it).
STRIPPED_FIELD = "events_executed"

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs.json")
#: Members per input family; seed n runs member n % FAMILY_SIZE.
FAMILY_SIZE = 16


def adversity_base() -> AdversityStudyConfig:
    """The adversity grid, loss {0, 2 %} x relay MTTF {off, 4 s}; members vary its seed."""
    return AdversityStudyConfig(
        loss_rates=(0.0, 0.02),
        relay_mttfs=(0.0, 4.0),
        circuit_count=20,
        bulk_payload_bytes=kib(150),
    )


def _with_delay(spec: Any, factor: float) -> Any:
    return replace(spec, link_delay=spec.link_delay * factor)


def member_specs(workload: str, member: Dict[str, Any]) -> List[Tuple[str, Any]]:
    """The ``(experiment, spec)`` pairs of one family member."""
    if workload == "netscale":
        return [("netscale", NetScaleConfig(seed=member["spec_seed"]))]
    if workload == "adversity":
        return [("adversity-study", replace(adversity_base(), seed=member["spec_seed"]))]
    if workload == "figures":
        factors = iter(member["delay_factors"])
        ablations = AblationsConfig()
        return [
            ("trace", _with_delay(TraceConfig(), next(factors))),
            ("ablations", replace(
                ablations,
                near=_with_delay(ablations.near, next(factors)),
                far=_with_delay(ablations.far, next(factors)),
            )),
            ("dynamic", _with_delay(DynamicConfig(), next(factors))),
            ("friendliness", _with_delay(FriendlinessConfig(), next(factors))),
            ("interactive", _with_delay(InteractiveConfig(), next(factors))),
        ]
    raise ValueError(
        "unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS))
    )


def load_member(workload: str, seed: int) -> Dict[str, Any]:
    """The recorded family member that *seed* selects."""
    if seed < 0:
        raise ValueError("seed must be non-negative, got %r" % seed)
    with open(INPUTS) as handle:
        family = json.load(handle)[workload]
    return family[seed % FAMILY_SIZE]


def generate_specs(workload: str, seed: int) -> List[Dict[str, Any]]:
    """The workload's inputs for *seed*, as ``[{experiment, spec}]`` JSON."""
    return [
        {"experiment": name, "spec": encode(spec)}
        for name, spec in member_specs(workload, load_member(workload, seed))
    ]


def decode_specs(items: List[Dict[str, Any]]) -> List[Tuple[str, Any]]:
    """Build and validate every spec (what each CLI call pays for)."""
    return [
        (item["experiment"],
         get_experiment(item["experiment"]).spec_type.from_dict(item["spec"]))
        for item in items
    ]


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def _strip(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != STRIPPED_FIELD}
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def canonical_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def digest(result_bytes: bytes) -> str:
    """SHA-256 of the canonical result JSON without ``events_executed``."""
    return hashlib.sha256(
        canonical_bytes(_strip(json.loads(result_bytes)))
    ).hexdigest()


# ----------------------------------------------------------------------
# One iteration of each workload
# ----------------------------------------------------------------------


class Op:
    """One experiment run: its output digest, or the error it raised."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.digest: Optional[str] = None
        self.error: Optional[str] = None
        self.result_bytes = 0
        self.result: Any = None

    def run(self, fn: Callable[[], Any]) -> float:
        """Time ``fn()`` plus its encoding to bytes; return host seconds."""
        start = time.perf_counter()
        try:
            self.result = fn()
            data = canonical_bytes(encode(self.result))
        except Exception as exc:  # a failed operation is counted, not fatal
            self.error = "%s: %s" % (type(exc).__name__, exc)
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        self.result_bytes = len(data)
        self.digest = digest(data)
        return elapsed

    def record(self) -> Dict[str, Any]:
        return {"name": self.name, "digest": self.digest, "error": self.error}


def run_iteration(workload: str, specs: List[Tuple[str, Any]], work_dir: str,
                  workers: int) -> Dict[str, Any]:
    """Run the workload once from a cold plan cache; return its timings.

    ``wall_s`` is spec to encoded result bytes (the cold pass only on
    ``adversity``, whose resumed pass is timed as ``resume_s``).
    """
    DEFAULT_CACHE.clear()
    ops: List[Op] = []
    out: Dict[str, Any] = {"wall_s": 0.0}
    if workload in ("netscale", "figures"):
        for name, spec in specs:
            op = Op(name)
            out["wall_s"] += op.run(partial(get_experiment(name).run, spec))
            ops.append(op)
        if workload == "netscale" and ops[0].error is None:
            out["ttlb_improvement_s"] = ops[0].result.median_improvement()
    else:
        ((_, spec),) = specs
        checkpoint = tempfile.mkdtemp(prefix="checkpoint-", dir=work_dir)
        try:
            experiment = get_experiment("adversity-study")
            cold = Op("adversity-study")
            out["wall_s"] = cold.run(lambda: experiment.run(
                spec.with_workers(workers).with_checkpoint(checkpoint)))
            DEFAULT_CACHE.clear()  # a resume is a fresh process in practice
            resumed = Op("adversity-study.resume")
            out["resume_s"] = resumed.run(lambda: experiment.run(
                spec.with_workers(workers).with_checkpoint(checkpoint, resume=True)))
            _check_checkpoint(cold, "computed", len(spec.grid()))
            _check_checkpoint(resumed, "reused", len(spec.grid()))
            ops += [cold, resumed]
        finally:
            shutil.rmtree(checkpoint, ignore_errors=True)
    out["result_bytes"] = sum(op.result_bytes for op in ops)
    out["ops"] = [op.record() for op in ops]
    return out


def _check_checkpoint(op: Op, counter: str, expected: int) -> None:
    """A cold pass computes every grid point; a resumed one reuses them all."""
    if op.error is not None:
        return
    got = (op.result.checkpoint or {}).get(counter)
    if got != expected:
        op.error = "checkpoint %s=%r, expected %d" % (counter, got, expected)
