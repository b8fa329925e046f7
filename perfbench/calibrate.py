"""Record the workloads' input families and their output digests.

    python3 perfbench/calibrate.py --workload adversity

Writes the workload's 16 members into ``perfbench/inputs.json`` (see
:mod:`workloads` for how each family is chosen), each with the digests
of its outputs.  Run it only on a tree whose outputs are known to be
right: the recorded digests are the reference every benchmark run is
checked against.  ``adversity`` runs each candidate once (about 12 s on
two workers) and needs roughly a hundred candidates.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import tempfile
from dataclasses import replace
from typing import Any, Dict, Iterator, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from repro import NetScaleConfig, plan_scenario  # noqa: E402
from repro.scenario.cache import DEFAULT_CACHE, PlanCache  # noqa: E402
from tracer import Tracer  # noqa: E402

#: The adversity target is the median work of this many first candidates.
TARGET_SAMPLE = 12
#: Accepted share of deviation from the target: adversity candidates in
#: planned cell-hops (a cheap filter), members in executed events.
TOLERANCE = 0.03
MAX_CANDIDATES = 400
DEFAULT_SPEC_SEED = 2018


def _planned_cell_hops(workload: str, spec: Any, cache: PlanCache) -> int:
    """Planned cell-hops per controller kind of a scenario workload's spec."""
    if workload == "netscale":
        return plan_scenario(spec.to_scenario(), cache=cache).estimated_cost()[
            "cell_hops"
        ]
    return sum(
        plan_scenario(spec.point_scenario(loss, mttf), cache=cache)
        .estimated_cost()["cell_hops"]
        for loss, mttf in spec.grid()
    )


def _cost_matched_seeds(workload: str, tolerance: float) -> Iterator[int]:
    """Spec seeds from 2018 upward whose planned cell-hops lie within
    *tolerance* of 2018's."""
    base = NetScaleConfig() if workload == "netscale" else workloads.adversity_base()
    cache = PlanCache()
    target = _planned_cell_hops(workload, base, cache)
    for seed in range(DEFAULT_SPEC_SEED, DEFAULT_SPEC_SEED + 100 * MAX_CANDIDATES):
        cost = _planned_cell_hops(workload, replace(base, seed=seed), cache)
        if abs(cost / target - 1.0) <= tolerance:
            yield seed


def _run(workload: str, member: Dict[str, Any], tracer: Tracer,
         work_dir: str) -> Dict[str, Any]:
    """Run one member once; add its digests and executed events."""
    specs = workloads.member_specs(workload, member)
    DEFAULT_CACHE.clear()
    tracer.begin("calibrate")
    iteration = workloads.run_iteration(workload, specs, work_dir, min(2, os.cpu_count() or 1))
    digests = {}
    for op in iteration["ops"]:
        if op["error"] is not None:
            raise RuntimeError("%s %r failed: %s" % (workload, member, op["error"]))
        if digests.setdefault(op["name"].split(".")[0], op["digest"]) != op["digest"]:
            raise RuntimeError("%s %r: resumed output differs" % (workload, member))
    member = dict(member, digests=digests)
    if tracer.counts["planned_events"]:
        member["events"] = int(tracer.counts["planned_events"])
    print(workload, json.dumps(member), "%.1f s" % iteration["wall_s"], flush=True)
    return member


def calibrate(workload: str, work_dir: str) -> Dict[str, Any]:
    tracer = Tracer()
    tracer.install(full=False)
    if workload == "figures":
        members = []
        for index in range(workloads.FAMILY_SIZE):
            rng = random.Random(index)
            factors = [1.0 if index == 0 else 1.0 + rng.uniform(-0.05, 0.05)
                       for _ in range(6)]
            members.append(_run(workload, {"delay_factors": factors}, tracer, work_dir))
        return {"members": members}
    if workload == "netscale":
        seeds = _cost_matched_seeds(workload, 0.0)
        return {"members": [
            _run(workload, {"spec_seed": next(seeds)}, tracer, work_dir)
            for _ in range(workloads.FAMILY_SIZE)
        ]}
    tried: List[Dict[str, Any]] = []
    for seed in _cost_matched_seeds(workload, TOLERANCE):
        tried.append(_run(workload, {"spec_seed": seed}, tracer, work_dir))
        if len(tried) < TARGET_SAMPLE:
            continue
        target = statistics.median(m["events"] for m in tried[:TARGET_SAMPLE])
        accepted = [m for m in tried if abs(m["events"] / target - 1.0) <= TOLERANCE]
        if len(accepted) >= workloads.FAMILY_SIZE or len(tried) >= MAX_CANDIDATES:
            break
    if len(accepted) < workloads.FAMILY_SIZE:
        raise RuntimeError("only %d of %d candidates within %g of %d events"
                           % (len(accepted), len(tried), TOLERANCE, target))
    return {
        "members": accepted[:workloads.FAMILY_SIZE],
        "calibration": {"target_events": target, "tolerance": TOLERANCE,
                        "candidates_run": len(tried)},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    args = parser.parse_args()
    work_root = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
        record = calibrate(args.workload, work_dir)
    try:
        with open(workloads.INPUTS) as handle:
            inputs = json.load(handle)
    except FileNotFoundError:
        inputs = {}
    inputs[args.workload] = record["members"]
    if "calibration" in record:
        inputs["%s_calibration" % args.workload] = record["calibration"]
    with open(workloads.INPUTS, "w") as handle:
        json.dump(inputs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
