"""Fresh-interpreter side of the benchmark (started by ``run.py``).

``probe.py setup --workload W``
    Times ``import repro`` (which fills the experiment registry) plus
    building and validating the workload's specs, read as JSON from
    stdin.  Prints ``{"setup_s": ...}``.

``probe.py run --workload W --seconds S --trace 0|1 --work-dir D --workers N --reference-fds W,R``
    Runs untraced iterations of the workload, from a cold plan cache
    each, for about *S* seconds (never starting one that would end past
    the budget, and always at least one), each between two timings of
    the reference workload by the helper process whose pipe ends *W*
    (write a line: run a pass) and *R* (read its seconds) the probe
    inherits (``reference.py``).  With ``--trace 1`` one traced
    iteration follows and the per-layer metrics are added.  Prints one
    JSON object with every iteration's timings and output digests.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time


def _setup(workload: str, items) -> dict:
    start = time.perf_counter()
    import workloads

    workloads.decode_specs(items)
    return {"setup_s": time.perf_counter() - start}


def _cell_hops(tracer, workload: str) -> float:
    """Cell transmissions over hops simulated in the last iteration."""
    if workload != "figures":
        return tracer.counts["cell_hops"]
    return tracer.sender_totals()["cells_sent"]


def _iteration(tracer, workload, specs, args, run_id, workers):
    import workloads
    from repro.scenario.cache import DEFAULT_CACHE

    DEFAULT_CACHE.clear()
    tracer.begin(run_id)
    result = workloads.run_iteration(workload, specs, args.work_dir, workers)
    result["cell_hops"] = _cell_hops(tracer, workload)
    if workload == "figures":
        result["sim_s"] = result["wall_s"]
    else:
        result["sim_s"] = tracer.stat("scenario", "run_planned")[1]
    return result


def _run(args, items) -> dict:
    import workloads
    from reference import RemoteReference
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(full=False)
    tracer.keep_senders = args.workload == "figures"
    specs = workloads.decode_specs(items)
    time_reference = RemoteReference(args.reference_fds).time
    iterations = []
    start = time.perf_counter()
    ref_before = time_reference()
    while True:
        it = _iteration(tracer, args.workload, specs, args,
                        "untraced-%d" % len(iterations), args.workers)
        ref_after = time_reference()
        # The machine's speed while the iteration ran, from both sides.
        it["ref_s"] = (ref_before + ref_after) / 2
        ref_before = ref_after
        iterations.append(it)
        elapsed = time.perf_counter() - start
        if elapsed * (len(iterations) + 1) / len(iterations) > args.seconds:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pooled = args.workload == "adversity" and args.workers > 1
    out = {
        "iterations": iterations,
        # Upper bound: the workload process's peak plus every pool
        # worker at the largest worker's peak (ru_maxrss is in KiB).
        "peak_rss_mb": (self_kb + (child_kb * args.workers if pooled else 0)) / 1024.0,
        "workers": args.workers if pooled else 1,
    }
    if args.trace:
        out["traced"] = _traced(tracer, args, specs, iterations)
    return out


def _traced(tracer, args, specs, iterations) -> dict:
    from tracer import layer_metrics

    workers = args.workers
    note = None
    if args.workload == "adversity" and multiprocessing.get_start_method() != "fork":
        # Spans come back from forked workers only; run the pass serially.
        workers = 1
        note = "traced adversity pass ran serially (start method %r)" % (
            multiprocessing.get_start_method())
    tracer.install(full=True)
    it = _iteration(tracer, args.workload, specs, args, "traced", workers)
    untraced_wall = statistics.median(i["wall_s"] for i in iterations)
    resume = [i["resume_s"] for i in iterations if "resume_s" in i]
    metrics = layer_metrics(
        tracer,
        cell_hops=it["cell_hops"],
        result_bytes=it["result_bytes"],
        traced_s=it["wall_s"] + it.get("resume_s", 0.0),
        overhead_s=it["wall_s"] - untraced_wall,
        resume_s=statistics.median(resume) if resume else 0.0,
    )
    with open(args.trace_out, "w") as handle:
        json.dump({"spans": tracer.spans, "stats": tracer.stats}, handle)
    return {"iteration": it, "metrics": metrics, "note": note,
            "spans": len(tracer.spans), "trace_file": args.trace_out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=".")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace-out", default=os.devnull)
    parser.add_argument("--reference-fds")
    args = parser.parse_args()
    items = json.load(sys.stdin)
    if args.mode == "setup":
        out = _setup(args.workload, items)
    else:
        out = _run(args, items)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
