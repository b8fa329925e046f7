"""The repository benchmark: ``python3 perfbench/run.py --workload W --seed N``.

Runs one workload (``netscale``, ``figures`` or ``adversity``) through the
public ``repro`` API from the checkout's own ``src/``, measures it in
fresh interpreters, checks every output against its recorded digest
and prints one human-readable block followed, on the last line, by one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (host time, untraced);
``--trace 1`` adds one traced iteration and reports the per-layer
metrics instead.  See ``perfbench/README.md`` for what each means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters timed for ``setup_s`` in every run (median reported).
SETUP_PROBES = 5
#: Every run, set-up included, ends well within the 180 s a run may take.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "cell_hops_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a probe crashed, ...)."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("us_per_packet"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("ratio", "share", "per_cell_hop")):
        return "ratio"
    return "count"


def _child_env() -> Dict[str, str]:
    # The program's own cache/checkpoint settings must not leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def _probe(args: List[str], items: Any, deadline: float,
           pass_fds: Tuple[int, ...] = ()) -> Dict[str, Any]:
    """Run ``probe.py`` in a fresh interpreter; return its JSON answer.

    The probe gets its own process group, so a probe that overruns the
    deadline is stopped together with any pool workers it started.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before probe %s" % args[0])
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py")] + args,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=_child_env(), start_new_session=True,
        pass_fds=pass_fds,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(items), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("probe %s timed out" % " ".join(args[:3])) from None
    if proc.returncode != 0:
        raise BenchError("probe %s exited %d:\n%s" % (
            " ".join(args[:3]), proc.returncode, stderr.strip()[-2000:]))
    return json.loads(stdout.strip().splitlines()[-1])


def _load_program():
    """Import ``repro`` from this checkout's ``src/``, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError("no program source at %s" % SRC)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError("imported repro from %s, not %s" % (repro.__file__, SRC))


def check_outputs(member: Dict[str, Any], runs: List[Dict[str, Any]]):
    """Compare every op's digest with the member's recorded one.

    The resumed adversity pass must reproduce the cold pass's digest.
    Returns ``(attempted, failed, errors)``.
    """
    attempted = failed = 0
    errors: List[str] = []
    for run in runs:
        for op in run["ops"]:
            attempted += 1
            expected = member["digests"].get(op["name"].split(".")[0])
            if op["error"] is not None or op["digest"] != expected:
                failed += 1
                errors.append("%s: %s" % (
                    op["name"], op["error"] or "digest %s != recorded %s" % (op["digest"], expected)))
    return attempted, failed, errors


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("netscale", "figures", "adversity"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        _load_program()
        import workloads

        member = workloads.load_member(args.workload, args.seed)
        items = workloads.generate_specs(args.workload, args.seed)
        setup = [
            _probe(["setup", "--workload", args.workload], items, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        os.makedirs(WORK, exist_ok=True)
        trace_out = os.path.join(WORK, "trace-%s-seed%d.json" % (args.workload, args.seed))
        workers = min(2, os.cpu_count() or 1)
        # The reference helper is this process's child, not the probe's,
        # so the probe's peak RSS never includes it.  On adversity it runs
        # as many passes side by side as the pool runs jobs.
        helper = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py"),
             str(workers if args.workload == "adversity" else 1)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=_child_env(),
            start_new_session=True)
        try:
            fds = (helper.stdin.fileno(), helper.stdout.fileno())
            run = _probe([
                "run", "--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--work-dir", WORK,
                "--workers", str(workers), "--trace-out", trace_out,
                "--reference-fds", "%d,%d" % fds,
            ], items, deadline, pass_fds=fds)
        finally:
            helper.stdin.close()
            try:
                helper.wait(timeout=5)
            except subprocess.TimeoutExpired:
                os.killpg(helper.pid, signal.SIGKILL)
                helper.wait()
            helper.stdout.close()
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    iterations = run["iterations"]
    checked = iterations + ([run["traced"]["iteration"]] if args.trace else [])
    attempted, failed, errors = check_outputs(member, checked)
    walls = [it["wall_s"] for it in iterations]
    speeds = [it["cell_hops"] / it["sim_s"] for it in iterations]
    refs = [it["ref_s"] for it in iterations]
    # Timings in multiples of the reference timed around each iteration
    # (see reference.py): the machine's own drift divides out.
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "cell_hops_per_ref": statistics.median(v * r for v, r in zip(speeds, refs)),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    print("perfbench %s seed=%d iterations=%d workers=%d (host time, medians)"
          % (args.workload, args.seed, len(iterations), run["workers"]))
    for name, value in end_to_end.items():
        print("  %-28s %14.6g %s" % (name, value, END_TO_END_UNITS[name]))
    print("  %-28s %14.6g s (as measured)" % ("wall_s", statistics.median(walls)))
    print("  %-28s %14.6g 1/s (as measured)" % ("cell_hops_per_s", statistics.median(speeds)))
    print("  %-28s %14.6g s (the reference)" % ("ref_s", statistics.median(refs)))
    print("  wall_s per iteration: %s" % " ".join("%.4f" % w for w in walls))
    print("  ref_s per iteration: %s" % " ".join("%.4f" % r for r in refs))
    print("  %-28s %14.6g (%d/%d ops)" % ("failed_frac", failed / attempted, failed, attempted))
    resume = [it["resume_s"] for it in iterations if "resume_s" in it]
    if resume:
        print("  %-28s %14.6g s" % ("resume_s", statistics.median(resume)))
    print("  input: family member %d (%s); digests recorded, field excluded: %s" % (
        args.seed % workloads.FAMILY_SIZE,
        ", ".join("%s=%s" % (k, v) for k, v in member.items() if k != "digests"),
        workloads.STRIPPED_FIELD))
    for op in iterations[0]["ops"]:
        print("  digest %s %s" % (op["name"], op["digest"]))
    for error in errors:
        print("  FAILED %s" % error)
    improvements = [it["ttlb_improvement_s"] for it in iterations if "ttlb_improvement_s" in it]
    if improvements:
        print("  check value (simulated time, not a metric): CircuitStart median "
              "TTLB improvement %.6f s" % improvements[0])
    if args.trace:
        traced = run["traced"]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in traced["metrics"].items()}
        print("per-layer (one traced iteration, %d spans in %s)"
              % (traced["spans"], os.path.relpath(traced["trace_file"], ROOT)))
        if traced["note"]:
            print("  note: %s" % traced["note"])
        for name, metric in metrics.items():
            print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
