"""Exact-count self-test of the traced run, and a held-out-seed check.

    python3 perfbench/selftest.py [--seed 0] [--held-out-seed 1000]

1. Two traced runs (``run.py --trace 1``) of one seed per workload must
   report identical work counts: every per-layer metric except host
   times and the ratios built on them.
2. On ``netscale`` seed 0 the events per cell-hop are compared with the
   count pinned when the benchmark was defined, 1,506,480 / 188,256
   (8.0: four events per cell-hop per controller kind).
3. A held-out seed, one not used while the benchmark was tuned, runs
   twice per workload; its output digests must repeat and match the
   record.

Exits 1 if a count or digest does not repeat; the pin comparison is
printed, not enforced, so a change that removes events is reported
against it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PINNED_EVENTS = 1_506_480
PINNED_CELL_HOPS = 188_256

#: Per-layer metrics measured in host time (or derived from it).
TIMED = ("_s", "ns_per_event", "us_per_packet", "worker_busy_share")


def run(workload: str, seed: int, trace: int) -> Tuple[Dict[str, float], Dict[str, str], bool]:
    """One benchmark run: its metrics, op digests and correctness flag."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "digest":
            digests[parts[1]] = parts[2]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, digests, result["correct"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--held-out-seed", type=int, default=1000)
    args = parser.parse_args()
    ok = True
    for workload in ("netscale", "figures", "adversity"):
        first, _, correct_a = run(workload, args.seed, 1)
        second, _, correct_b = run(workload, args.seed, 1)
        counts = sorted(n for n in first if not n.endswith(TIMED))
        differ = [n for n in counts if first[n] != second[n]]
        ok &= not differ and correct_a and correct_b
        print("%s seed %d: %d work counts %s%s" % (
            workload, args.seed, len(counts),
            "repeat exactly" if not differ else "DIFFER: %s" % ", ".join(differ),
            "" if correct_a and correct_b else " (digest check FAILED)"))
        for name in ("sim.events", "net.deliver_calls", "tor.handle_packet_calls",
                     "transport.retransmissions", "jobs.checkpoint_writes"):
            print("  %-28s %d" % (name, first[name]))
        if workload == "netscale" and args.seed == 0:
            pinned = PINNED_EVENTS / PINNED_CELL_HOPS
            print("  sim.events_per_cell_hop %.6f; pinned %.6f (%s)" % (
                first["sim.events_per_cell_hop"], pinned,
                "same" if first["sim.events_per_cell_hop"] == pinned else "differs"))
    for workload in ("netscale", "figures", "adversity"):
        _, digests_a, correct_a = run(workload, args.held_out_seed, 0)
        _, digests_b, correct_b = run(workload, args.held_out_seed, 0)
        repeat = digests_a == digests_b and correct_a and correct_b
        ok &= repeat
        print("%s held-out seed %d: %d digests %s" % (
            workload, args.held_out_seed, len(digests_a),
            "repeat and match the record" if repeat else "DO NOT repeat"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
