"""Engine child of ``durable_commit``: runs the op stream, then idles.

Started by ``workloads.DurableCommit``.  Opens the farm ``durable=True``
with default checkpoint thresholds, reports ``ready``, waits for one
command (``run SECONDS`` or ``trace SECONDS``), runs the shared
measurement loop, writes its raw samples next to the farm, replies
with one JSON line and then blocks on stdin — the parent SIGKILLs it
there, after the last acknowledgement and without a clean close.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from harness import peak_rss_kb, timed_loop
from layers import PlainExecutor
from workloads import DurableOps


def main() -> None:
    farm, seed = sys.argv[1], int(sys.argv[2])
    workload = DurableOps(seed, farm)
    workload.setup()
    executor = PlainExecutor(workload.conn)
    statements = workload.attach(executor)
    print(json.dumps({"ready": True}), flush=True)
    command, seconds = sys.stdin.readline().split()
    if command == "run":
        samples = timed_loop(workload, executor, statements, float(seconds))
        path = farm + ".samples.npz"
        np.savez(
            path, latency=samples.latency, cpu=samples.cpu, slowdown=samples.slowdown
        )
        reply = {
            "samples": path,
            "attempted": samples.attempted,
            "failed": samples.failed,
        }
    else:
        result = workload.trace(float(seconds))
        path = farm + ".spans.json"
        with open(path, "w") as handle:
            json.dump(result.spans, handle)
        reply = {
            "spans": path,
            "metrics": result.metrics,
            "shares": result.shares,
            "attempted": result.attempted,
            "failed": result.failed,
            "truncated": result.truncated,
        }
    reply["acked"] = workload.acked
    reply["rss_kb"] = peak_rss_kb()
    print(json.dumps(reply), flush=True)
    sys.stdin.readline()  # killed here by the parent


if __name__ == "__main__":
    main()
