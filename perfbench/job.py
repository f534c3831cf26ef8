"""One benchmark job in a fresh process: set up a workload, run it once, report.

    python3 perfbench/job.py WORKLOAD --seed S --threads T --spawned CLOCK
                             [--size full|small]
                             [--repeat-for SECONDS | --trace FILE]

``--spawned`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` runs from process start (interpreter, imports, model
set-up) to the first simulated step.  Each job's ``wall_s`` runs from its
first simulated step to its checked verdict.  ``--repeat-for`` runs the job
again on the same set-up until that many seconds have passed since the first
job started; ``peak_rss_mb`` covers set-up and the first job.  With
``--trace FILE`` the layer entry points are wrapped, one job runs and the
spans are written to FILE.  The result is one JSON line.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--repeat-for", type=float, default=0.0)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv)
    if args.trace and args.repeat_for:
        ap.error("a traced process runs one job")

    tr = None
    if args.trace:
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.workload][args.size]
    state = setup(args.seed, args.threads, size)
    start = time.monotonic()
    jobs = []
    while not jobs or time.monotonic() - start < args.repeat_for:
        w0 = time.monotonic()
        ops = run(state)
        w1 = time.monotonic()
        digest = hashlib.sha256("\n".join(
            f"{op.name}\t{op.ok}\t{op.report}" for op in ops).encode()).hexdigest()
        jobs.append({"wall_s": w1 - w0, "ops": [[op.name, op.ok] for op in ops],
                     "digest": digest})
        if len(jobs) == 1:
            # later jobs reuse freed memory in ways that vary with the job
            # count, so the peak is taken over set-up and the first job
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        tr.write(args.trace, {"workload": args.workload, "threads": args.threads,
                              "wall": [w0, w1]})
    print(json.dumps({
        "workload": args.workload, "threads": args.threads, "traced": tr is not None,
        "setup_s": start - args.spawned,
        "path_steps": workloads.path_steps(args.workload, size),
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
