"""spdelab benchmark: the acceptance suite's jobs, timed end to end and per layer.

    python3 perfbench/run.py --workload {rd16-suite,ou8-moments,converge} \\
                             --seed N --seconds S --trace {0,1}

Run from the repository root (the program is imported from ``src/``).  Each
job runs in a fresh process (``perfbench/job.py``) with the BLAS and OpenMP
pools pinned to one thread, so the workload's ``threads`` is the only
parallelism and ``setup_s`` / ``peak_rss_mb`` belong to that job.  A run

1. runs the job once, untimed, at the other thread count (1 <-> 2) as the
   reference report;
2. runs jobs back to back (a closed loop with one client) for ``--seconds``,
   in at least ``MIN_PROCESSES`` processes that each set up once and repeat
   the job; with ``--trace 1`` these alternate with traced processes of one
   job each (at least two of each), and per-layer metrics come from the
   traced ones;
3. checks that every job's report digest equals the reference: the report
   depends only on the seed, never on the thread count or on tracing;
4. prints the host record, a summary with ``failed_ratio``, and last the
   result line.  ``attempted`` / ``failed`` count gated results over all jobs.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (numpy only; spdelab is imported by the jobs)

THREADS = {"rd16-suite": 2, "ou8-moments": 1, "converge": 1}
"""Thread count each workload is timed at; the reference run uses the other."""
MIN_PROCESSES = 6
JOB_TIMEOUT_S = 60
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_s": "s", "path_steps_per_s": "path_steps/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def job_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({k: "1" for k in PINNED})
    return env


def run_process(workload: str, seed: int, threads: int, size: str = "full",
                repeat_for: float = 0.0, trace_file: Path | None = None) -> dict:
    """Jobs of one workload in a fresh process; returns its result record."""
    cmd = [sys.executable, str(HERE / "job.py"), workload, "--seed", str(seed),
           "--threads", str(threads), "--size", size, "--repeat-for", repr(repeat_for)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=job_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"job {workload} (threads {threads}) exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_record() -> dict:
    import numpy
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = out.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_lines": src_lines}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    threads = THREADS[workload]
    other = 2 if threads == 1 else 1
    ref_proc = run_process(workload, seed, other)
    reference = ref_proc["jobs"][0]
    procs, layer_runs = [], []
    trace_dir = ROOT / ".bench_trace"
    deadline = time.monotonic() + seconds

    def enough() -> bool:
        plain_runs = len(procs) - len(layer_runs)
        if trace:
            return plain_runs >= 2 and len(layer_runs) >= 2
        return plain_runs >= MIN_PROCESSES

    while time.monotonic() < deadline or not enough():
        if trace and len(procs) % 2 == 1:
            trace_dir.mkdir(exist_ok=True)
            trace_file = trace_dir / f"{workload}-{len(layer_runs)}.jsonl"
            procs.append(run_process(workload, seed, threads, trace_file=trace_file))
            layer_runs.append(tracer.layer_metrics(*tracer.read_spans(trace_file)))
        else:
            # The time left is shared among the processes still needed, so
            # set-up is sampled MIN_PROCESSES times and the run ends near the
            # deadline.  A process outlasts its repeat time by its set-up and
            # up to one job, estimated from the last plain process.
            last = next((p for p in reversed(procs) if not p["traced"]), ref_proc)
            overrun = last["setup_s"] + last["jobs"][0]["wall_s"]
            plain_runs = len(procs) - len(layer_runs)
            slot = (deadline - time.monotonic()) / max(1, MIN_PROCESSES - plain_runs)
            procs.append(run_process(workload, seed, threads,
                                     repeat_for=max(slot - overrun, 0.0)))

    jobs = [j for p in procs for j in p["jobs"]]
    attempted = sum(len(j["ops"]) for j in jobs)
    failed = sum(not ok for j in jobs for _, ok in j["ops"])
    correct = all(j["digest"] == reference["digest"] for j in jobs)
    plain = [p for p in procs if not p["traced"]]
    walls = [j["wall_s"] for p in plain for j in p["jobs"]]
    e2e = {"wall_s": statistics.median(walls),
           "path_steps_per_s": statistics.median(plain[0]["path_steps"] / w for w in walls),
           "setup_s": statistics.median(p["setup_s"] for p in plain),
           "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain)}
    summary = dict(e2e, failed_ratio=failed / attempted, jobs=len(walls),
                   processes=len(plain), traced_jobs=len(layer_runs), threads=threads,
                   reference_threads=other,
                   missed=sorted({name for j in jobs for name, ok in j["ops"] if not ok}))
    if trace:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        # both sides are a process's first job after set-up (cold caches)
        layers["trace.overhead_s"] = (
            statistics.median(p["jobs"][0]["wall_s"] for p in procs if p["traced"])
            - statistics.median(p["jobs"][0]["wall_s"] for p in plain))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {"summary": summary, "result": {"correct": correct, "attempted": attempted,
                                           "failed": failed, "metrics": metrics}}


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name == "noise.useful_ratio":
        return "ratio"
    if name.startswith("reaction.transforms_per_path_step."):
        return "count/path_step"
    if name == "reaction.transform_bytes":
        return "bytes_computed"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(THREADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spdelab" / "__init__.py").is_file():
        print(f"no spdelab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print("host " + json.dumps(host_record(), sort_keys=True))
    for k, v in out["summary"].items():
        unit = END_TO_END_UNITS.get(k, "ratio" if k == "failed_ratio" else "")
        print(f"{k:>18} {v} {unit}".rstrip())
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
