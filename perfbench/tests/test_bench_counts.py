"""Self-test: the counts the trace reports repeat exactly.

Two runs of one seed, and runs at threads 1 and 2, must give equal counts
and equal report digests.  Small sizes; run with

    python3 -m pytest perfbench/tests
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run as bench  # noqa: E402
import tracer  # noqa: E402

COUNTS = ("noise.generators", "noise.normals_drawn", "reaction.transforms",
          "simulate.path_steps", "montecarlo.blocks", "kernels.integral_calls")


@pytest.mark.parametrize("workload", sorted(bench.THREADS))
def test_counts_repeat_exactly(workload, tmp_path):
    seen = []
    for i, threads in enumerate((1, 1, 2)):
        spans = tmp_path / f"{i}.jsonl"
        proc = bench.run_process(workload, seed=3, threads=threads, size="small",
                                 trace_file=spans)
        metrics = tracer.layer_metrics(*tracer.read_spans(spans))
        seen.append(({k: metrics[k] for k in COUNTS}, proc["jobs"][0]["digest"]))
    assert seen[0] == seen[1] == seen[2]
    counts = seen[0][0]
    assert counts["noise.generators"] > 0
    # the traced work equals the fixed work that path_steps_per_s divides by
    assert counts["simulate.path_steps"] == proc["path_steps"]
