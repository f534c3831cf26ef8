#!/usr/bin/env python3
"""Run every row of the CLI case table at --threads 1 and 2 and store what each run prints.

    python3 tools/report_matrix.py --src path/to/old/src --out matrix_old
    python3 tools/report_matrix.py --src src --out matrix_new
    diff -r matrix_old matrix_new

The rows are those of ``tests/cli_cases.py``; to add a case, add a row there.  Each run
gets a directory ``<id>_t1`` or ``<id>_t2`` holding its ``stdout``, ``stderr`` and
``exit_code``.  The tool exits 1, naming the run or row on stderr, on any finding:

- a run whose exit code or first stderr line disagrees with its row;
- a row whose stdout depends on ``--threads``;
- a Python traceback or a numpy ``RuntimeWarning`` in a run's stderr: a failure ends in an
  exit code and a one-line message, an uncaught exception exits 1, the code of a failed
  gate, and a warning would only repeat what the failure line names;
- a run that times out (exit code ``timeout``) or raises ``MemoryError``.  Every run has
  ``TIMEOUT_S`` seconds and ``ADDRESS_SPACE`` bytes (``RLIMIT_AS``, set in the child), so a
  hang or a runaway allocation ends the run, not the job or the machine.  On a 2-vCPU host
  the largest run maps 0.37 GB and the slowest takes 1.2 s.

Each run is a fresh interpreter with ``PYTHONPATH=SRC`` and, as working directory, a
scratch directory holding the row's files, so the file names a report carries are the same
for any two source trees.  In stderr the path of SRC is written as ``<src>`` and the line
of each ``<src>/spdelab/<file>.py:<n>:`` location as ``<line>``, so two trees whose warnings
differ only in the line they name give the same stderr (``tests/test_kernels.py`` checks
which line each kernel warning names).
"""
from __future__ import annotations

import argparse
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cli_cases import CASES  # noqa: E402

# the limits every run has (module doc)
TIMEOUT_S = 300
ADDRESS_SPACE = 2 << 30  # bytes

# rows first run at one thread count only, whose threads-1 directory has no suffix
UNSUFFIXED = {"validate_alpha06", "invariant_ou-invariant_chunks"}


def run_row(row, src: str, out: Path) -> list[str]:
    """Run ``row`` at --threads 1 and 2 on the spdelab in ``src``, store each run under
    ``out``, and return the findings, each starting with the run or row it names."""
    env = dict(os.environ, PYTHONPATH=src)
    findings, printed = [], []
    for threads in (1, 2):
        name = row.id if threads == 1 and row.id in UNSUFFIXED else f"{row.id}_t{threads}"
        with tempfile.TemporaryDirectory() as tmp:
            argv = row.command(Path(tmp), threads)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "spdelab.cli", *argv], cwd=tmp, env=env,
                    capture_output=True, text=True, timeout=TIMEOUT_S,
                    preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE,) * 2))
                stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
            except subprocess.TimeoutExpired:
                stdout, stderr, code = "", "", "timeout"
        case = out / name
        case.mkdir(parents=True, exist_ok=True)
        (case / "stdout").write_text(stdout)
        (case / "stderr").write_text(re.sub(r"(<src>/spdelab/\w+\.py):\d+:", r"\1:<line>:",
                                            stderr.replace(src, "<src>")))
        (case / "exit_code").write_text(f"{code}\n")
        print(f"{code} {name}", flush=True)
        printed.append(stdout)
        first = stderr.partition("\n")[0]
        if code != row.code or (row.stderr not in first if row.stderr else first):
            findings.append(f"{name} exits {code} with first stderr line {first!r}; its row "
                            f"expects {row.code} with {row.stderr!r}")
        for marker in ("Traceback (most recent call last)", "RuntimeWarning"):
            if marker in stderr:
                findings.append(f"{name} has {marker!r} in its stderr")
        if code == "timeout":
            findings.append(f"{name} ran past its {TIMEOUT_S} s timeout")
        elif "MemoryError" in stderr:
            findings.append(f"{name} ran out of its {ADDRESS_SPACE >> 30} GiB address space")
    if printed[0] != printed[1]:
        findings.append(f"{row.id} prints a different stdout at --threads 1 and 2")
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the spdelab package")
    ap.add_argument("--out", required=True, help="directory to write the run outputs to")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    findings = [line for row in CASES for line in run_row(row, src, Path(args.out))]
    for line in findings:
        print(line, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
