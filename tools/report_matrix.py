#!/usr/bin/env python3
"""Run the spdelab CLI over a fixed matrix of cases and store what each prints.

    python3 tools/report_matrix.py --src path/to/old/src --out matrix_old
    python3 tools/report_matrix.py --src src --out matrix_new
    diff -r matrix_old matrix_new

After writing every case, the tool compares the stdout of each ``*_t1``/``*_t2``
pair and names each pair that differs: a report must not depend on
``--threads``.  It also names each case whose stderr holds a Python traceback or a numpy
``RuntimeWarning``: every failure must end in an exit code and a one-line
message, an uncaught exception exits 1, the code of a failed gate, and a
warning only repeats on stderr what the failure line names.  Any finding makes
it exit 1.

Every command runs on ``preset:rd16`` and ``preset:ou8`` at ``--threads`` 1
and 2, once with a small experiment and once started at ``x = 1e160*ones``
(with f = coord1, so per-path values are finite but huge).  ``converge`` and
``invariant`` also run on their OU presets, and ``validate`` on a
reaction-diffusion model whose kernel integral tail is above tolerance
(alpha = 0.6).  One more ``invariant`` case runs 20000 paths, which the CLI splits into
blocks of 4096, each run as several tiles of several noise chunks, and ``check gradient``
on ``rd16`` and ``check poincare`` on ``ou8`` run 4100 paths at ``--threads`` 1 and 2, so
the thread pool runs two blocks.  Every command also runs at
``--threads 1`` on two model files: an OU reference and a 2-d reaction-diffusion model (whose
kernel integral tail is above tolerance too).  A few ``ou8`` cases run edge inputs: a
direction ``v = 1e200*e1`` whose squared derivative overflows, ``checkpoints = 0``, ``m = 0``
and ``m = 1e3`` (the last also on ``constants``, which reads every key though it samples
nothing), ``seed = -1`` on ``invariant`` (which reports the seed mod 2^64 its noise
stream uses), and ``t_end = 0.25``, ``dt = 0.1`` on ``invariant`` (which runs and reports
two steps of dt = 0.125); ``check gradient`` runs on ``rd16`` and ``ou8`` with the removed key
``scheme = euler_maruyama`` and on ``ou8`` with the removed keys ``k = 4.0`` and
``batch_size = 16`` (each exits 2 naming the key), and ``constants`` reads a model file with
``[galerkin] n = 1.5`` and one
with ``[phi] amp = 1e200``, whose square overflows (each exits 2).  ``constants`` and
``check gradient`` run on a model file with the drift slope ``[psi] a = 1e150``, which
makes 6^{t/t0} overflow a float (``constants`` writes those constants as "inf") and the
state overflow within a few steps (``check gradient`` exits 3).  ``check flowbound`` runs
at t = 40 and t = 60 on a model file with a Lipschitz drift (slope 0.1) and slow decay
(L = 100, alpha = 0.6), where t0 is 1 and the bound holds (it reads e^{2(0.1 - lambda_1) t}
for mode 1's deterministic flow).  One
``constants`` case on ``ou8`` writes to ``--out missing/report.json``, whose directory does
not exist (it exits 2).  ``constants`` reads a model file with alpha = 40, whose eigenvalue
4096 overflows a float (it exits 2 with one line naming alpha), and ``invariant`` runs on
a model file with phi = s + 1 at eps0 = 1.0001, C0 = 3001, whose growth condition fails
only for 1633 < |s| < 18367 (it reports ``"holds": false`` and exits 2).  Each case gets
a directory holding ``stdout``, ``stderr`` and ``exit_code``.

Every case runs under a timeout of ``TIMEOUT_S`` seconds and an address-space cap of
``ADDRESS_SPACE`` bytes (``RLIMIT_AS``, set in the child before it starts), so a hang or a
runaway allocation ends the case instead of the job or the machine.  A case that times
out (exit code ``timeout``) or raises ``MemoryError`` is a finding too.  On a 2-vCPU
host the largest case maps 0.37 GB at its peak and the slowest runs 1.2 s, far inside
both limits.

Each case runs in a fresh interpreter with ``PYTHONPATH=SRC`` and, as working
directory, a scratch directory holding the experiment and model files, so the
file names a report carries are the same for any two source trees.  The path
of SRC in stderr (warning locations) is written as ``<src>``, and the line
number of each ``<src>/spdelab/<file>.py:<n>:`` location as ``<line>``, so
that two trees whose warnings differ only in the line they name give the same
stderr.  Which line each kernel warning names is checked by the warning
tests in ``tests/test_kernels.py``.
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

# f = 2 + sin(x_1) is strictly positive, so the log-Harnack check runs too
SMALL = {"t": "0.02", "m": "48", "dt": "2e-3", "t_end": "0.02", "checkpoints": "2",
         "n_list": "2 4", "bign": "8", "f": "two_plus_sin1", "y": "0.1*ones"}
HUGE = dict(SMALL, x="1e160*ones", f="coord1")
# 20000 paths of 200 steps run as 5 blocks of at most 4096 paths, each as 4 tiles drawn in
# two noise chunks of 100 steps; the checkpoints fall in both
CHUNKS = {"m": "20000", "t_end": "0.2", "dt": "1e-3", "checkpoints": "6"}
# 4100 paths: two blocks, which the thread pool runs at --threads 2
TWOBLOCKS = dict(SMALL, m="4100")
# mode 1 of the Lipschitz-drift model follows its deterministic flow
LIPSCHITZ = {"v": "e1", "f": "coord1", "x": "zeros", "dt": "1e-2", "seed": "3", "m": "200"}
# edge inputs, each run by the commands listed in EDGE_CASES
EDGES = {"bigv": dict(SMALL, v="1e200*e1"), "nocheckpoints": dict(SMALL, checkpoints="0"),
         "nopaths": dict(SMALL, m="0"), "floatm": dict(SMALL, m="1e3"),
         "em": dict(SMALL, scheme="euler_maruyama", dt="1e-3"), "slackkey": dict(SMALL, k="4.0"),
         "batchkey": dict(SMALL, batch_size="16"),
         "negseed": dict(SMALL, seed="-1"),
         # 0.25/0.1 rounds to 2 steps, run at dt = 0.125
         "roundeddt": dict(SMALL, t_end="0.25", dt="0.1")}
EDGE_CASES = ((["check", "gradient"], "ou8", "bigv"), (["check", "variance"], "ou8", "bigv"),
              (["invariant"], "ou8", "nocheckpoints"),
              (["dump-trajectories"], "ou8", "nopaths"),
              (["check", "gradient"], "ou8", "floatm"), (["check", "gradient"], "rd16", "em"),
              (["check", "gradient"], "ou8", "em"), (["check", "gradient"], "ou8", "slackkey"),
              (["check", "gradient"], "ou8", "batchkey"),
              (["constants"], "ou8", "floatm"), (["invariant"], "ou8", "negseed"),
              (["invariant"], "ou8", "roundeddt"))

SLOW_TAIL_MODEL = """[model]
kind = reaction_diffusion
[domain]
d = 1
side_0 = 0 1
[alpha]
value = 0.6
[psi]
form = atan_scaled
a = 0.5
[phi]
form = sin_perturbed
c0 = 1.0
amp = 0.1
freq = 1.0
[galerkin]
n = 8
quad_points = 32
"""

OU_MODEL = """[model]
kind = ou
[ou]
lambdas = 0.5 1 1.5 2 2.5 3 3.5 4
phi0 = 0.7
"""

RD2D_MODEL = """[model]
kind = reaction_diffusion
[domain]
d = 2
side_0 = 0 1
side_1 = 0 2
[alpha]
value = 1.5
[psi]
form = affine
a = -0.5
b = 0.1
[phi]
form = sin_perturbed
c0 = 1.0
amp = 0.1
freq = 1.0
[galerkin]
n = 8
quad_points = 16
"""

# a drift slope of 1e150 leaves t0 so small that 6^{t/t0} overflows a float
STEEP_MODEL = """[model]
kind = reaction_diffusion
[domain]
d = 1
side_0 = 0 1
[alpha]
value = 2.0
[psi]
form = affine
a = 1e150
b = 0.0
[phi]
form = affine
a = 0.0
b = 1.0
[galerkin]
n = 16
quad_points = 64
"""

# a Lipschitz drift with slow decay: the flow bound holds only because t0 is at most 1
LIPSCHITZ_MODEL = """[model]
kind = reaction_diffusion
[domain]
d = 1
side_0 = 0 100
[alpha]
value = 0.6
[psi]
form = affine
a = 0.1
b = 0.0
[phi]
form = affine
a = 0.0
b = 1.0
[galerkin]
n = 16
quad_points = 64
"""

# phi = s + 1 breaks phi^2 + psi^2 <= 1.0001 s^2 + 3001 only for 1633 < |s| < 18367
GROWTH_MODEL = """[model]
kind = reaction_diffusion
[domain]
d = 1
side_0 = 0 1
[alpha]
value = 2.0
[psi]
form = affine
a = 0.0
b = 0.0
[phi]
form = affine
a = 1.0
b = 1.0
[galerkin]
n = 16
quad_points = 64
"""

MODEL_FILES = {"alpha06.ini": SLOW_TAIL_MODEL, "ou.ini": OU_MODEL, "rd2d.ini": RD2D_MODEL,
               "floatn.ini": SLOW_TAIL_MODEL.replace("n = 8", "n = 1.5"),
               "bigamp.ini": SLOW_TAIL_MODEL.replace("amp = 0.1", "amp = 1e200"),
               "alpha40.ini": SLOW_TAIL_MODEL.replace("value = 0.6", "value = 40.0")
               .replace("n = 8\nquad_points = 32", "n = 16\nquad_points = 64"),
               "steep.ini": STEEP_MODEL, "lipschitz.ini": LIPSCHITZ_MODEL,
               "growth.ini": GROWTH_MODEL}

# the limits every case runs under (module doc)
TIMEOUT_S = 300
ADDRESS_SPACE = 2 << 30  # bytes

COMMANDS = (["validate"], ["constants"], ["check", "gradient"], ["check", "logharnack"],
            ["check", "variance"], ["check", "poincare"], ["check", "flowbound"],
            ["converge"], ["invariant"], ["dump-trajectories"], ["dump-field"])


def cases():
    """(name, argv, config name) of every case, in a fixed order."""
    for model in ("rd16", "ou8"):
        for cfg in ("small", "huge"):
            for threads in ("1", "2"):
                for cmd in COMMANDS:
                    yield (f"{'-'.join(cmd)}_{model}_{cfg}_t{threads}",
                           cmd + ["--model", f"preset:{model}", "--threads", threads], cfg)
    for cmd, model in (("converge", "ou-converge"), ("invariant", "ou-invariant")):
        for threads in ("1", "2"):
            yield (f"{cmd}_{model}_small_t{threads}",
                   [cmd, "--model", f"preset:{model}", "--threads", threads], "small")
    yield "validate_alpha06", ["validate", "--model", "alpha06.ini"], "small"
    yield ("invariant_ou-invariant_chunks",
           ["invariant", "--model", "preset:ou-invariant"], "chunks")
    for cmd, model in ((["check", "gradient"], "rd16"), (["check", "poincare"], "ou8")):
        for threads in ("1", "2"):
            yield (f"{'-'.join(cmd)}_{model}_twoblocks_t{threads}",
                   cmd + ["--model", f"preset:{model}", "--threads", threads], "twoblocks")
    for model in ("ou", "rd2d"):
        for cmd in COMMANDS:
            yield (f"{'-'.join(cmd)}_{model}-file_small_t1",
                   cmd + ["--model", f"{model}.ini", "--threads", "1"], "small")
    for cmd, model, cfg in EDGE_CASES:
        yield (f"{'-'.join(cmd)}_{model}_{cfg}_t1",
               cmd + ["--model", f"preset:{model}", "--threads", "1"], cfg)
    yield "constants_floatn-file_small_t1", ["constants", "--model", "floatn.ini"], "small"
    yield "constants_bigamp-file_small_t1", ["constants", "--model", "bigamp.ini"], "small"
    yield "constants_steep-file_small_t1", ["constants", "--model", "steep.ini"], "small"
    yield ("check-gradient_steep-file_small_t1",
           ["check", "gradient", "--model", "steep.ini", "--threads", "1"], "small")
    for t in ("40", "60"):
        yield (f"check-flowbound_lipschitz-file_t{t}_t1",
               ["check", "flowbound", "--model", "lipschitz.ini", "--threads", "1"],
               f"lipschitz{t}")
    yield ("constants_ou8_unwritable-out_t1",
           ["constants", "--model", "preset:ou8", "--out", "missing/report.json"], "small")
    yield "constants_alpha40-file_small_t1", ["constants", "--model", "alpha40.ini"], "small"
    yield ("invariant_growth-file_wide_t1",
           ["invariant", "--model", "growth.ini", "--threads", "1"], "wide")


def write_inputs(work: Path):
    for name, cfg in (("small", SMALL), ("huge", HUGE), ("chunks", CHUNKS),
                      ("twoblocks", TWOBLOCKS), ("lipschitz40", dict(LIPSCHITZ, t="40")),
                      ("lipschitz60", dict(LIPSCHITZ, t="60")),
                      ("wide", dict(SMALL, eps0="1.0001", c0="3001")), *EDGES.items()):
        body = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in cfg.items())
        (work / f"{name}.ini").write_text(body)
    for name, body in MODEL_FILES.items():
        (work / name).write_text(body)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the spdelab package")
    ap.add_argument("--out", required=True, help="directory to write the case outputs to")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    out = Path(args.out)
    env = dict(os.environ, PYTHONPATH=src)
    printed, crashed, warned, limited = {}, [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        for name, cmd, cfg in cases():
            try:
                proc = subprocess.run([sys.executable, "-m", "spdelab.cli", *cmd,
                                       "--config", f"{cfg}.ini"],
                                      cwd=work, env=env, capture_output=True, text=True,
                                      timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
                stdout, stderr, code = proc.stdout, proc.stderr, proc.returncode
            except subprocess.TimeoutExpired:
                stdout, stderr, code = "", "", "timeout"
            case = out / name
            case.mkdir(parents=True, exist_ok=True)
            (case / "stdout").write_text(stdout)
            (case / "stderr").write_text(re.sub(r"(<src>/spdelab/\w+\.py):\d+:", r"\1:<line>:",
                                                stderr.replace(src, "<src>")))
            (case / "exit_code").write_text(f"{code}\n")
            printed[name] = stdout
            if "Traceback (most recent call last)" in stderr:
                crashed.append(name)
            if "RuntimeWarning" in stderr:
                warned.append(name)
            if code == "timeout":
                limited.append(f"{name} ran past its {TIMEOUT_S} s timeout")
            elif "MemoryError" in stderr:
                limited.append(f"{name} ran out of its {ADDRESS_SPACE >> 30} GiB address space")
            print(f"{code} {name}", flush=True)
    differ = [name for name in printed if name.endswith("_t1")
              and name[:-1] + "2" in printed and printed[name] != printed[name[:-1] + "2"]]
    for name in differ:
        print(f"stdout differs between {name} and {name[:-1]}2", file=sys.stderr)
    for name in crashed:
        print(f"traceback in the stderr of {name}", file=sys.stderr)
    for name in warned:
        print(f"RuntimeWarning in the stderr of {name}", file=sys.stderr)
    for line in limited:
        print(line, file=sys.stderr)
    return 1 if differ or crashed or warned or limited else 0


if __name__ == "__main__":
    sys.exit(main())
