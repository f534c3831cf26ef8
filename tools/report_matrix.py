#!/usr/bin/env python3
"""Run the spdelab CLI over a fixed matrix of cases and store what each prints.

    python3 tools/report_matrix.py --src path/to/old/src --out matrix_old
    python3 tools/report_matrix.py --src src --out matrix_new
    diff -r matrix_old matrix_new

After writing every case, the tool compares the stdout of each ``*_t1``/``*_t2``
pair and names each pair that differs: a report must not depend on
``--threads``.  It compares each batch-size twin (a case rerun with only
``batch_size`` changed, named ``<case>_<twin config>``) with its case and names
each twin whose stdout or exit code differs: ``batch_size`` only splits the
work.  It also names each case whose stderr holds a Python traceback or a numpy
``RuntimeWarning``: every failure must end in an exit code and a one-line
message, an uncaught exception exits 1, the code of a failed gate, and a
warning only repeats on stderr what the failure line names.  Any finding makes
it exit 1.

Every command runs on ``preset:rd16`` and ``preset:ou8`` at ``--threads`` 1
and 2, once with a small experiment and once started at ``x = 1e160*ones``
(with f = coord1, so per-path values are finite but huge).  ``converge`` and
``invariant`` also run on their OU presets, and ``validate`` on a
reaction-diffusion model whose kernel integral tail is above tolerance
(alpha = 0.6).  One more ``invariant`` case runs a single batch large enough
for several tiles of several noise chunks.  Three cases have batch-size twins:
``check poincare`` and ``check variance`` on ``ou8`` at the huge start run
again as one block of 48 paths, and the chunked ``invariant`` case again in
blocks of 2000 paths.  Every command also runs at
``--threads 1`` on two model files: an OU reference and a 2-d reaction-diffusion model (whose
kernel integral tail is above tolerance too).  A few ``ou8`` cases run edge inputs: a
direction ``v = 1e200*e1`` whose squared derivative overflows, ``checkpoints = 0``, ``m = 0``
and ``m = 1e3`` (the last also on ``constants``, which reads every key though it samples
nothing), ``seed = -1`` on ``invariant`` (which reports the seed mod 2^64 its noise
stream uses), and ``t_end = 0.25``, ``dt = 0.1`` on ``invariant`` (which runs and reports
two steps of dt = 0.125); ``check gradient`` runs on ``rd16`` and ``ou8`` with the removed key
``scheme = euler_maruyama`` and on ``ou8`` with the removed key ``k = 4.0`` (each exits 2
naming the key), and ``constants`` reads a model file with ``[galerkin] n = 1.5`` and one
with ``[phi] amp = 1e200``, whose square overflows (each exits 2).  ``constants`` and
``check gradient`` run on a model file with the drift slope ``[psi] a = 1e150``, which
makes 6^{t/t0} overflow a float (``constants`` writes those constants as "inf") and the
state overflow within a few steps (``check gradient`` exits 3).  One
``constants`` case on ``ou8`` writes to ``--out missing/report.json``, whose directory does
not exist (it exits 2).  Each case gets a directory holding ``stdout``, ``stderr`` and
``exit_code``.

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
import subprocess
import sys
import tempfile
from pathlib import Path

# f = 2 + sin(x_1) is strictly positive, so the log-Harnack check runs too
SMALL = {"t": "0.02", "m": "48", "dt": "2e-3", "t_end": "0.02", "checkpoints": "2",
         "n_list": "2 4", "bign": "8", "batch_size": "16", "f": "two_plus_sin1",
         "y": "0.1*ones"}
HUGE = dict(SMALL, x="1e160*ones", f="coord1")
# 20000 paths of 200 steps run as 20 tiles of 1000 paths, each drawn in two
# noise chunks of 100 steps; the checkpoints fall in both
CHUNKS = {"m": "20000", "batch_size": "20000", "t_end": "0.2", "dt": "1e-3",
          "checkpoints": "6"}
# edge inputs, each run by the commands listed in EDGE_CASES
EDGES = {"bigv": dict(SMALL, v="1e200*e1"), "nocheckpoints": dict(SMALL, checkpoints="0"),
         "nopaths": dict(SMALL, m="0"), "floatm": dict(SMALL, m="1e3"),
         "em": dict(SMALL, scheme="euler_maruyama", dt="1e-3"), "slackkey": dict(SMALL, k="4.0"),
         "negseed": dict(SMALL, seed="-1"),
         # 0.25/0.1 rounds to 2 steps, run at dt = 0.125
         "roundeddt": dict(SMALL, t_end="0.25", dt="0.1")}
EDGE_CASES = ((["check", "gradient"], "ou8", "bigv"), (["check", "variance"], "ou8", "bigv"),
              (["invariant"], "ou8", "nocheckpoints"),
              (["dump-trajectories"], "ou8", "nopaths"),
              (["check", "gradient"], "ou8", "floatm"), (["check", "gradient"], "rd16", "em"),
              (["check", "gradient"], "ou8", "em"), (["check", "gradient"], "ou8", "slackkey"),
              (["constants"], "ou8", "floatm"), (["invariant"], "ou8", "negseed"),
              (["invariant"], "ou8", "roundeddt"))
# each case named here has a twin that runs under the config given, which differs
# from the case's own only in batch_size
TWIN_CONFIGS = {"huge-batch48": dict(HUGE, batch_size="48"),
                "chunks-batch2000": dict(CHUNKS, batch_size="2000")}
TWINS = {"check-poincare_ou8_huge_t1": "huge-batch48",
         "check-variance_ou8_huge_t1": "huge-batch48",
         "invariant_ou-invariant_chunks": "chunks-batch2000"}

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

MODEL_FILES = {"alpha06.ini": SLOW_TAIL_MODEL, "ou.ini": OU_MODEL, "rd2d.ini": RD2D_MODEL,
               "floatn.ini": SLOW_TAIL_MODEL.replace("n = 8", "n = 1.5"),
               "bigamp.ini": SLOW_TAIL_MODEL.replace("amp = 0.1", "amp = 1e200"),
               "steep.ini": STEEP_MODEL}

COMMANDS = (["validate"], ["constants"], ["check", "gradient"], ["check", "logharnack"],
            ["check", "variance"], ["check", "poincare"], ["check", "flowbound"],
            ["converge"], ["invariant"], ["dump-trajectories"], ["dump-field"])


def cases():
    """(name, argv, config name) of every case, in a fixed order, twins last."""
    base = list(_cases())
    return base + [(f"{name}_{TWINS[name]}", cmd, TWINS[name])
                   for name, cmd, _ in base if name in TWINS]


def _cases():
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
    yield ("constants_ou8_unwritable-out_t1",
           ["constants", "--model", "preset:ou8", "--out", "missing/report.json"], "small")


def write_inputs(work: Path):
    for name, cfg in (("small", SMALL), ("huge", HUGE), ("chunks", CHUNKS), *EDGES.items(),
                      *TWIN_CONFIGS.items()):
        body = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in cfg.items())
        (work / f"{name}.ini").write_text(body)
    for name, body in MODEL_FILES.items():
        (work / name).write_text(body)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the spdelab package")
    ap.add_argument("--out", required=True, help="directory to write the case outputs to")
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())
    out = Path(args.out)
    env = dict(os.environ, PYTHONPATH=src)
    printed, exits, crashed, warned = {}, {}, [], []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        for name, cmd, cfg in cases():
            proc = subprocess.run([sys.executable, "-m", "spdelab.cli", *cmd,
                                   "--config", f"{cfg}.ini"],
                                  cwd=work, env=env, capture_output=True, text=True)
            case = out / name
            case.mkdir(parents=True, exist_ok=True)
            (case / "stdout").write_text(proc.stdout)
            (case / "stderr").write_text(re.sub(r"(<src>/spdelab/\w+\.py):\d+:", r"\1:<line>:",
                                                proc.stderr.replace(src, "<src>")))
            (case / "exit_code").write_text(f"{proc.returncode}\n")
            printed[name], exits[name] = proc.stdout, proc.returncode
            if "Traceback (most recent call last)" in proc.stderr:
                crashed.append(name)
            if "RuntimeWarning" in proc.stderr:
                warned.append(name)
            print(f"{proc.returncode} {name}", flush=True)
    differ = [name for name in printed if name.endswith("_t1")
              and name[:-1] + "2" in printed and printed[name] != printed[name[:-1] + "2"]]
    for name in differ:
        print(f"stdout differs between {name} and {name[:-1]}2", file=sys.stderr)
    split = [name for name, cfg in TWINS.items() if (printed[name], exits[name])
             != (printed[f"{name}_{cfg}"], exits[f"{name}_{cfg}"])]
    for name in split:
        print(f"stdout or exit code differs between {name} and {name}_{TWINS[name]}",
              file=sys.stderr)
    for name in crashed:
        print(f"traceback in the stderr of {name}", file=sys.stderr)
    for name in warned:
        print(f"RuntimeWarning in the stderr of {name}", file=sys.stderr)
    return 1 if differ or split or crashed or warned else 0


if __name__ == "__main__":
    sys.exit(main())
