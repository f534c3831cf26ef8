#!/usr/bin/env python3
"""Run the spdelab CLI over a fixed matrix of cases and store what each prints.

    python3 tools/report_matrix.py --src path/to/old/src --out matrix_old
    python3 tools/report_matrix.py --src src --out matrix_new
    diff -r matrix_old matrix_new

After writing every case, the tool compares the stdout of each ``*_t1``/``*_t2``
pair and names each pair that differs: a report must not depend on
``--threads``.  It also names each case whose stderr holds a Python traceback:
every failure must end in an exit code and a one-line message, and an uncaught
exception exits 1, the code of a failed gate.  Either finding makes it exit 1.

Every command runs on ``preset:rd16`` and ``preset:ou8`` at ``--threads`` 1
and 2, once with a small experiment and once started at ``x = 1e160*ones``
(with f = coord1, so per-path values are finite but huge).  ``converge`` and
``invariant`` also run on their OU presets, and ``validate`` on a
reaction-diffusion model whose kernel integral tail is above tolerance
(alpha = 0.6).  One more ``invariant`` case runs a single batch large enough
for several tiles of several noise chunks.  Every command also runs at
``--threads 1`` on two model files: an OU reference and a 2-d reaction-diffusion model (whose
kernel integral tail is above tolerance too).  A few ``ou8`` cases run edge inputs: a
direction ``v = 1e200*e1`` whose squared derivative overflows, ``checkpoints = 0``, ``m = 0``
and ``m = 1e3`` (the last also on ``constants``, which reads every key though it samples
nothing), and ``seed = -1`` on ``invariant`` (which reports the seed mod 2^64 its noise
stream uses); ``check gradient`` runs on ``rd16`` and ``ou8`` with the removed key
``scheme = euler_maruyama`` and on ``ou8`` with the removed key ``k = 4.0`` (each exits 2
naming the key), and ``constants`` reads a model file with ``[galerkin] n = 1.5``.  One
``constants`` case on ``ou8`` writes to ``--out missing/report.json``, whose directory does
not exist (it exits 2).  Each case gets a directory holding ``stdout``, ``stderr`` and
``exit_code``.

Each case runs in a fresh interpreter with ``PYTHONPATH=SRC`` and, as working
directory, a scratch directory holding the experiment and model files, so the
file names a report carries are the same for any two source trees.  The path
of SRC in stderr (warning locations) is written as ``<src>``.
"""
from __future__ import annotations

import argparse
import os
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
         "negseed": dict(SMALL, seed="-1")}
EDGE_CASES = ((["check", "gradient"], "ou8", "bigv"), (["check", "variance"], "ou8", "bigv"),
              (["invariant"], "ou8", "nocheckpoints"),
              (["dump-trajectories"], "ou8", "nopaths"),
              (["check", "gradient"], "ou8", "floatm"), (["check", "gradient"], "rd16", "em"),
              (["check", "gradient"], "ou8", "em"), (["check", "gradient"], "ou8", "slackkey"),
              (["constants"], "ou8", "floatm"), (["invariant"], "ou8", "negseed"))

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

MODEL_FILES = {"alpha06.ini": SLOW_TAIL_MODEL, "ou.ini": OU_MODEL, "rd2d.ini": RD2D_MODEL,
               "floatn.ini": SLOW_TAIL_MODEL.replace("n = 8", "n = 1.5")}

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
    for model in ("ou", "rd2d"):
        for cmd in COMMANDS:
            yield (f"{'-'.join(cmd)}_{model}-file_small_t1",
                   cmd + ["--model", f"{model}.ini", "--threads", "1"], "small")
    for cmd, model, cfg in EDGE_CASES:
        yield (f"{'-'.join(cmd)}_{model}_{cfg}_t1",
               cmd + ["--model", f"preset:{model}", "--threads", "1"], cfg)
    yield "constants_floatn-file_small_t1", ["constants", "--model", "floatn.ini"], "small"
    yield ("constants_ou8_unwritable-out_t1",
           ["constants", "--model", "preset:ou8", "--out", "missing/report.json"], "small")


def write_inputs(work: Path):
    for name, cfg in (("small", SMALL), ("huge", HUGE), ("chunks", CHUNKS), *EDGES.items()):
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
    printed, crashed = {}, []
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
            (case / "stderr").write_text(proc.stderr.replace(src, "<src>"))
            (case / "exit_code").write_text(f"{proc.returncode}\n")
            printed[name] = proc.stdout
            if "Traceback (most recent call last)" in proc.stderr:
                crashed.append(name)
            print(f"{proc.returncode} {name}", flush=True)
    differ = [name for name in printed if name.endswith("_t1")
              and name[:-1] + "2" in printed and printed[name] != printed[name[:-1] + "2"]]
    for name in differ:
        print(f"stdout differs between {name} and {name[:-1]}2", file=sys.stderr)
    for name in crashed:
        print(f"traceback in the stderr of {name}", file=sys.stderr)
    return 1 if differ or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
