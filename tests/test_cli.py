import ast
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdelab
from spdelab.cli import _make_mc, load_model, main
from spdelab.montecarlo import MonteCarlo
from spdelab.noise import NoiseStream
from spdelab.simulate import SchemeConfig, simulate_batch

RD_MODEL = """
[model]
kind = reaction_diffusion
[domain]
d = 1
side_0 = 0 1
[alpha]
value = 2.0
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

OU_MODEL = """
[model]
kind = ou
[ou]
lambdas = 1 2 3 4
phi0 = 1.0
"""

# a drift slope of 1e150 makes t0 so small that 6^{t/t0} overflows a float
STEEP_DRIFT_MODEL = """
[model]
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


# a 2-d rectangle; at quad_points = 64 one path's field holds 64^2 = 4096 floats
RD2D_MODEL = """
[model]
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


@pytest.fixture
def rd_model_file(tmp_path):
    p = tmp_path / "rd.ini"
    p.write_text(RD_MODEL)
    return str(p)


@pytest.fixture
def ou_model_file(tmp_path):
    p = tmp_path / "ou.ini"
    p.write_text(OU_MODEL)
    return str(p)


def _env():
    """Environment for a fresh interpreter that imports this spdelab."""
    return dict(os.environ, PYTHONPATH=str(Path(spdelab.__file__).parents[1]))


def write_experiment(tmp_path, **kv):
    p = tmp_path / "exp.ini"
    body = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
    p.write_text(body)
    return str(p)


class TestValidate:
    def test_reaction_model(self, rd_model_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["validate", "--model", rd_model_file, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["t0"] == pytest.approx(0.6662, abs=1e-4)
        assert all(rep["assumptions"].values())

    def test_missing_ellipticity_flagged(self, tmp_path, capsys):
        bad = tmp_path / "flat.ini"
        bad.write_text(RD_MODEL.replace("form = sin_perturbed\nc0 = 1.0\namp = 0.1\nfreq = 1.0",
                                        "form = affine\na = 1.0\nb = 0.0"))
        code = main(["validate", "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "uniform_ellipticity" in capsys.readouterr().err

    def test_tail_warning_printed_once(self, tmp_path):
        # which warnings were shown is process state, so count in a fresh one
        model = tmp_path / "slow.ini"
        model.write_text(RD_MODEL.replace("value = 2.0", "value = 0.6"))
        proc = subprocess.run([sys.executable, "-m", "spdelab.cli", "validate", "--model",
                               str(model), "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, env=_env())
        assert proc.returncode == 0
        assert proc.stderr.count("UserWarning: mode-series integral tail bound") == 1

    def test_empty_model_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        assert main(["validate", "--model", str(empty)]) == 2


class TestConstants:
    def test_t_zero_row(self, ou_model_file, tmp_path):
        cfg = write_experiment(tmp_path, t="0")
        out = tmp_path / "c.json"
        assert main(["constants", "--model", ou_model_file, "--config", cfg,
                     "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["gradient_constant"] == 6.0
        assert row["logharnack_constant"] == "inf"
        assert row["poincare_constant"] == 0.0

    def test_infinite_t0_limits(self, ou_model_file, tmp_path):
        cfg = write_experiment(tmp_path, t="2")
        out = tmp_path / "c.json"
        main(["constants", "--model", ou_model_file, "--config", cfg, "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["t0"] == "inf"
        row = rep["rows"][0]
        assert row["gradient_constant"] == 6.0
        assert row["logharnack_constant"] == pytest.approx(1.5)
        assert row["poincare_constant"] == pytest.approx(24.0)

    def test_overflowing_constants_are_inf(self, tmp_path):
        model = tmp_path / "steep.ini"
        model.write_text(STEEP_DRIFT_MODEL)
        out = tmp_path / "c.json"
        assert main(["constants", "--model", str(model), "--out", str(out)]) == 0
        for row in json.loads(out.read_text())["rows"]:
            if row["t"] > 0:
                assert row["gradient_constant"] == row["poincare_constant"] == "inf"

    def test_byte_identical_reruns(self, rd_model_file, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"c{i}.json"
            main(["constants", "--model", rd_model_file, "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCheck:
    def test_logharnack_equality_case(self, rd_model_file, tmp_path):
        cfg = write_experiment(tmp_path, t="0.05", m="200", f="const2",
                               x="zeros", y="zeros")
        out = tmp_path / "r.json"
        assert main(["check", "logharnack", "--model", rd_model_file,
                     "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"]
        assert rep["lhs_hat"] == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_ou_preset(self, tmp_path):
        cfg = write_experiment(tmp_path, t="0.3", m="500", f="coord1")
        out = tmp_path / "r.json"
        assert main(["check", "gradient", "--model", "preset:ou8",
                     "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"]

    def test_poincare_without_upper_bound(self, tmp_path, capsys):
        bad = tmp_path / "lin.ini"
        bad.write_text(RD_MODEL.replace("form = sin_perturbed\nc0 = 1.0\namp = 0.1\nfreq = 1.0",
                                        "form = affine\na = 1.0\nb = 0.0"))
        cfg = write_experiment(tmp_path, t="0.05", m="50")
        assert main(["check", "poincare", "--model", str(bad), "--config", cfg]) == 2
        assert "sigma_bounded_above" in capsys.readouterr().err

    def test_logharnack_without_ellipticity(self, tmp_path, capsys):
        bad = tmp_path / "lin.ini"
        bad.write_text(RD_MODEL.replace("form = sin_perturbed\nc0 = 1.0\namp = 0.1\nfreq = 1.0",
                                        "form = affine\na = 1.0\nb = 0.0"))
        cfg = write_experiment(tmp_path, t="0.05", m="50")
        assert main(["check", "logharnack", "--model", str(bad), "--config", cfg]) == 2
        assert "uniform_ellipticity" in capsys.readouterr().err

    def test_threads_do_not_change_bytes(self, rd_model_file, tmp_path):
        cfg = write_experiment(tmp_path, t="0.05", m="400", f="sin1")
        outs = []
        for th in ("1", "4"):
            out = tmp_path / f"r{th}.json"
            assert main(["check", "poincare", "--model", rd_model_file, "--config",
                         cfg, "--seed", "77", "--threads", th, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBlocks:
    @pytest.mark.parametrize("model, paths", [
        ("preset:rd16", 4096), ("preset:ou8", 4096),
        # 1-d grids of 32 and 64 points, and 8 OU modes
        (RD_MODEL.replace("value = 2.0", "value = 0.6"), 4096), (STEEP_DRIFT_MODEL, 4096),
        (OU_MODEL.replace("1 2 3 4", "0.5 1 1.5 2 2.5 3 3.5 4"), 4096),
        (RD2D_MODEL, 1024), (RD2D_MODEL.replace("quad_points = 16", "quad_points = 64"), 64),
    ], ids=["rd16", "ou8", "alpha06", "steep", "ou-file", "rd2d", "rd2d-q64"])
    def test_block_paths_follow_the_grid(self, model, paths, tmp_path):
        # min(4096, 2^18 / g) paths, g the floats in one path's widest per-step array
        if not model.startswith("preset:"):
            (tmp_path / "model.ini").write_text(model)
            model = str(tmp_path / "model.ini")
        mc = _make_mc({"seed": 1, "dt": 1e-3, "threads": 1}, load_model(model))
        assert mc.batch_size == paths

    def test_2d_check_memory_is_bounded(self, tmp_path):
        # 4096 paths on a 4096-point grid run as 64 blocks of 64 paths; the child
        # process reports its own peak RSS (kB), which blocks of 4096 paths put near 800 MB
        model = tmp_path / "rd2d.ini"
        model.write_text(RD2D_MODEL.replace("quad_points = 16", "quad_points = 64"))
        cfg = write_experiment(tmp_path, m="4096", t="2e-3", dt="1e-3")
        code = ("import resource, sys\n"
                "from spdelab.cli import main\n"
                "code = main(sys.argv[1:])\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
                "sys.exit(code)\n")
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", code, "check", "gradient", "--model",
                                   str(model), "--config", cfg, "--threads", threads],
                                  capture_output=True, text=True, env=_env())
            assert proc.returncode == 0, proc.stderr
            assert int(proc.stderr.splitlines()[-1]) < 200 * 1024
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


class TestConverge:
    def test_ou_csv(self, tmp_path):
        cfg = write_experiment(tmp_path, t="0.3", m="200", n_list="2 4 8",
                               bign="8", dt="2e-3")
        out = tmp_path / "c.csv"
        assert main(["converge", "--model", "preset:ou8", "--config", cfg,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,error,stderr"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["2", "4", "8"]
        assert float(rows[-1][1]) == 0.0 and float(rows[-1][2]) == 0.0

    def test_zero_time_gap_is_exact(self, tmp_path):
        # at t = 0 every path sits at x, so the gap is |x - x_n|^2 with no spread
        cfg = write_experiment(tmp_path, t="0", x="0.3*ones", n_list="2 4", bign="8",
                               m="50")
        out = tmp_path / "c.csv"
        assert main(["converge", "--model", "preset:ou8", "--config", cfg,
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2] == "4,0.36,0.0"


class TestInvariant:
    def test_ou_plateau(self, tmp_path):
        cfg = write_experiment(tmp_path, t_end="6", checkpoints="4", m="200", dt="5e-3")
        out = tmp_path / "i.json"
        assert main(["invariant", "--model", "preset:ou-invariant", "--config", cfg,
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] in ("bounded", "inconclusive")
        assert len(rep["rows"]) == 4

    def test_reports_realized_dt(self, tmp_path):
        # 0.25 / 0.1 rounds to 2 steps of 0.125, the dt the rows sit at
        cfg = write_experiment(tmp_path, t_end="0.25", dt="0.1", checkpoints="2", m="20")
        out = tmp_path / "i.json"
        assert main(["invariant", "--model", "preset:ou-invariant", "--config", cfg,
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [row["t"] for row in rep["rows"]] == [0.125, 0.25]
        assert rep["dt"] == 0.125

    def test_growth_condition_failure(self, tmp_path):
        bad = tmp_path / "lin.ini"
        bad.write_text(RD_MODEL.replace("form = atan_scaled\na = 0.5",
                                        "form = affine\na = 1.0\nb = 0.0"))
        cfg = write_experiment(tmp_path, eps0="0.5", c0="2.0", t_end="1",
                               checkpoints="2", m="20")
        out = tmp_path / "i.json"
        assert main(["invariant", "--model", str(bad), "--config", cfg,
                     "--out", str(out)]) == 2
        rep = json.loads(out.read_text())
        assert rep["growth_condition"]["holds"] is False

    def test_reaction_model_reads_x(self, tmp_path):
        cfg = write_experiment(tmp_path, x="0.5*ones", t_end="0", checkpoints="1", m="10")
        out = tmp_path / "i.json"
        assert main(["invariant", "--model", "preset:rd16", "--config", cfg,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"][0]["moment"] == pytest.approx(16 * 0.25)


class TestDumps:
    def test_trajectory_csv(self, ou_model_file, tmp_path):
        cfg = write_experiment(tmp_path, t_end="0.01", dt="5e-3", m="2", x="e1")
        out = tmp_path / "traj.csv"
        assert main(["dump-trajectories", "--model", ou_model_file, "--config", cfg,
                     "--seed", "3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path_id,step,t," + ",".join(f"coeff_{i}" for i in range(4))
        # 2 paths x (initial row + 2 steps)
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "0.0"]
        assert [float(c) for c in first[3:]] == [1.0, 0.0, 0.0, 0.0]
        model = load_model(ou_model_file)
        scfg = SchemeConfig(dt=5e-3, t_end=0.01)
        rows = [line.split(",") for line in lines[1:]]
        assert [r[2] for r in rows] == [repr(k * scfg.realized_dt) for k in range(3)] * 2
        for pid, last in enumerate(rows[2::3]):
            final = simulate_batch(np.eye(4)[0], [pid], scfg, model.lambdas,
                                   model.callbacks, NoiseStream(seed=3, width=4))["x"][0]
            assert last[3:] == [repr(float(c)) for c in final]

    def test_field_csv(self, rd_model_file, tmp_path):
        cfg = write_experiment(tmp_path, x="e1")
        out = tmp_path / "field.csv"
        assert main(["dump-field", "--model", rd_model_file, "--config", cfg,
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "xi,u(xi)"
        assert len(lines) == 33

    def test_field_requires_reaction(self, ou_model_file):
        assert main(["dump-field", "--model", ou_model_file]) == 2


def test_unknown_preset():
    assert main(["validate", "--model", "preset:nope"]) == 2


@pytest.mark.parametrize("argv", [["constants", "--model", "preset:ou8"],
                                  ["dump-field", "--model", "preset:rd16"],
                                  ["check", "flowbound", "--model", "preset:rd16"]],
                         ids=["json", "csv", "check"])
def test_unwritable_out_exits_2(argv, tmp_path, capsys, monkeypatch):
    # the path is checked before any sampling, and nothing is created
    def sample(*args, **kwargs):
        raise AssertionError("sampled before the --out path was checked")
    monkeypatch.setattr(MonteCarlo, "_sample", sample)
    out = tmp_path / "missing" / "report"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"configuration error: could not write output file {str(out)!r}: "
                   "No such file or directory\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("argv, cfg, named", [
    (["constants", "--model", "preset:ou8"], dict(t="-0.1"), ""),
    (["check", "gradient", "--model", "preset:ou8"], dict(f="nosuch", m="10"), ""),
    (["check", "flowbound", "--model", "preset:ou8"], dict(v="e9", m="10"), ""),
    (["check", "flowbound", "--model", "preset:ou8"], dict(v="e0", m="10"), ""),
    (["invariant", "--model", "preset:rd16"], dict(eps="1.5", m="10"), ""),
    (["dump-trajectories", "--model", "preset:ou8"], dict(dt="-1", m="1"), ""),
    (["converge", "--model", "preset:ou8"],
     dict(scheme="milstein", bign="8", n_list="2 4", m="10"), ""),
    (["check", "gradient", "--model", "preset:ou8"], dict(t="", m="10"), "'t'"),
    (["converge", "--model", "preset:ou8"], dict(t="", bign="8", n_list="2 4", m="10"), "'t'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(batch_size="-1", m="10"),
     "unknown experiment key 'batch_size'"),
    (["invariant", "--model", "preset:ou8"], dict(batch_size="-1", m="10"),
     "unknown experiment key 'batch_size'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(batch_size="0", m="10"),
     "unknown experiment key 'batch_size'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(batchsize="5", m="10"),
     "'batchsize'"),
    (["constants", "--model", "preset:ou8"], dict(mm="10"), "'mm'"),
    (["constants", "--model", "preset:ou8"], dict(t="0.1 nan"), "t = 'nan'"),
    (["constants", "--model", "preset:ou8"], dict(t="inf"), "t = 'inf'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(t="inf", m="10"), "t = 'inf'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(k="inf", m="10"), "'k'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(k="nan", m="10"), "'k'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(k="-1", m="10"), "'k'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(k="4.0", m="10"), "'k'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(batch_size="16", m="10"),
     "unknown experiment key 'batch_size'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(x="nan*ones", m="10"),
     "x = 'nan'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(v="1 0 0 0 0 0 0 -inf", m="10"),
     "v = '-inf'"),
    (["dump-trajectories", "--model", "preset:ou8"], dict(dt="nan", m="1"), "dt = 'nan'"),
    (["dump-trajectories", "--model", "preset:ou8"], dict(dt="inf", m="1"), "dt = 'inf'"),
    (["invariant", "--model", "preset:ou8"], dict(t_end="inf", m="10"), "t_end = 'inf'"),
    (["invariant", "--model", "preset:rd16"], dict(eps0="nan", m="10"), "eps0 = 'nan'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(m="1e3"), "m = '1e3'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(seed="1.5", m="10"), "seed = '1.5'"),
    (["converge", "--model", "preset:ou8"], dict(n_list="2 x", bign="8", m="10"),
     "n_list = 'x'"),
    (["converge", "--model", "preset:ou8"], dict(n_list="-2 4", bign="8", m="10"),
     "n_list = '-2'"),
    (["converge", "--model", "preset:ou8"], dict(n_list="2 4", bign="0", m="10"), "bign = '0'"),
    (["invariant", "--model", "preset:ou8"], dict(checkpoints="0", m="10"), "checkpoints"),
    (["invariant", "--model", "preset:ou8"], dict(checkpoints="-3", m="10"), "checkpoints"),
    (["dump-trajectories", "--model", "preset:ou8"], dict(m="0"), "m = '0'"),
    (["dump-trajectories", "--model", "preset:ou8"], dict(m="-2"), "m = '-2'"),
    (["check", "variance", "--model", "preset:ou8"], dict(v="zeros", m="10"), "|v|^2 = 0"),
    (["check", "gradient", "--model", "preset:rd16"],
     dict(x="zeros", scheme="euler_maruyama", dt="1e-3", m="20", t="0.05"), "'scheme'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(threads="0", m="10"), "threads"),
    (["check", "gradient", "--model", "preset:ou8"], dict(threads="-5", m="10"), "threads"),
    (["check", "gradient", "--model", "preset:ou8", "--threads", "-2"], dict(m="10"),
     "threads"),
    (["validate", "--model", "preset:ou8"], dict(threads="0"), "threads"),
    (["constants", "--model", "preset:ou8"], dict(threads="0"), "threads"),
    (["dump-trajectories", "--model", "preset:ou8"], dict(threads="0", m="1"), "threads"),
    (["validate", "--model", "preset:ou8"], dict(batch_size="-3"),
     "unknown experiment key 'batch_size'"),
    (["constants", "--model", "preset:ou8"], dict(batch_size="-3"),
     "unknown experiment key 'batch_size'"),
    (["dump-trajectories", "--model", "preset:ou8"], dict(batch_size="-3", m="1"),
     "unknown experiment key 'batch_size'"),
    (["dump-field", "--model", "preset:rd16"], dict(batch_size="-3"),
     "unknown experiment key 'batch_size'"),
    (["constants", "--model", "preset:ou8"], dict(m="1e3"), "m = '1e3'"),
    (["validate", "--model", "preset:ou8"], dict(m="1e3"), "m = '1e3'"),
    (["constants", "--model", "preset:ou8"], dict(t_end="nan"), "t_end = 'nan'"),
    (["validate", "--model", "preset:ou8"], dict(t_end="nan"), "t_end = 'nan'"),
    (["check", "flowbound", "--model", "preset:ou8"], dict(t_end="nan", m="10"),
     "t_end = 'nan'"),
    (["constants", "--model", "preset:ou8"], dict(f="nosuch"), "functional 'nosuch'"),
    (["validate", "--model", "preset:ou8"], dict(f="nosuch"), "functional 'nosuch'"),
    (["invariant", "--model", "preset:ou8"], dict(f="nosuch", m="10"), "functional 'nosuch'"),
    (["constants", "--model", "preset:ou8"], dict(checkpoints="0"), "checkpoints = '0'"),
    (["validate", "--model", "preset:ou8"], dict(checkpoints="0"), "checkpoints = '0'"),
    (["check", "flowbound", "--model", "preset:ou8"], dict(checkpoints="0", m="10"),
     "checkpoints = '0'"),
    (["validate", "--model", "preset:ou8"], dict(bign="x"), "bign = 'x'"),
    (["constants", "--model", "preset:ou8"], dict(bign="x"), "bign = 'x'"),
    (["check", "gradient", "--model", "preset:ou8"], dict(bign="x", m="10"), "bign = 'x'"),
    (["invariant", "--model", "preset:ou8"], dict(bign="x", m="10"), "bign = 'x'"),
    (["dump-trajectories", "--model", "preset:ou8"], dict(bign="x", m="1", t_end="0.01"),
     "bign = 'x'"),
    (["dump-field", "--model", "preset:rd16"], dict(bign="x"), "bign = 'x'"),
], ids=["constants-negative-t", "check-unknown-functional", "check-e9-on-ou8",
        "check-e0", "invariant-eps-above-1", "dump-negative-dt", "converge-unknown-scheme",
        "check-empty-t", "converge-empty-t", "check-negative-batch-size",
        "invariant-negative-batch-size", "check-zero-batch-size", "misspelled-batch-size",
        "misspelled-m", "constants-nan-t", "constants-inf-t", "check-inf-t", "check-inf-k",
        "check-nan-k", "check-negative-k", "check-k-key-removed", "batch-size-key-removed",
        "check-nan-scale", "check-inf-entry",
        "dump-nan-dt", "dump-inf-dt", "invariant-inf-t-end", "invariant-nan-eps0",
        "check-float-m", "check-float-seed", "converge-word-in-n-list",
        "converge-negative-level", "converge-zero-bign",
        "invariant-zero-checkpoints", "invariant-negative-checkpoints", "dump-zero-m",
        "dump-negative-m", "check-zero-v", "scheme-key-removed",
        "check-zero-threads", "check-negative-threads", "check-negative-threads-flag",
        "validate-zero-threads", "constants-zero-threads", "dump-zero-threads",
        "validate-negative-batch-size", "constants-negative-batch-size",
        "dump-negative-batch-size", "dump-field-negative-batch-size",
        "constants-float-m", "validate-float-m", "constants-nan-t-end", "validate-nan-t-end",
        "flowbound-nan-t-end", "constants-unknown-functional", "validate-unknown-functional",
        "invariant-unknown-functional", "constants-zero-checkpoints",
        "validate-zero-checkpoints", "flowbound-zero-checkpoints", "validate-word-bign",
        "constants-word-bign", "check-word-bign", "invariant-word-bign", "dump-word-bign",
        "dump-field-word-bign"])
def test_bad_config_exits_2(argv, cfg, named, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--config", write_experiment(tmp_path, **cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert named in err
    assert not out.exists()


@pytest.mark.parametrize("model, experiment, named", [
    (RD_MODEL.replace("side_0 = 0 1", "side_0 = 0"), None, "side_0"),
    (OU_MODEL.replace("lambdas = 1 2 3 4\n", ""), None, ""),
    (OU_MODEL.replace("lambdas = 1 2 3 4", "lambdas = 0 2 3 4"), None, ""),
    ("kind = ou\n", None, ""),
    (OU_MODEL, "m = 3\n", ""),
    (RD_MODEL.replace("value = 2.0", "value = nan"), None, "[alpha] value = 'nan'"),
    (RD_MODEL.replace("value = 2.0", "value = inf"), None, "[alpha] value = 'inf'"),
    (RD_MODEL.replace("amp = 0.1", "amp = nan"), None, "[phi] amp = 'nan'"),
    (RD_MODEL.replace("a = 0.5", "a = inf"), None, "[psi] a = 'inf'"),
    (RD_MODEL.replace("side_0 = 0 1", "side_0 = 0 inf"), None, "side_0 = 'inf'"),
    (OU_MODEL.replace("lambdas = 1 2 3 4", "lambdas = 1 nan 3 4"), None, "lambdas = 'nan'"),
    (OU_MODEL.replace("phi0 = 1.0", "phi0 = abc"), None, "phi0 = 'abc'"),
    (OU_MODEL, "[experiment]\nt = nan\n", "t = 'nan'"),
    (OU_MODEL, "[experiment]\nt = inf\n", "t = 'inf'"),
    ("[model]\nkind = ou\n[ou]\nlambdas = 1 2 3\nphi0 = 1e200\n", None, "phi0"),
    (RD_MODEL.replace("n = 8", "n = 1.5"), None, "[galerkin] n = '1.5'"),
    (RD_MODEL.replace("n = 8", "n = 0"), None, "[galerkin] n = '0' is not an integer >= 1"),
    (RD_MODEL.replace("quad_points = 32", "quad_points = 3e1"), None,
     "[galerkin] quad_points = '3e1'"),
    (RD_MODEL.replace("d = 1", "d = 1.0"), None, "[domain] d = '1.0'"),
    (RD_MODEL.replace("d = 1", "d = 0"), None, "[domain] d = '0' is not an integer >= 1"),
    # finite parameters whose squares (the ellipticity and growth bounds) overflow
    (RD_MODEL.replace("a = 0.5", "a = 1e200"), None, "[psi] atan_scaled"),
    (RD_MODEL.replace("form = atan_scaled\na = 0.5", "form = affine\na = 1e200\nb = 0.1"), None,
     "[psi] affine"),
    (RD_MODEL.replace("amp = 0.1", "amp = 1e200"), None, "[phi] sin_perturbed"),
    # amp^2 is finite, but the diffusion kernel's weight 2 amp^2 overflows
    (RD_MODEL.replace("amp = 0.1", "amp = 1e154"), None, "weight must be finite"),
], ids=["side-with-one-number", "ou-without-lambdas", "ou-zero-lambda",
        "model-without-section", "experiment-without-section", "nan-alpha", "inf-alpha",
        "nan-phi-amp", "inf-psi-a", "inf-side", "nan-ou-lambda", "ou-phi0-not-a-number",
        "nan-t", "inf-t", "ou-phi0-square-overflows", "float-n", "zero-n",
        "float-quad-points", "float-d", "zero-d", "atan-a-square-overflows",
        "affine-a-square-overflows", "sin-amp-square-overflows", "sigma-weight-overflows"])
def test_bad_input_file_exits_2(model, experiment, named, tmp_path, capsys):
    argv = ["constants", "--model", str(tmp_path / "m.ini")]
    (tmp_path / "m.ini").write_text(model)
    if experiment is not None:
        (tmp_path / "e.ini").write_text(experiment)
        argv += ["--config", str(tmp_path / "e.ini")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert named in err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def test_alpha_whose_eigenvalues_overflow_exits_2(tmp_path):
    # at alpha = 40 eigenvalue 4096 of K_sigma's spectrum overflows a float.  A mode search
    # that compared overflowing eigenvalues doubled its index box until memory ran out, so
    # the run is capped at 1.5 GB of address space and 60 s
    model = tmp_path / "a40.ini"
    model.write_text(RD_MODEL.replace("value = 2.0", "value = 40.0")
                     .replace("n = 8\nquad_points = 32", "n = 16\nquad_points = 64"))
    proc = subprocess.run([sys.executable, "-m", "spdelab.cli", "constants", "--model",
                           str(model)], capture_output=True, text=True,
                          env=dict(_env(), OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=_cap_address_space, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == ("configuration error: alpha = 40.0 makes eigenvalue 4096 overflow "
                           "a float\n")


def test_invariant_reports_the_seed_its_stream_uses(tmp_path):
    # --seed -1 keys the stream with -1 mod 2^64; both commands print that seed
    cfg = write_experiment(tmp_path, m="8", t="0.02", t_end="0.02", checkpoints="1")
    seeds = []
    for cmd in (["check", "flowbound"], ["invariant"]):
        out = tmp_path / "out"
        assert main(cmd + ["--model", "preset:ou8", "--config", cfg, "--seed", "-1",
                           "--out", str(out)]) == 0
        seeds.append(json.loads(out.read_text())["seed"])
    assert seeds == [2**64 - 1, 2**64 - 1]


# sigma = 1e90 Id on eight modes: |X_t|^2 is finite (about 1e178), its square is not
NOISY_OU_MODEL = """
[model]
kind = ou
[ou]
lambdas = 0.5 1 1.5 2 2.5 3 3.5 4
phi0 = 1e90
"""


def _run_at_huge_start(argv, tmp_path, x="1e160*ones", v="e1", **extra):
    # per-path values are so large that they, or their squares, overflow; run
    # as a process so that numpy warnings would show on stderr, in tmp_path,
    # which holds NOISY_OU_MODEL as noisy-ou.ini and STEEP_DRIFT_MODEL as steep.ini
    base = dict(x=x, v=v, m="20", t="0.05", t_end="0.05", checkpoints="2", dt="1e-2",
                n_list="2 4", bign="8", f="coord1")
    cfg = write_experiment(tmp_path, **{**base, **extra})
    (tmp_path / "noisy-ou.ini").write_text(NOISY_OU_MODEL)
    (tmp_path / "steep.ini").write_text(STEEP_DRIFT_MODEL)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "spdelab.cli", *argv, "--config", cfg,
                           "--out", str(out)], capture_output=True, text=True, env=_env(),
                          cwd=tmp_path)
    return proc, out


@pytest.mark.parametrize("argv, cfg", [
    (["converge", "--model", "preset:ou8"], dict(x="1e160*ones")),
    (["invariant", "--model", "preset:ou-invariant"], dict(x="1e160*ones")),
    (["check", "poincare", "--model", "noisy-ou.ini"], dict(x="zeros")),
    (["converge", "--model", "noisy-ou.ini"], dict(x="zeros")),
    (["invariant", "--model", "noisy-ou.ini"], dict(x="zeros")),
    (["check", "gradient", "--model", "preset:ou8"], dict(x="zeros", v="1e200*e1")),
    (["check", "variance", "--model", "preset:ou8"], dict(x="zeros", v="1e200*e1")),
    (["check", "gradient", "--model", "steep.ini"], dict(x="zeros")),
], ids=["converge", "invariant", "poincare", "converge-moments", "invariant-moments",
        "gradient-huge-v", "variance-huge-v", "gradient-steep-drift"])
def test_nonfinite_estimate_exits_3(argv, cfg, tmp_path):
    # at 1e160 |x|^2 overflows per path; under noise 1e90 only the squares the
    # variance sums do.  A huge v makes the squared directional derivative overflow,
    # and a drift slope of 1e150 the state itself, with no numpy warning on the way
    proc, out = _run_at_huge_start(argv, tmp_path, **cfg)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


def test_finite_estimate_at_huge_start_is_quiet(tmp_path):
    # f's moments overflow, but the gradient check reports only finite fields
    proc, out = _run_at_huge_start(["check", "gradient", "--model", "preset:ou8"], tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert math.isfinite(json.loads(out.read_text())["lhs_se"])


def test_cold_start_loads_no_scipy(tmp_path):
    # the test process itself has imported scipy, so check in a fresh one
    cfg = write_experiment(tmp_path, m="8", t="0.01")
    code = (
        "import sys\n"
        "import spdelab, spdelab.cli\n"
        f"code = spdelab.cli.main(['check', 'gradient', '--model', 'preset:rd16', "
        f"'--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "assert code == 0, code\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr


def test_package_import_loads_no_submodule():
    code = ("import sys, spdelab\n"
            "loaded = [m for m in sys.modules if m.startswith('spdelab.')]\n"
            "assert not loaded, loaded\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr


# defined in src/ and named by no program line, only by tests: nothing (the
# references that tests check the program against live in tests/oracles.py)
_TEST_ONLY_ALLOWED = set()


def test_src_defines_nothing_only_tests_reach():
    """Every function, method and class in src/spdelab is named on some line of
    src/, perfbench/ or tools/ besides its own def or class line.

    A text scan by whole word, not a call graph: a test-only method with a
    common name such as ``value`` passes because other code says ``value``.
    """
    root = Path(__file__).resolve().parents[1]
    lines = [(path, i, line) for top in ("src", "perfbench", "tools")
             for path in sorted((root / top).rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)]
    defined = {}
    for path in sorted((root / "src" / "spdelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, set()).add((path, node.lineno))
    unreached = sorted(
        name for name, defs in defined.items()
        if not any(re.search(rf"\b{name}\b", line) and (path, i) not in defs
                   for path, i, line in lines))
    assert unreached == sorted(_TEST_ONLY_ALLOWED)
