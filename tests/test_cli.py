import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdelab
from spdelab.cli import main

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


@pytest.mark.parametrize("argv, cfg", [
    (["constants", "--model", "preset:ou8"], dict(t="-0.1")),
    (["check", "gradient", "--model", "preset:ou8"], dict(f="nosuch", m="10")),
    (["check", "flowbound", "--model", "preset:ou8"], dict(v="e9", m="10")),
    (["check", "flowbound", "--model", "preset:ou8"], dict(v="e0", m="10")),
    (["invariant", "--model", "preset:rd16"], dict(eps="1.5", m="10")),
    (["dump-trajectories", "--model", "preset:ou8"], dict(dt="-1", m="1")),
    (["converge", "--model", "preset:ou8"],
     dict(scheme="milstein", bign="8", n_list="2 4", m="10")),
], ids=["constants-negative-t", "check-unknown-functional", "check-e9-on-ou8",
        "check-e0", "invariant-eps-above-1", "dump-negative-dt", "converge-unknown-scheme"])
def test_bad_config_exits_2(argv, cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--config", write_experiment(tmp_path, **cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("model, experiment, named", [
    (RD_MODEL.replace("side_0 = 0 1", "side_0 = 0"), None, "side_0"),
    (OU_MODEL.replace("lambdas = 1 2 3 4\n", ""), None, ""),
    (OU_MODEL.replace("lambdas = 1 2 3 4", "lambdas = 0 2 3 4"), None, ""),
    ("kind = ou\n", None, ""),
    (OU_MODEL, "m = 3\n", ""),
], ids=["side-with-one-number", "ou-without-lambdas", "ou-zero-lambda",
        "model-without-section", "experiment-without-section"])
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


@pytest.mark.parametrize("argv", [
    ["converge", "--model", "preset:ou8"],
    ["invariant", "--model", "preset:ou-invariant"],
], ids=["converge", "invariant"])
def test_nonfinite_estimate_exits_3(argv, tmp_path):
    # |x|^2 overflows although every state stays finite; run as a process so
    # that numpy warnings would show on stderr
    cfg = write_experiment(tmp_path, x="1e160*ones", m="20", t="0.05", t_end="0.05",
                           checkpoints="2", dt="1e-2", n_list="2 4", bign="8")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(spdelab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "spdelab.cli", *argv, "--config", cfg,
                           "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()
