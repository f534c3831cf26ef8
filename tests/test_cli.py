import ast
import contextlib
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

from cli_cases import (ALPHA06_MODEL, ALPHA40_MODEL, BAD_CONFIG, BAD_INPUT, CASES, LINEAR_PHI_MODEL,
                       NONFINITE, OU4_MODEL, OU8_MODEL, OVERFLOW, RD2D_MODEL, RD2D_Q64_MODEL,
                       RD_MODEL, REPORTS, STEEP_MODEL)

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rd_model_file(tmp_path):
    p = tmp_path / "rd.ini"
    p.write_text(RD_MODEL)
    return str(p)


@pytest.fixture
def ou_model_file(tmp_path):
    p = tmp_path / "ou.ini"
    p.write_text(OU4_MODEL)
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
        bad.write_text(LINEAR_PHI_MODEL)
        code = main(["validate", "--model", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "uniform_ellipticity" in capsys.readouterr().err

    def test_tail_warning_printed_once(self, tmp_path):
        # which warnings were shown is process state, so count in a fresh one
        model = tmp_path / "slow.ini"
        model.write_text(ALPHA06_MODEL)
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
        model.write_text(STEEP_MODEL)
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
        bad.write_text(LINEAR_PHI_MODEL)
        cfg = write_experiment(tmp_path, t="0.05", m="50")
        assert main(["check", "poincare", "--model", str(bad), "--config", cfg]) == 2
        assert "sigma_bounded_above" in capsys.readouterr().err

    def test_logharnack_without_ellipticity(self, tmp_path, capsys):
        bad = tmp_path / "lin.ini"
        bad.write_text(LINEAR_PHI_MODEL)
        cfg = write_experiment(tmp_path, t="0.05", m="50")
        assert main(["check", "logharnack", "--model", str(bad), "--config", cfg]) == 2
        assert "uniform_ellipticity" in capsys.readouterr().err

    def test_threads_do_not_change_bytes(self, rd_model_file, tmp_path, map_blocks_calls):
        # 4100 paths run as two blocks of at most 4096, on the pool at --threads 4
        cfg = write_experiment(tmp_path, t="0.05", m="4100", f="sin1")
        outs = []
        for th in ("1", "4"):
            out = tmp_path / f"r{th}.json"
            assert main(["check", "poincare", "--model", rd_model_file, "--config",
                         cfg, "--seed", "77", "--threads", th, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert map_blocks_calls == [(1, 2), (4, 2)]
        assert outs[0] == outs[1]


class TestBlocks:
    @pytest.mark.parametrize("model, paths", [
        ("preset:rd16", 4096), ("preset:ou8", 4096),
        # 1-d grids of 32 and 64 points, and 8 OU modes
        (ALPHA06_MODEL, 4096), (STEEP_MODEL, 4096), (OU8_MODEL, 4096),
        (RD2D_MODEL, 1024), (RD2D_Q64_MODEL, 64),
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
        model.write_text(RD2D_Q64_MODEL)
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


FAILURE = {2: "configuration error: ", 3: "numerical failure: "}


def _run_row(row, tmp_path, monkeypatch, capsys):
    """Run a row of tests/cli_cases.py in-process at --threads 1 (the module doc there)."""
    monkeypatch.chdir(tmp_path)
    argv = row.command(tmp_path, 1)
    if "--out" not in argv:
        argv += ["--out", "out"]
    warns = pytest.warns(UserWarning, match=re.escape(row.stderr))
    with warns if row.warns else contextlib.nullcontext():
        code = main(argv)
    err = capsys.readouterr().err
    assert code == row.code, err
    if err:  # one line naming the failure: a failed assumption with its report, else no report
        assert err.count("\n") == 1, err
        report = Path(argv[argv.index("--out") + 1]).exists()
        if code == 2 and err.startswith("assumption failed: "):
            assert report, err
        else:
            assert err.startswith(FAILURE[code]) and not report, err
    if not row.warns:
        assert row.stderr in err if row.stderr else err == ""


@pytest.mark.parametrize("row", BAD_CONFIG, ids=lambda row: row.id)
def test_bad_config_exits_2(row, tmp_path, monkeypatch, capsys):
    _run_row(row, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("row", BAD_INPUT, ids=lambda row: row.id)
def test_bad_input_file_exits_2(row, tmp_path, monkeypatch, capsys):
    _run_row(row, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("row", NONFINITE, ids=lambda row: row.id)
def test_nonfinite_estimate_exits_3(row, tmp_path, monkeypatch, capsys):
    _run_row(row, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("row", REPORTS, ids=lambda row: row.id)
def test_report_case(row, tmp_path, monkeypatch, capsys):
    _run_row(row, tmp_path, monkeypatch, capsys)


def test_every_failure_row_quotes_its_line():
    # exit codes 2 and 3 always come with one stderr line, so a row with either quotes it
    assert [row.id for row in CASES if row.code in (2, 3) and not row.stderr] == []


def test_matrix_names_each_run_its_row_disagrees_with(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(ROOT / "tools")
    import report_matrix as matrix
    row = next(row for row in REPORTS if row.id == "constants_ou8_small")
    src = str(Path(spdelab.__file__).parents[1])
    found = matrix.run_row(row._replace(code=1), src, tmp_path / "wrong")
    assert [line.split()[0] for line in found] == ["constants_ou8_small_t1",
                                                   "constants_ou8_small_t2"]
    assert matrix.run_row(row, src, tmp_path / "right") == []


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))


def test_alpha_whose_eigenvalues_overflow_exits_2(tmp_path):
    # at alpha = 40 eigenvalue 4096 of K_sigma's spectrum overflows a float.  A mode search
    # that compared overflowing eigenvalues doubled its index box until memory ran out, so
    # the run is capped at 1.5 GB of address space and 60 s
    model = tmp_path / "a40.ini"
    model.write_text(ALPHA40_MODEL)
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


def test_finite_estimate_at_huge_start_is_quiet(tmp_path, capsys):
    # f's moments overflow, but the gradient check reports only finite fields
    out = tmp_path / "out"
    assert main(["check", "gradient", "--model", "preset:ou8", "--out", str(out),
                 "--config", write_experiment(tmp_path, **OVERFLOW)]) == 0
    assert capsys.readouterr().err == ""
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
    lines = [(path, i, line) for top in ("src", "perfbench", "tools")
             for path in sorted((ROOT / top).rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)]
    defined = {}
    for path in sorted((ROOT / "src" / "spdelab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defined.setdefault(node.name, set()).add((path, node.lineno))
    unreached = sorted(
        name for name, defs in defined.items()
        if not any(re.search(rf"\b{name}\b", line) and (path, i) not in defs
                   for path, i, line in lines))
    assert unreached == sorted(_TEST_ONLY_ALLOWED)
