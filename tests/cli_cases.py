"""Every CLI case, one row each, read by tests/test_cli.py and tools/report_matrix.py.

A row names a command line, the text of the model file its ``--model`` names (None for a
preset), the ``[experiment]`` keys of its ``--config`` file, its exit code, and a substring
of the first line it prints on stderr ("" for none): the warning, for a row that warns.
The runner adds ``--threads`` unless the row sets the thread count itself.  Tier-1 runs
every row in-process at ``--threads 1``; the report matrix runs each in a fresh interpreter
at ``--threads`` 1 and 2.  To add an edge input, add a row to the section it belongs to.
"""
from __future__ import annotations

from pathlib import Path
from typing import NamedTuple


class Case(NamedTuple):
    id: str
    argv: str                          # the command line, split on spaces
    model: str | None                  # text of the file --model names; None for a preset
    experiment: dict | str | None      # [experiment] keys, or the whole --config text
    code: int                          # the exit code
    stderr: str = ""                   # a substring of the first stderr line
    warns: bool = False                # that line is a warning

    def command(self, work: Path, threads: int) -> list[str]:
        """Write the row's files into ``work``; the argv that reads them at ``threads``."""
        argv = self.argv.split()
        if self.model is not None:
            (work / argv[argv.index("--model") + 1]).write_text(self.model)
        if self.experiment is not None:
            text = self.experiment
            if isinstance(text, dict):
                text = "[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in text.items())
            (work / "experiment.ini").write_text(text)
            argv += ["--config", "experiment.ini"]
        if "--threads" not in argv and "threads" not in (self.experiment or {}):
            argv += ["--threads", str(threads)]
        return argv


# -- model files -----------------------------------------------------------------

RD_MODEL = """[model]
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
# slow decay: the kernel integral's tail bound is above tolerance, which warns
ALPHA06_MODEL = RD_MODEL.replace("value = 2.0", "value = 0.6")
# eigenvalue 4096 of K_sigma's spectrum overflows a float
ALPHA40_MODEL = RD_MODEL.replace("value = 2.0", "value = 40.0").replace(
    "n = 8\nquad_points = 32", "n = 16\nquad_points = 64")
# phi = s: neither uniformly elliptic nor bounded above
LINEAR_PHI_MODEL = RD_MODEL.replace("form = sin_perturbed\nc0 = 1.0\namp = 0.1\nfreq = 1.0",
                                    "form = affine\na = 1.0\nb = 0.0")

OU4_MODEL = """[model]
kind = ou
[ou]
lambdas = 1 2 3 4
phi0 = 1.0
"""
OU8_MODEL = OU4_MODEL.replace("1 2 3 4", "0.5 1 1.5 2 2.5 3 3.5 4").replace("1.0", "0.7")
# sigma = 1e90 Id on eight modes: |X_t|^2 is finite (about 1e178), its square is not
NOISY_OU_MODEL = OU8_MODEL.replace("phi0 = 0.7", "phi0 = 1e90")

# a 2-d rectangle [0,1]x[0,2], alpha = 1.5, psi = 0.1 - 0.5 s: at quad_points = 16 one
# path's field holds 16^2 = 256 floats, and the kernel integral's tail bound is above tolerance
RD2D_MODEL = RD_MODEL.replace("d = 1\nside_0 = 0 1", "d = 2\nside_0 = 0 1\nside_1 = 0 2").replace(
    "2.0", "1.5").replace("atan_scaled\na = 0.5", "affine\na = -0.5\nb = 0.1").replace("32", "16")
# at quad_points = 64 one path's field holds 64^2 = 4096 floats
RD2D_Q64_MODEL = RD2D_MODEL.replace("quad_points = 16", "quad_points = 64")

# psi = 1e150 s, phi = 1 on 16 modes: a drift slope of 1e150 leaves t0 so small that
# 6^{t/t0} overflows a float
STEEP_MODEL = RD_MODEL.replace("atan_scaled\na = 0.5", "affine\na = 1e150\nb = 0.0").replace(
    "sin_perturbed\nc0 = 1.0\namp = 0.1\nfreq = 1.0", "affine\na = 0.0\nb = 1.0").replace(
    "n = 8\nquad_points = 32", "n = 16\nquad_points = 64")
# a Lipschitz drift (slope 0.1) with slow decay (L = 100, alpha = 0.6): the flow bound
# holds only because t0 is at most 1
LIPSCHITZ_MODEL = STEEP_MODEL.replace("0 1\n", "0 100\n").replace("2.0", "0.6").replace(
    "a = 1e150", "a = 0.1")
# rd16 with the drift psi = 0.5 s + 1e4: its declared Lipschitz constant 0.5 is exact, though
# g's rounding near 1e4 exceeds 0.5 |r - s| for nearby r, s
AFFINE_FORCING_MODEL = RD_MODEL.replace("atan_scaled\na = 0.5", "affine\na = 0.5\nb = 1e4").replace(
    "n = 8\nquad_points = 32", "n = 16\nquad_points = 64")
# phi = s + 1, psi = 0 breaks phi^2 + psi^2 <= 1.0001 s^2 + 3001 only for 1633 < |s| < 18367
GROWTH_MODEL = STEEP_MODEL.replace("a = 1e150", "a = 0.0").replace("a = 0.0\nb = 1.0",
                                                                   "a = 1.0\nb = 1.0")

# -- experiments -------------------------------------------------------------------

# f = 2 + sin(x_1) is strictly positive, so the log-Harnack check runs too
SMALL = {"t": "0.02", "m": "48", "dt": "2e-3", "t_end": "0.02", "checkpoints": "2",
         "n_list": "2 4", "bign": "8", "f": "two_plus_sin1", "y": "0.1*ones"}
# per-path values of f = coord1 are finite but huge, and the float spacing of the state
# (about 1e144) swallows every noise increment
HUGE = dict(SMALL, x="1e160*ones", f="coord1")
# 20000 paths of 200 steps run as 5 blocks of at most 4096 paths, each as 4 tiles drawn in
# two noise chunks of 100 steps; the checkpoints fall in both
CHUNKS = {"m": "20000", "t_end": "0.2", "dt": "1e-3", "checkpoints": "6"}
# 4100 paths: two blocks, which the thread pool runs at --threads 2
TWOBLOCKS = dict(SMALL, m="4100")
# mode 1 of the Lipschitz-drift model follows its deterministic flow
LIPSCHITZ = {"v": "e1", "f": "coord1", "x": "zeros", "dt": "1e-2", "seed": "3", "m": "200"}
# the removed scheme key
EM = dict(SMALL, scheme="euler_maruyama", dt="1e-3")
# per-path values, or their squares, overflow
OVERFLOW = dict(x="1e160*ones", v="e1", m="20", t="0.05", t_end="0.05", checkpoints="2",
                dt="1e-2", n_list="2 4", bign="8", f="coord1")

# -- rows ------------------------------------------------------------------------

OU8, RD16 = "--model preset:ou8", "--model preset:rd16"
POSITIVE_F = "log-Harnack check needs a strictly positive functional"
NO_FIELD = "field dumps need a reaction-diffusion model"
TAIL = "mode-series integral tail bound"
BATCH_SIZE = "unknown experiment key 'batch_size'"
GAP_OVERFLOW = "non-finite values of 'gap at n = 2'"
MOMENT_OVERFLOW = "non-finite values of '|X_t|^2 at t = 0.01'"


def config_error(id, argv, named, **keys):
    """A row whose experiment ``keys`` make it exit 2 with a line naming ``named``."""
    return Case(id, argv, None, keys, 2, named)


# experiment files every command reads alike: one "configuration error" line naming the key
BAD_CONFIG = (
    config_error("constants-negative-t", f"constants {OU8}", "t must be non-negative", t="-0.1"),
    config_error("check-unknown-functional", f"check gradient {OU8}", "unknown functional 'nosuch'",
                 f="nosuch", m="10"),
    config_error("check-e9-on-ou8", f"check flowbound {OU8}", "unit vector 'e9' outside e1..e8",
                 v="e9", m="10"),
    config_error("check-e0", f"check flowbound {OU8}", "unit vector 'e0' outside e1..e8",
                 v="e0", m="10"),
    config_error("invariant-eps-above-1", f"invariant {RD16}", "eps must lie in (0, 1)",
                 eps="1.5", m="10"),
    config_error("dump-negative-dt", f"dump-trajectories {OU8}", "dt must be positive",
                 dt="-1", m="1"),
    config_error("converge-unknown-scheme", f"converge {OU8}", "key 'scheme'",
                 scheme="milstein", bign="8", n_list="2 4", m="10"),
    config_error("check-empty-t", f"check gradient {OU8}", "'t'", t="", m="10"),
    config_error("converge-empty-t", f"converge {OU8}", "'t'",
                 t="", bign="8", n_list="2 4", m="10"),
    config_error("check-negative-batch-size", f"check gradient {OU8}", BATCH_SIZE,
                 batch_size="-1", m="10"),
    config_error("invariant-negative-batch-size", f"invariant {OU8}", BATCH_SIZE,
                 batch_size="-1", m="10"),
    config_error("check-zero-batch-size", f"check gradient {OU8}", BATCH_SIZE,
                 batch_size="0", m="10"),
    config_error("misspelled-batch-size", f"check gradient {OU8}", "'batchsize'",
                 batchsize="5", m="10"),
    config_error("misspelled-m", f"constants {OU8}", "'mm'", mm="10"),
    config_error("constants-nan-t", f"constants {OU8}", "t = 'nan'", t="0.1 nan"),
    config_error("constants-inf-t", f"constants {OU8}", "t = 'inf'", t="inf"),
    config_error("check-inf-t", f"check gradient {OU8}", "t = 'inf'", t="inf", m="10"),
    config_error("check-inf-k", f"check gradient {OU8}", "'k'", k="inf", m="10"),
    config_error("check-nan-k", f"check gradient {OU8}", "'k'", k="nan", m="10"),
    config_error("check-negative-k", f"check gradient {OU8}", "'k'", k="-1", m="10"),
    config_error("check-k-key-removed", f"check gradient {OU8}", "'k'", k="4.0", m="10"),
    config_error("batch-size-key-removed", f"check gradient {OU8}", BATCH_SIZE,
                 batch_size="16", m="10"),
    config_error("check-nan-scale", f"check gradient {OU8}", "x = 'nan'", x="nan*ones", m="10"),
    config_error("check-inf-entry", f"check gradient {OU8}", "v = '-inf'",
                 v="1 0 0 0 0 0 0 -inf", m="10"),
    config_error("dump-nan-dt", f"dump-trajectories {OU8}", "dt = 'nan'", dt="nan", m="1"),
    config_error("dump-inf-dt", f"dump-trajectories {OU8}", "dt = 'inf'", dt="inf", m="1"),
    config_error("invariant-inf-t-end", f"invariant {OU8}", "t_end = 'inf'", t_end="inf", m="10"),
    config_error("invariant-nan-eps0", f"invariant {RD16}", "eps0 = 'nan'", eps0="nan", m="10"),
    config_error("check-float-m", f"check gradient {OU8}", "m = '1e3'", m="1e3"),
    config_error("check-float-seed", f"check gradient {OU8}", "seed = '1.5'", seed="1.5", m="10"),
    config_error("converge-word-in-n-list", f"converge {OU8}", "n_list = 'x'",
                 n_list="2 x", bign="8", m="10"),
    config_error("converge-negative-level", f"converge {OU8}", "n_list = '-2'",
                 n_list="-2 4", bign="8", m="10"),
    config_error("converge-zero-bign", f"converge {OU8}", "bign = '0'",
                 n_list="2 4", bign="0", m="10"),
    config_error("invariant-zero-checkpoints", f"invariant {OU8}", "checkpoints",
                 checkpoints="0", m="10"),
    config_error("invariant-negative-checkpoints", f"invariant {OU8}", "checkpoints",
                 checkpoints="-3", m="10"),
    config_error("dump-zero-m", f"dump-trajectories {OU8}", "m = '0'", m="0"),
    config_error("dump-negative-m", f"dump-trajectories {OU8}", "m = '-2'", m="-2"),
    config_error("check-zero-v", f"check variance {OU8}", "|v|^2 = 0", v="zeros", m="10"),
    config_error("scheme-key-removed", f"check gradient {RD16}", "'scheme'",
                 x="zeros", scheme="euler_maruyama", dt="1e-3", m="20", t="0.05"),
    config_error("check-zero-threads", f"check gradient {OU8}", "threads", threads="0", m="10"),
    config_error("check-negative-threads", f"check gradient {OU8}", "threads",
                 threads="-5", m="10"),
    config_error("check-negative-threads-flag", f"check gradient {OU8} --threads -2", "threads",
                 m="10"),
    config_error("validate-zero-threads", f"validate {OU8}", "threads", threads="0"),
    config_error("constants-zero-threads", f"constants {OU8}", "threads", threads="0"),
    config_error("dump-zero-threads", f"dump-trajectories {OU8}", "threads", threads="0", m="1"),
    config_error("validate-negative-batch-size", f"validate {OU8}", BATCH_SIZE, batch_size="-3"),
    config_error("constants-negative-batch-size", f"constants {OU8}", BATCH_SIZE, batch_size="-3"),
    config_error("dump-negative-batch-size", f"dump-trajectories {OU8}", BATCH_SIZE,
                 batch_size="-3", m="1"),
    config_error("dump-field-negative-batch-size", f"dump-field {RD16}", BATCH_SIZE,
                 batch_size="-3"),
    config_error("constants-float-m", f"constants {OU8}", "m = '1e3'", m="1e3"),
    config_error("validate-float-m", f"validate {OU8}", "m = '1e3'", m="1e3"),
    config_error("constants-nan-t-end", f"constants {OU8}", "t_end = 'nan'", t_end="nan"),
    config_error("validate-nan-t-end", f"validate {OU8}", "t_end = 'nan'", t_end="nan"),
    config_error("flowbound-nan-t-end", f"check flowbound {OU8}", "t_end = 'nan'",
                 t_end="nan", m="10"),
    config_error("constants-unknown-functional", f"constants {OU8}", "functional 'nosuch'",
                 f="nosuch"),
    config_error("validate-unknown-functional", f"validate {OU8}", "functional 'nosuch'",
                 f="nosuch"),
    config_error("invariant-unknown-functional", f"invariant {OU8}", "functional 'nosuch'",
                 f="nosuch", m="10"),
    config_error("constants-zero-checkpoints", f"constants {OU8}", "checkpoints = '0'",
                 checkpoints="0"),
    config_error("validate-zero-checkpoints", f"validate {OU8}", "checkpoints = '0'",
                 checkpoints="0"),
    config_error("flowbound-zero-checkpoints", f"check flowbound {OU8}", "checkpoints = '0'",
                 checkpoints="0", m="10"),
    config_error("validate-word-bign", f"validate {OU8}", "bign = 'x'", bign="x"),
    config_error("constants-word-bign", f"constants {OU8}", "bign = 'x'", bign="x"),
    config_error("check-word-bign", f"check gradient {OU8}", "bign = 'x'", bign="x", m="10"),
    config_error("invariant-word-bign", f"invariant {OU8}", "bign = 'x'", bign="x", m="10"),
    config_error("dump-word-bign", f"dump-trajectories {OU8}", "bign = 'x'",
                 bign="x", m="1", t_end="0.01"),
    config_error("dump-field-word-bign", f"dump-field {RD16}", "bign = 'x'", bign="x"),
)

def model_error(id, model, named, experiment=None):
    """A row whose model (or experiment) file ``constants`` rejects while reading it."""
    return Case(id, "constants --model m.ini", model, experiment, 2, named)


# model and experiment files ``constants`` rejects while reading them
BAD_INPUT = (
    model_error("side-with-one-number", RD_MODEL.replace("side_0 = 0 1", "side_0 = 0"), "side_0"),
    model_error("ou-without-lambdas", OU4_MODEL.replace("lambdas = 1 2 3 4\n", ""),
                "needs an [ou] section with lambdas"),
    model_error("ou-zero-lambda", OU4_MODEL.replace("lambdas = 1", "lambdas = 0"),
                "ou lambdas must be a non-empty list of finite positive numbers"),
    model_error("model-without-section", "kind = ou\n", "could not parse model file 'm.ini'"),
    model_error("experiment-without-section", OU4_MODEL, "could not parse config file", "m = 3\n"),
    model_error("nan-alpha", RD_MODEL.replace("value = 2.0", "value = nan"),
                "[alpha] value = 'nan'"),
    model_error("inf-alpha", RD_MODEL.replace("value = 2.0", "value = inf"),
                "[alpha] value = 'inf'"),
    model_error("nan-phi-amp", RD_MODEL.replace("amp = 0.1", "amp = nan"), "[phi] amp = 'nan'"),
    model_error("inf-psi-a", RD_MODEL.replace("a = 0.5", "a = inf"), "[psi] a = 'inf'"),
    model_error("inf-side", RD_MODEL.replace("side_0 = 0 1", "side_0 = 0 inf"), "side_0 = 'inf'"),
    model_error("nan-ou-lambda", OU4_MODEL.replace("1 2 3 4", "1 nan 3 4"), "lambdas = 'nan'"),
    model_error("ou-phi0-not-a-number", OU4_MODEL.replace("phi0 = 1.0", "phi0 = abc"),
                "phi0 = 'abc'"),
    model_error("nan-t", OU4_MODEL, "t = 'nan'", dict(t="nan")),
    model_error("inf-t", OU4_MODEL, "t = 'inf'", dict(t="inf")),
    model_error("ou-phi0-square-overflows",
                OU4_MODEL.replace("1 2 3 4", "1 2 3").replace("phi0 = 1.0", "phi0 = 1e200"),
                "phi0"),
    model_error("float-n", RD_MODEL.replace("n = 8", "n = 1.5"), "[galerkin] n = '1.5'"),
    model_error("zero-n", RD_MODEL.replace("n = 8", "n = 0"),
                "[galerkin] n = '0' is not an integer >= 1"),
    model_error("float-quad-points", RD_MODEL.replace("quad_points = 32", "quad_points = 3e1"),
                "[galerkin] quad_points = '3e1'"),
    model_error("float-d", RD_MODEL.replace("d = 1", "d = 1.0"), "[domain] d = '1.0'"),
    model_error("zero-d", RD_MODEL.replace("d = 1", "d = 0"),
                "[domain] d = '0' is not an integer >= 1"),
    # finite parameters whose squares (the ellipticity and growth bounds) overflow
    model_error("atan-a-square-overflows", RD_MODEL.replace("a = 0.5", "a = 1e200"),
                "[psi] atan_scaled"),
    model_error("affine-a-square-overflows",
                RD_MODEL.replace("atan_scaled\na = 0.5", "affine\na = 1e200\nb = 0.1"),
                "[psi] affine"),
    model_error("sin-amp-square-overflows", RD_MODEL.replace("amp = 0.1", "amp = 1e200"),
                "[phi] sin_perturbed"),
    # amp^2 is finite, but the diffusion kernel's weight 2 amp^2 overflows
    model_error("sigma-weight-overflows", RD_MODEL.replace("amp = 0.1", "amp = 1e154"),
                "weight must be finite"),
)

# at 1e160 |x|^2 overflows per path; under noise 1e90 only the squares the variance sums
# do.  A huge v makes the squared directional derivative overflow, and a drift slope of
# 1e150 the state itself, with no numpy warning on the way
NOISY = "--model noisy-ou.ini"
NONFINITE = (
    Case("converge", f"converge {OU8}", None, OVERFLOW, 3, GAP_OVERFLOW),
    Case("invariant", "invariant --model preset:ou-invariant", None, OVERFLOW, 3,
         "non-finite values of '|X_t|^2 at t = 0.02'"),
    Case("poincare", f"check poincare {NOISY}", NOISY_OU_MODEL, dict(OVERFLOW, x="zeros"), 3,
         "poincare check: lhs_se is not finite"),
    Case("converge-moments", f"converge {NOISY}", NOISY_OU_MODEL, dict(OVERFLOW, x="zeros"),
         3, "gap at n = 2: stderr is not finite"),
    Case("invariant-moments", f"invariant {NOISY}", NOISY_OU_MODEL, dict(OVERFLOW, x="zeros"),
         3, "|X_t|^2 at t = 0.02: stderr is not finite"),
    Case("gradient-huge-v", f"check gradient {OU8}", None,
         dict(OVERFLOW, x="zeros", v="1e200*e1"), 3, "gradient check: lhs_hat is not finite"),
    Case("variance-huge-v", f"check variance {OU8}", None,
         dict(OVERFLOW, x="zeros", v="1e200*e1"), 3,
         "variance_gradient check: lhs_hat is not finite"),
    Case("gradient-steep-drift", "check gradient --model steep.ini", STEEP_MODEL,
         dict(OVERFLOW, x="zeros"), 3, "non-finite state within steps 1..5"),
)

# every command on rd16 and ou8 at a small and a huge start, on model files, and on edge
# inputs; the matrix names each such row's runs <id>_t1 and <id>_t2
OU_FILE, RD2D = "--model ou.ini", "--model rd2d.ini"
HUGE_VARIANCE = "variance_gradient check: the variance of f(X_t) is unresolved"
HUGE_POINCARE = "poincare check: the variance of f(X_t) is unresolved"
REPORTS = (
    Case("validate_rd16_small", f"validate {RD16}", None, SMALL, 0),
    Case("constants_rd16_small", f"constants {RD16}", None, SMALL, 0),
    Case("check-gradient_rd16_small", f"check gradient {RD16}", None, SMALL, 0),
    Case("check-logharnack_rd16_small", f"check logharnack {RD16}", None, SMALL, 0),
    Case("check-variance_rd16_small", f"check variance {RD16}", None, SMALL, 0),
    Case("check-poincare_rd16_small", f"check poincare {RD16}", None, SMALL, 0),
    Case("check-flowbound_rd16_small", f"check flowbound {RD16}", None, SMALL, 0),
    Case("converge_rd16_small", f"converge {RD16}", None, SMALL, 0),
    Case("invariant_rd16_small", f"invariant {RD16}", None, SMALL, 0),
    Case("dump-trajectories_rd16_small", f"dump-trajectories {RD16}", None, SMALL, 0),
    Case("dump-field_rd16_small", f"dump-field {RD16}", None, SMALL, 0),
    Case("validate_rd16_huge", f"validate {RD16}", None, HUGE, 0),
    Case("constants_rd16_huge", f"constants {RD16}", None, HUGE, 0),
    Case("check-gradient_rd16_huge", f"check gradient {RD16}", None, HUGE, 0),
    Case("check-logharnack_rd16_huge", f"check logharnack {RD16}", None, HUGE, 2, POSITIVE_F),
    Case("check-variance_rd16_huge", f"check variance {RD16}", None, HUGE, 3, HUGE_VARIANCE),
    Case("check-poincare_rd16_huge", f"check poincare {RD16}", None, HUGE, 3, HUGE_POINCARE),
    Case("check-flowbound_rd16_huge", f"check flowbound {RD16}", None, HUGE, 0),
    Case("converge_rd16_huge", f"converge {RD16}", None, HUGE, 0),
    Case("invariant_rd16_huge", f"invariant {RD16}", None, HUGE, 3, MOMENT_OVERFLOW),
    Case("dump-trajectories_rd16_huge", f"dump-trajectories {RD16}", None, HUGE, 0),
    Case("dump-field_rd16_huge", f"dump-field {RD16}", None, HUGE, 0),
    Case("validate_ou8_small", f"validate {OU8}", None, SMALL, 0),
    Case("constants_ou8_small", f"constants {OU8}", None, SMALL, 0),
    Case("check-gradient_ou8_small", f"check gradient {OU8}", None, SMALL, 0),
    Case("check-logharnack_ou8_small", f"check logharnack {OU8}", None, SMALL, 0),
    Case("check-variance_ou8_small", f"check variance {OU8}", None, SMALL, 0),
    Case("check-poincare_ou8_small", f"check poincare {OU8}", None, SMALL, 0),
    Case("check-flowbound_ou8_small", f"check flowbound {OU8}", None, SMALL, 0),
    Case("converge_ou8_small", f"converge {OU8}", None, SMALL, 0),
    Case("invariant_ou8_small", f"invariant {OU8}", None, SMALL, 0),
    Case("dump-trajectories_ou8_small", f"dump-trajectories {OU8}", None, SMALL, 0),
    Case("dump-field_ou8_small", f"dump-field {OU8}", None, SMALL, 2, NO_FIELD),
    Case("validate_ou8_huge", f"validate {OU8}", None, HUGE, 0),
    Case("constants_ou8_huge", f"constants {OU8}", None, HUGE, 0),
    Case("check-gradient_ou8_huge", f"check gradient {OU8}", None, HUGE, 0),
    Case("check-logharnack_ou8_huge", f"check logharnack {OU8}", None, HUGE, 2, POSITIVE_F),
    Case("check-variance_ou8_huge", f"check variance {OU8}", None, HUGE, 3, HUGE_VARIANCE),
    Case("check-poincare_ou8_huge", f"check poincare {OU8}", None, HUGE, 3, HUGE_POINCARE),
    Case("check-flowbound_ou8_huge", f"check flowbound {OU8}", None, HUGE, 0),
    Case("converge_ou8_huge", f"converge {OU8}", None, HUGE, 3, GAP_OVERFLOW),
    Case("invariant_ou8_huge", f"invariant {OU8}", None, HUGE, 3, MOMENT_OVERFLOW),
    Case("dump-trajectories_ou8_huge", f"dump-trajectories {OU8}", None, HUGE, 0),
    Case("dump-field_ou8_huge", f"dump-field {OU8}", None, HUGE, 2, NO_FIELD),
    Case("converge_ou-converge_small", "converge --model preset:ou-converge", None, SMALL, 0),
    Case("invariant_ou-invariant_small", "invariant --model preset:ou-invariant", None, SMALL,
         0),
    Case("validate_alpha06", "validate --model alpha06.ini", ALPHA06_MODEL, SMALL, 0, TAIL,
         warns=True),
    Case("invariant_ou-invariant_chunks", "invariant --model preset:ou-invariant", None,
         CHUNKS, 0),
    Case("check-gradient_rd16_twoblocks", f"check gradient {RD16}", None, TWOBLOCKS, 0),
    Case("check-poincare_ou8_twoblocks", f"check poincare {OU8}", None, TWOBLOCKS, 0),
    Case("validate_ou-file_small", f"validate {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("constants_ou-file_small", f"constants {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("check-gradient_ou-file_small", f"check gradient {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("check-logharnack_ou-file_small", f"check logharnack {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("check-variance_ou-file_small", f"check variance {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("check-poincare_ou-file_small", f"check poincare {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("check-flowbound_ou-file_small", f"check flowbound {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("converge_ou-file_small", f"converge {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("invariant_ou-file_small", f"invariant {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("dump-trajectories_ou-file_small", f"dump-trajectories {OU_FILE}", OU8_MODEL, SMALL, 0),
    Case("dump-field_ou-file_small", f"dump-field {OU_FILE}", OU8_MODEL, SMALL, 2, NO_FIELD),
    Case("validate_rd2d-file_small", f"validate {RD2D}", RD2D_MODEL, SMALL, 0, TAIL,
         warns=True),
    Case("constants_rd2d-file_small", f"constants {RD2D}", RD2D_MODEL, SMALL, 0, TAIL,
         warns=True),
    Case("check-gradient_rd2d-file_small", f"check gradient {RD2D}", RD2D_MODEL, SMALL, 0,
         TAIL, warns=True),
    Case("check-logharnack_rd2d-file_small", f"check logharnack {RD2D}", RD2D_MODEL, SMALL,
         0, TAIL, warns=True),
    Case("check-variance_rd2d-file_small", f"check variance {RD2D}", RD2D_MODEL, SMALL, 0,
         TAIL, warns=True),
    Case("check-poincare_rd2d-file_small", f"check poincare {RD2D}", RD2D_MODEL, SMALL, 0,
         TAIL, warns=True),
    Case("check-flowbound_rd2d-file_small", f"check flowbound {RD2D}", RD2D_MODEL, SMALL,
         0, TAIL, warns=True),
    Case("converge_rd2d-file_small", f"converge {RD2D}", RD2D_MODEL, SMALL, 0),
    Case("invariant_rd2d-file_small", f"invariant {RD2D}", RD2D_MODEL, SMALL, 0, TAIL,
         warns=True),
    Case("dump-trajectories_rd2d-file_small", f"dump-trajectories {RD2D}", RD2D_MODEL,
         SMALL, 0),
    Case("dump-field_rd2d-file_small", f"dump-field {RD2D}", RD2D_MODEL, SMALL, 0),
    # a direction whose squared derivative overflows
    Case("check-gradient_ou8_bigv", f"check gradient {OU8}", None, dict(SMALL, v="1e200*e1"), 3,
         "gradient check: lhs_hat is not finite"),
    Case("check-variance_ou8_bigv", f"check variance {OU8}", None, dict(SMALL, v="1e200*e1"), 3,
         "variance_gradient check: lhs_hat is not finite"),
    Case("invariant_ou8_nocheckpoints", f"invariant {OU8}", None, dict(SMALL, checkpoints="0"),
         2, "checkpoints = '0'"),
    Case("dump-trajectories_ou8_nopaths", f"dump-trajectories {OU8}", None, dict(SMALL, m="0"),
         2, "m = '0'"),
    Case("check-gradient_ou8_floatm", f"check gradient {OU8}", None, dict(SMALL, m="1e3"), 2,
         "m = '1e3'"),
    # removed keys
    Case("check-gradient_rd16_em", f"check gradient {RD16}", None, EM, 2, "key 'scheme'"),
    Case("check-gradient_ou8_em", f"check gradient {OU8}", None, EM, 2, "key 'scheme'"),
    Case("check-gradient_ou8_slackkey", f"check gradient {OU8}", None, dict(SMALL, k="4.0"), 2,
         "unknown experiment key 'k'"),
    Case("check-gradient_ou8_batchkey", f"check gradient {OU8}", None,
         dict(SMALL, batch_size="16"), 2, "unknown experiment key 'batch_size'"),
    # constants reads every key, though it samples nothing
    Case("constants_ou8_floatm", f"constants {OU8}", None, dict(SMALL, m="1e3"), 2, "m = '1e3'"),
    # the report names the seed mod 2^64 its noise stream uses
    Case("invariant_ou8_negseed", f"invariant {OU8}", None, dict(SMALL, seed="-1"), 0),
    # 0.25 / 0.1 rounds to 2 steps, run and reported at dt = 0.125
    Case("invariant_ou8_roundeddt", f"invariant {OU8}", None, dict(SMALL, t_end="0.25",
                                                                  dt="0.1"), 0),
    Case("constants_floatn-file_small", "constants --model floatn.ini",
         ALPHA06_MODEL.replace("n = 8", "n = 1.5"), SMALL, 2, "[galerkin] n = '1.5'"),
    Case("constants_bigamp-file_small", "constants --model bigamp.ini",
         ALPHA06_MODEL.replace("amp = 0.1", "amp = 1e200"), SMALL, 2, "[phi] sin_perturbed"),
    # constants that overflow are written as "inf"; the state overflows within a few steps
    Case("constants_steep-file_small", "constants --model steep.ini", STEEP_MODEL, SMALL, 0),
    Case("check-gradient_steep-file_small", "check gradient --model steep.ini", STEEP_MODEL,
         SMALL, 3, "non-finite state within steps 1..10"),
    # t0 is 1, and the bound reads e^{2(0.1 - lambda_1) t} for mode 1's deterministic flow
    Case("check-flowbound_lipschitz-file_t40", "check flowbound --model lipschitz.ini",
         LIPSCHITZ_MODEL, dict(LIPSCHITZ, t="40"), 0),
    Case("check-flowbound_lipschitz-file_t60", "check flowbound --model lipschitz.ini",
         LIPSCHITZ_MODEL, dict(LIPSCHITZ, t="60"), 0),
    Case("constants_ou8_unwritable-out", f"constants {OU8} --out missing/report.json", None,
         SMALL, 2, "could not write output file 'missing/report.json'"),
    Case("constants_alpha40-file_small", "constants --model alpha40.ini", ALPHA40_MODEL, SMALL,
         2, "alpha = 40.0 makes eigenvalue 4096 overflow a float"),
    # reports "holds": false
    Case("invariant_growth-file_wide", "invariant --model growth.ini", GROWTH_MODEL,
         dict(SMALL, eps0="1.0001", c0="3001"), 2, "assumption failed: growth_condition"),
    # validate reads the declared constants, which hold for any forcing b
    Case("validate_affine-forcing", "validate --model affine-forcing.ini", AFFINE_FORCING_MODEL,
         SMALL, 0),
)

CASES = BAD_CONFIG + BAD_INPUT + NONFINITE + REPORTS
