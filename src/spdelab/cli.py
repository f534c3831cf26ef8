"""Batch experiment driver.

Experiments are described by two INI files: a model file (sections [model],
[domain], [alpha], [psi], [phi], [galerkin] for reaction-diffusion models, or
[model]/[ou] for the exactly solvable diagonal reference) and an optional
experiment config ([experiment] section).  Command-line flags only override
--seed, --threads and --out, so the files are the reproducibility record.

Exit codes: 0 pass, 1 statistical fail, 2 configuration/assumption error,
3 numerical failure (NaN / blow-up).
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import kernels, presets
from .functionals import by_name as functional_by_name
from .montecarlo import EstimationError, MonteCarlo, plateau_verdict
from .noise import NoiseStream
from .reaction import (ReactionDiffusionModel, ScalarFunctionSpec, check_growth_condition,
                       spot_check_lipschitz, spot_check_square_bounds)
from .simulate import SchemeConfig, SimulationError, simulate_batch
from .spectral import RectDomain

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# -- model files ---------------------------------------------------------------

_SCALAR_FORMS = {
    "affine": (("a", "b"), ScalarFunctionSpec.affine),
    "sin_perturbed": (("c0", "amp", "freq"), ScalarFunctionSpec.sin_perturbed),
    "atan_scaled": (("a",), ScalarFunctionSpec.atan_scaled),
}


def _parse_scalar_spec(section) -> ScalarFunctionSpec:
    form = section.get("form")
    if form not in _SCALAR_FORMS:
        raise ValueError(f"unknown scalar function form {form!r}")
    keys, ctor = _SCALAR_FORMS[form]
    try:
        args = [_number(section[k], f"[{section.name}] {k}") for k in keys]
    except KeyError as e:
        raise ValueError(f"scalar form {form!r} needs key {e}") from None
    return ctor(*args)


# both model kinds answer n, lambdas, callbacks and profile()
Model = ReactionDiffusionModel | presets.OUPreset

_PRESETS = {
    "rd16": presets.bounded_reaction_model,
    "ou8": presets.ou_moments_preset,
    "ou-converge": presets.ou_convergence_preset,
    "ou-invariant": presets.ou_invariant_preset,
}


def _read_ini(path: str, what: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as e:
        raise ValueError(f"could not parse {what} {path!r}: {e.message.splitlines()[0]}") from e
    if not read:
        raise ValueError(f"could not read {what} {path!r}")
    return cp


def load_model(spec: str) -> Model:
    if spec.startswith("preset:"):
        name = spec.split(":", 1)[1]
        if name not in _PRESETS:
            raise ValueError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}")
        return _PRESETS[name]()
    cp = _read_ini(spec, "model file")
    if not cp.sections():
        raise ValueError(f"could not parse model file {spec!r}")
    kind = cp.get("model", "kind", fallback="reaction_diffusion")
    if kind == "ou":
        if "ou" not in cp or "lambdas" not in cp["ou"]:
            raise ValueError("ou model file needs an [ou] section with lambdas")
        return presets.OUPreset(_floats(cp["ou"]["lambdas"], "[ou] lambdas"),
                                _number(cp["ou"].get("phi0", "1.0"), "[ou] phi0"))
    if kind != "reaction_diffusion":
        raise ValueError(f"unknown model kind {kind!r}")
    for sec in ("domain", "alpha", "psi", "phi", "galerkin"):
        if sec not in cp:
            raise ValueError(f"model file missing [{sec}] section")
    try:
        sides = []
        for i in range(_whole(cp["domain"].get("d", "1"), "[domain] d", 1)):
            raw = cp["domain"].get(f"side_{i}", "0 1")
            ends = _floats(raw, f"[domain] side_{i}")
            if len(ends) != 2:
                raise ValueError(f"domain side_{i} needs two numbers 'a b', got {raw!r}")
            sides.append(tuple(ends))
        return ReactionDiffusionModel(
            domain=RectDomain(sides=tuple(sides)),
            alpha=_number(cp["alpha"]["value"], "[alpha] value"),
            psi=_parse_scalar_spec(cp["psi"]),
            phi=_parse_scalar_spec(cp["phi"]),
            n=_whole(cp["galerkin"]["n"], "[galerkin] n", 1),
            quad_points=_whole(cp["galerkin"]["quad_points"], "[galerkin] quad_points"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"invalid model file {spec!r}: {e}") from e


# -- experiment config -----------------------------------------------------------

def _number(raw: str, key: str) -> float:
    """A finite number read from an input file; errors name the key."""
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise ValueError(f"{key} = {raw.strip()!r} is not a finite number")
    return val


def _whole(raw: str, key: str, least: int | None = None) -> int:
    """An integer (at least ``least``) read from an input file; errors name the key."""
    try:
        val = int(raw)
    except ValueError:
        val = None
    if val is None or (least is not None and val < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{key} = {raw.strip()!r} is not an integer{bound}")
    return val


def _floats(raw: str, key: str) -> list[float]:
    return [_number(v, key) for v in raw.replace(",", " ").split()]


def _times(raw: str, key: str) -> list[float]:
    times = _floats(raw, key)
    if not times:
        raise ValueError(f"experiment key {key!r} needs at least one time")
    return times


_count = functools.partial(_whole, least=1)

# Every experiment key: its default and the reader ``main`` types it with, so a
# bad value fails whichever command runs.  The vectors x, y and v stay strings
# (reader None): their length belongs to the command.
_KEYS = {
    "t": ("0.05 0.2", _times), "m": ("10000", _count), "dt": ("1e-3", _number),
    "seed": ("12345", _whole), "threads": ("1", _count),
    "f": ("sin1", lambda raw, key: functional_by_name(raw)),
    "x": ("zeros", None), "y": ("zeros", None), "v": ("e1", None),
    "t_end": ("10.0", _number), "checkpoints": ("8", _count),
    "n_list": ("4 8 16 32",
               lambda raw, key: [_count(v, key) for v in raw.replace(",", " ").split()]),
    "bign": ("64", _count), "eps0": ("1.0", _number), "c0": ("2.0", _number),
    "eps": ("0.5", _number), "batch_size": ("4096", _count),
}


def load_experiment(path: str | None) -> dict:
    cfg = {key: default for key, (default, _) in _KEYS.items()}
    if path:
        cp = _read_ini(path, "config file")
        if "experiment" in cp:
            for key, val in cp["experiment"].items():
                if key not in _KEYS:
                    raise ValueError(f"unknown experiment key {key!r}")
                cfg[key] = val
    return cfg


def _vector(raw: str, n: int, key: str) -> np.ndarray:
    raw = raw.strip()
    scale = 1.0
    if "*" in raw:
        s, raw = raw.split("*", 1)
        scale = _number(s, key)
        raw = raw.strip()
    if raw == "zeros":
        vec = np.zeros(n)
    elif raw == "ones":
        vec = np.ones(n)
    elif raw.startswith("e") and raw[1:].isdigit():
        i = int(raw[1:])
        if not 1 <= i <= n:
            raise ValueError(f"unit vector {raw!r} outside e1..e{n}")
        vec = np.zeros(n)
        vec[i - 1] = 1.0
    elif raw == "random":
        g = np.random.default_rng(2024).normal(size=n)
        vec = g / np.linalg.norm(g)
    else:
        vec = np.array(_floats(raw, key))
        if vec.size != n:
            raise ValueError(f"vector has {vec.size} entries, model has {n} modes")
    return scale * vec


def _write(out_path: str | None, text: str):
    """Write ``text`` to ``out_path`` (stdout without one); a failed write is a ValueError."""
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"could not write output file {out_path!r}: {e.strerror or e}") from e


def _json_report(out_path: str | None, report: dict):
    """Write ``report`` as indented JSON with every infinite float as "inf"."""
    def finite(x):
        if isinstance(x, dict):
            return {key: finite(val) for key, val in x.items()}
        if isinstance(x, list):
            return [finite(val) for val in x]
        return "inf" if isinstance(x, float) and math.isinf(x) else x
    _write(out_path, json.dumps(finite(report), sort_keys=True, indent=1) + "\n")


def _csv_report(out_path: str | None, header: str, rows):
    """Write a CSV table: int cells as str(int(c)), every other cell as repr(float(c))."""
    def cell(c):
        return str(int(c)) if isinstance(c, (int, np.integer)) else repr(float(c))
    _write(out_path, header + "\n" + "".join(",".join(map(cell, row)) + "\n" for row in rows))


def _make_mc(cfg: dict, lambdas: np.ndarray, callbacks) -> MonteCarlo:
    noise = NoiseStream(seed=cfg["seed"], width=lambdas.size)
    return MonteCarlo(lambdas, callbacks, noise, dt=cfg["dt"],
                      threads=cfg["threads"], batch_size=cfg["batch_size"])


# -- commands --------------------------------------------------------------------
#
# Each command takes the loaded model, the experiment config (with --seed and
# --threads already applied, and every key but the vectors already typed by its
# reader) and the parsed flags, and returns an exit code; ``main`` turns the
# errors they raise into exit codes 2 and 3.

def cmd_validate(model: Model, cfg: dict, args) -> int:
    profile = model.profile()
    t_grid = [0.01, 0.1, 0.5, 1.0]
    verdicts = {}
    if isinstance(model, ReactionDiffusionModel):
        verdicts["psi_lipschitz"] = spot_check_lipschitz(model.psi)
        verdicts["phi_lipschitz"] = spot_check_lipschitz(model.phi)
        verdicts["psi_square_bounds"] = spot_check_square_bounds(model.psi)
        verdicts["phi_square_bounds"] = spot_check_square_bounds(model.phi)
    verdicts["kernels_integrable"] = math.isfinite(
        profile.Kb.integral(1.0) + profile.Ksigma.integral(1.0))
    verdicts["uniform_ellipticity"] = profile.lambda_sigma > 0
    verdicts["sigma_bounded_above"] = profile.lambda_bar_sigma is not None
    report = {
        "model": args.model.removeprefix("preset:"),
        "t_grid": t_grid,
        "phi_b": [profile.Kb.integral(t) for t in t_grid],
        "phi_sigma": [profile.Ksigma.integral(t) for t in t_grid],
        "Kb": [profile.Kb.value(t) for t in t_grid],
        "Ksigma": [profile.Ksigma.value(t) for t in t_grid],
        "t0": profile.t0,
        "t0_exact": profile.t0_exact,
        "lambda_sigma": profile.lambda_sigma,
        "lambda_bar_sigma": profile.lambda_bar_sigma,
        "assumptions": verdicts,
    }
    _json_report(args.out, report)
    # an unbounded sigma only rules out the Poincare check
    hard = [k for k, ok in verdicts.items() if not ok and k != "sigma_bounded_above"]
    if hard:
        print(f"assumption failed: {hard[0]}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_PASS


def cmd_constants(model: Model, cfg: dict, args) -> int:
    profile = model.profile()
    rows = []
    for t in cfg["t"]:
        row = {"t": t, "gradient_constant": kernels.gradient_constant(t, profile.t0)}
        if t > 0 and profile.lambda_sigma > 0:
            row["logharnack_constant"] = kernels.logharnack_constant(
                t, profile.t0, profile.lambda_sigma)
        else:
            row["logharnack_constant"] = math.inf
        if profile.lambda_bar_sigma is not None:
            row["poincare_constant"] = kernels.poincare_constant(
                t, profile.t0, profile.lambda_bar_sigma)
        else:
            row["poincare_constant"] = None
        rows.append(row)
    _json_report(args.out, {"model": args.model.removeprefix("preset:"), "t0": profile.t0,
                            "rows": rows})
    return EXIT_PASS


def cmd_check(model: Model, cfg: dict, args) -> int:
    profile = model.profile()
    mc = _make_mc(cfg, model.lambdas, model.callbacks)
    f, t, M = cfg["f"], cfg["t"][0], cfg["m"]
    x, y, v = (_vector(cfg[key], model.n, key) for key in ("x", "y", "v"))
    which = args.which
    if which in ("logharnack", "variance") and profile.lambda_sigma <= 0:
        print("assumption failed: uniform_ellipticity", file=sys.stderr)
        return EXIT_CONFIG
    if which == "poincare" and profile.lambda_bar_sigma is None:
        print("assumption failed: sigma_bounded_above", file=sys.stderr)
        return EXIT_CONFIG
    if which == "gradient":
        rep = mc.check_gradient_bound(f, x, v, t, profile.t0, M)
    elif which == "logharnack":
        rep = mc.check_log_harnack(f, x, y, t, profile.t0, profile.lambda_sigma, M)
    elif which == "variance":
        rep = mc.check_variance_gradient(f, x, v, t, profile.t0, profile.lambda_sigma, M)
    elif which == "poincare":
        rep = mc.check_poincare(f, x, t, profile.t0, profile.lambda_bar_sigma, M)
    else:
        rep = mc.check_flow_bound(x, v, t, profile.t0, M)
    _write(args.out, rep.to_json() + "\n")
    return EXIT_PASS if rep.passed else EXIT_STAT_FAIL


def cmd_converge(model: Model, cfg: dict, args) -> int:
    N = cfg["bign"]
    if isinstance(model, ReactionDiffusionModel):
        def build(n):
            sub = dataclasses.replace(model, n=n, quad_points=max(model.quad_points, 2 * N))
            return sub.lambdas, sub.callbacks
    else:
        if model.n < N:
            raise ValueError(f"OU preset has {model.n} modes, need N = {N}")
        cb = model.callbacks

        def build(n):
            return model.lambdas[:n], cb

    mc = _make_mc(cfg, *build(N))
    x0 = _vector(cfg["x"], N, "x")
    rows = mc.convergence_study(build, cfg["n_list"], N, x0, cfg["t"][0], cfg["m"])
    _csv_report(args.out, "n,error,stderr", rows)
    return EXIT_PASS


def cmd_invariant(model: Model, cfg: dict, args) -> int:
    t_end, n_checks, M = cfg["t_end"], cfg["checkpoints"], cfg["m"]
    checkpoints = [t_end * (i + 1) / n_checks for i in range(n_checks)] if t_end > 0 else [0.0]
    mc = _make_mc(cfg, model.lambdas, model.callbacks)
    out: dict = {"model": args.model.removeprefix("preset:"), "M": M,
                 "dt": cfg["dt"], "seed": mc.noise.seed}
    if isinstance(model, ReactionDiffusionModel):
        eps0, C0 = cfg["eps0"], cfg["c0"]
        growth_ok = check_growth_condition(model, eps0, C0)
        out["growth_condition"] = {"eps0": eps0, "C0": C0, "holds": growth_ok}
        finite, value = model.profile().Ksigma.epsilon_integral(cfg["eps"])
        out["epsilon_integrability"] = {"eps": cfg["eps"], "finite": finite, "value": value}
        if not growth_ok:
            out["verdict"] = "growth-condition-failed"
            _json_report(args.out, out)
            return EXIT_CONFIG
    else:
        out["stationary_tail_sum"] = model.stationary_moment()
    rows = mc.second_moment_curve(_vector(cfg["x"], model.n, "x"), t_end, checkpoints, M)
    out["rows"] = [{"t": t, "moment": m, "stderr": s} for t, m, s in rows]
    out["verdict"] = plateau_verdict(rows)
    _json_report(args.out, out)
    return EXIT_PASS


def cmd_dump_trajectories(model: Model, cfg: dict, args) -> int:
    noise = NoiseStream(seed=cfg["seed"], width=model.n)
    scfg = SchemeConfig(dt=cfg["dt"], t_end=cfg["t_end"])
    x0 = _vector(cfg["x"], model.n, "x")
    cb = model.callbacks
    steps = range(scfg.n_steps + 1)

    def rows():
        # each path runs alone, so only one path's snapshots are alive at a time
        for pid in range(cfg["m"]):
            snaps = simulate_batch(x0, [pid], scfg, model.lambdas, cb, noise,
                                   checkpoint_steps=steps)["checkpoints"]
            for k in steps:
                yield (pid, k, k * scfg.realized_dt, *snaps[k][0])

    header = "path_id,step,t," + ",".join(f"coeff_{i}" for i in range(model.n))
    _csv_report(args.out, header, rows())
    return EXIT_PASS


def cmd_dump_field(model: Model, cfg: dict, args) -> int:
    if not isinstance(model, ReactionDiffusionModel):
        raise ValueError("field dumps need a reaction-diffusion model")
    grid, vals = model.callbacks.field_on_grid(_vector(cfg["x"], model.n, "x"))
    d = model.domain.d
    header = ",".join(f"xi_{i}" for i in range(d)) + ",u" if d > 1 else "xi,u(xi)"
    _csv_report(args.out, header, ((*pt, u) for pt, u in zip(grid, vals)))
    return EXIT_PASS


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spdelab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, run, text in (
            ("validate", cmd_validate, "assumption report: kernels, phi, t0"),
            ("constants", cmd_constants, "semigroup constants over a t grid"),
            ("check", cmd_check, "run one statistical inequality check"),
            ("converge", cmd_converge, "Galerkin truncation error table"),
            ("invariant", cmd_invariant, "second-moment curve and plateau verdict"),
            ("dump-trajectories", cmd_dump_trajectories, "CSV trajectory dump"),
            ("dump-field", cmd_dump_field, "CSV field values u(xi) on the grid")):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(run=run)
        if run is cmd_check:
            sp.add_argument("which", choices=["gradient", "logharnack", "variance",
                                              "poincare", "flowbound"])
        sp.add_argument("--model", required=True,
                        help=f"model INI file or preset:{{{','.join(_PRESETS)}}}")
        sp.add_argument("--config", default=None, help="experiment INI file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        model = load_model(args.model)
        cfg = load_experiment(args.config)
        for key in ("seed", "threads"):
            if getattr(args, key) is not None:
                cfg[key] = str(getattr(args, key))
        cfg = {key: read(cfg[key], key) if read else cfg[key]
               for key, (_, read) in _KEYS.items()}
        return args.run(model, cfg, args)
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, EstimationError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
