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
import io
import json
import math
import sys

import numpy as np

from . import kernels, presets
from .functionals import by_name as functional_by_name
from .kernels import ConstantKernel, RegularityProfile
from .montecarlo import EstimationError, MonteCarlo, plateau_verdict
from .noise import NoiseStream
from .reaction import (ReactionDiffusionModel, ScalarFunctionSpec, build_callbacks,
                       build_profile, check_growth_condition,
                       spot_check_lipschitz, spot_check_square_bounds)
from .simulate import SchemeConfig, SimulationError, simulate_batch
from .spectral import RectDomain

EXIT_PASS = 0
EXIT_STAT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


def _g17(x) -> float:
    return float(f"{float(x):.17g}")


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, float):
        return _g17(x)
    return x


# -- model files ---------------------------------------------------------------

_SCALAR_FORMS = {
    "affine": (("a", "b"), ScalarFunctionSpec.affine),
    "sin_perturbed": (("c0", "amp", "freq"), ScalarFunctionSpec.sin_perturbed),
    "atan_scaled": (("a",), ScalarFunctionSpec.atan_scaled),
}


def _parse_scalar_spec(section) -> ScalarFunctionSpec:
    form = section.get("form")
    if form not in _SCALAR_FORMS:
        raise ConfigError(f"unknown scalar function form {form!r}")
    keys, ctor = _SCALAR_FORMS[form]
    try:
        args = [float(section[k]) for k in keys]
    except KeyError as e:
        raise ConfigError(f"scalar form {form!r} needs key {e}") from None
    return ctor(*args)


class ModelHandle:
    """Uniform access to either model kind: spectrum, callbacks, profile."""

    def __init__(self, kind: str, name: str, reaction=None, ou=None):
        self.kind = kind
        self.name = name
        self.reaction = reaction
        self.ou = ou

    @property
    def n(self) -> int:
        return self.reaction.n if self.kind == "reaction" else self.ou.n

    @property
    def lambdas(self) -> np.ndarray:
        if self.kind == "reaction":
            return self.reaction.spectrum.lambdas
        return self.ou.lambdas

    def callbacks(self):
        if self.kind == "reaction":
            return build_callbacks(self.reaction)
        return self.ou.callbacks

    def profile(self) -> RegularityProfile:
        if self.kind == "reaction":
            return build_profile(self.reaction)
        lam = self.ou.phi0**2  # constant sigma: both ellipticity bounds are phi0^2
        return RegularityProfile(Kb=ConstantKernel(0.0), Ksigma=ConstantKernel(0.0),
                                 lambda_sigma=lam, lambda_bar_sigma=lam)


_PRESETS = {
    "rd16": lambda: ModelHandle("reaction", "rd16", reaction=presets.bounded_reaction_model()),
    "ou8": lambda: ModelHandle("ou", "ou8", ou=presets.ou_moments_preset()),
    "ou-converge": lambda: ModelHandle("ou", "ou-converge", ou=presets.ou_convergence_preset()),
    "ou-invariant": lambda: ModelHandle("ou", "ou-invariant", ou=presets.ou_invariant_preset()),
}


def _read_ini(path: str, what: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as e:
        raise ConfigError(f"could not parse {what} {path!r}: {e.message.splitlines()[0]}") from e
    if not read:
        raise ConfigError(f"could not read {what} {path!r}")
    return cp


def load_model(spec: str) -> ModelHandle:
    if spec.startswith("preset:"):
        name = spec.split(":", 1)[1]
        if name not in _PRESETS:
            raise ConfigError(f"unknown preset {name!r}; known: {sorted(_PRESETS)}")
        return _PRESETS[name]()
    cp = _read_ini(spec, "model file")
    if not cp.sections():
        raise ConfigError(f"could not parse model file {spec!r}")
    kind = cp.get("model", "kind", fallback="reaction_diffusion")
    if kind == "ou":
        if "ou" not in cp or "lambdas" not in cp["ou"]:
            raise ConfigError("ou model file needs an [ou] section with lambdas")
        lambdas = _floats(cp["ou"]["lambdas"])
        if not lambdas or min(lambdas) <= 0:
            raise ConfigError("ou lambdas must be positive")
        phi0 = float(cp["ou"].get("phi0", "1.0"))
        return ModelHandle("ou", spec, ou=presets.OUPreset(lambdas, phi0))
    if kind != "reaction_diffusion":
        raise ConfigError(f"unknown model kind {kind!r}")
    for sec in ("domain", "alpha", "psi", "phi", "galerkin"):
        if sec not in cp:
            raise ConfigError(f"model file missing [{sec}] section")
    try:
        sides = []
        for i in range(cp["domain"].getint("d", fallback=1)):
            raw = cp["domain"].get(f"side_{i}", "0 1")
            ends = raw.replace(",", " ").split()
            if len(ends) != 2:
                raise ConfigError(f"domain side_{i} needs two numbers 'a b', got {raw!r}")
            sides.append((float(ends[0]), float(ends[1])))
        model = ReactionDiffusionModel(
            domain=RectDomain(sides=tuple(sides)),
            alpha=float(cp["alpha"]["value"]),
            psi=_parse_scalar_spec(cp["psi"]),
            phi=_parse_scalar_spec(cp["phi"]),
            n=cp["galerkin"].getint("n"),
            quad_points=cp["galerkin"].getint("quad_points"),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"invalid model file {spec!r}: {e}") from e
    return ModelHandle("reaction", spec, reaction=model)


# -- experiment config -----------------------------------------------------------

_DEFAULTS = {
    "t": "0.05 0.2", "m": "10000", "dt": "1e-3", "seed": "12345", "k": "4.0",
    "scheme": "exponential_euler", "threads": "1", "f": "sin1",
    "x": "zeros", "y": "zeros", "v": "e1", "t_end": "10.0",
    "checkpoints": "8", "n_list": "4 8 16 32", "bign": "64",
    "eps0": "1.0", "c0": "2.0", "eps": "0.5", "batch_size": "4096",
}


def load_experiment(path: str | None) -> dict:
    cfg = dict(_DEFAULTS)
    if path:
        cp = _read_ini(path, "config file")
        if "experiment" in cp:
            for key, val in cp["experiment"].items():
                cfg[key.lower()] = val
    return cfg


def _floats(raw: str) -> list[float]:
    return [float(v) for v in raw.replace(",", " ").split()]


def _ints(raw: str) -> list[int]:
    return [int(v) for v in raw.replace(",", " ").split()]


def _vector(raw: str, n: int) -> np.ndarray:
    raw = raw.strip()
    scale = 1.0
    if "*" in raw:
        s, raw = raw.split("*", 1)
        scale = float(s)
        raw = raw.strip()
    if raw == "zeros":
        vec = np.zeros(n)
    elif raw == "ones":
        vec = np.ones(n)
    elif raw.startswith("e") and raw[1:].isdigit():
        i = int(raw[1:])
        if not 1 <= i <= n:
            raise ConfigError(f"unit vector {raw!r} outside e1..e{n}")
        vec = np.zeros(n)
        vec[i - 1] = 1.0
    elif raw == "random":
        g = np.random.default_rng(2024).normal(size=n)
        vec = g / np.linalg.norm(g)
    else:
        vec = np.array(_floats(raw))
        if vec.size != n:
            raise ConfigError(f"vector has {vec.size} entries, model has {n} modes")
    return scale * vec


def _write(out_path: str | None, text: str):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_mc(cfg: dict, lambdas: np.ndarray, callbacks) -> MonteCarlo:
    noise = NoiseStream(seed=int(cfg["seed"]), width=lambdas.size)
    return MonteCarlo(lambdas, callbacks, noise, dt=float(cfg["dt"]), scheme=cfg["scheme"],
                      threads=int(cfg["threads"]), batch_size=int(cfg["batch_size"]))


# -- commands --------------------------------------------------------------------
#
# Each command takes the loaded model, the experiment config (with --seed and
# --threads already applied) and the parsed flags, and returns an exit code;
# ``main`` turns the errors they raise into exit codes 2 and 3.

def cmd_validate(handle: ModelHandle, cfg: dict, args) -> int:
    profile = handle.profile()
    t_grid = [0.01, 0.1, 0.5, 1.0]
    verdicts = {}
    if handle.kind == "reaction":
        m = handle.reaction
        verdicts["psi_lipschitz"] = spot_check_lipschitz(m.psi)
        verdicts["phi_lipschitz"] = spot_check_lipschitz(m.phi)
        verdicts["psi_square_bounds"] = spot_check_square_bounds(m.psi)
        verdicts["phi_square_bounds"] = spot_check_square_bounds(m.phi)
    verdicts["kernels_integrable"] = math.isfinite(
        profile.Kb.integral(1.0) + profile.Ksigma.integral(1.0))
    verdicts["uniform_ellipticity"] = profile.lambda_sigma > 0
    verdicts["sigma_bounded_above"] = profile.lambda_bar_sigma is not None
    report = {
        "model": handle.name,
        "t_grid": t_grid,
        "Kb": [_jsonable(float(np.atleast_1d(profile.Kb.value(t))[0])) for t in t_grid],
        "Ksigma": [_jsonable(float(np.atleast_1d(profile.Ksigma.value(t))[0])) for t in t_grid],
        "phi_b": [_jsonable(float(np.atleast_1d(profile.Kb.integral(t))[0])) for t in t_grid],
        "phi_sigma": [_jsonable(float(np.atleast_1d(profile.Ksigma.integral(t))[0])) for t in t_grid],
        "t0": _jsonable(profile.t0),
        "t0_exact": profile.t0_exact,
        "lambda_sigma": _jsonable(profile.lambda_sigma),
        "lambda_bar_sigma": _jsonable(profile.lambda_bar_sigma)
        if profile.lambda_bar_sigma is not None else None,
        "assumptions": verdicts,
    }
    _write(args.out, json.dumps(report, sort_keys=True, indent=1) + "\n")
    hard = [k for k in ("psi_lipschitz", "phi_lipschitz", "psi_square_bounds",
                        "phi_square_bounds", "kernels_integrable", "uniform_ellipticity")
            if not verdicts.get(k, True)]
    if hard:
        print(f"assumption failed: {hard[0]}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_PASS


def cmd_constants(handle: ModelHandle, cfg: dict, args) -> int:
    profile = handle.profile()
    rows = []
    for t in _floats(cfg["t"]):
        row = {"t": _jsonable(t),
               "gradient_constant": _jsonable(kernels.gradient_constant(t, profile.t0))}
        if t > 0 and profile.lambda_sigma > 0:
            row["logharnack_constant"] = _jsonable(
                kernels.logharnack_constant(t, profile.t0, profile.lambda_sigma))
        else:
            row["logharnack_constant"] = "inf"
        if profile.lambda_bar_sigma is not None:
            row["poincare_constant"] = _jsonable(
                kernels.poincare_constant(t, profile.t0, profile.lambda_bar_sigma))
        else:
            row["poincare_constant"] = None
        rows.append(row)
    out = {"model": handle.name, "t0": _jsonable(profile.t0), "rows": rows}
    _write(args.out, json.dumps(out, sort_keys=True, indent=1) + "\n")
    return EXIT_PASS


def cmd_check(handle: ModelHandle, cfg: dict, args) -> int:
    profile = handle.profile()
    mc = _make_mc(cfg, handle.lambdas, handle.callbacks())
    n = handle.n
    f = functional_by_name(cfg["f"])
    x = _vector(cfg["x"], n)
    y = _vector(cfg["y"], n)
    v = _vector(cfg["v"], n)
    t = _floats(cfg["t"])[0]
    M = int(cfg["m"])
    k = float(cfg["k"])
    which = args.which
    if which in ("logharnack", "variance") and profile.lambda_sigma <= 0:
        print("assumption failed: uniform_ellipticity", file=sys.stderr)
        return EXIT_CONFIG
    if which == "poincare" and profile.lambda_bar_sigma is None:
        print("assumption failed: sigma_bounded_above", file=sys.stderr)
        return EXIT_CONFIG
    if which == "gradient":
        rep = mc.check_gradient_bound(f, x, v, t, profile.t0, M, k)
    elif which == "logharnack":
        rep = mc.check_log_harnack(f, x, y, t, profile.t0, profile.lambda_sigma, M, k)
    elif which == "variance":
        rep = mc.check_variance_gradient(f, x, v, t, profile.t0, profile.lambda_sigma, M, k)
    elif which == "poincare":
        rep = mc.check_poincare(f, x, t, profile.t0, profile.lambda_bar_sigma, M, k)
    else:
        rep = mc.check_flow_bound(x, v, t, profile.t0, M, k)
    _write(args.out, rep.to_json() + "\n")
    return EXIT_PASS if rep.passed else EXIT_STAT_FAIL


def cmd_converge(handle: ModelHandle, cfg: dict, args) -> int:
    n_list = _ints(cfg["n_list"])
    N = int(cfg["bign"])
    if handle.kind == "ou":
        full = handle.ou.lambdas
        if full.size < N:
            raise ConfigError(f"OU preset has {full.size} modes, need N = {N}")
        cb = handle.ou.callbacks

        def build(n):
            return full[:n], cb
    else:
        base = handle.reaction

        def build(n):
            sub = ReactionDiffusionModel(domain=base.domain, alpha=base.alpha,
                                         psi=base.psi, phi=base.phi, n=n,
                                         quad_points=max(base.quad_points, 2 * N))
            return sub.spectrum.lambdas, build_callbacks(sub)

    mc = _make_mc(cfg, *build(N))
    x0 = _vector(cfg["x"], N)
    t = _floats(cfg["t"])[0]
    rows = mc.convergence_study(build, n_list, N, x0, t, int(cfg["m"]))
    buf = io.StringIO()
    buf.write("n,error,stderr\n")
    for n, err, se in rows:
        buf.write(f"{int(n)},{float(err)!r},{float(se)!r}\n")
    _write(args.out, buf.getvalue())
    return EXIT_PASS


def cmd_invariant(handle: ModelHandle, cfg: dict, args) -> int:
    t_end = float(cfg["t_end"])
    n_checks = int(cfg["checkpoints"])
    checkpoints = [t_end * (i + 1) / n_checks for i in range(n_checks)] if t_end > 0 else [0.0]
    M = int(cfg["m"])
    out: dict = {"model": handle.name, "M": M, "dt": _jsonable(float(cfg["dt"])),
                 "seed": int(cfg["seed"])}
    if handle.kind == "reaction":
        eps0, C0 = float(cfg["eps0"]), float(cfg["c0"])
        growth_ok = check_growth_condition(handle.reaction, eps0, C0)
        out["growth_condition"] = {"eps0": _jsonable(eps0), "C0": _jsonable(C0),
                                   "holds": growth_ok}
        eps = float(cfg["eps"])
        finite, value = handle.profile().Ksigma.epsilon_integral(eps)
        out["epsilon_integrability"] = {"eps": _jsonable(eps), "finite": finite,
                                        "value": _jsonable(value) if finite else "inf"}
        if not growth_ok:
            out["verdict"] = "growth-condition-failed"
            _write(args.out, json.dumps(out, sort_keys=True, indent=1) + "\n")
            return EXIT_CONFIG
    else:
        out["stationary_tail_sum"] = _jsonable(handle.ou.stationary_moment())
    mc = _make_mc(cfg, handle.lambdas, handle.callbacks())
    rows = mc.second_moment_curve(_vector(cfg["x"], handle.n), t_end, checkpoints, M)
    out["rows"] = [{"t": _jsonable(t), "moment": _jsonable(m), "stderr": _jsonable(s)}
                   for t, m, s in rows]
    out["verdict"] = plateau_verdict(rows)
    _write(args.out, json.dumps(out, sort_keys=True, indent=1) + "\n")
    return EXIT_PASS


def cmd_dump_trajectories(handle: ModelHandle, cfg: dict, args) -> int:
    noise = NoiseStream(seed=int(cfg["seed"]), width=handle.n)
    scfg = SchemeConfig(dt=float(cfg["dt"]), t_end=float(cfg["t_end"]),
                        scheme=cfg["scheme"])
    x0 = _vector(cfg["x"], handle.n)
    M = int(cfg["m"])
    buf = io.StringIO()
    header = "path_id,step,t," + ",".join(f"coeff_{i}" for i in range(handle.n))
    buf.write(header + "\n")
    cb = handle.callbacks()
    for pid in range(M):
        def record(step, t, x, pid=pid):
            coeffs = ",".join(repr(float(c)) for c in x[0])
            buf.write(f"{pid},{step},{t!r},{coeffs}\n")
        simulate_batch(x0, [pid], scfg, handle.lambdas, cb, noise, record=record)
    _write(args.out, buf.getvalue())
    return EXIT_PASS


def cmd_dump_field(handle: ModelHandle, cfg: dict, args) -> int:
    if handle.kind != "reaction":
        raise ConfigError("field dumps need a reaction-diffusion model")
    coeffs = _vector(cfg["x"], handle.n)
    cb = build_callbacks(handle.reaction)
    grid, vals = cb.field_on_grid(coeffs)
    buf = io.StringIO()
    d = handle.reaction.domain.d
    buf.write(",".join(f"xi_{i}" for i in range(d)) + ",u\n" if d > 1 else "xi,u(xi)\n")
    for pt, u in zip(grid, vals):
        xi = ",".join(repr(float(c)) for c in np.atleast_1d(pt))
        buf.write(f"{xi},{float(u)!r}\n")
    _write(args.out, buf.getvalue())
    return EXIT_PASS


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spdelab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--model", required=True,
                        help="model INI file or preset:{rd16,ou8,ou-converge,ou-invariant}")
        sp.add_argument("--config", default=None, help="experiment INI file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    common(sub.add_parser("validate", help="assumption report: kernels, phi, t0"))
    common(sub.add_parser("constants", help="semigroup constants over a t grid"))
    sp = sub.add_parser("check", help="run one statistical inequality check")
    sp.add_argument("which", choices=["gradient", "logharnack", "variance",
                                      "poincare", "flowbound"])
    common(sp)
    common(sub.add_parser("converge", help="Galerkin truncation error table"))
    common(sub.add_parser("invariant", help="second-moment curve and plateau verdict"))
    common(sub.add_parser("dump-trajectories", help="CSV trajectory dump"))
    common(sub.add_parser("dump-field", help="CSV field values u(xi) on the grid"))
    return p


_COMMANDS = {
    "validate": cmd_validate,
    "constants": cmd_constants,
    "check": cmd_check,
    "converge": cmd_converge,
    "invariant": cmd_invariant,
    "dump-trajectories": cmd_dump_trajectories,
    "dump-field": cmd_dump_field,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        handle = load_model(args.model)
        cfg = load_experiment(args.config)
        for key in ("seed", "threads"):
            if getattr(args, key) is not None:
                cfg[key] = str(getattr(args, key))
        return _COMMANDS[args.command](handle, cfg, args)
    except ValueError as e:  # ConfigError, DomainError and KernelError included
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, EstimationError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
