"""Command-line front end: stability, spectrum, theorem, compare, verify.

Experiment configs are JSON; results are CSV or JSON tables written with
full double precision so they double as regression fixtures.  Exit codes:
0 success, 1 usage/config error, 2 unstable system, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import dynamics, entanglement, static_limit
from .closed_form import closed_form, determinant_path, optimal_thetas
from .errors import NopanetError, ConfigError, StabilityError
from .linalg import kron
from .network import GAMMA_R_REF, K_REF, NopaParams, PassiveNetwork, to_quadrature
from .static_limit import (
    elimination_matrix,
    is_l2_matrix,
    random_l2_matrix,
    static_coefficients,
    static_transfer,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNSTABLE = 2
EXIT_VERIFY = 3

# Named reference pump fractions for the 10-NOPA equal-power comparison.
X10_PRESETS = {"x10-text": 0.078, "x10-caption": 0.13}


def _fmt(x) -> str:
    """Full-precision scalar formatting shared by all emitters."""
    return format(float(x), ".17g")


def _load_config(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _params_from_config(cfg: dict) -> tuple[NopaParams, dict]:
    """Parse the parameter block; returns params and the normalized view."""
    p = cfg.get("params")
    if not isinstance(p, dict):
        raise ConfigError("config must contain a 'params' object")
    normalized_keys = {"x", "y"}
    physical_keys = {"epsilon", "gamma"}
    has_norm = normalized_keys <= p.keys()
    has_phys = physical_keys <= p.keys()
    if has_norm == has_phys:
        raise ConfigError(
            "params must use exactly one style: {x, y[, K, gamma_r]} or "
            "{epsilon, gamma[, kappa]}"
        )
    try:
        if has_norm:
            x = float(p["x"])
            y = float(p["y"])
            big_k = float(p.get("K", 0.0))
            gamma_r = float(p.get("gamma_r", GAMMA_R_REF))
            params = NopaParams.from_normalized(x, y, big_k, gamma_r)
            view = {"x": x, "y": y, "K": big_k}
        else:
            params = NopaParams(
                epsilon=float(p["epsilon"]),
                gamma=float(p["gamma"]),
                kappa=float(p.get("kappa", 0.0)),
            )
            # the static limit depends on epsilon/gamma and K alone
            view = {"x": params.xy, "y": 1.0, "K": params.big_k}
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    return params, view


def _network_from_config(cfg: dict) -> PassiveNetwork:
    topology = cfg.get("topology", "cfb")
    try:
        if topology == "cfb":
            n = int(cfg["n_nopas"])
            return PassiveNetwork.cfb(n)
        if topology == "custom":
            return PassiveNetwork.from_json(cfg["matrix_file"])
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from exc
    except NopanetError as exc:
        raise ConfigError(f"invalid network: {exc}") from exc
    raise ConfigError(f"unknown topology {topology!r}")


def _omega_grid(cfg: dict) -> np.ndarray:
    """Angular-frequency grid in rad/s from either an explicit list or a range."""
    g = cfg.get("omega_grid")
    if g is None:
        raise ConfigError("config must contain 'omega_grid'")
    unit = str(g.get("unit", "rad/s")).lower()
    if unit not in ("rad/s", "hz"):
        raise ConfigError(f"omega unit must be 'rad/s' or 'hz', got {unit!r}")
    scale_factor = 2.0 * math.pi if unit == "hz" else 1.0
    if "values" in g:
        values = np.asarray([float(v) for v in g["values"]])
    else:
        try:
            start, stop, points = float(g["start"]), float(g["stop"]), int(g["points"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"malformed omega_grid: {exc}") from exc
        scale = g.get("scale", "linear")
        if scale == "linear":
            values = np.linspace(start, stop, points)
        elif scale == "log":
            if start <= 0:
                raise ConfigError("log omega grid requires start > 0")
            values = np.geomspace(start, stop, points)
        else:
            raise ConfigError(f"omega_grid scale must be linear|log, got {scale!r}")
    if np.any(np.diff(values) <= 0):
        raise ConfigError("omega grid must be strictly increasing")
    return values * scale_factor


def _thetas_from_config(cfg: dict, view: dict, net: PassiveNetwork):
    ta, tb = cfg.get("theta_a", 0.0), cfg.get("theta_b", 0.0)
    if ta == "optimal" or tb == "optimal":
        coeffs = static_coefficients(view["x"], view["y"], view["K"])
        result = closed_form(coeffs, net.n_nopas)
        return optimal_thetas(result)[0]
    return float(ta), float(tb)


def _write(out, text: str):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def _csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                v if isinstance(v, str) else _fmt(v) for v in (row[k] for k in header)
            )
        )
    return "\n".join(lines) + "\n"


def _emit_rows(args, rows: list[dict]):
    """Write a row table as CSV (default) or JSON per --format."""
    if args.format == "json":
        _write(args.out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    else:
        _write(args.out, _csv(rows))


def cmd_stability(args) -> int:
    cfg = _load_config(args.config)
    params, _ = _params_from_config(cfg)
    net = _network_from_config(cfg)
    report = dynamics.stability(params, net)
    lines = [
        f"stable: {report.stable}",
        f"spectral_abscissa: {_fmt(report.spectral_abscissa)}",
        "eigenvalues:",
    ]
    for ev in sorted(report.eigenvalues, key=lambda z: (z.real, z.imag)):
        lines.append(f"  {_fmt(ev.real)} {'+' if ev.imag >= 0 else '-'} {_fmt(abs(ev.imag))}j")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if report.stable else EXIT_UNSTABLE


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    params, view = _params_from_config(cfg)
    net = _network_from_config(cfg)
    omegas = _omega_grid(cfg)
    theta_a, theta_b = _thetas_from_config(cfg, view, net)
    ss = dynamics.build_closed_loop(params, net)
    try:
        results = entanglement.squeezing_spectrum(ss, omegas, theta_a, theta_b)
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    rows = [
        {
            "omega_rad_s": r.omega,
            "v_plus": r.v_plus,
            "v_minus": r.v_minus,
            "v_total": r.v_total,
            "entangled": str(r.entangled).lower(),
        }
        for r in results
    ]
    _emit_rows(args, rows)
    return EXIT_OK


def cmd_theorem(args) -> int:
    cfg = _load_config(args.config)
    params, view = _params_from_config(cfg)
    net = _network_from_config(cfg)
    if params.kappa != 0:
        print(
            "error: closed forms cover the lossless case only; "
            "use the spectrum command for kappa > 0",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    coeffs = static_coefficients(view["x"], view["y"], 0.0)
    result = closed_form(coeffs, net.n_nopas)
    st = static_transfer(coeffs, net)
    u_m, v_m = static_limit.extract_uv(st)
    doc = {
        "n_nopas": result.n_nopas,
        "u": result.u,
        "v": result.v,
        "upsilon": result.upsilon,
        "theta_class": result.theta_class,
        "v_opt": result.v_opt,
        "v_opt_db": 10.0 * math.log10(result.v_opt),
        "u_matrix_oracle": u_m,
        "v_matrix_oracle": v_m,
        "u_discrepancy": abs(result.u - u_m),
        "v_discrepancy": abs(result.v - v_m),
    }
    if args.format == "csv":
        _write(args.out, _csv([doc]))
    else:
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    preset = cfg.get("preset")
    if preset is not None:
        if preset not in X10_PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(X10_PRESETS)}"
            )
        x_ref = X10_PRESETS[preset]
        n_ref = 10
    else:
        try:
            x_ref = float(cfg["x_ref"])
            n_ref = int(cfg.get("n_ref", 10))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"compare config needs x_ref (or preset): {exc}") from exc
    y = float(cfg.get("y", 1.0))
    n_min = int(cfg.get("n_min", 2))
    n_max = int(cfg.get("n_max", n_ref))
    if n_min < 2 or n_max < n_min:
        raise ConfigError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        x_n = math.sqrt(n_ref / n) * x_ref
        params = NopaParams.from_normalized(x_n, y)
        report = dynamics.stability(params, PassiveNetwork.cfb(n))
        result = closed_form(static_coefficients(x_n, y), n)
        rows.append(
            {
                "n": n,
                "x_n": x_n,
                "stable": str(report.stable).lower(),
                "v_opt": result.v_opt,
                "v_opt_db": 10.0 * math.log10(result.v_opt),
            }
        )
    unstable = [str(row["n"]) for row in rows if row["stable"] == "false"]
    if unstable:
        print(
            f"note: the chains n = {', '.join(unstable)} are unstable; "
            "their v_opt is not reachable squeezing",
            file=sys.stderr,
        )
    _emit_rows(args, rows)
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def _verify_trial(rng: np.random.Generator) -> dict:
    """One randomized trial of every property suite; returns failure details."""
    failures = {}
    n = int(rng.integers(2, 7))
    # Closure of the parity-patterned class under product and inverse.
    e = random_l2_matrix(n, rng)
    f = random_l2_matrix(n, rng)
    if not is_l2_matrix(e @ f, tol=1e-9):
        failures["l2_product_closure"] = {"n": n}
    e_inv_src = random_l2_matrix(n, rng, max_cond=1e6)
    if not is_l2_matrix(np.linalg.inv(e_inv_src), tol=1e-8):
        failures["l2_inverse_closure"] = {"n": n}
    # Quadrature map of a random unitary is orthogonal symplectic.
    dim = 2 * (n + 1)
    u = _random_unitary(rng, dim)
    sq = to_quadrature(u)
    jj = kron(np.eye(dim), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    if (
        np.max(np.abs(sq.T @ sq - np.eye(2 * dim))) > 1e-12
        or np.max(np.abs(sq.T @ jj @ sq - jj)) > 1e-12
    ):
        failures["quadrature_symplectic"] = {"n": n}
    # Stability implies invertibility of the static loop elimination,
    # and the three (u, v) routes agree, and H(i0) matches the static map.
    x = float(rng.uniform(0.01, 0.35))
    y = float(rng.uniform(0.5, 1.0))
    params = NopaParams.from_normalized(x, y)
    net = PassiveNetwork.cfb(n)
    report = dynamics.stability(params, net)
    if report.stable:
        coeffs = static_coefficients(x, y)
        q = elimination_matrix(coeffs, net)
        if abs(np.linalg.det(q)) == 0.0:
            failures["stability_implies_invertible"] = {"n": n, "x": x, "y": y}
        st = static_transfer(coeffs, net)
        u_m, v_m = static_limit.extract_uv(st)
        result = closed_form(coeffs, n)
        u_d, v_d = determinant_path(coeffs, n)
        if max(
            abs(result.u - u_m), abs(result.v - v_m), abs(result.u - u_d), abs(result.v - v_d)
        ) > 1e-9 * max(1.0, abs(result.u), abs(result.v)):
            failures["uv_three_path"] = {"n": n, "x": x, "y": y}
        ss = dynamics.build_closed_loop(params, net)
        h0 = dynamics.transfer(ss, 0.0)
        if np.max(np.abs(h0 - st.h_n)) > 1e-9 * max(1.0, np.max(np.abs(h0))):
            failures["omega_zero_consistency"] = {"n": n, "x": x, "y": y}
    return failures


def cmd_verify(args) -> int:
    trials = args.trials
    seed = args.seed
    replay_doc = None
    if args.replay:
        with open(args.replay) as f:
            replay_doc = json.load(f)
        seed = int(replay_doc["seed"])
        trials = int(replay_doc["trials"])
        if args.config is None:
            args.config = replay_doc.get("config")
    lines = [f"seed: {seed}", f"trials: {trials}"]
    failed = []
    extra_failures = []
    if args.config:
        cfg = _load_config(args.config)
        if cfg.get("topology") == "custom":
            # Unitarity gate on user matrices doubles as a fault-injection hook.
            try:
                _network_from_config(cfg)
                lines.append("custom-matrix unitarity: pass")
            except NopanetError as exc:
                extra_failures.append({"suite": "custom_matrix", "error": str(exc)})
                lines.append(f"custom-matrix unitarity: FAIL ({exc})")
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        failures = _verify_trial(rng)
        if failures:
            failed.append({"trial": trial, "failures": failures})
    passed = trials - len(failed)
    lines.append(f"passed: {passed}")
    lines.append(f"failed: {len(failed) + len(extra_failures)}")
    ok = not failed and not extra_failures
    if not ok:
        replay = {
            "seed": seed,
            "trials": trials,
            "config": args.config,
            "failed_trials": failed,
            "extra_failures": extra_failures,
        }
        replay_path = args.out or "verify-failure.json"
        with open(replay_path, "w") as f:
            json.dump(replay, f, indent=2, sort_keys=True)
        lines.append(f"replay: {replay_path}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_VERIFY
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nopanet",
        description="EPR entanglement of NOPA networks behind passive interconnects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("stability", help="Hurwitz verdict and spectrum")
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("spectrum", help="squeezing spectrum over a frequency grid")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("theorem", help="closed-form chain optimum with oracle check")
    common(p)
    p.set_defaults(func=cmd_theorem)

    p = sub.add_parser("compare", help="equal-pump-power comparison across N")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="randomized property suites")
    common(p, config_required=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--replay", default=None, help="replay a recorded failure file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except StabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_UNSTABLE
    except NopanetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
