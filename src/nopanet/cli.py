"""Command-line front end: stability, spectrum, theorem, compare, verify.

Experiment configs are JSON; results are CSV or JSON tables written with
full double precision so they double as regression fixtures.  Exit codes:
0 success, 1 usage/config error, 2 unstable system, 3 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import dynamics, entanglement, oracles
from .closed_form import closed_form
from .errors import NopanetError, ConfigError, DimensionError, StabilityError
from .network import GAMMA_R_REF, NopaParams, PassiveNetwork, _whole_number
from .static_limit import static_coefficients, static_transfer

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
    if not isinstance(path, str):  # open() would take an int as a file descriptor
        raise ConfigError(f"config path must be a string, got {path!r}")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _number(value, key: str, kind=float):
    """The config value of ``key`` as a finite float, or a whole number for ``kind=int``.

    64, 64.0 and "64" all read as the whole number 64; 2.5, true and
    non-finite values are config errors that name the key.
    """
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past 1e308
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if kind is float:
        if isinstance(value, bool):  # float() reads true as 1.0
            raise ConfigError(f"{key} must be a finite number, got {value!r}")
        return number
    try:
        return _whole_number(value, key)
    except DimensionError as exc:
        raise ConfigError(str(exc)) from exc


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
            x = _number(p["x"], "x")
            y = _number(p["y"], "y")
            big_k = _number(p.get("K", 0.0), "K")
            gamma_r = _number(p.get("gamma_r", GAMMA_R_REF), "gamma_r")
            params = NopaParams.from_normalized(x, y, big_k, gamma_r)
            view = {"x": x, "y": y, "K": big_k}
        else:
            params = NopaParams(
                epsilon=_number(p["epsilon"], "epsilon"),
                gamma=_number(p["gamma"], "gamma"),
                kappa=_number(p.get("kappa", 0.0), "kappa"),
            )
            # the static limit depends on epsilon/gamma and K alone
            view = {"x": params.xy, "y": 1.0, "K": params.big_k}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameters: {exc}") from exc
    return params, view


def _network_from_config(cfg: dict) -> PassiveNetwork:
    topology = cfg.get("topology", "cfb")
    try:
        if topology == "cfb":
            return PassiveNetwork.cfb(_number(cfg["n_nopas"], "n_nopas", int))
        if topology == "custom":
            path = cfg["matrix_file"]
            if not isinstance(path, str):
                raise ConfigError(f"matrix_file must be a path, got {path!r}")
            return PassiveNetwork.from_json(path)
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file: {exc}") from exc
    except NopanetError as exc:
        raise ConfigError(f"invalid network: {exc}") from exc
    raise ConfigError(f"unknown topology {topology!r}")


def _omega_grid(cfg: dict) -> np.ndarray:
    """Angular-frequency grid in rad/s from either an explicit list or a range."""
    g = cfg.get("omega_grid")
    if g is None:
        raise ConfigError("config must contain 'omega_grid'")
    if not isinstance(g, dict):
        raise ConfigError(f"omega_grid must be an object, got {type(g).__name__}")
    unit = str(g.get("unit", "rad/s")).lower()
    if unit not in ("rad/s", "hz"):
        raise ConfigError(f"omega unit must be 'rad/s' or 'hz', got {unit!r}")
    scale_factor = 2.0 * math.pi if unit == "hz" else 1.0
    if "values" in g:
        if not isinstance(g["values"], list):
            raise ConfigError(f"omega_grid values must be a list, got {type(g['values']).__name__}")
        if any(isinstance(v, bool) for v in g["values"]):  # float() reads true as 1.0
            raise ConfigError(f"omega_grid values must be numbers, got {g['values']!r}")
        try:
            values = np.asarray([float(v) for v in g["values"]])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed omega_grid values: {exc}") from exc
    else:
        try:
            start = _number(g["start"], "omega_grid start")
            stop = _number(g["stop"], "omega_grid stop")
            points = _number(g["points"], "omega_grid points", int)
        except KeyError as exc:
            raise ConfigError(f"malformed omega_grid: missing {exc}") from exc
        if points < 0:
            raise ConfigError(f"omega_grid points must be nonnegative, got {points}")
        scale = g.get("scale", "linear")
        if scale == "linear":
            values = np.linspace(start, stop, points)
        elif scale == "log":
            if start <= 0:
                raise ConfigError("log omega grid requires start > 0")
            values = np.geomspace(start, stop, points)
        else:
            raise ConfigError(f"omega_grid scale must be linear|log, got {scale!r}")
    values = values * scale_factor
    if values.size == 0 or not np.isfinite(values).all():
        raise ConfigError("omega grid must hold at least one value, and only finite ones")
    if np.any(np.diff(values) <= 0):
        raise ConfigError("omega grid must be strictly increasing")
    return values


def _view_coefficients(view: dict):
    """Static coefficients of the parsed parameters.

    The normalized style rejects x > 1 while parsing, so a larger x here is
    an epsilon/gamma from the physical style, and the message says so.
    """
    if view["x"] > 1:
        raise ConfigError(f"the static limit needs epsilon/gamma <= 1, got {view['x']:.6g}")
    return static_coefficients(view["x"], view["y"], view["K"])


def _thetas_from_config(cfg: dict, view: dict, net: PassiveNetwork):
    """Output phases; "optimal" takes the exact phase-sum optimum of the static transfer.

    That optimum fixes both phases, so "optimal" is taken for both or neither.
    """
    ta, tb = cfg.get("theta_a", 0.0), cfg.get("theta_b", 0.0)
    if (ta == "optimal") != (tb == "optimal"):
        raise ConfigError('theta_a and theta_b must both be "optimal" or both be numbers')
    if ta == "optimal":
        found = entanglement.vanishing_search(
            static_transfer(_view_coefficients(view), net).h_n
        )
        return found.psi1, found.psi2
    return _number(ta, "theta_a"), _number(tb, "theta_b")


def _write(out, text: str):
    """Write ``text`` to the path ``out``, or to stdout when it is None."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as f:
            f.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _csv(rows: list[dict]) -> str:
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row.values()))
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
    results = entanglement.squeezing_spectrum(ss, omegas, theta_a, theta_b)
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
        raise ConfigError(
            "closed forms cover the lossless case only; use the spectrum command for kappa > 0"
        )
    coeffs = _view_coefficients(view)
    result = closed_form(coeffs, net.n_nopas)
    st = static_transfer(coeffs, net)
    u_m, v_m = oracles.extract_uv(st)
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
        if not isinstance(preset, str) or preset not in X10_PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {sorted(X10_PRESETS)}"
            )
        x_ref = X10_PRESETS[preset]
        n_ref = 10
    else:
        try:
            x_ref = _number(cfg["x_ref"], "x_ref")
        except KeyError as exc:
            raise ConfigError(f"compare config needs x_ref (or preset): {exc}") from exc
        n_ref = _number(cfg.get("n_ref", 10), "n_ref", int)
        if n_ref < 1:  # x_n = sqrt(n_ref / n) x_ref: 0 switches every pump off
            raise ConfigError(f"n_ref must be at least 1, got {n_ref}")
    y = _number(cfg.get("y", 1.0), "y")
    n_min = _number(cfg.get("n_min", 2), "n_min", int)
    n_max = _number(cfg.get("n_max", n_ref), "n_max", int)
    if n_min < 2 or n_max < n_min:
        raise ConfigError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    rows = []
    for n in range(n_min, n_max + 1):
        x_n = math.sqrt(n_ref / n) * x_ref
        result = closed_form(static_coefficients(x_n, y), n)
        # the lossless chain is Hurwitz exactly below this bound
        stable = x_n * y < math.tan(math.pi / (4 * n))
        rows.append(
            {
                "n": n,
                "x_n": x_n,
                "stable": str(stable).lower(),
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


def cmd_verify(args) -> int:
    trials = args.trials
    seed = args.seed
    if args.replay:
        replay_doc = _load_config(args.replay)
        try:
            seed = _number(replay_doc["seed"], "seed", int)
            trials = _number(replay_doc["trials"], "trials", int)
        except KeyError as exc:
            raise ConfigError(f"replay file {args.replay} lacks key {exc}") from exc
        if args.config is None:
            args.config = replay_doc.get("config")
    if trials < 0:
        raise ConfigError(f"trials must be nonnegative, got {trials}")
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
        failures = oracles.property_trial(rng)
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
        _write(replay_path, json.dumps(replay, indent=2, sort_keys=True))
        lines.append(f"replay: {replay_path}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_VERIFY
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a config error, not argparse's exit 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nopanet",
        description="EPR entanglement of NOPA networks behind passive interconnects",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, tables=True):
        p.add_argument("--config", required=config_required, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if tables:
            p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("stability", help="Hurwitz verdict and spectrum")
    common(p, tables=False)
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
    common(p, config_required=False, tables=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--replay", default=None, help="replay a recorded failure file")
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.

    ``parse_args`` leaves a parser as it found it and returns a new
    namespace, so every ``main`` call can share it.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
    except (ConfigError, ValueError) as exc:
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
