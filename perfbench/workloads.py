"""The three benchmark workloads: question streams, answers, checks, replays.

Each workload turns a numpy ``Generator`` into an endless stream of
questions (dicts of plain numbers), answers one question through the public
``nopanet`` API, and checks the answer against an oracle kept in this file.

* ``answer``        the plain call a user would make (untraced runs);
* ``answer_traced`` the same work, split into the public steps of each layer
                    with one span around each call;
* ``replay``        extra traced work done after a question, outside its
                    span: dense-matrix replays for ``linalg`` and, for the
                    CLI, the library calls a command makes on its config.

Questions are drawn in shuffled blocks that hold every size class once, so
the mix of sizes within a run does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import json
import math
from pathlib import Path

import numpy as np

import nopanet as nn
from nopanet.static_limit import elimination_matrix

REL_TOL = 1e-9
VERIFY_TRIALS = 5
W2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class CheckFailed(Exception):
    """An answer disagrees with its oracle."""


def expect(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def symplectic_form(m: int) -> np.ndarray:
    return np.kron(np.eye(m // 2), W2)


def check_symplectic(h: np.ndarray, what: str):
    """H J H^dagger = J on the four output quadratures."""
    residual = h @ symplectic_form(h.shape[1]) @ h.conj().T - symplectic_form(4)
    scale = max(1.0, float(np.max(np.abs(h))) ** 2)
    expect(np.max(np.abs(residual)) <= REL_TOL * scale,
           f"{what}: H J H^dagger - J = {np.max(np.abs(residual)):.3e}")


def variances(h: np.ndarray, theta_a: float, theta_b: float):
    """Oracle V+, V- from the rotated output rows of a 4-row transfer."""
    ca, sa, cb, sb = math.cos(theta_a), math.sin(theta_a), math.cos(theta_b), math.sin(theta_b)
    rq = np.array([ca, -sa, cb, -sb]) @ h
    rp = np.array([sa, ca, -sb, -cb]) @ h
    return float(np.sum(np.abs(rq) ** 2)), float(np.sum(np.abs(rp) ** 2))


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def stable_x(rng, n: int) -> float:
    """Pump fraction inside the chain's stable region, x <= 0.06 sqrt(10/N).

    The bound also keeps every resolvent of an N <= 9 chain a factor of at
    least 2.7 above the determinant guard of ``linalg.inverse``, which
    rejects stable chains near x = 0.078 sqrt(10/N) at N = 9 (see probe.py).
    """
    return float(rng.uniform(0.02, 0.06 * math.sqrt(10.0 / n)))


def det_guard_rejects(m: np.ndarray) -> bool:
    """The seed's singularity test in ``linalg.inverse``: |det| < 1e-12 max|m|^n."""
    with np.errstate(over="ignore"):
        return bool(abs(np.linalg.det(m)) < 1e-12 * np.max(np.abs(m)) ** m.shape[0])


class NoSpans:
    """Tracer stand-in for untraced calls of the traced helpers."""

    def span(self, name, key=None):
        return contextlib.nullcontext()

    def add(self, counter, amount=1):
        pass


def verify_trial_draws(seed: int, trials: int, tr):
    """Redo the draws of ``nopanet verify --seed`` trials in the CLI's order.

    Runs each trial's parity-class and quadrature steps and yields the
    trial's chain (n, x, y), which the caller continues with.
    """
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        with tr.span("static_limit.random_l2_matrix"):
            e, f = nn.random_l2_matrix(n, rng), nn.random_l2_matrix(n, rng)
        with tr.span("static_limit.is_l2_matrix"):
            nn.is_l2_matrix(e @ f, tol=1e-9)
        with tr.span("static_limit.random_l2_matrix"):
            e = nn.random_l2_matrix(n, rng, max_cond=1e6)
        with tr.span("static_limit.is_l2_matrix"):
            nn.is_l2_matrix(np.linalg.inv(e), tol=1e-8)
        dim = 2 * (n + 1)
        u, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        with tr.span("network.to_quadrature"):
            nn.to_quadrature(u * (np.diagonal(r) / np.abs(np.diagonal(r))).conj())
        yield n, float(rng.uniform(0.01, 0.35)), float(rng.uniform(0.5, 1.0))


def verify_hits_known_defect(seed: int, trials: int) -> bool:
    """Whether ``nopanet verify --seed`` draws a stable trial that a known defect fails.

    Two defects are known: the determinant guard rejects one of the two
    guarded inverses a stable trial takes (the static elimination matrix, the
    resolvent at omega = 0), or the omega = 0 consistency check, whose 1e-9
    tolerance is absolute, fails a chain near the stability margin where
    |H| is in the thousands (see probe.py).
    """
    for n, x, y in verify_trial_draws(seed, trials, NoSpans()):
        p, net = nn.NopaParams.from_normalized(x, y), nn.PassiveNetwork.cfb(n)
        a = nn.build_closed_loop(p, net).a
        if np.max(np.linalg.eigvals(a).real) >= 0:
            continue
        coeffs = nn.static_coefficients(x, y)
        if det_guard_rejects(-a) or det_guard_rejects(elimination_matrix(coeffs, net)):
            return True
        h0 = nn.transfer(nn.build_closed_loop(p, net), 0.0)
        if np.max(np.abs(h0 - nn.static_transfer(coeffs, net).h_n)) > 1e-9:
            return True
    return False


def blocks(rng, classes):
    """Endless stream of the size classes, each block a fresh permutation."""
    while True:
        for i in rng.permutation(len(classes)):
            yield classes[i]


def stability_traced(tr, p, net, n):
    """``dynamics.stability`` replayed as its public steps, one span each."""
    with tr.span("dynamics.stability", n):
        with tr.span("dynamics.build_closed_loop", n):
            ss = nn.build_closed_loop(p, net)
        eigs = eigenvalues_traced(tr, ss.a)
        abscissa = float(np.max(eigs.real))
    return ss, eigs, abscissa


def eigenvalues_traced(tr, a):
    with tr.span("linalg.eigenvalues"):
        eigs = nn.eigenvalues(a)
    tr.add("linalg.flops_computed", 10 * a.shape[0] ** 3)
    return eigs


def inverse_replayed(tr, m):
    with tr.span("linalg.inverse"):
        nn.inverse(m)
    flops = 2 * m.shape[0] ** 3
    tr.add("linalg.flops_computed", 4 * flops if np.iscomplexobj(m) else flops)


class ChainSpectrum:
    """Lossless chains, squeezing spectra over dense omega grids."""

    name = "chain-spectrum"
    sizes = [(n, g) for n in range(2, 10) for g in (64, 256, 1024)]

    def questions(self, rng):
        for n, grid in blocks(rng, self.sizes):
            yield self._draw(rng, n, grid)

    def setup_question(self, rng):
        return self._draw(rng, 5, 256)

    @staticmethod
    def _draw(rng, n, grid):
        return {"n": n, "grid": grid, "x": stable_x(rng, n), "y": float(rng.uniform(0.5, 1.0)),
                "check_at": [int(rng.integers(1, grid - 1)), grid - 1]}

    def bucket(self, q):
        return f"G{q['grid']}"

    def prepare(self, q):
        pass

    @staticmethod
    def _setup(q):
        p = nn.NopaParams.from_normalized(q["x"], q["y"])
        return p, np.linspace(0.0, 3.0 * p.gamma, q["grid"])

    def answer(self, q):
        n = q["n"]
        p, omegas = self._setup(q)
        net = nn.PassiveNetwork.cfb(n)
        cf = nn.closed_form(nn.static_coefficients(q["x"], q["y"]), n)
        ta, tb = nn.optimal_thetas(cf)[0]
        ss = nn.build_closed_loop(p, net)
        spec = nn.squeezing_spectrum(ss, omegas, ta, tb)
        return {"net": net, "cf": cf, "thetas": (ta, tb), "ss": ss, "omegas": omegas, "spec": spec}

    def answer_traced(self, q, tr, fp):
        n = q["n"]
        p, omegas = self._setup(q)
        with tr.span("network.build", n):
            net = nn.PassiveNetwork.cfb(n)
        with tr.span("closed_form.closed_form"):
            cf = nn.closed_form(nn.static_coefficients(q["x"], q["y"]), n)
        ta, tb = nn.optimal_thetas(cf)[0]
        with tr.span("dynamics.build_closed_loop", n):
            ss = nn.build_closed_loop(p, net)
        with tr.span("entanglement.squeezing_spectrum"):
            eigs = eigenvalues_traced(tr, ss.a)
            if np.max(eigs.real) >= 0:
                raise nn.errors.StabilityError("system is unstable")
            spec = []
            for w in omegas:
                before = fp.events
                with tr.span("dynamics.transfer"):
                    h = nn.transfer(ss, w)
                tr.add("dynamics.transfer.warnings", fp.events - before)
                with tr.span("entanglement.squeezing"):
                    spec.append(nn.squeezing(h, ta, tb, omega=float(w)))
        return {"net": net, "cf": cf, "thetas": (ta, tb), "ss": ss, "omegas": omegas, "spec": spec}

    def replay(self, q, ans, tr):
        s22 = ans["net"].blocks.s22
        inverse_replayed(tr, np.eye(s22.shape[0]) - s22)
        a = ans["ss"].a
        eye = np.eye(a.shape[0])
        for w in ans["omegas"]:
            inverse_replayed(tr, 1j * w * eye - a)

    def check(self, q, ans):
        spec, omegas, ss = ans["spec"], ans["omegas"], ans["ss"]
        expect(len(spec) == q["grid"], f"{len(spec)} results for {q['grid']} frequencies")
        expect(spec[0].omega == 0.0, "grid does not start at omega = 0")
        target = 2.0 * ans["cf"].v_opt
        expect(close(spec[0].v_total, target),
               f"V+ + V- at omega=0 is {spec[0].v_total!r}, closed form gives {target!r}")
        for i in q["check_at"]:
            h = nn.transfer(ss, omegas[i])
            check_symplectic(h, f"transfer at omega={omegas[i]:.6g}")
            v_plus, v_minus = variances(h, *ans["thetas"])
            r = spec[i]
            expect(r.omega == float(omegas[i]), f"result {i} is for omega={r.omega}")
            expect(close(r.v_plus, v_plus) and close(r.v_minus, v_minus),
                   f"V+/V- at omega={omegas[i]:.6g}: reported ({r.v_plus!r}, {r.v_minus!r}), "
                   f"oracle ({v_plus!r}, {v_minus!r})")


class LossyScale:
    """Lossy chains of 16 to 128 NOPAs: Hurwitz check and static optimum."""

    name = "lossy-scale"
    # five sizes, so that p50 and p90 fall inside the N=64 and N=128 classes
    # rather than on the boundary between two classes
    sizes = [16, 32, 64, 96, 128]

    def questions(self, rng):
        for n in blocks(rng, self.sizes):
            yield self._draw(rng, n)

    def setup_question(self, rng):
        return self._draw(rng, 32)

    @staticmethod
    def _draw(rng, n):
        return {"n": n, "x": float(rng.uniform(0.002, 0.005))}

    def bucket(self, q):
        return f"N{q['n']}"

    def prepare(self, q):
        pass

    @staticmethod
    def _params(q):
        return (nn.NopaParams.from_normalized(q["x"], 1.0, nn.K_REF),
                nn.static_coefficients(q["x"], 1.0, nn.K_REF))

    def answer(self, q):
        p, coeffs = self._params(q)
        net = nn.PassiveNetwork.cfb(q["n"])
        report = nn.stability(p, net)
        st = nn.static_transfer(coeffs, net)
        search = nn.vanishing_search(st.h_n)
        return {"net": net, "stable": report.stable, "eigs": report.eigenvalues,
                "abscissa": report.spectral_abscissa, "h_n": st.h_n, "search": search}

    def answer_traced(self, q, tr, fp):
        n = q["n"]
        p, coeffs = self._params(q)
        with tr.span("network.build", n):
            net = nn.PassiveNetwork.cfb(n)
        _, eigs, abscissa = stability_traced(tr, p, net, n)
        with tr.span("static_limit.static_transfer", n):
            st = nn.static_transfer(coeffs, net)
        with tr.span("entanglement.vanishing_search"):
            search = nn.vanishing_search(st.h_n)
        return {"net": net, "stable": abscissa < 0, "eigs": eigs, "abscissa": abscissa,
                "h_n": st.h_n, "search": search}

    def replay(self, q, ans, tr):
        s22 = ans["net"].blocks.s22
        inverse_replayed(tr, np.eye(s22.shape[0]) - s22)

    def check(self, q, ans):
        n = q["n"]
        expect(ans["stable"] and ans["abscissa"] < 0, f"N={n} chain reported unstable")
        expect(len(ans["eigs"]) == 4 * n, f"{len(ans['eigs'])} eigenvalues for N={n}")
        h = ans["h_n"]
        check_symplectic(h, f"static transfer N={n}")
        s = ans["search"]
        found = sum(variances(h, s.psi1, s.psi2))
        expect(close(s.v_total, found), f"search reports {s.v_total!r}, phases give {found!r}")
        # every point of a 24 x 24 phase grid lies on the search's 360 x 360 grid
        psis = -math.pi + 2.0 * math.pi * np.arange(1, 25) / 24
        coarse = min(sum(variances(h, a, b)) for a in psis for b in psis)
        expect(s.v_total <= coarse * (1 + REL_TOL), f"search minimum {s.v_total!r} > grid {coarse!r}")
        expect(s.vanished == (not s.v_total < nn.SHOT_NOISE_TOTAL), "vanished flag inconsistent")


class CliStatic:
    """In-process ``nopanet`` CLI runs over generated JSON configs."""

    name = "cli-static"
    sizes = ["theorem", "compare", "stability", "verify"]

    def __init__(self, workdir: Path):
        from nopanet import cli  # here, so the other workloads' set-up does not import it

        self.cli = cli
        self.workdir = workdir
        self.redrawn_seeds = 0

    def questions(self, rng):
        for cmd in blocks(rng, self.sizes):
            yield self._draw(rng, cmd)

    def setup_question(self, rng):
        return self._draw(rng, "theorem")

    def _draw(self, rng, cmd):
        if cmd == "theorem":
            n = int(rng.integers(2, 11))
        elif cmd == "stability":
            n = int(rng.integers(2, 7))
        elif cmd == "compare":
            return {"cmd": cmd, "config": {"x_ref": float(rng.uniform(0.02, 0.13))}}
        else:
            # About 1 seed in 300 draws a stable trial that a known defect fails;
            # such seeds are redrawn and counted (see probe.py).
            while True:
                seed = int(rng.integers(0, 2**31))
                if not verify_hits_known_defect(seed, VERIFY_TRIALS):
                    return {"cmd": cmd, "seed": seed, "trials": VERIFY_TRIALS}
                self.redrawn_seeds += 1
        x, y = stable_x(rng, n), float(rng.uniform(0.5, 1.0))
        return {"cmd": cmd, "config": {"params": {"x": x, "y": y}, "topology": "cfb", "n_nopas": n}}

    def bucket(self, q):
        return q["cmd"]

    def _paths(self, q):
        return self.workdir / f"{q['cmd']}.json", self.workdir / f"{q['cmd']}.out"

    def prepare(self, q):
        cfg_path, _ = self._paths(q)
        if "config" in q:
            cfg_path.write_text(json.dumps(q["config"]))

    def _argv(self, q):
        cfg_path, out_path = self._paths(q)
        if q["cmd"] == "verify":
            return ["verify", "--seed", str(q["seed"]), "--trials", str(q["trials"]),
                    "--out", str(out_path)]
        return [q["cmd"], "--config", str(cfg_path), "--out", str(out_path)]

    def answer(self, q):
        return self.cli.main(self._argv(q))

    def answer_traced(self, q, tr, fp):
        with tr.span(f"cli.{q['cmd']}"):
            return self.cli.main(self._argv(q))

    def check(self, q, code):
        cmd = q["cmd"]
        expect(code == 0, f"nopanet {cmd} exited {code}")
        text = self._paths(q)[1].read_text()
        getattr(self, f"_check_{cmd}")(q, text)

    @staticmethod
    def _check_theorem(q, text):
        doc = json.loads(text)
        cfg = q["config"]
        expect(doc["n_nopas"] == cfg["n_nopas"], "wrong n_nopas")
        expect(doc["u_discrepancy"] <= 1e-9 and doc["v_discrepancy"] <= 1e-9,
               f"u/v discrepancies {doc['u_discrepancy']!r}, {doc['v_discrepancy']!r}")
        cf = nn.closed_form(nn.static_coefficients(cfg["params"]["x"], cfg["params"]["y"]),
                            cfg["n_nopas"])
        expect(close(doc["u"], cf.u) and close(doc["v"], cf.v) and close(doc["v_opt"], cf.v_opt),
               "theorem output differs from closed_form")

    @staticmethod
    def _check_compare(q, text):
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        x_ref = q["config"]["x_ref"]
        expect([int(r["n"]) for r in rows] == list(range(2, 11)), "compare rows are not n = 2..10")
        for r in rows:
            n = int(r["n"])
            x_n = math.sqrt(10 / n) * x_ref
            v_opt = nn.closed_form(nn.static_coefficients(x_n, 1.0), n).v_opt
            expect(close(float(r["x_n"]), x_n, 1e-15) and close(float(r["v_opt"]), v_opt),
                   f"compare row n={n} differs from closed_form: {r}")

    @staticmethod
    def _check_stability(q, text):
        lines = text.strip().splitlines()
        n = q["config"]["n_nopas"]
        expect(lines[0] == "stable: True", f"chain drawn stable reported {lines[0]!r}")
        abscissa = float(lines[1].split(":")[1])
        eigs = []
        for line in lines[3:]:
            re, sign, im = line.split()
            eigs.append(complex(float(re), float(im[:-1]) * (1 if sign == "+" else -1)))
        eigs = np.array(eigs)
        expect(len(eigs) == 4 * n, f"{len(eigs)} eigenvalues for N={n}")
        expect(abscissa == np.max(eigs.real) and abscissa < 0, "abscissa disagrees with spectrum")
        # the eigenvalues must sum to trace(A) = -2N(gamma+kappa) - gamma tr((I - S22)^-1 S22)
        p = nn.NopaParams.from_normalized(q["config"]["params"]["x"], q["config"]["params"]["y"])
        s22 = nn.PassiveNetwork.cfb(n).blocks.s22
        trace = -2 * n * (p.gamma + p.kappa) - p.gamma * np.trace(
            np.linalg.solve(np.eye(4 * n) - s22, s22))
        expect(abs(np.sum(eigs) - trace) <= REL_TOL * np.sum(np.abs(eigs)),
               f"eigenvalues sum to {np.sum(eigs)!r}, trace(A) = {trace!r}")

    @staticmethod
    def _check_verify(q, text):
        lines = text.strip().splitlines()
        expect(f"passed: {q['trials']}" in lines and "failed: 0" in lines,
               f"verify reported {lines}")

    def replay(self, q, code, tr):
        """The library calls ``nopanet <cmd>`` makes, for the CLI self-time estimate."""
        with tr.span(f"replay.cli.{q['cmd']}"):
            getattr(self, f"_replay_{q['cmd']}")(q, tr)

    @staticmethod
    def _replay_theorem(q, tr):
        cfg = q["config"]
        n, x, y = cfg["n_nopas"], cfg["params"]["x"], cfg["params"]["y"]
        nn.NopaParams.from_normalized(x, y)
        with tr.span("network.build", n):
            net = nn.PassiveNetwork.cfb(n)
        coeffs = nn.static_coefficients(x, y, 0.0)
        with tr.span("closed_form.closed_form"):
            nn.closed_form(coeffs, n)
        with tr.span("static_limit.static_transfer", n):
            st = nn.static_transfer(coeffs, net)
        with tr.span("static_limit.extract_uv"):
            nn.extract_uv(st)

    @staticmethod
    def _replay_compare(q, tr):
        x_ref = q["config"]["x_ref"]
        for n in range(2, 11):
            x_n = math.sqrt(10 / n) * x_ref
            p = nn.NopaParams.from_normalized(x_n, 1.0)
            with tr.span("network.build", n):
                net = nn.PassiveNetwork.cfb(n)
            stability_traced(tr, p, net, n)
            with tr.span("closed_form.closed_form"):
                nn.closed_form(nn.static_coefficients(x_n, 1.0), n)

    @staticmethod
    def _replay_stability(q, tr):
        cfg = q["config"]
        n = cfg["n_nopas"]
        p = nn.NopaParams.from_normalized(cfg["params"]["x"], cfg["params"]["y"])
        with tr.span("network.build", n):
            net = nn.PassiveNetwork.cfb(n)
        stability_traced(tr, p, net, n)

    @staticmethod
    def _replay_verify(q, tr):
        for n, x, y in verify_trial_draws(q["seed"], q["trials"], tr):
            p = nn.NopaParams.from_normalized(x, y)
            with tr.span("network.build", n):
                net = nn.PassiveNetwork.cfb(n)
            _, _, abscissa = stability_traced(tr, p, net, n)
            if abscissa >= 0:
                continue
            coeffs = nn.static_coefficients(x, y)
            np.linalg.det(elimination_matrix(coeffs, net))
            with tr.span("static_limit.static_transfer", n):
                st = nn.static_transfer(coeffs, net)
            with tr.span("static_limit.extract_uv"):
                nn.extract_uv(st)
            with tr.span("closed_form.closed_form"):
                nn.closed_form(coeffs, n)
            with tr.span("closed_form.determinant_path"):
                nn.determinant_path(coeffs, n)
            with tr.span("dynamics.build_closed_loop", n):
                ss = nn.build_closed_loop(p, net)
            with tr.span("dynamics.transfer"):
                nn.transfer(ss, 0.0)


def make(name: str, workdir: Path):
    if name == ChainSpectrum.name:
        return ChainSpectrum()
    if name == LossyScale.name:
        return LossyScale()
    if name == CliStatic.name:
        return CliStatic(workdir)
    raise ValueError(f"unknown workload {name!r}")
