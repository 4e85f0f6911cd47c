"""Known-defect probe: stable, well-posed inputs that the library mishandles.

    python3 perfbench/probe.py

Each case is a stable (spectral abscissa < 0, computed here with numpy) and
well-posed input.  The probe prints what the library does with it: ``ok``,
``typed error`` (a ``NopanetError``), ``untyped error`` or ``numpy warning``.
It is not part of any workload and gates nothing; it exits 0 whatever the
outcomes, and its last line is a JSON object case -> outcome.  A fix of the
determinant-magnitude guard in ``linalg.inverse`` should turn the cases to
``ok`` (and the overflow case to a typed error).
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import shutil
import sys
import warnings
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
INSTANCES = 5


def outcome(fn) -> tuple[str, str]:
    """(kind, detail) of one call: ok, typed error, untyped error or numpy warning."""
    from nopanet.errors import NopanetError

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            detail = fn()
        except NopanetError as exc:
            return "typed error", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # the probe reports whatever escapes
            return "untyped error", f"{type(exc).__name__}: {exc}"
    if caught:
        return "numpy warning", f"{caught[0].category.__name__}: {caught[0].message}"
    # a call may describe its own outcome as a (kind, detail) pair
    return detail if isinstance(detail, tuple) else ("ok", "")


def random_unitary(rng, dim):
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()


def closed_loop_a(p, net):
    """A of the closed loop, built with numpy.linalg.solve (no guard)."""
    import numpy as np

    import nopanet as nn

    n = net.n_nopas
    s22 = net.blocks.s22
    loop_s22 = np.linalg.solve(np.eye(4 * n) - s22, s22)
    return np.kron(np.eye(n), nn.build_a1(p)) - p.gamma * loop_s22


def abscissa(a) -> float:
    import numpy as np

    return float(np.max(np.linalg.eigvals(a).real))


def cases(workdir: Path):
    import numpy as np

    import nopanet as nn
    from nopanet import cli

    sys.path.insert(0, str(HERE))
    from workloads import NoSpans, det_guard_rejects, verify_trial_draws

    def chain_case(n, x, y, omega_over_gamma):
        p = nn.NopaParams.from_normalized(x, y)
        net = nn.PassiveNetwork.cfb(n)
        omega = omega_over_gamma * p.gamma
        note = f"abscissa {abscissa(closed_loop_a(p, net)):.3e}"
        return note, [lambda: nn.transfer(nn.build_closed_loop(p, net), omega)]

    yield "chain N=10 x=0.05 transfer(omega=0)", *chain_case(10, 0.05, 1.0, 0.0)
    yield ("chain N=9 x=0.078*sqrt(10/9) transfer(omega=0)",
           *chain_case(9, 0.078 * math.sqrt(10 / 9), 1.0, 0.0))
    yield "chain N=9 x=0.05 y=0.5 transfer(omega=3 gamma)", *chain_case(9, 0.05, 0.5, 3.0)

    rng = np.random.default_rng(0)
    for n in range(4, 10):
        calls, worst = [], 0.0
        while len(calls) < INSTANCES:
            net = nn.PassiveNetwork.from_complex(random_unitary(rng, 2 * (n + 1)))
            p = nn.NopaParams.from_normalized(0.05, 1.0, nn.K_REF)
            a = closed_loop_a(p, net)
            if abscissa(a) < 0:
                worst = max(worst, np.linalg.cond(-a))
                calls.append(lambda p=p, net=net: nn.transfer(nn.build_closed_loop(p, net), 0.0))
        yield (f"lossy random unitary N={n} transfer(omega=0)",
               f"{INSTANCES} stable instances, max cond(-A) {worst:.2e}", calls)

    for n, instances in ((32, 20), (64, INSTANCES)):
        calls, worst = [], 0.0
        for _ in range(instances):
            net = nn.PassiveNetwork.from_complex(random_unitary(rng, 2 * (n + 1)))
            s22 = net.blocks.s22
            worst = max(worst, np.linalg.cond(np.eye(s22.shape[0]) - s22))
            calls.append(lambda net=net: nn.build_closed_loop(
                nn.NopaParams.from_normalized(0.01, 1.0), net))
        yield (f"random unitary N={n} build_closed_loop",
               f"{instances} instances, max cond(I - S22) {worst:.2e}", calls)

    yield ("closed_form N=5000 x=0.3", "lossless chain, static limit",
           [lambda: nn.closed_form(nn.static_coefficients(0.3, 1.0), 5000)])

    def verify(seed):
        out = workdir / "verify.out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--seed", str(seed), "--trials", "5", "--out", str(out)])
        if code == 0:
            return None
        detail = err.getvalue().strip() or json.loads(out.read_text())["failed_trials"]
        return f"exit {code}", str(detail)

    def guard_trials(seed):
        for n, x, y in verify_trial_draws(seed, 5, NoSpans()):
            a = nn.build_closed_loop(nn.NopaParams.from_normalized(x, y), nn.PassiveNetwork.cfb(n)).a
            if abscissa(a) < 0 and det_guard_rejects(-a):
                return True
        return False

    seed = next(s for s in range(10_000) if guard_trials(s))
    yield (f"nopanet verify --seed {seed} --trials 5", "every trial stable and well-posed",
           [lambda: verify(seed)])
    # trial 4 draws N=3, x=0.26827, y=0.99853: stable, abscissa -4.0e3, |H(0)| = 2.4e3
    yield ("nopanet verify --seed 1473955740 --trials 5",
           "omega=0 check with an absolute 1e-9 tolerance on |H| ~ 2.4e3",
           [lambda: verify(1473955740)])


def main() -> int:
    if not (SRC / "nopanet" / "__init__.py").is_file():
        print(f"error: no nopanet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = HERE / "results" / f"tmp-probe-{os.getpid()}"
    workdir.mkdir(parents=True)
    summary = {}
    try:
        for name, note, calls in cases(workdir):
            results = [outcome(fn) for fn in calls]
            kinds = collections.Counter(kind for kind, _ in results)
            summary[name] = dict(kinds)
            print(f"{name}  [{note}]")
            print("    -> " + ", ".join(f"{kind} x{k}" for kind, k in kinds.items()))
            detail = next((d for _, d in results if d), "")
            if detail:
                print(f"       first: {detail}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
