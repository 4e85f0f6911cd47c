"""nopanet benchmark: one closed-loop client asking one workload's questions.

    python3 perfbench/run.py --workload chain-spectrum --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics: set-up in fresh
interpreters, then a warm-up, then ``--seconds`` of questions, each answered
and checked before the next is asked.  ``--trace 1`` answers questions
untraced for half the time, replays the same questions with a span around
every call into a ``nopanet`` layer, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record goes to ``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # the run writes nothing but perfbench/results/
# Fixed before numpy is imported anywhere in this process or its children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("chain-spectrum", "lossy-scale", "cli-static")
SETUP_RUNS = 9
IMPORTTIME_RUNS = 3
WARMUP_S = 1.5
CHILD_TIMEOUT_S = 60
IMPORT_MODULES = ("nopanet", "numpy", "scipy.optimize", "nopanet.cli")
N_KEYED = ("network.build", "dynamics.build_closed_loop", "dynamics.stability",
           "static_limit.static_transfer")
N_BUCKETS = (16, 32, 64, 96, 128)
TIMED_FUNCTIONS = (
    "network.build", "dynamics.build_closed_loop", "dynamics.stability", "dynamics.transfer",
    "static_limit.static_transfer", "static_limit.extract_uv", "closed_form.closed_form",
    "closed_form.determinant_path", "entanglement.squeezing_spectrum",
    "entanglement.squeezing", "entanglement.vanishing_search", "linalg.inverse",
    "linalg.eigenvalues", "network.to_quadrature", "static_limit.random_l2_matrix",
    "static_limit.is_l2_matrix",
)
CLI_COMMANDS = ("theorem", "compare", "stability", "verify")


class FpCounter:
    """numpy floating-point error callback: counts what would have warned."""

    def __init__(self):
        self.events = 0

    def __call__(self, kind, flag):
        self.events += 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # same set-up cost whatever the caller's cache
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup(workload: str, seed: int, workdir: Path) -> list[float]:
    """Fresh interpreters: import nopanet, then answer one cold question."""
    cmd = [str(HERE / "cold.py"), "--workload", workload, "--seed", str(seed), "--workdir",
           str(workdir)]
    return [json.loads(run_child(cmd).stdout.splitlines()[-1])["setup_s"]
            for _ in range(SETUP_RUNS)]


def measure_imports() -> dict:
    """Median cumulative import time (ms) of the main modules, from -X importtime."""
    samples: dict = {m: [] for m in IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        err = run_child(["-X", "importtime", "-c", "import nopanet, nopanet.cli"]).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(int(parts[1]) / 1e3)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown (packed ref)"
    return ref


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads_in_use():
    """Thread count reported by numpy's bundled OpenBLAS, or None if unreadable."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")) if libs.is_dir() else []:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "commit": git_commit(),
        "seed": seed,
    }


def ask(wl, q, tracer=None, fp=None, qid=0):
    """Answer and check one question; returns (latency s, error or None, answer)."""
    wl.prepare(q)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            ans = wl.answer(q)
        else:
            tracer.qid = qid
            with tracer.span("question", wl.bucket(q)):
                ans = wl.answer_traced(q, tracer, fp)
        latency = time.perf_counter() - t0
        wl.check(q, ans)
    except Exception as exc:  # benchmark boundary: record the failure and go on
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}", None
    return latency, None, ans


def run_phase(wl, questions, seconds, tracer=None, fp=None):
    """Ask questions until ``seconds`` have passed.

    Each record keeps the question's busy time: answering and checking it,
    without drawing its inputs.
    """
    done = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        q = next(questions, None)
        if q is None:
            break
        t0 = time.perf_counter()
        latency, error, ans = ask(wl, q, tracer, fp, len(done))
        done.append({"qid": len(done), "q": q, "latency": latency, "error": error,
                     "busy": time.perf_counter() - t0,
                     "answer": ans if tracer is not None else None})
    return done


def replay_all(wl, traced, tracer):
    """Replays run after the traced phase, so they cannot disturb its spans."""
    for d in traced:
        if d["error"] is None:
            tracer.qid = d["qid"]
            wl.replay(d["q"], d.pop("answer"), tracer)


def percentile(values, pct):
    return float(np.percentile(np.asarray(values), pct))


def end_to_end(done, setup):
    latencies = [d["latency"] for d in done]
    answered = sum(d["error"] is None for d in done)
    metrics = {
        "questions_per_s": {"value": answered / sum(d["busy"] for d in done), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * percentile(latencies, 50), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * percentile(latencies, 90), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    return metrics


def per_layer(tracer, imports, overhead_pct):
    by_name, by_key = tracer.per_name()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for fn in TIMED_FUNCTIONS:
        calls, self_s = by_name.get(fn, (0, 0.0))
        put(f"{fn}.calls", calls, "count")
        put(f"{fn}.self_ms", 1e3 * self_s / calls if calls else 0.0, "ms")
    put("dynamics.transfer.warnings", tracer.counts["dynamics.transfer.warnings"], "count")
    for fn in N_KEYED:
        for n in N_BUCKETS:
            calls, self_s = by_key.get((fn, n), (0, 0.0))
            put(f"{fn}.N{n}.self_ms", 1e3 * self_s / calls if calls else 0.0, "ms")
    cli_est = cli_self_estimates(tracer)
    for cmd in CLI_COMMANDS:
        calls, est_ms = cli_est.get(cmd, (0, 0.0))
        put(f"cli.{cmd}.calls", calls, "count")
        put(f"cli.{cmd}.self_ms_est", est_ms, "ms")
    put("linalg.flops_computed", tracer.counts["linalg.flops_computed"], "flop")
    for module, ms in imports.items():
        put(f"import.{module}.ms", ms, "ms")
    put("trace.overhead_pct", overhead_pct, "%")
    return metrics


def cli_self_estimates(tracer) -> dict:
    """cli.<cmd> span minus the replay of that command's library calls (mean ms)."""
    out = {}
    for cmd in CLI_COMMANDS:
        cli = tracer.durations(f"cli.{cmd}")
        replay = tracer.durations(f"replay.cli.{cmd}")
        if cli:
            est = [d - replay.get(qid, 0.0) for qid, d in cli.items()]
            out[cmd] = (len(cli), 1e3 * statistics.fmean(est))
    return out


def print_scaling(buckets, table):
    width = max((len(n) for n in table), default=10)
    print("scaling: mean self ms per question, by question size")
    print(f"  {'span':<{width}} " + " ".join(f"{b:>10}" for b in buckets))
    for name, row in table.items():
        print(f"  {name:<{width}} " + " ".join(f"{row[b]:>10.4f}" for b in buckets))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "nopanet" / "__init__.py").is_file():
        print(f"error: no nopanet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"tmp-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, tag, workdir) -> int:
    setup = measure_setup(args.workload, args.seed, workdir) if not args.trace else []
    imports = measure_imports() if args.trace else {}

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nopanet
    import tracing
    import workloads

    if not Path(nopanet.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported nopanet from {nopanet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    wl = workloads.make(args.workload, workdir)
    fp = FpCounter()
    rng = lambda stream: np.random.default_rng([args.seed, stream])  # noqa: E731

    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(over="call", divide="call", invalid="call", call=fp):
        warnings.simplefilter("always")
        warmup = run_phase(wl, wl.questions(rng(1)), WARMUP_S)
        if not args.trace:
            done = run_phase(wl, wl.questions(rng(0)), args.seconds)
            metrics = end_to_end(done, setup)
            record = {"setup_s_samples": setup}
        else:
            plain = run_phase(wl, wl.questions(rng(0)), args.seconds / 2)
            tracer = tracing.Tracer()
            traced = run_phase(wl, iter([d["q"] for d in plain]), args.seconds, tracer, fp)
            replay_all(wl, traced, tracer)
            roots = tracer.durations("question")
            matched = [d for d in plain if d["qid"] in roots]
            overhead = 100.0 * (sum(roots[d["qid"]] for d in matched)
                                / sum(d["latency"] for d in matched) - 1.0)
            metrics = per_layer(tracer, imports, overhead)
            buckets, table = tracer.scaling_table({d["qid"]: wl.bucket(d["q"]) for d in traced})
            spans_path = RESULTS / f"{tag}.spans.csv.gz"
            tracer.write_csv_gz(spans_path)
            record = {"untraced": end_to_end(plain, []),
                      "overhead_questions": len(matched), "scaling": {"buckets": buckets,
                                                                       "table": table},
                      "spans": str(spans_path.relative_to(ROOT))}
            done = plain + traced
    warning_count = fp.events + len(caught)

    # warm-up answers are checked too, so they count towards attempted/failed
    checked = warmup + done
    failures = [d for d in checked if d["error"] is not None]
    latencies = sorted(d["latency"] for d in done)
    p90 = percentile(latencies, 90)
    beyond_p90 = sum(t > p90 for t in latencies)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {len(failures) / len(checked):>16.6g} fraction "
          f"({len(failures)}/{len(checked)} questions, warm-up included)")
    print(f"  latency samples: {len(latencies)} ({beyond_p90} beyond p90); "
          f"numpy warnings: {warning_count}")
    if hasattr(wl, "redrawn_seeds"):
        print(f"  verify seeds redrawn to avoid known defects: {wl.redrawn_seeds}")
    for f in failures[:5]:
        print(f"  FAILED q{f['qid']} {f['q']}: {f['error']}")
    if args.trace:
        print(f"  tracing overhead: {metrics['trace.overhead_pct']['value']:+.2f}% "
              f"over {record['overhead_questions']} questions answered both ways")
        print_scaling(record["scaling"]["buckets"], record["scaling"]["table"])

    result = {"correct": not failures, "attempted": len(checked), "failed": len(failures),
              "metrics": metrics}
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace, env=env,
                  failed_frac=len(failures) / len(checked), latency_samples=len(latencies),
                  numpy_warnings=warning_count, result=result,
                  redrawn_verify_seeds=getattr(wl, "redrawn_seeds", None),
                  failures=[{"q": f["q"], "error": f["error"]} for f in failures[:50]])
    out = RESULTS / f"{tag}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
