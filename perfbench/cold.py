"""Set-up time in a fresh interpreter: ``import nopanet`` plus one cold question.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``; prints one JSON line
``{"setup_s": ...}``.  The question is drawn from the workload seed at a
fixed size, so set-up time does not depend on the size mix of the seed.
"""

import time

t0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import nopanet  # noqa: E402, F401

sys.path.insert(0, str(Path(__file__).resolve().parent))
import numpy as np  # noqa: E402

import workloads  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--workdir", required=True)
args = parser.parse_args()

wl = workloads.make(args.workload, Path(args.workdir))
q = wl.setup_question(np.random.default_rng([args.seed, 2]))
wl.prepare(q)
answer = wl.answer(q)
elapsed = time.perf_counter() - t0
wl.check(q, answer)
print(json.dumps({"setup_s": elapsed}))
