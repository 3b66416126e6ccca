"""Seeded end-to-end benchmark of the dcmerge CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload merge-fft --seed 1 --seconds 20 --trace 0

Set-up writes seeded float32 checkpoints into a work directory inside the
checkout. Then one client runs operations back to back (a closed loop) until
``--seconds`` have passed, each operation being one ``dcmerge`` process per
command, as users run it. Every output is checked. The last line of standard
output is one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``), named and with the units listed in
``BENCHMARK.json``. The line before it records the machine, the library
versions, the commit and the raw samples.

With ``--trace 1`` the loop alternates a plain operation with one run under
``perfbench/tracer.py``, which wraps the package's public functions from
outside; per-layer values are medians over the traced operations, and
``trace.overhead_s`` is the traced median wall time minus the plain one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

# Measure the program's own thread defaults: the children get an environment
# without these, and so does this process, before numpy is imported, so the
# in-process reference merge uses the same BLAS threading as the children.
THREAD_VARS = ("DCMERGE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# stays under the 180 s a run may take, set-up included
TIME_LIMIT_S = 170


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout(f"benchmark exceeded {TIME_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dcmerge", "__init__.py")):
        print(f"error: no dcmerge sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    for var in THREAD_VARS:
        os.environ.pop(var, None)
    sys.path.insert(0, src)
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        result, info = harness.measure(
            root, spec, args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (_Timeout, harness.check.CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
