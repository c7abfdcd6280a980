#!/usr/bin/env python3
"""Run one workload of the envgnn benchmark and print its metrics.

    python3 perfbench/run.py --workload train-gcn --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout of the repository; it imports envgnn
from the checkout's ``src/``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``. The line before it holds the details: environment,
sample counts, tail percentiles, failed checks and, for a traced run, the
per-arm records. See perfbench/README.md.
"""

import os
import sys

# One BLAS thread, set before numpy loads: at two threads the last bits of a
# GAT canet loss depend on scheduling, and timings spread more between runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spec  # noqa: E402


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", help=argparse.SUPPRESS)  # internal: set-up process
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    package = os.path.join(SRC, "envgnn")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        print(f"perfbench: no envgnn sources at {package}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import envgnn

    if os.path.realpath(os.path.dirname(envgnn.__file__)) != os.path.realpath(package):
        print(f"perfbench: imported envgnn from {envgnn.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import bench

    return bench.main(args, ROOT, os.path.abspath(__file__))


if __name__ == "__main__":
    sys.exit(main())
