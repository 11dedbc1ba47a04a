"""Benchmark of the floquet-ising package.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-recurrence-n7 --seed 0 --seconds 20 --trace 0

With --trace 0 it measures the workload for about --seconds seconds and
prints the end-to-end metrics; with --trace 1 it runs a fixed number of
rounds with and without spans around the package's public functions and
prints the per-layer metrics, writing every span to perfbench/out/.
Either way the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
environment block. The package is imported from ./src of the checkout
the script sits in, never from an installed copy.
"""

import os

# One BLAS thread per process, set before numpy loads: the pooled workload
# runs two worker processes and the machine has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package() -> None:
    """Put ./src first on the path and make sure the package comes from there."""
    if not (SRC / "floquet_ising" / "__init__.py").is_file():
        raise SystemExit(f"floquet_ising sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import floquet_ising

    if Path(floquet_ising.__file__).resolve().parent != SRC / "floquet_ising":
        raise SystemExit(f"floquet_ising was imported from {floquet_ising.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 has recorded reference outputs")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, env = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
