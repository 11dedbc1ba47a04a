"""Record the reference outputs of every workload for the default seed.

Run from the repository root, only when the package's outputs are meant
to change (and say why in the change that commits the new file):

    python3 perfbench/record_reference.py

Each workload's every round is run once and its outputs are stored as
perfbench/reference.json, long series decimated as in
workloads.reference_view.
"""

import json
import sys

import run  # pins BLAS threads before numpy loads

run._import_package()
import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _jsonable(value):
    value = workloads.reference_view(value)
    return value.tolist() if isinstance(value, np.ndarray) else float(value)


def main() -> int:
    recorded = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        workload = workloads.MAKERS[name](workloads.DEFAULT_SEED)
        values = {}
        try:
            for block in workload.blocks:
                for evaluation in workload.run_round(block, workload.workers).evaluations:
                    if not evaluation.completed:
                        raise RuntimeError(f"{name}: an operation failed while recording")
                    values.update({k: _jsonable(v) for k, v in evaluation.outputs.items()})
        finally:
            workload.close()
        recorded["workloads"][name] = {"inputs": workload.inputs(), "values": values}
        print(f"{name}: {len(values)} values", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
