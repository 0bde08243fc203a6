"""Set-up step of a benchmark run, timed in a fresh interpreter.

Imports sdgames, generates the first pass of the workload's instances and, for
``cli_batch``, writes the problem files.  Prints the elapsed seconds as JSON.

    PYTHONPATH=src:perfbench python3 perfbench/setup_inputs.py <workload> <seed> <batch-dir>
"""

import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    t0 = time.perf_counter()
    workload, seed, batch_dir = argv
    seed = int(seed)
    import workloads  # imports sdgames and numpy

    if workload in workloads.IN_PROCESS:
        workloads.pass_instances(workload, seed, 0)
    else:
        workloads.write_batch(seed, Path(batch_dir))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
