"""Train and write the run the eval-full workload restores.

Usage: python3 perfbench/prepare.py <workload> <seed> <workdir> <out.json>

Started by run.py in a process of its own; writes its timings, operation
counts and the predictions of the trained model to ``out.json``.
"""

import bootstrap

bootstrap.configure()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, workdir, out = argv
    bootstrap.check_program()
    report = workloads.prepare_eval_run(workloads.WORKLOADS[name], Path(workdir), int(seed))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
