#!/usr/bin/env python3
"""Record ``reference.json``: for every workload and seed class, the
artifact digests and reference values of each operation.  Run it once at
the commit whose outputs are the reference:

    python3 perfbench/record_reference.py
"""

import json
import os
import shutil
import sys

import run
import workloads


def record():
    run.import_program()
    workdir = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    reference = {"seed_classes": workloads.SEED_CLASSES, "workloads": {}}
    try:
        for workload in workloads.WORKLOADS:
            per_class = reference["workloads"][workload] = {}
            for k in range(workloads.SEED_CLASSES):
                entries = per_class[str(k)] = {}
                for op in workloads.build(workload, k, str(workdir)):
                    outcome = op.finish(op.run(), None)
                    if outcome.problems and not outcome.known_defect:
                        raise SystemExit(f"{workload} seed {k} {op.label}: {outcome.problems}")
                    if not op.degenerate:
                        entries[op.label] = {"digests": outcome.digests,
                                             "values": outcome.values}
                print(f"recorded {workload} seed class {k}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
