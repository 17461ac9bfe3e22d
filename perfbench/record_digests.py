#!/usr/bin/env python3
"""Record the output digest of every default-seed input in digests.json.

Run from the root of a checkout, at the commit whose outputs are the
reference:  python3 perfbench/record_digests.py

Later runs on the default seed count a job as failed when its digest
differs from the recorded one, or has none.  If an input fails its
semantic checks, the script reports it, leaves digests.json as it was and
exits 1.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    run.load_library(root)
    import inputs
    import jobs as jobs_mod

    digests, status = {}, 0
    for workload in run.WORKLOAD_NAMES:
        workdir = root / ".perfbench_work" / f"record-{workload}-{os.getpid()}"
        try:
            digests[workload] = {}
            for items in inputs.generate(workload, run.DEFAULT_SEED):
                run.write_inputs(items, workdir)
                for item in items:
                    job = jobs_mod.WORKLOADS[workload](item, os.path.relpath(workdir, root))
                    job.prepare()
                    out = job.run()
                    problems = job.problems(out) + job.warm_up_problems(out)
                    if problems:
                        print(f"{workload}/{item.name}: {problems}", file=sys.stderr)
                        status = 1
                        continue
                    digests[workload][item.name] = job.digest(out)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        (root / ".perfbench_work").rmdir()
    except OSError:
        pass  # another run's inputs are still there
    if status:
        return status
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
