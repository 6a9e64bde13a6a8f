"""Write reference.json: every workload's outputs for every input variant.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are the reference.
Operations run untimed, one variant after another, at the workload's thread
count. The whole file is rewritten.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import workloads

WORKDIR = Path(".perfbench_work") / "reference"


def main() -> int:
    root = Path.cwd()
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        os.environ["MI_SCO_THREADS"] = str(wl.threads())
        entries = {}
        for variant in range(workloads.VARIANTS):
            workdir = WORKDIR / f"{name}-{variant}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            outputs = {}
            for op, fn in wl.setup(root, variant, workdir.resolve()):
                outputs[op], _ = wl.finish(op, fn())
            entries[str(variant)] = outputs
            shutil.rmtree(workdir)
            print(f"{name} variant {variant}: {workloads.digest(outputs)[:16]}",
                  file=sys.stderr, flush=True)
        reference[name] = entries
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
