"""One pass of one workload in a fresh process; the benchmark's worker.

    python3 perfbench/one_pass.py --workload NAME --seed N --workdir DIR
        --spawned-at T [--trace] [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` runs
from process start to the first timed operation: interpreter start, imports,
and building the workload's inputs. With ``--setup-only`` the process stops
there. Otherwise it runs every operation once, times the whole pass, checks
each output against the reference, and writes one JSON result to
``DIR/result.json``. With ``--trace`` the program's layers are wrapped first
and the per-layer metrics are added to the result; spans go to
``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload]
    variant = workloads.variant_of(args.seed)
    ops = wl.setup(root, variant, workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        (workdir / "result.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0

    recorder = None
    if args.trace:
        import trace_layers

        recorder = trace_layers.Recorder()
        recorder.install()

    raw = []
    start = time.monotonic()
    for name, fn in ops:
        try:
            raw.append((name, fn(), None))
        except Exception:  # a failed operation is counted, not fatal
            raw.append((name, None, traceback.format_exc(limit=3)))
    wall_s = time.monotonic() - start

    layers = {}
    if recorder is not None:
        recorder.uninstall()
        recorder.write(workdir / "spans.json")
        layers = recorder.layer_metrics()

    reference = workloads.load_reference()[wl.name][str(variant)]
    outputs, problems, counts = {}, {}, {}
    for name, value, error in raw:
        if error is not None:
            problems[name] = [error]
            continue
        try:
            out, extra = wl.finish(name, value)
        except Exception:
            problems[name] = [traceback.format_exc(limit=3)]
            continue
        outputs[name] = out
        for key, v in extra.items():
            counts[key] = counts.get(key, 0) + v
        found = wl.check(name, out, reference[name])
        if found:
            problems[name] = found

    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems,
        "digest": workloads.digest(outputs),
        "counts": counts,
        "layers": layers,
    }
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
