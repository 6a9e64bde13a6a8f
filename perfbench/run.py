"""The mi-sco-lab benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (closed loops: one operation after
another from a single process):

* ``shipped-configs``: the seven ``configs/*.ini`` through ``harness.run``
  with ``verify=True``, ``master_seed`` taken from the seed, one fresh empty
  output directory per run, ``MI_SCO_THREADS=1``. Most of its time is
  ``np.unique(axis=0)`` inside ``bounds.cmi_exact``.
* ``big-channel``: exact channels over 2^20 sign patterns (d=4, m=5, bias
  drawn from the seed) for ``quantized_mean``, ``regularized_erm(lam=1)``
  and ``sgd``, each with MI, expected gap and excess risk, plus the chain
  rule on ``quantized_mean``. Memory-bound: one giant batch per call.
* ``mc-certificate``: ``theorem1_certificate`` (d=8, m=8), a 4e6-trial Monte
  Carlo fingerprint, and the randomized-response risk loop, at
  ``MI_SCO_THREADS=min(2, nproc)``.

The seed picks one of ``workloads.VARIANTS`` input variants (seed mod 16);
``reference.json`` holds every variant's outputs, and each operation's
output is checked against it. Each pass runs in a fresh process.

``--trace 0`` runs passes until the next one would end after ``--seconds``
(at least one) and reports, as medians over passes, ``wall_s`` (one pass,
after set-up), ``setup_s`` (process start to first timed operation, also
sampled by set-up-only processes), ``peak_rss_mb`` (``ru_maxrss`` of the
pass process) and ``ok_frac`` (operations that ran and matched the
reference, over operations attempted; the contract forbids metrics that can
read 0, so the failure fraction is reported as its complement and the
``failed``/``attempted`` counts carry it directly).

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``trace_layers``; on ``mc-certificate`` it adds a traced
pass at ``MI_SCO_THREADS=1`` for ``mc.speedup_2t`` (0 on the other
workloads, which run one thread) and checks that outputs are identical
across thread counts. ``trace.overhead_frac`` is traced minus untraced
``wall_s`` over untraced.

Metric names and units come from ``BENCHMARK.json``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Spans, per-pass results and the run record go to
``.perfbench_work/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9  # set-up times per run, counting the pass processes
RUN_DEADLINE_S = 170  # the whole run must end within 180 s
EXCLUSIONS = (
    "epsilon_net_erm at d=4, m=5 is not in big-channel: EpsilonNetErm.fit_from_mean "
    "asks for a (2^20, 256, 4) float64 array (8 GiB) and raises ArrayMemoryError "
    "on a 7 GB machine; a known defect, left to its own fix.",
    "the tier-1 test suite is not a workload: about 89 s a run is too long to "
    "repeat 22 times per check, and its end-to-end part (the seven experiments) "
    "is shipped-configs.",
)


class BenchError(RuntimeError):
    """The benchmark could not measure (missing program, crashed pass)."""


def run_record(args, threads: int, root: Path) -> dict:
    commit = "unknown: not a git checkout"
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
        except OSError:
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    src = hashlib.sha256()  # identifies the program where git cannot
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "variant": workloads.variant_of(args.seed), "trace": args.trace,
        "run_seconds": args.seconds, "nproc": len(os.sched_getaffinity(0)),
        "MI_SCO_THREADS": threads, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "exclusions": list(EXCLUSIONS),
    }


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.n = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def spawn(self, threads: int, trace: bool = False, setup_only: bool = False) -> dict:
        self.n += 1
        passdir = self.workdir / f"pass{self.n}"
        passdir.mkdir()
        result = passdir / "result.json"
        env = dict(os.environ, MI_SCO_THREADS=str(threads))
        with open(passdir / "log.txt", "w") as log:
            cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", self.workload,
                   "--seed", str(self.seed), "--workdir", str(passdir)]
            if trace:
                cmd.append("--trace")
            if setup_only:
                cmd.append("--setup-only")
            cmd += ["--spawned-at", repr(time.monotonic())]
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                      timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
                raise BenchError(f"pass {self.n} ran past the run deadline") from exc
        if proc.returncode != 0 or not result.exists():
            tail = (passdir / "log.txt").read_text()[-2000:]
            raise BenchError(f"pass {self.n} exited {proc.returncode}:\n{tail}")
        out = json.loads(result.read_text())
        shutil.rmtree(passdir / "out", ignore_errors=True)  # checked already
        return out


def measure(runner: Runner, threads: int, seconds: int) -> tuple[dict, list]:
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        passes.append(runner.spawn(threads))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    for _ in range(max(3, SETUP_SAMPLES - len(passes))):
        setups.append(runner.spawn(threads, setup_only=True)["setup_s"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_frac": (attempted - failed) / attempted,
    }
    return metrics, passes


def measure_traced(runner: Runner, threads: int) -> tuple[dict, list, list]:
    untraced = runner.spawn(threads)
    traced = runner.spawn(threads, trace=True)
    passes = [untraced, traced]
    metrics = dict(traced["layers"])
    metrics["harness.bytes_written"] = traced["counts"].get("bytes_written", 0)
    metrics["mc.speedup_2t"] = 0.0
    if runner.workload == "mc-certificate":
        one = runner.spawn(1, trace=True)
        passes.append(one)
        metrics["mc.speedup_2t"] = (one["layers"]["mc.chunked_trials_s"]
                                    / traced["layers"]["mc.chunked_trials_s"])
    metrics["trace.overhead_frac"] = (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"]
    problems = []
    if len({p["digest"] for p in passes}) != 1:
        problems.append("outputs differ between passes (tracing or thread count)")
    return metrics, passes, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "mi_sco_lab" / "__init__.py",
              workloads.REFERENCE_PATH]
    needed += [root / "configs" / f"{e}.ini" for e in workloads.SHIPPED_EXPERIMENTS]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark cannot run, missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    wl = workloads.WORKLOADS[args.workload]
    threads = wl.threads()
    workdir = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record = run_record(args, threads, root)
    runner = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, passes, problems = measure_traced(runner, threads)
        else:
            (metrics, passes), problems = measure(runner, threads, args.seconds), []
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for i, p in enumerate(passes, 1):
        for op, found in p["problems"].items():
            problems.append(f"pass {i} {op}: {' | '.join(found)}")
    record.update(passes=len(passes), problems=problems,
                  pass_wall_s=[p["wall_s"] for p in passes])
    if args.trace and metrics["harness.run.cmi_s"]:
        record["codebook_unique_share_of_cmi"] = (metrics["learners.codebook_unique_s"]
                                                  / metrics["harness.run.cmi_s"])
    (workdir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"FAILED {problem}")
    print(f"run record: {json.dumps(record)}")
    for name in units:
        print(f"{name}: {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
