"""The benchmark's three workloads: inputs from a seed, operations, checks.

A workload turns ``--seed`` into one of ``VARIANTS`` input variants, builds
its inputs (``setup``), and hands back a list of operations. Each operation
is run once per pass, in order, inside the timed region; ``finish`` then
turns its raw result into canonical JSON values outside the timed region,
and ``check`` compares those with the reference outputs stored in
``reference.json`` (written at the commit that defined the benchmark by
``make_reference.py``).

The program is imported from ``src/`` of the checkout inside ``setup``, so
import time is part of set-up time. Operations look program functions up on
their modules at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

VARIANTS = 16
BASE_SEED = 12345  # variant 0 reproduces the shipped configs' master_seed

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SHIPPED_EXPERIMENTS = ("verify-lemmas", "fingerprint", "xu-check", "tradeoff",
                       "net-erm", "cmi", "theorem1")

BIG_D, BIG_M = 4, 5  # 2^20 sign patterns
REL_TOL = 1e-12


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def program_seed(variant: int) -> int:
    return BASE_SEED + variant


def import_program(root: Path):
    """Import mi_sco_lab from the checkout's src/ (never an installed copy)."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import mi_sco_lab

    where = Path(mi_sco_lab.__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"mi_sco_lab imported from {where}, not from {src}")
    return mi_sco_lab


def _rel_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(abs(ref), abs(value))


def _floats(arr) -> list:
    return [float(x) for x in arr]


class ShippedConfigs:
    """The seven shipped configs through ``harness.run(verify=True)``."""

    name = "shipped-configs"

    def threads(self) -> int:
        return 1

    def setup(self, root: Path, variant: int, workdir: Path) -> list:
        import_program(root)
        from mi_sco_lab import harness

        self.outdirs = {}
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True)
        ops = []
        for exp in SHIPPED_EXPERIMENTS:
            text = (root / "configs" / f"{exp}.ini").read_text()
            outdir = workdir / "out" / exp  # fresh: run() checksums all it finds
            lines = []
            for line in text.splitlines():
                key = line.split("=", 1)[0].strip()
                if key == "master_seed":
                    line = f"master_seed = {program_seed(variant)}"
                elif key == "output_dir":
                    line = f"output_dir = {outdir}"
                lines.append(line)
            path = cfg_dir / f"{exp}.ini"
            path.write_text("\n".join(lines) + "\n")
            self.outdirs[exp] = outdir
            ops.append((exp, lambda path=path: harness.run(str(path), verify=True)))
        return ops

    def finish(self, op: str, raw) -> tuple[dict, dict]:
        outdir = self.outdirs[op]
        files = {}
        written = 0
        for p in sorted(outdir.iterdir()):
            written += p.stat().st_size
            if p.name != "manifest.json":  # holds the wall clock
                files[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
        return {"exit_code": raw, "files": files}, {"bytes_written": written}

    def check(self, op: str, out: dict, ref: dict) -> list:
        problems = []
        if out["exit_code"] != 0:
            problems.append(f"exit code {out['exit_code']}")
        if out["files"] != ref["files"]:
            bad = sorted(set(out["files"].items()) ^ set(ref["files"].items()))
            problems.append(f"data files differ from reference: {bad}")
        return problems


class BigChannel:
    """Exact channels at 2^20 sign patterns for three learners."""

    name = "big-channel"

    def threads(self) -> int:
        return 1

    def setup(self, root: Path, variant: int, workdir: Path) -> list:
        import_program(root)
        import numpy as np
        from mi_sco_lab import bounds, learners
        from mi_sco_lab.sco import P_MAX, HardInstance

        self.bounds = bounds
        p = np.random.default_rng([variant, BIG_D, BIG_M]).uniform(-P_MAX, P_MAX, size=BIG_D)
        inst = HardInstance(BIG_D, p)
        channels = {}

        def channel_op(learner):
            ch = learners.exact_channel(learner, inst, BIG_M)
            if learner.kind == "quantized_mean":
                channels["chain"] = ch  # the chain rule runs on this channel
            return {"mi": ch.mutual_information(),
                    "gap": ch.expected_generalization_gap(inst),
                    "risk": ch.expected_excess_risk(inst)}

        def chain_op():
            return bounds.chain_rule_decomposition(channels.pop("chain"))

        return [
            ("quantized_mean", lambda: channel_op(learners.QuantizedMeanLearner())),
            ("chain_rule", chain_op),
            ("regularized_erm", lambda: channel_op(learners.RegularizedErm(lam=1.0))),
            ("sgd", lambda: channel_op(learners.SgdLearner())),
        ]

    def finish(self, op: str, raw) -> tuple[dict, dict]:
        if op == "chain_rule":
            return {"holds": bool(raw.report.holds), "total_mi": float(raw.total_mi),
                    "per_coordinate": _floats(raw.per_coordinate)}, {}
        out = {k: float(v) for k, v in raw.items()}
        out["xu_bound"] = self.bounds.xu_bound(out["mi"], BIG_M)
        return out, {}

    def check(self, op: str, out: dict, ref: dict) -> list:
        problems = []
        if op == "chain_rule":
            if not out["holds"]:
                problems.append("chain-rule report does not hold")
            vals = [out["total_mi"], *out["per_coordinate"]]
            refs = [ref["total_mi"], *ref["per_coordinate"]]
            if len(vals) != len(refs) or not all(map(_rel_close, vals, refs)):
                problems.append(f"chain rule {vals} != reference {refs}")
            return problems
        for key in ("mi", "gap", "risk"):
            if not _rel_close(out[key], ref[key]):
                problems.append(f"{key} {out[key]!r} != reference {ref[key]!r}")
        if not out["gap"] <= out["xu_bound"]:
            problems.append(f"gap {out['gap']} exceeds xu_bound {out['xu_bound']}")
        return problems


class McCertificate:
    """Monte Carlo certificate, fingerprint and randomized-response risk."""

    name = "mc-certificate"

    def threads(self) -> int:
        return min(2, len(os.sched_getaffinity(0)))

    def setup(self, root: Path, variant: int, workdir: Path) -> list:
        import_program(root)
        from mi_sco_lab import bounds, learners

        seed = program_seed(variant)
        qmean = learners.QuantizedMeanLearner()
        rr = learners.RandomizedResponse(base=learners.QuantizedMeanLearner(), rho=0.5)
        return [
            ("theorem1_certificate", lambda: bounds.theorem1_certificate(
                qmean, 8, 8, risk_trials=200_000, good_trials=1_000_000,
                pilot_trials=100_000, seed=seed)),
            ("fingerprint_expectation", lambda: bounds.fingerprint_expectation(
                bounds.EST_CLIPPED_MEAN, 100, mode="monte_carlo",
                trials=4_000_000, seed=seed)),
            ("measured_excess_risk", lambda: bounds.measured_excess_risk(
                rr, 2, 4, 20_000, seed)),
        ]

    @staticmethod
    def _report(rep) -> dict:
        return {"name": rep.name, "lhs": float(rep.lhs), "rhs": float(rep.rhs),
                "holds": bool(rep.holds), "tolerance": float(rep.tolerance)}

    def finish(self, op: str, raw) -> tuple[dict, dict]:
        if op == "theorem1_certificate":
            gs = raw.good_set
            return {"status": raw.status, "epsilon": float(raw.epsilon),
                    "risk_estimate": float(raw.risk_estimate),
                    "risk_se": float(raw.risk_se), "best_p": _floats(raw.best_p),
                    "members": list(gs.members), "estimates": _floats(gs.estimates),
                    "std_errors": _floats(gs.std_errors),
                    "normalizers": _floats(gs.normalizers), "lb": float(raw.lb),
                    "mean_lb": float(raw.mean_lb),
                    "asymptotic_lb": float(raw.asymptotic_lb), "mi": float(raw.mi),
                    "report": self._report(raw.report)}, {}
        if op == "fingerprint_expectation":
            return self._report(raw), {}
        mean, se = raw
        return {"mean": float(mean), "se": float(se)}, {}

    def check(self, op: str, out: dict, ref: dict) -> list:
        problems = []
        if op == "theorem1_certificate" and out["status"] != "ok":
            problems.append(f"certificate status {out['status']!r}")
        if out != ref:  # JSON floats round-trip exactly: this is bytewise
            diff = sorted(k for k in ref if out.get(k) != ref[k])
            problems.append(f"differs from reference in {diff}")
        return problems


WORKLOADS = {w.name: w for w in (ShippedConfigs(), BigChannel(), McCertificate())}


def digest(outputs: dict) -> str:
    """SHA-256 of the canonical outputs, to compare passes with each other."""
    blob = json.dumps(outputs, sort_keys=True, allow_nan=True).encode()
    return hashlib.sha256(blob).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())

