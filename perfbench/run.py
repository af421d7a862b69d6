#!/usr/bin/env python3
"""Benchmark of the srelhom workbench, driven from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from `src/`
of the checkout it sits in.  Workloads (see workloads.py and
BENCHMARK.json): registry_sweep, fp_deep_walks, cli_queries,
integer_backend.

One process, one caller, a closed loop, no threads.  Set-up (a clean
import of the package plus input generation from the seed) is repeated
SETUP_REPEATS times and its median reported as setup_s.

--trace 0  ops run back to back, each checked for correctness outside
           its timed call, until their summed time reaches --seconds
           (reference seconds, see SpeedProbe) and the current round is
           complete; registry_sweep always completes its current sweep.
           Prints the end-to-end metrics.
--trace 1  one full pass of the workload untraced, then the same pass
           traced; --seconds is not used, so counts repeat exactly for a
           seed.  Prints the per-layer metrics, writes the spans and a
           report under .bench_out/.  For registry_sweep the untraced
           pass is `srelhom verify all --seed N --json`, whose sha256 is
           the same-behaviour digest.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status: 0 when every op and check
held, 1 when any failed, 2 on bad usage or when `src/srelhom` is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time
from types import SimpleNamespace

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PACKAGE_MODULES = ("cli", "checks", "zmodules", "instances")


class SpeedProbe:
    """The host's current speed, from a fixed calibration kernel.

    On a shared host the speed of one core drifts by +-20% within seconds
    (on a 2-core shared container, a fixed kernel timed back to back for
    40 s had 2 s block medians from 0.0169 s to 0.0251 s), which swamps the differences a benchmark is meant to
    show.  The kernel, interpreter loops plus small int64 numpy products
    like the package's own hot paths, is timed every INTERVAL seconds of
    wall time between ops; each op's time is divided by the median of the
    last few kernel times and multiplied by REFERENCE_S.  Reported times
    are therefore in reference seconds: the time the op would take on a
    host where the kernel takes REFERENCE_S.
    """

    INTERVAL = 0.015
    REFERENCE_S = 0.001
    WINDOW = 7

    def __init__(self):
        self._base = np.arange(64, dtype=np.int64).reshape(8, 8)
        self._recent: list[float] = []
        self._last = -math.inf

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        counts = {}
        for i in range(3600):
            counts[i % 37] = counts.get(i % 37, 0) + i
        m = self._base
        for _ in range(40):
            m = np.mod(m @ self._base + 1, 7)
            m[[0, 1]] = m[[1, 0]]
            rows = np.nonzero(m[:, 0])[0]
            m[rows] = (m[rows] - np.outer(m[rows, 0], m[0])) % 7
        return time.perf_counter() - t0

    def sample(self) -> None:
        self._recent = (self._recent + [self._kernel()])[-self.WINDOW:]
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.INTERVAL:
            self.sample()

    def scale(self) -> float:
        """Reference seconds per wall second at the current host speed."""
        return self.REFERENCE_S / statistics.median(self._recent)


def import_package():
    """Import srelhom from this checkout's src/ with no module cached."""
    for name in [k for k in sys.modules if k == "srelhom" or k.startswith("srelhom.")]:
        del sys.modules[name]
    pkg = SimpleNamespace(sr=importlib.import_module("srelhom"))
    for short in PACKAGE_MODULES:
        setattr(pkg, short, importlib.import_module("srelhom." + short))
    origin = pathlib.Path(pkg.sr.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit("error: imported srelhom from %s, not from %s" % (origin, SRC))
    return pkg


def input_digest(workload) -> str:
    """sha256 over the op descriptions, which name every generated input."""
    h = hashlib.sha256()
    for op in workload.ops:
        h.update(op.label.encode() + b"\n")
    return h.hexdigest()


def setup(build, seed, workdir, probe):
    """Repeated clean set-up; returns (pkg, workload, times, input digests).

    Each time is in reference seconds, scaled by kernel samples taken
    just before and just after it.
    """
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        gc.collect()
        for _ in range(probe.WINDOW):
            probe.sample()
        before = probe.scale()
        t0 = time.perf_counter()
        pkg = import_package()
        workload = build(pkg, seed, str(workdir))
        elapsed = time.perf_counter() - t0
        for _ in range(probe.WINDOW):
            probe.sample()
        times.append(elapsed * (before + probe.scale()) / 2)
        digests.append(input_digest(workload))
    return pkg, workload, times, digests


class Tally:
    """Outcome of a sequence of ops, in order."""

    def __init__(self):
        self.latencies: list[float] = []     # wall seconds
        self.normalized: list[float] = []    # reference seconds
        self.failed = 0
        self.undecided = 0
        self.errors: list[str] = []
        self.by_tag: dict[str, list] = {}   # tag -> [ops, undecided, failed, seconds]
        self._digest = hashlib.sha256()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def digest(self) -> str:
        return self._digest.hexdigest()

    def add(self, op, elapsed, error, text, undecided):
        self.latencies.append(elapsed)
        row = self.by_tag.setdefault(op.tag, [0, 0, 0, 0.0])
        row[0] += 1
        row[3] += elapsed
        if error is not None:
            self.failed += 1
            row[2] += 1
            if len(self.errors) < 10:
                self.errors.append("%s: %s" % (op.label[:160], error))
        elif undecided:
            self.undecided += 1
            row[1] += 1
        self._digest.update(("%s\t%s\n" % (op.label, text)).encode())


def execute(workload, op, tally, tracer=None, op_id=0, known=None, probe=None):
    """Prepare, run (timed) and check one op; record it in the tally.

    `known` is the output text of an earlier, fully checked run of the
    same op; a repeat is then checked by comparing its output with it.
    """
    if workload.reset_per_op:
        workload.reset()
    args = op.prepare()
    error, text, undecided = None, "", False
    t0 = time.perf_counter()
    try:
        result = tracer.op(op_id, op.run, args) if tracer else op.run(args)
    except Exception as exc:  # an op that raises counts as a failed op
        result, error = None, "raised %s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            text, undecided = op.describe(result)
            if known is None:
                error = op.verify(args, result)
            elif text != known:
                error = "output differs from the checked run of this op"
        except Exception as exc:  # a check that cannot run counts as failed
            error = "check raised %s: %s" % (type(exc).__name__, exc)
    tally.add(op, elapsed, error, text or error, undecided)
    if probe is not None:
        tally.normalized.append(elapsed * probe.scale())
        probe.maybe_sample()
    return None if error else text


def closed_loop(workload, seconds, probe) -> Tally:
    """Run ops back to back, cycling the schedule, for `seconds` of op time
    in reference seconds (so a seed runs the same ops on a slow or a fast
    host), then to the end of the current round (or pass, for workloads
    that measure whole passes).

    Each op is fully checked the first time it runs; later passes must
    reproduce its output.
    """
    tally = Tally()
    ops = workload.ops
    checked = [None] * len(ops)
    index = 0
    probe.sample()
    unit = len(ops) if workload.whole_passes else workload.round_size
    while sum(tally.normalized) < seconds or index % unit:
        k = index % len(ops)
        if k == 0:
            workload.reset()
        text = execute(workload, ops[k], tally, known=checked[k], probe=probe)
        if checked[k] is None:
            checked[k] = text
        index += 1
    return tally


def one_pass(workload, tracer=None, known=None, probe=None) -> tuple[Tally, list]:
    """Every op once; returns the tally and each op's output text.

    With `known` (the texts of a checked pass) each output is compared
    with its known text instead of being checked again.
    """
    tally = Tally()
    texts = []
    workload.reset()
    for op_id, op in enumerate(workload.ops):
        texts.append(execute(workload, op, tally, tracer, op_id,
                             known=known[op_id] if known else None, probe=probe))
    return tally, texts


def nearest_rank(sorted_values, q):
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def end_to_end(tally, setup_times, round_size) -> dict:
    """End-to-end metrics of a closed-loop run, in reference seconds.

    ops_per_s is the median over rounds of round_size consecutive ops (one
    op of each kind in the schedule) of ops per second of op time; single
    heavy trials, which differ from seed to seed, move it less than they
    would move a ratio of totals.
    """
    lat = sorted(tally.normalized)
    rounds = [sum(tally.normalized[i:i + round_size])
              for i in range(0, tally.attempted - round_size + 1, round_size)]
    return {
        "ops_per_s": round_size / statistics.median(rounds),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": nearest_rank(lat, 0.9) * 1e3,
        "decided_ratio": 1.0 - tally.undecided / tally.attempted,
        "setup_s": statistics.median(setup_times),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify_all(pkg, workload, seed, probe):
    """`srelhom verify all --seed N --json` in-process.

    Returns (reference seconds, stdout, exit code).
    """
    from workloads import run_cli
    workload.reset()
    probe.sample()
    before = probe.scale()
    t0 = time.perf_counter()
    code, stdout, _ = run_cli(pkg.cli.main, ["verify", "all", "--seed", str(seed), "--json"])
    elapsed = time.perf_counter() - t0
    probe.sample()
    return elapsed * (before + probe.scale()) / 2, stdout, code


def traced_run(pkg, workload, name, seed, report, probe):
    """Untraced reference pass, then the traced pass; returns (tally, metrics, problems).

    The tracing overhead compares the two passes in reference seconds.
    """
    from tracing import Tracer
    problems = []
    if name == "registry_sweep":
        ref_s, stdout, code = verify_all(pkg, workload, seed, probe)
        report["verify_all_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        if code != 0:
            problems.append("verify all exited %d" % code)
        try:
            reports = json.loads(stdout)["reports"]
        except (ValueError, KeyError):
            reports = []
            problems.append("verify all printed no report")
        report["verify_all_tallies"] = {
            r["theorem"]: {k: r[k] for k in ("trials", "passes", "failures", "vacuous")}
            for r in reports}
        known = None
    else:
        reference, known = one_pass(workload, probe=probe)
        ref_s = sum(reference.normalized)
        report["untraced_output_sha256"] = reference.digest()
        if reference.failed:
            problems += reference.errors
    untraced_peak = peak_rss_mb()
    tracer = Tracer()
    tracer.install()
    try:
        tally, _ = one_pass(workload, tracer, known, probe)
    finally:
        tracer.uninstall()
    report["traced_output_sha256"] = tally.digest()
    if name == "registry_sweep":
        for entry, want in report["verify_all_tallies"].items():
            ops, undecided, failed, _ = tally.by_tag.get(entry, [0, 0, 0, 0.0])
            got = {"trials": ops, "passes": ops - undecided - failed,
                   "failures": failed, "vacuous": undecided}
            if got != want:
                problems.append("%s: traced %s, verify all %s" % (entry, got, want))
    elif report["untraced_output_sha256"] != tally.digest():
        problems.append("traced and untraced passes gave different outputs")

    metrics = tracer.layer_metrics()
    calls = metrics["dimensions._split_search.calls"]
    metrics["dimensions._split_search.hit_ratio"] = (
        metrics["dimensions._split_search.hits"] / calls if calls else 0.0)
    for entry in pkg.checks.REGISTRY:
        ops, undecided, failed, seconds = tally.by_tag.get(entry, [0, 0, 0, 0.0]) \
            if name == "registry_sweep" else [0, 0, 0, 0.0]
        metrics["checks.entry.%s.wall_s" % entry] = seconds
        metrics["checks.entry.%s.vacuous" % entry] = undecided
    metrics["bench.trace_overhead_ratio"] = sum(tally.normalized) / ref_s
    metrics["bench.peak_rss_mb"] = untraced_peak
    report["layer_metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / ("spans-%s-seed%d.tsv" % (name, seed)))
    return tally, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "srelhom" / "__init__.py").is_file():
        print("error: no package sources at %s" % (SRC / "srelhom"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = OUT / ("work-%d" % os.getpid())
    try:
        probe = SpeedProbe()
        pkg, workload, setup_times, digests = setup(WORKLOADS[args.workload],
                                                    args.seed, workdir, probe)
        report = {"workload": args.workload, "seed": args.seed,
                  "input_sha256": digests[-1], "setup_s": setup_times}
        problems = []
        if len(set(digests)) != 1:
            problems.append("inputs differ between set-ups of one seed")
        if args.trace:
            tally, metrics, more = traced_run(pkg, workload, args.workload,
                                              args.seed, report, probe)
            problems += more
            wanted = spec["per_layer"]
        else:
            tally = closed_loop(workload, args.seconds, probe)
            metrics = end_to_end(tally, setup_times, workload.round_size)
            wanted = spec["end_to_end"]
            report["output_sha256"] = tally.digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = tally.attempted
    print("workload %s seed %d: %d ops (%d beyond p90), %d failed, %d undecided"
          % (args.workload, args.seed, lat, lat - math.ceil(0.9 * lat),
             tally.failed, tally.undecided))
    print("peak_rss_mb %.1f; wall ops/s %.2f" % (peak_rss_mb(), lat / tally.busy))
    for key in ("input_sha256", "output_sha256", "verify_all_sha256",
                "untraced_output_sha256", "traced_output_sha256"):
        if key in report:
            print("%s %s" % (key, report[key]))
    for line in tally.errors + problems:
        print("FAILED %s" % line)
    if args.trace:
        report["problems"] = problems
        (OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))).write_text(
            json.dumps(report, indent=1, sort_keys=True) + "\n")
    correct = tally.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
