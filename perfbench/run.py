#!/usr/bin/env python3
"""Run one germfield benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 24 --trace 0

The process pins itself, and the children it starts, to one CPU.  Set-up
(``import germfield`` plus building the seeded inputs) is timed in this
process and in four fresh child processes; the median is ``setup_s``.  The
workload's operations then run in whole rounds, each operation timed on its
own, until another round would pass ``--seconds``; between operations a fixed
reference loop is timed once for every 0.1 s of operations.  Round and
operation times, and each set-up (against reference samples timed just after
it), are reported in seconds at the reference speed: times REF_SECONDS over
the reference's mean time.  Outputs are checked with sympy after the timed
rounds, and every round must give the same answer digest.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` one
warm-up round is followed by half the time untraced and half traced (see
tracing.py); one more round counts Q(i) operations, and the per-layer
metrics plus the tracing overhead are reported.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("kernels", "jet_identities", "resolution", "cli_cold")
CHILD_SETUPS = 4  # set-ups in fresh processes, besides the one in this process
CHILD_PROBES = 3  # repeats of each cli.* child-process probe in the traced run
SPAN_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REF_EVERY = 0.1  # seconds of operations per reference sample
SETUP_REFS = 10  # reference samples timed after each set-up
REF_SECONDS = 0.010  # about the reference's mean time on the development VM

perf = time.perf_counter

# The reference: a sparse product of two bivariate polynomials whose
# coefficients are pairs of Fractions, summed into a dict, which is the kind of
# work the package's Q(i) series arithmetic does.  It uses no package code, so
# a change to the program leaves it alone; only the machine's speed moves it.
_REF_P = {(i, j): (F(i + 1, j + 2), F(j - i, 3)) for i in range(6) for j in range(6 - i)}
_REF_Q = {(i, j): (F(2 * j - 1, i + 3), F(i + 2, j + 5)) for i in range(6) for j in range(6 - i)}


def reference_seconds() -> float:
    # With the collector off, the reference does not pay for a collection of
    # the program's objects; everything it makes is freed by reference count.
    gc.disable()
    try:
        t0 = perf()
        out: dict = {}
        for (a, b), (pr, pi) in _REF_P.items():
            for (c, d), (qr, qi) in _REF_Q.items():
                key = (a + c, b + d)
                sr, si = out.get(key, (0, 0))
                out[key] = (sr + pr * qr - pi * qi, si + pr * qi + pi * qr)
        return perf() - t0
    finally:
        gc.enable()


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(name: str, seed: int):
    """Import the package from src/ and build the inputs; (workload, seconds)."""
    t0 = perf()
    import germfield
    import workloads

    wl = workloads.BUILDERS[name](seed)
    seconds = perf() - t0
    if not os.path.abspath(germfield.__file__).startswith(SRC + os.sep):
        die(f"germfield was imported from {germfield.__file__}, not from src/")
    return wl, seconds


def calibrated_setup(seconds: float) -> tuple[float, float]:
    """(as measured, calibrated) set-up seconds, the reference timed just after the set-up."""
    ref = statistics.fmean(reference_seconds() for _ in range(SETUP_REFS))
    return seconds, seconds * REF_SECONDS / ref


def child_setup_seconds(name: str, seed: int) -> tuple[float, float]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    raw, cal = out.stdout.split()[-2:]
    return float(raw), float(cal)


def run_rounds(ops, seconds: float, before_round=None, refs=None):
    """Whole rounds of ops until the next round would end past `seconds` (at least one).

    Returns [(round seconds, [(label, seconds, result, error)], answer digest)];
    a round's seconds are the sum of its operations' times.  Only the first
    round keeps its answers (later ones keep a CLI result's exit code and
    memory figure), so that peak memory does not grow with the number of
    rounds that fit.  Given a list `refs`, the reference is timed once for
    every REF_EVERY seconds of operations, between operations, and its times
    are appended there.
    """
    rounds = []
    start = perf()
    owed = 0.0
    while True:
        if "sympy" in sys.modules:  # a fresh sympy cache, as one call of the program sees
            from sympy.core.cache import clear_cache

            clear_cache()
        gc.collect()
        if before_round is not None:
            before_round()
        entries = []
        for label, fn in ops:
            t0 = perf()
            try:
                result, error = fn(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                result, error = None, exc
            seconds_op = perf() - t0
            entries.append((label, seconds_op, result, error))
            if refs is not None:
                owed += seconds_op
                while owed >= REF_EVERY:
                    refs.append(reference_seconds())
                    owed -= REF_EVERY
        digest = round_digest(entries)
        if rounds:
            entries = [(label, s, r if hasattr(r, "returncode") else None, e) for label, s, r, e in entries]
        rounds.append((sum(s for _, s, _, _ in entries), entries, digest))
        if perf() - start + (perf() - start) / len(rounds) > seconds:
            break
    return rounds


def failed(result, error) -> bool:
    return error is not None or getattr(result, "returncode", 0) != 0


def round_digest(entries) -> str:
    import workloads

    return workloads.digest([(label, r if not failed(r, e) else "failed") for label, _, r, e in entries])


def src_lines() -> int:
    total = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for fn in filenames:
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def probe_seconds(code: str, env: dict, timed_inside: bool) -> float:
    """Median over CHILD_PROBES fresh interpreters: wall time, or the child's own figure."""
    samples = []
    for _ in range(CHILD_PROBES):
        t0 = perf()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, cwd=ROOT, check=True)
        wall = perf() - t0
        samples.append(float(out.stdout.split()[-1]) if timed_inside else wall)
    return statistics.median(samples)


def timed_import(module: str) -> str:
    return f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up samples)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "germfield", "__init__.py")):
        die(f"no germfield package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    # One CPU for this process and the children it starts: the virtual CPUs
    # of the development VM run at different speeds at the same moment, so
    # the reference and the operations must share one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl, setup_here = set_up(args.workload, args.seed)
    if args.setup_only:
        print("%.9f %.9f" % calibrated_setup(setup_here))
        return 0
    import workloads

    ops = wl.ops
    if args.trace:
        import tracing

        ops = wl.in_process_ops or wl.ops
        warm = run_rounds(ops, 0)  # first-call costs stay out of the overhead figure
        plain = run_rounds(ops, args.seconds / 2)
        tracer = tracing.install(tracing.Tracer())
        try:
            traced = run_rounds(ops, args.seconds / 2, before_round=tracer.new_round)
        finally:
            tracer.uninstall()
        counter = tracing.Tracer()
        tracing.install_gaussian_counter(counter)
        try:
            counted = run_rounds(ops, 0, before_round=counter.new_round)
        finally:
            counter.uninstall()
        rounds = warm + plain + traced + counted
    else:
        setups = [calibrated_setup(setup_here)]
        setups += [child_setup_seconds(args.workload, args.seed) for _ in range(CHILD_SETUPS)]
        refs = []
        rounds = run_rounds(ops, args.seconds, refs=refs)
        if wl.in_process_ops is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = max(r.max_rss_kb for _, entries, _ in rounds for _, _, r, _ in entries)

    attempted = sum(len(entries) for _, entries, _ in rounds)
    n_failed = sum(failed(r, e) for _, entries, _ in rounds for _, _, r, e in entries)
    digests = {digest for _, _, digest in rounds}
    import checks

    first = {label: r for label, _, r, e in rounds[0][1] if not failed(r, e)}
    errors = checks.CHECKS[args.workload](wl, first)
    if len(digests) != 1:
        errors.append(f"rounds disagree: {len(digests)} different answer digests")
    for label, _, r, e in rounds[0][1]:
        if failed(r, e):
            why = repr(e) if e is not None else f"exit {r.returncode}: {r.stderr.strip().splitlines()[-1]}"
            print(f"failed operation {label}: {why}")
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)

    metrics = {}
    if args.trace:
        env = workloads.child_env()
        overhead = statistics.median(s for s, _, _ in traced) / statistics.median(s for s, _, _ in plain) - 1
        for key, (value, unit) in tracing.layer_metrics(tracer.rounds, counter.rounds[0]).items():
            metrics[key] = {"value": value, "unit": unit}
        metrics["cli.process_s"] = {"value": probe_seconds("pass", env, False), "unit": "s"}
        metrics["cli.import_s"] = {"value": probe_seconds(timed_import("germfield"), env, True), "unit": "s"}
        metrics["cli.import_sympy_s"] = {"value": probe_seconds(timed_import("sympy"), env, True), "unit": "s"}
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        os.makedirs(SPAN_DIR, exist_ok=True)
        span_file = os.path.join(SPAN_DIR, f"spans-{args.workload}-{args.seed}.tsv")
        tracer.write_spans(span_file)
        print(f"spans: {len(tracer.span_start)} written to {os.path.relpath(span_file, ROOT)}")
        print(f"tracing overhead: {overhead:+.1%} ({len(plain)} untraced, {len(traced)} traced rounds)")
    else:
        # Seconds at the reference speed: each time over the reference's mean
        # time in the run, times REF_SECONDS (see "Calibration" in README.md).
        scale = REF_SECONDS / statistics.fmean(refs)
        op_times = [s for _, entries, _ in rounds for _, s, r, e in entries if not failed(r, e)]
        round_mean = statistics.fmean(s for s, _, _ in rounds)
        op_p50 = statistics.median(op_times)
        print(f"raw: set-up {statistics.median(raw for raw, _ in setups):.4f} s, round mean {round_mean:.4f} s, "
              f"operation p50 {1000 * op_p50:.3f} ms, reference mean {1000 * statistics.fmean(refs):.3f} ms "
              f"over {len(refs)} samples, median {1000 * statistics.median(refs):.3f} ms")
        metrics = {
            "setup_s": {"value": statistics.median(cal for _, cal in setups), "unit": "s"},
            "wall_cal_s": {"value": round_mean * scale, "unit": "s"},
            "op_p50_cal_ms": {"value": 1000 * op_p50 * scale, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "src_lines": {"value": src_lines(), "unit": "lines"},
        }

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {n_failed} failed")
    print(f"answer digest: {digests.pop() if len(digests) == 1 else 'inconsistent'}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
