"""Benchmark of quasidiff through `quasidiff.cli.main`.

    python3 perfbench/run.py --workload model-set --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # each workload in its own process
    python3 perfbench/run.py --self-test             # checks pass, and reject corrupted outputs

Run from the root of a source checkout; quasidiff is imported from `src/`.
A run first passes once through the workload at small size, untimed, so that
lazy imports and caches are warm. It then makes the workload's inputs
(set-up) in two blocks of the workload's `setup_repeats` set-ups each, and
repeats whole rounds of its analysis commands, each after one more block,
until --seconds have passed. setup_s and run_s sum, over the commands, each
command's median time across the repeats. Outputs of the first set-up and
the first round are checked against `oracles`; every later repetition must
reproduce them byte for byte. The last line of standard
output is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Work files go to `.perfbench/` in the checkout; a traced run also leaves
its per-layer JSON there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_FIRST = 2  # set-up blocks before the first round; one more block precedes every round
BENCH_FILE = ROOT / "BENCHMARK.json"


def _bench() -> dict:
    return json.loads(BENCH_FILE.read_text())


def _import_quasidiff():
    """Import quasidiff from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "quasidiff" / "__init__.py").is_file():
        raise SystemExit(f"error: no quasidiff sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import quasidiff
    import quasidiff.cli

    if Path(quasidiff.__file__).resolve().parent != (src / "quasidiff").resolve():
        raise SystemExit(f"error: imported quasidiff from {quasidiff.__file__}, not from {src}")
    return quasidiff


def _run_op(qd, op, tracer) -> int:
    """Exit code of one operation; a raised exception counts as a failure."""
    if op.make is not None:
        def call():
            op.make(qd, op.output)
            return 0
    else:
        def call():
            return qd.cli.main([*op.argv, "--output", op.output])
    try:
        return tracer.call(op.span, call) if tracer else call()
    except Exception:
        traceback.print_exc()
        return 1


class Runner:
    """Runs operations, keeps the first good output of each and counts failures."""

    def __init__(self, qd):
        self.qd = qd
        self.reference = {}  # op name -> first successful output text
        self.instances = []  # (op name, ok) per operation run

    def execute(self, ops, tracer=None) -> list:
        """Run ops once in order; returns the wall time of each (output checks excluded)."""
        codes, times = [], []
        if tracer:
            tracer.install(self.qd)
        try:
            for op in ops:
                t0 = time.perf_counter()
                codes.append(_run_op(self.qd, op, tracer))
                times.append(time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.uninstall()
        for op, rc in zip(ops, codes):
            text = Path(op.output).read_text() if rc == 0 and Path(op.output).is_file() else None
            ok = text is not None
            if ok and op.name in self.reference:
                ok = text == self.reference[op.name]
            elif ok:
                self.reference[op.name] = text
            self.instances.append((op.name, ok))
        return times

    def check(self, workload, plan) -> dict:
        """Failure message per failed check (empty when all pass)."""
        errors = {}
        for chk in workload.checks:
            try:
                chk.fn(plan, self.reference)
            except Exception as exc:  # a missing output fails the check too
                errors[chk] = f"{type(exc).__name__}: {exc}"
        return errors


def _layer_values(tracer, first_span: int, counts_before: Counter) -> dict:
    vals = {f"{name}_s": t for name, t in tracer.totals(first_span).items()}
    vals.update(tracer.counts - counts_before)
    return vals


def _sequence_time(repeats: list) -> float:
    """Sum over the operations of each one's median time across repeats.

    The host runs in fast and slow phases (up to 1.5x for seconds at a time);
    a per-operation median keeps the fast-phase time unless most repeats of
    that operation were slow, which a median of whole-round totals does not.
    """
    return sum(statistics.median(col) for col in zip(*repeats))


def _per_layer(setup_vals: list, round_vals: list, overhead: float) -> dict:
    """Median over traced set-ups plus median over traced rounds, per metric."""

    def med(rows, key):
        return statistics.median(r.get(key, 0) for r in rows) if rows else 0

    names = _bench()["per_layer"]
    out = {}
    for m in names:
        key = m["name"]
        out[key] = med(setup_vals, key) + med(round_vals, key)
    t = out["diffraction.fourier_average_s"]
    out["diffraction.fourier_terms_per_s"] = out["diffraction.fourier_point_terms"] / t if t else 0.0
    bins = out["diffraction.autocorr_bins"]
    out["diffraction.autocorr_pairs_per_bin"] = 2 * out["diffraction.autocorr_pairs"] / bins if bins else 0.0
    out["trace.overhead_s"] = overhead
    return {m["name"]: {"value": out[m["name"]], "unit": m["unit"]} for m in names}


def _warm_up(qd, workload, seed: int, runner: Runner) -> None:
    """Untimed small-size set-up and round, so lazy imports and caches are filled
    before anything is timed; its operations count as attempted like the rest."""
    plan = workload.plan(seed, True)
    warm = Runner(qd)
    os.mkdir("warm-up")
    os.chdir("warm-up")
    try:
        warm.execute(workload.setup(plan) + workload.rounds(plan))
    finally:
        os.chdir("..")
    runner.instances.extend(warm.instances)


def run_workload(qd, workload, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer

    plan = workload.plan(seed, False)
    runner = Runner(qd)
    _warm_up(qd, workload, seed, runner)
    tracer = Tracer() if trace else None
    setup_ops, round_ops = workload.setup(plan), workload.rounds(plan)
    setup_times, setup_vals, marks = [], [], {}

    def set_up():
        for _ in range(workload.setup_repeats):
            mark, before = (len(tracer.spans), Counter(tracer.counts)) if trace else (0, None)
            setup_times.append(runner.execute(setup_ops, tracer))
            if trace:
                setup_vals.append(_layer_values(tracer, mark, before))
                marks["setup"] = (mark, len(tracer.spans))

    for _ in range(SETUP_FIRST):
        set_up()
    plain, traced, round_vals = [], [], []
    start = time.perf_counter()
    # Whole rounds only, each after one more set-up block, so that set-up is sampled
    # across the run; a traced run alternates plain and traced rounds in pairs.
    while not plain or time.perf_counter() - start < seconds or (trace and len(plain) != len(traced)):
        set_up()
        if trace and len(plain) > len(traced):
            mark, before = len(tracer.spans), Counter(tracer.counts)
            traced.append(runner.execute(round_ops, tracer))
            round_vals.append(_layer_values(tracer, mark, before))
            marks["round"] = (mark, len(tracer.spans))
        else:
            plain.append(runner.execute(round_ops))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = runner.check(workload, plan)
    for chk, msg in errors.items():
        print(f"check failed: {workload.name}: {chk.name}: {msg}", file=sys.stderr)
    bad_ops = {chk.op for chk in errors}
    failed = sum(1 for name, ok in runner.instances if not ok or name in bad_ops)
    result = {"correct": not errors, "attempted": len(runner.instances), "failed": failed}
    if trace:
        overhead = _sequence_time(traced) - _sequence_time(plain)
        result["metrics"] = _per_layer(setup_vals, round_vals, overhead)
        _write_trace(workload.name, seed, tracer, marks, plain, traced, result["metrics"])
    else:
        units = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
        values = {
            "setup_s": _sequence_time(setup_times),
            "run_s": _sequence_time(plain),
            "peak_rss_mib": peak_rss_mib,
        }
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return result


def _write_trace(name, seed, tracer, marks, plain, traced, metrics) -> None:
    """Per-layer JSON: metrics, round times, and span breakdowns of the last set-up and round."""
    doc = {
        "workload": name,
        "seed": seed,
        "untraced_round_s": [sum(r) for r in plain],
        "traced_round_s": [sum(r) for r in traced],
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "setup_spans": tracer.breakdown(*marks["setup"]),
        "round_spans": tracer.breakdown(*marks["round"]),
    }
    (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(doc, indent=1) + "\n")


def self_test(qd) -> int:
    """Checks pass on two seeds at small size, and each rejects its corruption."""
    from workloads import WORKLOADS

    ok = True
    for wl in WORKLOADS.values():
        for seed in (1, 2):
            plan = wl.plan(seed, True)
            runner = Runner(qd)
            runner.execute(wl.setup(plan))
            runner.execute(wl.rounds(plan))
            failed_ops = [name for name, good in runner.instances if not good]
            errors = runner.check(wl, plan)
            status = "ok" if not errors and not failed_ops else "FAIL"
            ok &= status == "ok"
            print(f"{wl.name} seed {seed}: {len(wl.checks)} checks, {status}")
            for chk, msg in errors.items():
                print(f"  {chk.name}: {msg}")
            for name in failed_ops:
                print(f"  operation {name} failed")
            if seed != 1:
                continue
            for chk in wl.checks:
                try:
                    bad = chk.corrupt(plan, dict(runner.reference))
                except Exception as exc:
                    print(f"  cannot corrupt {chk.op}: {type(exc).__name__}: {exc}")
                    ok = False
                    continue
                try:
                    chk.fn(plan, bad)
                    rejected = False
                except Exception:
                    rejected = True
                good = rejected and bad[chk.op] != runner.reference[chk.op]
                ok &= good
                print(f"  {'rejects' if good else 'DOES NOT REJECT'} corrupted {chk.op}: {chk.name}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def _run_all(args) -> int:
    """Each workload in a fresh process; prints every metric, then one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in _bench()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
            print(f"{name:10s} {key:42s} {m['value']:.6g} {m['unit']}")
        print(f"{name:10s} attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not BENCH_FILE.is_file():
        raise SystemExit("error: BENCHMARK.json not found at the checkout root")
    if args.seconds is None:
        args.seconds = _bench()["run_seconds"]
    qd = _import_quasidiff()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all" and not args.self_test:
        return _run_all(args)
    from workloads import WORKLOADS

    if not args.self_test and args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; workloads: {', '.join(WORKLOADS)}, all")
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        if args.self_test:
            return self_test(qd)
        res = run_workload(qd, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    for key, m in res["metrics"].items():
        print(f"{key:42s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
