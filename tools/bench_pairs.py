"""Paired benchmark of the working tree against a base commit; writes a BENCH file.

    python3 tools/bench_pairs.py --base HEAD~1 --out BENCH_<n>.json \
        model-set:10 displaced:5 sturmian:5

Each `WORKLOAD:PAIRS` runs `python3 perfbench/run.py --workload W --seed S`
once on the base commit and once on this working tree, for seeds 1, 2, ...;
the side that runs first alternates from pair to pair. Both sides are copied
into a temporary directory (the base by `git archive`, the working tree as its
tracked and unignored files) and each run is made from the same path, since
the path of a checkout alone can move peak RSS by most of a MiB. The file
records the machine, both commit ids, every run's end-to-end metrics, per-side
medians with quartiles, how many pairs the working tree won per metric (by the
`better` direction in BENCHMARK.json), each metric's verdict, the runs on each
side that failed a check or an operation, and the tier-1 wall times: tier-1
runs three times per side, in the fixed order base, new, new, base, base, new,
and the file keeps every run and each side's median wall time. The machine entry has the L2 and L3 cache sizes. Next to each run it
records the import RSS: the peak RSS of a Python that has only imported
quasidiff.cli from that side, made from the same path. It is not gated; it
tells growth of peak_rss_mib that comes from module size or import-time
allocator layout apart from memory the workload holds. It is read as VmHWM,
the process's own ru_maxrss: Linux carries the launching process's peak RSS
over into a child's ru_maxrss at exec. For the same reason this script reads
the numpy and scipy versions from package metadata and imports neither, so
that its own peak stays below a run's. Run it on a quiet machine: the pairs
are timed one after the other, and other load shows up in them. To tell that
load apart, each run also records, ungated, the run's CPU seconds (user plus
system, the growth of this script's RUSAGE_CHILDREN over the run), the
host's steal time over the run, in jiffies of the `cpu` line of /proc/stat
(time a hypervisor gave this machine's virtual CPUs to others), and the CPU
seconds of other processes over the run: the growth of that line's busy
jiffies (user, nice, system, irq and softirq) over SC_CLK_TCK, less the
run's own CPU seconds. /proc/stat counts whole ticks of each CPU, so that
reading is good to about a tick per CPU and can dip just below 0. It also
records, ungated, the run's own peak RSS: the VmHWM line of the run's
/proc/<pid>/status, read every SAMPLE_S seconds while it runs (VmHWM only
grows, so the last reading is the peak up to the last SAMPLE_S of the run).
peak_rss_mib is ru_maxrss, which starts at the launcher's peak; this reading
does not. It covers the whole of run.py, the output checks after the timed
rounds included, while peak_rss_mib is read before those checks. All of these
are printed next to the verdicts.

A metric's verdict, with base spread the base runs' q3 - q1:

* gain: the working tree won at least 9 in 10 pairs, its median is better by
  more than the base spread, and it has no more failed runs than the base;
* unresolved: otherwise, when the base spread is wider than the metric's
  bound (a share of the base median), unless every working-tree run is
  better than every base run;
* within_bound: otherwise, when the median got no worse than the bound allows;
* regression: otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHES = Path("/sys/devices/system/cpu/cpu0/cache")
PROC_STAT = Path("/proc/stat")
PROC = Path("/proc")
IMPORT_RSS = "import quasidiff.cli; print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])"
# seconds between two readings of a run's VmHWM
SAMPLE_S = 0.05
# readings recorded per run but not gated, with the unit they are printed in
UNGATED = {"import_rss_mib": " MiB", "run_vmhwm_mib": " MiB", "cpu_s": " s", "steal_jiffies": "",
           "other_cpu_s": " s"}
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
# the sides tier-1 runs on, in turn: three runs each, each side first and last once
TIER1_ORDER = ("base", "new", "new", "base", "base", "new")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    """The committed files of rev under dest."""
    tar = dest.with_suffix(".tar")
    _git("archive", "--output", str(tar), rev)
    dest.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(dest)], check=True)
    tar.unlink()


def _copy_working_tree(dest: Path) -> None:
    """The working tree's tracked and unignored files under dest."""
    for name in _git("ls-files", "--cached", "--others", "--exclude-standard").splitlines():
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


@contextmanager
def _at(side: Path, path: Path):
    """Move a side's copy to path for one run, so that every run is made from the same path."""
    side.rename(path)
    try:
        yield path
    finally:
        path.rename(side)


def _import_rss_mib(checkout: Path) -> float:
    """Peak RSS (VmHWM), in MiB, of a Python that has only imported quasidiff.cli from checkout/src."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-c", IMPORT_RSS], cwd=checkout, env=env,
                          check=True, capture_output=True, text=True)
    return int(proc.stdout) / 1024.0  # VmHWM is in kB


def _machine(caches: Path = CACHES) -> dict:
    """Core count, Python, numpy and scipy versions (from package metadata), and the L2 and
    L3 cache sizes as the kernel writes them (e.g. 2048K), which the pair block is sized for."""
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": version("numpy"), "scipy": version("scipy")}
    for index in sorted(caches.glob("index*")):
        try:
            level, size = ((index / name).read_text().strip() for name in ("level", "size"))
        except OSError:
            continue
        if level in ("2", "3"):
            machine[f"l{level}_cache"] = size
    return machine


def _cpu_jiffies(stat: str) -> tuple[int, int]:
    """Busy and steal jiffies of all CPUs from /proc/stat text: the sum of the `cpu`
    line's user, nice, system, irq and softirq columns, and its steal column."""
    for line in stat.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
            return user + nice + system + irq + softirq, steal
    raise ValueError("no cpu line in /proc/stat text")


def _read_cpu_jiffies(stat: Path = PROC_STAT) -> tuple[int, int] | None:
    """The host's busy and steal jiffies so far, or None where /proc/stat cannot be read."""
    try:
        return _cpu_jiffies(stat.read_text())
    except (OSError, ValueError):
        return None


def _host_load(before: tuple | None, after: tuple | None, cpu_s: float) -> dict:
    """Steal jiffies and other processes' CPU seconds between two readings of
    _read_cpu_jiffies around a run whose own CPU seconds are cpu_s; None where either
    reading is missing."""
    if before is None or after is None:
        return {"steal_jiffies": None, "other_cpu_s": None}
    busy, steal = (a - b for a, b in zip(after, before))
    return {"steal_jiffies": steal, "other_cpu_s": round(busy / os.sysconf("SC_CLK_TCK") - cpu_s, 3)}


def _vmhwm_mib(status: str) -> float | None:
    """The VmHWM line (in kB) of /proc/<pid>/status text, in MiB; None without one (a
    process that has exited keeps its status file until it is waited for, but no memory
    lines)."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def _read_vmhwm_mib(pid: int, proc: Path = PROC) -> float | None:
    """The peak RSS so far of the running process pid, or None where it cannot be read."""
    try:
        return _vmhwm_mib((proc / str(pid) / "status").read_text())
    except OSError:
        return None


def _child_cpu_s() -> float:
    """User plus system CPU seconds of this process's waited-for children so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    jiffies, cpu_s = _read_cpu_jiffies(), _child_cpu_s()
    proc = subprocess.Popen(argv, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    vmhwm = None
    while True:  # VmHWM only grows: the last reading before the run exits is its peak
        vmhwm = _read_vmhwm_mib(proc.pid) or vmhwm
        try:
            stdout, stderr = proc.communicate(timeout=SAMPLE_S)
            break
        except subprocess.TimeoutExpired:
            pass
    after, cpu_s = _read_cpu_jiffies(), _child_cpu_s() - cpu_s
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed in {checkout}:\n{stderr[-2000:]}")
    res = json.loads(lines[-1])
    return {"seed": seed, "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()},
            "cpu_s": round(cpu_s, 3), **_host_load(jiffies, after, cpu_s),
            "import_rss_mib": _import_rss_mib(checkout), "run_vmhwm_mib": vmhwm}


def _tier1(checkout: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": "src" + os.pathsep + os.environ.get("PYTHONPATH", "")}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    tail = proc.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - t0, 2), "summary": tail[-1] if tail else "", "exit": proc.returncode}


def _tier1_rounds(sides: dict, here: Path) -> dict:
    """Per side, its tier-1 runs in TIER1_ORDER and their median wall time; each run is made at here."""
    runs = {side: [] for side in sides}
    for side in TIER1_ORDER:
        with _at(sides[side], here):
            runs[side].append(_tier1(here))
    return {side: {"runs": r, "median_wall_s": statistics.median(x["wall_s"] for x in r)} for side, r in runs.items()}


def _quartiles(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": med, "q1": q1, "q3": q3}


def _summary(runs: list, metrics: dict) -> dict:
    """Failed runs, and the quartiles of each ungated reading (None where a run has none)
    per side, and per metric the quartiles, wins and verdict of the pairs.

    metrics maps each metric's name to its BENCHMARK.json entry (better, bound).
    """
    bad = {side: sum(not r[side]["correct"] or r[side]["failed"] > 0 for r in runs) for side in ("base", "new")}
    out = {}
    for metric, spec in metrics.items():
        base = [r["base"]["metrics"][metric] for r in runs]
        new = [r["new"]["metrics"][metric] for r in runs]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (b - n) > 0 for b, n in zip(base, new))
        b, n = _quartiles(base), _quartiles(new)
        spread, gap = b["q3"] - b["q1"], sign * (b["median"] - n["median"])  # gap > 0: the working tree is better
        allowed = spec["bound"] * abs(b["median"])
        if wins >= 0.9 * len(runs) and gap > spread and bad["new"] <= bad["base"]:
            verdict = "gain"
        elif spread > allowed and not all(sign * (x - y) > 0 for x in base for y in new):
            verdict = "unresolved"
        elif -gap <= allowed:
            verdict = "within_bound"
        else:
            verdict = "regression"
        out[metric] = {"base": b, "new": n, "change": n["median"] / b["median"] - 1,
                       "wins": wins, "pairs": len(runs), "verdict": verdict}
    ungated = {}
    for key in UNGATED:
        values = {side: [r[side][key] for r in runs] for side in ("base", "new")}
        ungated[key] = {side: None if None in v else _quartiles(v) for side, v in values.items()}
    return {"failed_runs": bad, **ungated, "metrics": out}


def _verdicts(workload: str, summary: dict) -> str:
    """One line: failed runs, the ungated medians of each side, and each metric's verdict."""
    def medians(key, unit):
        q = summary[key]
        if None in q.values():
            return f"{key} unread"
        return f"{key} {q['base']['median']:.4g} -> {q['new']['median']:.4g}{unit}"

    return (f"{workload}: failed runs {summary['failed_runs']}; "
            + "; ".join(medians(k, u) for k, u in UNGATED.items())
            + "; " + ", ".join(f"{m} {s['verdict']}" for m, s in summary["metrics"].items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("specs", nargs="+", metavar="WORKLOAD:PAIRS")
    parser.add_argument("--base", required=True, help="commit the working tree is compared with")
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    record = {
        "machine": _machine(),
        "base": _git("rev-parse", args.base),
        "head": _git("rev-parse", "HEAD"),
        # untracked, unignored files count: _copy_working_tree copies them
        "head_dirty": bool(_git("status", "--porcelain")),
        "seconds": args.seconds or bench["run_seconds"],
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": Path(tmp) / "base", "new": Path(tmp) / "new"}
        _export(args.base, sides["base"])
        _copy_working_tree(sides["new"])
        here = Path(tmp) / "checkout"
        record["tier1"] = _tier1_rounds(sides, here)
        for spec in args.specs:
            workload, pairs = spec.split(":")
            runs = []
            for i in range(int(pairs)):
                seed = i + 1
                order = ("base", "new") if i % 2 == 0 else ("new", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    with _at(sides[side], here):
                        pair[side] = _run(here, workload, seed, args.seconds)
                runs.append(pair)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m} {pair['base']['metrics'][m]:.4g} -> {pair['new']['metrics'][m]:.4g}" for m in metrics)
                    + "".join(f", {k} {pair['base'][k]} -> {pair['new'][k]}"
                              for k in ("run_vmhwm_mib", "cpu_s", "steal_jiffies", "other_cpu_s")),
                    file=sys.stderr)
            summary = _summary(runs, metrics)
            record["workloads"][workload] = {"runs": runs, "summary": summary}
            print(_verdicts(workload, summary), file=sys.stderr)
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
