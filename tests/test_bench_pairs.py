import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"t": {"better": "lower", "bound": 0.1}, "q": {"better": "higher", "bound": 0.1}}


def _runs(base, new, bad=()):
    """Synthetic pairs: metric t takes the values, q their negatives; pairs in bad fail on the new side."""
    def side(v, ok):
        return {"correct": ok, "failed": 0, "metrics": {"t": v, "q": -v}, "import_rss_mib": 40.0 + v,
                "run_vmhwm_mib": 50.0 + v, "cpu_s": 2.0 * v, "steal_jiffies": int(10 * v), "other_cpu_s": 3.0 * v}

    return [{"base": side(b, True), "new": side(n, i not in bad)} for i, (b, n) in enumerate(zip(base, new))]


@pytest.mark.parametrize("base, new, bad, verdict", [
    ([10.0] * 5 + [10.1] * 5, [9.0] * 10, (), "gain"),
    ([10.0] * 5 + [10.1] * 5, [9.0] * 10, (3,), "within_bound"),  # more failures: no gain
    ([10.0] * 5 + [10.1] * 5, [9.0] * 8 + [11.0] * 2, (), "within_bound"),  # 8 wins of 10
    ([10.0] * 10, [10.9] * 10, (), "within_bound"),  # worse, but by less than the bound
    ([10.0] * 10, [11.5] * 10, (), "regression"),
    ([8.0, 9.0, 11.0, 12.0], [10.5] * 4, (), "unresolved"),  # base spread 2.25 > bound 1.0
    ([8.0, 9.0, 11.0, 12.0], [7.0] * 4, (), "gain"),
    ([8.0, 9.0, 11.0, 12.0], [7.0, 7.0, 7.0, 13.0], (), "unresolved"),  # 3 of 4 wins
    ([8.0, 9.0, 11.0, 12.0], [7.9] * 4, (), "within_bound"),  # every run better than every base run
])
def test_summary_verdicts(base, new, bad, verdict):
    summary = bench_pairs._summary(_runs(base, new, bad), METRICS)
    assert summary["failed_runs"] == {"base": 0, "new": len(bad)}
    for metric in METRICS:  # a higher-is-better metric of the negated values reads the same
        assert summary["metrics"][metric]["verdict"] == verdict
    t = summary["metrics"]["t"]
    assert t["pairs"] == len(base) and t["base"]["q1"] <= t["base"]["median"] <= t["base"]["q3"]
    rss = summary["import_rss_mib"]  # not gated: quartiles only
    assert rss["base"]["median"] == 40.0 + t["base"]["median"]
    assert rss["new"]["median"] == 40.0 + t["new"]["median"]
    assert summary["cpu_s"]["new"]["median"] == 2.0 * t["new"]["median"]
    assert summary["run_vmhwm_mib"]["base"]["median"] == 50.0 + t["base"]["median"]
    assert summary["other_cpu_s"]["base"]["median"] == pytest.approx(3.0 * t["base"]["median"])
    line = bench_pairs._verdicts("w", summary)
    assert all(key in line for key in bench_pairs.UNGATED) and f"t {verdict}" in line


def test_steal_jiffies_unread():
    runs = _runs([1.0, 1.0], [1.0, 1.0])
    runs[0]["new"].update(bench_pairs._host_load(None, (1, 2), 0.5))  # /proc/stat could not be read
    summary = bench_pairs._summary(runs, METRICS)
    assert summary["steal_jiffies"]["new"] is None and summary["other_cpu_s"]["new"] is None
    assert summary["steal_jiffies"]["base"]["median"] == 10
    line = bench_pairs._verdicts("w", summary)
    assert "steal_jiffies unread" in line and "other_cpu_s unread" in line


_PROC_STAT = """cpu  5651782 0 352476 10214171 38693 0 17979 162441 0 0
cpu0 4579535 0 289956 3187313 33941 0 16794 115627 0 0
cpu1 1072247 0 62520 7026858 4752 0 1185 46814 0 0
intr 912345 0 0
ctxt 123456789
btime 1760000000
"""


# the same host 20 s later: all CPUs 1500 jiffies busier (user 1200, nice 0, system 250,
# irq 0, softirq 50; idle and iowait do not count), 60 jiffies more steal
_PROC_STAT_LATER = """cpu  5652982 0 352726 10216000 38800 0 18029 162501 0 0
cpu0 4580135 0 290081 3188000 34000 0 16819 115657 0 0
cpu1 1072847 0 62645 7028000 4800 0 1210 46844 0 0
intr 998765 0 0
"""


def test_steal_reads_the_cpu_line(tmp_path):
    busy = 5651782 + 0 + 352476 + 0 + 17979  # all CPUs, not cpu0's
    assert bench_pairs._cpu_jiffies(_PROC_STAT) == (busy, 162441)
    with pytest.raises(ValueError):
        bench_pairs._cpu_jiffies("intr 1 2 3\n")
    stat = tmp_path / "stat"
    stat.write_text(_PROC_STAT)
    assert bench_pairs._read_cpu_jiffies(stat) == (busy, 162441)
    assert bench_pairs._read_cpu_jiffies(tmp_path / "missing") is None
    stat.write_text("cpu  1 2 3\n")  # a kernel without the steal column
    assert bench_pairs._read_cpu_jiffies(stat) is None


def test_other_cpu_seconds_between_two_stat_texts(monkeypatch):
    monkeypatch.setattr(bench_pairs.os, "sysconf", {"SC_CLK_TCK": 100}.__getitem__)
    before, after = (bench_pairs._cpu_jiffies(text) for text in (_PROC_STAT, _PROC_STAT_LATER))
    # 15 busy seconds over the run, 12.25 of them the run's own
    assert bench_pairs._host_load(before, after, 12.25) == {"steal_jiffies": 60, "other_cpu_s": 2.75}
    assert bench_pairs._host_load(before, None, 12.25) == {"steal_jiffies": None, "other_cpu_s": None}


_STATUS = """Name:\tpython3
State:\tS (sleeping)
Pid:\t4242
VmPeak:\t  512000 kB
VmSize:\t  480000 kB
VmHWM:\t   61440 kB
VmRSS:\t   40960 kB
Threads:\t1
"""


def test_vmhwm_reads_the_status_line(tmp_path):
    assert bench_pairs._vmhwm_mib(_STATUS) == 60.0
    # an exited process not yet waited for keeps a status file without memory lines
    assert bench_pairs._vmhwm_mib("Name:\tpython3\nState:\tZ (zombie)\n") is None
    (tmp_path / "4242").mkdir()
    (tmp_path / "4242" / "status").write_text(_STATUS)
    assert bench_pairs._read_vmhwm_mib(4242, tmp_path) == 60.0
    assert bench_pairs._read_vmhwm_mib(4243, tmp_path) is None


def test_run_vmhwm_leaves_out_the_launchers_memory(tmp_path):
    # a run that holds 64 MiB reads above that, but below the 96 MiB its launcher
    # holds, which ru_maxrss (peak_rss_mib) would start from
    root = _checkout(tmp_path / "big", "")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(_RUN_PY.format(work="block = b'x' * (64 << 20); time.sleep(0.3)"))
    block = b"y" * (96 << 20)
    run = bench_pairs._run(root, "w", 1, None)
    del block
    assert 64 < run["run_vmhwm_mib"] < 96


def test_summary_counts_failed_operations():
    runs = _runs([1.0, 1.0], [1.0, 1.0])
    runs[0]["base"]["failed"] = 2
    runs[1]["base"]["correct"] = False
    runs[1]["new"]["failed"] = 1
    assert bench_pairs._summary(runs, METRICS)["failed_runs"] == {"base": 2, "new": 1}


def _checkout(root: Path, cli: str) -> Path:
    pkg = root / "src" / "quasidiff"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(cli)
    return root


# a perfbench/run.py that does some work, then prints a result line
_RUN_PY = """import json, time
{work}
print(json.dumps({{"correct": True, "attempted": 1, "failed": 0, "metrics": {{"run_s": {{"value": 1.0}}}}}}))
"""


def test_run_reports_the_childs_cpu_seconds(tmp_path):
    # a run that computes reads more CPU seconds than one that sleeps
    runs = {}
    for name, work in (("busy", "sum(range(2 * 10**7))"), ("idle", "time.sleep(0.3)")):
        root = _checkout(tmp_path / name, "")
        (root / "perfbench").mkdir()
        (root / "perfbench" / "run.py").write_text(_RUN_PY.format(work=work))
        runs[name] = bench_pairs._run(root, "w", 1, None)
    assert runs["busy"]["metrics"] == {"run_s": 1.0} and runs["busy"]["correct"]
    assert runs["busy"]["cpu_s"] > runs["idle"]["cpu_s"] + 0.1
    assert all(isinstance(run["other_cpu_s"], float) for run in runs.values())
    assert all(run["run_vmhwm_mib"] > 0 for run in runs.values())


def test_import_rss_reads_the_checkouts_cli(tmp_path):
    # a cli that holds 64 MiB at import raises the reading by that much over one that holds
    # nothing; so the reading is taken after importing quasidiff.cli, and from the checkout
    # given (the quasidiff this suite runs under holds no such block)
    small = bench_pairs._import_rss_mib(_checkout(tmp_path / "small", ""))
    big = bench_pairs._import_rss_mib(_checkout(tmp_path / "big", "BLOCK = b'x' * (64 << 20)\n"))
    assert 0 < small and 56 < big - small < 72


def test_import_rss_leaves_out_the_launchers_memory(tmp_path):
    # Linux starts a child's ru_maxrss at its launcher's peak RSS; the reading must not
    block = b"x" * (96 << 20)  # held while the child runs
    rss = bench_pairs._import_rss_mib(_checkout(tmp_path / "small", ""))
    del block
    assert rss < 64


def test_machine_reads_cache_sizes(tmp_path):
    from importlib.metadata import version

    for i, (level, kind, size) in enumerate([("1", "Data", "48K"), ("1", "Instruction", "32K"),
                                             ("2", "Unified", "2048K"), ("3", "Unified", "307200K")]):
        index = tmp_path / f"index{i}"
        index.mkdir()
        for name, text in (("level", level), ("type", kind), ("size", size)):
            (index / name).write_text(text + "\n")
    (tmp_path / "uevent").write_text("")
    machine = bench_pairs._machine(tmp_path)
    assert machine["l2_cache"] == "2048K" and machine["l3_cache"] == "307200K"
    assert machine["numpy"] == version("numpy") and machine["scipy"] == version("scipy")
    assert "l2_cache" not in bench_pairs._machine(tmp_path / "missing")


def test_launcher_imports_neither_numpy_nor_scipy():
    # what the launcher holds sets the floor of each run's ru_maxrss (Linux carries
    # it over at exec), so loading the script and reading the machine imports neither
    probe = ("import importlib.util, sys; "
             f"spec = importlib.util.spec_from_file_location('bench_pairs', {str(_spec.origin)!r}); "
             "m = importlib.util.module_from_spec(spec); spec.loader.exec_module(m); m._machine(); "
             "print(sorted({'numpy', 'scipy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_tier1_runs_three_times_per_side_in_a_fixed_order(tmp_path, monkeypatch):
    # a stubbed pytest run reads the side from a marker in the checkout it is run in;
    # the clock makes the runs take 10, 20, 21, 13, 11 and 25 s in turn
    sides = {}
    for side in ("base", "new"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
        (sides[side] / "side").write_text(side)
    seen = []

    def fake_run(argv, cwd, **kwargs):
        assert argv == bench_pairs.TIER1
        seen.append((Path(cwd) / "side").read_text())
        return subprocess.CompletedProcess(argv, 0, stdout=f"....\n{len(seen)} passed in 1.0s\n", stderr="")

    clock = iter([0.0, 10.0, 0.0, 20.0, 0.0, 21.0, 0.0, 13.0, 0.0, 11.0, 0.0, 25.0])
    monkeypatch.setattr(bench_pairs, "subprocess", SimpleNamespace(run=fake_run))
    monkeypatch.setattr(bench_pairs, "time", SimpleNamespace(perf_counter=clock.__next__))
    record = bench_pairs._tier1_rounds(sides, tmp_path / "checkout")
    assert seen == ["base", "new", "new", "base", "base", "new"]
    assert [r["wall_s"] for r in record["base"]["runs"]] == [10.0, 13.0, 11.0]
    assert [r["wall_s"] for r in record["new"]["runs"]] == [20.0, 21.0, 25.0]
    assert record["base"]["median_wall_s"] == 11.0 and record["new"]["median_wall_s"] == 21.0
    assert record["new"]["runs"][0]["summary"] == "2 passed in 1.0s"
    assert all(r["exit"] == 0 for side in record.values() for r in side["runs"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["base", "new"]  # each side moved back
