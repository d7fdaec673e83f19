import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {"t": {"better": "lower", "bound": 0.1}, "q": {"better": "higher", "bound": 0.1}}


def _runs(base, new, bad=()):
    """Synthetic pairs: metric t takes the values, q their negatives; pairs in bad fail on the new side."""
    def side(v, ok):
        return {"correct": ok, "failed": 0, "metrics": {"t": v, "q": -v}, "import_rss_mib": 40.0 + v}

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
