"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/report.py

Runs `run.py` once per workload and seed 1..10, each in a fresh process,
one at a time, and prints Markdown: the machine, the median and quartiles of every
end-to-end metric with its spread (interquartile range over median) against
a third of the metric's bound, then, from two traced runs per workload,
whether their counts agree, the tracing overhead and the span breakdown
with self times. The raw results go to .perfbench/report.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = 10


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> str:
    import numpy
    import scipy

    return (f"nproc {os.cpu_count()}, {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def _quartiles(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(workloads: list) -> tuple[list, dict]:
    lines = ["| workload | metric | median | q1 | q3 | spread | bound/3 | failed/attempted |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    raw = {}
    for w in workloads:
        runs = [_run(w, seed, 0) for seed in range(1, SEEDS + 1)]
        raw[w] = runs
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        for m in BENCH["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = _quartiles(vals)
            lines.append(f"| {w} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                         f"{(q3 - q1) / med:.3f} | {m['bound'] / 3:.3f} | {' '.join(shares)} |")
    return lines, raw


def traced(workloads: list) -> tuple[list, dict]:
    lines = []
    raw = {}
    count_names = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    for w in workloads:
        a, b = _run(w, 1, 1), _run(w, 1, 1)
        doc = json.loads((ROOT / ".perfbench" / f"trace-{w}-seed1.json").read_text())
        raw[w] = {"runs": [a, b], "trace": doc}
        same = all(a["metrics"][n]["value"] == b["metrics"][n]["value"] for n in count_names)
        plain = statistics.median(doc["untraced_round_s"])
        lines += [
            f"### {w}",
            "",
            f"Counts identical across two traced runs: {'yes' if same else 'NO'}. "
            f"Untraced round {plain:.3f} s, traced round {statistics.median(doc['traced_round_s']):.3f} s, "
            f"overhead {doc['metrics']['trace.overhead_s']:.3f} s (second run).",
            "",
            "| span | parent | calls | total s | self s |",
            "| --- | --- | --- | --- | --- |",
        ]
        rows = doc["setup_spans"] + doc["round_spans"]
        for r in sorted(rows, key=lambda r: -r["self_s"])[:14]:
            lines.append(f"| {r['span']} | {r['parent']} | {r['calls']} | {r['total_s']:.4f} | {r['self_s']:.4f} |")
        lines.append("")
        lines.append("Per-layer metrics (second run): " + ", ".join(
            f"`{k}` {v['value']:.4g}" for k, v in b["metrics"].items() if v["value"]))
        lines.append("")
    return lines, raw


def main() -> int:
    workloads = [w["name"] for w in BENCH["workloads"]]
    print(f"Machine: {_machine()}. run_seconds {BENCH['run_seconds']}, seeds 1..{SEEDS}.\n")
    e2e, raw = end_to_end(workloads)
    print("\n".join(e2e) + "\n", flush=True)
    report = {"machine": _machine(), "end_to_end": raw}
    lines, report["traced"] = traced(workloads)
    print("\n".join(lines))
    (ROOT / ".perfbench" / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
