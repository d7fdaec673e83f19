"""Check that the CLI writes the same bytes at a base commit and in the working tree.

    python3 tools/same_outputs.py --base origin/main

Runs COMMANDS, a fixed list that covers every leaf command (small inputs,
both estimators, 1D and 2D, displaced and percolated patches), through
`quasidiff.cli.main` twice: once with the `src/` of a `git archive` of the
base, once with the working tree's. Each side runs in a fresh directory of
the same layout, and later commands read the outputs of earlier ones by the
same relative paths, so the configs and input hashes written into the outputs
match. exits.txt records each command's exit code and stderr. Exits 1 and
lists every file whose bytes differ between the sides, or that one side lacks;
exits 0 when there is none.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, _export  # noqa: E402

# (output, argv of quasidiff.cli.main without --output), run in this order
COMMANDS = [
    ("lat1.json", ("gen", "lattice", "--box", "0,120")),
    ("lat2.json", ("gen", "lattice", "--dim", "2", "--box", "0,0;12,12", "--spacing", "0.7")),
    ("fib.json", ("gen", "model-set", "--scheme", "fibonacci", "--box", "0,300")),
    ("word.json", ("gen", "substitution", "--rules", "fibonacci", "--length", "200")),
    ("perc.json", ("perturb", "percolate", "--input", "fib.json", "--p", "0.5", "--seed", "3")),
    ("disp1.json", ("perturb", "displace", "--input", "lat1.json", "--dist", "uniform_interval:a=0.1",
                    "--seed", "5")),
    ("disp2.json", ("perturb", "displace", "--input", "lat2.json", "--dist", "two_point:a=0.05", "--seed", "6")),
    ("scan-fib.csv", ("diffract", "scan", "--input", "fib.json", "--box", "0,300", "--xi", "0:2:0.05")),
    ("scan-fib-auto.csv", ("diffract", "scan", "--input", "fib.json", "--box", "0,300", "--xi", "0:2:0.05",
                           "--estimator", "autocorr")),
    ("scan-disp1-auto.csv", ("diffract", "scan", "--input", "disp1.json", "--box", "0,120", "--xi", "0:2:0.25",
                             "--estimator", "autocorr", "--threads", "2")),
    ("scan-lat2.csv", ("diffract", "scan", "--input", "lat2.json", "--box", "0,0;12,12",
                       "--xi", "0,0,0.5,0.5,1.4285714285714286,0", "--threads", "2")),
    ("scan-disp2-auto.csv", ("diffract", "scan", "--input", "disp2.json", "--box=-1,-1;13,13",
                             "--xi", "0,0,1.4285714285714286,0", "--estimator", "autocorr")),
    ("peak-fib.csv", ("diffract", "peak", "--input", "fib.json", "--xi", "0.7236", "--vanhove", "20,1.5,5")),
    ("peak-fib-auto.csv", ("diffract", "peak", "--input", "fib.json", "--xi", "0.7236", "--vanhove", "20,1.5,5",
                           "--estimator", "autocorr")),
    ("peak-lat2.csv", ("diffract", "peak", "--input", "lat2.json", "--xi", "1.4285714285714286;0",
                       "--vanhove", "2,1.5,4", "--center", "6;6")),
    ("peak-perc-auto.csv", ("diffract", "peak", "--input", "perc.json", "--xi", "0", "--vanhove", "30,2,3",
                            "--estimator", "autocorr")),
    ("peaks-fib.csv", ("diffract", "peaks", "--input", "fib.json", "--box", "0,300", "--xi", "0:2:0.01",
                       "--floor", "0.05", "--refine")),
    ("peaks-perc-auto.csv", ("diffract", "peaks", "--input", "perc.json", "--box", "0,300", "--xi", "0:2:0.02",
                             "--floor", "0.02", "--estimator", "autocorr")),
    ("predict-fib.csv", ("predict", "model-set", "--scheme", "fibonacci", "--range", "0,3", "--floor", "0.01")),
    ("predict-perc.csv", ("predict", "perturbed", "--model", "percolation:p=0.5", "--base-spectrum",
                          "scan-fib.csv")),
    ("predict-disp.csv", ("predict", "perturbed", "--model", "displacement:uniform_interval:a=0.1",
                          "--base-spectrum", "scan-fib-auto.csv")),
    ("ww.json", ("ww", "--rules", "fibonacci", "--length", "2000", "--alpha", "0.381966",
                 "--lengths", "10,100,1000", "--offsets", "0,7,50")),
    ("lr.json", ("check", "lr", "--rules", "fibonacci", "--length", "2000", "--radii", "1..40")),
    ("subadditive.json", ("check", "subadditive", "--input", "fib.json", "--xi", "0.7236",
                          "--scales", "5,10,20", "--samples", "4", "--seed", "2")),
]


def _run_commands() -> None:
    """Run COMMANDS in the working directory with the quasidiff that Python imports."""
    from quasidiff.cli import main

    with open("exits.txt", "w") as log:
        for name, argv in COMMANDS:
            err = io.StringIO()
            with redirect_stderr(err):
                try:
                    code = main([*argv, "--output", name])
                except Exception as exc:  # one side's crash is a difference, not the end of the check
                    code = f"{type(exc).__name__}: {exc}"
            log.write(f"{name}: exit {code}\n{err.getvalue()}")


def _differing(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under a or b whose bytes differ, or that one of them lacks."""
    names = {p.relative_to(d).as_posix() for d in (a, b) for p in d.rglob("*") if p.is_file()}
    return sorted(n for n in names
                  if not ((a / n).is_file() and (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="commit to compare the working tree with")
    parser.add_argument("--run", action="store_true", help="run COMMANDS in the current directory and stop")
    args = parser.parse_args(argv)
    if args.run:
        _run_commands()
        return 0
    if args.base is None:
        parser.error("--base is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _export(args.base, tmp / "base")
        for side, checkout in (("base", tmp / "base"), ("new", ROOT)):
            (tmp / side / "out").mkdir(parents=True)
            env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run"],
                           cwd=tmp / side / "out", env=env, check=True)
        differ = _differing(tmp / "base" / "out", tmp / "new" / "out")
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(COMMANDS) + 1} outputs differ from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
