"""perfbench's tracer, installed on the package, still fits the functions it wraps."""

import importlib.util
import json
from pathlib import Path

import pytest

import quasidiff
from quasidiff import WeightedPointSet
from quasidiff.cli import main

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("gen, box, xi", [
    (["gen", "model-set", "--scheme", "fibonacci", "--box", "0,80"], "0,80", "0:2:0.25"),
    (["gen", "lattice", "--dim", "2", "--box", "0,0;7,7", "--spacing", "0.7"], "0,0;7,7", "0,0,0.5,0.5"),
], ids=["1D", "2D"])
def test_traced_autocorrelation_counts_every_pair(tmp_path, gen, box, xi):
    points = tmp_path / "points.json"
    assert main([*gen, "--output", str(points)]) == 0
    n = len(WeightedPointSet.from_json(json.loads(points.read_text())["pointset"]))
    tracer = tracing.Tracer()
    tracer.install(quasidiff)
    try:
        code = main(["diffract", "scan", "--input", str(points), "--box", box, "--xi", xi,
                     "--estimator", "autocorr", "--output", str(tmp_path / "scan.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["diffraction.autocorr_pairs"] == n * (n - 1) // 2  # the pairs i > j
