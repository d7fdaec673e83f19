import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import Box, ValidationError, WeightedPointSet, model_set, spectrum_from_csv
from quasidiff.cli import main
from test_pointset import _PINNED_FILES

TAU = (1.0 + np.sqrt(5.0)) / 2.0


def run(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(path.read_text())


def load_points(path):
    return WeightedPointSet.from_json(read_json(path)["pointset"])


@pytest.fixture()
def lattice_file(tmp_path):
    path = tmp_path / "lattice.json"
    assert run("gen", "lattice", "--box", "0,2000", "--output", str(path)) == 0
    return path


@pytest.fixture()
def deformed_scheme(tmp_path, fib_scheme):
    from quasidiff import Deformation

    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(fib_scheme.to_json(Deformation.affine([[0.1]], [0.0]))))
    return path


class TestParsing:
    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.startswith("quasidiff ")

    def test_no_command_is_usage_error(self, capsys):
        assert run() == 2

    def test_unknown_choice_is_usage_error(self, lattice_file, capsys):
        code = run(
            "diffract", "scan", "--input", str(lattice_file),
            "--box", "0,2000", "--xi", "0", "--estimator", "fft",
        )
        assert code == 2


class TestGen:
    def test_lattice_envelope(self, lattice_file):
        obj = read_json(lattice_file)
        assert obj["input_hash"] is None
        assert obj["config"]["command"] == "gen lattice"
        assert obj["config"]["box"] == "0,2000"
        assert "output" not in obj["config"]
        wps = load_points(lattice_file)
        assert len(wps) == 2000

    def test_model_set_matches_library(self, tmp_path, fib_scheme):
        path = tmp_path / "ms.json"
        assert run(
            "gen", "model-set", "--scheme", "fibonacci", "--box", "0,500",
            "--output", str(path),
        ) == 0
        wps = load_points(path)
        ref = model_set(fib_scheme, Box([0.0], [500.0]))
        assert np.array_equal(wps.points, ref.points)

    def test_substitution_truncates(self, tmp_path):
        path = tmp_path / "chain.json"
        assert run(
            "gen", "substitution", "--rules", "fibonacci", "--length", "100",
            "--output", str(path),
        ) == 0
        wps = load_points(path)
        assert len(wps) == 100

    def test_substitution_length_override(self, tmp_path):
        path = tmp_path / "chain.json"
        assert run(
            "gen", "substitution", "--rules", "fibonacci", "--length", "50",
            "--lengths", "a=2,b=1", "--output", str(path),
        ) == 0
        gaps = set(np.round(np.diff(load_points(path).points[:, 0]), 9))
        assert gaps == {1.0, 2.0}

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("gen", "model-set", "--scheme", "fibonacci", "--box", "0,300")
        assert run(*args, "--output", str(a)) == 0
        assert run(*args, "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert run("gen", "lattice", "--box", "0,5") == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["pointset"]["points"]) == 5

    @pytest.mark.parametrize("block", [1, 2, 4096])
    def test_stdout_is_the_output_file(self, block, tmp_path, capsys, monkeypatch):
        from quasidiff import pointset

        monkeypatch.setattr(pointset, "_ROW_BLOCK", block)
        args = ("gen", "model-set", "--scheme", "fibonacci", "--box", "0,30")
        out = tmp_path / "ms.json"
        assert run(*args, "--output", str(out)) == 0
        assert run(*args) == 0
        text = capsys.readouterr().out
        assert text == out.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"

    def test_cap_exceeded_exit_code(self, capsys):
        assert run("gen", "model-set", "--scheme", "fibonacci", "--box", "0,100000",
                   "--cap", "10") == 3
        assert "resource limit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gen", "model-set", "--scheme", "fibonacci", "--box=0,1e20"],
        ["gen", "model-set", "--scheme", "fibonacci", "--box=-1e300,0"],
        ["predict", "model-set", "--scheme", "fibonacci", "--range=0,1e20", "--floor", "1e-3"],
    ], ids=["gen-1e20", "gen-minus-1e300", "predict-1e20"])
    def test_region_beyond_int64_exit_code(self, argv, tmp_path, capsys):
        # candidate counts past int64 are counted before any cast could wrap them to 0
        assert run(*argv, "--output", str(tmp_path / "out")) == 3
        assert "candidate cap" in capsys.readouterr().err

    def test_region_past_the_float_range_exit_code(self, tmp_path):
        # a side of 3.4e308 overflows to inf; with RuntimeWarnings as errors an
        # overflow warning would end in a traceback and exit 1. The box is refused as
        # it is parsed, before any preimage bound is formed
        script = (
            "import sys; from quasidiff.cli import main\n"
            "sys.exit(main(['gen', 'model-set', '--scheme', 'fibonacci', '--box=-1.7e308,1.7e308',\n"
            "               '--output', 'out.json']))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "has volume inf" in proc.stderr and "Traceback" not in proc.stderr


class TestPerturb:
    def test_percolate(self, tmp_path, lattice_file):
        out = tmp_path / "perc.json"
        assert run(
            "perturb", "percolate", "--input", str(lattice_file),
            "--p", "0.5", "--seed", "7", "--output", str(out),
        ) == 0
        obj = read_json(out)
        assert obj["input_hash"] == hashlib.sha256(lattice_file.read_bytes()).hexdigest()
        kept = load_points(out)
        assert 0 < len(kept) < 2000
        assert kept.meta["generator"] == "percolation"

    def test_percolate_bad_p_exit_code(self, lattice_file, capsys):
        assert run(
            "perturb", "percolate", "--input", str(lattice_file),
            "--p", "1.5", "--seed", "0",
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_displace_spec_string(self, tmp_path, lattice_file):
        out = tmp_path / "disp.json"
        assert run(
            "perturb", "displace", "--input", str(lattice_file),
            "--dist", "uniform_interval:a=0.1", "--seed", "3", "--output", str(out),
        ) == 0
        moved = load_points(out)
        base = load_points(lattice_file)
        assert len(moved) == len(base)
        assert np.max(np.abs(moved.points - base.points)) <= 0.1

    @pytest.mark.parametrize("a, message", [
        ("inf", "positive finite half-width"),
        ("1e308", "the width 2a overflows"),
    ])
    def test_displace_unbounded_width_exit_code(self, a, message, lattice_file, capsys):
        assert run("perturb", "displace", "--input", str(lattice_file),
                   "--dist", f"uniform_interval:a={a}", "--seed", "3") == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_displace_collapsing_width_exit_code(self, tmp_path, capsys):
        # every point moves to -1e308 or 1e308: the sorted gaps overflow (under
        # errstate, as the 2D closest pair's squares do) and the duplicates exit 2
        patch = tmp_path / "m50.json"
        assert run("gen", "model-set", "--scheme", "fibonacci", "--box=0,50", "--output", str(patch)) == 0
        assert run("perturb", "displace", "--input", str(patch), "--dist", "two_point:a=1e308",
                   "--seed", "1", "--output", str(tmp_path / "out.json")) == 2
        err = capsys.readouterr().err
        assert "duplicate point" in err and "Traceback" not in err

    def test_missing_input_exit_code(self, tmp_path):
        assert run(
            "perturb", "percolate", "--input", str(tmp_path / "nope.json"),
            "--p", "0.5", "--seed", "0",
        ) == 2

    def test_2d_commands_import_no_scipy(self, tmp_path):
        # the grid closest pair serves gen, displace and the autocorrelation's bin width
        script = (
            "import sys; from quasidiff.cli import main\n"
            "for argv in (['gen', 'lattice', '--dim', '2', '--box=-1,-1;11,11', '--output', 'lat.json'],\n"
            "             ['perturb', 'displace', '--input', 'lat.json', '--dist', 'uniform_interval:a=0.1',\n"
            "              '--seed', '3', '--output', 'disp.json'],\n"
            "             ['diffract', 'scan', '--input', 'disp.json', '--box', '0,0;10,10', '--xi', '1,0,0.5,0.25',\n"
            "              '--estimator', 'autocorr', '--output', 'auto.csv']):\n"
            "    assert main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]"
        assert read_json(tmp_path / "disp.json")["pointset"]["meta"]["params"]["min_separation"] > 0.8


class TestDiffract:
    @pytest.mark.parametrize("xi, vanhove", [("0", "0.5,1e300,10"), ("2", "2,1.7e308,2")],
                             ids=["growth-overflows", "last-side-overflows"])
    def test_van_hove_past_the_float_range_exit_code(self, tmp_path, lattice_file, xi, vanhove):
        # growth**n overflowed into an OverflowError, and a last side of inf into a
        # box_volume of inf; with RuntimeWarnings as errors an overflow warning would
        # end in a traceback and exit 1
        script = "import sys; from quasidiff.cli import main; sys.exit(main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script, "diffract", "peak",
                               "--input", str(lattice_file), f"--xi={xi}", "--vanhove", vanhove,
                               "--output", "out.csv"], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert "overflows a float" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_scan_csv(self, tmp_path, lattice_file):
        out = tmp_path / "scan.csv"
        assert run(
            "diffract", "scan", "--input", str(lattice_file),
            "--box", "0,2000", "--xi", "0,0.5,1", "--output", str(out),
        ) == 0
        with open(out) as fh:
            sp, env = spectrum_from_csv(fh)
        assert json.loads(env["config"])["command"] == "diffract scan"
        assert env["input_hash"] != "null"
        vals = dict(zip([e.xi[0] for e in sp.entries], sp.intensity_array()))
        assert vals[0.0] == pytest.approx(1.0, abs=1e-12)
        assert vals[1.0] == pytest.approx(1.0, abs=1e-10)
        assert vals[0.5] == pytest.approx(0.0, abs=1e-12)

    def test_scan_grid_syntax(self, tmp_path, lattice_file):
        out = tmp_path / "scan.csv"
        assert run(
            "diffract", "scan", "--input", str(lattice_file),
            "--box", "0,2000", "--xi", "0:1:0.25", "--output", str(out),
        ) == 0
        with open(out) as fh:
            sp, _ = spectrum_from_csv(fh)
        assert [e.xi[0] for e in sp.entries] == [0.0, 0.25, 0.5, 0.75]

    def test_scan_threads_identical(self, tmp_path, lattice_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ("diffract", "scan", "--input", str(lattice_file),
                "--box", "0,2000", "--xi", "0:2:0.1")
        assert run(*base, "--threads", "1", "--output", str(a)) == 0
        assert run(*base, "--threads", "4", "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_peak_vanhove_history(self, tmp_path, lattice_file):
        out = tmp_path / "peak.csv"
        assert run(
            "diffract", "peak", "--input", str(lattice_file), "--xi", "1",
            "--vanhove", "200,2,4", "--output", str(out),
        ) == 0
        with open(out) as fh:
            sp, _ = spectrum_from_csv(fh)
        assert len(sp.entries) == 4
        assert np.isnan(sp.entries[0].last_gap)
        assert sp.entries[-1].converged
        vols = [e.box_volume for e in sp.entries]
        assert vols == [200.0, 400.0, 800.0, 1600.0]

    def test_peak_autocorr_matches_fourier(self, tmp_path, lattice_file):
        entries = {}
        for est in ("fourier", "autocorr"):
            out = tmp_path / f"peak-{est}.csv"
            assert run(
                "diffract", "peak", "--input", str(lattice_file), "--xi", "1.01",
                "--vanhove", "50,1.5,4", "--estimator", est, "--output", str(out),
            ) == 0
            with open(out) as fh:
                entries[est] = spectrum_from_csv(fh)[0].entries
        x = load_points(lattice_file).points[:, 0]
        center = 0.5 * (x.min() + x.max())
        assert len(entries["fourier"]) == len(entries["autocorr"]) == 4
        for f, a in zip(entries["fourier"], entries["autocorr"]):
            assert a.estimator == "autocorr"
            assert a.intensity == pytest.approx(f.intensity, abs=1e-9)
            assert a.last_gap == pytest.approx(f.last_gap, abs=1e-9, nan_ok=True)
            assert a.box_volume == f.box_volume
            lo, hi = center - a.box_volume / 2, center + a.box_volume / 2
            assert a.point_count == f.point_count == np.count_nonzero((x >= lo) & (x < hi))

    def test_peaks_refine_autocorr_matches_fourier(self, tmp_path, lattice_file):
        found = {}
        for est in ("fourier", "autocorr"):
            out = tmp_path / f"peaks-{est}.csv"
            assert run(
                "diffract", "peaks", "--input", str(lattice_file), "--box", "0,100",
                "--xi", "0.9:1.1:0.003", "--floor", "0.5", "--refine", "--estimator", est,
                "--output", str(out),
            ) == 0
            rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            found[est] = [tuple(float(v) for v in row.split(",")) for row in rows[1:]]
        assert len(found["fourier"]) == len(found["autocorr"]) == 1
        (xf, yf), (xa, ya) = found["fourier"][0], found["autocorr"][0]
        assert xf == pytest.approx(1.0, abs=1e-6)
        assert xa == pytest.approx(xf, abs=1e-6)
        assert ya == pytest.approx(yf, abs=1e-9)

    def test_peaks_refine_builds_one_autocorrelation(self, tmp_path, lattice_file, monkeypatch):
        # the scan's evaluator is reused for the refine pass
        from quasidiff import diffraction

        calls = []
        build = diffraction.autocorrelation
        monkeypatch.setattr(diffraction, "autocorrelation", lambda *a, **k: calls.append(1) or build(*a, **k))
        assert run(
            "diffract", "peaks", "--input", str(lattice_file), "--box", "0,100",
            "--xi", "0.9:1.1:0.01", "--floor", "0.5", "--refine", "--estimator", "autocorr",
            "--output", str(tmp_path / "peaks.csv"),
        ) == 0
        assert len(calls) == 1

    def test_peaks_refine_locates_bragg(self, tmp_path, lattice_file):
        out = tmp_path / "peaks.csv"
        assert run(
            "diffract", "peaks", "--input", str(lattice_file),
            "--box", "0,2000", "--xi", "0.5:1.5:0.001", "--floor", "0.5",
            "--refine", "--output", str(out),
        ) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "xi_1,intensity"
        xi, intensity = (float(v) for v in rows[1].split(","))
        assert xi == pytest.approx(1.0, abs=1e-6)
        assert intensity == pytest.approx(1.0, abs=1e-8)


class TestPredict:
    def test_model_set_table(self, tmp_path):
        out = tmp_path / "pred.csv"
        assert run(
            "predict", "model-set", "--scheme", "fibonacci",
            "--range", "0,3", "--floor", "1e-3", "--output", str(out),
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "k_1,kstar_1,intensity"
        top = lines[1].split(",")
        assert float(top[0]) == pytest.approx(0.0)
        assert float(top[2]) == pytest.approx(0.5236067977, abs=1e-9)
        second = lines[2].split(",")
        assert float(second[0]) == pytest.approx(1.894427191, abs=1e-8)
        assert float(second[2]) == pytest.approx(0.4752329909, abs=1e-9)

    def test_deformed_scheme_file(self, tmp_path, fib_scheme):
        from quasidiff import Deformation

        scheme_path = tmp_path / "scheme.json"
        scheme_path.write_text(
            json.dumps(fib_scheme.to_json(Deformation.affine([[0.1]], [0.0])))
        )
        out = tmp_path / "pred.csv"
        assert run(
            "predict", "model-set", "--scheme", str(scheme_path),
            "--range", "1.5,2", "--floor", "0.1", "--quad", "10001",
            "--output", str(out),
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = lines[1].split(",")
        assert float(row[0]) == pytest.approx(1.894427191, abs=1e-8)
        # frozen quadrature oracle for theta(y) = 0.1 y at this peak
        assert float(row[2]) == pytest.approx(0.492642877654, abs=1e-9)

    def test_perturbed_spectrum(self, tmp_path, lattice_file):
        scan = tmp_path / "scan.csv"
        assert run(
            "diffract", "scan", "--input", str(lattice_file),
            "--box", "0,2000", "--xi", "0,1", "--output", str(scan),
        ) == 0
        out = tmp_path / "pred.csv"
        assert run(
            "predict", "perturbed", "--model", "percolation:p=0.5",
            "--base-spectrum", str(scan), "--output", str(out),
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "xi_1,point_part,diffuse_level"
        for row in lines[1:]:
            xi, point_part, diffuse = (float(v) for v in row.split(","))
            assert point_part == pytest.approx(0.25, abs=1e-10)
            assert diffuse == pytest.approx(0.25, abs=1e-10)


    @pytest.mark.parametrize("model, code, rows", [
        ("displacement:uniform_interval:a=inf", 2, None),
        # |sigma_hat|^2 <= 1/(2 pi xi a)^2 rounds to 0 once the phase overflows
        ("displacement:uniform_interval:a=1e308", 0, [(0.0, 1.0, 0.0), (1.0, 0.0, 1.0)]),
        ("displacement:two_point:a=1e308", 4, None),
    ], ids=["uniform-inf", "uniform-1e308", "two-point-1e308"])
    def test_perturbed_overflowing_width(self, model, code, rows, tmp_path, lattice_file, capsys):
        scan = tmp_path / "scan.csv"
        assert run("diffract", "scan", "--input", str(lattice_file),
                   "--box", "0,2000", "--xi", "0,1", "--output", str(scan)) == 0
        out = tmp_path / "pred.csv"
        assert run("predict", "perturbed", "--model", model, "--base-spectrum", str(scan),
                   "--output", str(out)) == code
        if rows is None:
            assert "Traceback" not in capsys.readouterr().err
            return
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        got = [tuple(float(v) for v in row.split(",")) for row in lines[1:]]
        assert got == pytest.approx(rows, abs=1e-10)


class TestWW:
    def test_report_payload(self, tmp_path):
        out = tmp_path / "ww.json"
        assert run(
            "ww", "--rules", "fibonacci", "--alpha", "0", "--lengths",
            "100,1000,10000", "--output", str(out),
        ) == 0
        obj = read_json(out)
        assert set(obj) >= {"alpha", "lengths", "abs_values", "sup_deviation", "config"}
        assert obj["abs_values"][-1] == pytest.approx(1.0 / TAU, abs=1e-3)

    def test_word_file_hashed(self, tmp_path):
        word_path = tmp_path / "word.txt"
        word_path.write_text("abab" * 300)
        out = tmp_path / "ww.json"
        assert run(
            "ww", "--word-file", str(word_path), "--alpha", "0.5",
            "--lengths", "32,64", "--output", str(out),
        ) == 0
        obj = read_json(out)
        assert obj["input_hash"] == hashlib.sha256(word_path.read_bytes()).hexdigest()
        # alternating word at alpha = 1/2: the a indicator has A_n = 1/2
        assert obj["abs_values"][-1] == pytest.approx(0.5, abs=1e-12)

    def test_window_extension_past_length(self, tmp_path):
        # lengths + offsets exceed --length; the word is extended automatically
        out = tmp_path / "ww.json"
        assert run(
            "ww", "--rules", "fibonacci", "--length", "1000", "--alpha", "0.1",
            "--lengths", "500,900", "--offsets", "0,400", "--output", str(out),
        ) == 0

    def test_observable_file_extends_the_word(self, tmp_path):
        # a locality-1 file needs 2 letters past the windows, beyond --length
        from quasidiff import Observable, named_substitution, substitution_fixed_point, ww_report

        word = substitution_fixed_point(named_substitution("fibonacci"), 15)[:15]
        table = {b: [1.0, -0.5] if b[1] == "b" else 0.25 for b in ("aab", "aba", "baa", "bab")}
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"locality": 1, "table": table}))
        out = tmp_path / "ww.json"
        assert run(
            "ww", "--rules", "fibonacci", "--length", "10", "--alpha", "0.2",
            "--lengths", "5,10", "--offsets", "3,0", "--f", str(path), "--output", str(out),
        ) == 0
        f = Observable(1, {b: complex(*v) if isinstance(v, list) else v for b, v in table.items()})
        want = ww_report(word, f, 0.2, [5, 10], [3, 0]).to_json()
        assert read_json(out)["abs_values"] == want["abs_values"]


class TestCheck:
    def test_lr_fibonacci(self, tmp_path):
        out = tmp_path / "lr.json"
        assert run(
            "check", "lr", "--rules", "fibonacci", "--length", "10000",
            "--radii", "1..20", "--output", str(out),
        ) == 0
        obj = read_json(out)
        assert len(obj["constants"]) == 20
        assert obj["C_estimate"] <= 6.0

    def test_subadditive_lattice_density(self, tmp_path, lattice_file):
        out = tmp_path / "sub.json"
        assert run(
            "check", "subadditive", "--input", str(lattice_file), "--xi", "0",
            "--scales", "20,50,100", "--samples", "6", "--seed", "1",
            "--output", str(out),
        ) == 0
        obj = read_json(out)
        assert obj["limit"] == pytest.approx(1.0, rel=0.05)
        assert obj["scales"] == [20.0, 50.0, 100.0]

    def test_needs_word_source(self, capsys):
        assert run("check", "lr", "--radii", "1..4") == 2

    @pytest.mark.parametrize("argv", [
        ["check", "lr", "--radii", "1..10"],
        ["ww", "--alpha", "0.2", "--lengths", "5,10", "--offsets", "0,3"],
    ], ids=["lr", "ww"])
    def test_word_file_letter_cap(self, argv, tmp_path, monkeypatch, capsys):
        from quasidiff import cli, named_substitution, substitution_fixed_point

        monkeypatch.setattr(cli, "_LETTER_CAP", 40)
        word = substitution_fixed_point(named_substitution("fibonacci"), 41)
        path = tmp_path / "word.txt"
        for n, code in ((40, 0), (41, 3)):
            path.write_text(f"\n  {word[:n]}\n")  # the cap counts the stripped word
            assert run(*argv, "--word-file", str(path), "--output", str(tmp_path / "out.json")) == code
        err = capsys.readouterr().err
        assert "a word of 41 letters is over 40" in err and "Traceback" not in err

    def test_word_file_over_the_cap_builds_no_array(self, tmp_path, monkeypatch, capsys):
        from quasidiff import cli

        def no_call(*args, **kwargs):
            raise AssertionError("a per-letter array was built")

        monkeypatch.setattr(cli, "_LETTER_CAP", 40)
        monkeypatch.setattr(cli, "check_linear_repetitivity", no_call)
        monkeypatch.setattr(cli, "ww_report", no_call)
        path = tmp_path / "word.txt"
        path.write_text("ab" * 30)
        assert run("check", "lr", "--radii", "1..5", "--word-file", str(path)) == 3
        assert run("ww", "--alpha", "0.2", "--lengths", "5", "--word-file", str(path)) == 3
        assert "Traceback" not in capsys.readouterr().err


class TestErrors:
    @pytest.mark.parametrize("argv, code", [
        (["diffract", "scan", "--input", "fib.json", "--box", "0,60", "--xi=1e-320,1.7e308"], 4),
        (["diffract", "peak", "--input", "fib.json", "--xi", "1e17", "--vanhove", "10,2,3",
          "--estimator", "autocorr"], 4),
        (["diffract", "peaks", "--input", "fib.json", "--box", "0,60", "--xi=1e-9,-1.7e308",
          "--floor", "0.01", "--refine"], 4),
        (["check", "subadditive", "--input", "fib.json", "--xi", "1.7e308", "--scales", "2,4",
          "--samples", "2", "--domain", "0,60"], 4),
        (["ww", "--rules", "fibonacci", "--length", "1000", "--alpha=-1.7e308", "--lengths", "10,100"], 4),
        (["gen", "substitution", "--rules", "fibonacci", "--length", "10", "--lengths", "a=1.7e308,b=1"], 2),
        (["perturb", "displace", "--input", "lat.json", "--dist", "two_point:a=1.7e308", "--seed", "1"], 2),
        (["diffract", "scan", "--input", "lat.json", "--box=0,0;1e-200,1e-200", "--xi", "0,0"], 2),
        (["diffract", "scan", "--input", "lat.json", "--box=0,0;1e200,1e200", "--xi", "0,0"], 2),
        (["diffract", "scan", "--input", "fib.json", "--box=-1.7e308,1.7e308", "--xi", "0"], 2),
        (["diffract", "scan", "--input", "fib.json", "--box=-1.7e308,1.7e308", "--xi", "0",
          "--estimator", "autocorr"], 2),
        (["check", "subadditive", "--input", "fib.json", "--xi", "0", "--scales", "2,4",
          "--samples", "2", "--domain=-1.7e308,1.7e308"], 2),
    ], ids=["scan", "peak-autocorr", "peaks-refine", "subadditive", "ww", "substitution-lengths",
            "displace-2d", "box-volume-underflow", "box-volume-overflow", "box-side-overflow",
            "box-side-overflow-autocorr", "subadditive-domain"])
    def test_past_the_float_range_exit_code(self, tmp_path, argv, code):
        # a phase |xi|_1 max|x| of 2**52 or more has no fractional bits left (exit 4), and a
        # chain, a displacement, a box side or a box volume past the float range, or a box
        # volume of 0, is invalid input (exit 2); with RuntimeWarnings as errors an overflow
        # warning on the way would end in a traceback
        assert run("gen", "model-set", "--scheme", "fibonacci", "--box", "0,60", "--output",
                   str(tmp_path / "fib.json")) == 0
        assert run("gen", "lattice", "--dim", "2", "--box", "0,0;3,3", "--output", str(tmp_path / "lat.json")) == 0
        script = "import sys; from quasidiff.cli import main; sys.exit(main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script, *argv,
                               "--output", "out"], cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        prefix = "numerical diagnostic:" if code == 4 else "error:"
        assert proc.stderr.count(prefix) == 1 and proc.stderr.startswith(prefix), proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "lr", "--rules", "fibonacci", "--length", "100", "--radii", "1..x"],
            ["diffract", "scan", "--input", "{lattice}", "--box", "0,2000", "--xi", "a:b:c"],
            ["diffract", "scan", "--input", "{lattice2d}", "--box", "0,0;3,3", "--xi", "1,2,3"],
            ["predict", "perturbed", "--model", "percolation:q=0.5", "--base-spectrum", "{tmp}/base.csv"],
            ["gen", "substitution", "--rules", "fibonacci", "--length", "10", "--lengths", "a=x,b=1"],
            ["ww", "--word-file", "{tmp}/missing.txt", "--alpha", "0.1", "--lengths", "10"],
            ["gen", "substitution", "--rules", "{no_lengths}", "--length", "10"],
            ["perturb", "displace", "--input", "{lattice}", "--dist", "uniform_interval:a=x", "--seed", "1"],
            ["predict", "perturbed", "--model", "percolation:p=0.5", "--base-spectrum", "{tmp}/base.csv"],
            ["ww", "--rules", "fibonacci", "--alpha", "0.1", "--lengths", "10", "--f", "{no_lengths}"],
            ["ww", "--rules", "fibonacci", "--alpha", "0.1", "--lengths", "10", "--f", "{no_table}"],
            ["gen", "model-set", "--scheme", "fibonacci", "--box", "0,10", "--cap", "-5"],
        ],
        ids=["radii", "grid", "grid-2d", "model", "tile-lengths", "word-file",
             "substitution-json", "dist", "base-spectrum", "observable-json", "observable-table",
             "negative-cap"],
    )
    def test_bad_input_exit_code(self, argv, tmp_path, lattice_file, capsys):
        lattice2d = tmp_path / "lattice2d.json"
        assert run("gen", "lattice", "--dim", "2", "--box", "0,0;3,3", "--output", str(lattice2d)) == 0
        no_lengths = tmp_path / "rules.json"
        no_lengths.write_text(json.dumps(
            {"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "a"}, "seed": "a"}
        ))
        no_table = tmp_path / "observable.json"
        no_table.write_text(json.dumps({"locality": 1}))
        files = {"lattice": lattice_file, "lattice2d": lattice2d, "tmp": tmp_path,
                 "no_lengths": no_lengths, "no_table": no_table}
        assert run(*(a.format(**files) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["gen", "substitution", "--lengths", " a = 2, b=1"], 0, ""),
            (["gen", "substitution", "--lengths", "a=2,x"], 2,
             "error: tile lengths look like a=1.618,b=1; got 'x'"),
            (["perturb", "displace", "--dist", "two_point: a =0.25"], 0, ""),
            (["perturb", "displace", "--dist", "two_point:a"], 2,
             "error: distribution parameter 'a' must be key=value"),
            # percolation keys are not stripped
            (["predict", "perturbed", "--model", "percolation: p=0.5"], 2, "missing key 'p'"),
        ],
        ids=["lengths", "lengths-no-eq", "dist", "dist-no-eq", "percolation-space"],
    )
    def test_key_value_lists(self, argv, code, message, tmp_path, lattice_file, capsys):
        extra = {
            "gen": ["--rules", "fibonacci", "--length", "10"],
            "perturb": ["--input", str(lattice_file), "--seed", "1"],
            "predict": ["--base-spectrum", str(tmp_path / "base.csv")],
        }[argv[0]]
        assert run(*argv, *extra, "--output", str(tmp_path / "out")) == code
        assert message in capsys.readouterr().err

    def test_grid_cap_exit_code(self, lattice_file, capsys):
        assert run(
            "diffract", "scan", "--input", str(lattice_file),
            "--box", "0,2000", "--xi", "0:3:1e-12",
        ) == 3
        assert "resource limit" in capsys.readouterr().err

    def test_bin_budget_exit_code(self, tmp_path, monkeypatch, capsys):
        from quasidiff import diffraction

        path = tmp_path / "lattice.json"
        assert run("gen", "lattice", "--box", "0,30", "--output", str(path)) == 0
        # 30 points spaced 1 have 29 distinct positive differences
        monkeypatch.setattr(diffraction, "_BIN_BUDGET", 28)
        assert run(
            "diffract", "scan", "--input", str(path), "--box", "0,30",
            "--xi", "0,0.5", "--estimator", "autocorr",
        ) == 3
        assert "resource limit" in capsys.readouterr().err

    def test_memory_error_exit_code(self, lattice_file, monkeypatch, capsys):
        from quasidiff import diffraction

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 34.3 MiB")

        monkeypatch.setattr(diffraction, "autocorrelation", no_memory)
        assert run(
            "diffract", "scan", "--input", str(lattice_file), "--box", "0,2000",
            "--xi", "0,0.5", "--estimator", "autocorr",
        ) == 3
        err = capsys.readouterr().err
        assert err == "resource limit: out of memory: Unable to allocate 34.3 MiB\n"

    def test_autocorr_scan_under_an_address_space_limit(self, tmp_path):
        # a 3000-point Fibonacci patch: 4.5e6 pairs in 5990 bins, whose run of
        # rows grows from the first block's bins instead of being reserved for
        # every pair (216 MB), so 64 MiB of address space past the import holds it
        patch = tmp_path / "m3.json"
        assert run("gen", "model-set", "--scheme", "fibonacci", "--box=0,4146", "--output", str(patch)) == 0
        script = (
            "import resource, sys\n"
            "import quasidiff.cli\n"
            "kb = int(open('/proc/self/status').read().split('VmSize:')[1].split()[0])\n"
            "resource.setrlimit(resource.RLIMIT_AS, ((kb + 64 * 1024) * 1024, resource.RLIM_INFINITY))\n"
            "sys.exit(quasidiff.cli.main(sys.argv[1:]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script, "diffract", "scan", "--input", str(patch),
                               "--box", "0,4146", "--xi", "0:3:0.03", "--estimator", "autocorr",
                               "--output", str(tmp_path / "auto.csv")],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "auto.csv") as fh:
            assert len(spectrum_from_csv(fh)[0].entries) == 100

    @pytest.mark.parametrize("threads, code", [(0, 2), (-3, 2), ("cap+1", 3)])
    def test_thread_count_exit_code(self, threads, code, lattice_file, monkeypatch, capsys):
        from quasidiff import diffraction

        def no_pool(max_workers):
            raise AssertionError("pool started")

        monkeypatch.setattr(diffraction, "ThreadPoolExecutor", no_pool)
        # never below the core count, so `--threads <cores>` (C9) stays valid
        assert diffraction._THREAD_CAP == max(64, os.cpu_count() or 1)
        if threads == "cap+1":
            threads = diffraction._THREAD_CAP + 1
        assert run(
            "diffract", "scan", "--input", str(lattice_file),
            "--box", "0,2000", "--xi", "0,0.5", "--threads", str(threads),
        ) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ww", "--rules", "fibonacci", "--alpha", "nan", "--lengths", "10"], "alpha must be finite"),
            (["ww", "--rules", "fibonacci", "--alpha", "inf", "--lengths", "10"], "alpha must be finite"),
            (["ww", "--rules", "fibonacci", "--alpha=-inf", "--lengths", "10"], "alpha must be finite"),
            (["gen", "lattice", "--box", "0,10", "--spacing", "inf"], "spacing must be positive and finite"),
        ],
        ids=["alpha-nan", "alpha-inf", "alpha-minus-inf", "spacing-inf"],
    )
    def test_non_finite_exit_code(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert run(*argv, "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "pointset, message",
        [
            ({"dim": 1, "points": [[0.0], [1.0]], "weights": [1, 2]}, "'weights' must be"),
            ({"dim": 1, "points": [[0.0], [1.0]], "weights": 5}, "'weights' must be"),
            ({"dim": 1, "points": [[0.0], [1.0]], "weights": [[1, "x"], [1, 0]]}, "numeric 'points' and 'weights'"),
            ({"dim": 1, "points": [[0.0], [1.0]], "weights": [["2", "0"], [1, 0]]}, "must be numbers"),
            ({"dim": 1, "points": [["0.5"], ["1.5"]]}, "must be numbers"),
            ({"dim": 1, "points": [[True], [False]]}, "must be numbers, not bool"),
            ({"dim": 1, "points": [[0.5], [True]]}, "must be numbers, not booleans"),
            ({"dim": 1, "points": [[0.0], [1.0]], "weights": [[True, False], [False, True]]},
             "must be numbers, not bool"),
            ({"dim": 1, "points": [[0.0], [1.0]], "weights": [[True, False], [1, 0]]},
             "must be numbers, not booleans"),
            ({"dim": 1, "points": [[0.0], [1.0]], "meta": [1]}, "a 'meta' object"),
            ({"dim": 1, "points": [[0.0], [1.0]], "meta": [[1, 2]]}, "'meta' is a list"),
            ({"dim": 1, "points": [[0.0], [1.0]], "meta": ["ab"]}, "'meta' is a list"),
            (5, "point set needs 'dim'"),
            ({"dim": True, "points": [[0.0], [1.0]]}, "'dim' must be an integer, not true"),
            ({"dim": 1.9, "points": [[0.0], [1.0]]}, "'dim' must be an integer, not 1.9"),
            ({"dim": "1", "points": [[0.0], [1.0]]}, "'dim' must be an integer, not \"1\""),
        ],
        ids=["weights-flat", "weights-number", "weights-string", "weights-numeric-string",
             "points-numeric-string", "points-boolean", "points-mixed-boolean", "weights-boolean",
             "weights-mixed-boolean", "meta-list", "meta-pairs", "meta-string-list", "not-an-object",
             "dim-boolean", "dim-float", "dim-string"],
    )
    def test_malformed_pointset_exit_code(self, pointset, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(pointset))
        assert run("diffract", "scan", "--input", str(path), "--box", "0,2", "--xi", "0") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err

    def test_non_finite_output_exit_code(self, tmp_path, capsys):
        from quasidiff import cli

        path = tmp_path / "nan-meta.json"
        path.write_text(json.dumps({"dim": 1, "points": [[0.0], [1.0]], "meta": {"x": float("nan")}}))
        out = tmp_path / "out.json"
        assert run("perturb", "percolate", "--input", str(path), "--p", "0.5", "--seed", "1",
                   "--output", str(out)) == 2
        assert "error: output has a non-finite number" in capsys.readouterr().err
        assert not out.exists()
        args = argparse.Namespace(command="gen", output=str(out), spacing=float("inf"))
        with pytest.raises(ValidationError, match="output has a non-finite number"):
            cli._emit_json({}, args)
        assert not out.exists()

    @pytest.mark.parametrize("name, detail", [("missing/out.json", "No such file or directory"),
                                              ("", "Is a directory")], ids=["missing-dir", "directory"])
    def test_unwritable_output_exit_code(self, name, detail, tmp_path, capsys):
        out = tmp_path / name
        assert run("gen", "lattice", "--box", "0,10", "--output", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write output {out}: ") and detail in err
        assert "Traceback" not in err

    def test_vanhove_cube_cap_exit_code(self, lattice_file, monkeypatch, capsys):
        from quasidiff import cli

        def no_cubes(vh):
            raise AssertionError("cubes built")

        monkeypatch.setattr(cli, "cube_sequence", no_cubes)
        assert run(
            "diffract", "peak", "--input", str(lattice_file), "--xi", "0.5",
            "--vanhove", "1,1.000001,1e8",
        ) == 3
        assert "resource limit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["check", "lr", "--rules", "fibonacci", "--radii", "1..1000000000000"], "_resolve_word"),
            (["gen", "substitution", "--rules", "fibonacci", "--length", "1000000000000"],
             "substitution_fixed_point"),
            (["check", "lr", "--rules", "fibonacci", "--length", "1000000000000", "--radii", "1"],
             "substitution_fixed_point"),
            (["check", "lr", "--rules", "fibonacci", "--radii", "1000000000000"], "substitution_fixed_point"),
            (["ww", "--rules", "fibonacci", "--alpha", "0.1", "--lengths", "1000000000000"],
             "substitution_fixed_point"),
            (["predict", "model-set", "--scheme", "{deformed}", "--range", "0,3", "--floor", "0.1",
              "--quad", "100000000"], "deformed_amplitude"),
            # checked before the input is read: the file does not exist
            (["check", "subadditive", "--input", "{deformed}.missing", "--xi", "0.5", "--scales", "1,10",
              "--samples", "100000000"], "subadditive_limit"),
        ],
        ids=["radii-range", "gen-length", "lr-length", "lr-radius", "ww-lengths", "quad",
             "subadditive-samples"],
    )
    def test_allocation_cap_exit_code(self, argv, blocked, deformed_scheme, monkeypatch, capsys):
        from quasidiff import cli

        def no_call(*args, **kwargs):
            raise AssertionError(f"{blocked} called")

        monkeypatch.setattr(cli, blocked, no_call)
        assert run(*(a.replace("{deformed}", str(deformed_scheme)) for a in argv)) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "cap, argv",
        [
            ("_RADII_CAP", ["check", "lr", "--rules", "fibonacci", "--length", "100", "--radii", "1..{n}"]),
            ("_LETTER_CAP", ["gen", "substitution", "--rules", "fibonacci", "--length", "{n}"]),
            ("_QUAD_CAP", ["predict", "model-set", "--scheme", "{deformed}", "--range", "1.5,2",
                           "--floor", "0.1", "--quad", "{n}"]),
            ("_SAMPLE_CAP", ["check", "subadditive", "--input", "{lattice}", "--xi", "0.5", "--scales", "1",
                             "--samples", "{n}"]),
        ],
        ids=["radii", "letters", "quad", "samples"],
    )
    def test_allocation_cap_boundary(self, cap, argv, tmp_path, deformed_scheme, lattice_file, monkeypatch,
                                     capsys):
        from quasidiff import cli

        # the benchmark's and the docs' sizes stay within the caps
        assert cli._RADII_CAP >= 100 and cli._LETTER_CAP >= 2 * 10**5 and cli._QUAD_CAP >= 10001
        assert cli._SAMPLE_CAP >= 10 * 3
        monkeypatch.setattr(cli, cap, 40)
        for n, code in ((40, 0), (41, 3)):
            args = [a.replace("{n}", str(n)).replace("{deformed}", str(deformed_scheme))
                    .replace("{lattice}", str(lattice_file)) for a in argv]
            assert run(*args, "--output", str(tmp_path / "out")) == code
        assert "Traceback" not in capsys.readouterr().err


# a small valid command per subcommand (None marks a flag); --output is left
# out, since it would write files
_COMMANDS = {
    ("gen", "lattice"): {"--box": "0,10", "--dim": "1", "--spacing": "1"},
    ("gen", "model-set"): {"--scheme": "fibonacci", "--box": "0,10", "--cap": "1000"},
    ("gen", "substitution"): {"--rules": "fibonacci", "--length": "10", "--lengths": "a=1.6,b=1",
                              "--origin": "0"},
    ("perturb", "percolate"): {"--input": "{points}", "--p": "0.5", "--seed": "1"},
    ("perturb", "displace"): {"--input": "{points}", "--dist": "uniform_interval:a=0.1", "--seed": "1"},
    ("diffract", "scan"): {"--input": "{points}", "--box": "0,10", "--xi": "0:1:0.25",
                           "--estimator": "autocorr", "--threads": "2"},
    ("diffract", "peak"): {"--input": "{points}", "--xi": "0.5", "--vanhove": "2,1.5,3",
                           "--center": "5", "--estimator": "fourier"},
    ("diffract", "peaks"): {"--input": "{points}", "--box": "0,10", "--xi": "0:1:0.25",
                            "--floor": "0.01", "--refine": None, "--estimator": "fourier"},
    ("predict", "model-set"): {"--scheme": "fibonacci", "--range": "0,3", "--floor": "0.01",
                               "--quad": "11"},
    ("predict", "perturbed"): {"--model": "percolation:p=0.5", "--base-spectrum": "{spectrum}",
                               "--n0": "1"},
    ("ww",): {"--rules": "fibonacci", "--length": "50", "--alpha": "0.5", "--lengths": "5,10",
              "--offsets": "0,1", "--f": "indicator:a"},
    ("check", "lr"): {"--rules": "fibonacci", "--length": "200", "--radii": "1..3"},
    ("check", "subadditive"): {"--input": "{points}", "--xi": "0.5", "--scales": "2,3",
                               "--samples": "2", "--seed": "1", "--domain": "0,10"},
}
# malformed or small replacement values, so that no draw does much work
_VALUES = [
    "0", "1", "3", "-1", "2.5", "1e400", "nan", "inf", "x", "", ",", ";", "=", "0,10", "2,8",
    "0,0;3,3", "--box=-2,8", "0:1:0.25", "a:b:c", "1..3", "1..x", "3..1", "0.5;0.5", "1,1.5,2",
    "2,1.5,inf", "fibonacci", "silver", "indicator:z", "fourier", "percolation:q",
    "percolation:p=0.5,seed=1.5", "displacement:uniform_interval:a=0.1", "two_point:a", "a=x",
    "{points}", "{missing}", "{garbage}", "{spectrum}",
]


@st.composite
def _malformed_argv(draw):
    """A valid command with options dropped, repeated or given garbage values."""
    path = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = list(path[: draw(st.integers(1, len(path)))])
    options = _COMMANDS[path]
    for opt, val in options.items():
        action = draw(st.sampled_from(["keep", "keep", "drop", "garbage"]))
        if action == "drop":
            continue
        argv.append(opt)
        if action == "garbage":
            argv.append(draw(st.sampled_from(_VALUES)))
        elif val is not None:
            argv.append(val)
    argv += draw(st.lists(st.sampled_from(list(options) + _VALUES), max_size=2))
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    files = {"points": tmp / "points.json", "missing": tmp / "missing.json",
             "garbage": tmp / "garbage.json", "spectrum": tmp / "spectrum.csv"}
    assert run("gen", "lattice", "--box", "0,10", "--output", str(files["points"])) == 0
    files["garbage"].write_text("{not json")
    assert run("diffract", "scan", "--input", str(files["points"]), "--box", "0,10",
               "--xi", "0,0.5", "--output", str(files["spectrum"])) == 0
    return files


class TestContract:
    @given(argv=_malformed_argv())
    @settings(max_examples=100, deadline=None)
    def test_malformed_argv_exit_codes(self, cli_files, argv):
        argv = [a.format(**cli_files) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
        assert "Traceback" not in err.getvalue()


def _weighted_patch():
    """40 points in 2D with complex weights, from exact arithmetic only."""
    k = np.arange(40.0)
    pts = np.stack([(k * 0.6180339887498949) % 1.0 * 6.0 - 3.0, (k * 0.4142135623730951) % 1.0], axis=1)
    w = (k * 0.37) % 1.0 - 0.5 + 1j * ((k * 0.73) % 1.0)
    meta = {"generator": "test", "params": {"note": 'line\nbreak "q" é "points": ['}, "seed": 7}
    return WeightedPointSet(2, pts, w, meta)


# (output, argv): run in one directory, so that relative paths enter the config
_PINNED_COMMANDS = [
    ("model-set.json", ("gen", "model-set", "--scheme", "fibonacci", "--box", "0,300")),
    ("lattice2d.json", ("gen", "lattice", "--dim", "2", "--box", "0,0;3,2", "--spacing", "0.3")),
    ("word.json", ("gen", "substitution", "--rules", "fibonacci", "--length", "40")),
    ("empty.json", ("gen", "lattice", "--box", "0.2,0.7")),
    ("lattice1d.json", ("gen", "lattice", "--box", "0,200")),
    ("percolated.json", ("perturb", "percolate", "--input", "weighted.json", "--p", "0.6", "--seed", "4")),
    ("subadditive.json", ("check", "subadditive", "--input", "lattice1d.json", "--xi", "0",
                          "--scales", "5,10", "--samples", "3", "--seed", "1")),
    # CSV outputs at xi = 0: every phase is 0, so no libm result enters their bytes
    *((f"scan-{est}.csv", ("diffract", "scan", "--input", "lattice1d.json", "--box", "0,200", "--xi", "0",
                           "--estimator", est)) for est in ("fourier", "autocorr")),
    *((f"peak-{est}.csv", ("diffract", "peak", "--input", "lattice1d.json", "--xi", "0",
                           "--vanhove", "10,2,3", "--estimator", est)) for est in ("fourier", "autocorr")),
    ("peaks.csv", ("diffract", "peaks", "--input", "lattice1d.json", "--box", "0,200", "--xi", "0",
                   "--floor", "0.5")),
    ("predict.csv", ("predict", "perturbed", "--model", "percolation:p=0.5",
                     "--base-spectrum", "scan-fourier.csv")),
]
# sha256 of the outputs built from exact arithmetic, and of WeightedPointSet.dump
# of _weighted_patch(), taken with version 0.1.0 before point sets were written
# without json.dumps' indented encoder. The model set is left out: its points
# come from a matmul, whose rounding may differ with the BLAS and the CPU. The
# CSV digests were taken before spectrum rows and tables shared one CSV writer.
_PINNED_SHA256 = {
    "weighted.json": "d1d58aae42734263308c17dbe1f5b13661dc1c6a6beebf7e74a036c90f9565d3",
    "lattice2d.json": "ade289a3aa5d83ad75e11d2bbeb62012ee309da0b01be26075724695a6dfd7e7",
    "word.json": "f0fe37999b1a908a8e9bf3ef0ea64566e94c167638e213f23590a8ab428bef08",
    "empty.json": "97112002aa5d72f8c7a9987aa6859fde75bfce7595b0fb05534c0257822b0579",
    "lattice1d.json": "0f9d0e3fff52d3948579092de8d7227500eb8148580f89bdb1472dcf0a0f0009",
    "percolated.json": "1cab776b82ad4ca112fa15fb44d2aa16512442fccc1aaab97ad99d4976dc621a",
    "subadditive.json": "2b8543c18a1dd31af1ca7706e10d880ac18dea9266c55c57f62d28f4f6dfcebf",
    "scan-fourier.csv": "9b4e3c86af05db6ffea2cf3b11d6f3bb2ee9129de6e648afe9c8bd696fda2e1f",
    "scan-autocorr.csv": "448b447e32a31e32bb245f9f3e39bda83abb94ce55dc5beaef86c06040aedec2",
    "peak-fourier.csv": "61a78846b6eb7014a10cb91b838a5beb8bb068bf5f8cd64811e391728fc1a028",
    "peak-autocorr.csv": "0334665252ad8cbc4f3fc151db81e4bc32f572867ec87816859c5d0fac99878e",
    "peaks.csv": "ec71b1f6d8ed5a7dee514b57e7db4524298f6461a1cf1657f5d7b4b8b2d8de48",
    "predict.csv": "6b2a53ac68f78cf8bcf69d59512dec99dab3774522d276cfd843a83dc028f24c",
}


class TestPinnedBytes:
    @pytest.fixture
    def outputs(self, tmp_path, monkeypatch):
        from quasidiff import cli

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "__version__", "0.1.0")
        with open("weighted.json", "w") as fh:
            _weighted_patch().dump(fh)
        for name, argv in _PINNED_COMMANDS:
            assert run(*argv, "--output", name) == 0, argv
        names = ["weighted.json"] + [name for name, _ in _PINNED_COMMANDS]
        return {name: (tmp_path / name).read_bytes() for name in names}

    def test_outputs_keep_their_bytes(self, outputs):
        digests = {name: hashlib.sha256(outputs[name]).hexdigest() for name in _PINNED_SHA256}
        assert digests == _PINNED_SHA256

    def test_outputs_are_json_dumps_layout(self, outputs):
        for name, data in outputs.items():
            if not name.endswith(".json"):
                continue
            text = data.decode()
            end = "" if name == "weighted.json" else "\n"  # dump writes no final newline; the CLI does
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1, allow_nan=False) + end, name


# calls that exit early: a usage error, a validation error, a resource cap, --version and
# a subcommand's --help
_EARLY_EXITS = [
    ("diffract", "scan", "--input", "lattice1d.json", "--box", "0,10", "--xi", "0", "--estimator", "fft"),
    ("gen", "lattice", "--box", "0,x"),
    ("gen", "model-set", "--scheme", "fibonacci", "--box", "0,100000", "--cap", "10"),
    ("--version",),
    ("perturb", "displace", "--help"),
]


class TestSharedParser:
    def test_calls_read_as_with_a_fresh_parser(self, tmp_path, monkeypatch):
        # main builds its parser once per process: every call must give what it gives
        # right after the parser is rebuilt, and no call may build another one
        from quasidiff import cli

        monkeypatch.chdir(tmp_path)
        with open("weighted.json", "w") as fh:
            _weighted_patch().dump(fh)
        pinned = [(*argv, "--output", name) for name, argv in _PINNED_COMMANDS]

        def call(argv):
            output = tmp_path / argv[-1] if "--output" in argv else None
            if output:  # no call reads its own output
                output.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(list(argv))
            return code, out.getvalue(), err.getvalue(), output and output.read_bytes()

        fresh = {}
        for argv in pinned + _EARLY_EXITS:  # lattice1d.json is written before subadditive reads it
            cli._build_parser.cache_clear()
            fresh[argv] = call(argv)
        assert [fresh[argv][0] for argv in _EARLY_EXITS] == [2, 2, 3, 0, 0]
        assert all(fresh[argv][0] == 0 for argv in pinned)
        sequence = []
        for i, argv in enumerate(pinned + pinned[::-1]):
            sequence += [argv, _EARLY_EXITS[i % len(_EARLY_EXITS)]]
        cli._build_parser.cache_clear()
        for argv in sequence:
            assert call(argv) == fresh[argv], argv
        assert cli._build_parser.cache_info().misses == 1


def _loads(path, n=2):
    """n reads of the point-set file at path through the CLI loader, each as
    _pointset_outcome reports it, with the digest of a read that succeeded."""
    from quasidiff.cli import _load_pointset

    def outcome():
        try:
            wps, digest = _load_pointset(str(path))
        except ValidationError as exc:
            return "error", str(exc)
        return ("ok", wps.dim, wps.points.view(np.int64).tolist(), wps.weights.view(np.int64).tolist(),
                repr(wps.meta), digest)

    return [outcome() for _ in range(n)]


class TestParsedPointSets:
    @pytest.fixture(autouse=True)
    def parsed(self, monkeypatch):
        from quasidiff import cli

        held = cli._ParsedPointSets(cli._HELD_COORDS)
        monkeypatch.setattr(cli, "_PARSED", held)
        return held

    @pytest.mark.parametrize("data", _PINNED_FILES)
    def test_a_hit_reads_as_a_parse(self, data, tmp_path, parsed, monkeypatch):
        from quasidiff import cli

        path = tmp_path / "p.json"
        path.write_bytes(data)
        first = _loads(path, 1)[0]
        if first[0] == "error" or not len(first[2]):
            assert not parsed.entries  # errors and empty sets are parsed at every read
            assert _loads(path, 1)[0] == first
            return
        digest = hashlib.sha256(data).hexdigest()
        assert first[-1] == digest and list(parsed.entries) == [digest]

        def no_parse(*args):
            raise AssertionError("a held point set was parsed again")

        monkeypatch.setattr(cli, "_json_record", no_parse)
        assert _loads(path, 1)[0] == first

    def test_weights_held_only_when_not_all_one(self, tmp_path, parsed):
        for name, w in (("unit.json", None), ("weighted.json", [1.0, 0.5j])):
            with open(tmp_path / name, "w") as fh:
                WeightedPointSet(1, [[0.0], [1.0]], w).dump(fh)
            a, b = _loads(tmp_path / name)
            assert a == b
        assert [entry[2] is None for entry in parsed.entries.values()] == [True, False]

    def test_editing_a_returned_meta_does_not_reach_the_next_load(self, tmp_path):
        from quasidiff.cli import _load_pointset

        path = tmp_path / "w.json"
        with open(path, "w") as fh:
            _weighted_patch().dump(fh)
        wps, _ = _load_pointset(str(path))
        wps.meta["params"]["note"] = "edited"
        wps.meta["seed"] = 8
        again, _ = _load_pointset(str(path))
        assert again.meta == _weighted_patch().meta
        again.meta["params"]["note"] = "edited twice"
        assert _load_pointset(str(path))[0].meta == _weighted_patch().meta

    def test_a_rewritten_path_gives_the_new_set_and_hash(self, tmp_path, parsed):
        path, out = tmp_path / "lat.json", tmp_path / "scan.csv"
        counts = []
        for box in ("0,50", "0,30", "0,50"):
            assert run("gen", "lattice", "--box", box, "--output", str(path)) == 0
            assert run("diffract", "scan", "--input", str(path), "--box", "0,50", "--xi", "0",
                       "--output", str(out)) == 0
            sp, env = spectrum_from_csv(out.open())
            assert env["input_hash"] == hashlib.sha256(path.read_bytes()).hexdigest()
            counts.append(sp.entries[0].point_count)
        assert counts == [50, 30, 50]
        assert len(parsed.entries) == 2

    def test_a_malformed_file_fails_the_same_way_and_is_not_held(self, tmp_path, parsed, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"dim": 1, "points": [[1.0], [1.0]]}')
        first, second = _loads(path)
        assert first == second and first[0] == "error" and "duplicate point" in first[1]
        assert not parsed.entries and parsed.coords == 0
        args = ("diffract", "scan", "--input", str(path), "--box", "0,2", "--xi", "0")
        assert run(*args) == run(*args) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: duplicate point at [1.0]"] * 2

    def test_held_coordinates_never_exceed_the_budget(self, tmp_path, monkeypatch):
        from quasidiff import cli

        held = cli._ParsedPointSets(100)
        monkeypatch.setattr(cli, "_PARSED", held)
        sizes = {}
        for i, (dim, side) in enumerate([(1, 40), (2, 5), (1, 30), (2, 7), (1, 101), (1, 100), (1, 40)]):
            path = tmp_path / f"p{i}.json"
            box = f"0,{side}" if dim == 1 else f"0,0;{side},{side}"
            assert run("gen", "lattice", "--dim", str(dim), "--box", box, "--output", str(path)) == 0
            wps, digest = cli._load_pointset(str(path))
            sizes[digest] = wps.points.size
            assert held.coords == sum(sizes[d] for d in held.entries) <= held.budget
            # the set just read is held unless it alone is over the budget
            assert (digest in held.entries) == (wps.points.size <= held.budget)
            assert list(held.entries)[-1:] == [digest] or wps.points.size > held.budget
        # the 101-point set was never held; the 100-point one evicted every other
        assert [sizes[d] for d in held.entries] == [40]

    def test_a_scan_opens_its_input_once(self, tmp_path, lattice_file, monkeypatch):
        import builtins

        opened = []
        real = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(os.path.realpath(file))
            return real(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        for _ in range(2):  # the second scan finds the point set held, and still reads the file
            opened.clear()
            assert run("diffract", "scan", "--input", str(lattice_file), "--box", "0,2000", "--xi", "0,0.5",
                       "--output", str(tmp_path / "scan.csv")) == 0
            assert opened.count(os.path.realpath(lattice_file)) == 1
