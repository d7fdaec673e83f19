"""The three workloads: their seeded inputs, operations and output checks.

A workload is a plan drawn from the seed, a list of set-up operations that
make the input files, a list of analysis operations (one round), and checks.
Operations run `quasidiff.cli.main` with an `--output` file, except the
Sturmian word, which comes from the library's `substitution_fixed_point`.
Each check judges one operation's output against `oracles` (never against
quasidiff itself) and carries a corruption that it must reject, used by
`run.py --self-test`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as o
from oracles import CheckError, require


@dataclass(frozen=True)
class Op:
    name: str
    span: str  # cli command the per-layer trace files the call under
    output: str  # file written in the work directory
    argv: tuple = ()  # arguments of quasidiff.cli.main, without --output
    make: Callable | None = None  # make(quasidiff, output) for non-CLI set-up


@dataclass(frozen=True)
class Check:
    name: str
    op: str  # the operation whose output is judged
    fn: Callable  # fn(plan, outputs) raises CheckError
    corrupt: Callable  # corrupt(plan, outputs) -> outputs with the judged text damaged


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable  # plan(seed, small) -> dict
    setup: Callable  # setup(plan) -> [Op]
    rounds: Callable  # rounds(plan) -> [Op]
    checks: tuple
    setup_repeats: int = 1  # set-ups in a row, so that a cheap set-up is timed often


def _f(x: float) -> str:
    return repr(float(x))


def _rel_tol(i0: float) -> float:
    # estimators agree to ~1e-11 absolute; scale by I(0), not by the value
    return 1e-8 * i0


# ---------------------------------------------------------------- corruptions


def _edit_csv(out: dict, op: str, row: int, col: str, fn) -> dict:
    lines = out[op].split("\n")
    head = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
    cols = lines[head].split(",")
    cells = lines[head + 1 + row].split(",")
    j = cols.index(col)
    cells[j] = repr(fn(float(cells[j])))
    lines[head + 1 + row] = ",".join(cells)
    return {**out, op: "\n".join(lines)}


def _drop_csv_row(out: dict, op: str, row: int) -> dict:
    lines = out[op].split("\n")
    head = next(i for i, ln in enumerate(lines) if ln and not ln.startswith("#"))
    del lines[head + 1 + row]
    return {**out, op: "\n".join(lines)}


def _edit_json(out: dict, op: str, fn) -> dict:
    obj = json.loads(out[op])
    fn(obj)
    return {**out, op: json.dumps(obj)}


def _row_index(text: str, xi) -> int:
    xi = tuple(np.atleast_1d(xi).astype(float))
    rows = o.read_csv(text)
    return min(range(len(rows)), key=lambda i: np.abs(np.subtract(o.csv_xi(rows[i]), xi)).max())


# ---------------------------------------------------------------- shared checks


def _check_fib_patch(out_name: str, box_key: str):
    def fn(plan, out):
        lo, hi = plan[box_key]
        got = o.read_points(out[out_name])[:, 0]
        want = o.fibonacci_points(lo, hi)
        require(len(got) == len(want), f"{len(got)} points, enumeration of m + n tau gives {len(want)}")
        err = float(np.abs(got - want).max()) if len(want) else 0.0
        require(err <= 1e-9 * (1.0 + abs(hi)), f"points differ from m + n tau by {err:.3g}")

    def corrupt(plan, out):
        return _edit_json(out, out_name, lambda obj: obj["pointset"]["points"].pop())

    return fn, corrupt


def _check_lattice(out_name: str, pad: int):
    """Integer points of [-pad, lat + pad)^2, lat from the plan."""

    def fn(plan, out):
        pts = o.read_points(out[out_name])
        lo, hi = -pad, plan["lat"] + pad
        side = hi - lo
        require(pts.shape == (side * side, 2), f"lattice has shape {pts.shape}, want ({side * side}, 2)")
        require(bool(np.all(pts == np.round(pts))) and pts.min() >= lo and pts.max() < hi,
                "lattice points are not the integer points of the box")
        require(len({tuple(p) for p in pts}) == side * side, "lattice points repeat")

    def corrupt(plan, out):
        return _edit_json(out, out_name, lambda obj: obj["pointset"]["points"].__setitem__(0, [0.5, 0.0]))

    return fn, corrupt


def _check_direct(out_name: str, points_op: str, box_key: str, xi_key: str | None = None):
    """Scan rows (all, or the plan's sampled rows) against a masked numpy sum."""

    def fn(plan, out):
        pts = o.read_points(out[points_op])
        lo, hi = plan[box_key]
        rows = o.read_csv(out[out_name])
        want_xi = np.asarray(plan[xi_key or out_name + "_xi"], dtype=float).reshape(-1, pts.shape[1])
        require(len(rows) == len(want_xi), f"{len(rows)} rows, expected {len(want_xi)}, one per frequency")
        got_xi = np.array([o.csv_xi(r) for r in rows])
        order = np.lexsort(want_xi.T[::-1])
        require(bool(np.all(np.abs(got_xi - want_xi[order]) <= 1e-15 * (1 + np.abs(want_xi[order])))),
                "row frequencies differ from the requested grid")
        sample = plan.get(out_name + "_rows", range(len(rows)))
        got = np.array([float(rows[i]["intensity"]) for i in sample])
        want = o.direct_intensity(pts, lo, hi, got_xi[list(sample)])
        i0 = o.intensity_at_zero(pts, lo, hi)
        err = np.abs(got - want)
        worst = int(np.argmax(err))
        require(float(err[worst]) <= _rel_tol(i0),
                f"intensity at xi={got_xi[list(sample)[worst]].tolist()} is {got[worst]!r}, "
                f"direct sum gives {want[worst]!r} (tolerance {_rel_tol(i0):.2g} = 1e-8 I(0))")
        n_in = int(o.in_box(pts, lo, hi).sum())
        require(all(int(r["point_count"]) == n_in for r in rows), f"point_count differs from {n_in}")

    def corrupt(plan, out):
        first = list(plan.get(out_name + "_rows", [0]))[0]
        pts = o.read_points(out[points_op])
        i0 = o.intensity_at_zero(pts, *plan[box_key])
        return _edit_csv(out, out_name, first, "intensity", lambda v: v + 1e-4 * i0)

    return fn, corrupt


# ---------------------------------------------------------------- model-set

# l4, l5: lengths of the ~1e4- and ~1e5-point patches (density tau/sqrt5);
# the autocorrelation uses the first l3 of the 1e4 patch (~3e3 points)
_MS_FULL = dict(l3=4146.0, l4=13820.0, l5=138197.0, scan_step=0.01, scan_checked=20, n_peaks=4,
                auto_step=0.03, lat=40, scales="100,1000,10000")
_MS_SMALL = dict(l3=1382.0, l4=2764.0, l5=13820.0, scan_step=0.03, scan_checked=10, n_peaks=2,
                 auto_step=0.3, lat=10, scales="100,1000,3000")
_PEAK_GRID = 0.55  # refine grid step in units of 1/L, finer than the peak width
_PEAK_FLOOR = 0.05


def _ms_plan(seed: int, small: bool) -> dict:
    s = dict(_MS_SMALL if small else _MS_FULL)
    rng = np.random.default_rng(seed)
    x0 = round(float(rng.uniform(0.0, 1000.0)), 6)
    n_scan = round(3.0 / s["scan_step"])
    bright = sorted((p for p in o.fibonacci_peaks(0.3, 3.0, 0.1)), key=lambda p: -p[2])[: s["n_peaks"]]
    u = float(rng.uniform())
    step = _PEAK_GRID / s["l4"]
    peak_xi = sorted(k + (j - 7 + u) * step for k, _, _ in bright for j in range(15))
    vh = bright[int(rng.integers(len(bright)))]
    lat = s["lat"]
    frac = np.round(rng.uniform(0.05, 0.95, size=(3, 2)) + rng.integers(0, 2, size=(3, 2)), 6)
    return dict(
        s,
        seed=seed,
        box3=(x0, x0 + s["l3"]),
        box4=(x0, x0 + s["l4"]),
        box5=(x0, x0 + s["l5"]),
        scan_t1_xi=[i * s["scan_step"] for i in range(n_scan)],
        scan_t1_rows=sorted(int(i) for i in rng.choice(n_scan, s["scan_checked"], replace=False)),
        peak_xi=peak_xi,
        vh_peak=vh,
        auto1d_xi=[i * s["auto_step"] for i in range(round(3.0 / s["auto_step"]))],
        auto2d_int=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)],
        auto2d_xi=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)] + [tuple(v) for v in frac],
        latbox=((0.0, 0.0), (float(lat), float(lat))),
    )


def _box1(b) -> str:
    return f"{_f(b[0])},{_f(b[1])}"


def _ms_setup(p: dict) -> list[Op]:
    lat = p["lat"]
    return [
        Op("gen_m4", "cli.gen", "m4.json", ("gen", "model-set", "--scheme", "fibonacci", "--box", _box1(p["box4"]))),
        Op("gen_m5", "cli.gen", "m5.json", ("gen", "model-set", "--scheme", "fibonacci", "--box", _box1(p["box5"]))),
        Op("gen_lat", "cli.gen", "lat.json", ("gen", "lattice", "--dim", "2", "--box", f"0,0;{lat},{lat}")),
    ]


def _ms_rounds(p: dict) -> list[Op]:
    k, _, _ = p["vh_peak"]
    lat = p["lat"]
    scan = ("diffract", "scan", "--input", "m4.json", "--box", _box1(p["box4"]),
            "--xi", f"0:3:{_f(p['scan_step'])}", "--estimator", "fourier")
    return [
        Op("scan_t1", "cli.diffract_scan", "scan_t1.csv", scan + ("--threads", "1")),
        Op("scan_t2", "cli.diffract_scan_threads2", "scan_t2.csv", scan + ("--threads", "2")),
        Op("peaks", "cli.diffract_peaks", "peaks.csv",
           ("diffract", "peaks", "--input", "m4.json", "--box", _box1(p["box4"]),
            "--xi", ",".join(_f(x) for x in p["peak_xi"]), "--floor", _f(_PEAK_FLOOR), "--refine")),
        Op("vanhove", "cli.diffract_peak", "vanhove.csv",
           ("diffract", "peak", "--input", "m5.json", "--xi", _f(k),
            "--vanhove", f"{_f(p['l5'] / 16)},2,4")),
        Op("subadditive", "cli.check_subadditive", "subadditive.json",
           ("check", "subadditive", "--input", "m5.json", "--xi", _f(k),
            "--scales", p["scales"], "--samples", "10", "--seed", str(p["seed"]))),
        Op("predict", "cli.predict", "predict.csv",
           ("predict", "model-set", "--scheme", "fibonacci", "--range", "0,3", "--floor", "1e-3")),
        Op("auto1d", "cli.diffract_scan", "auto1d.csv",
           ("diffract", "scan", "--input", "m4.json", "--box", _box1(p["box3"]),
            "--xi", f"0:3:{_f(p['auto_step'])}", "--estimator", "autocorr")),
        Op("auto2d", "cli.diffract_scan", "auto2d.csv",
           ("diffract", "scan", "--input", "lat.json", "--box", f"0,0;{lat},{lat}",
            "--xi", ",".join(_f(v) for xy in p["auto2d_xi"] for v in xy), "--estimator", "autocorr")),
    ]


def _ms_i0(plan, out):
    pts = o.read_points(out["gen_m4"])
    lo, hi = plan["box4"]
    row = o.read_csv(out["scan_t1"])[0]
    want = o.intensity_at_zero(pts, lo, hi)
    require(o.csv_xi(row) == (0.0,), "first scan row is not xi = 0")
    got = float(row["intensity"])
    require(abs(got - want) <= 1e-12 * want, f"I(0) = {got!r}, (N/vol)^2 = {want!r}")


def _ms_threads(plan, out):
    require(out["scan_t2"] == out["scan_t1"], "--threads 2 output differs from --threads 1")


def _ms_peaks(plan, out):
    length = plan["box4"][1] - plan["box4"][0]
    step = _PEAK_GRID / length
    xs = np.array(plan["peak_xi"])
    found = [(float(r["xi_1"]), float(r["intensity"])) for r in o.read_csv(out["peaks"])]
    lo, hi = xs.min(), xs.max()
    expected = []  # (k, A, predicted grid maximum)
    for k, _, A in o.fibonacci_peaks(lo - 1e-3, hi + 1e-3, 1e-4):
        grid = xs[np.abs(xs - k) < 10 * step]
        pred = float(o.grid_peak_value(A, k, grid, length).max()) if len(grid) else 0.0
        if pred > 0.9 * _PEAK_FLOOR:
            expected.append((k, A, pred))
    for k, A, pred in expected:
        match = [f for f in found if abs(f[0] - k) <= 1e-6]
        if pred >= 1.1 * _PEAK_FLOOR:
            require(bool(match), f"closed-form peak k={k!r} (A={A:.4g}) not found")
        for xi, inten in match:
            require(abs(inten - A) <= 0.02 * A, f"peak at {xi!r}: intensity {inten!r}, A_k = {A!r}")
    for xi, inten in found:
        require(any(abs(xi - k) <= 1e-6 for k, _, _ in expected),
                f"peak at xi={xi!r} (I={inten:.4g}) matches no closed-form peak above the floor")


def _ms_vanhove(plan, out):
    k, _, A = plan["vh_peak"]
    rows = o.read_csv(out["vanhove"])
    require(len(rows) == 4, f"{len(rows)} van Hove rows, want 4")
    got = float(rows[-1]["intensity"])
    require(abs(got - A) <= 0.02 * A, f"van Hove value {got!r} at k={k!r}, A_k = {A!r}")


def _ms_subadditive(plan, out):
    k, _, A = plan["vh_peak"]
    lim = float(json.loads(out["subadditive"])["limit"])
    require(abs(lim * lim - A) <= 0.02 * A, f"subadditive limit^2 = {lim * lim!r}, A_k = {A!r}")


def _ms_predict(plan, out):
    floor = 1e-3
    want = o.fibonacci_peaks(0.0, 3.0, floor * (1 - 1e-9))
    sure = [p for p in want if p[2] >= floor * (1 + 1e-9)]
    rows = o.read_csv(out["predict"])
    got = [(float(r["k_1"]), float(r["kstar_1"]), float(r["intensity"])) for r in rows]
    require(len(sure) <= len(got) <= len(want), f"{len(got)} predicted peaks, closed form has {len(sure)}")
    for k, ks, A in got:
        ref = [p for p in want if abs(p[0] - k) <= 1e-9]
        require(len(ref) == 1, f"predicted peak k={k!r} is not a dual-lattice peak above the floor")
        require(abs(ref[0][1] - ks) <= 1e-9 and abs(ref[0][2] - A) <= 1e-9 * ref[0][2],
                f"peak k={k!r}: (k*, A) = ({ks!r}, {A!r}), closed form {ref[0][1:]!r}")


def _ms_auto2d(plan, out):
    rows = o.read_csv(out["auto2d"])
    for xi in plan["auto2d_int"]:
        row = rows[_row_index(out["auto2d"], xi)]
        got = float(row["intensity"])
        require(o.csv_xi(row) == xi and abs(got - 1.0) <= 1e-9,
                f"lattice intensity at integer xi={xi} is {got!r}, want 1")


MODEL_SET = Workload(
    "model-set",
    _ms_plan,
    _ms_setup,
    _ms_rounds,
    (
        Check("m4 points = m + n tau enumeration", "gen_m4", *_check_fib_patch("gen_m4", "box4")),
        Check("m5 points = m + n tau enumeration", "gen_m5", *_check_fib_patch("gen_m5", "box5")),
        Check("2D lattice points", "gen_lat", *_check_lattice("gen_lat", 0)),
        Check("scan rows = direct sum", "scan_t1", *_check_direct("scan_t1", "gen_m4", "box4")),
        Check("scan I(0) = (N/vol)^2", "scan_t1", _ms_i0,
              lambda p, out: _edit_csv(out, "scan_t1", 0, "intensity", lambda v: v * 1.001)),
        Check("threads 2 bytes = threads 1 bytes", "scan_t2", _ms_threads,
              lambda p, out: _edit_csv(out, "scan_t2", 1, "intensity", lambda v: v * (1 + 1e-12))),
        Check("refined peaks = closed form", "peaks", _ms_peaks,
              lambda p, out: _drop_csv_row(out, "peaks", 0)),
        Check("van Hove value within 2% of A_k", "vanhove", _ms_vanhove,
              lambda p, out: _edit_csv(out, "vanhove", 3, "intensity", lambda v: v * 1.05)),
        Check("subadditive limit^2 within 2% of A_k", "subadditive", _ms_subadditive,
              lambda p, out: _edit_json(out, "subadditive", lambda d: d.__setitem__("limit", d["limit"] * 1.03))),
        Check("predict model-set = dual-lattice closed form", "predict", _ms_predict,
              lambda p, out: _edit_csv(out, "predict", 1, "intensity", lambda v: v * (1 + 1e-6))),
        Check("autocorr 1D rows = direct sum", "auto1d", *_check_direct("auto1d", "gen_m4", "box3")),
        Check("autocorr 2D rows = direct sum", "auto2d", *_check_direct("auto2d", "gen_lat", "latbox")),
        Check("autocorr 2D lattice = 1 at integer xi", "auto2d", _ms_auto2d,
              lambda p, out: _edit_csv(out, "auto2d", _row_index(out["auto2d"], (1.0, 1.0)), "intensity",
                                       lambda v: v + 1e-6)),
    ),
    setup_repeats=2,
)


# ---------------------------------------------------------------- displaced

_DISP_A = 0.1
_DISP_FULL = dict(l1=830.0, lat=20)  # ~600 and 400 points: 1.8e5 and 8e4 bins
_DISP_SMALL = dict(l1=280.0, lat=10)


def _disp_plan(seed: int, small: bool) -> dict:
    s = dict(_DISP_SMALL if small else _DISP_FULL)
    rng = np.random.default_rng(seed)
    x0 = round(float(rng.uniform(0.0, 1000.0)), 6)
    peaks = sorted(o.fibonacci_peaks(0.3, 3.0, 0.1), key=lambda p: -p[2])[:4]
    known = [p[0] for p in o.fibonacci_peaks(0.0, 3.1, 1e-3)]
    off = []
    while len(off) < 4:
        x = round(float(rng.uniform(0.05, 3.0)), 6)
        if min(abs(x - k) for k in known) > 0.02:
            off.append(x)
    lat = s["lat"]
    frac = []
    while len(frac) < 4:
        v = np.round(rng.uniform(0.1, 2.4, size=2), 6)
        if np.all(np.abs(v - np.round(v)) > 0.05):
            frac.append(tuple(float(x) for x in v))
    return dict(
        s,
        seed=seed,
        a=_DISP_A,
        gen1=(x0 - 2.0, x0 + s["l1"] + 2.0),
        box1=(x0, x0 + s["l1"]),
        box2=((0.0, 0.0), (float(lat), float(lat))),
        peaks1=[(k,) for k, _, _ in peaks],
        xi1=sorted([k for k, _, _ in peaks] + off),
        peaks2=[(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0)],
        xi2=[(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 0.0)] + frac,
    )


def _disp_setup(p: dict) -> list[Op]:
    lat = p["lat"]
    dist = f"uniform_interval:a={_f(p['a'])}"
    return [
        Op("gen1", "cli.gen", "base1.json", ("gen", "model-set", "--scheme", "fibonacci", f"--box={_box1(p['gen1'])}")),
        Op("gen2", "cli.gen", "base2.json", ("gen", "lattice", "--dim", "2", f"--box=-1,-1;{lat + 1},{lat + 1}")),
        Op("disp1", "cli.perturb", "disp1.json",
           ("perturb", "displace", "--input", "base1.json", "--dist", dist, "--seed", str(p["seed"]))),
        Op("disp2", "cli.perturb", "disp2.json",
           ("perturb", "displace", "--input", "base2.json", "--dist", dist, "--seed", str(p["seed"]))),
    ]


def _disp_rounds(p: dict) -> list[Op]:
    lat = p["lat"]
    box2 = f"0,0;{lat},{lat}"
    xi1 = ",".join(_f(x) for x in p["xi1"])
    xi2 = ",".join(_f(v) for xy in p["xi2"] for v in xy)
    model = f"displacement:uniform_interval:a={_f(p['a'])}"
    return [
        Op("scan_base1", "cli.diffract_scan", "scan_base1.csv",
           ("diffract", "scan", "--input", "base1.json", "--box", _box1(p["box1"]), "--xi", xi1)),
        Op("scan_base2", "cli.diffract_scan", "scan_base2.csv",
           ("diffract", "scan", "--input", "base2.json", "--box", box2, "--xi", xi2)),
        Op("auto1", "cli.diffract_scan", "auto1.csv",
           ("diffract", "scan", "--input", "disp1.json", "--box", _box1(p["box1"]), "--xi", xi1,
            "--estimator", "autocorr")),
        Op("auto2", "cli.diffract_scan", "auto2.csv",
           ("diffract", "scan", "--input", "disp2.json", "--box", box2, "--xi", xi2, "--estimator", "autocorr")),
        Op("pred1", "cli.predict", "pred1.csv",
           ("predict", "perturbed", "--model", model, "--base-spectrum", "scan_base1.csv")),
        Op("pred2", "cli.predict", "pred2.csv",
           ("predict", "perturbed", "--model", model, "--base-spectrum", "scan_base2.csv")),
    ]


def _check_displaced(disp: str, base: str):
    def fn(plan, out):
        a = plan["a"]
        x = o.read_points(out[base])
        y = o.read_points(out[disp])
        require(x.shape == y.shape, f"displacement changed the point count {len(x)} -> {len(y)}")
        if x.shape[1] == 1:
            dev = np.abs(np.sort(y[:, 0]) - np.sort(x[:, 0]))
        else:
            sites = np.round(y)
            require({tuple(s) for s in sites} == {tuple(s) for s in x}, "displaced points left their sites")
            dev = np.abs(y - sites)
        require(float(dev.max()) <= a * (1 + 1e-12), f"a point moved by {dev.max():.4g} > a = {a}")

    def corrupt(plan, out):
        return _edit_json(out, disp, lambda obj: obj["pointset"]["points"][0].__setitem__(
            0, obj["pointset"]["points"][0][0] + 0.3))

    return fn, corrupt


def _pred_rows(plan, out, pred: str, base: str, box_key: str, xi_key: str):
    """(xi, own point part, own diffuse level, reported pp, reported dl) per row."""
    lo, hi = plan[box_key]
    pts = o.read_points(out[base])
    xis = np.asarray(plan[xi_key], dtype=float).reshape(-1, pts.shape[1])
    ibase = o.direct_intensity(pts, lo, hi, xis)
    n0 = int(o.in_box(pts, lo, hi).sum()) / o.box_volume(lo, hi)
    rows = o.read_csv(out[pred])
    require(len(rows) == len(xis), f"{len(rows)} predicted rows, want {len(xis)}")
    res = []
    for row in rows:
        xi = np.array(o.csv_xi(row))
        i = int(np.argmin(np.abs(xis - xi).max(axis=1)))
        s2 = o.uniform_char_sq(xi, plan["a"])
        res.append((tuple(xi), s2 * ibase[i], n0 * (1 - s2), float(row["point_part"]), float(row["diffuse_level"])))
    return res, o.intensity_at_zero(pts, lo, hi)


def _check_predicted(pred: str, base: str, box_key: str, xi_key: str):
    def fn(plan, out):
        rows, i0 = _pred_rows(plan, out, pred, base, box_key, xi_key)
        for xi, pp, dl, got_pp, got_dl in rows:
            require(abs(got_pp - pp) <= _rel_tol(i0), f"point_part at {xi} is {got_pp!r}, |sigma|^2 I_base = {pp!r}")
            require(abs(got_dl - dl) <= 1e-12 * dl + 1e-15, f"diffuse_level at {xi} is {got_dl!r}, want {dl!r}")

    def corrupt(plan, out):
        return _edit_csv(out, pred, 0, "point_part", lambda v: v * 1.01 + 1e-6)

    return fn, corrupt


def _check_law(auto: str, pred: str, base: str, box_key: str, xi_key: str, peak_key: str):
    """Displaced peak intensity = |sigma_hat|^2 I_base within 5 standard deviations.

    The box average deviates by a complex term of variance diffuse_level/vol,
    so I - |sigma|^2 I_base has standard deviation sqrt(2 pp dl/vol + (dl/vol)^2).
    """

    def fn(plan, out):
        rows, _ = _pred_rows(plan, out, pred, base, box_key, xi_key)
        vol = o.box_volume(*plan[box_key])
        auto_rows = o.read_csv(out[auto])
        for k in plan[peak_key]:
            xi, pp, _, _, dl = min(rows, key=lambda r: np.abs(np.subtract(r[0], k)).max())
            got = float(auto_rows[_row_index(out[auto], k)]["intensity"])
            sd = math.sqrt(2 * pp * dl / vol + (dl / vol) ** 2)
            require(abs(got - pp) <= 5 * sd,
                    f"displaced intensity at {xi} is {got!r}, |sigma|^2 I_base = {pp!r}, 5 sd = {5 * sd:.3g}")

    def corrupt(plan, out):
        k = plan[peak_key][0]
        return _edit_csv(out, auto, _row_index(out[auto], k), "intensity", lambda v: v * 1.5)

    return fn, corrupt


DISPLACED = Workload(
    "displaced",
    _disp_plan,
    _disp_setup,
    _disp_rounds,
    (
        Check("base 1D points = m + n tau enumeration", "gen1", *_check_fib_patch("gen1", "gen1")),
        Check("base 2D lattice points", "gen2", *_check_lattice("gen2", 1)),
        Check("1D displacement keeps count, |move| <= a", "disp1", *_check_displaced("disp1", "gen1")),
        Check("2D displacement keeps sites, |move| <= a", "disp2", *_check_displaced("disp2", "gen2")),
        Check("base 1D scan = direct sum", "scan_base1", *_check_direct("scan_base1", "gen1", "box1", "xi1")),
        Check("base 2D scan = direct sum", "scan_base2", *_check_direct("scan_base2", "gen2", "box2", "xi2")),
        Check("autocorr 1D rows = masked direct sum", "auto1", *_check_direct("auto1", "disp1", "box1", "xi1")),
        Check("autocorr 2D rows = masked direct sum", "auto2", *_check_direct("auto2", "disp2", "box2", "xi2")),
        Check("predict perturbed 1D = |sigma|^2 I_base, n0(1-|sigma|^2)", "pred1",
              *_check_predicted("pred1", "gen1", "box1", "xi1")),
        Check("predict perturbed 2D = |sigma|^2 I_base, n0(1-|sigma|^2)", "pred2",
              *_check_predicted("pred2", "gen2", "box2", "xi2")),
        Check("1D peaks obey the displacement law (5 sd)", "auto1",
              *_check_law("auto1", "pred1", "gen1", "box1", "xi1", "peaks1")),
        Check("2D peaks obey the displacement law (5 sd)", "auto2",
              *_check_law("auto2", "pred2", "gen2", "box2", "xi2", "peaks2")),
    ),
    setup_repeats=8,
)


# ---------------------------------------------------------------- sturmian

_ST_FULL = dict(letters=200_000, max_shift=100_000, lengths=(100, 1000, 10_000, 100_000), n_offsets=36)
_ST_SMALL = dict(letters=50_000, max_shift=10_000, lengths=(100, 1000, 10_000), n_offsets=12)
_LR_RADII = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 100)  # brute-forced subset of 1..100
_ALPHA = math.sqrt(2.0) - 1.0  # not an eigenvalue of the Fibonacci shift
_DECAY = 60.0  # n |A_n(alpha)| stays below 20 over 2000 offsets; eigenvalues give ~0.2 n


def _st_plan(seed: int, small: bool) -> dict:
    s = dict(_ST_SMALL if small else _ST_FULL)
    rng = np.random.default_rng(seed)
    room = s["letters"] - s["lengths"][-1]
    return dict(
        s,
        seed=seed,
        shift=int(rng.integers(0, s["max_shift"])),
        offsets=[int(v) for v in rng.choice(room, s["n_offsets"], replace=False)],
    )


def _make_word(shift: int, letters: int):
    def make(qd, output):
        s = qd.named_substitution("fibonacci")
        word = qd.substitution_fixed_point(s, shift + letters)[shift : shift + letters]
        with open(output, "w") as fh:
            fh.write(word)

    return make


def _st_setup(p: dict) -> list[Op]:
    return [Op("word", "setup.word", "word.txt", make=_make_word(p["shift"], p["letters"]))]


def _st_rounds(p: dict) -> list[Op]:
    ww = ("ww", "--word-file", "word.txt", "--lengths", ",".join(map(str, p["lengths"])),
          "--offsets", ",".join(map(str, p["offsets"])))
    return [
        Op("lr", "cli.check_lr", "lr.json", ("check", "lr", "--word-file", "word.txt", "--radii", "1..100")),
        Op("ww0", "cli.ww", "ww0.json", ww + ("--alpha", "0")),
        Op("wwa", "cli.ww", "wwa.json", ww + ("--alpha", _f(_ALPHA))),
    ]


def _st_word(plan, out):
    want = o.rotation_word(plan["shift"], plan["letters"])
    got = out["word"]
    require(len(got) == len(want), f"word has {len(got)} letters, want {len(want)}")
    if got != want:
        i = next(i for i, (x, y) in enumerate(zip(got, want)) if x != y)
        raise CheckError(f"letter {plan['shift'] + i} is {got[i]!r}, rotation coding gives {want[i]!r}")


def _st_lr(plan, out):
    obj = json.loads(out["lr"])
    consts = obj["constants"]
    require(obj["radii"] == list(range(1, 101)) and len(consts) == 100, "lr report does not cover radii 1..100")
    require(obj["C_estimate"] == max(consts), "C_estimate is not the largest constant")
    for r in _LR_RADII:
        want = o.lr_constant(out["word"], r)
        require(consts[r - 1] == want, f"constant at radius {r} is {consts[r - 1]!r}, dictionary scan gives {want!r}")


def _st_ww0(plan, out):
    obj = json.loads(out["ww0"])
    lengths = list(plan["lengths"])
    require(obj["lengths"] == lengths, "ww lengths differ from the request")
    for n, v in zip(lengths, obj["abs_values"]):
        require(abs(v - 1 / o.TAU) < 1.0 / n, f"|A_{n}(0) - 1/tau| = {abs(v - 1 / o.TAU):.3g} >= 1/n")
    require(obj["sup_deviation"] < 2.0 / lengths[-1], f"offset spread {obj['sup_deviation']:.3g} >= 2/n")


def _st_wwa(plan, out):
    obj = json.loads(out["wwa"])
    for n, v in zip(plan["lengths"], obj["abs_values"]):
        require(v <= _DECAY / n, f"|A_{n}(alpha)| = {v:.3g} > {_DECAY}/n: no decay at a non-eigenvalue")


def _flip_letter(plan, out):
    w = out["word"]
    i = len(w) // 2
    return {**out, "word": w[:i] + ("b" if w[i] == "a" else "a") + w[i + 1 :]}


STURMIAN = Workload(
    "sturmian",
    _st_plan,
    _st_setup,
    _st_rounds,
    (
        Check("word = rotation coding", "word", _st_word, _flip_letter),
        Check("lr constants = dictionary scan", "lr", _st_lr,
              lambda p, out: _edit_json(out, "lr", lambda d: d["constants"].__setitem__(88, d["constants"][88] + 1 / 89))),
        Check("|A_n(0) - 1/tau| < 1/n", "ww0", _st_ww0,
              lambda p, out: _edit_json(out, "ww0", lambda d: d["abs_values"].__setitem__(-1, d["abs_values"][-1] + 2 / p["lengths"][-1]))),
        Check("|A_n(alpha)| decays", "wwa", _st_wwa,
              lambda p, out: _edit_json(out, "wwa", lambda d: d["abs_values"].__setitem__(-1, 0.3))),
    ),
    setup_repeats=6,
)

WORKLOADS = {w.name: w for w in (MODEL_SET, DISPLACED, STURMIAN)}
