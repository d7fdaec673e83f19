"""Reference computations made without quasidiff.

Every value the benchmark checks the program against comes from here: plain
numpy sums, brute-force enumerations and closed forms written out for the
Fibonacci scheme M = [[1, tau], [1, 1 - tau]] with window [-1, tau - 1).
Nothing here imports quasidiff, so a fault in the program cannot hide in its
own reference.
"""

from __future__ import annotations

import json
import math

import numpy as np

TAU = (1.0 + math.sqrt(5.0)) / 2.0
SQRT5 = math.sqrt(5.0)
WINDOW = (-1.0, TAU - 1.0)  # half-open internal window of the fibonacci preset


class CheckError(Exception):
    """An output disagrees with its reference."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------- readers


def read_csv(text: str) -> list[dict]:
    """Rows of a quasidiff CSV as dicts of strings; `#` lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(len(lines) >= 1, "CSV has no header row")
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def csv_xi(row: dict) -> tuple:
    return tuple(float(row[f"xi_{j}"]) for j in range(1, 10) if f"xi_{j}" in row)


def read_points(text: str) -> np.ndarray:
    obj = json.loads(text)
    obj = obj.get("pointset", obj)
    return np.asarray(obj["points"], dtype=float).reshape(-1, int(obj["dim"]))


# ---------------------------------------------------------------- geometry


def in_box(points: np.ndarray, lo, hi) -> np.ndarray:
    """Rows inside the half-open box [lo, hi), the convention quasidiff uses."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.all((points >= lo) & (points < hi), axis=1)


def box_volume(lo, hi) -> float:
    return float(np.prod(np.asarray(hi, dtype=float) - np.asarray(lo, dtype=float)))


def direct_intensity(points: np.ndarray, lo, hi, xis) -> np.ndarray:
    """|(1/vol) sum_{x in [lo,hi)} exp(-2 pi i xi.x)|^2 for each row of xis."""
    pts = points[in_box(points, lo, hi)]
    xis = np.asarray(xis, dtype=float).reshape(-1, points.shape[1])
    vol = box_volume(lo, hi)
    out = np.empty(len(xis))
    chunk = max(1, 2_000_000 // max(len(pts), 1))
    for i in range(0, len(xis), chunk):
        ph = np.exp(-2j * np.pi * (pts @ xis[i : i + chunk].T))
        out[i : i + chunk] = np.abs(ph.sum(axis=0) / vol) ** 2
    return out


def intensity_at_zero(points: np.ndarray, lo, hi) -> float:
    """I(0) = (sum |w| / vol)^2 with unit weights: the scale of every intensity."""
    return (int(in_box(points, lo, hi).sum()) / box_volume(lo, hi)) ** 2


# ---------------------------------------------------------------- fibonacci model set


def fibonacci_points(lo: float, hi: float) -> np.ndarray:
    """Sorted points m + n tau in [lo, hi) whose star m + n (1 - tau) is in the window.

    Uses x - x* = n sqrt5: for each n the admissible m form one integer
    interval, the intersection of the physical and the internal constraint.
    """
    n = np.arange(math.floor((lo - WINDOW[1]) / SQRT5) - 1, math.ceil((hi - WINDOW[0]) / SQRT5) + 2)
    m_lo = np.ceil(np.maximum(lo - n * TAU, WINDOW[0] - n * (1.0 - TAU)))
    m_hi = np.ceil(np.minimum(hi - n * TAU, WINDOW[1] - n * (1.0 - TAU)))  # exclusive
    counts = np.maximum(m_hi - m_lo, 0).astype(np.int64)
    nn = np.repeat(n, counts)
    start = np.repeat(m_lo, counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    x = (start + offset) + nn * TAU
    return np.sort(x)


def fibonacci_peaks(k_lo: float, k_hi: float, floor: float) -> list[tuple[float, float, float]]:
    """Closed-form Bragg peaks (k, k_star, A_k) with k in [k_lo, k_hi), A_k >= floor.

    Dual vectors are (k, k*) = ((p2 + p1/tau), (tau p1 - p2)) / sqrt5 for integer
    p; A_k = |window_ft(k*) / covol|^2 = (sin(pi tau k*) / (pi sqrt5 k*))^2.
    Brute force over a box of p large enough for the floor.
    """
    kstar_max = 1.0 / (math.pi * SQRT5 * math.sqrt(floor))
    bound = math.ceil(3.0 * (max(abs(k_lo), abs(k_hi)) + kstar_max)) + 5
    p1 = p2 = np.arange(-bound, bound + 1)
    P1, P2 = np.meshgrid(p1, p2, indexing="ij")
    k = (P2 + P1 / TAU) / SQRT5
    ks = (TAU * P1 - P2) / SQRT5
    with np.errstate(invalid="ignore", divide="ignore"):
        amp = np.where(ks == 0, TAU, np.sin(np.pi * TAU * ks) / (np.pi * ks)) / SQRT5
    A = amp**2
    keep = (k >= k_lo) & (k < k_hi) & (A >= floor)
    rows = sorted(zip(k[keep], ks[keep], A[keep]))
    return [(float(a), float(b), float(c)) for a, b, c in rows]


def grid_peak_value(A: float, k: float, xs, length: float) -> np.ndarray:
    """Finite-box intensity A_k sinc^2((xi - k) L) of one peak on a grid."""
    return A * np.sinc((np.asarray(xs) - k) * length) ** 2


def uniform_char_sq(xi, a: float) -> float:
    """|sigma_hat(xi)|^2 for per-axis uniform displacement on [-a, a]."""
    return float(np.prod(np.sinc(2.0 * np.asarray(xi, dtype=float) * a))) ** 2


# ---------------------------------------------------------------- words


def rotation_word(start: int, length: int) -> str:
    """Fibonacci word letters start..start+length-1 as the rotation coding
    floor((n+2)/tau) - floor((n+1)/tau) (1 -> 'a', 0 -> 'b')."""
    n = np.arange(start, start + length, dtype=float)
    bit = np.floor((n + 2) / TAU) - np.floor((n + 1) / TAU)
    return "".join(np.where(bit == 1, "a", "b"))


def lr_constant(word: str, r: int) -> float:
    """Largest recurrence gap of length-r factors over r, by a dictionary scan.

    Gaps are between consecutive starts of one factor, plus the censored ends:
    the first start of each factor and the distance from its last start to
    len(word) - r.
    """
    last: dict = {}
    best = 0
    for i in range(len(word) - r + 1):
        key = word[i : i + r]
        prev = last.get(key)
        best = max(best, i if prev is None else i - prev)
        last[key] = i
    best = max(best, max(len(word) - r - i for i in last.values()))
    return best / r
