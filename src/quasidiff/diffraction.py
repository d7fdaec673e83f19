"""Fourier averages, finite-volume autocorrelation, and spectrum scans.

Two independent Bragg-intensity estimators:

* fourier route: I(xi) = |c^xi_B|^2 with c^xi_B the volume-normalized Fourier
  average of the weighted patch over a box B;
* autocorrelation route: bin the difference vectors of the patch, then average
  exp(-2 pi i xi.z) against the binned coefficients.

With an unbounded radius and the identity configuration the two agree to
floating-point accuracy, which is the primary cross-check wired into the test
suite. Frequencies follow the character (xi, x) = exp(2 pi i xi.x).
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericalDiagnosticError, ResourceLimitError, ValidationError
from .geometry import Box, _vector
from .pointset import WeightedPointSet, _min_separation_raw

# autocorrelation refuses patches with more ordered pair candidates: n * n
# unbounded, n + 2 * pairs within a radius in 2D or more
_PAIR_BUDGET = 5 * 10**8
# hard ceiling on distinct difference bins (memory guard)
_BIN_BUDGET = 10**7
# pairs in one batch unless one offset has more: 2-4 MiB of buffers, near a 2 MiB L2
_PAIR_BLOCK = 2**15
# most worker threads scan_spectrum will start: 64, or the core count if higher
_THREAD_CAP = max(64, os.cpu_count() or 1)
# _exact_sum's bucket sums stay exact for fewer terms than this
_EXACT_SUM_TERMS = 2**26
# binary exponents (np.frexp) _exact_sum buckets: below, a piece could go
# subnormal; above, a sum of 2**26 terms could overflow
_EXP_LO, _EXP_HI = -968, 960


def _exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of a 1D float array, with the bits of math.fsum(x).

    Each term is m 2**e (np.frexp, 0.5 <= |m| < 1), and t = m 2**27 splits
    exactly into the integer H = trunc(t), below 2**27, and F = t - H, a
    multiple of 2**-26 below 1. np.bincount adds H and F per exponent e. With
    fewer than 2**26 terms every partial sum is an integer below 2**53 (H) or
    a multiple of 2**-26 below 2**26 (F), so no addition rounds. The pieces
    H_e 2**(e - 27) and F_e 2**(e - 27) are exact doubles summing to the exact
    sum of x, which math.fsum rounds correctly. A correctly rounded sum has
    one value, so it is math.fsum(x) bit for bit; a zero sum is +0.0 in both.
    Empty, long (_EXACT_SUM_TERMS), non-finite, and very small or very large
    input (exponents outside _EXP_LO.._EXP_HI) goes to math.fsum(x) itself,
    with its result or its OverflowError or ValueError.
    """
    if len(x) == 0 or len(x) >= _EXACT_SUM_TERMS:
        return math.fsum(x)
    m, e = np.frexp(x)
    lo, hi = int(e.min()), int(e.max())
    if lo < _EXP_LO or hi > _EXP_HI:
        return math.fsum(x)
    e -= lo
    m *= 2.0**27
    h = np.trunc(m)
    high = np.bincount(e, h)
    if not np.isfinite(high).all():  # inf or nan terms (frexp gives them e = 0)
        return math.fsum(x)
    low = np.bincount(e, np.subtract(m, h, out=m))
    scale = np.arange(lo - 27, hi - 26)
    return math.fsum(np.ldexp(high, scale).tolist() + np.ldexp(low, scale).tolist())


@dataclass(frozen=True)
class FourierAverage:
    """c^xi_B = (1/vol B) sum over patch points in B of w_x exp(-2 pi i xi.x)."""

    xi: np.ndarray
    value: complex
    box_volume: float
    point_count: int


def fourier_average(wps: WeightedPointSet, box: Box, xi) -> FourierAverage:
    """Volume-normalized Fourier sum of the patch restricted to the box.

    The real and imaginary parts of the phase terms are each summed exactly
    and rounded once (_exact_sum), so the value does not depend on the
    order of the points or on the thread that computes it, is reproducible
    bit for bit, and satisfies |value| <= (sum |w| in box)/vol.
    """
    if box.dim != wps.dim:
        raise ValidationError(f"box dimension {box.dim} != point set dimension {wps.dim}")
    xi = _vector(xi, dim=wps.dim, name="xi")
    mask = box.contains(wps.points)
    value = _phase_sum(wps.points[mask], wps.weights[mask], xi) / box.volume
    return FourierAverage(xi, value, box.volume, int(mask.sum()))


def _phase_terms(x: np.ndarray, c: np.ndarray, xi: np.ndarray, imag: bool) -> tuple:
    """(Re, Im or None) of the terms c exp(-2 pi i xi.x) over the rows x, from the real phase:
    numpy's float64 cos and sin are the parts of its complex exp, so only the signs of zeros
    differ from c times that exp, and no exact sum sees them. Real c takes sin only for Im."""
    ph = -2 * np.pi * (x @ xi)
    if not c.imag.any():
        return c.real * np.cos(ph), c.real * np.sin(ph) if imag else None
    z = c * (np.cos(ph) + 1j * np.sin(ph))
    return z.real, z.imag if imag else None


def _phase_sum(pts: np.ndarray, w: np.ndarray, xi: np.ndarray) -> complex:
    """Exact sum of w_x exp(-2 pi i xi.x) over the rows x of pts, each part rounded once."""
    return complex(*map(_exact_sum, _phase_terms(pts, w, xi, imag=True)))


def _evaluator(wps: WeightedPointSet, boxes: list, estimator: str):
    """(point counts, per_scale) of the chosen estimator over a box sequence.

    The patch is restricted to each box once: its points and weights for
    fourier, one unbounded autocorrelation patch for autocorr. per_scale(xi)
    returns the intensity in each box, |c^xi_B|^2 or its autocorrelation
    transform, for a validated frequency vector xi.
    """
    for b in boxes:
        if b.dim != wps.dim:
            raise ValidationError(f"box dimension {b.dim} != point set dimension {wps.dim}")
    if estimator == "autocorr":
        patches = [autocorrelation(wps, b) for b in boxes]
        return ([p.point_count for p in patches],
                lambda xi: [intensity_from_autocorr(p, xi) for p in patches])
    masks = [b.contains(wps.points) for b in boxes]
    parts = [(wps.points[m], wps.weights[m], b.volume) for m, b in zip(masks, boxes)]
    return ([int(m.sum()) for m in masks],
            lambda xi: [abs(_phase_sum(pts, w, xi) / vol) ** 2 for pts, w, vol in parts])


def _convergence(intensities) -> tuple[float, bool, float]:
    """(last_gap, converged, tol) of per-scale intensities I_1..I_n.

    Converged when last_gap = |I_n - I_{n-1}| is below tol = 1e-3 * max(I_n, 1e-6);
    a single scale has last_gap nan and never converges.
    """
    tol = 1e-3 * max(intensities[-1], 1e-6)
    if len(intensities) < 2:
        return float("nan"), False, tol
    gap = abs(intensities[-1] - intensities[-2])
    return gap, bool(gap < tol), tol


def intensity_sequence(wps: WeightedPointSet, boxes, xi) -> tuple[list[float], dict]:
    """|c^xi_B|^2 along a van Hove or Fisher box sequence, with convergence info.

    Every box must sit inside the patch bounding box (padded by one minimum
    separation per side, the resolution below which coverage is moot);
    otherwise the average would silently see truncated geometry.

    Returns (intensities, diagnostics) where diagnostics carries the per-scale
    values, last_gap = |I_n - I_{n-1}|, the tolerance, and a converged flag
    (last_gap < 1e-3 * max(I_n, 1e-6)).
    """
    boxes = list(boxes)
    if not boxes:
        raise ValidationError("need at least one averaging box")
    if len(wps) == 0:
        raise ValidationError("cannot average an empty point set")
    _, per_scale = _evaluator(wps, boxes, "fourier")
    lo, hi = wps.bounding_box
    pad = _min_separation_raw(wps.points) if len(wps) > 1 else 0.0
    for b in boxes:
        if np.any(b.lo < lo - pad) or np.any(b.hi > hi + pad):
            raise ValidationError(
                f"averaging box {b.lo.tolist()}..{b.hi.tolist()} exceeds the patch "
                "bounding box; generate a larger patch first"
            )
    intensities = per_scale(_vector(xi, dim=wps.dim, name="xi"))
    last_gap, converged, tol = _convergence(intensities)
    diagnostics = {
        "intensities": list(intensities),
        "last_gap": last_gap,
        "tol": tol,
        "converged": converged,
    }
    return intensities, diagnostics


@dataclass(frozen=True)
class AutocorrelationPatch:
    """Binned finite-volume autocorrelation of a patch.

    Only the diagonal and one bin of each +-q pair are stored. _half holds
    the bins of the pairs i > j in order of first appearance: their quantized
    difference vectors (int64 multiples of bin_epsilon), volume-normalized
    coefficients, one raw (unrounded) difference each, and the per-axis spread
    of raw differences that fell into the bin; _diagonal is the coefficient
    at 0. Hermitian symmetry is structural: the mirror of each bin sits at -q
    with the exact conjugate coefficient. The public keys, coeffs, reps and
    spreads lay out the diagonal, every bin and its mirror, lexicographically
    sorted by key; they are built from the half on first read and cached.
    len(patch) counts the full layout and builds nothing.
    """

    _half: tuple
    _diagonal: float
    bin_epsilon: float
    normalizing_volume: float
    max_radius: float | None
    source_box: Box
    point_count: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        keys, coeffs, reps, spreads = half = (
            np.asarray(self._half[0], dtype=np.int64),
            np.asarray(self._half[1], dtype=complex),
            np.asarray(self._half[2], dtype=float),
            np.asarray(self._half[3], dtype=float),
        )
        if coeffs.shape != (len(keys),) or reps.shape != keys.shape or spreads.shape != keys.shape:
            raise ValidationError("inconsistent autocorrelation bin arrays")
        for a in half:
            a.setflags(write=False)
        object.__setattr__(self, "_half", half)

    def __len__(self) -> int:
        return 2 * len(self._half[0]) + 1

    @property
    def dim(self) -> int:
        return self._half[0].shape[1]

    @cached_property
    def _full(self) -> tuple:
        """(keys, coeffs, reps, spreads) of the diagonal, every bin and its mirror, sorted by key."""
        keys, coeffs, reps, spreads = self._half
        origin = np.zeros((1, self.dim))

        def layout(diag, pos, neg):  # diagonal, then bin, mirror, ...: the order coinciding keys keep
            return np.concatenate([diag, np.stack([pos, neg], axis=1).reshape(-1, *pos.shape[1:])])

        full = layout(origin.astype(np.int64), keys, -keys)
        order, _ = _lexorder(full.T)
        arrays = (full[order], layout([self._diagonal], coeffs, np.conj(coeffs))[order],
                  layout(origin, reps, -reps)[order], layout(origin, spreads, spreads)[order])
        for a in arrays:
            a.setflags(write=False)
        return arrays

    keys = property(lambda self: self._full[0], doc="Quantized difference vectors, sorted.")
    coeffs = property(lambda self: self._full[1], doc="Volume-normalized coefficient of each key.")
    reps = property(lambda self: self._full[2], doc="One raw difference vector per key.")
    spreads = property(lambda self: self._full[3], doc="Per-axis spread of the raw differences per key.")

    @property
    def bins(self) -> dict:
        """Mapping {quantized difference tuple: coefficient}."""
        return dict(zip(map(tuple, self.keys.tolist()), self.coeffs.tolist()))

    def max_bin_spread(self) -> float:
        """Largest per-axis spread of raw differences sharing a bin.

        Rounding to the nearest bin keeps this below bin_epsilon by
        construction; values approaching bin_epsilon mean distinct difference
        classes are being merged and the quantization is too coarse.
        """
        return float(self._half[3].max(initial=0.0))


def _lexorder(cols) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts) of integer key columns of equal length, most significant
    first: order is np.lexsort(cols[::-1]), the stable lexicographic order of
    the rows, and starts the positions in it where a run of equal rows begins.

    Each column is taken as an offset from its minimum, and the rows are
    sorted by digits of these offsets, least significant first (Knuth, TAOCP
    vol. 3, 5.2.5). A digit packs as many whole columns as fit into the high
    64 - p bits of a uint64, p = bits(n - 1); a wider column is split into
    digits of 64 - p bits. A pass writes digit << p | j for the row at
    position j of the current order into one word buffer. The words are
    distinct, so numpy's unstable vectorized sort of them is the stable sort
    by digit, and their low p bits give the next order. After a single pass
    the runs are read from the sorted words; after more, from the gathered
    columns.
    """
    n = len(cols[0])
    if n == 0:
        return np.zeros(0, np.intp), np.zeros(0, np.intp)
    p = (n - 1).bit_length()
    room = 64 - p
    # digits, least significant first; a digit lists its pieces, least
    # significant first, as (column, minimum, low bit, bits): whole columns,
    # or alone one slice of a column wider than room
    digits, digit, used = [], [], 0
    for col in reversed(cols):
        lo = int(col.min())
        width = (int(col.max()) - lo).bit_length()
        if digit and used + width > room:
            digits.append(digit)
            digit, used = [], 0
        if width > room:
            digits += [[(col, lo, s, room)] for s in range(0, width, room)]
        elif width:
            digit.append((col, lo, 0, width))
            used += width
    if digit or not digits:
        digits.append(digit)
    shift, low = np.uint64(p), np.uint64((1 << p) - 1)
    w = np.zeros(n, np.uint64)  # stays 0 when every column is constant
    order = np.arange(n, dtype=np.intp)  # the positions of the first pass, then the order
    for t, digit in enumerate(digits):
        for k, (col, lo, skip, bits) in enumerate(reversed(digit)):  # most significant first
            if k:
                w <<= np.uint64(bits)
                np.add(w, col[order] if t else col, out=w, dtype=np.uint64, casting="unsafe")
            else:
                _load(w, col, order if t else None)
            w -= np.uint64(lo % 2**64)  # the offset from the minimum, modulo 2**64
            if skip:
                w >>= np.uint64(skip)
        w <<= shift  # drops the bits above the digit of a slice
        pos = np.arange(n, dtype=np.intp) if t else order
        w |= pos.view(np.uint64)
        w.sort()
        if t:
            np.take(order, np.bitwise_and(w, low, out=w).view(np.intp), out=pos, mode="clip")
            order = pos
        else:
            np.bitwise_and(w, low, out=order.view(np.uint64))
    new = np.empty(n, dtype=bool)
    new[0] = True
    if len(digits) == 1:  # each sorted word holds its key above its position
        w >>= shift
        np.not_equal(w[1:], w[:-1], out=new[1:])
    else:
        new[1:] = False
        for col in cols:
            _load(w, col, order)
            new[1:] |= w[1:] != w[:-1]
    return order, np.flatnonzero(new)


def _load(w: np.ndarray, col: np.ndarray, order: np.ndarray | None) -> None:
    """w[:] = col, or col[order], as uint64; a 64-bit column is gathered into w directly."""
    if order is not None and col.dtype.itemsize == 8:
        np.take(col.view(np.uint64), order, out=w, mode="clip")
    else:
        w[...] = col if order is None else col[order]


def _aggregate_bins(run: tuple, m: int, qkeys: np.ndarray, raw: np.ndarray, prod: np.ndarray,
                    lead: np.ndarray | None = None) -> int:
    """Write one batch of quantized pairs as bins, in key order, into rows m, ... of run.

    Per row, run holds a bin's key, pairwise sum of products, first raw
    difference and per-axis raw minimum and maximum. Returns the row after the
    last bin. With a lead column the pairs are grouped by (lead, key), so the
    bins of each lead value lie end to end and may repeat a key.
    """
    order, starts = _lexorder([lead, *qkeys.T] if lead is not None else qkeys.T)
    keys, sums, reps, mins, maxs = (a[m : m + len(starts)] for a in run)
    if len(starts) == len(order):  # a pair per bin: reduceat would copy each row
        np.take(qkeys, order, axis=0, out=keys, mode="clip")
        np.take(prod, order, out=sums, mode="clip")
        np.take(raw, order, axis=0, out=reps, mode="clip")
        mins[...] = maxs[...] = reps
        return m + len(starts)
    np.take(qkeys, order[starts], axis=0, out=keys, mode="clip")
    for part, out in ((prod.real, sums.real), (prod.imag, sums.imag)):
        np.add.reduceat(part[order], starts, out=out)
    ds = raw[order]
    np.take(ds, starts, axis=0, out=reps, mode="clip")
    np.minimum.reduceat(ds, starts, out=mins)
    np.maximum.reduceat(ds, starts, out=maxs)
    return m + len(starts)


def _merge_runs(run: tuple, m: int) -> int:
    """Merge rows :m of run in place into its k distinct bins, in order of first appearance.

    Each bin's partial sums are added left to right in row order and its first
    representative is kept, so merging merged rows again changes no bit.
    Returns k; distinct rows are left as they are.
    """
    keys, sums, reps, mins, maxs = (a[:m] for a in run)
    order, starts = _lexorder(keys.T)
    if len(starts) == m:  # distinct already, in order of appearance
        return m
    head = np.zeros(m, dtype=bool)
    head[starts] = True
    ss = sums[order]
    total = ss[starts]
    np.add.at(total, np.cumsum(head)[~head] - 1, ss[~head])
    first = order[starts]
    seen = np.argsort(first)
    k, rows = len(starts), first[seen]
    keys[:k], sums[:k], reps[:k], mins[:k], maxs[:k] = (
        keys[rows], total[seen], reps[rows],
        np.minimum.reduceat(mins[order], starts)[seen], np.maximum.reduceat(maxs[order], starts)[seen])
    return k


def _quantize(raw: np.ndarray, eps: float) -> np.ndarray:
    q = np.divide(raw, eps)
    np.round(q, out=q)
    if len(q) and max(q.max(), -q.min()) > 2.0**62:
        raise NumericalDiagnosticError(
            "difference bin index overflows int64; bin_epsilon is too small for "
            "the patch diameter"
        )
    return q.astype(np.int64)


def _pair_batches(pts: np.ndarray, w: np.ndarray, max_radius: float | None):
    """Yield (x_i - x_j, w_i conj(w_j), lead) batches of the pairs i > j.

    Without a radius, or in 1D: blocks of consecutive index offsets
    k = i - j, offset-major, of at most _PAIR_BLOCK pairs or one offset,
    filled by slices into (cap, dim) buffers reused from block to block;
    lead holds k - k0 for the block's first offset k0. Each offset is
    reduced whole, so the bins do not depend on the block size. A 1D radius
    drops the pairs beyond it, and the blocks, doubling from one offset, stop
    after the first offset that keeps none (the points are sorted, so no
    later offset keeps one). A radius in 2D or more, lead None: kd-tree pairs
    ordered by (j, i), in batches of _PAIR_BLOCK; ResourceLimitError first if
    n + 2 * pairs, the ordered pairs counted as the unbounded path counts n * n,
    exceeds _PAIR_BUDGET.
    """
    n, dim = pts.shape
    if n < 2:
        return
    if dim > 1 and max_radius is not None:
        from scipy.spatial import cKDTree

        tree = cKDTree(pts)
        count = int(tree.count_neighbors(tree, max_radius))  # n + 2 * pairs, in O(n) memory
        if count > _PAIR_BUDGET:
            raise ResourceLimitError(
                f"autocorrelation of {n} points within radius {max_radius:.3g} needs "
                f"{count:.2e} pairs, over {_PAIR_BUDGET:.0e}; pass a smaller max_radius"
            )
        pairs = tree.query_pairs(max_radius, output_type="ndarray")
        pairs = pairs[_lexorder(pairs.T)[0]]
        for start in range(0, len(pairs), _PAIR_BLOCK):
            ij = pairs[start : start + _PAIR_BLOCK]
            yield pts[ij[:, 1]] - pts[ij[:, 0]], w[ij[:, 1]] * np.conj(w[ij[:, 0]]), None
        return
    wc = np.conj(w)
    cap = min(max(_PAIR_BLOCK, n - 1), n * (n - 1) // 2)
    d, prod, lead = np.empty((cap, dim)), np.empty(cap, wc.dtype), np.empty(cap, np.min_scalar_type(n))
    size = cap if max_radius is None else n - 1  # a radius may keep few offsets: grow to cap
    off = 1
    while off < n:
        k0, m = off, 0
        while off < n and m + n - off <= size:
            s = slice(m, m + n - off)
            np.subtract(pts[off:], pts[:-off], out=d[s])
            np.multiply(w[off:], wc[:-off], out=prod[s])
            lead[s] = off - k0
            m, off = s.stop, off + 1
        size = min(2 * size, cap)
        block = d[:m], prod[:m], lead[:m]
        if max_radius is not None:  # 1D only: in more dimensions the kd-tree takes a radius
            keep = block[0][:, 0] <= max_radius
            if not keep[m - (n - off + 1) :].any():  # the block's last offset
                off = n
            block = tuple(a[keep] for a in block)
        if len(block[0]):
            yield block


def autocorrelation(
    wps: WeightedPointSet,
    box: Box,
    max_radius: float | None = None,
    bin_epsilon: float | None = None,
) -> AutocorrelationPatch:
    """Volume-normalized autocorrelation of the patch restricted to a box.

    Accumulates w_x conj(w_y) over ordered pairs with |x - y| <= max_radius
    into epsilon-grid bins round((x - y)/eps) and divides by vol(box). With
    max_radius None all pairs enter and the Fourier transform of the bins
    reproduces |c^xi_box|^2 exactly (the identity configuration of
    intensity_from_autocorr).

    bin_epsilon defaults to 1e-6 times the minimum separation and must stay
    below half the minimum separation so distinct points cannot share a bin.
    Each batch of the pairs i > j (_pair_batches) is sorted by bin key
    (_lexorder) and its bins are written in place after those before them,
    into one run of a row per bin; a block of index offsets is sorted by
    (offset, key), so its bins are its offsets' bins end to end. One more
    sort merges the rows in place, adding each bin's partial sums in offset
    or batch order; only a single kd-tree batch is merged already. The run
    has min(pairs, _BIN_BUDGET + one block) rows, of which only those written
    take memory, and is merged whenever it holds over _BIN_BUDGET. The patch
    stores only the bins and the diagonal; their mirrors at -q, the exact
    conjugates, are laid out when its public arrays are first read.
    """
    if box.dim != wps.dim:
        raise ValidationError(f"box dimension {box.dim} != point set dimension {wps.dim}")
    if max_radius is not None and not max_radius > 0:
        raise ValidationError("max_radius must be positive or None for unbounded")
    mask = box.contains(wps.points)
    pts = wps.points[mask]
    w = wps.weights[mask]
    n = len(pts)
    sep = _min_separation_raw(pts) if n > 1 else None
    if bin_epsilon is None:
        bin_epsilon = 1e-6 * sep if sep is not None else 1e-6
    if not bin_epsilon > 0:
        raise ValidationError("bin_epsilon must be positive")
    if sep is not None and not bin_epsilon < sep / 2:
        raise ValidationError(
            f"bin_epsilon {bin_epsilon:.3g} must be below half the minimum "
            f"separation {sep:.3g} or distinct difference classes would merge"
        )
    if max_radius is None and n * n > _PAIR_BUDGET:
        raise ResourceLimitError(
            f"unbounded autocorrelation of {n} points needs {n * n:.2e} pairs; "
            "pass max_radius to truncate"
        )

    dim, vol = wps.dim, box.volume
    # a batch has at most one block of pairs, after at most _BIN_BUDGET rows
    rows = min(n * (n - 1) // 2, _BIN_BUDGET + max(_PAIR_BLOCK, n - 1))
    run = (np.empty((rows, dim), np.int64), np.empty(rows, complex),
           *(np.empty((rows, dim)) for _ in range(3)))
    held, merged = 0, False
    for d, prod, lead in _pair_batches(pts, w, max_radius):
        merged = not held and lead is None  # a single kd-tree batch repeats no key
        held = _aggregate_bins(run, held, _quantize(d, bin_epsilon), d, prod, lead)
        if held > _BIN_BUDGET:  # the rows may repeat a bin: count the distinct ones
            held, merged = _merge_runs(run, held), True
            if held > _BIN_BUDGET:
                raise ResourceLimitError(
                    f"autocorrelation produced more than {_BIN_BUDGET} distinct difference "
                    "bins; truncate with max_radius or coarsen bin_epsilon"
                )
    if not merged:
        held = _merge_runs(run, held)
    # a copy frees the rows the patch does not use
    qkeys, coeffs, reps, rmin, spreads = (a[:held] if held == rows else a[:held].copy() for a in run)
    del run
    spreads -= rmin
    # Python's complex / float (before 3.14), signed zeros included: (re + im*0.0,
    # im - re*0.0) / vol; re only turns -0.0 to +0.0, where im - re*0.0 = im
    re, im = coeffs.real, coeffs.imag
    re += im * 0.0
    im -= re * 0.0
    re /= vol
    im /= vol
    # diagonal bin: ordered pairs (x, x) contribute |w_x|^2; no distinct pair
    # can land here because bin_epsilon < min_separation / 2
    patch = AutocorrelationPatch(
        (qkeys, coeffs, reps, spreads),
        _exact_sum(np.abs(w) ** 2) / vol,
        float(bin_epsilon),
        vol,
        None if max_radius is None else float(max_radius),
        box,
        point_count=n,
    )
    bad = patch.max_bin_spread()
    if bad > bin_epsilon:
        raise NumericalDiagnosticError(
            f"one bin absorbed raw differences spread {bad:.3g} > bin_epsilon "
            f"{bin_epsilon:.3g}; distinct difference classes were merged"
        )
    return patch


def intensity_from_autocorr(patch: AutocorrelationPatch, xi, averaging_box: Box | None = None) -> float:
    """Bragg intensity estimate from a binned autocorrelation.

    Sums the real part of coeff(z) exp(-2 pi i xi.z) over bins (phases
    evaluated at the stored raw representatives). averaging_box None selects
    every bin and divides by the source-box volume, which for an
    unbounded-radius patch equals |c^xi_B|^2 identically; a concrete
    averaging_box restricts to bins inside it and divides by its volume, the
    truncated estimator.

    A mirror's term is the exact conjugate of its bin's term, so the real
    part of the full sum is the diagonal plus 2 Re(c_q exp(-2 pi i xi.r_q))
    over the stored half, each half term weighted by how many of r_q and -r_q
    the averaging box contains. Doubling is exact and the sum is rounded once
    (_exact_sum), so this is the exactly rounded full sum, from one phase per
    +-q pair. Over all bins the imaginary part cancels term by term; with an
    averaging box it is sum Im(term) (contains(r_q) - contains(-r_q)), which
    vanishes for a box symmetric about 0 and is checked, not returned.
    """
    xi = _vector(xi, dim=patch.dim, name="xi")
    _, coeffs, reps, _ = patch._half
    if averaging_box is None:
        re, _ = _phase_terms(reps, coeffs, xi, imag=False)
        return _exact_sum(np.r_[patch._diagonal, 2.0 * re]) / patch.normalizing_volume
    if averaging_box.dim != patch.dim:
        raise ValidationError(
            f"averaging box dimension {averaging_box.dim} != patch dimension {patch.dim}"
        )
    if patch.max_radius is not None:
        corner = np.maximum(np.abs(averaging_box.lo), np.abs(averaging_box.hi))
        if float(np.linalg.norm(corner)) > patch.max_radius * (1 + 1e-12):
            raise ValidationError(
                "averaging box reaches beyond the truncation radius "
                f"{patch.max_radius}; differences out there were never accumulated"
            )
    pos = averaging_box.contains(reps).astype(np.int8)
    neg = averaging_box.contains(-reps).astype(np.int8)
    sel = np.flatnonzero(pos | neg)
    re, im = _phase_terms(reps[sel], coeffs[sel], xi, imag=True)
    terms = re * (pos[sel] + neg[sel])
    if averaging_box.contains(np.zeros((1, patch.dim)))[0]:
        terms = np.r_[patch._diagonal, terms]
    value = _exact_sum(terms) / averaging_box.volume
    imag = _exact_sum(im * (pos[sel] - neg[sel])) / averaging_box.volume
    if abs(imag) > 1e-9 + 1e-6 * abs(value):
        warnings.warn(
            f"autocorrelation intensity at xi={xi.tolist()} has imaginary part "
            f"{imag:.3e}; Hermitian symmetry is degraded",
            stacklevel=2,
        )
    return float(value)


@dataclass(frozen=True)
class SpectrumEntry:
    """Intensity at one grid frequency, with its per-scale history."""

    xi: tuple
    intensity: float
    estimator: str
    intensities: tuple
    last_gap: float
    converged: bool
    box_volume: float
    point_count: int


@dataclass(frozen=True)
class Spectrum:
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return len(self.entries[0].xi) if self.entries else 1

    def intensity_array(self) -> np.ndarray:
        return np.array([e.intensity for e in self.entries])

    def xi_array(self) -> np.ndarray:
        return np.array([e.xi for e in self.entries])


def scan_spectrum(
    wps: WeightedPointSet,
    box,
    xi_grid,
    estimator: str = "fourier",
    threads: int = 1,
) -> Spectrum:
    """Evaluate the chosen intensity estimator on a frequency grid.

    box may be a single Box or an increasing sequence of boxes; with a
    sequence every entry records the per-scale intensities and the final gap.
    Entries are sorted by xi and independent of the thread count (threads is
    a throughput hint from 1 to _THREAD_CAP; evaluations are read-only on
    shared arrays).
    """
    return _scan(wps, box, xi_grid, estimator, threads)[0]


def _scan(wps: WeightedPointSet, box, xi_grid, estimator: str, threads: int):
    """(spectrum, per_scale) of scan_spectrum; per_scale is its evaluator, for reuse."""
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    if threads > _THREAD_CAP:
        raise ResourceLimitError(f"{threads} threads requested, over {_THREAD_CAP}")
    boxes = [box] if isinstance(box, Box) else list(box)
    if not boxes:
        raise ValidationError("need at least one averaging box")
    grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    if grid.size % wps.dim:
        raise ValidationError(f"{grid.size} frequency values do not form {wps.dim}-vectors")
    xis = [_vector(x, dim=wps.dim, name="xi") for x in grid.reshape(-1, wps.dim)]
    if not xis:
        raise ValidationError("frequency grid is empty")
    if estimator not in ("fourier", "autocorr"):
        raise ValidationError(f"unknown estimator {estimator!r}; use fourier or autocorr")
    xis.sort(key=tuple)

    counts, per_scale = _evaluator(wps, boxes, estimator)

    def evaluate(xi):
        vals = per_scale(xi)
        gap, converged, _ = _convergence(vals)
        return SpectrumEntry(tuple(float(v) for v in xi), float(vals[-1]), estimator,
                             tuple(float(v) for v in vals), float(gap), converged,
                             boxes[-1].volume, counts[-1])

    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(xis))) as pool:
            entries = list(pool.map(evaluate, xis))
    else:
        entries = [evaluate(xi) for xi in xis]
    return Spectrum(tuple(entries)), per_scale


class Peak(NamedTuple):
    """Located Bragg peak (xi, intensity); xi is scalar for 1D spectra."""

    xi: float
    intensity: float


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-8) -> tuple[float, float]:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def find_peaks(sp: Spectrum, floor: float, refine=None, tol: float = 1e-8) -> list[Peak]:
    """Grid-local maxima of a 1D spectrum with intensity >= floor.

    A point is a maximum when it strictly exceeds its left neighbor and is at
    least its right neighbor (leading edge of plateaus; endpoints compare
    against nothing on the missing side). When refine is given (a callable
    xi -> intensity, the continuous estimator), each maximum is polished by a
    golden-section pass on the bracket of its two grid neighbors.
    """
    if sp.dim != 1:
        raise ValidationError("peak location is defined for 1D spectra only")
    if not floor > 0:
        raise ValidationError("floor must be positive")
    xs = sp.xi_array()[:, 0]
    ys = sp.intensity_array()
    n = len(xs)
    left, right = np.r_[-np.inf, ys[:-1]], np.r_[ys[1:], -np.inf]
    peaks = np.flatnonzero((ys > left) & (ys >= right) & (ys >= floor))
    out = []
    for i in peaks:
        if refine is None:
            out.append(Peak(float(xs[i]), float(ys[i])))
            continue
        lo = xs[i - 1] if i > 0 else xs[i] - (xs[i + 1] - xs[i] if n > 1 else 1.0)
        hi = xs[i + 1] if i < n - 1 else xs[i] + (xs[i] - xs[i - 1] if n > 1 else 1.0)
        x, y = _golden_section_max(refine, lo, hi, tol)
        out.append(Peak(float(x), float(y)))
    return out


def spectrum_to_csv(sp: Spectrum, fh, envelope: dict | None = None) -> None:
    """Write the spectrum in the flat CSV schema, floats at 17 significant digits.

    envelope entries become leading `# key=value` comment lines (reproducible
    run metadata travels with the data).
    """
    dim = sp.dim
    for key in sorted(envelope or {}):
        fh.write(f"# {key}={envelope[key]}\n")
    cols = [f"xi_{j + 1}" for j in range(dim)]
    cols += ["intensity", "estimator", "box_volume", "point_count", "last_gap", "converged"]
    fh.write(",".join(cols) + "\n")
    for e in sp.entries:
        row = [f"{v:.17g}" for v in e.xi]
        row += [
            f"{e.intensity:.17g}",
            e.estimator,
            f"{e.box_volume:.17g}",
            str(e.point_count),
            f"{e.last_gap:.17g}",
            "true" if e.converged else "false",
        ]
        fh.write(",".join(row) + "\n")


def spectrum_from_csv(fh) -> tuple[Spectrum, dict]:
    """Inverse of spectrum_to_csv; returns (spectrum, envelope dict)."""
    envelope = {}
    header = None
    entries = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                k, v = body.split("=", 1)
                envelope[k.strip()] = v.strip()
            continue
        if header is None:
            header = line.split(",")
            dim = sum(1 for c in header if c.startswith("xi_"))
            continue
        parts = line.split(",")
        rec = dict(zip(header, parts))
        xi = tuple(float(rec[f"xi_{j + 1}"]) for j in range(dim))
        intensity = float(rec["intensity"])
        entries.append(
            SpectrumEntry(
                xi,
                intensity,
                rec["estimator"],
                (intensity,),
                float(rec["last_gap"]),
                rec["converged"] == "true",
                float(rec["box_volume"]),
                int(rec["point_count"]),
            )
        )
    if header is None:
        raise ValidationError("spectrum CSV has no header row")
    return Spectrum(tuple(entries)), envelope
