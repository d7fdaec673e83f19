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

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._kernels import _exact_sum, _extent, _lexorder, _phase_check
from .errors import NumericalDiagnosticError, ResourceLimitError, ValidationError
from .geometry import Box, _vector
from .pointset import WeightedPointSet, _in_box, _min_separation_raw

# autocorrelation refuses patches with more ordered pair candidates: n * n
# unbounded, n + 2 * pairs within a radius in 2D or more
_PAIR_BUDGET = 5 * 10**8
# hard ceiling on distinct difference bins (memory guard)
_BIN_BUDGET = 10**7
# pairs in one batch unless one offset has more: 2-4 MiB of buffers, near a 2 MiB L2
_PAIR_BLOCK = 2**15
# most worker threads scan_spectrum will start: 64, or the core count if higher
_THREAD_CAP = max(64, os.cpu_count() or 1)


@dataclass(frozen=True)
class FourierAverage:
    """c^xi_B = (1/vol B) sum over patch points in B of w_x exp(-2 pi i xi.x)."""

    xi: np.ndarray
    value: complex
    box_volume: float
    point_count: int


def fourier_average(wps: WeightedPointSet, box: Box, xi) -> FourierAverage:
    """Volume-normalized Fourier sum of the patch restricted to the box.

    The phase is the one product x xi in 1D and x @ xi otherwise. The real
    and imaginary parts of the phase terms are each summed exactly and
    rounded once (_exact_sum, the bits of math.fsum), so the value does not
    depend on the order of the points or on the thread that computes it, is
    reproducible bit for bit, and satisfies |value| <= (sum |w| in box)/vol.
    NumericalDiagnosticError if |xi|_1 max|x| over the points reaches 2**52.
    """
    pts, w = _in_box(wps, box)
    xi = _vector(xi, dim=wps.dim, name="xi")
    _phase_check(xi, _extent(pts))
    return FourierAverage(xi, _phase_sum(pts, _real_or_complex(w), xi) / box.volume, box.volume, len(pts))


def _real_or_complex(c: np.ndarray) -> np.ndarray:
    """The weights c as _phase_terms takes them: c when some part of c is imaginary, else its
    real part as a contiguous float64 array, a copy when c is complex, so c's column is freed."""
    return c if c.imag.any() else np.ascontiguousarray(c.real, dtype=float)


def _phase_terms(x: np.ndarray, c: np.ndarray, xi: np.ndarray, imag: bool, out: np.ndarray | None = None):
    """(Re, Im or None) of the terms c exp(-2 pi i xi.x) over the rows x, from the real phase.

    numpy's float64 cos and sin are the parts of its complex exp, so only the
    signs of zeros differ from c times that exp, and no exact sum sees them.
    In 1D the phase is x[:, 0] * xi[0], the one product x @ xi rounds (BLAS
    may only turn a -0.0 product into +0.0); in more dimensions it is x @ xi,
    whose fused products a sum of products would not match. A float c is
    real weights: Re is c cos, and Im is c sin, computed only if asked for.
    Given out, the phase and then Re are written into it.
    """
    ph = np.multiply(x[:, 0], xi[0], out=out) if len(xi) == 1 else np.matmul(x, xi, out=out)
    ph *= -2 * np.pi
    if c.dtype.kind == "c":
        z = c * (np.cos(ph) + 1j * np.sin(ph))
        ph[...] = z.real
        return ph, z.imag if imag else None
    im = np.sin(ph) if imag else None
    re = np.cos(ph, out=ph)
    re *= c
    if imag:
        im *= c
    return re, im


def _phase_sum(pts: np.ndarray, w: np.ndarray, xi: np.ndarray) -> complex:
    """Exact sum of w_x exp(-2 pi i xi.x) over the rows x of pts, each part rounded once."""
    re, im = _phase_terms(pts, w, xi, imag=True)
    return complex(_exact_sum(re, scratch=True), _exact_sum(im, scratch=True))


def _evaluator(wps: WeightedPointSet, boxes: list, estimator: str):
    """(point counts, per_scale) of the chosen estimator over a box sequence.

    The patch is restricted to each box once: its points and weights for
    fourier, one unbounded autocorrelation patch for autocorr. per_scale(xi)
    returns the intensity in each box, |c^xi_B|^2 or its autocorrelation
    transform, for a validated frequency vector xi. It raises
    NumericalDiagnosticError if |xi|_1 times the largest |x| (fourier) or
    |z| (autocorr) over the boxes reaches 2**52, or if an intensity is not a
    finite float, as past the float range in a box too small for it.
    """
    if estimator == "autocorr":
        patches = [autocorrelation(wps, b) for b in boxes]
        counts = [p.point_count for p in patches]

        def each(xi):
            return [intensity_from_autocorr(p, xi) for p in patches]
    else:
        parts = [(pts, _real_or_complex(w), b.volume) for b in boxes for pts, w in [_in_box(wps, b)]]
        extent = max(_extent(pts) for pts, _, _ in parts)
        counts = [len(pts) for pts, _, _ in parts]

        def each(xi):
            _phase_check(xi, extent)
            return [abs(_phase_sum(pts, w, xi) / vol) ** 2 for pts, w, vol in parts]

    def per_scale(xi):
        try:
            vals = each(xi)
        except OverflowError:  # a float ** or math.fsum past the float range
            vals = [np.inf]
        if not np.isfinite(vals).all():
            raise NumericalDiagnosticError(f"intensity at xi={xi.tolist()} is not a finite float; the box "
                                           "is too small, or the weights too large, for it")
        return vals

    return counts, per_scale


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
    """Binned finite-volume autocorrelation of a patch, as intensity_from_autocorr reads it.

    Only the diagonal and one bin of each +-q pair are stored: the bins of the
    pairs i > j, in order of first appearance. _reps holds one raw (unrounded)
    difference of each bin, whose quantized difference vector, its key, is
    _quantize(_reps, bin_epsilon); _weights holds the volume-normalized
    coefficients in the layout _phase_terms takes (_real_or_complex, set
    once); _diagonal is the coefficient at 0. Hermitian symmetry is
    structural: the mirror of each bin sits at -q with the exact conjugate
    coefficient, and is never built. len(patch) counts the diagonal, every
    bin and its mirror. _spread is the largest per-axis spread of the raw
    differences that fell into one bin; _extent is the largest |z| over the
    raw differences, the bound of intensity_from_autocorr's phase check.
    """

    _reps: np.ndarray
    _weights: np.ndarray
    _diagonal: float
    bin_epsilon: float
    normalizing_volume: float
    max_radius: float | None
    point_count: int = 0
    _spread: float = 0.0

    def __post_init__(self):
        reps, weights = np.asarray(self._reps, dtype=float), _real_or_complex(np.asarray(self._weights))
        if reps.ndim != 2 or weights.shape != (len(reps),):
            raise ValidationError("inconsistent autocorrelation bin arrays")
        for name, a in (("_reps", reps), ("_weights", weights)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_extent", _extent(reps))

    def __len__(self) -> int:
        return 2 * len(self._reps) + 1

    @property
    def dim(self) -> int:
        return self._reps.shape[1]

    def max_bin_spread(self) -> float:
        """Largest per-axis spread of raw differences sharing a bin.

        Rounding to the nearest bin keeps this below bin_epsilon by
        construction; values approaching bin_epsilon mean distinct difference
        classes are being merged and the quantization is too coarse.
        """
        return self._spread


def _new_run(rows: int, dim: int, old: tuple = (), held: int = 0) -> tuple:
    """A run of rows rows, with rows :held of the run old copied into it.

    Per row, a run holds a bin's key, pairwise sum of products, first raw
    difference and per-axis raw minimum and maximum.
    """
    run = (np.empty((rows, dim), np.int64), np.empty(rows, complex), *(np.empty((rows, dim)) for _ in range(3)))
    for a, b in zip(run, old):
        a[:held] = b[:held]
    return run


def _aggregate_bins(run: tuple, qkeys: np.ndarray, raw: np.ndarray, prod: np.ndarray, lead: np.ndarray,
                    m: int, cap: int, every_pair: bool) -> tuple[tuple, int]:
    """Write one batch of quantized pairs as bins, in (lead, key) order, into rows m, ... of run.

    Returns the run and the row after the last bin. The bins of each lead
    value lie end to end and may repeat a key. A run too short for the bins
    is replaced by a copy with more rows, at most cap: every row of cap if
    the run was empty, cap counts every pair (every_pair) and at least half
    the batch's pairs are bins of their own, else twice the rows now needed.
    """
    order, head = _lexorder([lead, *qkeys.T])
    starts = np.flatnonzero(head)
    if m + len(starts) > len(run[0]):
        distinct = every_pair and not len(run[0]) and 2 * len(starts) >= len(order)
        run = _new_run(cap if distinct else min(cap, 2 * (m + len(starts))), qkeys.shape[1], run, m)
    keys, sums, reps, mins, maxs = (a[m : m + len(starts)] for a in run)
    if len(starts) == len(order):  # a pair per bin: reduceat would copy each row
        np.take(qkeys, order, axis=0, out=keys, mode="clip")
        np.take(prod, order, out=sums, mode="clip")
        np.take(raw, order, axis=0, out=reps, mode="clip")
        mins[...] = maxs[...] = reps
        return run, m + len(starts)
    np.take(qkeys, order[starts], axis=0, out=keys, mode="clip")
    for part, out in ((prod.real, sums.real), (prod.imag, sums.imag)):
        np.add.reduceat(part[order], starts, out=out)
    ds = np.take(raw, order, axis=0)  # a row gather, faster than raw[order]
    np.take(ds, starts, axis=0, out=reps, mode="clip")
    np.minimum.reduceat(ds, starts, out=mins)
    np.maximum.reduceat(ds, starts, out=maxs)
    return run, m + len(starts)


def _merge_runs(run: tuple, m: int) -> int:
    """Merge rows :m of run in place into its k distinct bins, in order of first appearance.

    Each bin's partial sums are added left to right in row order and its first
    representative is kept, so merging merged rows again changes no bit.
    Returns k; distinct rows are left as they are.
    """
    keys, sums, reps, mins, maxs = (a[:m] for a in run)
    order, head = _lexorder(keys.T)
    if head.all():  # distinct already, in order of appearance
        return m
    starts = np.flatnonzero(head)
    ss = sums[order]
    total = ss[starts]
    np.add.at(total, np.cumsum(head)[~head] - 1, ss[~head])
    del ss
    first = order[starts]
    seen = np.argsort(first)
    k, rows = len(starts), first[seen]
    # a column at a time, so that one column's gathered copy is alive at once
    keys[:k] = np.take(keys, rows, axis=0)
    sums[:k] = total[seen]
    reps[:k] = np.take(reps, rows, axis=0)
    mins[:k] = np.minimum.reduceat(np.take(mins, order, axis=0), starts)[seen]
    maxs[:k] = np.maximum.reduceat(np.take(maxs, order, axis=0), starts)[seen]
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

    Each batch is a block of consecutive index offsets k = i - j, offset-major
    and then by j, of at most _PAIR_BLOCK pairs or one offset; lead holds
    k - k0 for the block's first offset k0. Each offset is reduced whole, so
    the bins do not depend on the block boundaries. Without a radius, or in
    1D, the blocks are filled by slices into (cap, dim) buffers reused from
    block to block; a 1D radius drops the pairs beyond it, and the blocks stop
    after the first offset that keeps none (the points are sorted, so no later
    offset keeps one). A radius in 2D or more takes the kd-tree's pairs;
    ResourceLimitError first if n + 2 * pairs, the ordered pairs counted as
    the unbounded path counts n * n, exceeds _PAIR_BUDGET.
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
        j, i = tree.query_pairs(max_radius, output_type="ndarray").T
        off = i - j
        order = _lexorder([off, j])[0]
        i, j, off = i[order], j[order], off[order]
        firsts = np.append(np.flatnonzero(np.diff(off, prepend=0)), len(off))  # each offset's first pair
        start = 0
        while start < len(off):
            stop = firsts[max(np.searchsorted(firsts, start + _PAIR_BLOCK, "right") - 1,
                              np.searchsorted(firsts, start, "right"))]
            s = slice(start, stop)
            yield pts[i[s]] - pts[j[s]], w[i[s]] * np.conj(w[j[s]]), off[s] - off[start]
            start = stop
        return
    wc = np.conj(w)
    cap = min(max(_PAIR_BLOCK, n - 1), n * (n - 1) // 2)
    d, prod, lead = np.empty((cap, dim)), np.empty(cap, wc.dtype), np.empty(cap, np.min_scalar_type(n))
    off = 1
    while off < n:
        k0, m = off, 0
        while off < n and m + n - off <= cap:
            s = slice(m, m + n - off)
            np.subtract(pts[off:], pts[:-off], out=d[s])
            np.multiply(w[off:], wc[:-off], out=prod[s])
            lead[s] = off - k0
            m, off = s.stop, off + 1
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
    Each batch of the pairs i > j (_pair_batches), a block of index offsets,
    is sorted by (offset, key) (_lexorder) and its bins, its offsets' bins
    end to end, are written in place after those before them, into one run
    of a row per bin. One more sort, at the end, merges the rows in place,
    adding each bin's partial sums in offset order. The run is merged also whenever it holds
    over _BIN_BUDGET, so it never needs more than
    min(pairs, _BIN_BUDGET + one block) rows. The first batch sets how
    the run is reserved: without a radius, if its bins are at least half its
    pairs, all the cap's rows are reserved at once; otherwise, and always
    under a radius, which may keep few of the pairs, the run starts at twice
    the first batch's bins and, when a batch would overflow it, is copied
    into one of twice the rows it needs, up to the same cap. A run that the
    merged bins fill at least half is the patch, its columns sliced, not
    copied; a mostly empty one is copied so that its rows are freed.
    NumericalDiagnosticError if the raw differences of a bin spread past
    bin_epsilon, or if a doubled coefficient over vol(box) leaves the floats.
    """
    pts, w = _in_box(wps, box)
    if max_radius is not None and not max_radius > 0:
        raise ValidationError("max_radius must be positive or None for unbounded")
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
    cap = min(n * (n - 1) // 2, _BIN_BUDGET + max(_PAIR_BLOCK, n - 1))
    run, held = _new_run(0, dim), 0
    for d, prod, lead in _pair_batches(pts, w, max_radius):
        run, held = _aggregate_bins(run, _quantize(d, bin_epsilon), d, prod, lead, held, cap, max_radius is None)
        if held > _BIN_BUDGET:  # the rows may repeat a bin: count the distinct ones
            held = _merge_runs(run, held)
            if held > _BIN_BUDGET:
                raise ResourceLimitError(
                    f"autocorrelation produced more than {_BIN_BUDGET} distinct difference "
                    "bins; truncate with max_radius or coarsen bin_epsilon"
                )
    held = _merge_runs(run, held)
    spread = float(np.subtract(run[4][:held], run[3][:held]).max(initial=0.0))  # per-axis max less min
    if spread > bin_epsilon:
        raise NumericalDiagnosticError(
            f"one bin absorbed raw differences spread {spread:.3g} > bin_epsilon "
            f"{bin_epsilon:.3g}; distinct difference classes were merged"
        )
    # a run at least half full is the patch; a copy frees a mostly empty one
    sums, reps = (a[:held] if 2 * held >= len(a) else a[:held].copy() for a in run[1:3])
    del run  # and with it the keys and the per-axis minima and maxima
    # diagonal bin: ordered pairs (x, x) contribute |w_x|^2; no distinct pair
    # can land here because bin_epsilon < min_separation / 2
    diagonal = _exact_sum(np.abs(w) ** 2)
    if not np.isfinite(2.0 * max(diagonal, _extent(sums.view(float))) / vol):  # the estimator doubles them
        raise NumericalDiagnosticError(f"autocorrelation coefficients over the box volume {vol:.3g} leave "
                                       "the float range; the box is too small, or the weights too large")
    # Python's complex / float (before 3.14), signed zeros included: (re + im*0.0,
    # im - re*0.0) / vol; re only turns -0.0 to +0.0, where im - re*0.0 = im
    re, im = sums.real, sums.imag
    re += im * 0.0
    im -= re * 0.0
    re /= vol
    im /= vol
    return AutocorrelationPatch(reps, sums, diagonal / vol, float(bin_epsilon), vol,
                                None if max_radius is None else float(max_radius), n, spread)


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
    +-q pair. Without an averaging box the diagonal and the doubled real
    parts are written into one array, which the exact sum then takes over
    as its remainder. Over all bins the imaginary part cancels term by term;
    with an averaging box it is sum Im(term) (contains(r_q) - contains(-r_q)),
    which vanishes for a box symmetric about 0 and is checked, not returned.
    NumericalDiagnosticError if |xi|_1 times the largest |z| over the bins
    reaches 2**52.
    """
    xi = _vector(xi, dim=patch.dim, name="xi")
    _phase_check(xi, patch._extent)
    reps, weights = patch._reps, patch._weights
    if averaging_box is None:
        terms = np.empty(len(reps) + 1)
        terms[0] = patch._diagonal
        _phase_terms(reps, weights, xi, imag=False, out=terms[1:])
        terms[1:] *= 2.0
        return _exact_sum(terms, scratch=True) / patch.normalizing_volume
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
    head = int(averaging_box.contains(np.zeros((1, patch.dim)))[0])  # the diagonal, if inside
    terms = np.empty(head + len(sel))
    terms[:head] = patch._diagonal
    re, im = _phase_terms(reps[sel], weights[sel], xi, imag=True, out=terms[head:])
    re *= pos[sel] + neg[sel]
    value = _exact_sum(terms, scratch=True) / averaging_box.volume
    im *= pos[sel] - neg[sel]
    imag = _exact_sum(im, scratch=True) / averaging_box.volume
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


def _entry(xi, vals, estimator: str, box: Box, count: int) -> SpectrumEntry:
    """The spectrum row at xi of the per-scale intensities vals, the last of them in box, of count points."""
    gap, converged, _ = _convergence(vals)
    return SpectrumEntry(tuple(float(v) for v in xi), float(vals[-1]), estimator,
                         tuple(float(v) for v in vals), float(gap), converged, box.volume, count)


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
        return _entry(xi, per_scale(xi), estimator, boxes[-1], counts[-1])

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


def _write_csv(fh, envelope: dict, head: list, rows) -> None:
    """Write the CSV layout of every table: `# key=value` lines in key order
    (reproducible run metadata travels with the data), the header, then the
    rows, strings as they are and numbers as floats at 17 significant digits."""
    for key in sorted(envelope):
        fh.write(f"# {key}={envelope[key]}\n")
    fh.write(",".join(head) + "\n")
    for row in rows:
        fh.write(",".join(v if isinstance(v, str) else f"{float(v):.17g}" for v in row) + "\n")


def spectrum_to_csv(sp: Spectrum, fh, envelope: dict | None = None) -> None:
    """Write the spectrum in the flat CSV schema (_write_csv), envelope entries as comment lines."""
    head = [f"xi_{j + 1}" for j in range(sp.dim)]
    head += ["intensity", "estimator", "box_volume", "point_count", "last_gap", "converged"]
    rows = ((*e.xi, e.intensity, e.estimator, e.box_volume, str(e.point_count), e.last_gap,
             "true" if e.converged else "false") for e in sp.entries)
    _write_csv(fh, envelope or {}, head, rows)


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
