"""Wiener-Wintner averages on words, subadditive limits, repetitivity probes.

Averages A_n(f) = (1/n) sum_{k<n} exp(-2 pi i alpha k) f(block at k) are taken
along one long word; uniformity over the hull is probed by varying the start
offset (a lower bound on the true sup, exact in the minimal case in the limit).
Subadditive quantities are averaged over randomized Fisher-type domains, and
linear repetitivity is estimated from maximal recurrence gaps of factors named
exactly by Karp-Miller-Rosenberg doubling, which also classes observable blocks.
Factor names are held in the narrowest unsigned type that fits them, and each
sort packs a name with its position into one word (_kernels._lexorder): on
words with few factors (Sturmian words have r + 1 of length r) a uint32 word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _lexorder
from .errors import ValidationError
from .geometry import Box, FisherFamily, fisher_boxes
from .randomize import _rng


@dataclass(frozen=True)
class Observable:
    """Locally constant function of a two-sided neighborhood of a letter.

    table maps every length-(2 locality + 1) block that may occur to a complex
    value; evaluation at position k reads the block starting at k (the letter
    of interest sits at its center once the offset convention below shifts the
    window). Blocks absent from the table raise instead of defaulting.
    """

    locality: int
    table: dict

    def __post_init__(self):
        if self.locality < 0:
            raise ValidationError("locality must be nonnegative")
        width = 2 * self.locality + 1
        if not self.table:
            raise ValidationError("observable table is empty")
        tbl = {}
        for block, value in self.table.items():
            if not isinstance(block, str) or len(block) != width:
                raise ValidationError(
                    f"table keys must be length-{width} blocks, got {block!r}"
                )
            tbl[block] = complex(value)
        object.__setattr__(self, "table", tbl)

    @classmethod
    def indicator(cls, symbol: str, alphabet) -> "Observable":
        """Single-letter indicator 1_symbol (locality 0)."""
        return cls(0, {c: (1.0 if c == symbol else 0.0) for c in alphabet})

    def max_abs(self) -> float:
        return max(abs(v) for v in self.table.values())


def _observable_values(word: str, f: Observable, n: int, offset: int) -> np.ndarray:
    """f evaluated on the n consecutive blocks word[offset+k : offset+k+2L+1]:
    one table read per block class, at its first start, then one gather."""
    width = 2 * f.locality + 1
    span = word[offset : offset + n + width - 1]
    _, key = next(_factor_classes(span, [width]))
    inverse, first = _rank(key)
    try:
        table = np.array([f.table[span[s : s + width]] for s in first.tolist()], dtype=complex)
    except KeyError as exc:
        raise ValidationError(f"observable table is missing block {exc.args[0]!r}") from None
    return table[inverse]


def _twisted_sums(word: str, f: Observable, alphas, windows) -> list[list]:
    """Rows (one per alpha) of np.sum of exp(-2 pi i alpha k) f(block at offset+k)
    over k < n, per (n, offset) window; f is evaluated once over the windows'
    span and the phases once per alpha for the longest window."""
    alphas = [float(a) for a in alphas]
    if not all(np.isfinite(alphas)):
        raise ValidationError(f"alpha must be finite, got {alphas}")
    for n, offset in windows:
        if n < 1:
            raise ValidationError("average length n must be at least 1")
        if offset < 0:
            raise ValidationError("offset must be nonnegative")
        if offset + n + 2 * f.locality > len(word):
            raise ValidationError(
                f"window [offset, offset + n + 2 locality) = [{offset}, "
                f"{offset + n + 2 * f.locality}) exceeds the word length {len(word)}"
            )
    lo = min(o for _, o in windows)
    vals = _observable_values(word, f, max(n + o for n, o in windows) - lo, lo)
    k = np.arange(max(n for n, _ in windows))
    phases = (np.exp(-2j * np.pi * alpha * k) for alpha in alphas)
    return [[np.sum(p[:n] * vals[o - lo : o - lo + n]) for n, o in windows] for p in phases]


def ww_average(word: str, f: Observable, alpha: float, n: int, offset: int = 0) -> complex:
    """Twisted Birkhoff average (1/n) sum_k exp(-2 pi i alpha k) f(block at offset+k).

    The frequency alpha lives mod 1 (character exp(2 pi i alpha)); |result| is
    bounded by max |f| for any word.
    """
    return complex(_twisted_sums(word, f, [alpha], [(n, offset)])[0][0] / n)


def ww_sup_over_offsets(word: str, f: Observable, alpha: float, n: int, offsets) -> dict:
    """Statistics of |A_n| as the start point moves along the word.

    Returns {"sup", "inf", "spread"}; spread = sup - inf is the empirical
    uniformity defect at scale n (zero in the limit exactly when the averages
    converge uniformly on the hull).
    """
    offsets = [int(o) for o in offsets]
    if not offsets:
        raise ValidationError("need at least one offset")
    sums = _twisted_sums(word, f, [alpha], [(n, o) for o in offsets])[0]
    mags = [abs(complex(s / n)) for s in sums]
    return {
        "sup": float(max(mags)),
        "inf": float(min(mags)),
        "spread": float(max(mags) - min(mags)),
    }


def ww_sup_over_frequencies(word: str, f: Observable, alphas, n: int, offset: int = 0) -> float:
    """max over alphas of |A_n| at one offset (observable evaluated once)."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValidationError("need at least one frequency")
    rows = _twisted_sums(word, f, alphas, [(n, offset)])
    return max(0.0, *(float(abs(row[0]) / n) for row in rows))


@dataclass(frozen=True)
class AverageReport:
    """Twisted averages along a ladder of lengths, with a uniformity probe."""

    alpha: float
    lengths: tuple
    values: tuple
    sup_deviation: float
    limit_estimate: float

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "lengths": list(self.lengths),
            "abs_values": [abs(v) for v in self.values],
            "sup_deviation": self.sup_deviation,
        }


def ww_report(word: str, f: Observable, alpha: float, lengths, offsets=(0,)) -> AverageReport:
    """Evaluate A_n over a ladder of lengths and package the trend.

    values holds A_n at the first offset per length; sup_deviation is the
    spread of |A_n| over all offsets at the largest length; limit_estimate is
    |A_n| there.
    """
    lengths = [int(n) for n in lengths]
    if not lengths or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValidationError("lengths must be a nonempty strictly increasing list")
    offsets = [int(o) for o in offsets]
    if not offsets:
        raise ValidationError("need at least one offset")
    n = lengths[-1]
    windows = [(m, offsets[0]) for m in lengths] + [(n, o) for o in offsets]
    sums = _twisted_sums(word, f, [alpha], windows)[0]
    values = tuple(complex(s / m) for s, m in zip(sums, lengths))
    mags = [abs(complex(s / n)) for s in sums[len(lengths) :]]
    return AverageReport(
        float(alpha), tuple(lengths), values, float(max(mags) - min(mags)), abs(values[-1])
    )


@dataclass(frozen=True)
class SubadditiveReport:
    """Normalized values F(Q)/|Q| over randomized domains, scale by scale."""

    scales: tuple
    per_scale_values: tuple
    per_scale_mean: tuple
    per_scale_spread: tuple
    limit: float

    def to_json(self) -> dict:
        return {
            "scales": list(self.scales),
            "per_scale_mean": list(self.per_scale_mean),
            "per_scale_spread": list(self.per_scale_spread),
            "limit": self.limit,
        }


def subadditive_limit(
    evaluator,
    scales,
    samples_per_scale: int,
    seed: int,
    domain: Box | None = None,
    word_length: int | None = None,
) -> SubadditiveReport:
    """Estimate lim F(Q)/|Q| over growing randomized Fisher-type domains.

    Exactly one of domain/word_length selects the mode. Box mode draws, per
    scale r, boxes with sides in [r, 2r) anchored uniformly so they stay
    inside the domain (requires every domain side >= 3r) and calls
    evaluator(box). Word mode draws factor lengths in [r, 2r] and uniform
    start positions and calls evaluator(start, length). The limit reported is
    the mean at the largest scale; per_scale_spread (max - min across samples)
    is the convergence diagnostic, shrinking for linearly repetitive inputs.
    """
    scales = [float(r) for r in scales]
    if not scales or any(b <= a for a, b in zip(scales, scales[1:])) or scales[0] <= 0:
        raise ValidationError("scales must be positive and strictly increasing")
    if samples_per_scale < 1:
        raise ValidationError("samples_per_scale must be at least 1")
    if (domain is None) == (word_length is None):
        raise ValidationError("pass exactly one of domain (box mode) or word_length")
    rng = _rng(seed)
    per_scale = []
    if domain is not None:
        family = FisherFamily(1.0, domain.dim)
        for r in scales:
            if np.any(domain.sides < 3.0 * r):
                raise ValidationError(
                    f"domain sides {domain.sides.tolist()} are below 3 r = {3 * r}; "
                    "randomized boxes would not fit"
                )
            vals = []
            for _ in range(samples_per_scale):
                anchor = domain.lo + rng.random(domain.dim) * (domain.sides - 3.0 * r)
                box = fisher_boxes(family, [r], anchor, rng)[0]
                v = float(evaluator(box))
                if not np.isfinite(v) or v < 0:
                    raise ValidationError(f"evaluator returned {v}; expected a finite nonnegative value")
                vals.append(v / box.volume)
            per_scale.append(vals)
    else:
        word_length = int(word_length)
        for r in scales:
            rmax = int(np.ceil(2 * r))
            if word_length < rmax:
                raise ValidationError(
                    f"word length {word_length} cannot host factors of length {rmax}"
                )
            vals = []
            for _ in range(samples_per_scale):
                length = int(rng.integers(int(np.ceil(r)), rmax + 1))
                start = int(rng.integers(0, word_length - length + 1))
                v = float(evaluator(start, length))
                if not np.isfinite(v) or v < 0:
                    raise ValidationError(f"evaluator returned {v}; expected a finite nonnegative value")
                vals.append(v / length)
            per_scale.append(vals)
    means = [float(np.mean(v)) for v in per_scale]
    spreads = [float(np.max(v) - np.min(v)) for v in per_scale]
    return SubadditiveReport(
        tuple(scales),
        tuple(tuple(v) for v in per_scale),
        tuple(means),
        tuple(spreads),
        means[-1],
    )


def _rank(key: np.ndarray):
    """(rank, first): rank[i] is the number of distinct keys below key[i]
    (np.unique's inverse), stored in the narrowest unsigned type that holds
    the largest rank, and first[c] is the first start of the keys of rank c,
    so there are len(first) classes."""
    order, head = _lexorder([key])
    sorted_rank = np.cumsum(head, dtype=np.min_scalar_type(len(key)))
    sorted_rank -= 1
    rank = np.empty(len(key), dtype=np.min_scalar_type(int(sorted_rank[-1])))
    rank[order] = sorted_rank
    return rank, order[head]


def _pair_key(rank: np.ndarray, classes: int, shift: int) -> np.ndarray:
    """key[i] = rank[i] * classes + rank[i + shift] for ranks below classes,
    in the narrowest unsigned type that holds classes**2 - 1."""
    dtype = np.min_scalar_type(classes * classes - 1)
    key = rank[: len(rank) - shift].astype(dtype)
    key *= dtype.type(classes)
    key += rank[shift:]
    return key


def _factor_classes(word: str, radii):
    """Yield (r, key) for each distinct r in radii, in increasing order; key[i]
    names the length-r factor at start i exactly (equal keys, equal factors).

    Karp-Miller-Rosenberg naming: rank[i] names the length-w factor at i for
    w a power of two, and doubling w ranks the pairs (rank[i], rank[i + w]).
    For w <= r < 2w a length-r factor is its length-w prefix followed by its
    length-w suffix, so the pair (rank[i], rank[i + r - w]) names it. Only the
    current level is held. Ranks and pair keys are stored in the narrowest
    unsigned type that holds them (_rank, _pair_key), and _lexorder sorts them
    packed with their positions in uint32 words while both fit in 32 bits (on
    a 2e5-letter word, keys below 2**14), in uint64 words past that.
    """
    codes = np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32)
    rank, first = _rank(codes)
    classes, w = len(first), 1
    for r in sorted(set(radii)):
        while 2 * w <= r:
            rank, first = _rank(_pair_key(rank, classes, w))
            classes, w = len(first), 2 * w
        yield r, _pair_key(rank, classes, r - w)


def _max_gap(key: np.ndarray, letters: int, r: int) -> int:
    """Largest gap between consecutive starts of equal length-r factors (equal
    keys), or from a word end to a factor's first or last start.

    One stable sort of the key (_lexorder), which keeps the starts of equal
    factors increasing.
    """
    starts, head = _lexorder([key])
    last = np.append(head[1:], True)
    # a step from one factor's last start to the next factor's first start is
    # at most that first start, so it never beats the second term
    return max(
        int(np.diff(starts).max(initial=0)),
        int(starts[head].max()),
        letters - r - int(starts[last].min()),
    )


def check_linear_repetitivity(word: str, radii) -> dict:
    """Maximal factor-recurrence gap, per radius, normalized by the radius.

    For each R, the length-R factors are split into exact classes
    (_factor_classes), the occurrence starts of each class are collected and
    the largest gap between consecutive starts is recorded, together with the
    censored boundary gaps (distance from the word ends to the first/last
    occurrence). constants[R] = max gap / R, in the order of radii (repeats
    included); C_estimate is the max over radii. Linearly repetitive words
    keep C_estimate bounded; random words push it up with R.
    """
    radii = [int(r) for r in radii]
    if not radii or min(radii) < 1:
        raise ValidationError("radii must be positive integers")
    need = 4 * max(radii)
    if len(word) < need:
        raise ValidationError(
            f"word length {len(word)} is below the adequacy bound 4 max(radii) = {need}"
        )
    by_radius = {
        r: _max_gap(key, len(word), r) / r for r, key in _factor_classes(word, radii)
    }
    constants = [by_radius[r] for r in radii]
    return {"constants": constants, "C_estimate": float(max(constants))}
