"""Wiener-Wintner averages on words, subadditive limits, repetitivity probes.

Averages A_n(f) = (1/n) sum_{k<n} exp(-2 pi i alpha k) f(block at k) are taken
along one long word; uniformity over the hull is probed by varying the start
offset (a lower bound on the true sup, exact in the minimal case in the limit).
Subadditive quantities are averaged over randomized Fisher-type domains, and
linear repetitivity is estimated from maximal factor-recurrence gaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """f evaluated on the n consecutive blocks word[offset+k : offset+k+2L+1]."""
    if n < 1:
        raise ValidationError("average length n must be at least 1")
    if offset < 0:
        raise ValidationError("offset must be nonnegative")
    width = 2 * f.locality + 1
    if offset + n + 2 * f.locality > len(word):
        raise ValidationError(
            f"window [offset, offset + n + 2 locality) = [{offset}, "
            f"{offset + n + 2 * f.locality}) exceeds the word length {len(word)}"
        )
    if f.locality == 0:
        lut = f.table
        try:
            return np.array([lut[c] for c in word[offset : offset + n]], dtype=complex)
        except KeyError as exc:
            raise ValidationError(f"observable table is missing block {exc.args[0]!r}")
    out = np.empty(n, dtype=complex)
    lut = f.table
    for k in range(n):
        block = word[offset + k : offset + k + width]
        try:
            out[k] = lut[block]
        except KeyError:
            raise ValidationError(f"observable table is missing block {block!r}")
    return out


def ww_average(word: str, f: Observable, alpha: float, n: int, offset: int = 0) -> complex:
    """Twisted Birkhoff average (1/n) sum_k exp(-2 pi i alpha k) f(block at offset+k).

    The frequency alpha lives mod 1 (character exp(2 pi i alpha)); |result| is
    bounded by max |f| for any word.
    """
    vals = _observable_values(word, f, n, offset)
    phases = np.exp(-2j * np.pi * float(alpha) * np.arange(n))
    return complex(np.sum(phases * vals) / n)


def ww_sup_over_offsets(word: str, f: Observable, alpha: float, n: int, offsets) -> dict:
    """Statistics of |A_n| as the start point moves along the word.

    Returns {"sup", "inf", "spread"}; spread = sup - inf is the empirical
    uniformity defect at scale n (zero in the limit exactly when the averages
    converge uniformly on the hull).
    """
    offsets = [int(o) for o in offsets]
    if not offsets:
        raise ValidationError("need at least one offset")
    mags = [abs(ww_average(word, f, alpha, n, o)) for o in offsets]
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
    vals = _observable_values(word, f, n, offset)
    k = np.arange(n)
    best = 0.0
    for alpha in alphas:
        a = abs(np.sum(np.exp(-2j * np.pi * alpha * k) * vals)) / n
        best = max(best, float(a))
    return best


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
    values = tuple(ww_average(word, f, alpha, n, offsets[0]) for n in lengths)
    stats = ww_sup_over_offsets(word, f, alpha, lengths[-1], offsets)
    return AverageReport(
        float(alpha), tuple(lengths), values, stats["spread"], abs(values[-1])
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


def _hash_tables(codes: np.ndarray, base: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums P[i] = sum_{t<i} codes[t] base^t and inverse powers base^-i (mod 2^64).

    They depend only on the word and the base, so every radius shares them.
    base is odd, hence invertible mod 2^64; unsigned wraparound does the
    modular reduction.
    """
    n = len(codes)
    powers = np.ones(n, dtype=np.uint64)
    powers[1:] = base
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(codes * np.cumprod(powers, dtype=np.uint64), dtype=np.uint64, out=prefix[1:])
    invpow = np.ones(n, dtype=np.uint64)
    invpow[1:] = np.uint64(pow(int(base), -1, 2**64))
    return prefix, np.cumprod(invpow, dtype=np.uint64)


def _factor_hashes(tables: tuple[np.ndarray, np.ndarray], r: int) -> np.ndarray:
    """Position-normalized rolling hashes of every length-r factor (mod 2^64).

    H[i] = sum_t codes[i+t] base^t = (P[i+r] - P[i]) base^-i, from the
    _hash_tables of one base.
    """
    prefix, invpow = tables
    m = len(prefix) - r
    h = prefix[r:] - prefix[:m]
    h *= invpow[:m]
    return h


def _max_gap(h0: np.ndarray, h1: np.ndarray, letters: int, r: int) -> int:
    """Largest gap between consecutive starts of equal length-r factors, or
    from a word end to a factor's first or last start; factors are equal when
    both hashes are."""
    # lexsort is stable, so the starts of equal factors stay increasing
    starts = np.lexsort((h1, h0))
    same = np.ones(len(starts) - 1, dtype=bool)
    for h in (h0, h1):
        hs = h[starts]
        same &= hs[1:] == hs[:-1]
    gaps = [int(np.diff(starts)[same].max())] if same.any() else []
    gaps.append(int(starts[np.concatenate([[True], ~same])].max()))
    gaps.append(int((letters - r - starts[np.concatenate([~same, [True]])]).max()))
    return max(gaps)


def check_linear_repetitivity(word: str, radii) -> dict:
    """Maximal factor-recurrence gap, per radius, normalized by the radius.

    For each R, every length-R factor's occurrence starts are collected (two
    independent 64-bit rolling hashes identify factors; a collision would need
    ~2^64 factors) and the largest gap between consecutive starts is recorded,
    together with the censored boundary gaps (distance from the word ends to
    the first/last occurrence). constants[R] = max gap / R; C_estimate is the
    max over radii. Linearly repetitive words keep C_estimate bounded; random
    words push it up with R.
    """
    radii = [int(r) for r in radii]
    if not radii or min(radii) < 1:
        raise ValidationError("radii must be positive integers")
    need = 4 * max(radii)
    if len(word) < need:
        raise ValidationError(
            f"word length {len(word)} is below the adequacy bound 4 max(radii) = {need}"
        )
    codes = np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    # odd 64-bit multipliers (splitmix64 increments); independence of the two
    # hash streams is what makes collisions negligible
    bases = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9))
    tables = [_hash_tables(codes, b) for b in bases]
    # one _max_gap call per radius frees its arrays before the next radius
    # makes its own, so repeated calls reach the same peak memory
    constants = [
        _max_gap(*(_factor_hashes(t, r) for t in tables), len(word), r) / r for r in radii
    ]
    return {"constants": constants, "C_estimate": float(max(constants))}
