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

The classes of length-r factors are not sorted again at every radius. Within
a run of consecutive radii they are stepped from r to r + 1. Only a class
whose factor is right special (followed by two different letters) splits, and
then its suffix one letter shorter is right special too (Cassaigne, Bull.
Belg. Math. Soc. 4, 1997). So the only classes tested are those holding a
start just before a start of the classes that split at the last step; on a
Sturmian word one class splits per radius (Morse and Hedlund, Amer. J. Math.
62, 1940). The classes are seeded, from a KMR key and one sort, at the first
radius of every run, and again wherever the classes to test hold more than a
quarter of the starts, as on random words at small radii, where a sort costs
less.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _lexorder, _rng
from .errors import ValidationError
from .geometry import Box, FisherFamily, fisher_boxes


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
    inverse, first = _rank(_FactorNames(_letters(span)).key(width))
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


def _letters(word: str) -> np.ndarray:
    """The level-1 KMR ranks of the letters of word (_rank of their code points):
    rank[i] counts the distinct letters below word[i], in the narrowest unsigned
    type that holds them, uint8 up to 256 letters. They order and compare
    letters as the code points do."""
    return _rank(np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32))[0]


class _FactorNames:
    """Exact names of the factors of a word, by Karp-Miller-Rosenberg doubling.

    letters are the word's letter ranks (_letters). key(r) names the
    length-r factor at each start i exactly (equal keys, equal factors) and
    ranks it lexicographically; r may not fall from one call to the next.

    rank[i] names the length-w factor at i for w a power of two, and doubling
    w ranks the pairs (rank[i], rank[i + w]); key(r) doubles w while
    2w <= r. For w <= r < 2w a length-r factor is its length-w prefix
    followed by its length-w suffix, so the pair (rank[i], rank[i + r - w])
    names it. Only the current level is held. Ranks and pair keys are stored
    in the narrowest unsigned type that holds them (_rank, _pair_key), and
    _lexorder sorts them packed with their positions in uint32 words while
    both fit in 32 bits (on a 2e5-letter word, keys below 2**14), in uint64
    words past that. This is the seeder of check_linear_repetitivity, which
    steps its classes from one radius to the next (_Classes) and sorts a key
    only where stepping would cost more.
    """

    def __init__(self, letters: np.ndarray):
        self.rank, self.classes, self.w = letters, int(letters.max()) + 1, 1

    def key(self, r: int) -> np.ndarray:
        while 2 * self.w <= r:
            self.rank, first = _rank(_pair_key(self.rank, self.classes, self.w))
            self.classes, self.w = len(first), 2 * self.w
        return _pair_key(self.rank, self.classes, r - self.w)


def _spans(starts: np.ndarray, heads: np.ndarray):
    """(first, last, gap) of the ascending runs of starts that begin at the
    indices heads: each run's first and last start and its largest gap between
    consecutive starts (0 for a run of one)."""
    gaps = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=gaps[1:])
    gaps[heads] = 0
    ends = np.append(heads[1:], heads.dtype.type(len(starts)))
    ends -= ends.dtype.type(1)
    return starts[heads], starts[ends], np.maximum.reduceat(gaps, heads)


# a step whose classes to test hold more than this share of the starts sorts
# the key of the next radius instead (_Classes.step); chosen by measurement
_SEED_SHARE = 0.25
# the last start of a class that is gone: above every live class's last start
_GONE = np.iinfo(np.int32).max


class _Classes:
    """The classes of equal length-r factors of a word, stepped from r to r + 1.

    letters is the word as its letter ranks (_letters), which a step reads
    one letter past each start it tests.
    order lists the starts class by class, ascending within each class: class
    c holds order[begin[c] : begin[c] + size[c]], and first[c], last[c] and
    gap[c] are its first and last starts and its largest gap between
    consecutive starts. cls[i] is the class of start i. split lists the
    classes whose length-(r - 1) prefix class split on the way to r, and q
    their starts when a step made them. The per-class arrays grow by the
    parts of split classes. A class that is gone, split or left empty, is
    named by no start and has first 0, gap 0 and last _GONE, so it sets no
    constant.

    A seed sorts the KMR key of radius r once (_lexorder). That keeps the
    starts of equal factors ascending and puts the classes in lexicographic
    order, so the classes with one length-(r - 1) prefix are neighbours, and
    prev, which names the length-(r - 1) factors, tells which prefix classes
    split. With prev None the seed only gives the constant. The first step
    builds cls and the statistics, and from then on positions and per-class
    arrays are int32; names is the key until then, and cls after.
    """

    def __init__(self, letters: np.ndarray, r: int, key: np.ndarray, prev: np.ndarray | None):
        self.order, head = _lexorder([key])
        self.letters, self.r, self.names = letters, r, key
        self.begin = np.flatnonzero(head)
        self.size = np.diff(self.begin, append=len(head))
        self.cls = self.first = self.last = self.gap = None
        # the seed's constant; a step from one class's last start to the next
        # one's first start is at most that first start, so it never beats the
        # first-start term
        firsts = self.order[self.begin]
        # the least last start: each class but the last ends just before the next head
        last = min(int(self.order[self.begin[1:] - 1].min(initial=len(head))), int(self.order[-1]))
        self.value = max(int(np.diff(self.order).max(initial=0)), int(firsts.max()), len(letters) - r - last) / r
        if prev is not None:
            named = prev[firsts]
            same = np.zeros(len(named) + 1, bool)
            np.equal(named[1:], named[:-1], out=same[1:-1])
            self.split, self.q = np.flatnonzero(same[1:] | same[:-1]), None

    def constant(self) -> float:
        """The largest return gap of the length-r factors over r, counting the
        gaps from the word's ends to a factor's first and last start."""
        if self.gap is None:
            return self.value
        n, r = len(self.letters), self.r
        return max(int(self.gap.max()), int(self.first.max()), n - r - int(self.last.min())) / r

    def _members(self, classes: np.ndarray):
        """(lens, offsets, slots) of the given classes: their sizes, the index
        in slots where each one's slots begin, and the slots of order that
        they hold, class by class."""
        lens = self.size[classes]
        offsets = np.cumsum(lens) - lens
        slots = np.repeat(self.begin[classes] - offsets, lens) + np.arange(int(lens.sum()))
        return lens, offsets, slots

    def step(self) -> bool:
        """Move to radius r + 1 and return True; or return False, with the
        state unchanged, when the classes to test hold more than _SEED_SHARE
        of the starts, and a seed at r + 1 costs less.

        A class splits only if its factor is right special (followed by two
        different letters), and then so is its suffix one letter shorter
        (Cassaigne 1997), whose class split on the way to r. So the classes to
        test are those holding q - 1 for the starts q of the classes in split.
        i -> i + 1 maps their starts into those of split, give or take one at
        each end of the word, so the size of split decides. The start n - r,
        whose next factor would run past the word, leaves the tail of its
        class. A class that splits is partitioned stably by the letter at
        start + r; each part is a new class with its own statistics, and
        every other class keeps its own.
        """
        n, r, size = len(self.letters), self.r, self.size
        if size[self.split].sum() > _SEED_SHARE * (n - r):
            return False
        if self.cls is None:  # the seed's classes, held in int32 from here on
            self.order, self.begin, size = (a.astype(np.int32, copy=False) for a in (self.order, self.begin, size))
            self.first, self.last, self.gap = _spans(self.order, self.begin)
            self.cls = np.empty(len(self.order), np.int32)
            self.cls[self.order] = np.repeat(np.arange(len(size), dtype=np.int32), size)
            self.names, self.size = self.cls, size
        order = self.order
        q = self.q if self.q is not None else np.take(order, self._members(self.split)[2])
        near = np.zeros(len(size), bool)
        near[self.cls[q[q > 0] - np.int32(1)]] = True
        end = np.int32(n - r)
        c = self.cls[end]
        size[c] -= 1
        if size[c] == 0:
            self.first[c], self.last[c], self.gap[c] = 0, _GONE, 0
        else:
            b = self.begin[c]
            self.last[c] = order[b + size[c] - 1]
            if self.gap[c] == end - self.last[c]:
                self.gap[c] = np.diff(order[b : b + size[c]]).max(initial=0)
        self.r = r + 1
        test = np.flatnonzero(near & (size > 1))
        lens, offsets, slots = self._members(test)
        starts = np.take(order, slots)
        after = np.take(self.letters, starts + np.int32(r))
        turns = np.empty(len(after), bool)
        np.not_equal(after[1:], after[:-1], out=turns[1:])
        turns[offsets] = False
        splits = np.logical_or.reduceat(turns, offsets) if len(test) else turns[:0]
        if not splits.any():
            self.split, self.q = test[:0], starts[:0]
            return True
        keep = np.repeat(splits, lens)
        slots, starts, after, lens = slots[keep], starts[keep], after[keep], lens[splits]
        part, head = _lexorder([np.repeat(np.arange(len(lens), dtype=np.int32), lens), after])
        starts = starts[part]
        order[slots] = starts
        heads = np.flatnonzero(head).astype(np.int32)
        first, last, gap = _spans(starts, heads)
        parts = np.diff(heads, append=np.int32(len(starts)))
        gone = test[splits]
        self.first[gone], self.last[gone], self.gap[gone] = 0, _GONE, 0
        self.split, self.q = np.arange(len(size), len(size) + len(heads)), starts
        self.cls[starts] = np.repeat(self.split.astype(np.int32), parts)
        self.begin = np.concatenate([self.begin, slots[heads].astype(np.int32)])
        self.size = np.concatenate([size, parts])
        self.first = np.concatenate([self.first, first])
        self.last = np.concatenate([self.last, last])
        self.gap = np.concatenate([self.gap, gap])
        return True


def check_linear_repetitivity(word: str, radii) -> dict:
    """Maximal factor-recurrence gap, per radius, normalized by the radius.

    For each R, the length-R factors are split into exact classes, the
    occurrence starts of each class are collected and the largest gap between
    consecutive starts is recorded, together with the censored boundary gaps
    (distance from the word ends to the first/last occurrence). constants[R] =
    max gap / R, in the order of radii (repeats included); C_estimate is the
    max over radii. Linearly repetitive words keep C_estimate bounded; random
    words push it up with R.

    The classes are seeded from the KMR key (_FactorNames) at the first
    radius of every run of consecutive radii, and stepped from R to R + 1
    within a run (_Classes.step), unless the classes to test hold more than
    _SEED_SHARE of the starts: then the key of R + 1 is sorted instead.
    """
    radii = [int(r) for r in radii]
    if not radii or min(radii) < 1:
        raise ValidationError("radii must be positive integers")
    need = 4 * max(radii)
    if len(word) < need:
        raise ValidationError(
            f"word length {len(word)} is below the adequacy bound 4 max(radii) = {need}"
        )
    letters = _letters(word)
    kmr, wanted = _FactorNames(letters), set(radii)
    by_radius, classes = {}, None
    for r in sorted(wanted):
        stepped = classes is not None and classes.r == r - 1
        if not (stepped and classes.step()):
            prev = None
            if r + 1 in wanted:  # names of the length-(r - 1) factors; at r = 1 the empty word's
                prev = classes.names if stepped else kmr.key(r - 1) if r > 1 else np.zeros(len(word), np.uint8)
            classes = _Classes(letters, r, kmr.key(r), prev)
        by_radius[r] = classes.constant()
    constants = [by_radius[r] for r in radii]
    return {"constants": constants, "C_estimate": float(max(constants))}
