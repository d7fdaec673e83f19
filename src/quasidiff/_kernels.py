"""Kernels the estimators share: an exactly rounded sum, a stable sort of
integer keys that marks where each run of equal keys starts, and the seeded
random generator."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

# _exact_sum's level sums stay exact for fewer terms than this
_EXACT_SUM_TERMS = 2**26
# extraction levels _exact_sum takes before math.fsum adds the rest
_LEVELS = 4


def _exact_sum(x: np.ndarray, scratch: bool = False) -> float:
    """Correctly rounded sum of a 1D float array, with the bits of math.fsum(x).

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008, ExtractVector). For
    n terms r with |r| < 2**k, take M with 2**M > n + 2 and s = 2**(k + M).
    Then q = (s + r) - s is exact, a multiple of 2**(k + M - 53) of size at
    most 2**k(1 + 2**(M - 53)), and r - q is exact and at most 2**(k + M - 53).
    Any partial sum of the n values q is a multiple of 2**(k + M - 53) below
    2**(k + M), a double, so numpy's sum of q is exact in any order. Each
    level replaces r by r - q, which takes k down by 52 - M, until r is zero,
    after _LEVELS levels, or when s would be subnormal; math.fsum then rounds
    the level sums and the nonzero remainders, whose exact sum is that of x,
    once. A correctly rounded sum has one value, so it is math.fsum(x) bit for
    bit. Empty, long (_EXACT_SUM_TERMS), all-zero, non-finite and huge input
    (s above 2**1023) goes to math.fsum(x) itself, with its result or its
    OverflowError or ValueError. With scratch the caller hands over x, a
    writable float64 buffer, and it holds the remainder; otherwise x is only
    read.
    """
    n = len(x)
    if n == 0 or n >= _EXACT_SUM_TERMS:
        return math.fsum(x)
    q = np.abs(x)
    top = float(q.max())
    if not 0 < top < math.inf:  # zeros, inf or nan (which compares false)
        return math.fsum(x)
    m = (n + 2).bit_length()
    e = math.frexp(top)[1] + m  # s = 2**e, |r| < 2**(e - m)
    if e > 1023:
        return math.fsum(x)
    r, sums = x, []
    for _ in range(_LEVELS):
        if e < -1022:
            break
        s = math.ldexp(1.0, e)
        np.add(r, s, out=q)
        q -= s
        sums.append(float(q.sum()))
        r = np.subtract(r, q, out=r if scratch else None)
        scratch = True  # r is a buffer of its own from here on
        if not r.any():
            return math.fsum(sums)
        e += m - 52
    return math.fsum(sums + r[r != 0].tolist())


def _lexorder(cols) -> tuple[np.ndarray, np.ndarray]:
    """(order, head) of integer key columns of equal length, most significant
    first: order is np.lexsort(cols[::-1]), the stable lexicographic order of
    the rows, and head[j] is true where a run of equal rows begins at j in it.

    Each column is taken as an offset from its minimum, and the rows are
    sorted by digits of these offsets, least significant first (Knuth, TAOCP
    vol. 3, 5.2.5). A digit packs as many whole columns as fit into the high
    64 - p bits of a uint64, p = bits(n - 1); a wider column is split into
    digits of 64 - p bits. A pass writes digit << p | j for the row at
    position j of the current order into one word buffer. The words are
    distinct, so numpy's unstable vectorized sort of them is the stable sort
    by digit, and their low p bits give the next order. One digit of at most
    32 - p bits takes uint32 words and gives an int32 order. After a single
    pass the runs are read from the sorted words; after more, from the
    gathered columns. Scalars mixed into the words have the words' type, as
    numpy 1.24's value-based casting would widen or refuse others.
    """
    n = len(cols[0])
    if n == 0:
        return np.zeros(0, np.intp), np.zeros(0, bool)
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
    if len(digits) == 1 and used + p <= 32 and p < 32:
        word, index, size = np.uint32, np.int32, 32
    else:
        word, index, size = np.uint64, np.intp, 64
    shift, low = word(p), word((1 << p) - 1)
    w = np.empty(n, word) if digits[0] else np.zeros(n, word)  # zeros: every column is constant
    order = np.arange(n, dtype=index)  # the positions of the first pass, then the order
    for t, digit in enumerate(digits):
        for k, (col, lo, skip, bits) in enumerate(reversed(digit)):  # most significant first
            if k:
                w <<= word(bits)
                np.add(w, col[order] if t else col, out=w, dtype=word, casting="unsafe")
            else:
                _load(w, col, order if t else None)
            w -= word(lo % 2**size)  # the offset from the minimum, modulo the word
            if skip:
                w >>= word(skip)
        w <<= shift  # drops the bits above the digit of a slice
        pos = np.arange(n, dtype=index) if t else order
        w |= pos.view(word)
        w.sort()
        if t:
            np.take(order, np.bitwise_and(w, low, out=w).view(index), out=pos, mode="clip")
            order = pos
        else:
            np.bitwise_and(w, low, out=order.view(word))
    head = np.empty(n, dtype=bool)
    head[0] = True
    if len(digits) == 1:  # each sorted word holds its key above its position
        w >>= shift
        np.not_equal(w[1:], w[:-1], out=head[1:])
    else:
        head[1:] = False
        for col in cols:
            _load(w, col, order)
            head[1:] |= w[1:] != w[:-1]
    return order, head


def _load(w: np.ndarray, col: np.ndarray, order: np.ndarray | None) -> None:
    """w[:] = col in w's type, or col[order] into uint64 words; a 64-bit column is gathered into w directly."""
    if order is not None and col.dtype.itemsize == 8:
        np.take(col.view(np.uint64), order, out=w, mode="clip")
    else:
        w[...] = col if order is None else col[order]


def _rng(seed: int) -> np.random.Generator:
    # Philox is counter-based: draw i of a size-n request is a pure function
    # of (seed, i), independent of any iteration schedule
    if not 0 <= int(seed) < 2**64:
        raise ValidationError("seed must fit an unsigned 64-bit integer")
    return np.random.Generator(np.random.Philox(key=int(seed)))
