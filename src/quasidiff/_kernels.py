"""Kernels the estimators share: an exactly rounded sum, and a stable sort of
integer keys that marks where each run of equal keys starts."""

from __future__ import annotations

import math

import numpy as np

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
