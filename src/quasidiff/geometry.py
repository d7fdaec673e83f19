"""Axis-aligned boxes and the averaging-domain families built from them.

Boxes are half-open: a point x lies inside when lo <= x < hi componentwise.
Two families of averaging domains are provided: nested van Hove cubes
(geometrically growing, centered) and Fisher boxes with every side length
in [r, 2r].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValidationError(f"{name} has length {v.size}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} contains non-finite entries")
    v = v.copy()
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box [lo, hi) in R^d.

    Parameters
    ----------
    lo, hi : array_like
        Corner vectors with lo[j] < hi[j] for every axis, and a volume (the product
        of the sides hi[j] - lo[j]) that is finite and above 0.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, name="lo")
        hi = _vector(self.hi, dim=lo.size, name="hi")
        if not np.all(lo < hi):
            raise ValidationError(f"box requires lo < hi per axis, got lo={lo}, hi={hi}")
        # every side is positive, so the volume is finite and positive only if every side is
        # finite too; a side or volume past the float range is inf, one below it may be 0
        with np.errstate(over="ignore"):
            volume = float(np.prod(hi - lo))
        if not 0 < volume < math.inf:
            raise ValidationError(f"box lo={lo}, hi={hi} has volume {volume}, not a positive finite float")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def sides(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of `points` ((n, d) array) inside [lo, hi)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValidationError(
                f"points have dimension {pts.shape[1]}, box has dimension {self.dim}"
            )
        return np.all((pts >= self.lo) & (pts < self.hi), axis=1)

    def translate(self, t) -> "Box":
        t = _vector(t, dim=self.dim, name="translation")
        return Box(self.lo + t, self.hi + t)

    def to_json(self) -> dict:
        return {"lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "Box":
        try:
            return cls(obj["lo"], obj["hi"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"box object must have 'lo' and 'hi' arrays: {exc}")

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Box":
        """1D convenience constructor."""
        return cls([lo], [hi])


@dataclass(frozen=True)
class VanHoveCubes:
    """Nested centered cubes with sides side0 * growth**n, n = 0..count-1."""

    center: np.ndarray
    side0: float
    growth: float
    count: int

    def __post_init__(self):
        center = _vector(self.center, name="center")
        object.__setattr__(self, "center", center)
        if not self.side0 > 0:
            raise ValidationError(f"side0 must be positive, got {self.side0}")
        if not self.growth > 1:
            raise ValidationError(f"growth must exceed 1, got {self.growth}")
        if self.count < 1:
            raise ValidationError(f"count must be at least 1, got {self.count}")
        # growth**(count - 1) and the last cube's volume must be finite floats;
        # compared in logs, so that the check itself cannot overflow
        grown, top = (self.count - 1) * math.log(self.growth), math.log(sys.float_info.max)
        if not (grown < top and center.size * (math.log(self.side0) + grown) < top):
            raise ValidationError(
                f"{self.count} cubes of side0 {self.side0} and growth {self.growth} end in a "
                "cube whose growth factor, side or volume overflows a float"
            )


@dataclass(frozen=True)
class FisherFamily:
    """The box family B(r): every side length in [r, 2r].

    `r` is a base-scale multiplier applied to the scales passed to
    fisher_boxes (use r=1 for plain scales); `d` is the dimension.
    """

    r: float
    d: int

    def __post_init__(self):
        if not self.r > 0:
            raise ValidationError(f"base scale must be positive, got {self.r}")
        if self.d < 1:
            raise ValidationError(f"dimension must be at least 1, got {self.d}")


def cube_sequence(vh: VanHoveCubes) -> list[Box]:
    """Nested centered cubes realizing a van Hove sequence.

    Returns `vh.count` boxes with side side0 * growth**n; nesting holds by
    construction since growth > 1.
    """
    out = []
    for n in range(vh.count):
        half = 0.5 * vh.side0 * vh.growth**n
        out.append(Box(vh.center - half, vh.center + half))
    return out


def boundary_fraction(b: Box, pad: float) -> float:
    """Upper bound for the padded-boundary to volume ratio of a box.

    Computes (prod(s_j + 2 pad) - prod(max(s_j - 2 pad, 0))) / prod(s_j),
    the outer-slab minus inner-slab volume over the box volume. Values >= 1
    (pad at least half the shortest side) mean the bound is degenerate.
    """
    if not pad > 0:
        raise ValidationError(f"pad must be positive, got {pad}")
    s = b.sides
    outer = float(np.prod(s + 2.0 * pad))
    inner = float(np.prod(np.maximum(s - 2.0 * pad, 0.0)))
    return (outer - inner) / float(np.prod(s))


def fisher_boxes(
    family: FisherFamily,
    scales,
    anchor,
    rng: np.random.Generator | None = None,
) -> list[Box]:
    """One box per scale with every side in [r, 2r], r = family.r * scale.

    Without an rng the box sits at `anchor` (lo = anchor) with deterministic
    midpoint sides 1.5 r. With an rng, sides are drawn uniformly from [r, 2r]
    per axis and the anchor is jittered by U[0, r) per axis; the box never
    extends past anchor + 3r per axis.
    """
    scales = [float(s) for s in scales]
    if any(b <= a for a, b in zip(scales, scales[1:])) or any(s <= 0 for s in scales):
        raise ValidationError(f"scales must be positive and strictly increasing, got {scales}")
    anchor = _vector(anchor, dim=family.d, name="anchor")
    out = []
    for scale in scales:
        r = family.r * scale
        if rng is None:
            sides = np.full(family.d, 1.5 * r)
            lo = anchor
        else:
            sides = rng.uniform(r, 2.0 * r, size=family.d)
            lo = anchor + rng.uniform(0.0, r, size=family.d)
        out.append(Box(lo, lo + sides))
    return out
