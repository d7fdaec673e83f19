"""Cut-and-project schemes: model sets, star map, deformations, dual peaks.

A scheme is a (d+m) x (d+m) basis matrix M whose columns generate the lattice
M Z^(d+m), together with a window box in the internal (last m) coordinates.
Model-set points are the physical (first d) coordinates of lattice points
whose internal coordinates fall in the window.

Frequencies use the character (xi, x) = exp(2 pi i xi.x), so the dual lattice
is generated by the columns of inv(M).T and the pairing of any lattice point
with any dual point is an integer. Peak amplitudes divide by the covolume
|det M|, making the k=0 intensity equal to the squared point density.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .geometry import Box, _vector
from .pointset import WeightedPointSet, _min_separation_raw

TAU = (1.0 + np.sqrt(5.0)) / 2.0

DEFAULT_CANDIDATE_CAP = 10**8

# tolerance for two enumerated points sharing a physical projection
_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class CutProjectScheme:
    """Lattice basis + window. Columns of `basis` generate the lattice."""

    d_phys: int
    d_int: int
    basis: np.ndarray
    window: Box

    def __post_init__(self):
        if self.d_phys < 1 or self.d_int < 1:
            raise ValidationError("d_phys and d_int must be positive")
        dtot = self.d_phys + self.d_int
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (dtot, dtot):
            raise ValidationError(
                f"basis must be {dtot}x{dtot}, got shape {basis.shape}"
            )
        det = np.linalg.det(basis)
        # relative non-degeneracy: |det| against the Hadamard bound of the columns
        scale = float(np.prod(np.linalg.norm(basis, axis=0)))
        if not abs(det) > 1e-12 * max(scale, 1e-300):
            raise ValidationError(f"basis is singular or near-singular (det={det:.3e})")
        if self.window.dim != self.d_int:
            raise ValidationError(
                f"window dimension {self.window.dim} != d_int {self.d_int}"
            )
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim_total(self) -> int:
        return self.d_phys + self.d_int

    @property
    def covolume(self) -> float:
        return float(abs(np.linalg.det(self.basis)))

    @property
    def dual_basis(self) -> np.ndarray:
        """Columns generate the dual lattice: (Mq).(inv(M).T q') is an integer."""
        return np.linalg.inv(self.basis).T

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split total-space vectors into (physical, internal) parts."""
        x = np.asarray(x, dtype=float)
        return x[..., : self.d_phys], x[..., self.d_phys :]

    def to_json(self, deformation: "Deformation | None" = None) -> dict:
        return {
            "d_phys": self.d_phys,
            "d_int": self.d_int,
            "basis": self.basis.tolist(),
            "window": self.window.to_json(),
            "deformation": None if deformation is None else deformation.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> tuple["CutProjectScheme", "Deformation | None"]:
        for key in ("d_phys", "d_int", "basis", "window"):
            if key not in obj:
                raise ValidationError(f"scheme object missing field {key!r}")
        scheme = cls(
            int(obj["d_phys"]),
            int(obj["d_int"]),
            np.asarray(obj["basis"], dtype=float),
            Box.from_json(obj["window"]),
        )
        theta = None
        if obj.get("deformation") is not None:
            theta = Deformation.from_json(obj["deformation"])
        return scheme, theta


@dataclass(frozen=True)
class Deformation:
    """Continuous map from the window into physical space.

    Either closed-form affine y -> A y + b, or a sampled table over a regular
    grid with multilinear interpolation (values extrapolate linearly just
    outside the grid, so the window boundary is safe).
    """

    kind: str
    A: np.ndarray = None
    b: np.ndarray = None
    grid: tuple = None
    values: np.ndarray = None

    def __post_init__(self):
        if self.kind == "affine":
            A = np.atleast_2d(np.asarray(self.A, dtype=float))
            b = _vector(self.b if self.b is not None else np.zeros(A.shape[0]), name="b")
            if b.size != A.shape[0]:
                raise ValidationError(f"offset length {b.size} != A rows {A.shape[0]}")
            if not np.all(np.isfinite(A)):
                raise ValidationError("affine matrix has non-finite entries")
            A = A.copy()
            A.setflags(write=False)
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "b", b)
        elif self.kind == "table":
            grid = tuple(np.asarray(g, dtype=float) for g in self.grid)
            values = np.asarray(self.values, dtype=float)
            if values.ndim != len(grid) + 1:
                raise ValidationError(
                    "table values must have one trailing axis of physical components"
                )
            if any(len(g) < 2 or np.any(np.diff(g) <= 0) for g in grid):
                raise ValidationError("table grid axes must be increasing, length >= 2")
            if not np.all(np.isfinite(values)):
                raise ValidationError("table values must be finite (bounded deformation)")
            for g in grid:
                g.setflags(write=False)
            values = values.copy()
            values.setflags(write=False)
            object.__setattr__(self, "grid", grid)
            object.__setattr__(self, "values", values)
        else:
            raise ValidationError(f"unknown deformation kind {self.kind!r}")

    @classmethod
    def affine(cls, A, b=None) -> "Deformation":
        return cls(kind="affine", A=A, b=b)

    @classmethod
    def table(cls, grid, values) -> "Deformation":
        return cls(kind="table", grid=tuple(grid), values=values)

    @property
    def d_phys(self) -> int:
        return self.A.shape[0] if self.kind == "affine" else self.values.shape[-1]

    @property
    def d_int(self) -> int:
        return self.A.shape[1] if self.kind == "affine" else len(self.grid)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        if y.shape[1] != self.d_int:
            raise ValidationError(
                f"deformation expects internal dimension {self.d_int}, got {y.shape[1]}"
            )
        if self.kind == "affine":
            return y @ self.A.T + self.b
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(
            self.grid, self.values, method="linear", bounds_error=False, fill_value=None
        )
        return np.atleast_2d(interp(y))

    def bound(self, window: Box) -> float:
        """Sup of |theta| over the window (Euclidean norm).

        Affine maps attain the max over the box at a corner; multilinear
        tables are convex combinations of node values, so the node maximum
        bounds the interior.
        """
        if self.kind == "affine":
            corners = _box_corners(window)
            return float(np.linalg.norm(self(corners), axis=1).max())
        return float(np.linalg.norm(self.values.reshape(-1, self.d_phys), axis=1).max())

    def to_json(self) -> dict:
        if self.kind == "affine":
            return {"kind": "affine", "A": self.A.tolist(), "b": self.b.tolist()}
        return {
            "kind": "table",
            "grid": [g.tolist() for g in self.grid],
            "values": self.values.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Deformation":
        kind = obj.get("kind")
        if kind == "affine":
            return cls.affine(obj["A"], obj.get("b"))
        if kind == "table":
            return cls.table(obj["grid"], obj["values"])
        raise ValidationError(f"unknown deformation kind {kind!r}")


@dataclass(frozen=True)
class BraggCandidate:
    """Dual-lattice peak candidate: (k, k_star) = inv(M).T q split in two."""

    k: np.ndarray
    k_star: np.ndarray
    dual_index: np.ndarray
    amplitude: complex
    intensity: float


def _box_corners(box: Box) -> np.ndarray:
    d = box.dim
    corners = np.empty((2**d, d))
    for i in range(2**d):
        for j in range(d):
            corners[i, j] = box.hi[j] if (i >> j) & 1 else box.lo[j]
    return corners


def _enumerate_preimages(mat: np.ndarray, lo: np.ndarray, hi: np.ndarray, cap: int) -> np.ndarray:
    """Integer vectors q with mat @ q in the half-open box [lo, hi).

    Expands coordinates level by level. The admissible integer interval of the
    current coordinate is intersected, per partial assignment, across every
    row constraint, using interval arithmetic over the not-yet-fixed
    coordinates; this never loses a solution and keeps the candidate count
    near the final count. A final exact membership filter trims the slack.
    """
    if cap < 0:
        raise ValidationError(f"the candidate cap must not be negative, got {cap}")
    dtot = mat.shape[0]
    inv = np.linalg.inv(mat)
    # global per-coordinate bounds of the preimage of [lo, hi]
    a = inv * lo[None, :]
    b = inv * hi[None, :]
    glo = np.minimum(a, b).sum(axis=1)
    ghi = np.maximum(a, b).sum(axis=1)
    # suffix interval of sum_{k>i} mat[:, k] * [glo_k, ghi_k], per row and level
    contrib_lo = np.minimum(mat * glo[None, :], mat * ghi[None, :])
    contrib_hi = np.maximum(mat * glo[None, :], mat * ghi[None, :])
    tail_lo = np.zeros((dtot, dtot + 1))
    tail_hi = np.zeros((dtot, dtot + 1))
    for i in range(dtot - 1, -1, -1):
        tail_lo[:, i] = tail_lo[:, i + 1] + contrib_lo[:, i]
        tail_hi[:, i] = tail_hi[:, i + 1] + contrib_hi[:, i]

    prefixes = np.zeros((1, 0), dtype=np.int64)
    visited = 0
    for i in range(dtot):
        fixed = prefixes.astype(float) @ mat[:, :i].T  # (n, dtot) row sums
        lower = np.full(len(prefixes), glo[i])
        upper = np.full(len(prefixes), ghi[i])
        for j in range(dtot):
            c = mat[j, i]
            if c == 0.0:
                continue
            lo_j = lo[j] - fixed[:, j] - tail_hi[j, i + 1]
            hi_j = hi[j] - fixed[:, j] - tail_lo[j, i + 1]
            if c > 0:
                lower = np.maximum(lower, lo_j / c)
                upper = np.minimum(upper, hi_j / c)
            else:
                lower = np.maximum(lower, hi_j / c)
                upper = np.minimum(upper, lo_j / c)
        pad_lo = 1e-9 * (1.0 + np.abs(lower))
        pad_hi = 1e-9 * (1.0 + np.abs(upper))
        kmin = np.ceil(lower - pad_lo)
        kmax = np.floor(upper + pad_hi)
        # counted in floats, before any int64 cast could wrap a huge interval
        counts = np.maximum(kmax - kmin + 1, 0)
        visited += float(counts.sum())
        if not visited <= cap:  # nan: an interval without a bound
            raise ResourceLimitError(
                f"lattice enumeration exceeded the candidate cap ({cap}); "
                "shrink the region or raise the cap"
            )
        counts = counts.astype(np.int64)
        total = int(counts.sum())
        if total == 0:
            return np.zeros((0, dtot), dtype=np.int64)
        kmin = kmin.astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(counts)])
        pos = np.arange(total, dtype=np.int64) - np.repeat(cum[:-1], counts)
        newcol = np.repeat(kmin, counts) + pos
        prefixes = np.concatenate(
            [np.repeat(prefixes, counts, axis=0), newcol[:, None]], axis=1
        )

    x = prefixes.astype(float) @ mat.T
    mask = np.all((x >= lo) & (x < hi), axis=1)
    return prefixes[mask]


def star_map(s: CutProjectScheme, q) -> tuple[np.ndarray, np.ndarray]:
    """Physical and internal coordinates of the lattice point M q."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != s.dim_total:
        raise ValidationError(f"q must have length {s.dim_total}, got {q.shape[-1]}")
    return s.split(q @ s.basis.T)


def _model_set_raw(
    s: CutProjectScheme, physbox: Box, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """(physical, internal) coordinates of the model set on physbox, sorted."""
    if physbox.dim != s.d_phys:
        raise ValidationError(
            f"physbox dimension {physbox.dim} != d_phys {s.d_phys}"
        )
    lo = np.concatenate([physbox.lo, s.window.lo])
    hi = np.concatenate([physbox.hi, s.window.hi])
    q = _enumerate_preimages(s.basis, lo, hi, cap)
    x = q.astype(float) @ s.basis.T
    phys, internal = s.split(x)
    order = np.lexsort(phys.T[::-1])
    phys, internal = phys[order], internal[order]
    if len(phys) > 1:
        gap = np.abs(phys[1:] - phys[:-1]).max(axis=1)
        if gap.min() < _DEGENERACY_TOL:
            i = int(np.argmin(gap))
            raise ValidationError(
                "physical projection is degenerate on this patch: lattice points "
                f"near {phys[i].tolist()} collide within {_DEGENERACY_TOL}"
            )
    return phys, internal


def model_set(
    s: CutProjectScheme, physbox: Box, cap: int = DEFAULT_CANDIDATE_CAP
) -> WeightedPointSet:
    """Model set on a physical box: points x = phys(Mq) with int(Mq) in the window."""
    phys, _ = _model_set_raw(s, physbox, cap)
    meta = {
        "generator": "model-set",
        "params": {"scheme": s.to_json(), "physbox": physbox.to_json()},
        "seed": None,
    }
    return WeightedPointSet(s.d_phys, phys, None, meta)


def deformed_model_set(
    s: CutProjectScheme,
    theta: Deformation,
    physbox: Box,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> WeightedPointSet:
    """Image {x + theta(x*) : x in model_set(physbox)} of the patch.

    To average over a box B afterwards, generate with physbox padded by
    sup|theta| beyond B so displaced points cannot be missing near the rim.
    A deformation bound of at least half the undeformed minimum separation
    triggers a warning (uniform discreteness may be lost).
    """
    if theta.d_int != s.d_int or theta.d_phys != s.d_phys:
        raise ValidationError(
            f"deformation maps R^{theta.d_int} -> R^{theta.d_phys}, scheme needs "
            f"R^{s.d_int} -> R^{s.d_phys}"
        )
    phys, internal = _model_set_raw(s, physbox, cap)
    sup = theta.bound(s.window)
    if len(phys) > 1:
        sep = _min_separation_raw(phys)
        if sup >= 0.5 * sep:
            warnings.warn(
                f"deformation bound {sup:.4g} is not below half the minimum "
                f"separation {sep:.4g}; the deformed set may lose uniform discreteness",
                stacklevel=2,
            )
    pts = phys + theta(internal) if len(phys) else phys
    meta = {
        "generator": "deformed-model-set",
        "params": {
            "scheme": s.to_json(),
            "physbox": physbox.to_json(),
            "deformation": theta.to_json(),
            "theta_bound": sup,
        },
        "seed": None,
    }
    return WeightedPointSet(s.d_phys, pts, None, meta)


def window_ft(window: Box, k_star) -> complex:
    """Closed-form integral of exp(-2 pi i k_star.y) over the window box.

    Per axis: (exp(-2 pi i kappa b) - exp(-2 pi i kappa a)) / (-2 pi i kappa),
    with the analytic limit (b - a) when |kappa| < 1e-12; product over axes.
    """
    ks = _vector(k_star, dim=window.dim, name="k_star")
    out = complex(1.0)
    for a, b, kappa in zip(window.lo, window.hi, ks):
        if abs(kappa) < 1e-12:
            out *= b - a
        else:
            out *= (np.exp(-2j * np.pi * kappa * b) - np.exp(-2j * np.pi * kappa * a)) / (
                -2j * np.pi * kappa
            )
    return complex(out)


def dual_peaks(
    s: CutProjectScheme,
    phys_range: Box,
    intensity_floor: float,
    cap: int = DEFAULT_CANDIDATE_CAP,
) -> list[BraggCandidate]:
    """Bragg peak candidates with physical frequency in phys_range.

    Enumerates dual-lattice vectors inv(M).T q, bounds the internal frequency
    by the window-FT envelope |window_ft| <= prod min(len_j, 1/(pi |kappa_j|)),
    and keeps candidates with intensity = |window_ft/covol|^2 >= the floor.
    Returned sorted by decreasing intensity (ties by k).
    """
    if not intensity_floor > 0:
        raise ValidationError("intensity_floor must be positive (the envelope bound "
                              "needs it to terminate the enumeration)")
    if phys_range.dim != s.d_phys:
        raise ValidationError(
            f"phys_range dimension {phys_range.dim} != d_phys {s.d_phys}"
        )
    lens = s.window.sides
    target = s.covolume * np.sqrt(intensity_floor)
    bounds = np.empty(s.d_int)
    for j in range(s.d_int):
        other = float(np.prod(np.delete(lens, j)))
        bounds[j] = other / (np.pi * target) * (1.0 + 1e-9)
    lo = np.concatenate([phys_range.lo, -bounds])
    hi = np.concatenate([phys_range.hi, bounds])
    qs = _enumerate_preimages(s.dual_basis, lo, hi, cap)
    out = []
    for q in qs:
        v = q.astype(float) @ s.dual_basis.T
        k, ks = s.split(v)
        amp = window_ft(s.window, ks) / s.covolume
        intensity = abs(amp) ** 2
        if intensity >= intensity_floor:
            out.append(BraggCandidate(k, ks, q.copy(), complex(amp), float(intensity)))
    out.sort(key=lambda c: (-c.intensity, tuple(c.k), tuple(c.dual_index)))
    _check_dual_degeneracy(out)
    return out


def _check_dual_degeneracy(cands: list[BraggCandidate]) -> None:
    if len(cands) < 2:
        return
    order = sorted(range(len(cands)), key=lambda i: tuple(cands[i].k))
    for a, b in zip(order, order[1:]):
        if np.abs(cands[a].k - cands[b].k).max() < _DEGENERACY_TOL:
            raise ValidationError(
                "degenerate dual projection: indices "
                f"{cands[a].dual_index.tolist()} and {cands[b].dual_index.tolist()} "
                f"share the physical frequency {cands[a].k.tolist()} within "
                f"{_DEGENERACY_TOL}"
            )


def deformed_amplitude(
    s: CutProjectScheme,
    theta: Deformation,
    cand: BraggCandidate,
    quad_points_per_axis: int,
) -> complex:
    """Peak amplitude of the deformed model set by midpoint quadrature.

    Integrates exp(-2 pi i k_star.y) exp(+2 pi i k.theta(y)) over the window
    and divides by the covolume. The modulus equals the deformed peak
    intensity's square root; the phase convention matches window_ft, so
    theta = 0 reproduces window_ft(window, k_star)/covol exactly in the
    quadrature limit.
    """
    if quad_points_per_axis < 2:
        raise ValidationError("quad_points_per_axis must be at least 2")
    w = s.window
    axes = [
        w.lo[j] + (np.arange(quad_points_per_axis) + 0.5) * (w.sides[j] / quad_points_per_axis)
        for j in range(w.dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij") if w.dim > 1 else [axes[0]]
    ys = np.stack([g.ravel() for g in grids], axis=1)
    phase = -2j * np.pi * (ys @ cand.k_star) + 2j * np.pi * (theta(ys) @ cand.k)
    cell = w.volume / len(ys)
    return complex(np.exp(phase).sum() * cell / s.covolume)


def preset_scheme(name: str) -> CutProjectScheme:
    """Built-in schemes.

    fibonacci   golden-ratio chain: M = [[1, tau], [1, 1-tau]], window [-1, tau-1).
                The substitution chain a->ab, b->a with lengths (tau, 1) started
                at the origin is exactly this model set.
    silver-mean M = [[1, 1+sqrt2], [1, 1-sqrt2]], window [-1, sqrt2-1); realizes
                the chain a->aab, b->a with lengths (1+sqrt2, 1), density 1/2.
    ammann-1d   golden-ratio scheme with symmetric window [-tau/2, tau/2), the
                1D section underlying Ammann bar grids.
    """
    if name == "fibonacci":
        return CutProjectScheme(
            1, 1, np.array([[1.0, TAU], [1.0, 1.0 - TAU]]), Box([-1.0], [TAU - 1.0])
        )
    if name == "silver-mean":
        lam = 1.0 + np.sqrt(2.0)
        return CutProjectScheme(
            1,
            1,
            np.array([[1.0, lam], [1.0, 1.0 - np.sqrt(2.0)]]),
            Box([-1.0], [np.sqrt(2.0) - 1.0]),
        )
    if name == "ammann-1d":
        return CutProjectScheme(
            1, 1, np.array([[1.0, TAU], [1.0, 1.0 - TAU]]), Box([-TAU / 2], [TAU / 2])
        )
    raise ValidationError(
        f"unknown scheme preset {name!r}; presets: ammann-1d, fibonacci, silver-mean"
    )
