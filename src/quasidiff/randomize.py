"""Seeded percolation and random displacement with their spectral laws.

Percolation keeps each point independently with probability p and multiplies
the Bragg intensities by p^2 on top of a flat diffuse background at level
p(1-p) n0 (n0 the point density). Random displacement by an i.i.d. bounded
distribution sigma multiplies intensities by |sigma_hat(xi)|^2 with diffuse
level n0 (1 - |sigma_hat|^2), sigma_hat(xi) = E[exp(-2 pi i xi.X)].

Randomness is counter-based (Philox keyed by the seed) and materialized in
the canonical point order, so outputs are reproducible and independent of
iteration schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _rng
from .errors import NumericalDiagnosticError, ValidationError
from .geometry import Box, _vector
from .pointset import WeightedPointSet, _min_separation_raw
from .diffraction import fourier_average

_DIST_KINDS = ("uniform_interval", "two_point", "table")


@dataclass(frozen=True)
class DisplacementDist:
    """Bounded displacement law, i.i.d. per point.

    uniform_interval  per-axis uniform on [-a, a]
    two_point         per-axis +a or -a with probability 1/2 each
    table             finite atom list [(vector, prob), ...]
    """

    kind: str
    a: float = None
    atoms: tuple = None

    def __post_init__(self):
        if self.kind in ("uniform_interval", "two_point"):
            if self.a is None or not 0 < float(self.a) < math.inf:
                raise ValidationError(f"{self.kind} needs a positive finite half-width a")
            object.__setattr__(self, "a", float(self.a))
        elif self.kind == "table":
            if not self.atoms:
                raise ValidationError("table distribution needs at least one atom")
            atoms = []
            total = 0.0
            for entry in self.atoms:
                vec, prob = entry
                vec = _vector(vec, name="atom")
                prob = float(prob)
                if prob < 0:
                    raise ValidationError("atom probabilities must be nonnegative")
                atoms.append((tuple(float(v) for v in vec), prob))
                total += prob
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(f"atom probabilities sum to {total}, expected 1")
            dims = {len(v) for v, _ in atoms}
            if len(dims) != 1:
                raise ValidationError("table atoms must share one dimension")
            object.__setattr__(self, "atoms", tuple(atoms))
        else:
            raise ValidationError(
                f"unknown displacement kind {self.kind!r}; kinds: {', '.join(_DIST_KINDS)}"
            )

    def bound(self) -> float:
        """Sup-norm bound of the support (used for patch padding checks)."""
        if self.kind in ("uniform_interval", "two_point"):
            return self.a
        return max(max(abs(c) for c in v) for v, _ in self.atoms) if self.atoms else 0.0

    def sample(self, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "uniform_interval":
            if math.isinf(2.0 * self.a):
                raise ValidationError(
                    f"uniform_interval half-width {self.a!r} cannot be sampled: the width 2a overflows"
                )
            return rng.uniform(-self.a, self.a, size=(n, dim))
        if self.kind == "two_point":
            return self.a * (2.0 * rng.integers(0, 2, size=(n, dim)) - 1.0)
        vecs = np.array([v for v, _ in self.atoms])
        if vecs.shape[1] != dim:
            raise ValidationError(
                f"table atoms have dimension {vecs.shape[1]}, points have {dim}"
            )
        probs = np.array([p for _, p in self.atoms])
        idx = rng.choice(len(vecs), size=n, p=probs / probs.sum())
        return vecs[idx]

    def to_json(self) -> dict:
        if self.kind == "table":
            return {"kind": "table", "atoms": [[list(v), p] for v, p in self.atoms]}
        return {"kind": self.kind, "a": self.a}

    @classmethod
    def from_json(cls, obj: dict) -> "DisplacementDist":
        kind = obj.get("kind")
        if kind == "table":
            return cls(kind="table", atoms=tuple((tuple(v), p) for v, p in obj["atoms"]))
        return cls(kind=kind, a=obj.get("a"))


@dataclass(frozen=True)
class RandomModel:
    """Percolation {p} or displacement {dist}, plus the base seed."""

    kind: str
    seed: int
    p: float = None
    dist: DisplacementDist = None

    def __post_init__(self):
        if int(self.seed) < 0 or int(self.seed) >= 2**64:
            raise ValidationError("seed must fit an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "percolation":
            if self.p is None or not (0.0 < float(self.p) < 1.0):
                raise ValidationError(
                    "percolation probability must satisfy 0 < p < 1 (note that "
                    "1 - 1e-18 rounds to 1.0 in double precision and is rejected)"
                )
            object.__setattr__(self, "p", float(self.p))
        elif self.kind == "displacement":
            if self.dist is None:
                raise ValidationError("displacement model needs a distribution")
        else:
            raise ValidationError(
                f"unknown model kind {self.kind!r}; kinds: percolation, displacement"
            )

    def with_seed(self, seed: int) -> "RandomModel":
        return RandomModel(self.kind, seed, p=self.p, dist=self.dist)

    def to_json(self) -> dict:
        if self.kind == "percolation":
            return {"kind": "percolation", "p": self.p, "seed": self.seed}
        return {"kind": "displacement", "dist": self.dist.to_json(), "seed": self.seed}

    @classmethod
    def from_json(cls, obj: dict) -> "RandomModel":
        kind = obj.get("kind")
        if kind == "percolation":
            return cls("percolation", obj["seed"], p=obj["p"])
        if kind == "displacement":
            return cls("displacement", obj["seed"], dist=DisplacementDist.from_json(obj["dist"]))
        raise ValidationError(f"unknown model kind {kind!r}")


def percolate(wps: WeightedPointSet, p: float, seed: int) -> WeightedPointSet:
    """Keep each point independently with probability p (Bernoulli site dilution).

    Point i (in canonical order) survives when the i-th Philox uniform draw is
    below p. Positions and weights of survivors are untouched.
    """
    if not (0.0 < p < 1.0):
        raise ValidationError("percolation probability must satisfy 0 < p < 1")
    u = _rng(seed).random(len(wps))
    keep = u < p
    meta = {
        "generator": "percolation",
        "params": {"p": float(p)},
        "seed": int(seed),
        "source": dict(wps.meta),
    }
    return WeightedPointSet(wps.dim, wps.points[keep], wps.weights[keep], meta)


def displace(wps: WeightedPointSet, dist: DisplacementDist, seed: int) -> WeightedPointSet:
    """Move every point by an i.i.d. draw from the displacement law.

    Count and weights are preserved; the minimum separation generally shrinks
    and the recomputed value is stored in the output metadata.
    """
    n = len(wps)
    offsets = dist.sample(n, wps.dim, _rng(seed)) if n else np.zeros((0, wps.dim))
    params = {"dist": dist.to_json()}
    meta = {
        "generator": "displacement",
        "params": params,
        "seed": int(seed),
        "source": dict(wps.meta),
    }
    out = WeightedPointSet(wps.dim, wps.points + offsets, wps.weights, meta)
    if n > 1:
        params["min_separation"] = float(_min_separation_raw(out.points))
    return out


def apply_model(wps: WeightedPointSet, model: RandomModel) -> WeightedPointSet:
    if model.kind == "percolation":
        return percolate(wps, model.p, model.seed)
    return displace(wps, model.dist, model.seed)


def char_fn(dist: DisplacementDist, xi) -> complex:
    """Characteristic function sigma_hat(xi) = E[exp(-2 pi i xi.X)], closed form.

    uniform_interval(a): product over axes of sin(2 pi xi_j a)/(2 pi xi_j a);
    two_point(a): product of cos(2 pi xi_j a); table: finite atom sum. Real for
    the two symmetric kinds, |sigma_hat| <= 1 everywhere, = 1 at xi = 0.
    A uniform_interval factor whose phase v overflows is 0, the rounding of
    |sin(v)/v| <= 1/|v|; an overflowed phase of the other kinds has no
    defined cosine and raises NumericalDiagnosticError.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    with np.errstate(over="ignore"):
        if dist.kind == "table":
            t = np.array([2.0 * np.pi * np.dot(xi, vec) for vec, _ in dist.atoms])
        else:
            t = 2.0 * np.pi * xi * dist.a
    if dist.kind == "uniform_interval":
        out = 1.0
        for v in t:
            out *= 1.0 if abs(v) < 1e-15 else 0.0 if math.isinf(v) else np.sin(v) / v
        return complex(out)
    if not np.isfinite(t).all():
        raise NumericalDiagnosticError(
            f"displacement phase 2 pi xi.x overflows at xi={xi.tolist()}; its cosine is undefined"
        )
    if dist.kind == "two_point":
        return complex(np.prod(np.cos(t)))
    total = 0j
    for (_, prob), v in zip(dist.atoms, t.tolist()):
        total += prob * np.exp(-1j * v)
    return complex(total)


def predicted_intensity(model: RandomModel, base_intensity: float, xi, n0: float) -> dict:
    """Exact transformation law of the Bragg intensity under the model.

    percolation:  point_part = p^2 I0,            diffuse_level = p(1-p) n0
    displacement: point_part = |sigma_hat|^2 I0,  diffuse_level = n0 (1-|sigma_hat|^2)

    The diffuse level is the density of the absolutely continuous background;
    a finite-box |c^xi|^2 at a non-peak xi sees it only at order
    diffuse_level/vol(box), decaying to zero.
    """
    if base_intensity < 0:
        raise ValidationError("base intensity must be nonnegative")
    if not n0 > 0:
        raise ValidationError("point density n0 must be positive")
    if model.kind == "percolation":
        p = model.p
        return {
            "point_part": p * p * base_intensity,
            "diffuse_level": p * (1.0 - p) * n0,
        }
    s2 = abs(char_fn(model.dist, xi)) ** 2
    return {
        "point_part": s2 * base_intensity,
        "diffuse_level": n0 * (1.0 - s2),
    }


@dataclass(frozen=True)
class TrialStats:
    """Monte-Carlo summary of |c^xi_box|^2 over independent disorder trials."""

    xi: tuple
    trials: int
    mean_intensity: float
    stderr: float
    predicted: float


def monte_carlo_intensity(
    wps: WeightedPointSet,
    model: RandomModel,
    box: Box,
    xi,
    trials: int,
    base_seed: int,
) -> TrialStats:
    """Average the boxed intensity over trials of the disorder model.

    Trial t runs the model with seed base_seed + t; the report carries the
    sample mean, the standard error (ddof=1), and the predicted point part
    computed from the unperturbed patch on the same box.
    """
    if trials < 2:
        raise ValidationError("need at least 2 trials for a standard error")
    xi = _vector(xi, dim=wps.dim, name="xi")
    values = np.empty(trials)
    for t in range(trials):
        perturbed = apply_model(wps, model.with_seed(base_seed + t))
        values[t] = abs(fourier_average(perturbed, box, xi).value) ** 2
    base = fourier_average(wps, box, xi)
    n0 = base.point_count / box.volume if box.volume > 0 else 0.0
    pred = predicted_intensity(model, abs(base.value) ** 2, xi, max(n0, 1e-300))
    return TrialStats(
        tuple(float(v) for v in xi),
        int(trials),
        float(values.mean()),
        float(values.std(ddof=1) / np.sqrt(trials)),
        float(pred["point_part"]),
    )
