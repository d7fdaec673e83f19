"""Weighted point patches and their generators (lattices, substitution chains).

A WeightedPointSet is a finite patch of a uniformly discrete point set in
R^d with complex weights (default 1). Patches are kept in canonical form
(points sorted lexicographically) so that generation, serialization, and
byte-level diffing are reproducible.
"""

from __future__ import annotations

import io
import json
import math
import re
import sys
from dataclasses import dataclass, field
from itertools import chain, product

import numpy as np

from ._kernels import _lexorder
from .errors import ResourceLimitError, ValidationError
from .geometry import Box, _vector

# most points lattice_points will enumerate
_LATTICE_CAP = 10**7
# candidate pairs _closest_pair measures at once: under 4 MiB of temporaries, as
# for the autocorrelation's pair blocks (diffraction._PAIR_BLOCK)
_PAIR_BLOCK = 2**15
# most cells along one axis of _closest_pair's grid, so that a cell index carries a
# rounding error below 2**-22 of a cell, well inside the cell's 2**-20 margin
_GRID_AXIS = 2**29
# rows of a point array _json_parts formats at once: about 0.5 MiB of Python floats and
# strings in 1D
_ROW_BLOCK = 4096
# most bytes of rows _float_rows parses at once
_READ_CHUNK = 2**16
# number characters as "0", for _float_rows' row check; brackets as spaces, for its parse
_CELLS = bytes.maketrans(b"0123456789+-.eE", b"0" * 15)
_UNBRACKET = bytes.maketrans(b"[]", b"  ")
# the "]" closing an array's last row, then the array's "]"; the "," between two rows
_ARRAY_END = re.compile(rb"\][ \t\n\r]*\]")
_ROW_SEP = re.compile(rb"[ \t\n\r]*,")
# the arrays _parse_rows cuts out of a text, each with the JSON constant that stands in
# for it while json.loads reads the rest of the text, and the object that constant reads as
_HOLES = {"points": ("NaN", object()), "weights": ("Infinity", object())}


@dataclass(frozen=True)
class WeightedPointSet:
    """Finite patch of a weighted point set in R^dim, canonically sorted.

    Parameters
    ----------
    dim : int
        Ambient dimension.
    points : (n, dim) array
        Point coordinates; sorted lexicographically on construction.
    weights : (n,) complex array, optional
        Per-point weights, default all 1.
    meta : dict
        Provenance record: {"generator": str, "params": obj, "seed": int|None}.
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError(f"dim must be at least 1, got {self.dim}")
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.dim)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValidationError(
                f"points must be an (n, {self.dim}) array, got shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points contain non-finite coordinates")
        w = self.weights
        if w is not None:
            w = np.asarray(w, dtype=complex)
            if w.shape != (len(pts),):
                raise ValidationError(
                    f"weights must have shape ({len(pts)},), got {w.shape}"
                )
            if not np.all(np.isfinite(w.real) & np.isfinite(w.imag)):
                raise ValidationError("weights contain non-finite values")
        # canonical order: lexicographic by x1, then x2, ...
        order = np.lexsort(pts.T[::-1])
        pts = pts[order]
        w = np.ones(len(pts), dtype=complex) if w is None else w[order]
        if len(pts) > 1:
            dup = np.all(pts[1:] == pts[:-1], axis=1)
            if np.any(dup):
                i = int(np.argmax(dup))
                raise ValidationError(f"duplicate point at {pts[i + 1].tolist()}")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) corner vectors of the points; requires a nonempty patch."""
        if len(self) == 0:
            raise ValidationError("empty patch has no bounding box")
        return self.points.min(axis=0), self.points.max(axis=0)

    def to_json(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in self._record().items()}

    def _record(self) -> dict:
        """to_json's object with the points (n, dim) and weights (n, 2) re/im left as arrays."""
        rec = {"dim": self.dim, "points": self.points}
        if np.any(self.weights != 1):
            rec["weights"] = self.weights.view(float).reshape(-1, 2)
        rec["meta"] = _meta_record(self.meta)
        return rec

    @classmethod
    def from_json(cls, obj: dict) -> "WeightedPointSet":
        try:
            dim = obj["dim"]
            if type(dim) is not int:  # a JSON integer; bool is a subclass of int
                raise TypeError(f"'dim' must be an integer, not {json.dumps(dim)}")
            pts = _numbers(obj["points"])
            raw = None if obj.get("weights") is None else _numbers(obj["weights"])
            meta = {} if obj.get("meta") is None else obj["meta"]
            if not isinstance(meta, dict):
                raise TypeError(f"'meta' is a {type(meta).__name__}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"point set needs 'dim', numeric 'points' and 'weights', a 'meta' object: {exc}")
        if pts.size == 0:
            pts = pts.reshape(0, dim)
        w = None
        if raw is not None:
            if raw.shape != (len(pts), 2) and raw.size + len(pts):  # an empty patch may hold []
                raise ValidationError("'weights' must be [[re, im], ...] matching points")
            w = np.ascontiguousarray(raw).reshape(-1, 2).view(complex)[:, 0]  # (re, im) pairs, not copied
        return cls(dim, pts, w, dict(meta))

    def dump(self, fp) -> None:
        _write_parts(_json_parts(self._record()), fp)

    @classmethod
    def load(cls, fp) -> "WeightedPointSet":
        """The point set in the JSON text of fp (text or binary), bare or under "pointset"."""
        return _read_json(fp, "point-set JSON")


def _json_parts(v, nl: str = "\n") -> list:
    """json.dumps(v, sort_keys=True, indent=1, allow_nan=False) as a list of strings and
    lazy iterators of strings, to be written in order by _write_parts. Each (n, d) float
    ndarray is an iterator that joins float.__repr__ of its numbers (json's format)
    _ROW_BLOCK rows at a time. Values other than dicts with str keys and arrays go through
    json.dumps, re-indented (JSON strings hold no raw newline). Every check runs before
    the list is returned: a non-finite array or value raises ValueError, and writing the
    parts cannot fail on a value."""
    deeper = nl + " "
    if isinstance(v, np.ndarray):
        if not np.isfinite(v).all():
            raise ValueError("Out of range float values are not JSON compliant")
        if v.size == 0:
            return ["[]"]
        return [f"[{deeper}[{deeper} ", _json_rows(v, deeper), f"{deeper}]{nl}]"]
    if isinstance(v, dict) and v and all(isinstance(k, str) for k in v):
        parts = []
        for i, k in enumerate(sorted(v)):
            parts.append(f"{',' if i else '{'}{deeper}{json.dumps(k)}: ")
            parts += _json_parts(v[k], deeper)
        return parts + [f"{nl}}}"]
    return [json.dumps(v, sort_keys=True, indent=1, allow_nan=False).replace("\n", nl)]


def _json_rows(v: np.ndarray, deeper: str):
    """The rows of v, from the first row's first number to the last row's last, in
    blocks of _ROW_BLOCK rows; deeper is the indent of the rows' brackets."""
    cell_sep, row_sep = f",{deeper} ", f"{deeper}],{deeper}[{deeper} "
    for i in range(0, len(v), _ROW_BLOCK):
        cells = map(float.__repr__, v[i:i + _ROW_BLOCK].ravel().tolist())
        if v.shape[1] > 1:
            cells = map(cell_sep.join, zip(*[cells] * v.shape[1]))
        if i:
            yield row_sep
        yield row_sep.join(cells)


def _write_parts(parts: list, fp) -> None:
    """Write the strings and string iterators of _json_parts to the text file fp."""
    for part in parts:
        if isinstance(part, str):
            fp.write(part)
        else:
            fp.writelines(part)


def _read_json(fp, what: str) -> WeightedPointSet:
    """The point set in the JSON text of the text or binary file fp, bare or under the
    key "pointset". A text that is not JSON raises ValidationError(f"{what}: ...").

    _parse_rows reads the text when it can; otherwise json.loads reads it, the text of a
    binary file decoded as a text-mode open() decodes it. The two give the same point
    set, or the same error, from every text (tests/test_pointset.py::TestReader)."""
    data = fp.read()
    obj = _parse_rows(data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data)
    if obj is None:
        try:
            obj = json.loads(data if isinstance(data, str) else io.TextIOWrapper(io.BytesIO(data)).read())
        except ValueError as exc:
            raise ValidationError(f"{what}: {exc}") from exc
    del data  # not held while the point set is sorted
    return WeightedPointSet.from_json(obj.get("pointset", obj) if isinstance(obj, dict) else obj)


def _parse_rows(data: bytes):
    """json.loads(data), with its last "points" array, and its last "weights" array if it
    has one, read _READ_CHUNK bytes of whole rows at a time into (n, d) float arrays, so
    that only one chunk's numbers are ever Python floats and no row is a list; None unless
    data is ASCII, each such array is n >= 1 rows of d >= 1 float (not integer) tokens, and
    the rest of data, with the constant NaN in place of the points and Infinity in place of
    the weights, is JSON holding no other NaN or Infinity and holds those constants at
    "points" and "weights" of the object json.loads(data) gives or of its "pointset" (the
    keys whose values json.loads keeps)."""
    cuts = []  # (start, stop, name, rows) of each array cut out
    for name in _HOLES:
        key = b'"%s": [' % name.encode()
        at = data.rfind(key)
        if at < 0:
            if name == "points":
                return None
            continue
        got = _float_rows(data, at + len(key) - 1)
        if got is None:
            return None
        cuts.append((at + len(key) - 1, got[1], name, got[0]))
    cuts.sort(key=lambda cut: cut[0])  # disjoint: an array _float_rows takes holds no key
    parts, p = [], 0
    for start, stop, name, _ in cuts:
        parts += [data[p:start], _HOLES[name][0].encode()]
        p = stop
    rest = b"".join(parts + [data[p:]])
    if not rest.isascii():
        return None
    holes, constants = dict(_HOLES.values()), []
    try:
        obj = json.loads(rest.decode("ascii"), parse_constant=lambda name: constants.append(name) or holes.get(name))
    except ValueError:
        return None
    rec = obj.get("pointset", obj) if isinstance(obj, dict) else None
    if (len(constants) != len(cuts) or not isinstance(rec, dict)
            or any(rec.get(name) is not _HOLES[name][1] for _, _, name, _ in cuts)):
        return None
    for _, _, name, rows in cuts:
        rec[name] = rows
    return obj


def _float_rows(data: bytes, start: int):
    """(rows, stop): the JSON array opening at data[start] as an (n, d) float array, and
    the index just past its "]"; None unless it is n >= 1 rows of d >= 1 float tokens.

    The array's rows are cut, after a row's "]", into chunks of at most _READ_CHUNK bytes
    (longer rows give None). A chunk is accepted when (1) with number characters turned
    into "0" and whitespace deleted, deleting the "0"s leaves k rows "[" + ","*(d-1) + "]"
    joined by ",", and before the "0"s are deleted it starts with "[" and holds "],[" k-1
    times; and (2) json.loads of the chunk with its brackets turned into spaces, inside
    "[...]", reads k*d numbers, none of them an integer token. By (1) every number lies
    in a cell of a row, and by (2) every cell holds one JSON number token, so the chunk
    is JSON and json.loads would read it as those rows of the same floats.
    """
    end = _ARRAY_END.search(data, start + 1)
    if end is None:
        return None
    last = end.start() + 1  # just past the last row's "]"
    rows, i, p, template = None, 0, start + 1, None
    while p < last:
        q = last if p + _READ_CHUNK >= last else data.rfind(b"]", p, p + _READ_CHUNK) + 1
        sep = _ROW_SEP.match(data, q) if q < last else None
        if q <= p or (q < last and sep is None):
            return None
        chunk = data[p:q]
        cells = chunk.translate(_CELLS, b" \t\n\r")
        skeleton = cells.translate(None, b"0")
        if template is None:  # the first row's; d = len(template) - 1
            template = b"[" + b"," * (skeleton.find(b"]") - 1) + b"]"
            # a row for each "[": every chunk accepted counts its rows' brackets
            rows = np.empty((data.count(b"[", p, last), len(template) - 1))
        k = skeleton.count(b"[")
        if skeleton + b"," != (template + b",") * k or cells[:1] != b"[" or cells.count(b"],[") != k - 1:
            return None
        try:
            values = np.array(json.loads(b"[" + chunk.translate(_UNBRACKET) + b"]", parse_int=_no_integer))
        except ValueError:
            return None
        if values.dtype != np.float64 or values.size != k * (len(template) - 1):
            return None
        rows[i : i + k] = values.reshape(k, -1)
        i += k
        p = sep.end() if sep else last
    return rows, end.end()


def _no_integer(token: str):
    raise ValueError(f"integer token {token}")


def _numbers(v) -> np.ndarray:
    """v as a float array; TypeError unless its entries are JSON numbers (not strings or booleans)."""
    arr = np.asarray(v)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"entries must be numbers, not {arr.dtype}")
    if arr.ndim and not isinstance(v, np.ndarray):  # in a list, np.asarray reads a boolean
        # among numbers as 0 or 1: look at the rows holding one
        hit = ((arr == 0) | (arr == 1)).any(axis=tuple(range(1, arr.ndim)))
        items = map(v.__getitem__, np.flatnonzero(hit).tolist())
        for _ in range(arr.ndim - 1):
            items = chain.from_iterable(items)
        if bool in set(map(type, items)):
            raise TypeError("entries must be numbers, not booleans")
    return arr.astype(float, copy=False)


def _meta_record(meta: dict) -> dict:
    rec = dict(meta)
    rec.setdefault("generator", "unknown")
    rec.setdefault("params", {})
    rec.setdefault("seed", None)
    return rec


@dataclass(frozen=True)
class Substitution:
    """Symbolic substitution with a geometric realization.

    Parameters
    ----------
    alphabet : tuple of single-character symbols
    rules : dict symbol -> word (nonempty string over the alphabet)
    lengths : dict symbol -> positive tile length
    seed : symbol the fixed-point iteration starts from
    """

    alphabet: tuple
    rules: dict
    lengths: dict
    seed: str

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        object.__setattr__(self, "alphabet", alphabet)
        if not alphabet or any(not isinstance(s, str) or len(s) != 1 for s in alphabet):
            raise ValidationError("alphabet must be nonempty single-character symbols")
        if len(set(alphabet)) != len(alphabet):
            raise ValidationError("alphabet symbols must be distinct")
        for s in alphabet:
            word = self.rules.get(s)
            if not word or any(c not in alphabet for c in word):
                raise ValidationError(f"rule for {s!r} must be a nonempty word over the alphabet")
            ln = self.lengths.get(s)
            if ln is None or not float(ln) > 0:
                raise ValidationError(f"length for {s!r} must be positive")
        if self.seed not in alphabet:
            raise ValidationError(f"seed symbol {self.seed!r} not in alphabet")

    def incidence_matrix(self) -> np.ndarray:
        """M[i, j] = number of occurrences of alphabet[i] in rules[alphabet[j]]."""
        n = len(self.alphabet)
        m = np.zeros((n, n), dtype=np.int64)
        for j, s in enumerate(self.alphabet):
            for c in self.rules[s]:
                m[self.alphabet.index(c), j] += 1
        return m

    def is_primitive(self) -> bool:
        """Entrywise positivity of the |alphabet|^2-th incidence-matrix power.

        Works on the 0/1 positivity pattern so large powers cannot overflow.
        """
        n = len(self.alphabet)
        base = (self.incidence_matrix() > 0).astype(np.int64)
        power = np.eye(n, dtype=np.int64)
        exp = n * n
        while exp:
            if exp & 1:
                power = np.minimum(power @ base, 1)
            base = np.minimum(base @ base, 1)
            exp >>= 1
        return bool(np.all(power > 0))


_NAMED_SUBSTITUTIONS = {
    "fibonacci": dict(
        alphabet=("a", "b"),
        rules={"a": "ab", "b": "a"},
        lengths={"a": (1 + np.sqrt(5)) / 2, "b": 1.0},
        seed="a",
    ),
    "thue-morse": dict(
        alphabet=("a", "b"),
        rules={"a": "ab", "b": "ba"},
        lengths={"a": 1.0, "b": 1.0},
        seed="a",
    ),
    "silver-mean": dict(
        alphabet=("a", "b"),
        rules={"a": "aab", "b": "a"},
        lengths={"a": 1 + np.sqrt(2), "b": 1.0},
        seed="a",
    ),
}


def named_substitution(name: str) -> Substitution:
    """Built-in substitution presets: fibonacci, thue-morse, silver-mean."""
    try:
        return Substitution(**_NAMED_SUBSTITUTIONS[name])
    except KeyError:
        known = ", ".join(sorted(_NAMED_SUBSTITUTIONS))
        raise ValidationError(f"unknown substitution {name!r}; presets: {known}")


def lattice_points(dim: int, box: Box, spacing: float) -> WeightedPointSet:
    """All points of spacing * Z^dim inside the half-open box, weight 1."""
    if dim < 1:
        raise ValidationError(f"dim must be at least 1, got {dim}")
    if box.dim != dim:
        raise ValidationError(f"box dimension {box.dim} != dim {dim}")
    if not (spacing > 0 and np.isfinite(spacing)):
        raise ValidationError(f"spacing must be positive and finite, got {spacing}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed bound gives inf or nan
        k0, k1 = np.ceil(box.lo / spacing), np.ceil(box.hi / spacing)
        count = float(np.prod(k1 - k0))
    if not count <= _LATTICE_CAP:
        raise ResourceLimitError(
            f"lattice of spacing {spacing} in this box has {count:.3g} points, over {_LATTICE_CAP}"
        )
    axes = [spacing * np.arange(int(a), int(b), dtype=float) for a, b in zip(k0, k1)]
    grids = np.meshgrid(*axes, indexing="ij") if dim > 1 else [axes[0]]
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[box.contains(pts)]  # guard float edge cases of the ceil bounds
    meta = {
        "generator": "lattice",
        "params": {"dim": dim, "box": box.to_json(), "spacing": spacing},
        "seed": None,
    }
    return WeightedPointSet(dim, pts, None, meta)


def substitution_fixed_point(s: Substitution, min_length: int) -> str:
    """Prefix of the one-sided fixed point with length >= min_length.

    Iterates the rules starting from the seed symbol. The first iterate whose
    length reaches min_length is returned untruncated. Each step builds
    sigma^(n+1)(c) = sigma^n(rules[c]) for every letter c from the level-n
    images, a join of a few long strings in place of one per letter of the word.
    """
    if min_length < 1:
        raise ValidationError(f"min_length must be at least 1, got {min_length}")
    if s.rules[s.seed][0] != s.seed:
        raise ValidationError(
            f"rule for seed {s.seed!r} must begin with the seed symbol "
            f"(got {s.rules[s.seed]!r}); the iteration has no fixed point otherwise"
        )
    if not s.is_primitive():
        raise ValidationError("substitution is not primitive")
    images = {c: c for c in s.alphabet}
    w = s.seed
    while len(w) < min_length:
        images = {c: "".join(images[d] for d in s.rules[c]) for c in s.alphabet}
        if len(images[s.seed]) == len(w):
            raise ValidationError("substitution does not expand; fixed point is finite")
        w = images[s.seed]
    return w


def word_to_pointset(w: str, lengths: dict, origin: float = 0.0) -> WeightedPointSet:
    """1D chain of tile left endpoints: one point per letter, weight 1.

    Point i sits at origin + sum of the lengths of the letters before i.
    """
    if not w:
        raise ValidationError("word is empty")
    try:
        lens = np.array([float(lengths[c]) for c in w])
    except KeyError as exc:
        raise ValidationError(f"no length for symbol {exc.args[0]!r}")
    if not np.all(lens > 0):
        raise ValidationError("tile lengths must be positive")
    pts = float(origin) + np.concatenate([[0.0], np.cumsum(lens[:-1])])
    meta = {
        "generator": "word",
        "params": {"lengths": {k: float(v) for k, v in sorted(lengths.items())},
                   "origin": float(origin), "letters": len(w)},
        "seed": None,
    }
    return WeightedPointSet(1, pts[:, None], None, meta)


def density(wps: WeightedPointSet, box: Box) -> float:
    """Weight sum over the box divided by its volume (real part).

    The caller is responsible for the box lying inside the generated region;
    points are simply filtered by membership.
    """
    if box.dim != wps.dim:
        raise ValidationError(f"box dimension {box.dim} != patch dimension {wps.dim}")
    mask = box.contains(wps.points) if len(wps) else np.zeros(0, dtype=bool)
    total = complex(wps.weights[mask].sum()) if len(wps) else 0.0
    return float(np.real(total)) / box.volume


def min_separation(wps: WeightedPointSet) -> float:
    """Minimal pairwise distance.

    1D patches use the sorted adjacent gap (exact, O(n)); higher dimensions
    search a grid of cells a little wider than a known pair (_closest_pair),
    exact and in numpy alone.
    """
    if len(wps) < 2:
        raise ValidationError(f"min_separation needs at least 2 points, got {len(wps)}")
    return _min_separation_raw(wps.points)


def _min_separation_raw(pts: np.ndarray) -> float:
    with np.errstate(under="ignore", over="ignore"):
        if pts.shape[1] == 1:  # a gap past the float range rounds to inf
            return float(np.diff(pts[:, 0]).min())
        h2 = _closest_pair(pts)
    if sys.float_info.min <= h2 < math.inf:  # the least square neither under- nor overflowed
        return math.sqrt(h2)
    # again on the points scaled by 2**-k, 2**k the power of two just above the largest
    # span, so that no square overflows; zero-span axes, whose coordinates could, are dropped
    span = np.ptp(pts, axis=0)
    if not span.any():
        return 0.0
    k = math.frexp(float(span.max()))[1]
    return math.ldexp(math.sqrt(_closest_pair(np.ldexp(pts[:, span > 0], -k))), k)


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a and b, the squares summed in axis order."""
    d2 = (a[:, 0] - b[:, 0]) ** 2
    for k in range(1, a.shape[1]):
        d2 += (a[:, k] - b[:, k]) ** 2
    return d2


def _closest_pair(pts: np.ndarray) -> float:
    """Least squared distance between two of the n >= 2 rows of pts, in 2D or more.

    Exact: the least squared distance, the squares summed in axis order, whose sqrt is
    also the float a k-d tree query or a brute-force search returns. The least gap h
    between neighbours in a sort along axis 0 is the length of a real pair, so the
    closest pair lies in one cell, or two neighbouring cells, of a grid whose cells are
    a little wider than h; the margin absorbs the rounding of the cell indices. Only
    those pairs are measured, _PAIR_BLOCK at a time. A grid too fine for int64 cell
    keys, or for cell indices to stay within the margin, is coarsened: it finds the
    same pair among more candidates. Once, h is lowered to the least gap between
    neighbours inside a cell, and the grid rebuilt if that halves it (crowded cells,
    as in tight columns). An h**2 of 0 or inf is returned at once: the caller rescales
    an inf, which would put every point in one cell.
    """
    n, dim = pts.shape
    lo, span = pts.min(axis=0), np.ptp(pts, axis=0)
    by_x = pts[np.argsort(pts[:, 0], kind="stable")]
    h2 = _sq_dist(by_x[1:], by_x[:-1]).min()
    for regrid in (True, False):
        if not 0 < h2 < math.inf:
            return h2
        cell = max(math.sqrt(h2) * (1 + 2.0**-20), span.max() / _GRID_AXIS)
        while math.prod(int(c) for c in np.floor(span / cell) + 1) > 2**62:
            cell *= 2
        shape = np.floor(span / cell).astype(np.int64) + 1
        strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
        idx = np.floor((pts - lo) / cell).astype(np.int64)
        key = idx @ strides
        order, head = _lexorder([key])
        key, q = key[order], pts[order]
        same = ~head[1:]
        if not same.any():
            break
        inner = _sq_dist(q[1:][same], q[:-1][same]).min()
        if not (regrid and 4 * inner <= h2):
            break
        h2 = inner
    first = np.flatnonzero(head)
    count = np.diff(np.append(first, n))
    ukey, ucell = key[first], idx[order[first]]
    # cell pairs: each crowded cell with itself, each cell with its forward neighbours
    crowded = np.flatnonzero(count > 1)
    a, b = [crowded], [crowded]
    for step in product((-1, 0, 1), repeat=dim):
        if step <= (0,) * dim:
            continue
        near = ucell + step
        inside = np.flatnonzero(((near >= 0) & (near < shape)).all(axis=1))
        nkey = ukey[inside] + np.dot(step, strides)
        j = np.searchsorted(ukey, nkey).clip(max=len(ukey) - 1)
        hit = ukey[j] == nkey
        a.append(inside[hit])
        b.append(j[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    pairs = count[a] * count[b]
    ends, total = np.cumsum(pairs), int(pairs.sum())
    for t0 in range(0, total, _PAIR_BLOCK):
        t = np.arange(t0, min(t0 + _PAIR_BLOCK, total))
        c = np.searchsorted(ends, t, side="right")
        t -= ends[c] - pairs[c]
        width = count[b[c]]
        i, j = first[a[c]] + t // width, first[b[c]] + t % width
        keep = i < j  # a cell with itself gives every ordered pair
        if keep.any():
            h2 = min(h2, _sq_dist(q[i[keep]], q[j[keep]]).min())
    return h2
