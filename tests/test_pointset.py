import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasidiff import (
    Box,
    Substitution,
    ValidationError,
    WeightedPointSet,
    autocorrelation,
    density,
    lattice_points,
    min_separation,
    named_substitution,
    substitution_fixed_point,
    word_to_pointset,
)
from quasidiff import pointset
from quasidiff.cli import _load_pointset
from quasidiff.pointset import _json_parts, _min_separation_raw, _parse_rows, _write_parts

TAU = (1.0 + np.sqrt(5.0)) / 2.0


class TestWeightedPointSet:
    def test_canonical_sort(self):
        wps = WeightedPointSet(1, [3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert wps.points[:, 0].tolist() == [1.0, 2.0, 3.0]
        assert wps.weights.real.tolist() == [2.0, 3.0, 1.0]

    def test_sort_lexicographic_2d(self):
        wps = WeightedPointSet(2, [[1.0, 5.0], [0.0, 9.0], [1.0, 2.0]])
        assert wps.points.tolist() == [[0.0, 9.0], [1.0, 2.0], [1.0, 5.0]]

    def test_default_weights(self):
        wps = WeightedPointSet(1, [0.0, 1.0])
        assert np.all(wps.weights == 1.0 + 0j)

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            WeightedPointSet(1, [0.0, 1.0, 1.0])

    def test_arrays_read_only(self):
        wps = WeightedPointSet(1, [0.0, 1.0])
        with pytest.raises(ValueError):
            wps.points[0, 0] = 5.0

    def test_empty_patch(self):
        wps = WeightedPointSet(2, [])
        assert len(wps) == 0
        with pytest.raises(ValidationError):
            wps.bounding_box

    def test_json_round_trip_bit_equal(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-5, 5, (40, 2))
        w = rng.normal(size=40) + 1j * rng.normal(size=40)
        wps = WeightedPointSet(2, pts, w, {"generator": "test", "params": {}, "seed": 1})
        buf = io.StringIO()
        wps.dump(buf)
        buf.seek(0)
        back = WeightedPointSet.load(buf)
        assert np.array_equal(back.points, wps.points)
        assert np.array_equal(back.weights, wps.weights)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            WeightedPointSet(1, [0.0, np.nan])
        with pytest.raises(ValidationError):
            WeightedPointSet(1, [0.0, 1.0], [1.0, np.inf])


class TestLattice:
    def test_unit_count(self):
        wps = lattice_points(1, Box([0.0], [1000.0]), 1.0)
        assert len(wps) == 1000
        assert wps.points[0, 0] == 0.0 and wps.points[-1, 0] == 999.0

    def test_spacing(self):
        wps = lattice_points(1, Box([0.0], [10.0]), 0.5)
        assert len(wps) == 20
        for bad in (0.0, -0.5, float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="spacing"):
                lattice_points(1, Box([0.0], [10.0]), bad)

    def test_point_cap(self, monkeypatch):
        from quasidiff import ResourceLimitError, pointset

        monkeypatch.setattr(pointset, "_LATTICE_CAP", 20)
        assert len(lattice_points(2, Box([0.0, 0.0], [4.0, 5.0]), 1.0)) == 20
        monkeypatch.setattr(pointset, "_LATTICE_CAP", 19)
        with pytest.raises(ResourceLimitError):
            lattice_points(2, Box([0.0, 0.0], [4.0, 5.0]), 1.0)
        monkeypatch.undo()

        def no_arange(*args, **kwargs):
            raise AssertionError("points enumerated")

        monkeypatch.setattr(pointset.np, "arange", no_arange)
        # too many points, and a bound that overflows to inf
        for box, spacing in ((Box([0.0], [1e12]), 1.0), (Box([0.0], [10.0]), 1e-320)):
            with pytest.raises(ResourceLimitError):
                lattice_points(1, box, spacing)

    def test_2d(self):
        wps = lattice_points(2, Box([0.0, 0.0], [4.0, 5.0]), 1.0)
        assert len(wps) == 20

    def test_negative_box(self):
        wps = lattice_points(1, Box([-2.5], [2.5]), 1.0)
        assert wps.points[:, 0].tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_density_one(self):
        box = Box([0.0], [500.0])
        assert density(lattice_points(1, box, 1.0), box) == pytest.approx(1.0)


class TestSubstitution:
    def test_fibonacci_incidence(self):
        s = named_substitution("fibonacci")
        assert s.incidence_matrix().tolist() == [[1, 1], [1, 0]]

    def test_primitivity(self):
        assert named_substitution("fibonacci").is_primitive()
        assert named_substitution("thue-morse").is_primitive()
        lazy = Substitution(("a", "b"), {"a": "ab", "b": "b"}, {"a": 1.0, "b": 1.0}, "a")
        assert not lazy.is_primitive()

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="presets"):
            named_substitution("penrose")

    def test_fixed_point_prefix_property(self):
        # sigma(w) has w as a prefix, so successive iterates agree
        s = named_substitution("fibonacci")
        w = substitution_fixed_point(s, 1000)
        image = "".join(s.rules[c] for c in w)
        assert image[: len(w)] == w

    @pytest.mark.parametrize(
        "s",
        [
            named_substitution("fibonacci"),
            named_substitution("thue-morse"),
            named_substitution("silver-mean"),
            Substitution(("a", "b", "c"), {"a": "acb", "b": "c", "c": "ba"}, {"a": 1.0, "b": 1.0, "c": 1.0}, "a"),
        ],
        ids=["fibonacci", "thue-morse", "silver-mean", "three-letters"],
    )
    @pytest.mark.parametrize("min_length", [1, 2, 7, 1000, 54321])
    def test_fixed_point_is_the_letterwise_iterate(self, s, min_length):
        w = s.seed
        while len(w) < min_length:
            w = "".join(s.rules[c] for c in w)
        assert substitution_fixed_point(s, min_length) == w

    def test_fixed_point_of_a_non_expanding_substitution(self):
        s = Substitution(("a",), {"a": "a"}, {"a": 1.0}, "a")
        assert substitution_fixed_point(s, 1) == "a"
        with pytest.raises(ValidationError, match="does not expand"):
            substitution_fixed_point(s, 2)

    def test_fibonacci_word_recurrence(self):
        # independent construction: w_{n+1} = w_n + w_{n-1}
        s = named_substitution("fibonacci")
        a, b = "a", "ab"
        while len(b) < 500:
            a, b = b, b + a
        assert substitution_fixed_point(s, 500)[:500] == b[:500]

    def test_letter_frequency(self):
        w = substitution_fixed_point(named_substitution("fibonacci"), 10946)
        ratio = w.count("a") / len(w)
        assert ratio == pytest.approx(1 / TAU, abs=1e-4)

    def test_seed_must_start_rule(self):
        s = Substitution(("a", "b"), {"a": "ba", "b": "a"}, {"a": 1.0, "b": 1.0}, "a")
        with pytest.raises(ValidationError, match="seed"):
            substitution_fixed_point(s, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alphabet=(), rules={}, lengths={}, seed="a"),
            dict(alphabet=("a",), rules={"a": ""}, lengths={"a": 1.0}, seed="a"),
            dict(alphabet=("a",), rules={"a": "ax"}, lengths={"a": 1.0}, seed="a"),
            dict(alphabet=("a",), rules={"a": "aa"}, lengths={"a": 0.0}, seed="a"),
            dict(alphabet=("a",), rules={"a": "aa"}, lengths={"a": 1.0}, seed="b"),
        ],
    )
    def test_invalid_substitutions(self, kwargs):
        with pytest.raises(ValidationError):
            Substitution(**kwargs)


class TestWordToPointset:
    def test_positions_are_prefix_sums(self):
        wps = word_to_pointset("aba", {"a": 2.0, "b": 0.5})
        assert wps.points[:, 0].tolist() == [0.0, 2.0, 2.5]

    def test_origin(self):
        wps = word_to_pointset("ab", {"a": 1.0, "b": 1.0}, origin=-3.0)
        assert wps.points[0, 0] == -3.0

    def test_missing_length(self):
        with pytest.raises(ValidationError, match="no length"):
            word_to_pointset("abc", {"a": 1.0, "b": 1.0})

    def test_gap_values_golden_chain(self):
        s = named_substitution("fibonacci")
        w = substitution_fixed_point(s, 200)
        wps = word_to_pointset(w, s.lengths)
        gaps = np.unique(np.round(np.diff(wps.points[:, 0]), 9))
        assert gaps.tolist() == pytest.approx([1.0, TAU], abs=1e-9)


def _brute_separation(pts):
    """Least distance over all pairs, the squares summed in axis order."""
    d = pts[:, None, :] - pts[None, :, :]
    d2 = d[..., 0] ** 2
    for k in range(1, pts.shape[1]):
        d2 += d[..., k] ** 2
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min()))


@st.composite
def _layouts(draw):
    """Rows in random order: random sets, lattices, tight columns or two points, in 2D to
    4D, at several scales, some offset by 1e9."""
    dim = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "lattice", "columns", "two"]))
    if kind == "random":
        pts = rng.random((draw(st.integers(2, 300)), dim))
    elif kind == "lattice":
        side = draw(st.integers(2, {2: 15, 3: 6, 4: 4}[dim]))
        axes = np.meshgrid(*[np.arange(float(side))] * dim, indexing="ij")
        pts = np.stack(axes, -1).reshape(-1, dim) + draw(st.sampled_from([0.0, 0.5]))
    elif kind == "columns":  # near-coincident columns: the sort along axis 0 sees only far pairs
        cols, rows = draw(st.integers(2, 30)), draw(st.integers(2, 40))
        pts = np.zeros((cols * rows, dim))
        pts[:, 0] = np.repeat(np.arange(cols) * draw(st.sampled_from([1e-6, 1e-3])), rows)
        pts[:, 1] = np.tile(np.arange(float(rows)), cols)
        pts[:, 2:] = rng.integers(0, 3, (cols * rows, dim - 2))
    else:
        pts = rng.random((2, dim))
    pts = pts * draw(st.sampled_from([1.0, 0.1, 1e-3, 1e4]))
    if draw(st.booleans()):
        pts = pts + 1e9
    return pts[rng.permutation(len(pts))]


class TestMinSeparation:
    def test_1d(self):
        wps = WeightedPointSet(1, [0.0, 0.25, 1.0])
        assert min_separation(wps) == 0.25

    def test_2d(self):
        wps = WeightedPointSet(2, [[0.0, 0.0], [1.0, 0.0], [0.0, 0.3]])
        assert min_separation(wps) == 0.3

    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            min_separation(WeightedPointSet(1, [1.0]))

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=60, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, coords):
        pts = np.array(coords, dtype=float) * 0.001
        wps = WeightedPointSet(1, pts)
        brute = min(
            abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]
        )
        assert min_separation(wps) == pytest.approx(brute)

    @given(_layouts())
    @settings(max_examples=60, deadline=None)
    def test_grid_matches_brute_force_and_kd_tree(self, pts):
        from scipy.spatial import cKDTree

        want = _brute_separation(pts)
        assert want == float(cKDTree(pts).query(pts, k=2)[0][:, 1].min())
        assert _min_separation_raw(pts) == want
        if want > 0:  # a patch holds no duplicate point
            assert min_separation(WeightedPointSet(pts.shape[1], pts)) == want

    @given(_layouts(), st.integers(-565, 531))  # scales from 1e-170 to 1e160
    @settings(max_examples=60, deadline=None)
    def test_any_scale_matches_brute_force(self, pts, e):
        # a power-of-two scale is exact, so the brute force on the unscaled points,
        # scaled, is the separation; without rescaling, squares of differences near
        # 1e-170 underflow to 0 and near 1e160 overflow
        with np.errstate(all="raise"):
            assert _min_separation_raw(np.ldexp(pts, e)) == np.ldexp(_brute_separation(pts), e)

    @given(_layouts(), st.integers(-480, 400), st.integers(0, 600))
    @settings(max_examples=60, deadline=None)
    def test_far_point_keeps_the_unscaled_bits(self, pts, e, gap):
        # one far point stretches the span up to 2**600 times the separation; wherever
        # the least square of the brute force on the points as given is normal, its
        # sqrt is the separation
        pts = np.ldexp(pts, e)
        pts = np.vstack([pts, pts.max(axis=0) + np.ldexp(1.0, e + gap)])
        with np.errstate(all="ignore"):
            want = _brute_separation(pts)
        assume(want**2 >= sys.float_info.min)
        with np.errstate(all="raise"):
            assert _min_separation_raw(pts) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("pts, want", [
        ([[0.0, 0.0], [1e-170, 0.0], [0.0, 3e-170]], 1e-170),
        ([[0.0, 0.0], [1e160, 0.0], [0.0, 3e160]], 1e160),
        ([[1e300, 0.0], [1e300, 1e-170], [1e300, 3e-170]], 1e-170),  # an axis of zero span
        ([[0.0, 0.0], [1e-100, 0.0], [1e100, 0.0]], 1e-100),  # squares normal as given, not scaled by the span
        # the pairs of the sort along axis 0 square to normals, the closest pair to 0
        ([[0.0, 0.0], [2.0**-570, 2.0**-460], [3 * 2.0**-570, 4 * 2.0**-570]], 5 * 2.0**-570),
        # the least square stays 0 after scaling by the span: the candidate pairs are measured
        ([[0.0, 0.0], [1e-200, 0.0], [1e-30, 0.0]], 1e-200),
        # a span past the float range: scaled by 2**-1024 before any grid is built
        ([[-1e308, 0.0], [-1e308, 1.0], [1e308, 0.0]], 1.0),
    ])
    def test_extreme_spacing(self, pts, want):
        assert min_separation(WeightedPointSet(2, pts)) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_pair_below_the_normal_range(self, dim, seed):
        # random points, one of them moved near the origin and one more point 2**-600 to
        # 2**-1000 of the span away from it: their square is 0 or subnormal, scaled or not
        rng = np.random.default_rng(seed)
        t, e = int(rng.integers(600, 1001)), int(rng.integers(-20, 21))
        pts = rng.random((100, dim))
        pts[0] = np.ldexp(rng.random(dim), -t)
        pts = np.ldexp(np.vstack([pts, pts[0] + np.ldexp(rng.uniform(-1.0, 1.0, dim), -t)]), e)
        want = math.hypot(*(pts[-1] - pts[0]))
        got = min_separation(WeightedPointSet(dim, pts))
        assert abs(got - want) <= math.ulp(want)

    def test_tiny_spacing_builds_a_patch(self):
        # the default bin_epsilon is 1e-6 times the separation, which must not read 0
        wps = WeightedPointSet(2, [[0.0, 0.0], [1e-170, 0.0], [0.0, 3e-170]])
        patch = autocorrelation(wps, Box([-1.0, -1.0], [1.0, 1.0]))
        assert patch.bin_epsilon == 1e-6 * 1e-170 and len(patch) == 7

    def test_crowded_cell_memory(self):
        # one far point coarsens the grid until the cluster shares a cell: 4e6
        # candidate pairs, measured 2**15 at a time
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.random((2000, 2)), [[1e12, 0.5]]])
        tracemalloc.start()
        try:
            got = _min_separation_raw(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == _brute_separation(pts)
        assert peak < 6 * 2**20


# floats whose shortest repr takes each form: signed zero, subnormal, exponent, largest
_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-5, 1e22, sys.float_info.max, -1.5]) | st.floats(
    allow_nan=False, allow_infinity=False
)
_TEXT = st.sampled_from(['"points": [', "line\nbreak", 'quote " and \\', "\u00e9\u2028", ""]) | st.text(max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT,
    lambda c: st.lists(c, max_size=3) | st.dictionaries(_TEXT, c, max_size=3)
    | st.dictionaries(st.integers(), c, max_size=2),
    max_leaves=12,
)


@st.composite
def _float_arrays(draw):
    n, d = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    return np.array(draw(st.lists(_FLOATS, min_size=n * d, max_size=n * d)), dtype=float).reshape(n, d)


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    return {k: _plain(x) for k, x in v.items()} if isinstance(v, dict) else v


def _dumps(v):
    return json.dumps(_plain(v), sort_keys=True, indent=1, allow_nan=False)


def _json_text(v, blocks=(1, 2, pointset._ROW_BLOCK)):
    """The text _write_parts writes of _json_parts(v), which must not depend on how many
    rows of an array are formatted at a time (each of blocks)."""
    texts = set()
    for block in blocks:
        buf = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pointset, "_ROW_BLOCK", block)
            _write_parts(_json_parts(v), buf)
        texts.add(buf.getvalue())
    assert len(texts) == 1
    return texts.pop()


class TestJsonText:
    @given(st.recursive(_float_arrays() | _JSON, lambda c: st.dictionaries(_TEXT, c, max_size=4), max_leaves=8))
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, obj):
        assert _json_text(obj) == _dumps(obj)

    @given(
        dim=st.integers(1, 3),
        n=st.integers(0, 6),
        weighted=st.booleans(),
        note=_TEXT,
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_point_set_record(self, dim, n, weighted, note, data):
        coords = data.draw(st.lists(_FLOATS, min_size=n * dim, max_size=n * dim, unique=True))
        w = np.array(data.draw(st.lists(_FLOATS, min_size=2 * n, max_size=2 * n))).reshape(n, 2)
        wps = WeightedPointSet(dim, np.array(coords).reshape(n, dim), w.view(complex)[:, 0] if weighted else None,
                               {"generator": "test", "params": {}, "seed": None, "note": note})
        # the record as json.dumps was given it before the writer took arrays
        ref = {"dim": dim, "points": wps.points.tolist(), "meta": wps.meta}
        if np.any(wps.weights != 1):
            ref["weights"] = [[z.real, z.imag] for z in wps.weights]
        want = json.dumps(ref, sort_keys=True, indent=1, allow_nan=False)
        assert json.dumps(wps.to_json(), sort_keys=True, indent=1, allow_nan=False) == want
        assert _json_text(wps._record()) == want
        buf = io.StringIO()
        wps.dump(buf)
        assert buf.getvalue() == want

    def test_empty_containers(self):
        obj = {"a": {}, "b": [], "c": np.zeros((0, 2)), "d": {"e": {}}}
        assert _json_text(obj) == _dumps(obj)
        assert _json_text({}) == "{}" and _json_text([]) == "[]"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            _json_text({"points": np.array([[0.0], [bad]])})
        with pytest.raises(ValueError):
            _json_text({"meta": {"x": [bad]}})

    @pytest.mark.parametrize("block", [1, 2, pointset._ROW_BLOCK])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_either_side_of_a_block_boundary(self, block, dim):
        rng = np.random.default_rng(dim)
        for n in {1, block - 1, block, block + 1, 2 * block - 1, 2 * block + 1} - {0}:
            wps = WeightedPointSet(dim, rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 300, (n, dim)))
            rec = {"pointset": wps._record()}
            assert _json_text(rec, [block]) == _dumps(rec), n

    def test_parts_are_checked_before_they_are_returned(self):
        # a non-finite value after an array raises before any part is handed out
        with pytest.raises(ValueError):
            _json_parts({"a": np.zeros((3, 1)), "b": np.inf})
        parts = _json_parts({"a": np.zeros((3, 1))})
        assert any(not isinstance(p, str) for p in parts)  # the rows stay lazy until written


def _pointset_outcome(read):
    """("ok", dim, bits of points and weights, meta) of read(), or ("error", message)."""
    try:
        wps = read()
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", wps.dim, wps.points.view(np.int64).tolist(), wps.weights.view(np.int64).tolist(), repr(wps.meta)


def _reference_outcome(path: Path):
    """What the point-set reader gave before it read in chunks: json.loads of the text
    Path.read_text gives, then from_json of the object or of its "pointset"."""
    def read():
        try:
            obj = json.loads(path.read_text())
        except ValueError as exc:
            raise ValidationError(f"point-set file {path}: {exc}")
        return WeightedPointSet.from_json(obj.get("pointset", obj) if isinstance(obj, dict) else obj)
    return _pointset_outcome(read)


@st.composite
def _pointset_files(draw):
    """The bytes of a valid point-set file, bare or under "pointset", as the program writes them."""
    dim, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    coords = draw(st.lists(_FLOATS, min_size=n * dim, max_size=n * dim, unique=True))
    w = np.array(draw(st.lists(_FLOATS, min_size=2 * n, max_size=2 * n))).reshape(n, 2).view(complex)[:, 0]
    wps = WeightedPointSet(dim, np.array(coords).reshape(n, dim), w if draw(st.booleans()) else None,
                           {"generator": "test", "note": draw(_TEXT), "basis": [[1.0, 2.0]]})
    rec = wps._record()
    return _json_text({"config": {"input": "x.json"}, "pointset": rec} if draw(st.booleans()) else rec).encode()


# bytes a mutation may insert: number characters, structure, whitespace and the starts of other tokens
_MUTATIONS = st.sampled_from([b"0", b"7", b"-", b"+", b".", b"e", b"E", b"[", b"]", b",", b" ", b"\n", b"\r",
                              b'"', b"-0", b"12", b"1e400", b"[]", b"NaN", b"Infinity", b"true", b"\xc3\xa9"])

# texts the reader must read as json.loads does: the number forms, empty and ragged rows, stray
# commas and brackets, constants, duplicate and nested "points" keys, encodings
_PINNED_FILES = [
    b'{"dim": 1, "points": [[-0.0], [1.5]]}',
    b'{"dim": 1, "points": [[-0], [1.5]]}',
    b'{"dim": 1, "points": [[1], [2]]}',
    b'{"dim": 1, "points": [[1.5], [2]]}',
    b'{"dim": 1, "points": [[1.5], [' + b"9" * 400 + b']]}',
    b'{"dim": 1, "points": [[1e400], [1.5]]}',
    b'{"dim": 1, "points": [[1E5], [1e-5], [2.5e+3]]}',
    b'{"dim": 1, "points": [[+1.0], [2.0]]}',
    b'{"dim": 1, "points": [[.5], [2.0]]}',
    b'{"dim": 1, "points": [[1.], [2.0]]}',
    b'{"dim": 1, "points": [[01.5], [2.0]]}',
    b'{"dim": 1, "points": []}',
    b'{"dim": 1, "points": [[]]}',
    b'{"dim": 1, "points": [[], [1.0]]}',
    b'{"dim": 2, "points": [[1.0, 2.0], [3.0]]}',
    b'{"dim": 2, "points": [[1.0], [2.0, 3.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0],]}',
    b'{"dim": 1, "points": [[1.0,], [2.0]]}',
    b'{"dim": 2, "points": [[1.0,]2.0, [3.0, 4.0]]}',
    b'{"dim": 2, "points": [[1.0, 2.0], 3.0[4.0]]}',
    b'{"dim": 1, "points": [5.0 []]}',
    b'{"dim": 1, "points": [[1.0], 5.0 []]}',
    b'{"dim": 1, "points": [[1.0] [2.0]]}',
    b'{"dim": 1, "points": [[1.0],, [2.0]]}',
    b'{"dim": 1, "points": [[1.0]]]}',
    b'{"dim": 1, "points": [[[1.0]]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]',
    b'{"dim": 1, "points": [[NaN], [1.0]]}',
    b'{"dim": 1, "points": [[true], [1.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"x": NaN}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"x": -Infinity}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"x": "NaN"}}',
    b'{"dim": 1, "points": [[1.0]], "points": [[2.0], [3.0]]}',
    b'{"dim": 1, "points": [[2.0], [3.0]], "points": [[1.0]]}',
    b'{"dim": 1, "points": [[2.0], [3.0]], "points": "x"}',
    b'{"dim": 1, "meta": {"points": [[5.0]]}, "points": [[1.0], [2.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"points": [[5.0]]}}',
    b'{"dim": 1, "a\\"points": [[1.0]], "points": [[2.0]]}',
    b'{"dim": 1, "meta": {"a\\"points": [[1.0]]}}',
    b'{"pointset": {"dim": 1, "points": [[1.0], [2.0]]}, "points": [[3.0]]}',
    b'{"pointset": [1], "points": [[1.0]]}',
    b'{"pointset": {"dim": 1, "meta": {"points": [[1.0]]}}}',
    b'[{"dim": 1, "points": [[1.0]]}]',
    b'{"dim": true, "points": [[1.0]]}',
    b'{"dim": 2, "points": [[1.0], [2.0]]}',
    b'{"dim": 1, "points": [[1.0], [1.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1, 0], [0.5, 0.5]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1, 0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, -0.0], [0.5, 0.5]]}',
    b'{"dim": 1, "weights": [[0.5, 0.0], [2.0, 1.0]], "points": [[2.0], [1.0]]}',
    b'{"pointset": {"dim": 1, "points": [[1.0], [2.0]], "weights": [[2.0, 1e-300], [1E5, .5]]}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": []}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": null}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0], [0.5, 0.5]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0, 2.0], [0.5, 0.5, 1.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0], [0.5, 0.5],]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0], [0.5, 0.5]]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0], [0.5 0.5]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[NaN, 0.0], [0.5, 0.5]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1e400, 0.0], [0.5, 0.5]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[true, 0.0], [0.5, 0.5]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [["1.0", 0.0], [0.5, 0.5]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0], [0.5, 0.5]], "meta": {"x": Infinity}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0], [0.5, 0.5]], "meta": {"x": NaN}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0], [2.0, 0.0]], "weights": [[3.0, 0.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[3.0, 0.0]], "weights": [[1.0, 0.0], [2.0, 0.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"weights": [[5.0, 0.0], [6.0, 0.0]]}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[5.0, 0.0], [6.0, 0.0]], "meta": {"weights": [[1.0, 0.0]]}}',
    b'{"dim": 1, "meta": {"a\\"weights": [[1.0, 0.0]]}, "points": [[1.0]]}',
    b'{"dim": 1, "weights": [[1.0, 0.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "weights": [[1.0, 0.0], [0.5, 0.5]], "meta": {"note": "\xc3\xa9"}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"note": "\xc3\xa9"}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"note": "\\u00e9"}}',
    b'{"dim": 1, "points": [[1.0], [2.0]], "meta": {"note": "\xff"}}',
    b'\xef\xbb\xbf{"dim": 1, "points": [[1.0], [2.0]]}',
    b'{"dim": 1,\r\n "points": [\r\n  [\r\n   1.0\r\n  ],\r\n  [2.0]\r\n ]\r\n}',
    b'{"dim": 1, "points":[[1.0], [2.0]]}',
    b'{"dim": 1, "points": [[1.0], [2.0]]} x',
    b'{"dim": 1, "points": [[1.0],\x0c[2.0]]}',
    b"{not json",
    b"",
]


class TestReader:
    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader") / "p.json"

    def _same(self, scratch, data: bytes):
        """The outcome of reading data, the same as the reference's with chunks shorter than
        some rows (which fall back to json.loads), of a row or a few (at most 95 bytes a row
        here), and of _READ_CHUNK bytes."""
        scratch.write_bytes(data)
        want = _reference_outcome(scratch)
        for chunk in (16, 128, pointset._READ_CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pointset, "_READ_CHUNK", chunk)
                assert _pointset_outcome(lambda: _load_pointset(str(scratch))) == want, (chunk, data)
        return want

    @pytest.mark.parametrize("data", _PINNED_FILES)
    def test_pinned_files(self, scratch, data):
        self._same(scratch, data)

    @given(data=_pointset_files())
    @settings(max_examples=60, deadline=None)
    def test_valid_files_read_in_chunks(self, scratch, data):
        assert self._same(scratch, data)[0] == "ok"
        with pytest.MonkeyPatch.context() as mp:  # the program's own files do not fall back
            mp.setattr(pointset, "_READ_CHUNK", 128)
            assert _parse_rows(data) is not None

    @given(data=_pointset_files(), at=st.floats(0, 1, exclude_max=True), cut=st.integers(0, 3),
           insert=_MUTATIONS)
    @settings(max_examples=200, deadline=None)
    def test_mutated_files(self, scratch, data, at, cut, insert):
        # most mutations land in the points array, which fills most of the text
        key = data.rfind(b'"points": [')
        i = key + int(at * (len(data) - key))
        self._same(scratch, data[:i] + insert + data[i + cut:])

    def test_load_reads_text_and_binary_files(self):
        wps = WeightedPointSet(2, [[0.5, -0.0], [1e-300, 2.0]], [1.0, 2.0 - 1j], {"note": "\u00e9"})
        buf = io.StringIO()
        wps.dump(buf)
        for fp in (io.StringIO(buf.getvalue()), io.BytesIO(buf.getvalue().encode())):
            back = WeightedPointSet.load(fp)
            assert back.points.view(np.int64).tolist() == wps.points.view(np.int64).tolist()
            assert np.array_equal(back.weights, wps.weights) and back.meta["note"] == "\u00e9"

    def test_load_reports_a_non_json_text_as_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"^point-set JSON: Expecting property name"):
            WeightedPointSet.load(io.StringIO("{not json"))
        with pytest.raises(ValidationError, match=r"^point-set JSON: Expecting value"):
            WeightedPointSet.load(io.BytesIO(b'{"dim": 1, "points": [[1.0], ]}'))


def _patch_file(tmp_path, weighted: bool = False) -> tuple[WeightedPointSet, Path]:
    """A 1e5-point 1D patch with model-set-like coordinates, weighted 0.5 or 2 if weighted,
    and its file as dump writes it."""
    rng = np.random.default_rng(8)
    x = (500 * rng.random() + np.cumsum(rng.choice([1.0, TAU], 10**5)))[:, None]
    wps = WeightedPointSet(1, x, rng.choice([0.5, 2.0], 10**5) if weighted else None)
    path = tmp_path / "patch.json"
    with path.open("w") as fh:
        wps.dump(fh)
    return wps, path


class TestPointSetMemory:
    def test_read_peak_under_twice_the_file(self, tmp_path):
        wps, path = _patch_file(tmp_path)
        tracemalloc.start()
        try:
            with path.open("rb") as fh:
                back = WeightedPointSet.load(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.points, wps.points)
        assert peak < 2 * path.stat().st_size

    def test_weighted_read_peak_under_1_6_times_the_file(self, tmp_path):
        # the weights are read in chunks of rows as the points are (5.2 MiB here)
        wps, path = _patch_file(tmp_path, weighted=True)
        tracemalloc.start()
        try:
            with path.open("rb") as fh:
                back = WeightedPointSet.load(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.points.tobytes() == wps.points.tobytes() and back.weights.tobytes() == wps.weights.tobytes()
        assert peak < 1.6 * path.stat().st_size

    def test_write_peak_under_one_mib(self, tmp_path):
        wps, path = _patch_file(tmp_path)
        with path.open("w") as fh:
            tracemalloc.start()
            try:
                wps.dump(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert path.read_text() == _dumps(wps._record())
        assert peak < 2**20
