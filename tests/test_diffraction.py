import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import (
    AutocorrelationPatch,
    Box,
    Spectrum,
    SpectrumEntry,
    ValidationError,
    VanHoveCubes,
    WeightedPointSet,
    autocorrelation,
    cube_sequence,
    find_peaks,
    fourier_average,
    intensity_from_autocorr,
    intensity_sequence,
    lattice_points,
    scan_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
)
from quasidiff.diffraction import _quantize

TAU = (1.0 + np.sqrt(5.0)) / 2.0


def _vanhove(center, side0, growth, count):
    return cube_sequence(VanHoveCubes(np.array([center]), side0, growth, count))


def _dense_pairs(pts, w, max_radius):
    # reference pair generator: every pair i > j in one batch, ordered by j, then i, of lead 0
    jj, ii = np.triu_indices(len(pts), 1)
    yield pts[ii] - pts[jj], w[ii] * np.conj(w[jj]), np.zeros(len(ii), np.int64)


def _half_by_key(p):
    # keys (quantized representatives), weights and representatives of the half, sorted by key, as bytes
    keys = _quantize(p._reps, p.bin_epsilon)
    order = np.lexsort(keys.T[::-1])
    return [a[order].tobytes() for a in (keys, p._weights, p._reps)]


def _pair_keys(pairs, eps):
    # the distinct quantized differences of a reference pair generator, in key order, as bytes
    return np.unique(_quantize(np.concatenate([d for d, _, _ in pairs]), eps), axis=0).tobytes()


def _held(p):
    # everything a patch holds, in bin order: arrays as bytes, with the weights' dtype, and floats as hex
    return (p._reps.tobytes(), p._weights.dtype.str, p._weights.tobytes(), p._diagonal.hex(),
            p.max_bin_spread().hex(), p.point_count)


def _full_layout(p):
    """(keys, coeffs, reps) of the diagonal, every bin and its mirror at -q, in key
    order: laid out as the diagonal, then each bin and its mirror, and sorted by
    np.lexsort, so coinciding keys keep that order."""
    keys, coeffs, reps = _quantize(p._reps, p.bin_epsilon), p._weights, p._reps
    origin = np.zeros((1, p.dim))

    def layout(diag, pos, neg):
        return np.concatenate([diag, np.stack([pos, neg], axis=1).reshape(-1, *pos.shape[1:])])

    full = layout(origin.astype(np.int64), keys, -keys)
    order = np.lexsort(full.T[::-1])
    return (full[order], layout([p._diagonal], coeffs, np.conj(coeffs))[order],
            layout(origin, reps, -reps)[order])


def _bins(p):
    """{quantized difference tuple: coefficient} over the full layout."""
    keys, coeffs, _ = _full_layout(p)
    return dict(zip(map(tuple, keys.tolist()), coeffs.tolist()))


@pytest.fixture(scope="module")
def z100():
    return lattice_points(1, Box([0.0], [100.0]), 1.0)


class TestFourierAverage:
    def test_lattice_resonant(self, z100):
        box = Box([0.0], [100.0])
        for xi in (0.0, 1.0, 2.0):
            fa = fourier_average(z100, box, [xi])
            assert fa.value == pytest.approx(1.0, abs=1e-13)
            assert fa.point_count == 100
            assert fa.box_volume == 100.0

    def test_lattice_antiresonant(self, z100):
        # alternating phases cancel pairwise on an even count
        fa = fourier_average(z100, Box([0.0], [100.0]), [0.5])
        assert abs(fa.value) < 1e-14

    def test_restricts_to_box(self, z100):
        fa = fourier_average(z100, Box([0.0], [50.0]), [0.0])
        assert fa.point_count == 50
        assert fa.value == pytest.approx(1.0)

    def test_weights_enter_linearly(self):
        wps = WeightedPointSet(1, [0.0, 1.0], [2.0, 2.0])
        fa = fourier_average(wps, Box([0.0], [2.0]), [0.0])
        assert fa.value == pytest.approx(2.0)

    def test_empty_box_is_zero(self, z100):
        fa = fourier_average(z100, Box([200.0], [210.0]), [1.0])
        assert fa.value == 0.0
        assert fa.point_count == 0

    def test_phase_convention(self):
        # c = (1/vol) sum w exp(-2 pi i xi x): a single point at x=1/4 with
        # xi=1 contributes exp(-pi i / 2) = -i
        wps = WeightedPointSet(1, [0.25])
        fa = fourier_average(wps, Box([0.0], [1.0]), [1.0])
        assert fa.value == pytest.approx(-1j, abs=1e-15)


def _sum_or_error(sum_parts, z):
    try:
        return tuple(v.hex() for v in sum_parts(z))
    except (OverflowError, ValueError) as exc:
        return repr(exc)


def _fsum_parts(z):
    return math.fsum(z.real.tolist()), math.fsum(z.imag.tolist())


def _kernel_parts(z):
    from quasidiff._kernels import _exact_sum

    return _exact_sum(z.real), _exact_sum(z.imag)


def _complex(re, im):
    z = np.empty(len(re), dtype=complex)
    z.real, z.imag = re, im  # keeps signed zeros, which complex arithmetic may not
    return z


_TINY, _HUGE = 2.2250738585072014e-308, 1.7976931348623157e308  # smallest normal, largest double
_terms = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.floats(-_TINY, _TINY),  # subnormals and zeros
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, math.inf, -math.inf, math.nan]),
    st.floats(1e308, _HUGE),
    st.floats(-_HUGE, -1e308),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _term_arrays(draw):
    """Complex arrays whose parts mix spread exponents, cancelling pairs and special values."""
    re = draw(st.lists(_terms, max_size=12))
    if draw(st.booleans()):  # heavy cancellation: [a, b, ..., -b, -a] around small terms
        re = re + draw(st.lists(_terms, max_size=3)) + [-v for v in re[::-1]]
    im = draw(st.lists(_terms, min_size=len(re), max_size=len(re)))
    if draw(st.booleans()):
        im = draw(st.sampled_from([[0.0] * len(re), [-0.0] * len(re), im[::-1]]))
    return _complex(re, im)


class TestExactSum:
    """_exact_sum on each part of a complex array gives the bits (or the exception) of math.fsum."""

    @given(_term_arrays())
    @settings(max_examples=300, deadline=None)
    def test_bits_match_fsum(self, z):
        assert _sum_or_error(_kernel_parts, z) == _sum_or_error(_fsum_parts, z)

    @pytest.mark.parametrize("terms", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [1.0, -1.0], [2.5],
        [1e16, 1.0, -1e16, 1.0, 1e-16], [1.7e308, 1.7e308, -1.7e308], [1.7e308, -1.7e308, 1.7e308],
        [math.inf, -math.inf], [math.nan, 1.0], [1e300, 1e-300, -1e300],
        # a cancelling pair near the top of the range, and terms just above the subnormals
        [math.ldexp(0.5, -968), math.ldexp(0.75, 960), 1.0, math.ldexp(-0.75, 960)],
        [math.ldexp(0.5, -969), 1.0],
        # extraction stops where 2**(k + M) would leave the normal range, or overflow
        [math.ldexp(1.0, -1020), math.ldexp(1.0, -1070), -5e-324],
        [math.ldexp(1.0, 1020), math.ldexp(1.0, 1019), -1.0],
        # more than four levels: 50 bits a level for 3 terms, and a remainder after the fourth
        [1.0, math.ldexp(1.0, -120), math.ldexp(-3.0, -240), math.ldexp(1.0, -400), -1.0],
        [math.ldexp(1.0, 60 * j) * (-1) ** j for j in range(-17, 17)],
    ])
    def test_edge_cases(self, terms):
        z = _complex(terms, [-v for v in terms])
        assert _sum_or_error(_kernel_parts, z) == _sum_or_error(_fsum_parts, z)

    def test_remainder_after_the_last_level(self):
        # 1e4 terms over 900 bits of exponent: four levels of 38 bits leave most of them
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10_000) * 2.0 ** rng.integers(-450, 450, 10_000)
        z = _complex(x, np.r_[x[5000:], -x[:5000]])
        assert _sum_or_error(_kernel_parts, z) == _sum_or_error(_fsum_parts, z)

    @pytest.mark.parametrize("scratch", [False, True])
    def test_input_read_or_taken_over(self, scratch):
        from quasidiff._kernels import _exact_sum

        rng = np.random.default_rng(4)
        x = rng.standard_normal(5000) * 2.0 ** rng.integers(-80, 80, 5000)
        want, before = math.fsum(x), x.copy()
        if not scratch:  # read-only, like the arrays of a patch
            x.setflags(write=False)
        assert _exact_sum(x, scratch=scratch).hex() == want.hex()
        if not scratch:
            assert x.tobytes() == before.tobytes()

    def test_long_cancelling_sum(self):
        # the bulk cancels exactly and leaves the tiny terms
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100_000) * 2.0 ** rng.integers(-60, 60, 100_000)
        re = np.r_[x, rng.standard_normal(100) * 1e-30, -x[::-1]]
        z = _complex(re, rng.permutation(re) * 3.0)
        assert _sum_or_error(_kernel_parts, z) == _sum_or_error(_fsum_parts, z)

    def test_term_cap_falls_back(self, monkeypatch):
        from quasidiff import _kernels

        def no_extraction(*args, **kwargs):
            raise AssertionError("extracted")

        monkeypatch.setattr(_kernels, "_EXACT_SUM_TERMS", 4)
        monkeypatch.setattr(np, "add", no_extraction)  # (s + r), the first step of a level
        x = np.array([1e16, 1.0, -1e16, 3.0])
        assert _kernels._exact_sum(x) == math.fsum(x)  # n at the cap: math.fsum
        with pytest.raises(AssertionError, match="extracted"):
            _kernels._exact_sum(x[:3])  # below it: the extraction


class TestPhaseKernel:
    """The real-phase kernel keeps the bits of the complex exponential it replaces."""

    def test_cos_and_sin_are_the_parts_of_complex_exp(self):
        # the probe the kernel rests on: numpy's float64 cos and sin of a real
        # phase equal the parts of its complex exp of i times that phase
        rng = np.random.default_rng(5)
        t = rng.uniform(-1.0, 1.0, 200_000) * 10.0 ** rng.integers(-12, 9, 200_000)
        t = np.r_[0.0, -0.0, 5e-324, 0.25, -0.5, 1.0, 1e8 + 0.125, t]
        ph = -2 * np.pi * t
        e = np.exp(_complex(np.zeros(len(ph)), ph))
        assert np.cos(ph).tobytes() == e.real.tobytes()
        assert np.sin(ph).tobytes() == e.imag.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("weights", ["unit", "real", "complex"])
    def test_fourier_scan_has_the_bits_of_the_complex_exp_sum(self, dim, weights):
        rng = np.random.default_rng(10 * dim + len(weights))
        n = 400
        pts = np.r_[np.zeros((1, dim)), rng.uniform(-30.0, 30.0, (n - 1, dim))]  # the origin: a zero phase
        w = {"unit": np.ones(n), "real": rng.normal(size=n),
             "complex": rng.normal(size=n) + 1j * rng.normal(size=n)}[weights]
        wps = WeightedPointSet(dim, pts, w)
        boxes = [Box([-10.0] * dim, [10.0] * dim), Box([-31.0] * dim, [31.0] * dim)]
        xis = np.r_[np.zeros((1, dim)), rng.uniform(-3.0, 3.0, (6, dim)), np.full((1, dim), 0.5)]
        sp = scan_spectrum(wps, boxes, xis)
        for e in sp.entries:
            xi = np.array(e.xi)
            for b, got in zip(boxes, e.intensities):
                m = b.contains(wps.points)
                z = wps.weights[m] * np.exp(-2j * np.pi * (wps.points[m] @ xi))
                want = abs(complex(math.fsum(z.real), math.fsum(z.imag)) / b.volume) ** 2
                assert got.hex() == want.hex()


    @settings(max_examples=60, deadline=None)
    @given(
        coords=st.lists(st.one_of(
            st.floats(-40.0, 40.0),
            st.floats(-_TINY, _TINY),  # subnormals and zeros
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.5, 2.25]),
        ), min_size=1, max_size=30, unique=True),  # unique: -0.0 == 0.0 would be a duplicate point
        xis=st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 5e-324, -1e-310])),
                     min_size=1, max_size=4),
        weights=st.sampled_from(["unit", "real", "complex"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @pytest.mark.filterwarnings("ignore:autocorrelation intensity")  # [-2, 2) holds -2 but not 2
    def test_1d_product_has_the_bits_of_matmul(self, coords, xis, weights, seed):
        # in 1D the phase is x[:, 0] * xi[0]; it may differ from x @ xi only in the
        # sign of a zero, so sums are compared, not phase arrays
        def parts(x, c, xi):
            ph = -2 * np.pi * (x @ xi)
            if not c.imag.any():
                return c.real * np.cos(ph), c.real * np.sin(ph)
            z = c * (np.cos(ph) + 1j * np.sin(ph))
            return z.real, z.imag

        rng = np.random.default_rng(seed)
        n = len(coords)
        w = {"unit": np.ones(n), "real": rng.normal(size=n),
             "complex": rng.normal(size=n) + 1j * rng.normal(size=n)}[weights]
        wps = WeightedPointSet(1, coords, w)
        x, w = wps.points, wps.weights
        box = Box([-41.0], [41.0])
        sp = scan_spectrum(wps, box, xis)
        for e in sp.entries:
            xi = np.array(e.xi)
            re, im = parts(x, w, xi)
            want = complex(math.fsum(re), math.fsum(im)) / box.volume
            got = fourier_average(wps, box, xi).value
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
            assert e.intensity.hex() == (abs(want) ** 2).hex()

        # a patch whose raw representatives are the coordinates themselves
        patch = AutocorrelationPatch(x, w, 7.5, 1e-9, box.volume, None, n)
        near = Box([-2.0], [2.0])
        pos, neg = near.contains(x), near.contains(-x)
        for xi in np.array(xis)[:, None]:
            re, _ = parts(x, w, xi)
            want = math.fsum([7.5] + (2.0 * re).tolist()) / box.volume
            assert intensity_from_autocorr(patch, xi).hex() == want.hex()
            sel = pos | neg
            terms = [7.5] + (re[sel] * (pos[sel].astype(np.int8) + neg[sel])).tolist()
            want = math.fsum(terms) / near.volume
            assert intensity_from_autocorr(patch, xi, averaging_box=near).hex() == want.hex()


@st.composite
def _key_columns(draw):
    """1 to 3 integer key columns of 0, 1 or many rows, drawn from pools of a
    few values (heavy duplicates) or many, narrow or up to 64 bits wide; or one
    narrow unsigned column whose width and the position bits p = bits(n - 1)
    add up to 32 or 33, the two sides of the uint32 word."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n, p = draw(st.sampled_from([(3000, 12), (40000, 16)]))
        width = draw(st.sampled_from([32, 33])) - p
        pool = rng.integers(0, 2**width, draw(st.sampled_from([5, 10**6])), dtype=np.uint64)
        col = pool[rng.integers(0, len(pool), n)]
        col[rng.permutation(n)[:2]] = 0, 2**width - 1  # exactly width bits wide
        return [col.astype(np.min_scalar_type(2**width - 1))]
    n = draw(st.sampled_from([0, 1, 2, 3, 17, 300, 5000]))
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["int64", "wide", "uint64", "uint16", "uint32"]))
        pool = {
            "int64": lambda k: rng.integers(-3, 4, k),
            "wide": lambda k: rng.integers(-2**62, 2**62, k, endpoint=True),  # two digits or more
            "uint64": lambda k: rng.integers(0, 2**64 - 1, k, dtype=np.uint64, endpoint=True),
            "uint16": lambda k: rng.integers(0, 2**16, k).astype(np.uint16),
            "uint32": lambda k: rng.integers(0, 2**32, k).astype(np.uint32),
        }[kind](draw(st.sampled_from([1, 2, 5, 10**6])))
        cols.append(pool[rng.integers(0, len(pool), n)])
    return cols


class TestLexorder:
    """_lexorder is np.lexsort of the columns (stable, first column most
    significant) with the mask of the starts of the runs of equal rows; keys
    that fit in 32 bits with their positions sort as uint32 words, with an
    int32 order."""

    @staticmethod
    def _check(cols):
        from quasidiff._kernels import _lexorder

        order, head = _lexorder(cols)
        want = np.lexsort(cols[::-1])
        assert np.array_equal(order, want)
        rows = [c[want] for c in cols]
        new = np.zeros(len(want), dtype=bool)
        new[:1] = True
        for r in rows:
            new[1:] |= r[1:] != r[:-1]
        assert head.dtype == bool and np.array_equal(head, new)
        if len(want):
            bits = sum((int(c.max()) - int(c.min())).bit_length() for c in cols)
            narrow = bits + (len(want) - 1).bit_length() <= 32
            assert order.dtype == (np.int32 if narrow else np.intp)

    @given(_key_columns())
    @settings(max_examples=300, deadline=None)
    def test_order_and_runs_match_lexsort(self, cols):
        self._check(cols)

    @pytest.mark.parametrize(
        "dtype, bits, n",
        [
            (np.uint8, 8, 3000),  # 8 + 12 bits: uint32 words
            (np.uint16, 16, 70000),  # 16 + 17 bits: uint64 words
            (np.uint32, 20, 3000),  # 20 + 12 bits: uint32 words
        ],
    )
    def test_narrow_keys(self, dtype, bits, n):
        rng = np.random.default_rng(bits)
        key = rng.integers(0, 2**bits, n, dtype=np.uint64).astype(dtype)
        key[: n // 2] = key[n // 2 :][: n // 2]  # repeats, so runs have several starts
        self._check([key])

    def test_extreme_columns_take_several_digits(self):
        from quasidiff._kernels import _lexorder

        rng = np.random.default_rng(3)
        for dtype, lo, hi in [(np.int64, -2**63, 2**63 - 1), (np.uint64, 0, 2**64 - 1)]:
            cols = [rng.choice(np.array([lo, hi, lo + 1, hi - 1, 0], dtype=dtype), 1000) for _ in range(3)]
            order, head = _lexorder(cols)
            want = np.lexsort(cols[::-1])
            assert order.tobytes() == want.tobytes()
            assert head.sum() == len({tuple(r) for r in np.stack(cols, 1).tolist()})


class TestIntensitySequence:
    def test_converges_on_golden_chain(self, fib_patch_mid):
        boxes = _vanhove(6910.0, 800.0, 2.0, 4)
        vals, diag = intensity_sequence(fib_patch_mid, boxes, [0.0])
        assert diag["converged"]
        assert vals[-1] == pytest.approx(TAU**2 / 5.0, rel=1e-3)
        assert diag["last_gap"] < 1e-3 * max(vals[-1], 1e-6)

    def test_box_must_stay_inside_points(self, fib_patch_mid):
        boxes = [Box([0.0], [20000.0])]
        with pytest.raises(ValidationError, match="exceeds the patch"):
            intensity_sequence(fib_patch_mid, boxes, [0.0])


class TestAutocorrelation:
    def test_lattice_triangle_bins(self):
        # n points spacing 1 in [0, n): offset m has n-m ordered pairs,
        # so the two-sided coefficient at +-m is (n-m)/n after the 1/vol
        n = 50
        wps = lattice_points(1, Box([0.0], [float(n)]), 1.0)
        patch = autocorrelation(wps, Box([0.0], [float(n)]))
        bins = _bins(patch)
        eps = patch.bin_epsilon
        for m in (1, 2, 10):
            q = round(m / eps)
            assert bins[(q,)] == pytest.approx((n - m) / n, abs=1e-12)
            assert bins[(-q,)] == pytest.approx((n - m) / n, abs=1e-12)
        assert bins[(0,)] == pytest.approx(1.0, abs=1e-14)

    def test_identity_sum_equals_fourier_square(self, fib_patch_mid):
        box = Box([0.0], [13000.0])
        patch = autocorrelation(fib_patch_mid, box)
        xi = [(2.0 + np.sqrt(5.0)) / np.sqrt(5.0)]
        got = intensity_from_autocorr(patch, xi)
        ref = abs(fourier_average(fib_patch_mid, box, xi).value) ** 2
        assert got == pytest.approx(ref, abs=1e-10)

    def test_hermitian_bins(self, fib_patch_mid):
        patch = autocorrelation(fib_patch_mid, Box([0.0], [500.0]))
        bins = _bins(patch)
        for q, c in bins.items():
            mq = tuple(-v for v in q)
            assert mq in bins
            assert bins[mq] == pytest.approx(np.conj(c), abs=1e-13)

    def test_max_radius_truncates(self, fib_patch_mid):
        patch = autocorrelation(fib_patch_mid, Box([0.0], [500.0]), max_radius=10.0)
        assert np.max(np.abs(_full_layout(patch)[2])) <= 10.0 + patch.bin_epsilon
        assert patch.max_radius == 10.0

    def test_diagonal_weight(self):
        wps = WeightedPointSet(1, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        patch = autocorrelation(wps, Box([0.0], [3.0]))
        # sum |w|^2 / vol = (1 + 4 + 9) / 3
        assert _bins(patch)[(0,)] == pytest.approx(14.0 / 3.0)

    def test_epsilon_must_resolve_separation(self, z100):
        with pytest.raises(ValidationError, match="bin_epsilon"):
            autocorrelation(z100, Box([0.0], [100.0]), bin_epsilon=0.6)

    def test_bin_spread_within_epsilon(self, fib_patch_mid):
        patch = autocorrelation(fib_patch_mid, Box([0.0], [2000.0]))
        assert patch.max_bin_spread() <= patch.bin_epsilon

    def test_2d_pairs(self):
        wps = lattice_points(2, Box([0.0, 0.0], [5.0, 5.0]), 1.0)
        patch = autocorrelation(wps, Box([0.0, 0.0], [5.0, 5.0]), max_radius=1.5)
        eps = patch.bin_epsilon
        q1 = round(1.0 / eps)
        # offset (1, 0): 4*5 ordered pairs over volume 25
        bins = _bins(patch)
        assert bins[(q1, 0)] == pytest.approx(20.0 / 25.0)
        assert bins[(0, q1)] == pytest.approx(20.0 / 25.0)
        assert bins[(q1, q1)] == pytest.approx(16.0 / 25.0)

    def test_coinciding_bins_keep_first_seen_order(self):
        # (35, 5) nudged below x = 35 sorts before (35, 0), so that pair, at index
        # offset 1, gives the key (0, -5/eps) before offset 5 gives the bin
        # (0, 5/eps); the mirror of the first coincides with the second and,
        # seen first, stays first
        pts = np.stack(np.meshgrid(np.arange(40.0), np.arange(40.0), indexing="ij"), -1).reshape(-1, 2)
        pts[35 * 40 + 5, 0] -= 1e-13
        patch = autocorrelation(WeightedPointSet(2, pts), Box([-1.0, -1.0], [41.0, 41.0]))
        q = round(5.0 / patch.bin_epsilon)
        half = _quantize(patch._reps, patch.bin_epsilon).tolist()
        assert half.index([0, -q]) < half.index([0, q])
        keys, _, reps = _full_layout(patch)
        rows = np.flatnonzero((keys == [0, q]).all(axis=1))
        assert len(rows) == 2
        assert reps[rows[0]][0] < 0.0
        assert reps[rows[1]].tolist() == [0.0, 5.0]

    @pytest.mark.parametrize("patch", ["lattice", "weighted lattice", "percolated", "cubic"])
    def test_offset_blocks_match_the_dense_reference(self, monkeypatch, patch):
        from quasidiff import diffraction

        rng = np.random.default_rng(7)
        dim = 3 if patch == "cubic" else 2
        pts = np.stack(np.meshgrid(*[np.arange(30.0 if dim == 2 else 8.0)] * dim, indexing="ij"), -1)
        pts = pts.reshape(-1, dim)
        w = np.ones(len(pts))
        if patch == "percolated":  # a bin gathers pairs from several offsets
            keep = rng.random(len(pts)) < 0.5
            pts, w = pts[keep], w[keep]
        elif patch == "weighted lattice":  # each bin holds one offset's pairs, in order of j
            w = rng.normal(size=len(pts)) + 1j * rng.normal(size=len(pts))
        wps, box = WeightedPointSet(dim, pts, w), Box([-1.0] * dim, [31.0] * dim)
        got = autocorrelation(wps, box)
        monkeypatch.setattr(diffraction, "_pair_batches", _dense_pairs)
        want = autocorrelation(wps, box)
        assert _half_by_key(got) == _half_by_key(want)
        assert _half_by_key(got)[0] == _pair_keys(_dense_pairs(wps.points, wps.weights, None), got.bin_epsilon)
        assert _held(got)[3:] == _held(want)[3:]  # the diagonal, the largest spread, the points

    def test_blocks_of_one_pair_per_bin_fill_one_run(self, monkeypatch):
        from quasidiff import diffraction

        # a jittered chain: every difference its own bin, so each block writes as many
        # rows as it has pairs, and the blocks after the first start deep in the run
        rng = np.random.default_rng(11)
        x = np.arange(500.0) + rng.uniform(-0.3, 0.3, 500)
        wps = WeightedPointSet(1, x, rng.normal(size=500) + 1j * rng.normal(size=500))
        box, eps = Box([-1.0], [501.0]), 1e-10  # fine enough that no two differences share a bin
        assert len(list(diffraction._pair_batches(wps.points, wps.weights, None))) >= 3
        got = autocorrelation(wps, box, bin_epsilon=eps)
        assert len(got._reps) == 500 * 499 // 2
        monkeypatch.setattr(diffraction, "_pair_batches", _dense_pairs)
        want = autocorrelation(wps, box, bin_epsilon=eps)
        assert _half_by_key(got) == _half_by_key(want)
        assert _half_by_key(got)[0] == _pair_keys(_dense_pairs(wps.points, wps.weights, None), eps)
        assert _held(got)[3:] == _held(want)[3:]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_bin_budget_merges_the_run_mid_build(self, monkeypatch, dim):
        from quasidiff import diffraction

        # a diluted chain or lattice: bins fed by many offsets, so the rows repeat
        # bins, and small blocks make the budget merge the run before the last block
        rng = np.random.default_rng(4)
        if dim == 1:
            pts = np.flatnonzero(rng.random(400) < 0.5).astype(float)[:, None]
        else:
            pts = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij"), -1).reshape(-1, 2)
            pts = pts[rng.random(400) < 0.5]
        wps = WeightedPointSet(dim, pts, np.exp(1j * pts @ np.arange(1.0, dim + 1.0)))
        box = Box([-1.0] * dim, [401.0] * dim)
        want = autocorrelation(wps, box)
        monkeypatch.setattr(diffraction, "_PAIR_BLOCK", 1000)
        monkeypatch.setattr(diffraction, "_BIN_BUDGET", len(want._reps))
        batches, merges = [], []
        pair_batches, merge_runs = diffraction._pair_batches, diffraction._merge_runs

        def counted_batches(*args):
            for batch in pair_batches(*args):
                batches.append(len(batch[0]))
                yield batch

        def counted_merge(run, m):
            merges.append(len(batches))
            return merge_runs(run, m)

        monkeypatch.setattr(diffraction, "_pair_batches", counted_batches)
        monkeypatch.setattr(diffraction, "_merge_runs", counted_merge)
        got = autocorrelation(wps, box)
        assert 0 < merges[0] < len(batches) - 1  # blocks were written after a merge
        assert _held(got) == _held(want)
        assert _half_by_key(got)[0] == _pair_keys(_dense_pairs(wps.points, wps.weights, None), got.bin_epsilon)

    def test_run_rows_stay_within_the_bin_budget(self, monkeypatch):
        import tracemalloc

        from quasidiff import diffraction

        # 1.2e6 pairs into about 3000 bins: a run of a row per pair would take 55 MB
        x = np.flatnonzero(np.random.default_rng(5).random(3000) < 0.5).astype(float)
        wps, box = WeightedPointSet(1, x), Box([-1.0], [3001.0])
        monkeypatch.setattr(diffraction, "_BIN_BUDGET", 10**4)
        tracemalloc.start()
        try:
            patch = autocorrelation(wps, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(patch._reps) < 3000 and peak < 16 * 2**20

    def test_run_grows_from_the_first_batch(self):
        import tracemalloc

        # the chain above at the default budget: a run reserved for every one of
        # its 1.1e6 pairs would peak near 60 MiB; grown from its bins it stays small
        x = np.flatnonzero(np.random.default_rng(5).random(3000) < 0.5).astype(float)
        wps, box = WeightedPointSet(1, x), Box([-1.0], [3001.0])
        tracemalloc.start()
        try:
            patch = autocorrelation(wps, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(patch._reps) < 3000 and peak < 20 * 2**20
        # a mostly empty run is copied, so the patch holds only its bins
        assert patch._reps.base is None and patch._weights.base is None

    def test_radius_run_grows_from_the_first_batch(self):
        import tracemalloc

        # 2000 random 2D points: under a radius the 2411 kd-tree pairs are all
        # distinct bins, but a run reserved for all 1999000 pairs would take 152 MiB
        wps = WeightedPointSet(2, np.random.default_rng(8).random((2000, 2)))
        tracemalloc.start()
        try:
            patch = autocorrelation(wps, Box([0.0, 0.0], [1.0, 1.0]), max_radius=0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(patch._reps) == 2411 and peak < 40 * 2**20

    def test_nearly_distinct_run_is_the_patch(self):
        import tracemalloc

        # a jittered chain whose differences, rounded to 1e-6, repeat for a few
        # pairs: the run reserved for every pair is nearly full and is not copied
        rng = np.random.default_rng(6)
        x = np.round(np.arange(600.0) + rng.uniform(-0.3, 0.3, 600), 6)
        wps, box = WeightedPointSet(1, x), Box([-1.0], [600.0])
        tracemalloc.start()
        try:
            patch = autocorrelation(wps, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 600 * 599 // 2 - 100 < len(patch._reps) < 600 * 599 // 2
        assert peak < 80 * len(patch._reps)  # twice the 40 bytes a bin of keys, coefficients, reps and spreads
        # the representatives are the run's column; the real weights are a copy, not a view of a complex one
        assert patch._reps.base is not None and patch._weights.base is None

    @pytest.mark.parametrize("dim, per_bin", [(1, 16), (2, 24)])
    def test_a_real_patch_holds_its_bytes_a_bin(self, dim, per_bin):
        # a jittered chain or lattice of unit weights: every difference its own bin, and
        # every coefficient real; a bin holds its representative and one float64 weight
        rng = np.random.default_rng(9)
        pts = np.stack(np.meshgrid(*[np.arange(20.0)] * dim, indexing="ij"), -1).reshape(-1, dim)
        pts = pts + rng.uniform(-0.3, 0.3, pts.shape)
        patch = autocorrelation(WeightedPointSet(dim, pts), Box([-1.0] * dim, [21.0] * dim))
        arrays = {k: v for k, v in vars(patch).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == ["_reps", "_weights"]
        assert not hasattr(patch, "source_box") and not hasattr(patch, "meta")
        assert patch._weights.dtype == np.float64 and patch._weights.flags.c_contiguous
        assert sum(a.nbytes for a in arrays.values()) == per_bin * len(patch._reps)
        assert len(patch._reps) == len(pts) * (len(pts) - 1) // 2

    @pytest.mark.parametrize("block", [None, 1000, 1])  # None: the default
    @pytest.mark.parametrize("patch, radius", [
        ("chain", None), ("chain", 20.0), ("jittered", None), ("jittered", 20.0),
        ("jittered 2D", None), ("diluted 2D", None),  # a radius in 2D takes the kd-tree
    ])
    def test_offset_blocks_match_the_per_offset_loop(self, monkeypatch, block, radius, patch):
        from quasidiff import diffraction

        def per_offset(pts, w, max_radius):
            # reference: one batch per index offset, stopping at the first that keeps no pair
            for off in range(1, len(pts)):
                d = pts[off:] - pts[:-off]
                keep = d[:, 0] <= (np.inf if max_radius is None else max_radius)
                if not keep.any():
                    break
                yield d[keep], w[off:][keep] * np.conj(w[:-off][keep]), np.zeros(keep.sum(), np.int64)

        rng = np.random.default_rng(2)
        if patch == "chain":  # a diluted integer chain: bins fed by many offsets
            x = np.flatnonzero(np.random.default_rng(0).random(300) < 0.5).astype(float)
            wps = WeightedPointSet(1, x, np.exp(1j * x))
        elif patch == "jittered":  # every difference its own bin
            x = np.arange(200.0) + rng.uniform(-0.3, 0.3, 200)
            wps = WeightedPointSet(1, x, rng.normal(size=200) + 1j * rng.normal(size=200))
        elif patch == "jittered 2D":
            pts = np.stack(np.meshgrid(np.arange(15.0), np.arange(15.0), indexing="ij"), -1).reshape(-1, 2)
            pts += rng.uniform(-0.3, 0.3, pts.shape)
            wps = WeightedPointSet(2, pts, rng.normal(size=225) + 1j * rng.normal(size=225))
        else:  # a diluted lattice: bins fed by many offsets
            pts = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij"), -1).reshape(-1, 2)
            pts = pts[rng.random(400) < 0.5]
            wps = WeightedPointSet(2, pts, np.exp(1j * (pts[:, 0] + 0.3 * pts[:, 1])))
        box = Box([-1.0] * wps.dim, [301.0] * wps.dim)
        if block is not None:
            monkeypatch.setattr(diffraction, "_PAIR_BLOCK", block)
        got = autocorrelation(wps, box, max_radius=radius)
        blocks = list(diffraction._pair_batches(wps.points, wps.weights, radius))
        # one block holds every pair, under a radius too: the blocks have one size
        assert (len(blocks) == 1) == (block is None)
        monkeypatch.setattr(diffraction, "_pair_batches", per_offset)
        want = autocorrelation(wps, box, max_radius=radius)
        assert _held(got) == _held(want)
        assert _half_by_key(got)[0] == _pair_keys(per_offset(wps.points, wps.weights, radius), got.bin_epsilon)
        for a, b in zip(_full_layout(got), _full_layout(want)):
            assert a.tobytes() == b.tobytes()

    def test_bin_budget(self, monkeypatch):
        from quasidiff import ResourceLimitError, diffraction

        # a diluted integer chain: every distance recurs at many index offsets,
        # so the batches repeat bins and the budget forces merges along the way
        x = np.flatnonzero(np.random.default_rng(0).random(300) < 0.5).astype(float)
        wps = WeightedPointSet(1, x, np.exp(1j * x))
        box = Box([0.0], [300.0])
        ref = autocorrelation(wps, box)
        distinct = (len(ref) - 1) // 2  # bins at q > 0; the rest mirror them
        monkeypatch.setattr(diffraction, "_BIN_BUDGET", distinct)
        patch = autocorrelation(wps, box)
        assert _held(patch) == _held(ref)
        for a, b in zip(_full_layout(patch), _full_layout(ref)):
            assert a.tobytes() == b.tobytes()
        monkeypatch.setattr(diffraction, "_BIN_BUDGET", distinct - 1)
        with pytest.raises(ResourceLimitError, match="distinct difference"):
            autocorrelation(wps, box)

    def test_radius_pair_budget(self, monkeypatch):
        from quasidiff import ResourceLimitError, diffraction

        pts = np.random.default_rng(8).random((2000, 2))
        wps = WeightedPointSet(2, pts, np.exp(1j * pts[:, 0]))
        box = Box([0.0, 0.0], [1.0, 1.0])
        ref = autocorrelation(wps, box, max_radius=0.02)
        # every pair within the radius: 2000 + 2 * 1999000 ordered pairs, as n * n counts them
        monkeypatch.setattr(diffraction, "_PAIR_BUDGET", 10**6)
        with pytest.raises(ResourceLimitError, match="within radius"):
            autocorrelation(wps, box, max_radius=1e9)
        patch = autocorrelation(wps, box, max_radius=0.02)
        assert _held(patch) == _held(ref)
        for a, b in zip(_full_layout(patch), _full_layout(ref)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("patch", ["diluted lattice", "random"])
    def test_radius_blocks_match_the_per_offset_kd_tree_pairs(self, monkeypatch, patch, seed):
        from scipy.spatial import cKDTree

        from quasidiff import diffraction

        def per_offset(pts, w, max_radius):
            # reference: the kd-tree's pairs, one batch per index offset i - j, in order of j
            j, i = cKDTree(pts).query_pairs(max_radius, output_type="ndarray").T
            for off in np.unique(i - j):
                jj = np.sort(j[i - j == off])
                yield pts[jj + off] - pts[jj], w[jj + off] * np.conj(w[jj]), np.zeros(len(jj), np.int64)

        rng = np.random.default_rng(seed)
        if patch == "diluted lattice":  # bins fed by many offsets
            pts = np.stack(np.meshgrid(np.arange(20.0), np.arange(20.0), indexing="ij"), -1).reshape(-1, 2)
            pts, radius = pts[rng.random(400) < 0.5], 5.0
        else:  # every difference its own bin
            pts, radius = 20 * rng.random((600, 2)), 1.3
        wps = WeightedPointSet(2, pts, np.exp(1j * (pts[:, 0] + 0.3 * pts[:, 1])))
        box = Box([-1.0, -1.0], [21.0, 21.0])
        halves = []
        for block in (2**15, 1000, 7):  # one batch, a few, one per offset or so
            monkeypatch.setattr(diffraction, "_PAIR_BLOCK", block)
            halves.append(autocorrelation(wps, box, max_radius=radius))
        assert _held(halves[0]) == _held(halves[1]) == _held(halves[2])
        monkeypatch.setattr(diffraction, "_pair_batches", per_offset)
        assert _held(autocorrelation(wps, box, max_radius=radius)) == _held(halves[0])
        keys = _pair_keys(per_offset(wps.points, wps.weights, radius), halves[0].bin_epsilon)
        assert _half_by_key(halves[0])[0] == keys


class TestIntensityFromAutocorr:
    def test_averaging_box_near_prediction(self, fib_patch_big, fib_peaks):
        patch = autocorrelation(fib_patch_big, Box([0.0], [138000.0]), max_radius=60.0)
        cand = fib_peaks[1]
        got = intensity_from_autocorr(patch, cand.k, averaging_box=Box([-50.0], [50.0]))
        assert got == pytest.approx(cand.intensity, rel=0.05)

    def test_averaging_box_must_fit_radius(self, fib_patch_mid):
        patch = autocorrelation(fib_patch_mid, Box([0.0], [1000.0]), max_radius=10.0)
        with pytest.raises(ValidationError, match="truncation radius"):
            intensity_from_autocorr(patch, [0.0], averaging_box=Box([-20.0], [20.0]))

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.sampled_from([1, 2]),
        weights=st.sampled_from(["unit", "real", "complex"]),
        jitter=st.booleans(),  # off: lattice sites, so many pairs share a bin
        seed=st.integers(0, 2**32 - 1),
        xis=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=8),
        extent=st.sampled_from([None, (2.5, 2.5), (4.5, 4.5), (1.5, 3.5)]),  # averaging box -lo, hi
    )
    @pytest.mark.filterwarnings("ignore:autocorrelation intensity")  # the asymmetric box
    def test_half_sum_has_the_bits_of_the_full_sum(self, dim, weights, jitter, seed, xis, extent):
        from quasidiff import diffraction

        rng = np.random.default_rng(seed)
        sites = np.stack(np.meshgrid(*[np.arange(8.0)] * dim, indexing="ij"), -1).reshape(-1, dim)
        pts = sites[rng.random(len(sites)) < 0.5]
        if jitter:
            pts = pts + rng.uniform(-0.2, 0.2, pts.shape)
        w = {"unit": np.ones(len(pts)), "real": rng.normal(size=len(pts)),
             "complex": rng.normal(size=len(pts)) + 1j * rng.normal(size=len(pts))}[weights]
        patch = autocorrelation(WeightedPointSet(dim, pts, w), Box([-1.0] * dim, [9.0] * dim))

        # the full layout is closed under q -> -q with exactly conjugated coefficients
        keys, coeffs, reps = _full_layout(patch)
        bins = [(k, c) for k, c in zip(keys.tolist(), coeffs) if any(k)]
        assert (sorted((tuple(k), c.tobytes()) for k, c in bins)
                == sorted((tuple(-v for v in k), np.conj(c).tobytes()) for k, c in bins))

        box = None if extent is None else Box([-extent[0]] * dim, [extent[1]] * dim)
        sel = slice(None) if box is None else box.contains(reps)
        denom = patch.normalizing_volume if box is None else box.volume
        sizes = []
        exact_sum = diffraction._exact_sum
        for xi in np.resize(xis, (len(xis) // dim, dim)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(diffraction, "_exact_sum", lambda x, **kw: sizes.append(len(x)) or exact_sum(x, **kw))
                got = intensity_from_autocorr(patch, xi, averaging_box=box)
            z = coeffs[sel] * np.exp(-2j * np.pi * (reps[sel] @ xi))
            assert got.hex() == (exact_sum(z.real) / denom).hex()
            if box is None:  # one term per +-q pair, and the diagonal
                assert sizes == [(len(patch) - 1) // 2 + 1]
            sizes.clear()


class TestScanSpectrum:
    def test_sorted_and_shaped(self, z100):
        sp = scan_spectrum(z100, Box([0.0], [100.0]), [[0.3], [0.1], [0.2]])
        assert [e.xi[0] for e in sp.entries] == [0.1, 0.2, 0.3]
        assert len(sp) == 3
        assert sp.dim == 1

    def test_pool_sized_to_grid(self, z100, monkeypatch):
        from quasidiff import diffraction

        sizes = []
        real = diffraction.ThreadPoolExecutor

        def pool(max_workers):
            sizes.append(max_workers)
            return real(max_workers)

        monkeypatch.setattr(diffraction, "ThreadPoolExecutor", pool)
        sp = scan_spectrum(z100, Box([0.0], [100.0]), [0.1, 0.2, 0.3], threads=8)
        assert sizes == [3]
        assert len(sp) == 3

    def test_estimators_agree(self, z100):
        box = Box([0.0], [100.0])
        grid = [[0.0], [0.25], [1.0]]
        a = scan_spectrum(z100, box, grid, estimator="fourier")
        b = scan_spectrum(z100, box, grid, estimator="autocorr")
        assert np.allclose(a.intensity_array(), b.intensity_array(), atol=1e-10)
        assert b.entries[0].estimator == "autocorr"

    def test_thread_count_invariant(self, z100):
        box = Box([0.0], [100.0])
        grid = np.linspace(0.0, 2.0, 41).reshape(-1, 1)
        a, b = io.StringIO(), io.StringIO()
        spectrum_to_csv(scan_spectrum(z100, box, grid, threads=1), a)
        spectrum_to_csv(scan_spectrum(z100, box, grid, threads=4), b)
        assert a.getvalue() == b.getvalue()

    def test_box_sequence_records_history(self, fib_patch_mid):
        boxes = _vanhove(6910.0, 800.0, 2.0, 3)
        sp = scan_spectrum(fib_patch_mid, boxes, [[0.0]])
        e = sp.entries[0]
        assert len(e.intensities) == 3
        assert e.intensity == e.intensities[-1]
        assert math.isfinite(e.last_gap)

    def test_single_box_gap_is_nan(self, z100):
        sp = scan_spectrum(z100, Box([0.0], [100.0]), [[0.5]])
        assert math.isnan(sp.entries[0].last_gap)
        assert not sp.entries[0].converged

    def test_unknown_estimator(self, z100):
        with pytest.raises(ValidationError, match="estimator"):
            scan_spectrum(z100, Box([0.0], [100.0]), [[0.0]], estimator="fft")

    def test_thread_count_bounds(self, z100, monkeypatch):
        from quasidiff import ResourceLimitError, diffraction

        def no_pool(max_workers):
            raise AssertionError("pool started")

        monkeypatch.setattr(diffraction, "ThreadPoolExecutor", no_pool)
        box = Box([0.0], [100.0])
        with pytest.raises(ValidationError, match="threads"):
            scan_spectrum(z100, box, [0.1, 0.2], threads=0)
        with pytest.raises(ResourceLimitError, match="threads"):
            scan_spectrum(z100, box, [0.1, 0.2], threads=diffraction._THREAD_CAP + 1)


def _toy_spectrum(xs, ys):
    entries = [
        SpectrumEntry((float(x),), float(y), "fourier", (float(y),), float("nan"), False, 1.0, 1)
        for x, y in zip(xs, ys)
    ]
    return Spectrum(tuple(entries))


class TestFindPeaks:
    def test_interior_maxima(self):
        sp = _toy_spectrum([0, 1, 2, 3, 4], [0.0, 1.0, 0.2, 0.8, 0.1])
        peaks = find_peaks(sp, floor=0.5)
        assert [(p.xi, p.intensity) for p in peaks] == [(1.0, 1.0), (3.0, 0.8)]

    def test_plateau_leading_edge(self):
        sp = _toy_spectrum([0, 1, 2, 3], [0.0, 1.0, 1.0, 0.0])
        peaks = find_peaks(sp, floor=0.5)
        assert len(peaks) == 1 and peaks[0].xi == 1.0

    def test_endpoint_maxima(self):
        sp = _toy_spectrum([0, 1, 2], [2.0, 1.0, 3.0])
        peaks = find_peaks(sp, floor=0.5)
        assert [p.xi for p in peaks] == [0.0, 2.0]

    def test_floor_excludes(self):
        sp = _toy_spectrum([0, 1, 2], [0.0, 0.4, 0.0])
        assert find_peaks(sp, floor=0.5) == []

    def test_refine_parabola(self):
        f = lambda x: 1.0 - (x - 0.6180339887) ** 2
        xs = np.linspace(0.0, 1.0, 11)
        sp = _toy_spectrum(xs, [f(x) for x in xs])
        peaks = find_peaks(sp, floor=0.5, refine=f, tol=1e-10)
        assert len(peaks) == 1
        assert peaks[0].xi == pytest.approx(0.6180339887, abs=1e-8)

    def test_rejects_2d(self):
        sp = scan_spectrum(
            lattice_points(2, Box([0.0, 0.0], [4.0, 4.0]), 1.0),
            Box([0.0, 0.0], [4.0, 4.0]),
            [[0.0, 0.0]],
        )
        with pytest.raises(ValidationError, match="1D"):
            find_peaks(sp, floor=0.5)

    def test_floor_positive(self):
        sp = _toy_spectrum([0, 1], [1.0, 0.0])
        with pytest.raises(ValidationError):
            find_peaks(sp, floor=0.0)


class TestSpectrumCSV:
    def test_round_trip_bit_equal(self, z100):
        sp = scan_spectrum(z100, Box([0.0], [100.0]), np.linspace(0.0, 1.0, 7).reshape(-1, 1))
        buf = io.StringIO()
        spectrum_to_csv(sp, buf, envelope={"version": "0.1.0"})
        buf.seek(0)
        back, env = spectrum_from_csv(buf)
        assert env["version"] == "0.1.0"
        assert [e.xi for e in back.entries] == [e.xi for e in sp.entries]
        assert [e.intensity for e in back.entries] == [e.intensity for e in sp.entries]
        assert [e.converged for e in back.entries] == [e.converged for e in sp.entries]

    def test_rewrite_is_byte_identical(self, z100):
        sp = scan_spectrum(z100, Box([0.0], [100.0]), [[0.1], [0.7]])
        a = io.StringIO()
        spectrum_to_csv(sp, a)
        back, _ = spectrum_from_csv(io.StringIO(a.getvalue()))
        b = io.StringIO()
        spectrum_to_csv(back, b)
        assert a.getvalue() == b.getvalue()
