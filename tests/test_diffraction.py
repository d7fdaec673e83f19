import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import (
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

TAU = (1.0 + np.sqrt(5.0)) / 2.0


def _vanhove(center, side0, growth, count):
    return cube_sequence(VanHoveCubes(np.array([center]), side0, growth, count))


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
    from quasidiff.diffraction import _fsum_complex

    s = _fsum_complex(z)
    return s.real, s.imag


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
    """_fsum_complex returns the bits (or the exception) of math.fsum on each part."""

    @given(_term_arrays())
    @settings(max_examples=300, deadline=None)
    def test_bits_match_fsum(self, z):
        assert _sum_or_error(_kernel_parts, z) == _sum_or_error(_fsum_parts, z)

    @pytest.mark.parametrize("terms", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [5e-324], [1.0, -1.0], [2.5],
        [1e16, 1.0, -1e16, 1.0, 1e-16], [1.7e308, 1.7e308, -1.7e308], [1.7e308, -1.7e308, 1.7e308],
        [math.inf, -math.inf], [math.nan, 1.0], [1e300, 1e-300, -1e300],
        # the ends of the bucketed exponent range, and one past the low end
        [math.ldexp(0.5, -968), math.ldexp(0.75, 960), 1.0, math.ldexp(-0.75, 960)],
        [math.ldexp(0.5, -969), 1.0],
    ])
    def test_edge_cases(self, terms):
        z = _complex(terms, [-v for v in terms])
        assert _sum_or_error(_kernel_parts, z) == _sum_or_error(_fsum_parts, z)

    def test_long_cancelling_sum(self):
        # the bulk cancels exactly and leaves the tiny terms
        rng = np.random.default_rng(1)
        x = rng.standard_normal(100_000) * 2.0 ** rng.integers(-60, 60, 100_000)
        re = np.r_[x, rng.standard_normal(100) * 1e-30, -x[::-1]]
        z = _complex(re, rng.permutation(re) * 3.0)
        assert _sum_or_error(_kernel_parts, z) == _sum_or_error(_fsum_parts, z)

    def test_term_cap_falls_back(self, monkeypatch):
        from quasidiff import diffraction

        def no_buckets(*args, **kwargs):
            raise AssertionError("bucketed")

        monkeypatch.setattr(diffraction, "_EXACT_SUM_TERMS", 4)
        monkeypatch.setattr(np, "bincount", no_buckets)
        x = np.array([1e16, 1.0, -1e16, 3.0])
        assert diffraction._exact_sum(x) == math.fsum(x)  # n at the cap: math.fsum
        with pytest.raises(AssertionError, match="bucketed"):
            diffraction._exact_sum(x[:3])  # below it: the buckets


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
        bins = patch.bins
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
        bins = patch.bins
        for q, c in bins.items():
            mq = tuple(-v for v in q)
            assert mq in bins
            assert bins[mq] == pytest.approx(np.conj(c), abs=1e-13)

    def test_max_radius_truncates(self, fib_patch_mid):
        patch = autocorrelation(fib_patch_mid, Box([0.0], [500.0]), max_radius=10.0)
        assert np.max(np.abs(patch.reps)) <= 10.0 + patch.bin_epsilon
        assert patch.max_radius == 10.0

    def test_diagonal_weight(self):
        wps = WeightedPointSet(1, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        patch = autocorrelation(wps, Box([0.0], [3.0]))
        # sum |w|^2 / vol = (1 + 4 + 9) / 3
        assert patch.bins[(0,)] == pytest.approx(14.0 / 3.0)

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
        assert patch.bins[(q1, 0)] == pytest.approx(20.0 / 25.0)
        assert patch.bins[(0, q1)] == pytest.approx(20.0 / 25.0)
        assert patch.bins[(q1, q1)] == pytest.approx(16.0 / 25.0)

    def test_coinciding_bins_keep_first_seen_order(self):
        # (35, 5) nudged below x = 35 sorts before (35, 0), so that pair gives
        # the negative key (0, -5/eps), in the second block of pairs; its mirror
        # coincides with the bin (0, 5/eps) of the first block, which stays first
        pts = np.stack(np.meshgrid(np.arange(40.0), np.arange(40.0), indexing="ij"), -1).reshape(-1, 2)
        pts[35 * 40 + 5, 0] -= 1e-13
        patch = autocorrelation(WeightedPointSet(2, pts), Box([-1.0, -1.0], [41.0, 41.0]))
        q = round(5.0 / patch.bin_epsilon)
        rows = np.flatnonzero((patch.keys == [0, q]).all(axis=1))
        assert len(rows) == 2
        assert patch.reps[rows[0]].tolist() == [0.0, 5.0]
        assert patch.reps[rows[1]][0] < 0.0

    def test_dense_pair_batches_match_meshgrid_reference(self):
        from quasidiff.diffraction import _pair_batches

        def meshgrid_batches(pts, w):
            # reference: mask the pairs i > j out of full n x block grids
            n, dim = pts.shape
            block = max(1, 2**21 // n)
            for i0 in range(0, n, block):
                i1 = min(i0 + block, n)
                d = pts[None, i0:i1, :] - pts[:, None, :]  # d[j, i] = x_i - x_j
                jj, ii = np.meshgrid(np.arange(n), np.arange(i0, i1), indexing="ij")
                upper = ii > jj
                yield d.reshape(n * (i1 - i0), dim)[upper.ravel()], (w[ii] * np.conj(w[jj]))[upper]

        rng = np.random.default_rng(7)
        pts = np.stack(np.meshgrid(np.arange(40.0), np.arange(40.0), indexing="ij"), -1).reshape(-1, 2)
        pts += rng.uniform(-0.3, 0.3, pts.shape)
        w = rng.normal(size=1600) + 1j * rng.normal(size=1600)
        batches = 0
        for got, ref in itertools.zip_longest(_pair_batches(pts, w, None), meshgrid_batches(pts, w)):
            assert got is not None and ref is not None
            for a, b in zip(got, ref):  # differences, then weight products
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
            batches += 1
        assert batches == 2  # 1600 points make blocks of 2**21 // 1600 = 1310

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
        for name in ("keys", "coeffs", "reps", "spreads"):
            assert getattr(patch, name).tobytes() == getattr(ref, name).tobytes()
        monkeypatch.setattr(diffraction, "_BIN_BUDGET", distinct - 1)
        with pytest.raises(ResourceLimitError, match="distinct difference"):
            autocorrelation(wps, box)


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

        # the full arrays are closed under q -> -q with exactly conjugated coefficients
        bins = [(k, c) for k, c in zip(patch.keys.tolist(), patch.coeffs) if any(k)]
        assert (sorted((tuple(k), c.tobytes()) for k, c in bins)
                == sorted((tuple(-v for v in k), np.conj(c).tobytes()) for k, c in bins))

        box = None if extent is None else Box([-extent[0]] * dim, [extent[1]] * dim)
        sel = slice(None) if box is None else box.contains(patch.reps)
        denom = patch.normalizing_volume if box is None else box.volume
        sizes = []
        exact_sum = diffraction._exact_sum
        for xi in np.resize(xis, (len(xis) // dim, dim)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(diffraction, "_exact_sum", lambda x: sizes.append(len(x)) or exact_sum(x))
                got = intensity_from_autocorr(patch, xi, averaging_box=box)
            z = patch.coeffs[sel] * np.exp(-2j * np.pi * (patch.reps[sel] @ xi))
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
