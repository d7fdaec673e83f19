import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasidiff import (
    Box,
    Observable,
    ValidationError,
    check_linear_repetitivity,
    named_substitution,
    subadditive_limit,
    substitution_fixed_point,
    ww_average,
    ww_report,
    ww_sup_over_frequencies,
    ww_sup_over_offsets,
)
from quasidiff.ergodic import _factor_classes, _observable_values

TAU = (1.0 + np.sqrt(5.0)) / 2.0


class TestObservable:
    def test_indicator(self):
        f = Observable.indicator("a", ("a", "b"))
        assert f.locality == 0
        assert f.table["a"] == 1.0 and f.table["b"] == 0.0
        assert f.max_abs() == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            Observable(-1, {"a": 1.0})
        with pytest.raises(ValidationError):
            Observable(0, {})
        with pytest.raises(ValidationError, match="length-3"):
            Observable(1, {"ab": 1.0})

    def test_missing_block_raises(self):
        f = Observable.indicator("a", ("a", "b"))
        with pytest.raises(ValidationError, match="missing block"):
            ww_average("abc", f, 0.0, 3)

    @settings(max_examples=80, deadline=None)
    @given(st.text(alphabet="abc", min_size=5, max_size=200), st.integers(0, 2), st.data())
    def test_values_match_a_per_position_lookup(self, word, locality, data):
        width = 2 * locality + 1
        n = data.draw(st.integers(1, len(word) - width + 1))
        offset = data.draw(st.integers(0, len(word) - width + 1 - n))
        blocks = sorted({word[i : i + width] for i in range(len(word) - width + 1)})
        # "d" never occurs, so the table stays nonempty after a deletion
        table = {b: complex(i, -0.5 * i) for i, b in enumerate(blocks + ["d" * width])}
        want = [table[word[offset + k : offset + k + width]] for k in range(n)]
        got = _observable_values(word, Observable(locality, table), n, offset)
        assert got.tolist() == want
        window = {word[offset + k : offset + k + width] for k in range(n)}
        missing = data.draw(st.sampled_from(sorted(window)))
        del table[missing]
        with pytest.raises(ValidationError, match=f"missing block {missing!r}"):
            _observable_values(word, Observable(locality, table), n, offset)


class TestWWAverage:
    def test_hand_computed(self):
        f = Observable.indicator("a", ("a", "b"))
        # vals = [1, 0], phases at alpha=1/2 are [1, -1]
        assert ww_average("ab", f, 0.0, 2) == pytest.approx(0.5)
        assert ww_average("ab", f, 0.5, 2) == pytest.approx(0.5)
        assert ww_average("aa", f, 0.5, 2) == pytest.approx(0.0, abs=1e-15)

    def test_zero_frequency_is_letter_frequency(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        n = 10000
        got = ww_average(fib_word, f, 0.0, n)
        assert got.imag == 0.0
        assert got.real == pytest.approx(fib_word[:n].count("a") / n, abs=1e-12)

    def test_fibonacci_frequency_limit(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        got = ww_average(fib_word, f, 0.0, 100000)
        assert abs(got - 1.0 / TAU) < 1e-3

    def test_alpha_mod_one(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        a = ww_average(fib_word, f, 0.3, 500)
        b = ww_average(fib_word, f, 1.3, 500)
        assert abs(a - b) < 1e-9

    def test_offset_shifts_window(self, fib_word):
        f = Observable.indicator("b", ("a", "b"))
        got = ww_average(fib_word, f, 0.0, 100, offset=7)
        assert got.real == pytest.approx(fib_word[7:107].count("b") / 100)

    def test_window_bounds_checked(self):
        f = Observable.indicator("a", ("a", "b"))
        with pytest.raises(ValidationError, match="exceeds the word"):
            ww_average("ab" * 5, f, 0.0, 11)
        with pytest.raises(ValidationError):
            ww_average("ab", f, 0.0, 0)
        with pytest.raises(ValidationError):
            ww_average("ab", f, 0.0, 1, offset=-1)

    def test_locality_one_center_convention(self, fib_word):
        # a centered 3-block indicator of the middle letter must agree with
        # the plain letter indicator advanced by one position
        blocks = {fib_word[i : i + 3] for i in range(2000)}
        f1 = Observable(1, {b: (1.0 if b[1] == "b" else 0.0) for b in blocks})
        f0 = Observable.indicator("b", ("a", "b"))
        n = 1500
        a = ww_average(fib_word, f1, 0.25, n, offset=0)
        b = ww_average(fib_word, f0, 0.25, n, offset=1)
        assert abs(a - b) < 1e-12

    @given(st.floats(0.0, 1.0), st.integers(1, 200))
    @settings(max_examples=50, deadline=None)
    def test_modulus_bounded_by_sup(self, alpha, n):
        word = "abbab" * 50
        f = Observable(0, {"a": 1.0 + 2.0j, "b": -0.5})
        assert abs(ww_average(word, f, alpha, n)) <= f.max_abs() + 1e-12


class TestSupStatistics:
    def test_offsets_stats(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        stats = ww_sup_over_offsets(fib_word, f, 0.37, 1000, range(0, 50, 5))
        assert set(stats) == {"sup", "inf", "spread"}
        assert stats["sup"] >= stats["inf"] >= 0.0
        assert stats["spread"] == pytest.approx(stats["sup"] - stats["inf"])

    def test_sup_over_frequencies_matches_pointwise(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        alphas = [0.1, 0.37, 1.0 / TAU]
        got = ww_sup_over_frequencies(fib_word, f, alphas, 2000)
        ref = max(abs(ww_average(fib_word, f, a, 2000)) for a in alphas)
        assert got == pytest.approx(ref, abs=1e-13)

    def test_empty_inputs(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        with pytest.raises(ValidationError):
            ww_sup_over_offsets(fib_word, f, 0.1, 10, [])
        with pytest.raises(ValidationError):
            ww_sup_over_frequencies(fib_word, f, [], 10)


class TestWWReport:
    def test_structure(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        rep = ww_report(fib_word, f, 0.0, [100, 1000, 10000], offsets=(0, 5))
        assert rep.lengths == (100, 1000, 10000)
        assert len(rep.values) == 3
        assert rep.limit_estimate == pytest.approx(abs(rep.values[-1]))
        blob = rep.to_json()
        assert set(blob) == {"alpha", "lengths", "abs_values", "sup_deviation"}
        assert blob["abs_values"][-1] == pytest.approx(rep.limit_estimate)

    def test_lengths_must_increase(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        with pytest.raises(ValidationError, match="increasing"):
            ww_report(fib_word, f, 0.0, [100, 100])

    def test_offsets_must_be_nonempty(self, fib_word):
        f = Observable.indicator("a", ("a", "b"))
        with pytest.raises(ValidationError, match="offset"):
            ww_report(fib_word, f, 0.0, [10], offsets=[])

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha(self, fib_word, alpha):
        f = Observable.indicator("a", ("a", "b"))
        with pytest.raises(ValidationError, match="finite"):
            ww_report(fib_word, f, alpha, [10])
        with pytest.raises(ValidationError, match="finite"):
            ww_sup_over_frequencies(fib_word, f, [0.1, alpha], 10)


class TestSubadditiveLimit:
    def test_mode_selection(self):
        with pytest.raises(ValidationError, match="exactly one"):
            subadditive_limit(lambda b: 1.0, [1.0, 2.0], 2, 0)
        with pytest.raises(ValidationError, match="exactly one"):
            subadditive_limit(
                lambda b: 1.0, [1.0, 2.0], 2, 0, domain=Box([0.0], [10.0]), word_length=5
            )

    def test_scales_validation(self):
        with pytest.raises(ValidationError, match="increasing"):
            subadditive_limit(lambda b: 1.0, [2.0, 1.0], 2, 0, domain=Box([0.0], [10.0]))

    def test_box_mode_volume_evaluator(self):
        rep = subadditive_limit(
            lambda b: b.volume, [2.0, 5.0, 10.0], 6, 3, domain=Box([0.0], [100.0])
        )
        assert rep.limit == pytest.approx(1.0)
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in rep.per_scale_spread)
        assert rep.scales == (2.0, 5.0, 10.0)

    def test_box_mode_needs_room(self):
        with pytest.raises(ValidationError, match="3 r"):
            subadditive_limit(lambda b: 1.0, [10.0], 2, 0, domain=Box([0.0], [20.0]))

    def test_word_mode_periodic_density(self):
        word = "ab" * 5000
        count = lambda start, length: word[start : start + length].count("a")
        rep = subadditive_limit(count, [10.0, 100.0, 1000.0], 8, 5, word_length=len(word))
        assert rep.limit == pytest.approx(0.5, abs=1e-3)
        assert rep.per_scale_spread[-1] <= rep.per_scale_spread[0]

    def test_word_mode_deterministic(self):
        word = "ab" * 200
        count = lambda start, length: word[start : start + length].count("a")
        a = subadditive_limit(count, [5.0, 20.0], 4, 11, word_length=len(word))
        b = subadditive_limit(count, [5.0, 20.0], 4, 11, word_length=len(word))
        assert a == b

    def test_negative_evaluator_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            subadditive_limit(
                lambda b: -1.0, [2.0], 1, 0, domain=Box([0.0], [10.0])
            )

    def test_json_keys(self):
        rep = subadditive_limit(
            lambda b: b.volume, [2.0, 4.0], 2, 0, domain=Box([0.0], [20.0])
        )
        assert set(rep.to_json()) == {"scales", "per_scale_mean", "per_scale_spread", "limit"}


class TestLinearRepetitivity:
    def test_periodic_word(self):
        word = "ab" * 5000
        out = check_linear_repetitivity(word, [1, 2, 4, 8])
        assert out["C_estimate"] == pytest.approx(2.0)

    def test_fibonacci_is_linearly_repetitive(self, fib_word):
        out = check_linear_repetitivity(fib_word[:30000], list(range(1, 21)))
        assert out["C_estimate"] <= 6.0
        assert len(out["constants"]) == 20

    def test_random_word_grows(self):
        rng = np.random.default_rng(5)
        word = "".join("ab"[i] for i in rng.integers(0, 2, 4000))
        out = check_linear_repetitivity(word, [4, 8, 16])
        assert out["constants"][-1] > 4 * out["constants"][0]

    @settings(max_examples=60, deadline=None)
    # 17 letters: the radius-1 key needs 17**2 - 1 = 288 > 255, one step past uint8
    @given(st.text(alphabet="abcdefghijklmnopq", min_size=4, max_size=300))
    def test_constants_match_a_dictionary_scan(self, word):
        radii = list(range(1, len(word) // 4 + 1))
        want = []
        for r in radii:
            starts = {}
            for i in range(len(word) - r + 1):
                starts.setdefault(word[i : i + r], []).append(i)
            gap = max(
                max(s[0], len(word) - r - s[-1], *(b - a for a, b in zip(s, s[1:])))
                for s in starts.values()
            )
            want.append(gap / r)
        assert check_linear_repetitivity(word, radii)["constants"] == want

    @pytest.mark.parametrize("shift", [0, 777, 31337])
    def test_fibonacci_constants_match_the_recurrence_function(self, fib_word, shift):
        # Morse & Hedlund (1940): with F = 1, 2, 3, 5, 8, ... and F_k <= r < F_{k+1},
        # the largest return time of a length-r factor of the Fibonacci word is F_{k+2}
        fib = [1, 2]
        while fib[-2] <= 100:  # up to F_{k+2} for the largest F_k <= 100
            fib.append(fib[-1] + fib[-2])
        radii = list(range(1, 101))
        want = [next(fib[k + 2] for k in range(len(fib)) if fib[k] <= r < fib[k + 1]) / r for r in radii]
        word = fib_word[shift : shift + 20000]
        assert check_linear_repetitivity(word, radii)["constants"] == want

    def test_repeated_unsorted_radii_keep_their_order(self, fib_word):
        word = fib_word[:2000]
        got = check_linear_repetitivity(word, [5, 3, 5, 1])["constants"]
        want = [check_linear_repetitivity(word, [r])["constants"][0] for r in (5, 3, 5, 1)]
        assert got == want

    def test_word_too_short(self):
        with pytest.raises(ValidationError, match="adequacy"):
            check_linear_repetitivity("ab" * 10, [10])

    def test_radii_validation(self):
        with pytest.raises(ValidationError):
            check_linear_repetitivity("ab" * 100, [0])
        with pytest.raises(ValidationError):
            check_linear_repetitivity("ab" * 100, [])


def _int64_constants(word, radii):
    """check_linear_repetitivity with int64 pair keys, np.unique ranks and one
    stable comparison argsort per radius: the reference the narrow keys replace."""
    uniq, rank = np.unique(np.frombuffer(word.encode("utf-32-le"), dtype=np.uint32), return_inverse=True)
    classes, w, by_radius = len(uniq), 1, {}
    for r in sorted(set(radii)):
        while 2 * w <= r:
            uniq, rank = np.unique(rank[:-w].astype(np.int64) * classes + rank[w:], return_inverse=True)
            classes, w = len(uniq), 2 * w
        key = rank[: len(rank) - (r - w)].astype(np.int64) * classes + rank[r - w :]
        starts = np.argsort(key, kind="stable")
        ks = key[starts]
        same = ks[1:] == ks[:-1]
        gaps = [int(np.diff(starts)[same].max())] if same.any() else []
        gaps.append(int(starts[np.concatenate([[True], ~same])].max()))
        gaps.append(int((len(word) - r - starts[np.concatenate([~same, [True]])]).max()))
        by_radius[r] = max(gaps) / r
    return [by_radius[r] for r in radii]


def _word(codes, first):
    return "".join(chr(first + int(c)) for c in codes)


class TestFactorKeyWidths:
    """Pair keys are stored in the narrowest unsigned type holding classes**2 - 1;
    the constants must not depend on that width."""

    @pytest.mark.parametrize("letters, bits", [(16, 8), (17, 16), (256, 16), (257, 32)])
    @pytest.mark.parametrize("kind", ["random", "rotation"])
    def test_letter_counts_at_the_width_steps(self, letters, bits, kind):
        n = 4000
        if kind == "random":
            codes = np.random.default_rng(letters).integers(0, letters, n)
        else:  # a coding of the rotation by sqrt(2): few factors, long recurrences
            codes = np.floor(np.arange(n) * np.sqrt(2.0)).astype(np.int64) % letters
        codes[:letters] = np.arange(letters)  # every letter occurs
        word = _word(codes, 0x100)
        (_, key), = _factor_classes(word, [1])
        assert key.dtype.itemsize * 8 == bits
        radii = [1, 2, 3, 5, 8, 13, 64, 100, 7, 1]
        assert check_linear_repetitivity(word, radii)["constants"] == _int64_constants(word, radii)

    def test_more_than_two_to_the_sixteen_letters(self):
        letters = 70000
        rng = np.random.default_rng(11)
        codes = np.concatenate([rng.permutation(letters), rng.integers(0, letters, letters)])
        word = _word(codes, 0x20000)
        (_, key), = _factor_classes(word, [1])
        assert key.dtype == np.uint64
        radii = [1, 2, 3, 4, 6, 9]
        assert check_linear_repetitivity(word, radii)["constants"] == _int64_constants(word, radii)

    def test_random_word_with_more_than_two_to_the_sixteen_classes(self):
        word = _word(np.random.default_rng(4).integers(0, 4, 200000), ord("a"))
        radii = [4, 9, 12, 16, 17, 31, 50]
        for r, key in _factor_classes(word, radii):
            if r >= 9:
                assert len(np.unique(key)) > 2**16
        assert check_linear_repetitivity(word, radii)["constants"] == _int64_constants(word, radii)

    def test_fibonacci_keys_fit_one_uint32_word(self):
        # on the Fibonacci word r + 1 classes of length-r factors keep every key
        # within 16 bits, and below 2**13, so that _lexorder packs it with an
        # 18-bit position into one uint32 word
        word = substitution_fixed_point(named_substitution("fibonacci"), 200000)[:200000]
        widths = {r: (key.dtype.itemsize, int(key.max())) for r, key in _factor_classes(word, range(1, 101))}
        assert sorted(widths) == list(range(1, 101))
        assert max(size for size, _ in widths.values()) <= 2
        assert max(top for _, top in widths.values()) < 2**13
