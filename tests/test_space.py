"""Geometry of the p-norm space model: duality maps and the phi functional.

Expected values are frozen from independent computations: the p = 3 map of
(1, 1) is pinned through the defining identities <x, Jx> = |x|^2 and
|Jx|_q = |x| evaluated with plain arithmetic, not through the map itself.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hybrideq import (
    DualPoint,
    PrimalPoint,
    SpaceConfig,
    duality_map,
    inverse_duality_map,
    lyapunov_phi,
    pnorm,
)
from hybrideq.space import (
    _SAFE_MAX,
    _SAFE_MIN,
    all_finite,
    all_nonzero,
    any_nonzero,
    duality_jacobian,
    gauge_coords,
    kept,
    max_entry,
    min_entry,
    norm2,
    norm2_rows,
    row_max,
    row_min,
)


def _random_points(space, count, seed, scale=2.0):
    rng = np.random.default_rng(seed)
    return [
        PrimalPoint(scale * rng.standard_normal(space.dimension), space)
        for _ in range(count)
    ]


class TestSpaceConfig:
    def test_conjugate_is_derived(self):
        s = SpaceConfig(4, 3.0)
        assert s.conjugate == pytest.approx(1.5)
        assert SpaceConfig(2, 2.0).is_hilbert

    def test_rejects_out_of_band_exponents(self):
        for bad in (1.0, 1.05, 10.5, 0.5, -2.0):
            with pytest.raises(ValueError):
                SpaceConfig(3, bad)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            SpaceConfig(0, 2.0)


class TestPoints:
    def test_length_checked(self):
        s = SpaceConfig(3, 2.0)
        with pytest.raises(ValueError):
            PrimalPoint([1.0, 2.0], s)

    def test_finiteness_checked(self):
        s = SpaceConfig(2, 2.0)
        with pytest.raises(ValueError):
            DualPoint([np.inf, 0.0], s)

    def test_coords_read_only(self):
        s = SpaceConfig(2, 2.0)
        x = PrimalPoint([1.0, 2.0], s)
        with pytest.raises(ValueError):
            x.coords[0] = 3.0


class TestPointCache:
    """A point's kept norm, duality image and Jacobian are the kernels'
    values, computed once."""

    EXPONENTS = [1.1, 1.5, 2.0, 3.0, 10.0]
    MAGNITUDES = [1e-100, 1.0, 1e100]

    @staticmethod
    def _coords(mag):
        return mag * np.array([0.3, -1.2, 0.0, 0.7, 2.5])

    # the plain power sum is tried first and numpy reports its overflow;
    # below exponent 2 the Jacobian is infinite at the zero coordinate
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("mag", MAGNITUDES)
    def test_kept_values_are_the_kernels_bit_for_bit(self, p, mag):
        space = SpaceConfig(5, p)
        coords = self._coords(mag)
        x = PrimalPoint(coords, space)
        assert x.norm == pnorm(coords, p)
        assert x.dual_coords.tobytes() == gauge_coords(coords, p).tobytes()
        assert x.jacobian.tobytes() == duality_jacobian(coords, p).tobytes()
        w = DualPoint(coords, space)
        assert w.norm == pnorm(coords, space.conjugate)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", EXPONENTS)
    def test_image_is_read_only(self, p):
        x = PrimalPoint(self._coords(1.0), SpaceConfig(5, p))
        assert not x.dual_coords.flags.writeable
        with pytest.raises(ValueError):
            x.dual_coords[0] = 1.0
        with pytest.raises(ValueError):
            x.jacobian[0, 0] = 1.0

    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", EXPONENTS)
    def test_kept_values_cannot_be_replaced(self, p):
        space = SpaceConfig(5, p)
        x, w = PrimalPoint(self._coords(1.0), space), DualPoint(self._coords(1.0), space)
        for point, name in ((x, "norm"), (x, "dual_coords"), (x, "jacobian"), (w, "norm")):
            for _ in range(2):  # before the first read and after it
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(point, name, 0.0)
                getattr(point, name)
        assert x.norm == pnorm(x.coords, p) and w.norm == pnorm(w.coords, space.conjugate)

    def test_kept_computes_once_per_instance_of_a_frozen_dataclass(self):
        calls = []

        @dataclasses.dataclass(frozen=True)
        class Holder:
            x: float

            @kept
            def double(self):
                """Twice x."""
                calls.append(self.x)
                return 2.0 * self.x

        a, b = Holder(1.0), Holder(3.0)
        assert (a.double, a.double, b.double, a.double, b.double) == (2.0, 2.0, 6.0, 2.0, 6.0)
        assert calls == [1.0, 3.0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.double = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del a.double
        assert a.double == 2.0 and a == Holder(1.0) and calls == [1.0, 3.0]
        assert isinstance(Holder.double, kept) and Holder.double.__doc__ == "Twice x."

    def test_hilbert_image_is_the_coordinates(self):
        x = PrimalPoint(self._coords(1.0), SpaceConfig(5, 2.0))
        assert x.dual_coords is x.coords

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("mag", MAGNITUDES)
    def test_each_value_is_computed_once(self, monkeypatch, p, mag):
        import hybrideq.space as space_module

        calls = []

        def counting(name):
            real = getattr(space_module, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            return counted

        monkeypatch.setattr(space_module, "pnorm", counting("pnorm"))
        monkeypatch.setattr(space_module, "gauge_coords", counting("gauge_coords"))
        monkeypatch.setattr(space_module, "duality_jacobian", counting("duality_jacobian"))
        space = SpaceConfig(5, p)
        x = PrimalPoint(self._coords(mag), space)
        w = DualPoint(x.coords, space)
        first = (x.norm, x.dual_coords, w.norm, x.jacobian)
        assert "pnorm" in calls and "duality_jacobian" in calls
        assert calls.count("gauge_coords") == (0 if p == 2.0 else 1)
        if mag == 1.0:
            # x's norm and w's: the image and the Jacobian read x's
            assert calls.count("pnorm") == 2
        calls.clear()
        for _ in range(3):
            assert (x.norm, w.norm) == (first[0], first[2]) and x.dual_coords is first[1]
            assert x.jacobian is first[3]
            lyapunov_phi(x, x)
        assert calls == []


class TestKnownNorm:
    """A norm passed to the kernels gives the one-argument result byte for byte."""

    VECTORS = {
        "no_zero": [0.3, -1.2, 0.05, 0.7, 2.5],
        "one_zero": [0.3, -1.2, 0.0, 0.7, 2.5],
        "zero": [0.0] * 5,
    }

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 10.0])
    @pytest.mark.parametrize("mag", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("kind", sorted(VECTORS))
    def test_passed_norm_changes_nothing(self, p, mag, kind):
        v = mag * np.array(self.VECTORS[kind])
        nrm = pnorm(v, p)
        assert gauge_coords(v, p, nrm).tobytes() == gauge_coords(v, p).tobytes()
        assert duality_jacobian(v, p, nrm).tobytes() == duality_jacobian(v, p).tobytes()


class TestDualityMap:
    def test_identity_in_hilbert_mode(self):
        s = SpaceConfig(2, 2.0)
        w = duality_map(PrimalPoint([3.0, -4.0], s))
        np.testing.assert_allclose(w.coords, [3.0, -4.0])

    def test_zero_maps_to_zero(self):
        for p in (1.5, 2.0, 3.0, 7.0):
            s = SpaceConfig(4, p)
            w = duality_map(PrimalPoint(np.zeros(4), s))
            assert np.all(w.coords == 0.0)
            z = inverse_duality_map(DualPoint(np.zeros(4), s))
            assert np.all(z.coords == 0.0)

    def test_p3_example_value(self):
        # oracle: |x|_3 = 2^(1/3); identities pin w = (2^(-1/3), 2^(-1/3))
        s = SpaceConfig(2, 3.0)
        x = PrimalPoint([1.0, 1.0], s)
        w = duality_map(x)
        expected = 2.0 ** (-1.0 / 3.0)
        np.testing.assert_allclose(w.coords, [expected, expected], rtol=1e-14)
        norm_x = (1.0 + 1.0) ** (1.0 / 3.0)
        assert float(np.dot(x.coords, w.coords)) == pytest.approx(norm_x**2, rel=1e-12)
        assert pnorm(w.coords, s.conjugate) == pytest.approx(norm_x, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_defining_identities_on_samples(self, p):
        s = SpaceConfig(8, p)
        for x in _random_points(s, 60, seed=11):
            w = duality_map(x)
            nx = x.norm
            assert abs(float(np.dot(x.coords, w.coords)) - nx * nx) <= 1e-10 * (1 + nx * nx)
            assert abs(w.norm - nx) <= 1e-10 * (1 + nx)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_roundtrips(self, p):
        s = SpaceConfig(6, p)
        rng = np.random.default_rng(5)
        for _ in range(60):
            xc = 3.0 * rng.standard_normal(6)
            x = PrimalPoint(xc, s)
            back = inverse_duality_map(duality_map(x))
            np.testing.assert_allclose(back.coords, xc, rtol=1e-8, atol=1e-10)
            wc = rng.standard_normal(6)
            w = DualPoint(wc, s)
            back_w = duality_map(inverse_duality_map(w))
            np.testing.assert_allclose(back_w.coords, wc, rtol=1e-8, atol=1e-10)

    def test_positive_homogeneity(self):
        s = SpaceConfig(5, 3.0)
        rng = np.random.default_rng(3)
        for _ in range(40):
            xc = rng.standard_normal(5)
            lam = rng.uniform(0.1, 9.0)
            lhs = gauge_coords(lam * xc, 3.0)
            rhs = lam * gauge_coords(xc, 3.0)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(rhs).max()))

    def test_roundtrip_of_p3_example(self):
        s = SpaceConfig(2, 3.0)
        w = duality_map(PrimalPoint([1.0, 1.0], s))
        z = inverse_duality_map(w)
        np.testing.assert_allclose(z.coords, [1.0, 1.0], rtol=1e-12)


class TestLyapunovPhi:
    def test_hilbert_reduces_to_squared_distance(self):
        s = SpaceConfig(2, 2.0)
        assert lyapunov_phi(
            PrimalPoint([1.0, 0.0], s), PrimalPoint([0.0, 1.0], s)
        ) == pytest.approx(2.0)

    def test_diagonal_vanishes(self):
        for p in (1.5, 2.0, 3.0):
            s = SpaceConfig(4, p)
            for x in _random_points(s, 10, seed=int(10 * p)):
                assert abs(lyapunov_phi(x, x)) <= 1e-10 * (1 + x.norm**2)

    def test_second_argument_zero_gives_norm_squared(self):
        s = SpaceConfig(2, 3.0)
        x = PrimalPoint([1.0, 1.0], s)
        zero = PrimalPoint([0.0, 0.0], s)
        expected = 2.0 ** (2.0 / 3.0)  # |x|_3^2 computed directly
        assert lyapunov_phi(x, zero) == pytest.approx(expected, rel=1e-12)
        assert lyapunov_phi(x, zero) == pytest.approx(x.norm**2, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_norm_bracket_bounds(self, p):
        s = SpaceConfig(8, p)
        pts = _random_points(s, 80, seed=23)
        for x, y in zip(pts, reversed(pts)):
            phi = lyapunov_phi(x, y)
            lower = (x.norm - y.norm) ** 2
            upper = (x.norm + y.norm) ** 2
            assert phi >= lower - 1e-12 * (1 + upper)
            assert phi <= upper + 1e-12 * (1 + upper)

    def test_hilbert_identity_on_samples(self):
        s = SpaceConfig(8, 2.0)
        rng = np.random.default_rng(9)
        for _ in range(50):
            xc, yc = rng.standard_normal(8), rng.standard_normal(8)
            phi = lyapunov_phi(PrimalPoint(xc, s), PrimalPoint(yc, s))
            d2 = float(np.dot(xc - yc, xc - yc))
            assert abs(phi - d2) <= 1e-12 * (1 + d2)

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lyapunov_phi(
                PrimalPoint([1.0], SpaceConfig(1, 2.0)),
                PrimalPoint([1.0], SpaceConfig(1, 3.0)),
            )


class TestDualityJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for p in (1.5, 2.0, 3.0):
            v = rng.standard_normal(4) + 0.5
            jac = duality_jacobian(v, p)
            eps = 1e-6
            for j in range(4):
                step = np.zeros(4)
                step[j] = eps
                col = (gauge_coords(v + step, p) - gauge_coords(v - step, p)) / (2 * eps)
                np.testing.assert_allclose(jac[:, j], col, rtol=1e-5, atol=1e-7)

    def test_symmetric(self):
        v = np.array([0.3, -1.2, 0.7])
        jac = duality_jacobian(v, 3.0)
        np.testing.assert_allclose(jac, jac.T, atol=1e-14)


class TestScaleSafety:
    """pnorm and the duality map at magnitudes where plain power sums fail."""

    # the plain sum is tried first and numpy reports its overflow
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", [2.0, 10.0])
    def test_extreme_magnitudes_keep_norm_and_map(self, p):
        # at p = 10 the plain sum gives |1e-33 * 1| = 0 and |1e32 * 1| = inf;
        # at p = 2 the same happens at 1e-170 and 1e160
        for mag in (1e-170, 1e-33, 1e32, 1e160):
            x = np.full(3, mag)
            assert pnorm(x, p) == pytest.approx(3.0 ** (1.0 / p) * mag, rel=1e-14)
            jx = gauge_coords(x, p)
            assert np.all(np.isfinite(jx)) and np.all(jx > 0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_two_norm_is_the_dot_root_at_every_magnitude(self):
        # in the safe band pnorm(v, 2) is float(np.sqrt(np.dot(v, v))); outside
        # it, that of v scaled by the power of two of its largest entry
        rng = np.random.default_rng(2)
        scaled = 0
        for decade in range(-200, 201, 5):
            for _ in range(8):
                v = rng.standard_normal(int(rng.integers(1, 9))) * 10.0**decade
                plain = float(np.sqrt(np.dot(v, v)))
                shift = 0
                if not _SAFE_MIN <= plain <= _SAFE_MAX:
                    shift = int(np.frexp(np.abs(v).max())[1])
                    scaled += 1
                w = np.ldexp(v, -shift)
                expected = float(np.ldexp(float(np.sqrt(np.dot(w, w))), shift))
                nrm = pnorm(v, 2.0)
                assert type(nrm) is float
                assert np.float64(nrm).tobytes() == np.float64(expected).tobytes()
        assert scaled >= 8 * 60
        assert type(pnorm(np.zeros(3), 2.0)) is float and pnorm(np.zeros(3), 2.0) == 0.0

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 10.0])
    def test_in_band_inputs_keep_the_plain_power_sum(self, p):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = rng.standard_normal(6) * 10.0 ** rng.uniform(-12.0, 12.0)
            plain = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
            assert pnorm(v, p) == plain
            assert np.array_equal(
                gauge_coords(v, p), plain ** (2.0 - p) * np.abs(v) ** (p - 1.0) * np.sign(v)
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(1.1, 10.0),
        mantissas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        decade=st.integers(-150, 150),
    )
    def test_duality_identities_across_magnitudes(self, p, mantissas, decade):
        m = np.array(mantissas)
        assume(np.max(np.abs(m)) >= 0.5)
        x = m * 10.0**decade
        q = p / (p - 1.0)
        nrm = pnorm(x, p)
        jx = gauge_coords(x, p)
        assert pnorm(jx, q) == pytest.approx(nrm, rel=1e-12)
        assert float(np.dot(x, jx)) == pytest.approx(nrm * nrm, rel=1e-12)


class TestEuclideanNorms:
    """norm2 and norm2_rows are np.linalg.norm's 1-D and axis=1 forms bit for
    bit.  The two forms sum in different orders, so they may differ from
    each other in the last place."""

    @staticmethod
    def _assert_same(rows):
        assert norm2_rows(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()
        for row in rows:
            assert np.float64(norm2(row)).tobytes() == np.linalg.norm(row).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_across_magnitudes(self, data):
        d = data.draw(st.integers(1, 12))
        k = data.draw(st.integers(1, 6))
        mantissas = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=k * d, max_size=k * d))
        decades = data.draw(st.lists(st.integers(-150, 150), min_size=k, max_size=k))
        rows = np.array(mantissas).reshape(k, d) * 10.0 ** np.array(decades, dtype=float)[:, None]
        self._assert_same(rows)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("mag", [1e155, 1e200, 1e308])
    def test_inputs_that_overflow(self, mag):
        rows = np.array([[1.0, -1.0, 0.5], [0.0, 0.0, 1.0], [1e-300, 2.0, -3.0]]) * mag
        assert np.isinf(np.linalg.norm(rows, axis=1)).any()
        self._assert_same(rows)


def _same_reduction(got, expected) -> bool:
    """got is expected bit for bit, but for the sign of a zero and the
    payload of a NaN, which the helpers leave to argmax and argmin."""
    got, expected = np.float64(got), np.float64(expected)
    if np.isnan(expected):
        return bool(np.isnan(got))
    if expected == 0.0:
        return got == 0.0
    return got.tobytes() == expected.tobytes()


_ENTRIES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, np.nan])


class TestReductions:
    """The helpers of space.py are numpy's reductions: max, min, any and all,
    the row forms and the finiteness test, with NaN propagating."""

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(_ENTRIES, max_size=30), initial=st.floats(-10.0, 10.0))
    def test_vectors(self, entries, initial):
        a = np.array(entries, dtype=float)
        for b in (a, a > 0.0):
            assert any_nonzero(b) == b.any()
            assert all_nonzero(b) == b.all()
        assert all_finite(a) == np.isfinite(a).all()
        if a.size:
            assert _same_reduction(max_entry(a), a.max())
            assert _same_reduction(min_entry(a), a.min())
        assert _same_reduction(max_entry(a, initial), a.max(initial=initial))
        assert _same_reduction(min_entry(a, initial), a.min(initial=initial))

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(0, 5),
        d=st.integers(0, 6),
        data=st.data(),
        initial=st.sampled_from([-np.inf, 0.0, 1.0]),
    )
    def test_rows(self, k, d, data, initial):
        m = np.array(data.draw(st.lists(_ENTRIES, min_size=k * d, max_size=k * d)), dtype=float)
        m = m.reshape(k, d)
        pairs = [(row_max(m, initial), m.max(axis=1, initial=initial))]
        pairs.append((row_min(m, initial), m.min(axis=1, initial=initial)))
        if d:
            pairs += [(row_max(m), m.max(axis=1)), (row_min(m), m.min(axis=1))]
        for got, expected in pairs:
            assert got.shape == expected.shape == (k,)
            assert all(_same_reduction(g, e) for g, e in zip(got, expected))

    def test_nan_propagates(self):
        a = np.array([1.0, np.nan, 3.0, -np.inf])
        for value in (max_entry(a), min_entry(a), max_entry(a, 5.0), min_entry(a, -5.0)):
            assert np.isnan(value)
        m = np.array([[1.0, 2.0], [np.nan, 0.5], [4.0, np.nan]])
        for rows in (row_max(m), row_min(m), row_max(m, -np.inf), row_min(m, 1.0)):
            assert not np.isnan(rows[0]) and np.isnan(rows[1:]).all()
        assert row_max(m)[0] == 2.0 and row_min(m, 1.0)[0] == 1.0

    def test_empty_arrays_with_initial(self):
        assert max_entry(np.zeros(0), 0.0) == 0.0 == np.zeros(0).max(initial=0.0)
        assert min_entry(np.zeros(0), 1.0) == 1.0
        np.testing.assert_array_equal(row_max(np.zeros((3, 0)), -np.inf), np.full(3, -np.inf))
        np.testing.assert_array_equal(row_min(np.zeros((2, 0)), 1.0), np.ones(2))
        assert row_max(np.zeros((0, 4)), -np.inf).shape == (0,) == row_min(np.zeros((0, 4))).shape
        # without initial an empty reduction is refused, as numpy refuses it
        for call in (lambda: max_entry(np.zeros(0)), lambda: row_min(np.zeros((2, 0)))):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize(
        "values, finite",
        [([], True), ([0.0, -1e308], True), ([1.0, np.inf], False), ([-np.inf], False),
         ([np.nan, 2.0], False), ([[1.0, 2.0], [3.0, np.nan]], False)],
    )
    def test_finiteness(self, values, finite):
        a = np.array(values, dtype=float)
        assert all_finite(a) == finite == np.isfinite(a).all()

    def test_count_nonzero_on_floats_and_booleans(self):
        floats = {
            (): (False, True),
            (0.0, -0.0): (False, False),
            (0.0, np.nan): (True, False),
            (1.0, np.nan, -2.0): (True, True),
            (-0.0, 5e-324): (True, False),
        }
        for values, (some, every) in floats.items():
            a = np.array(values, dtype=float)
            assert (any_nonzero(a), all_nonzero(a)) == (some, every) == (a.any(), a.all())
            b = a != 0.0  # NaN != 0 is True
            assert (any_nonzero(b), all_nonzero(b)) == (b.any(), b.all())

    def test_the_first_of_two_signed_zeros(self):
        # the one difference the helpers allow: argmax takes the first zero
        a = np.array([-1.0, -0.0, 0.0])
        assert np.signbit(max_entry(a)) and max_entry(a) == a.max()
        assert not np.signbit(min_entry(np.array([0.0, -0.0])))
