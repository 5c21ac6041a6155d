"""Shamir secret-sharing tests: reconstruction and threshold properties."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import shamir


class TestSplitValidation:
    def test_rejects_out_of_range_secret(self):
        with pytest.raises(shamir.ShamirError):
            shamir.split(shamir.PRIME, 2, 3)

    def test_rejects_zero_threshold(self):
        with pytest.raises(shamir.ShamirError):
            shamir.split(1, 0, 3)

    def test_rejects_fewer_shares_than_threshold(self):
        with pytest.raises(shamir.ShamirError):
            shamir.split(1, 4, 3)

    def test_share_xs_are_one_based_and_distinct(self):
        shares = shamir.split(123, 3, 7, random.Random(1))
        assert [s.x for s in shares] == list(range(1, 8))


class TestReconstruction:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=shamir.PRIME - 1),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=4),
           st.randoms(use_true_random=False))
    def test_any_threshold_subset_reconstructs(self, secret, t, extra, rng):
        n = t + extra
        shares = shamir.split(secret, t, n, random.Random(rng.random()))
        subset = rng.sample(shares, t)
        assert shamir.reconstruct(subset, t) == secret

    def test_all_shares_reconstruct(self):
        shares = shamir.split(98765, 4, 9, random.Random(2))
        assert shamir.reconstruct(shares, 4) == 98765

    def test_below_threshold_raises(self):
        shares = shamir.split(55, 3, 5, random.Random(3))
        with pytest.raises(shamir.ShamirError):
            shamir.reconstruct(shares[:2], 3)

    def test_duplicates_do_not_satisfy_threshold(self):
        shares = shamir.split(55, 3, 5, random.Random(4))
        with pytest.raises(shamir.ShamirError):
            shamir.reconstruct([shares[0]] * 5, 3)

    def test_below_threshold_subset_gives_no_information(self):
        # With t-1 shares, every candidate secret is consistent with some
        # polynomial: verify two different dealer secrets can produce the
        # same t-1 shares (information-theoretic hiding, spot check).
        rng = random.Random(5)
        shares_a = shamir.split(111, 2, 3, rng)
        # A degree-1 polynomial through (1, shares_a[0].y) with a
        # different secret exists: construct it explicitly.
        x1, y1 = shares_a[0].x, shares_a[0].y
        other_secret = 999
        slope = ((y1 - other_secret) * pow(x1, -1, shamir.PRIME)) % shamir.PRIME
        y_other = (other_secret + slope * x1) % shamir.PRIME
        assert y_other == y1  # same single share, different secret


class TestLagrange:
    def test_rejects_duplicate_points(self):
        with pytest.raises(shamir.ShamirError):
            shamir.lagrange_coefficients_at_zero([1, 1, 2])

    def test_rejects_zero_point(self):
        with pytest.raises(shamir.ShamirError):
            shamir.lagrange_coefficients_at_zero([0, 1, 2])

    def test_coefficients_sum_to_one(self):
        # Interpolating the constant polynomial 1 at zero must give 1.
        coefficients = shamir.lagrange_coefficients_at_zero([1, 2, 5, 9])
        assert sum(coefficients) % shamir.PRIME == 1

    @given(st.lists(st.integers(min_value=1, max_value=200),
                    min_size=1, max_size=8, unique=True))
    def test_interpolation_of_linear_polynomial(self, xs):
        # p(x) = 7 + 3x: interpolation at 0 from any points must give 7.
        shares = [shamir.Share(x, (7 + 3 * x) % shamir.PRIME) for x in xs]
        coefficients = shamir.lagrange_coefficients_at_zero(xs)
        value = sum(c * s.y for c, s in zip(coefficients, shares)) % shamir.PRIME
        if len(xs) >= 2:
            assert value == 7


class TestSubsetCoefficients:
    """The per-universe fast path against the direct formula (the oracle)."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=160), st.data())
    def test_identical_to_the_direct_formula(self, n, data):
        xs = data.draw(st.lists(st.integers(min_value=1, max_value=n),
                                min_size=1, max_size=n, unique=True))
        assert shamir.subset_coefficients_at_zero(xs, n) == \
            shamir.lagrange_coefficients_at_zero(xs)

    def test_threshold_subset_of_paper_scale(self):
        rng = random.Random(7)
        for n in (64, 128, 301):
            xs = sorted(rng.sample(range(1, n + 1), 2 * ((n - 1) // 3) + 1))
            assert shamir.subset_coefficients_at_zero(xs, n) == \
                shamir.lagrange_coefficients_at_zero(xs)

    @pytest.mark.parametrize("xs", [[1, 1, 2], [0, 1], [1, 5]])
    def test_rejects_points_outside_the_universe(self, xs):
        with pytest.raises(shamir.ShamirError):
            shamir.subset_coefficients_at_zero(xs, 4)
