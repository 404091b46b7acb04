from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from schoenberg.densela import UnderflowError
from schoenberg.symfun import critical_esf_identity_error, esf


def esf_bruteforce(values, k):
    """Oracle: direct sum over all k-subsets."""
    if k == 0:
        return 1.0
    return sum(prod(sub) for sub in combinations(values, k))


class TestEsf:
    def test_constant_vector(self):
        assert esf([1.0, 1.0, 1.0], 2) == pytest.approx(3.0)

    def test_arithmetic_vector(self):
        # 1*2 + 1*3 + 2*3
        assert esf([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)

    def test_order_zero(self):
        assert esf([5.0, -2.0, 7.5], 0) == 1.0
        assert esf([], 0) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            esf([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            esf([1.0, 2.0], -1)

    @pytest.mark.parametrize("k", [1.5, 1.0, True, "1"])
    def test_order_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            esf([1.0, 2.0, 3.0], k)

    def test_overflow_is_an_overflow_error(self):
        with pytest.raises(OverflowError):
            esf([1e200, 1e200], 2)
        with pytest.raises(OverflowError):
            esf([1e200j, 1e200], 2)

    def test_overflow_above_k_is_harmless(self):
        assert esf([1e200, 1e200], 1) == 2e200
        assert esf([1e200, 1e200], 0) == 1.0

    @pytest.mark.parametrize(
        "values,k",
        [
            ([1e-200, 1e-200], 2),
            ([1e-160, 1e-160], 2),  # a subnormal e_2 underflowed too
            ([1e-200j, -1e-200], 2),
            ([0.0, 1e-120, 1e-120, 1e-120], 3),
        ],
    )
    def test_underflow_is_an_underflow_error(self, values, k):
        with pytest.raises(UnderflowError, match=f"e_{k} underflowed"):
            esf(values, k)

    def test_cancellation_and_exact_zeros_are_not_underflows(self):
        # the rule reads the moduli, so an e_k that cancels stays legal
        assert esf([1.0, -1.0], 1) == 0.0
        assert esf([1e-300, -1e-300], 1) == 0.0
        # fewer than k nonzero values make e_k an exact zero
        assert esf([0.0, 0.0, 1e-200], 2) == 0.0
        assert esf([0.0, 0.0], 2) == 0.0
        # e_1 of the same tiny values is normal
        assert esf([1e-200, 1e-200], 1) == 2e-200

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            esf([1.0, bad], 1)

    def test_binomial_on_ones(self):
        for n in range(1, 9):
            for k in range(n + 1):
                assert esf([1.0] * n, k) == pytest.approx(comb(n, k))

    def test_matches_bruteforce(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            values = rng.uniform(-2, 2, n)
            for k in range(n + 1):
                expected = esf_bruteforce(values.tolist(), k)
                assert esf(values, k) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12
                )

    def test_matches_bruteforce_complex(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            for k in range(n + 1):
                expected = esf_bruteforce(values.tolist(), k)
                assert esf(values, k) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_monotone_in_each_entry(self, rng):
        # raising one entry of a nonnegative sequence cannot lower any e_k
        for _ in range(20):
            n = int(rng.integers(2, 8))
            values = rng.uniform(0, 3, n)
            bumped = values.copy()
            i = int(rng.integers(0, n))
            bumped[i] += rng.uniform(0, 2)
            for k in range(n + 1):
                assert esf(bumped, k) >= esf(values, k) - 1e-12


class TestCriticalEsfIdentity:
    def test_repeated_ones(self):
        # q = (z-1)^4 has the critical points (1,1,1), which the direct route
        # returns exactly
        assert critical_esf_identity_error([1.0, 1.0, 1.0, 1.0]) <= 1e-8

    @pytest.mark.parametrize("n", range(5, 10))
    @pytest.mark.parametrize("value", [1.0, 2.0])
    def test_multiple_root(self, value, n):
        # an expansion into coefficients left these clusters off by up to
        # 3.2e-5; a zero of multiplicity n is returned n - 1 times, exactly
        assert critical_esf_identity_error([value] * n) <= 1e-14

    @pytest.mark.parametrize("n", range(5, 10))
    def test_multiple_root_next_to_a_simple_one(self, n):
        assert critical_esf_identity_error([2.0] * (n - 1) + [0.5]) <= 1e-14

    def test_all_zero(self):
        assert critical_esf_identity_error([0.0, 0.0, 0.0]) <= 1e-12

    def test_random_six_vectors(self, rng):
        for _ in range(50):
            moduli = rng.uniform(0, 2, 6)
            assert critical_esf_identity_error(moduli) <= 1e-9

    def test_random_sizes(self, rng):
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 11))
            worst = max(worst, critical_esf_identity_error(rng.uniform(0, 2, n)))
        assert worst <= 1e-9

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            critical_esf_identity_error([1.0, -1.0])

    @pytest.mark.parametrize("n", [3, 6, 12, 30])
    def test_scale_free(self, rng, n):
        # the identity is homogeneous, so a power-of-two scaling of the
        # moduli must leave the error bit-identical
        moduli = rng.uniform(0, 2, n)
        errors = [critical_esf_identity_error(2.0**k * moduli) for k in (-900, -600, 0, 600, 900)]
        assert errors == [errors[2]] * 5
        assert errors[2] <= 1e-9

    def test_huge_repeated_moduli(self):
        # e_3 of the unscaled moduli overflows
        assert critical_esf_identity_error([1e200, 1e200, 3e200]) <= 1e-14
