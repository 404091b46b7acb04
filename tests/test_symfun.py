from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from schoenberg.certs import esf_bounds
from schoenberg.densela import UnderflowError
from schoenberg.polyzero import ZeroConfig
from schoenberg.symfun import critical_esf_identity_error, esf_table


def esf_bruteforce(values, k):
    """Oracle: direct sum over all k-subsets."""
    if k == 0:
        return 1.0
    return sum(prod(sub) for sub in combinations(values, k))


def esf_rows(zeros) -> list:
    """esf_bounds of the zeros, which need not be centered: the evaluator's
    esf_k columns, k = 1 .. n-1."""
    return esf_bounds(ZeroConfig(tuple(zeros)))


class TestEsf:
    """e_k read off esf_table; its overflow and underflow become errors in
    the evaluator's esf_k columns, through esf_bounds."""

    def test_constant_vector(self):
        assert esf_table([1.0, 1.0, 1.0])[2] == pytest.approx(3.0)

    def test_arithmetic_vector(self):
        # 1*2 + 1*3 + 2*3
        assert esf_table([1.0, 2.0, 3.0])[2] == pytest.approx(11.0)

    def test_order_zero(self):
        assert esf_table([5.0, -2.0, 7.5])[0] == 1.0
        assert esf_table([]).tolist() == [1.0]

    def test_overflow_is_an_overflow_error(self):
        # e_2 of the moduli is 1e400; the evaluator's esf_k2 right side
        # overflows
        with pytest.raises(OverflowError):
            esf_rows([1e200, 1e200, 0.0])
        with pytest.raises(OverflowError):
            esf_rows([1e200j, 1e200, 0.0])

    def test_overflow_above_k_is_harmless(self):
        with np.errstate(over="ignore"):
            table = esf_table([1e200, 1e200])
        assert table.tolist() == [1.0, 2e200, np.inf]

    @pytest.mark.parametrize(
        "values,k",
        [
            ([1e-200, 1e-200, 0.0], 2),
            ([1e-160, 1e-160, 0.0], 2),  # a subnormal e_2 underflowed too
            ([1e-200j, -1e-200, 0.0], 2),
            ([0.0, 1e-120, 1e-120, 1e-120], 3),
        ],
    )
    def test_underflow_is_an_underflow_error(self, values, k):
        # at least k nonzero moduli whose e_k falls below the smallest
        # normal float; every e_j below k is normal
        assert esf_table(np.abs(values))[k] < np.finfo(float).tiny
        with pytest.raises(UnderflowError):
            esf_rows(values)
        assert esf_rows(values[:k])  # k - 1 columns, all normal

    def test_cancellation_and_exact_zeros_are_not_underflows(self):
        # the rule reads the moduli, so an e_k that cancels stays legal
        assert esf_table([1.0, -1.0])[1] == 0.0
        assert esf_table([1e-300, -1e-300])[1] == 0.0
        (k1,) = esf_rows([1e-300, -1e-300])
        assert k1.rhs == 1e-300
        # fewer than k nonzero moduli make e_k an exact zero
        assert esf_table([0.0, 0.0, 1e-200])[2] == 0.0
        assert esf_rows([0.0, 0.0, 1e-200])[1].rhs == 0.0
        assert esf_rows([0.0, 0.0])[0].rhs == 0.0
        # e_1 of the same tiny values is normal
        assert esf_table([1e-200, 1e-200])[1] == 2e-200

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, bad):
        # the one public reader of esf_table that takes values
        with pytest.raises(ValueError, match="finite"):
            critical_esf_identity_error([1.0, bad])

    def test_binomial_on_ones(self):
        for n in range(1, 9):
            table = esf_table([1.0] * n)
            for k in range(n + 1):
                assert table[k] == pytest.approx(comb(n, k))

    def test_matches_bruteforce(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            values = rng.uniform(-2, 2, n)
            table = esf_table(values)
            for k in range(n + 1):
                expected = esf_bruteforce(values.tolist(), k)
                assert table[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_matches_bruteforce_complex(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            table = esf_table(values)
            for k in range(n + 1):
                expected = esf_bruteforce(values.tolist(), k)
                assert table[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_monotone_in_each_entry(self, rng):
        # raising one entry of a nonnegative sequence cannot lower any e_k
        for _ in range(20):
            n = int(rng.integers(2, 8))
            values = rng.uniform(0, 3, n)
            bumped = values.copy()
            i = int(rng.integers(0, n))
            bumped[i] += rng.uniform(0, 2)
            assert np.all(esf_table(bumped) >= esf_table(values) - 1e-12)


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
