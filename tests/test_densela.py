import mpmath
import numpy as np
import pytest

from schoenberg import densela, harness
from schoenberg.densela import (
    ConvergenceError,
    _compression,
    _differentiator,
    critical_points_spectral,
    differentiator,
    eigenvalues,
    lp_norm,
    schatten_norm,
    singular_values,
)
from schoenberg.polyzero import ZeroConfig, critical_points_direct

from conftest import matched_distance, mp_critical_points, random_centered

EPS = float(np.finfo(float).eps)


class TestDifferentiator:
    def test_conjugate_pair_gives_zero_matrix(self):
        a = differentiator(ZeroConfig((1.0, -1.0)))
        assert np.abs(a).max() == 0.0

    def test_matches_projector_product(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 12))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            a = differentiator(ZeroConfig(tuple(z)))
            q = np.eye(n) - 1.0 / n
            np.testing.assert_allclose(a, q @ np.diag(z) @ q, atol=1e-13)

    def test_trace_of_centered_vanishes(self, rng):
        for _ in range(10):
            z = random_centered(rng, int(rng.integers(3, 10)))
            a = differentiator(ZeroConfig(tuple(z), centered=True))
            assert abs(np.trace(a)) <= 1e-14

    def test_eigenvalues_of_low_family(self):
        a = differentiator(ZeroConfig((0.0, 1.0, -1.0)))
        lam = eigenvalues(a)
        assert matched_distance(lam, [1 / np.sqrt(3), -1 / np.sqrt(3), 0]) < 1e-12

    def test_overflow_is_an_overflow_error(self):
        # the zeros are finite, but z_1 + z_2 overflows; no RuntimeWarning
        # leaks (the suite makes one an error) and no ValueError stands in
        cfg = ZeroConfig((1e308, -1e308, 0.0), centered=True)
        with pytest.raises(OverflowError):
            differentiator(cfg)
        with pytest.raises(OverflowError):
            critical_points_spectral(cfg)

    def test_scaling_equivariance(self, rng):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c = 2.7 - 1.3j
        a1 = differentiator(ZeroConfig(tuple(c * z)))
        a2 = c * differentiator(ZeroConfig(tuple(z)))
        assert np.abs(a1 - a2).max() <= 1e-15 * np.abs(a2).max()


class TestEigenvalues:
    def test_diagonal(self):
        lam = eigenvalues(np.diag([3.0, 2j, -1.0]))
        np.testing.assert_allclose(lam, [3.0, 2j, -1.0], atol=1e-15)

    def test_nilpotent(self):
        lam = eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(np.abs(lam), 0.0, atol=1e-8)

    def test_sorted_by_modulus_then_argument(self):
        lam = eigenvalues(np.diag([1.0, -1.0, 1j, -1j, 0.5]))
        mods = np.abs(lam)
        assert np.all(np.diff(mods) <= 1e-15)
        ties = lam[np.isclose(mods, 1.0)]
        assert np.all(np.diff(np.angle(ties)) >= 0)

    def test_against_characteristic_roots(self, rng):
        # cross-check with the polynomial route: roots of det(zI - M) for
        # companion-style matrices whose characteristic polynomial is known
        coeffs = np.concatenate([[1.0], rng.standard_normal(5) + 1j * rng.standard_normal(5)])
        companion = np.zeros((5, 5), dtype=complex)
        companion[1:, :-1] = np.eye(4)
        companion[:, -1] = -coeffs[1:][::-1]
        lam = eigenvalues(companion)
        assert matched_distance(lam, np.roots(coeffs)) < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    def test_prescale_large_matrix(self):
        lam = eigenvalues(np.diag([3e8, -2e8]))
        np.testing.assert_allclose(lam, [3e8, -2e8], rtol=1e-15)

    def test_overflowed_spectrum_of_a_finite_matrix(self):
        # the eigenvalues 2e308 and 0 came back as [inf, 1.4e276]
        with pytest.raises(OverflowError):
            eigenvalues(np.full((2, 2), 1e308))


class TestSingularValues:
    def test_shift_matrix(self):
        np.testing.assert_allclose(
            singular_values(np.array([[0.0, 1.0], [0.0, 0.0]])), [1, 0], atol=1e-16
        )

    def test_low_family_values(self):
        sigma = singular_values(differentiator(ZeroConfig((0.0, 1.0, -1.0))))
        c = 1 / np.sqrt(3)
        np.testing.assert_allclose(sigma, [c, c, 0], atol=1e-14)
        assert (sigma**2).sum() == pytest.approx(2 / 3, abs=1e-15)

    def test_against_lapack(self, rng):
        # independent route: sigma_i^2 are the eigenvalues of the Hermitian m* m
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 17))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ours = singular_values(m)
            ref = np.sort(np.linalg.eigvalsh(m.conj().T @ m))[::-1]
            worst = max(worst, float(np.abs(ours**2 - ref).max() / ours[0] ** 2))
        assert worst < 1e-13

    def test_rank_deficiency_of_differentiator(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 20))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sigma = singular_values(differentiator(ZeroConfig(tuple(z))))
            if sigma[0] > 0:
                assert sigma[-1] <= 1e-10 * sigma[0]

    def test_zero_matrix(self):
        np.testing.assert_allclose(singular_values(np.zeros((3, 3))), 0.0, atol=0)

    def test_prescale_small_matrix(self):
        sigma = singular_values(np.diag([3e-9, 2e-9]))
        np.testing.assert_allclose(sigma, [3e-9, 2e-9], rtol=1e-15)

    def test_overflowed_spectrum_of_a_finite_matrix(self):
        # the singular values 2e308 and 0 came back as [inf, 0]
        with pytest.raises(OverflowError):
            singular_values(np.full((2, 2), 1e308))

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError):
            singular_values(np.eye(3))


class TestCompression:
    """The compression of diag(z) to the mean-zero subspace carries the
    spectrum of Q diag(z) Q less its structural zero, for centered and
    uncentered zeros alike."""

    @staticmethod
    def rows(rng, n, centered):
        for _ in range(4):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            yield z - z.mean() if centered else z + 0.5 * rng.standard_normal()

    @pytest.mark.parametrize("centered", [True, False])
    @pytest.mark.parametrize("n", range(2, 33))
    def test_spectra_are_the_nonzero_spectra_of_the_differentiator(self, rng, n, centered):
        for z in self.rows(rng, n, centered):
            a, c = differentiator(ZeroConfig(tuple(z))), _compression(z)
            assert c.shape == (n - 1, n - 1)
            sigma = singular_values(a)
            # sigma_1(Q diag(|z|) Q), the scale of the certificates' shadows,
            # which is not itself a shadow when z is (a, -a)
            scale = singular_values(_differentiator(np.abs(z)))[0]
            # the eigenvalues, with the structural zero put back
            got = np.append(eigenvalues(c), 0.0)
            assert matched_distance(got, eigenvalues(a)) <= 1e-13 * scale
            assert np.abs(singular_values(c) - sigma[:-1]).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n", range(2, 33))
    def test_absolute_half_is_real_symmetric(self, rng, n):
        for z in self.rows(rng, n, centered=False):
            c = _compression(np.abs(z).astype(complex))
            assert not c.imag.any()
            np.testing.assert_array_equal(c, c.T)


class TestScaleRange:
    """Power-of-two scalings of the zeros from about 1e-150 to 1e150 scale
    both spectra exactly, up to rounding relative to the leading value."""

    EXPONENTS = (-498, -300, -100, -20, 20, 100, 300, 498)

    @staticmethod
    def spectra(z):
        a = _differentiator(z)
        return singular_values(a), np.sort(np.abs(eigenvalues(a)))[::-1]

    @pytest.mark.parametrize("n", [3, 5, 8, 16])
    def test_equivariant_across_the_exponent_range(self, rng, n):
        for _ in range(5):
            z = random_centered(rng, n)
            sigma0, lam0 = self.spectra(z)
            for k in self.EXPONENTS:
                scale = 2.0**k
                sigma, lam = self.spectra(z * scale)
                assert np.abs(sigma / scale - sigma0).max() <= 1e-13 * sigma0[0], k
                assert np.abs(lam / scale - lam0).max() <= 1e-13 * lam0[0], k


class TestNorms:
    def test_lp_examples(self):
        assert lp_norm([1, -1, 1, -1], 4) == pytest.approx(4 ** 0.25)
        assert lp_norm([0, 1, -1], 1) == pytest.approx(2.0)
        assert lp_norm([3, 4j], np.inf) == pytest.approx(4.0)

    def test_lp_rejects_bad_order(self):
        with pytest.raises(ValueError):
            lp_norm([1.0], 0.5)

    def test_schatten_identity_matrix(self):
        for n in (2, 3, 5):
            for p in (1.0, 1.5, 2.0, 4.0):
                assert schatten_norm(np.eye(n), p) == pytest.approx(n ** (1 / p))

    def test_schatten_low_family(self):
        a = differentiator(ZeroConfig((0.0, 1.0, -1.0)))
        assert schatten_norm(a, 2) == pytest.approx(np.sqrt(2 / 3), abs=1e-15)
        assert schatten_norm(a, 1) == pytest.approx(2 / np.sqrt(3), abs=1e-14)

    def test_schatten_monotone_in_p(self, rng):
        grid = [1.0, 1.5, 2.0, 3.0, 4.0, 10.0, np.inf]
        for _ in range(15):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            norms = [schatten_norm(m, p) for p in grid]
            for lo, hi in zip(norms, norms[1:]):
                assert lo >= hi - 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_schatten_of_an_overflowed_spectrum(self, p):
        # lp_norm of the spectrum [inf, 0] raised ValueError on its entries
        with pytest.raises(OverflowError):
            schatten_norm(np.full((2, 2), 1e308), p)

    def test_norm_that_overflows_is_an_overflow_error(self):
        with pytest.raises(OverflowError):
            lp_norm([1e308, 1e308], 1)
        with pytest.raises(OverflowError):
            schatten_norm(np.diag([1e308, 1e308]), 1)

    def test_modulus_that_overflows_is_an_overflow_error(self):
        # the entry is finite and its modulus is not
        with pytest.raises(OverflowError):
            lp_norm([1.5e308 + 1.5e308j], 1)

    def test_largest_finite_norms_are_kept(self):
        assert lp_norm([1e308, 1e308], 2) == 1.4142135623730951e308
        assert schatten_norm(np.diag([1e308, 1e308]), 2) == 1.4142135623730951e308
        assert lp_norm([1e308 + 1e308j], 1) == abs(1e308 + 1e308j)

    @pytest.mark.parametrize("p", [0.5, np.nan, -np.inf, np.inf])
    def test_one_order_rule(self, p):
        # the certificates, the audit specs and the searches read this rule;
        # lp_norm takes p = inf as the max modulus before it applies it
        with pytest.raises(ValueError, match="finite and satisfy p >= 1"):
            densela._check_order(p)

    def test_schatten_rejects_bad_order(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.9)

    @pytest.mark.parametrize("p", [True, False, "2", None])
    def test_norms_reject_orders_that_are_not_real_numbers(self, p):
        with pytest.raises(ValueError, match="real number"):
            lp_norm([3.0, 4.0], p)
        with pytest.raises(ValueError, match="real number"):
            schatten_norm(np.eye(2), p)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_lp_rejects_non_finite_entries(self, bad):
        # an infinite entry read NaN (inf / inf) and a NaN entry passed through
        for p in (1.0, 2.0, np.inf):
            with pytest.raises(ValueError, match="finite"):
                lp_norm([1.0, bad], p)

    def test_norms_take_numpy_orders(self):
        assert lp_norm([3.0, 4.0], np.float64(2.0)) == 5.0
        assert lp_norm([3.0, 4.0], np.int64(1)) == 7.0
        assert schatten_norm(np.eye(2), np.float32(2.0)) == lp_norm([1.0, 1.0], 2.0)
        assert schatten_norm(np.eye(2), np.float64(np.inf)) == 1.0


class TestSpectralCriticalPoints:
    def test_high_family(self):
        got = critical_points_spectral(ZeroConfig((1.0, -1.0, 1.0, -1.0), centered=True))
        assert matched_distance(got.as_array(), [0, 1, -1]) < 1e-8

    def test_low_family(self):
        got = critical_points_spectral(ZeroConfig((0.0, 1.0, -1.0), centered=True))
        c = 1 / np.sqrt(3)
        assert matched_distance(got.as_array(), [c, -c]) < 1e-12

    def test_degenerate_derivative(self):
        got = critical_points_spectral(ZeroConfig((1.0, 1j, -1.0, -1j), centered=True))
        assert matched_distance(got.as_array(), [0, 0, 0]) < 1e-4

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_accuracy_against_mpmath(self, n):
        # every distribution at four seeds, against the critical points at
        # 40 digits, relative to the largest of them
        for dist in harness.DISTRIBUTIONS:
            for seed in range(4):
                cfg = harness.sample_config(n, dist, seed)
                with mpmath.mp.workdps(40):
                    want = np.array([complex(w) for w in mp_critical_points(cfg.zeros)])
                got = critical_points_spectral(cfg).as_array()
                assert matched_distance(got, want) <= 1e-13 * np.abs(want).max(), (dist, seed)

    def test_near_double_critical_points(self):
        # n = 3 perturbed roots of unity have both critical points near the
        # double critical point 0 of z^3 - 1, where an entry error of
        # eps * |z| moves a critical point by about eps * |z|^2 / |w|.  The
        # slice holds seeds 5395 and 21622, which read above 1e-13 of max |w|
        # against the critical points at 40 digits
        errors, spread = [], []
        for seeds in (range(5200, 5600), range(21400, 21800)):
            for seed in seeds:
                cfg = harness.sample_config(3, "roots_of_unity_perturbed", seed)
                with mpmath.mp.workdps(40):
                    want = np.array([complex(w) for w in mp_critical_points(cfg.zeros)])
                got = critical_points_spectral(cfg).as_array()
                errors.append(matched_distance(got, want) / np.abs(want).max())
                spread.append(np.abs(want).max() / np.abs(cfg.as_array()).max())
        assert min(spread) < 0.03  # the slice reaches the near-double regime
        assert max(errors) <= 1e-12
        assert np.percentile(errors, 99) <= 5e-14

    def test_near_double_first_order_bound(self):
        # the first-order bound c * eps * max|z|^2 / |w| with c = 1, on the
        # 200 of the n = 3 perturbed roots of unity at seeds 5000-6799 whose
        # critical points lie nearest the double one (|w| / max|z| < 0.098;
        # both points of a centered cubic have one modulus).  The slice holds
        # seed 5395, the largest error of all 1,800 (1.9e-13 of max|w|, at
        # |w| = 0.022 max|z|); the worst c in it is 0.60 (seed 5181), and 0.82
        # over all 1,800 (seed 5054)
        configs = [
            harness.sample_config(3, "roots_of_unity_perturbed", seed)
            for seed in range(5000, 6800)
        ]
        spectral = [critical_points_spectral(cfg).as_array() for cfg in configs]
        nearness = [
            np.abs(w).min() / np.abs(cfg.as_array()).max() for cfg, w in zip(configs, spectral)
        ]
        slice_ = np.argsort(nearness, kind="stable")[:200]
        assert slice_[0] == 5395 - 5000
        worst = 0.0
        for i in slice_:
            z = configs[i].as_array()
            with mpmath.mp.workdps(40):
                want = np.array([complex(w) for w in mp_critical_points(z, start=spectral[i])])
            bound = EPS * np.abs(z).max() ** 2 / np.abs(want).min()
            worst = max(worst, matched_distance(spectral[i], want) / bound)
        assert worst <= 1.0

    def test_agrees_with_direct_route(self, rng):
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(2, 13))
            z = random_centered(rng, n)
            cfg = ZeroConfig(tuple(z), centered=True)
            spectral = critical_points_spectral(cfg).as_array()
            direct = critical_points_direct(cfg).as_array()
            scale = max(1.0, float(np.abs(z).max()))
            worst = max(worst, matched_distance(spectral, direct) / scale)
        assert worst < 1e-8

    def test_normal_on_the_line(self, rng):
        # real zeros make the matrix real symmetric, so singular values are
        # the moduli of the eigenvalues
        for _ in range(15):
            n = int(rng.integers(2, 12))
            z = rng.standard_normal(n).astype(complex)
            a = differentiator(ZeroConfig(tuple(z)))
            sigma = singular_values(a)
            lam_mod = np.sort(np.abs(eigenvalues(a)))[::-1]
            assert np.abs(sigma - lam_mod).max() <= 1e-10 * max(1.0, sigma[0])
