import numpy as np
import pytest

from schoenberg import polyzero
from schoenberg.densela import critical_points_spectral
from schoenberg.harness import DISTRIBUTIONS, sample_config
from schoenberg.polyzero import (
    CriticalSet,
    Polynomial,
    RootFindingError,
    ZeroConfig,
    center,
    center_rows,
    centroid,
    critical_points_direct,
    derivative,
    from_roots,
    roots,
)

from conftest import matched_distance, reference_roots

EPS = float(np.finfo(float).eps)


def power_sum_disagreement(direct, spectral) -> float:
    """max_k |s_k(direct) - s_k(spectral)| / sum |w_spectral|^k, k = 1..n-1.

    The power sums s_k = sum w^k fix the multiset of critical points, so this
    compares the two routes without matching points one to one.
    """
    k = np.arange(1, spectral.size + 1)
    scale = (np.abs(spectral)[:, None] ** k).sum(axis=0)
    diff = np.abs((direct[:, None] ** k).sum(axis=0) - (spectral[:, None] ** k).sum(axis=0))
    return float((diff / np.maximum(scale, np.finfo(float).tiny)).max())


class TestZeroConfig:
    def test_requires_two_zeros(self):
        with pytest.raises(ValueError):
            ZeroConfig((1.0,))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ZeroConfig((1.0, complex(np.inf, 0)))
        with pytest.raises(ValueError):
            ZeroConfig((1.0, complex(np.nan, 1)))

    def test_centered_flag_checked(self):
        ZeroConfig((1.0, -1.0), centered=True)
        with pytest.raises(ValueError):
            ZeroConfig((1.0, 1.0), centered=True)

    def test_centered_tolerance_scales_with_magnitude(self):
        # residual 1e-9 is fine at scale 1e4 but not at scale 1
        ZeroConfig((1e4, -1e4 + 1e-9), centered=True)
        with pytest.raises(ValueError):
            ZeroConfig((1.0, -1.0 + 1e-9), centered=True)


class TestPolynomial:
    def test_must_be_monic(self):
        with pytest.raises(ValueError):
            Polynomial((2.0, 1.0))

    def test_must_have_degree(self):
        with pytest.raises(ValueError):
            Polynomial((1.0,))

    def test_nonfinite_coefficients_rejected(self):
        for bad in (np.inf, np.nan, complex(0.0, np.inf)):
            with pytest.raises(ValueError):
                Polynomial((1.0, bad, 1.0))

    def test_evaluation(self):
        p = Polynomial((1.0, 0.0, -1.0))  # z^2 - 1
        assert p(2.0) == pytest.approx(3.0)
        assert p(1j) == pytest.approx(-2.0)


class TestFromRoots:
    def test_two_term_product(self):
        poly = from_roots(ZeroConfig((1.0, -1.0)))
        assert poly.coeffs == (1.0, 0.0, -1.0)

    def test_cubic_expansion(self):
        # (z)(z-1)(z+1) = z^3 - z, expanded by hand
        poly = from_roots(ZeroConfig((0.0, 1.0, -1.0)))
        np.testing.assert_allclose(poly.as_array(), [1, 0, -1, 0], atol=1e-15)

    def test_binomial_expansion(self):
        poly = from_roots(ZeroConfig((1.0, 1.0, 1.0, 1.0)))
        np.testing.assert_allclose(poly.as_array(), [1, -4, 6, -4, 1], atol=1e-12)

    @pytest.mark.parametrize("expand", [from_roots, critical_points_direct])
    def test_overflow_is_an_arithmetic_error(self, expand):
        # finite zeros whose product 2^1050 leaves the double range
        cfg = ZeroConfig((2.0**350, 2.0**350 * 1j, -(2.0**350)))
        with pytest.raises(OverflowError):
            expand(cfg)

    def test_matches_numpy_poly(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 13))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            ours = from_roots(ZeroConfig(tuple(z))).as_array()
            reference = np.poly(z)
            np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=1e-12)


class TestDerivative:
    def test_cubic(self):
        # (z^3 - z)' = 3z^2 - 1; monic form z^2 - 1/3
        out = derivative(Polynomial((1.0, 0.0, -1.0, 0.0)))
        np.testing.assert_allclose(out.as_array(), [1, 0, -1 / 3], atol=1e-16)

    def test_quadratic(self):
        out = derivative(Polynomial((1.0, 0.0, -1.0)))
        np.testing.assert_allclose(out.as_array(), [1, 0], atol=1e-16)

    def test_quartic_monomial(self):
        out = derivative(Polynomial((1.0, 0.0, 0.0, 0.0, -1.0)))
        np.testing.assert_allclose(out.as_array(), [1, 0, 0, 0], atol=1e-16)

    def test_degree_drops_by_one(self, rng):
        for n in range(2, 10):
            coeffs = np.concatenate([[1.0], rng.standard_normal(n)])
            assert derivative(Polynomial(tuple(coeffs))).degree == n - 1

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            derivative(Polynomial((1.0, 2.0)))


class TestRoots:
    def test_quadratic_formula_case(self):
        got = roots(Polynomial((1.0, 0.0, -1 / 3)))
        expected = [1 / np.sqrt(3), -1 / np.sqrt(3)]
        assert matched_distance(got, expected) < 1e-14

    def test_fourth_roots_of_unity(self):
        got = roots(Polynomial((1.0, 0.0, 0.0, 0.0, -1.0)))
        assert matched_distance(got, [1, 1j, -1, -1j]) < 1e-13

    def test_double_root(self):
        # z^3 - 3z - 2 = (z - 2)(z + 1)^2; the double root comes back as a
        # tight cluster, not exact
        got = roots(Polynomial((1.0, 0.0, -3.0, -2.0)))
        assert matched_distance(got, [2, -1, -1]) < 1e-6

    def test_against_numpy_roots(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            coeffs = np.concatenate(
                [[1.0], rng.standard_normal(n) + 1j * rng.standard_normal(n)]
            )
            got = roots(Polynomial(tuple(coeffs)))
            assert matched_distance(got, np.roots(coeffs)) < 1e-8

    def test_large_magnitude_conditioning(self):
        # roots at 1e4 scale exercise the rescale substitution
        z = np.array([1e4, -1e4, 2e4 + 5e3j, -2e4 - 5e3j])
        got = roots(from_roots(ZeroConfig(tuple(z))))
        assert matched_distance(got, z) / np.abs(z).max() < 1e-12

    def test_failure_carries_best_iterate(self):
        # pins the error object's fields; test_failure_keeps_lower_residual
        # below makes roots() raise one
        err = RootFindingError("stalled", best=np.array([1j]), residual=0.5)
        assert err.residual == 0.5
        assert err.best[0] == 1j

    def test_polish_that_wanders_falls_back(self, monkeypatch):
        # the polished iterate misses the gate; the phase-1 iterate passes it
        # and is returned instead
        cfg = sample_config(8, "disk", 0)
        spectral = critical_points_spectral(cfg).as_array()
        _wandering_polish(monkeypatch)
        got = critical_points_direct(cfg).as_array()
        assert matched_distance(got, spectral) <= 1e-12

    def test_failure_keeps_lower_residual(self, monkeypatch):
        # the same polish under a gate nothing passes: the error carries the
        # phase-1 iterate, not the polished one
        cfg = sample_config(8, "disk", 0)
        spectral = critical_points_spectral(cfg).as_array()
        _wandering_polish(monkeypatch)
        monkeypatch.setattr(polyzero, "TOL_ROOT", 0.0)
        with pytest.raises(RootFindingError) as info:
            critical_points_direct(cfg)
        assert 0.0 < info.value.residual < 1e-13
        assert matched_distance(info.value.best, spectral) <= 1e-12


def _wandering_polish(monkeypatch):
    """Shift every iterate by 0.1 on each Aberth step of the 80-bit polish."""
    polishing = []
    horner_extended, aberth_step = polyzero._horner_extended, polyzero._aberth_step

    def evaluate(b, x):
        polishing.append(True)
        return horner_extended(b, x)

    def step(x, p, dp):
        return aberth_step(x, p, dp) + (0.1 if polishing else 0.0)

    monkeypatch.setattr(polyzero, "_horner_extended", evaluate)
    monkeypatch.setattr(polyzero, "_aberth_step", step)


class TestRoundTrip:
    def test_random_multisets(self, rng):
        worst = 0.0
        for _ in range(150):
            n = int(rng.integers(2, 17))
            z = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
            got = roots(from_roots(ZeroConfig(tuple(z))))
            scale = max(1.0, float(np.abs(z).max()))
            worst = max(worst, matched_distance(got, z) / scale)
        assert worst < 1e-8, f"worst relative round-trip distance {worst:.3e}"


class TestCriticalPointsDirect:
    def test_low_family_n3(self):
        got = critical_points_direct(ZeroConfig((0.0, 1.0, -1.0)))
        assert matched_distance(got.as_array(), [1 / np.sqrt(3), -1 / np.sqrt(3)]) < 1e-12

    def test_high_family_n4(self):
        got = critical_points_direct(ZeroConfig((1.0, -1.0, 1.0, -1.0)))
        assert matched_distance(got.as_array(), [0, 1, -1]) < 1e-8

    def test_roots_of_unity_collapse(self):
        # p = z^4 - 1, p' = 4z^3: a triple critical point at the origin,
        # recovered as a cluster at the eps^(1/3) scale
        got = critical_points_direct(ZeroConfig((1.0, 1j, -1.0, -1j)))
        assert matched_distance(got.as_array(), [0, 0, 0]) < 1e-4

    def test_count_is_n_minus_one(self, rng):
        for n in range(2, 12):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert len(critical_points_direct(ZeroConfig(tuple(z)))) == n - 1


class TestPowerEval:
    def test_matches_sequential_horner(self):
        # the power-matrix p, p' and th against Horner's rule, one point at
        # a time; both round like m eps times the majorant of the sum, and
        # the majorant alone is the one the full evaluation returns
        rng = np.random.default_rng(64)
        for m in range(1, 65):
            b = np.concatenate(
                [[1.0], rng.standard_normal(m) + 1j * rng.standard_normal(m)]
            )
            x = 2.0 ** rng.uniform(-8, 8, 24) * np.exp(2j * np.pi * rng.uniform(size=24))
            evaluate = polyzero._PowerEval(b, x.size)
            p, dp, th = evaluate(x)
            assert np.array_equal(evaluate.majorant(x), th)
            for i, xi in enumerate(x):
                hp, hdp, hth, hdth = b[0], 0j, abs(b[0]), 0.0
                for bk in b[1:]:
                    hdp, hdth = hdp * xi + hp, hdth * abs(xi) + hth
                    hp, hth = hp * xi + bk, hth * abs(xi) + abs(bk)
                assert abs(p[i] - hp) <= 8 * m * EPS * hth
                assert abs(dp[i] - hdp) <= 8 * m * EPS * hdth
                assert th[i] == pytest.approx(hth, rel=1e-14)


class TestDirectAgainstSpectral:
    # sample_config(32, "clustered", 3933979533) of the per-sample sampler
    # the audit used before its cells were drawn as arrays (unit 23 of the
    # crosscheck benchmark's seed 1006), to 17 significant digits
    PINNED_CLUSTER = (
        (1.3632701611720841, 0.0093061487788881764),
        (1.4457919257148206, 0.049625129287984425),
        (-0.63272817702322592, 0.17287437120323279),
        (-0.56632268815852316, 0.091910243376888329),
        (-0.70594779526543483, 0.038067971504028179),
        (-0.43323889610868915, 0.042745339870930349),
        (-0.62942812520775726, -0.02413598507350067),
        (-0.69232611035147629, 0.12465618631091463),
        (-0.5982887813887442, -0.0069039063779192137),
        (-0.6379478572959999, 0.024435512864679668),
        (-0.74505283820318813, -0.076124235132788237),
        (-0.68942080838286646, -0.12055094238094644),
        (-0.6690330215738679, 0.065020158135492653),
        (1.2877301592383832, -0.0097930412983959249),
        (-0.49056235601526776, 0.05165263519078396),
        (1.3981682375768989, -0.022911502503950604),
        (1.3832339042821493, -0.11739752039951523),
        (1.398103999634881, 0.02626239284423636),
        (-0.62621471216022895, -0.084277177566357275),
        (1.2281707457155866, -0.083992830232259424),
        (-0.55403083839737566, 0.037577695565276181),
        (-0.67542735973949697, 0.024711070365240253),
        (-0.58843701237340185, -0.010819928443617885),
        (-0.69452471088223955, -0.06282166235678846),
        (-0.57302161557304909, 0.0025269526550376212),
        (-0.72231396018514193, -0.040242121936663842),
        (1.4708879587300163, 0.1122408962309995),
        (-0.55649956260678202, -0.039860375361280384),
        (-0.761861188277975, -0.12190525900428387),
        (1.4689949680041126, -0.071982251023799293),
        (1.5256686737310878, 0.04021512714340935),
        (-0.72739231862928844, -0.020109092235955722),
    )

    # sample_config(32, "clustered", 1526134747), unit 150 of the crosscheck
    # benchmark's seed 8401, to 17 significant digits
    WRONG_CLUSTER = (
        (0.23594133994522046, -0.020586418258549174),
        (0.22857427084892087, 0.06090599928904078),
        (0.3519017363232858, 0.035950261536061554),
        (0.2064235246271335, 0.029558721702648852),
        (0.1872858326167348, 0.005418088441098933),
        (0.17374095054549074, 0.06854862271702332),
        (0.26418207262268323, 0.07994342634031545),
        (0.24770901530329223, 0.04580765741891695),
        (0.35122350969821803, 0.04527951837989762),
        (0.17251582778908156, -0.03943059387157584),
        (-1.7830334307276288, -0.1101926747905274),
        (-1.6144521306371247, 0.019673935986602945),
        (0.21685033605109502, -0.0026085655989602),
        (0.2574354853635802, -0.014974879046276778),
        (0.2716792069530173, 0.10764874951650132),
        (0.24247463050365367, -0.026785163029257368),
        (0.3257889723357156, 0.08677468330754362),
        (0.17717383421208974, -0.03766459764477191),
        (-1.7354755847074657, -0.038025303717067374),
        (0.3458199812651793, -0.015514819631986039),
        (0.27583298350171936, -0.0023291303380921654),
        (0.2902748402395291, 0.033860539438729145),
        (0.17521530537231564, -0.030666755940528756),
        (0.3701699760518796, 0.054717918496080986),
        (0.1737848360846713, 0.05496698292450018),
        (0.2147580305823221, 0.02726265083778293),
        (0.31761725970936594, 0.04506745788177067),
        (0.19412826944089065, -0.08867786080836278),
        (0.1254090715932323, -0.010895440789352805),
        (-1.754986203111847, -0.15758875468048542),
        (0.28327775031155433, -0.12477852372560644),
        (0.21075849929219434, -0.08066573234311479),
    )

    def test_root_caught_in_the_wrong_cluster_restarts(self):
        # from the unturned circle three roots of the cluster near -1.7 end in
        # the one near 0.25 and pass the residual gate; the trace identity
        # catches them and the turned circle finds them
        cfg = ZeroConfig(tuple(complex(*pair) for pair in self.WRONG_CLUSTER), centered=True)
        direct = critical_points_direct(cfg).as_array()
        spectral = critical_points_spectral(cfg).as_array()
        # the crosscheck benchmark's tolerance: 1024 n u, or 32 times the
        # direct route's own spread over another listing of the zeros
        again = critical_points_direct(ZeroConfig(cfg.zeros[1:] + cfg.zeros[:1])).as_array()
        tol = max(1024 * cfg.n * np.finfo(float).eps / 2, 32 * power_sum_disagreement(direct, again))
        assert power_sum_disagreement(direct, spectral) <= tol

    def test_a_second_miss_raises(self, monkeypatch):
        monkeypatch.setattr(polyzero, "_trace_ok", lambda x, b: False)
        with pytest.raises(RootFindingError, match="trace identity"):
            critical_points_direct(sample_config(8, "disk", 0))

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("dist", ["disk", "gaussian"])
    def test_critical_moduli_at_every_scale(self, dist, n):
        # roots far inside the unit disk must be rescaled too: left as they
        # are, iterates on a circle around them pass the absolute test
        worst = 0.0
        for seed in range(20):
            z = sample_config(n, dist, seed).as_array()
            for k in range(-40, 41, 4):
                cfg = ZeroConfig(tuple(z * 2.0**k))
                direct = np.sort(np.abs(critical_points_direct(cfg).as_array()))
                spectral = np.sort(np.abs(critical_points_spectral(cfg).as_array()))
                worst = max(worst, np.abs(direct - spectral).max() / spectral.max())
        assert worst <= 1e-10

    @pytest.mark.parametrize("k", range(-500, 301, 100))
    def test_ends_of_the_double_range(self, k):
        # at n = 3 the coefficients of p' stay normal doubles from 2^-500 to
        # 2^300; the rescale itself must not over- or underflow there
        for seed in range(5):
            z = sample_config(3, "disk", seed).as_array()
            cfg = ZeroConfig(tuple(z * 2.0**k))
            direct = np.sort(np.abs(critical_points_direct(cfg).as_array()))
            spectral = np.sort(np.abs(critical_points_spectral(cfg).as_array()))
            assert np.abs(direct - spectral).max() <= 1e-12 * spectral.max()

    def test_one_huge_root(self):
        # p = (z - 1e200)(z^2 - 1e-20): the rescale s ~ 5e199 has s^2 beyond
        # the double range, while every coefficient of p and p' is finite;
        # the tiny critical point, about -5e-221, is below the huge one's
        # resolution
        got = roots(derivative(from_roots(ZeroConfig((1e200, 1e-10, -1e-10)))))
        assert matched_distance(got, [2e200 / 3, 0.0]) <= 1e-15 * 2e200 / 3

    def test_pinned_cluster(self):
        # an earlier polish wandered off this config's converged iterate and
        # raised at residual 1.7e-7
        cfg = ZeroConfig(
            tuple(complex(re, im) for re, im in self.PINNED_CLUSTER), centered=True
        )
        direct = critical_points_direct(cfg).as_array()
        spectral = critical_points_spectral(cfg).as_array()
        assert power_sum_disagreement(direct, spectral) <= 1e-5

    def test_clustered_n32(self):
        # the hardest cell of the benchmark's crosscheck: two blobs of 16
        # zeros, whose critical points are ill-conditioned clusters
        worst = 0.0
        for seed in range(200):
            cfg = sample_config(32, "clustered", seed)
            direct = critical_points_direct(cfg).as_array()
            spectral = critical_points_spectral(cfg).as_array()
            worst = max(worst, power_sum_disagreement(direct, spectral))
        assert worst <= 1e-3


class TestRootsOracle:
    """roots against the loop it replaced (conftest.reference_roots): the
    same roots bit for bit, or the same RootFindingError."""

    @staticmethod
    def assert_same(poly):
        outcomes = []
        for find in (roots, reference_roots):
            try:
                outcomes.append(find(poly))
            except RootFindingError as err:
                outcomes.append((str(err), err.best, err.residual))
        got, expected = outcomes
        if isinstance(expected, tuple):
            assert isinstance(got, tuple), f"expected RootFindingError {expected[0]}"
            assert got[0] == expected[0] and got[2] == expected[2]
            got, expected = got[1], expected[1]
        assert np.array_equal(got, expected)

    @staticmethod
    def direct(zeros, centered=False):
        return derivative(from_roots(ZeroConfig(tuple(zeros), centered=centered)))

    @pytest.mark.parametrize("n", [3, 8, 16, 32])
    def test_sampled_cells(self, n):
        for dist in DISTRIBUTIONS:
            for seed in range(20):
                self.assert_same(self.direct(sample_config(n, dist, seed).zeros))

    def test_edge_inputs(self):
        pinned = [complex(re, im) for re, im in TestDirectAgainstSpectral.PINNED_CLUSTER]
        self.assert_same(self.direct(pinned, centered=True))
        for n in (8, 16):
            for seed in range(5):
                # roots well inside the unit disk, which the rescale must move
                self.assert_same(self.direct(sample_config(n, "disk", seed).as_array() * 1e-3))
        self.assert_same(self.direct((1e200, 1e-10, -1e-10)))
        # an exact multiple root, polished on rounding noise
        self.assert_same(self.direct([1] * 5))

    def test_failures_carry_the_same_fields(self, monkeypatch):
        # under a gate nothing passes both loops raise, from the same iterate
        monkeypatch.setattr(polyzero, "TOL_ROOT", 0.0)
        for n, dist in ((3, "disk"), (8, "clustered"), (16, "real")):
            poly = self.direct(sample_config(n, dist, 0).zeros)
            with pytest.raises(RootFindingError):
                roots(poly)
            self.assert_same(poly)


class TestCentroidCenter:
    def test_real_triple(self):
        assert centroid(ZeroConfig((1.0, 2.0, 3.0))) == pytest.approx(2.0)

    def test_conjugate_pair(self):
        assert centroid(ZeroConfig((1j, -1j))) == 0

    def test_alternating(self):
        assert centroid(ZeroConfig((1.0, -1.0, 1.0, -1.0))) == 0

    def test_center_shift(self):
        out = center(ZeroConfig((1.0, 2.0, 3.0)))
        np.testing.assert_allclose(out.as_array(), [-1, 0, 1], atol=1e-15)
        assert out.centered

    def test_center_asymmetric(self):
        out = center(ZeroConfig((0.0, 0.0, 3.0)))
        np.testing.assert_allclose(out.as_array(), [-1, -1, 2], atol=1e-15)

    def test_center_is_identity_on_centered(self):
        cfg = ZeroConfig((1.0, -1.0, 2j, -2j))
        out = center(cfg)
        assert out.zeros == cfg.zeros

    def test_center_rows_rejects_a_row_it_cannot_center(self):
        z = np.array([[1.0, 2.0, 3.0], [1.0, np.nan, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            center_rows(z)
        np.testing.assert_allclose(center_rows(z[:1])[0], [-1, 0, 1], atol=1e-15)

    def test_centroid_after_center(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 30))
            z = 10 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) + 5.0
            out = center(ZeroConfig(tuple(z)))
            bound = 1e-12 * max(1.0, float(np.abs(out.as_array()).max()))
            assert abs(centroid(out)) <= bound

    def test_centered_bound_is_relative_to_the_zeros(self):
        # |sum z| = 8e-13 is below TOL_CENTER but 1.6 times the largest zero
        with pytest.raises(ValueError, match="exceeds 5.000e-25"):
            ZeroConfig((1e-13, 2e-13, 5e-13), centered=True)
        assert ZeroConfig((0j, 0j, 0j), centered=True).centered
        assert center(ZeroConfig((1e-13, 2e-13, 5e-13))).centered

    @pytest.mark.parametrize("exponent", [-1000, -1030, -1060, -1070])
    def test_center_rows_at_tiny_and_subnormal_scales(self, rng, exponent):
        for n in (2, 3, 8, 40):
            for imag in (0.0, 1.0):
                z = rng.standard_normal((200, n)) + 3.0 + 1j * imag * rng.standard_normal((200, n))
                out = center_rows(z * 2.0**exponent)
                for row in out:
                    assert ZeroConfig(tuple(row), centered=True).centered


class TestCriticalSet:
    def test_length(self):
        assert len(CriticalSet((1.0, 2.0))) == 2
