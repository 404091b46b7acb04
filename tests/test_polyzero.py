import mpmath
import numpy as np
import pytest

from schoenberg import polyzero
from schoenberg.densela import critical_points_spectral
from schoenberg.harness import DISTRIBUTIONS, sample_config
from schoenberg.polyzero import (
    CriticalSet,
    RootFindingError,
    ZeroConfig,
    center,
    center_rows,
    centroid,
    critical_points_direct,
)
from schoenberg.symfun import critical_esf_identity_error, esf_table

from conftest import matched_distance, mp_critical_points

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


def assert_within_crosscheck_tolerance(cfg):
    """The crosscheck benchmark's gate on the direct and spectral routes:
    their power sums agree within 1024 n u, or within 32 times the direct
    route's own spread over another listing of the zeros."""
    direct = critical_points_direct(cfg).as_array()
    spectral = critical_points_spectral(cfg).as_array()
    again = critical_points_direct(ZeroConfig(cfg.zeros[1:] + cfg.zeros[:1])).as_array()
    tol = max(1024 * cfg.n * EPS / 2, 32 * power_sum_disagreement(direct, again))
    assert power_sum_disagreement(direct, spectral) <= tol


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


class TestRoots:
    """critical_points_direct as a root finder: the roots of the secular
    equation against closed forms and numpy."""

    def test_quadratic_formula_case(self, rng):
        # n = 3: p'/3 = w^2 - (2/3) e_1 w + e_2 / 3, solved by the quadratic
        # formula with the larger-modulus sign first
        for _ in range(50):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            e1, e2 = z.sum(), z[0] * z[1] + z[0] * z[2] + z[1] * z[2]
            d = np.sqrt(e1 * e1 - 3 * e2)
            q = e1 + d if abs(e1 + d) >= abs(e1 - d) else e1 - d
            expected = [q / 3, e2 / q]
            got = critical_points_direct(ZeroConfig(tuple(z))).as_array()
            assert matched_distance(got, expected) <= 1e-14 * np.abs(expected).max()

    def test_fourth_roots_of_unity(self):
        # p = z^5 - 5z + c has p' = 5(z^4 - 1), whatever c; its zeros are
        # rounded from 40 digits
        for c in (1.0, 2j, -3.0):
            with mpmath.mp.workdps(40):
                coeffs = [1, 0, 0, 0, -5, c]
                zeros = [complex(v) for v in mpmath.polyroots(coeffs, maxsteps=200, extraprec=100)]
            got = critical_points_direct(ZeroConfig(tuple(zeros))).as_array()
            assert matched_distance(got, [1, 1j, -1, -1j]) < 1e-13

    def test_double_root(self):
        # zeros c + 3 omega^k, omega a cube root of unity: p' = 3(w - c)^2,
        # a double root of the secular equation away from every zero; it
        # comes back as a tight cluster, not exact
        c = 2.0 - 1.0j
        zeros = c + 3.0 * np.exp(2j * np.pi * np.arange(3) / 3)
        got = critical_points_direct(ZeroConfig(tuple(zeros))).as_array()
        assert matched_distance(got, [c, c]) < 1e-6

    def test_against_numpy_roots(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = critical_points_direct(ZeroConfig(tuple(z))).as_array()
            assert matched_distance(got, np.roots(np.polyder(np.poly(z)))) < 1e-8

    def test_large_magnitude_conditioning(self):
        # zeros at the 1e4 scale are solved scaled by 2^-15
        z = (1e4, -1e4, 2e4 + 5e3j, -2e4 - 5e3j)
        with mpmath.mp.workdps(40):
            truth = np.array([complex(w) for w in mp_critical_points(z)])
        got = critical_points_direct(ZeroConfig(z)).as_array()
        assert matched_distance(got, truth) / np.abs(truth).max() < 1e-14

    def test_failure_carries_best_iterate(self):
        # pins the error object's fields; test_a_missed_gate_raises below
        # makes critical_points_direct raise one
        err = RootFindingError("stalled", best=np.array([1j]), residual=0.5)
        assert err.residual == 0.5
        assert err.best[0] == 1j


class TestRoundTrip:
    def test_random_multisets(self, rng):
        # zeros -> critical points -> coefficients: e_k of the critical points
        # is ((n - k) / n) e_k of the zeros, the coefficients of p' / n, on
        # multisets drawn with repeats; relative to that e_k of |z|
        worst = 0.0
        for _ in range(150):
            n = int(rng.integers(2, 17))
            pool = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
            z = rng.choice(pool, n)
            w = critical_points_direct(ZeroConfig(tuple(z))).as_array()
            k = np.arange(1, n)
            target = (n - k) / n * esf_table(z)[1:n]
            scale = (n - k) / n * esf_table(np.abs(z))[1:n]
            worst = max(worst, float((np.abs(esf_table(w)[1:n] - target) / scale).max()))
        assert worst < 1e-13, f"worst relative round-trip defect {worst:.3e}"


class TestSecularAdversarial:
    """Adversarial inputs of the secular Aberth iteration."""

    def test_two_zeros(self, rng):
        # the one critical point is the midpoint, at any scale
        for scale in (2.0**-500, 1e-150, 1.0, 1e150, 2.0**300):
            for _ in range(20):
                a, b = scale * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
                (w,) = critical_points_direct(ZeroConfig((a, b))).points
                assert abs(w - (a + b) / 2) <= 4 * EPS * max(abs(a), abs(b))

    @pytest.mark.parametrize("value", [0.0, 1.0, -3.5 + 2j, 1e-300, 1e300j, 5e-324])
    def test_all_equal_zeros(self, value):
        for n in range(2, 10):
            got = critical_points_direct(ZeroConfig((value,) * n))
            assert got.points == (complex(value),) * (n - 1)

    def test_exact_multiple_zeros(self, rng):
        # each zero of multiplicity m comes back exactly m - 1 times, whatever
        # the listing order, next to the roots of the secular equation
        worst = 0.0
        for _ in range(100):
            r = int(rng.integers(2, 7))
            zeta = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            m = rng.integers(1, 5, r)
            z = np.repeat(zeta, m)
            rng.shuffle(z)
            cfg = ZeroConfig(tuple(z))
            direct = critical_points_direct(cfg).as_array()
            for value, count in zip(zeta, m):
                assert np.count_nonzero(direct == value) == count - 1
            spectral = critical_points_spectral(cfg).as_array()
            worst = max(worst, matched_distance(direct, spectral) / np.abs(spectral).max())
        assert worst <= 1e-13

    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_power_of_two_scales_are_exact(self, n):
        # the zeros are solved scaled by a power of two, so scaling them by
        # another one scales the result exactly, from 2^-500 to 2^300
        for dist in DISTRIBUTIONS:
            z = sample_config(n, dist, 0).as_array()
            base = critical_points_direct(ZeroConfig(tuple(z))).as_array()
            for k in range(-500, 301, 50):
                got = critical_points_direct(ZeroConfig(tuple(z * 2.0**k))).as_array()
                assert np.array_equal(got, base * 2.0**k)

    @pytest.mark.parametrize("k", range(-150, 151, 30))
    def test_decimal_scales(self, k):
        worst = 0.0
        for n in (3, 8, 16):
            for dist in DISTRIBUTIONS:
                cfg = ZeroConfig(tuple(sample_config(n, dist, 1).as_array() * 10.0**k))
                direct = critical_points_direct(cfg).as_array()
                spectral = critical_points_spectral(cfg).as_array()
                worst = max(worst, matched_distance(direct, spectral) / np.abs(spectral).max())
        assert worst <= 1e-12

    @pytest.mark.parametrize(
        "start",
        [(1.0, 0.3, -0.2j), (0.5j, -1.0, 1.0), (0.3, 0.3, -0.2j)],
        ids=["on-a-zero", "all-on-zeros", "on-each-other"],
    )
    def test_iterate_on_a_zero(self, start):
        # an iterate exactly on a zero or on another iterate sits on a pole
        # of the sums; it is moved off and the iteration converges
        zeta = np.array([1.0, -1.0, 0.5j, -0.5j])
        w, worst = polyzero._secular_roots(zeta, np.ones(4), np.array(start, dtype=complex))
        spectral = critical_points_spectral(ZeroConfig(tuple(zeta))).as_array()
        assert worst <= 16 * 4 * EPS
        assert matched_distance(w, spectral) <= 1e-14

    def test_a_missed_gate_raises(self, monkeypatch):
        # no step taken: the starts miss the final gate
        monkeypatch.setattr(polyzero, "_MAX_STEPS", 0)
        cfg = sample_config(8, "disk", 0)
        with pytest.raises(RootFindingError, match="missed its gate") as info:
            critical_points_direct(cfg)
        assert isinstance(info.value, ArithmeticError)
        assert info.value.residual > 16 * cfg.n * EPS
        assert info.value.best.shape == (cfg.n - 1,)
        assert np.all(np.isfinite(info.value.best))

    @pytest.mark.parametrize(
        "zeros,merged,copies",
        [((1.0, 1e-320, -1e-320), 1e-320, 1), ((0.0, 0.0, 1e-320, 1.0), 0.0, 2)],
    )
    def test_subnormal_gaps(self, zeros, merged, copies):
        # zeros whose scaled gaps are subnormal are solved as one zero, the
        # first listed, of their summed multiplicity, which comes back that
        # many times less one; every point lies within eps max|z| of the
        # exact ones and of the spectral ones
        cfg = ZeroConfig(zeros)
        direct = critical_points_direct(cfg).as_array()
        with mpmath.mp.workdps(60):
            exact = np.array([complex(w) for w in mp_critical_points(zeros)])
        for other in (exact, critical_points_spectral(cfg).as_array()):
            assert matched_distance(direct, other) <= EPS * max(map(abs, zeros))
        assert np.count_nonzero(direct == merged) == copies

    def test_subnormal_gaps_keep_the_esf_identity(self):
        assert critical_esf_identity_error([0.0, 0.0, 1e-320, 1.0]) <= 1e-300

    @pytest.mark.parametrize(
        "zeros",
        [
            (1.0, 1e-320, -1e-320),
            (0.0, 0.0, 1e-320, 1.0),
            (5e-324, -5e-324, 1e-323j),
            (1e-310, 2e-310, -3e-310j),
            (1.7e308, -1.7e308, 1.7e308j),
            (1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-51),
        ],
    )
    def test_a_failure_is_never_a_nan(self, zeros):
        # zeros apart by subnormal gaps, or at the ends of the double range:
        # finite critical points, or a RootFindingError, and numpy stays
        # silent either way
        try:
            got = critical_points_direct(ZeroConfig(zeros)).as_array()
        except RootFindingError:
            return
        assert got.size == len(zeros) - 1
        assert np.all(np.isfinite(got))


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
        # an Aberth iteration on the coefficients of p' once caught three
        # roots of the cluster near -1.7 in the one near 0.25 here, each
        # passing its residual gate
        cfg = ZeroConfig(tuple(complex(*pair) for pair in self.WRONG_CLUSTER), centered=True)
        assert_within_crosscheck_tolerance(cfg)

    @pytest.mark.parametrize("n", [3, 8, 16])
    @pytest.mark.parametrize("dist", ["disk", "gaussian"])
    def test_critical_moduli_at_every_scale(self, dist, n):
        # zeros far inside or outside the unit disk: the secular equation is
        # solved for them scaled by a power of two
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
        # the power-of-two scaling of the zeros must not over- or underflow
        # from 2^-500 to 2^300
        for seed in range(5):
            z = sample_config(3, "disk", seed).as_array()
            cfg = ZeroConfig(tuple(z * 2.0**k))
            direct = np.sort(np.abs(critical_points_direct(cfg).as_array()))
            spectral = np.sort(np.abs(critical_points_spectral(cfg).as_array()))
            assert np.abs(direct - spectral).max() <= 1e-12 * spectral.max()

    def test_one_huge_root(self):
        # p = (z - 1e200)(z^2 - 1e-20): next to the scaled zero near 1 the
        # reciprocals of the two tiny ones square beyond the double range
        # unless each row of them is scaled; the tiny critical point, about
        # -5e-221, is below the huge one's resolution
        got = critical_points_direct(ZeroConfig((1e200, 1e-10, -1e-10))).as_array()
        assert matched_distance(got, [2e200 / 3, 0.0]) <= 1e-15 * 2e200 / 3

    def test_no_coefficient_overflows(self):
        # prod (z - z_j) of these finite zeros has the coefficient 2^1050,
        # beyond the double range; the secular equation forms no coefficient
        cfg = ZeroConfig((2.0**350, 2.0**350 * 1j, -(2.0**350)))
        direct = critical_points_direct(cfg).as_array()
        spectral = critical_points_spectral(cfg).as_array()
        assert matched_distance(direct, spectral) <= 1e-14 * np.abs(spectral).max()

    def test_pinned_cluster(self):
        # the coefficient route's 80-bit polish once wandered off this
        # config's converged iterate and raised at residual 1.7e-7
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
        assert worst <= 1e-11

    def test_near_double_critical_point(self):
        # unit 682 of the crosscheck benchmark's seed 1006: a nearly double
        # critical point, where the spectral route misses the 1024 n u floor
        # (6.4e-13 from the truth at 50 digits in the power-sum measure) and
        # the gate passes on the direct route's own spread over a relisting
        cfg = sample_config(3, "roots_of_unity_perturbed", 3314515914)
        direct = critical_points_direct(cfg).as_array()
        with mpmath.mp.workdps(50):
            truth = np.array([complex(w) for w in mp_critical_points(cfg.zeros)])
        assert matched_distance(direct, truth) <= 2.5e-13 * np.abs(truth).max()
        assert_within_crosscheck_tolerance(cfg)


class TestRootsOracle:
    """The direct route against the critical points at 40 digits."""

    @staticmethod
    def truth(zeros):
        cfg = ZeroConfig(tuple(zeros))
        start = critical_points_spectral(cfg).as_array()
        with mpmath.mp.workdps(40):
            return np.array([complex(w) for w in mp_critical_points(cfg.zeros, start)])

    @pytest.mark.parametrize("n", [3, 8, 16, 32])
    def test_sampled_cells(self, n):
        worst = 0.0
        for dist in DISTRIBUTIONS:
            for seed in range(8):
                cfg = sample_config(n, dist, seed)
                truth = self.truth(cfg.zeros)
                direct = critical_points_direct(cfg).as_array()
                worst = max(worst, matched_distance(direct, truth) / np.abs(truth).max())
        assert worst <= 1e-13

    @pytest.mark.parametrize("tilt", [0.0, 1e-13, 1e-9])
    def test_nearly_collinear(self, rng, tilt):
        # zeros on a turned line, each moved off it by at most ``tilt``
        for n in (3, 6, 12):
            for _ in range(5):
                t = np.sort(rng.uniform(-1.0, 1.0, n))
                z = (t + 1j * tilt * rng.uniform(-1.0, 1.0, n)) * np.exp(1j * rng.uniform(0, np.pi))
                truth = self.truth(z)
                direct = critical_points_direct(ZeroConfig(tuple(z))).as_array()
                assert matched_distance(direct, truth) <= 1e-13 * np.abs(truth).max()

    def test_edge_inputs(self):
        pinned = [complex(re, im) for re, im in TestDirectAgainstSpectral.PINNED_CLUSTER]
        cases = [pinned, (1e200, 1e-10, -1e-10)]
        for n in (8, 16):
            for seed in range(5):
                # zeros well inside the unit disk, which the scaling must move
                cases.append(sample_config(n, "disk", seed).as_array() * 1e-3)
        for zeros in cases:
            truth = self.truth(zeros)
            direct = critical_points_direct(ZeroConfig(tuple(zeros))).as_array()
            assert matched_distance(direct, truth) <= 1e-15 * np.abs(truth).max()
        # an exact multiple zero is returned as itself, with no rounding
        assert critical_points_direct(ZeroConfig((1.0,) * 5)).points == (1.0,) * 4

    def test_failures_carry_the_same_fields(self, monkeypatch):
        # with no step taken every call misses its gate; the error carries
        # the starts and the worst backward error of those starts, which
        # is recomputed here at 40 digits:
        # |sum 1/(w - z)| / (sum |w - z|^-1 + |w| sum |w - z|^-2)
        monkeypatch.setattr(polyzero, "_MAX_STEPS", 0)
        for n, dist in ((3, "disk"), (8, "clustered"), (16, "real")):
            cfg = sample_config(n, dist, 0)
            with pytest.raises(RootFindingError) as info:
                critical_points_direct(cfg)
            best = info.value.best
            assert best.shape == (n - 1,) and np.all(np.isfinite(best))
            with mpmath.mp.workdps(40):
                worst = max(
                    abs(sum(1 / (w - z) for z in zs))
                    / (sum(1 / abs(w - z) for z in zs) + abs(w) * sum(1 / abs(w - z) ** 2 for z in zs))
                    for w, zs in ((mpmath.mpc(w), [mpmath.mpc(z) for z in cfg.zeros]) for w in best)
                )
            assert info.value.residual == pytest.approx(float(worst), rel=1e-12)


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
