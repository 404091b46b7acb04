import warnings
import zlib

import numpy as np
import pytest

from schoenberg import certs, densela, sharpness
from schoenberg.certs import opnorm_constant
from schoenberg.polyzero import center, centroid
from schoenberg.sharpness import (
    SharpnessResult,
    extremal_high,
    extremal_low,
    maximize_ratio,
    opnorm_lower_bound,
    ratio,
)
from schoenberg.polyzero import ZeroConfig

from conftest import (
    mapped_coordinates,
    mp_schoenberg_ratio,
    random_centered,
    reference_coordinate_objective,
    reference_nelder_mead,
    reference_schatten_quotient,
    reference_schoenberg_ratio,
    reference_search,
    reference_zeros_from_coords,
)


class TestExtremalFamilies:
    def test_high_n4(self):
        assert sorted(extremal_high(4).zeros, key=lambda z: z.real) == [-1, -1, 1, 1]

    def test_high_n6(self):
        cfg = extremal_high(6)
        assert cfg.zeros.count(1.0) == 3 and cfg.zeros.count(-1.0) == 3
        assert cfg.centered

    def test_high_rejects_odd(self):
        with pytest.raises(ValueError):
            extremal_high(3)
        with pytest.raises(ValueError):
            extremal_high(2)

    def test_low_n3(self):
        assert sorted(extremal_low(3).zeros, key=lambda z: z.real) == [-1, 0, 1]

    def test_low_n5(self):
        cfg = extremal_low(5)
        assert cfg.zeros.count(0.0) == 3
        assert cfg.centered

    def test_low_rejects_small(self):
        with pytest.raises(ValueError):
            extremal_low(2)

    @pytest.mark.parametrize("n", [4.0, True, "4"])
    def test_families_reject_n_that_is_not_an_integer(self, n):
        for family in (extremal_low, extremal_high):
            with pytest.raises(ValueError, match="must be an integer"):
                family(n)

    def test_families_take_numpy_integers(self):
        assert extremal_low(np.int64(5)) == extremal_low(5)
        assert extremal_high(np.int32(4)) == extremal_high(4)


class TestRatio:
    def test_high_family_is_tight_above_two(self):
        assert ratio(extremal_high(4), 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_low_family_is_tight_below_two(self):
        assert ratio(extremal_low(3), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_derivative(self):
        cfg = ZeroConfig((1.0, 1j, -1.0, -1j), centered=True)
        assert ratio(cfg, 2.0) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_n2(self):
        with pytest.raises(ValueError):
            ratio(ZeroConfig((1.0, -1.0), centered=True), 2.0)

    def test_rejects_uncentered(self):
        with pytest.raises(ValueError, match="ratio requires a centered configuration"):
            ratio(ZeroConfig((0.0, 1.0, 2.0)), 2.0)

    def test_rejects_all_zeros(self):
        with pytest.raises(ValueError):
            ratio(ZeroConfig((0j,) * 4, centered=True), 1.5)

    def test_invariant_under_scale_rotation_permutation(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 8))
            z = random_centered(rng, n)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]))
            base = ratio(ZeroConfig(tuple(z), centered=True), p)
            c = 2.2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert ratio(ZeroConfig(tuple(c * z), centered=True), p) == pytest.approx(
                base, rel=1e-9, abs=1e-9
            )
            perm = rng.permutation(n)
            assert ratio(ZeroConfig(tuple(z[perm]), centered=True), p) == pytest.approx(
                base, rel=1e-9, abs=1e-9
            )


class TestMaximizeRatio:
    def test_reaches_high_family_optimum(self):
        res = maximize_ratio(4, 3.0, budget=10**4, seed=7)
        assert res.best_ratio >= 0.99
        assert res.best_ratio <= 1.0 + 1e-9

    def test_reaches_low_family_optimum(self):
        res = maximize_ratio(3, 1.5, budget=10**4, seed=7)
        assert res.best_ratio >= 0.99
        assert res.best_ratio <= 1.0 + 1e-9

    def test_result_reproducible_from_config(self):
        res = maximize_ratio(4, 2.5, budget=3000, seed=1)
        assert res.best_config.centered
        assert ratio(res.best_config, 2.5) == pytest.approx(res.best_ratio, abs=1e-12)
        assert abs(centroid(res.best_config)) <= 1e-12

    def test_deterministic(self):
        a = maximize_ratio(4, 3.0, budget=1500, seed=11)
        b = maximize_ratio(4, 3.0, budget=1500, seed=11)
        assert a == b

    def test_budget_respected(self):
        res = maximize_ratio(3, 2.0, budget=500, seed=0)
        # the final simplex round may finish, but not by more than one sweep
        assert res.evaluations <= 500 + 2 * (2 * (3 - 1) + 2)
        assert res.restarts >= 1

    @pytest.mark.parametrize(
        "n, p, budget, seed, evaluations, restarts",
        [
            # the 12th evaluation is a reflection whose expansion finishes
            (5, 1.75, 12, 0, 13, 1),
            # the 101st evaluation falls inside a shrink of 2(n-1) = 4
            (3, 1.5, 101, 0, 104, 1),
            # the first run collapses below the restart diameter
            (5, 1.75, 1000, 1, 1000, 2),
        ],
    )
    def test_evaluations_count_every_objective_call(
        self, monkeypatch, n, p, budget, seed, evaluations, restarts
    ):
        calls = []
        eigvals = densela._eigvals

        def counted(m):
            calls.append(1)
            return eigvals(m)

        monkeypatch.setattr(densela, "_eigvals", counted)
        res = maximize_ratio(n, p, budget=budget, seed=seed)
        # every objective call reads the eigenvalues of one compression, and
        # the ratio of the best configuration, from the batch evaluator,
        # reads them once more
        assert res.evaluations == len(calls) - 1
        assert (res.evaluations, res.restarts) == (evaluations, restarts)

    def test_never_exceeds_one_at_proven_orders(self, rng):
        # p = 1, p = 2 and p >= 2 have interpolation-free proofs; the search
        # must cap at the extremal value there
        for seed in range(3):
            n = int(rng.integers(3, 6))
            p = float(rng.choice([1.0, 2.0, 4.0]))
            res = maximize_ratio(n, p, budget=2000, seed=seed)
            assert res.best_ratio <= 1.0 + 1e-9

    def test_surfaces_exceedance_at_intermediate_orders(self):
        # genuine counterexamples to the claimed intermediate-order constant
        # exist for n >= 4 and p0(n) < p < 2, with p0(4) ~ 1.760 and
        # p0(5) ~ 1.442; the search reports them unclipped
        res = maximize_ratio(5, 1.75, budget=20000, seed=1)
        assert res.best_ratio > 1.0 + 1e-9
        assert ratio(res.best_config, 1.75) == pytest.approx(res.best_ratio, abs=1e-12)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_bad_order_before_searching(self, monkeypatch, p):
        calls = []
        coordinate_map = sharpness._coordinate_map
        monkeypatch.setattr(
            sharpness, "_coordinate_map", lambda n: calls.append(1) or coordinate_map(n)
        )
        with pytest.raises(ValueError):
            maximize_ratio(5, p, budget=300, seed=0)
        with pytest.raises(ValueError):
            opnorm_lower_bound(5, p, budget=300, seed=0)
        assert not calls

    @pytest.mark.parametrize("p", ["2", True])
    def test_rejects_text_and_bool_orders(self, p):
        # both were taken through float(): "2" searched p = 2, True p = 1
        with pytest.raises(ValueError, match="real number"):
            maximize_ratio(5, p, budget=100, seed=0)
        with pytest.raises(ValueError, match="real number"):
            opnorm_lower_bound(5, p, budget=100, seed=0)

    @pytest.mark.parametrize(
        "n, budget, seed",
        [(5.0, 10, 0), (5, 10.5, 0), (5, True, 0), (5, 10, 0.0), (5, 10, "0"), (5, 10, -1)],
    )
    def test_rejects_search_arguments_that_are_not_integers(self, n, budget, seed):
        # n = 5.0 once failed on the seed, and budgets 10.5 and True ran
        for search in (maximize_ratio, opnorm_lower_bound):
            with pytest.raises(ValueError, match="integer|nonnegative"):
                search(n, 1.5, budget, seed)

    def test_search_takes_numpy_integers(self):
        got = maximize_ratio(np.int64(4), 2.0, np.int32(60), np.uint8(3))
        assert got == maximize_ratio(4, 2.0, 60, 3)
        assert type(got.n) is int and type(got.seed) is int
        assert opnorm_lower_bound(np.int64(4), 2.0, np.int64(60), np.int8(1)) == (
            opnorm_lower_bound(4, 2.0, 60, 1)
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            maximize_ratio(2, 2.0, budget=100, seed=0)
        with pytest.raises(ValueError):
            maximize_ratio(4, 0.5, budget=100, seed=0)
        with pytest.raises(ValueError):
            maximize_ratio(4, 2.0, budget=0, seed=0)


class TestOrderFourWitness:
    """(z - 1)(z + 1/3)^3 refutes the claimed constant at n = 4.

    Its critical points are -1/3 (twice) and 2/3.  The closed-form ratio of
    this one-vs-rest family exceeds 1 exactly for p0(4) ~ 1.760 < p < 2, so
    the refutation region starts at n = 4; p = 1.9 lies inside it.
    """

    WITNESS = center(ZeroConfig((1.0, -1 / 3, -1 / 3, -1 / 3)))

    def test_ratio_pinned_and_confirmed_at_60_digits(self):
        value = ratio(self.WITNESS, 1.9)
        assert value == pytest.approx(1.0009149692779185, rel=0, abs=1e-15)
        assert value > 1.0 + certs.REL_TOL
        exact = mp_schoenberg_ratio(self.WITNESS.as_array(), 1.9)
        assert abs(value - exact) <= 1e-12


class TestOpnormLowerBound:
    def test_order_two_is_an_identity(self):
        est, bound = opnorm_lower_bound(4, 2.0, budget=200, seed=0)
        assert bound == pytest.approx(np.sqrt(0.5))
        assert est == pytest.approx(bound, abs=1e-12)

    def test_high_family_saturates_order_four(self):
        est, bound = opnorm_lower_bound(4, 4.0, budget=200, seed=0)
        assert bound == pytest.approx(0.5 ** 0.25)
        assert est == pytest.approx(bound, abs=1e-9)

    def test_low_family_saturates_order_one(self):
        est, bound = opnorm_lower_bound(3, 1.0, budget=200, seed=0)
        assert bound == pytest.approx(1 / np.sqrt(3))
        assert est == pytest.approx(bound, abs=1e-9)

    def test_estimate_never_exceeds_bound_at_proven_orders(self):
        for n, p, seed in [(5, 1.0, 3), (6, 4.0, 4), (4, 10.0, 5)]:
            est, bound = opnorm_lower_bound(n, p, budget=800, seed=seed)
            assert est <= bound * (1.0 + 1e-9)

    def test_surfaces_excess_at_intermediate_orders(self):
        # the closed-form constant is falsified for n >= 4 and p0(n) < p < 2
        # (p0(8) ~ 1.195); the search finds and reports the excess
        est, bound = opnorm_lower_bound(8, 1.5, budget=1000, seed=0)
        assert est > bound * (1.0 + 1e-6)

    @pytest.mark.parametrize("n, svds", [(5, 100), (8, 102)])
    def test_family_starts_are_evaluated_once(self, monkeypatch, n, svds):
        # budget 100 plus the up-front family values (1 at n = 5, 2 at
        # n = 8), less the one that seeds the first simplex; the final move
        # ends on the budget at n = 5 and overruns it by one at n = 8
        calls = []
        svdvals = densela._svdvals

        def counted(m):
            calls.append(1)
            return svdvals(m)

        monkeypatch.setattr(densela, "_svdvals", counted)
        opnorm_lower_bound(n, 1.5, budget=100, seed=0)
        assert len(calls) == svds

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            opnorm_lower_bound(2, 2.0)
        with pytest.raises(ValueError):
            opnorm_lower_bound(4, 0.3)


class TestCoordinateMap:
    """The searches read the zeros and the compression from one product
    with sharpness._coordinate_map."""

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_map_gives_the_zeros_and_their_compression(self, rng, n, scale):
        # the head zeros are the coordinates exactly; the last zero is a sum
        # of n-1 terms on both routes, whose real and imaginary parts are
        # each within (n-2)/2 eps of the sum of their terms' moduli, so the
        # two differ by at most (n-2) eps sum |x|; every compression entry
        # is a short sum on either route
        eps = np.finfo(float).eps
        m = sharpness._coordinate_map(n)
        assert m.shape == (n + (n - 1) ** 2, n - 1) and m.dtype == float
        for _ in range(50):
            x = scale * rng.standard_normal(2 * (n - 1))
            z, compression = mapped_coordinates(m, x)
            want = sharpness._zeros_from_coords(x)
            assert np.array_equal(z[:-1], want[:-1])
            assert abs(z[-1] - want[-1]) <= (n - 2) * eps * np.abs(x).sum()
            want_compression = densela._compression(want)
            top = np.abs(want_compression).max()
            assert np.abs(compression - want_compression).max() <= 4 * eps * top

    @pytest.mark.parametrize("n", [3, 4, 8])
    @pytest.mark.parametrize(
        "value_at", [sharpness._schoenberg_ratio, sharpness._schatten_quotient]
    )
    def test_objectives_vanish_at_the_origin(self, n, value_at):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = value_at(n, 1.5)
            assert sharpness._coordinate_objective(n, value)(np.zeros(2 * (n - 1))) == 0.0
            assert value(np.zeros(n), np.zeros((n - 1, n - 1), dtype=complex)) == 0.0


def reference_maximize_ratio(n, p, budget, seed):
    best_x, _, spent, restarts = reference_search(
        n, p, budget, (seed, n), reference_schoenberg_ratio
    )
    best_config = center(ZeroConfig(tuple(reference_zeros_from_coords(best_x))))
    return SharpnessResult(n, p, best_config, ratio(best_config, p), spent, restarts, seed)


def reference_opnorm_lower_bound(n, p, budget, seed):
    families = (extremal_low, extremal_high) if n % 2 == 0 else (extremal_low,)
    _, estimate, _, _ = reference_search(
        n, p, budget, (seed, n, 1), reference_schatten_quotient, families
    )
    return float(estimate), opnorm_constant(n, p)


class TestSearchOracle:
    """Both searches give the bits of the loop that argsorted its simplex
    before every move and evaluated each family start twice
    (conftest.reference_search)."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "n, p, budget", [(5, 1.75, 1000), (8, 3.0, 1000), (4, 2.5, 3000)]
    )
    def test_maximize_ratio(self, n, p, budget, seed):
        got = maximize_ratio(n, p, budget, seed)
        want = reference_maximize_ratio(n, p, budget, seed)
        assert got == want
        assert repr(got) == repr(want)  # the signs of zeros too

    @pytest.mark.parametrize(
        "n, p, budget, seed", [(5, 1.75, 12, 0), (3, 1.5, 101, 0), (5, 1.75, 1000, 1)]
    )
    def test_maximize_ratio_at_pinned_counts(self, n, p, budget, seed):
        got = maximize_ratio(n, p, budget, seed)
        assert repr(got) == repr(reference_maximize_ratio(n, p, budget, seed))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "n, p, budget",
        # the benchmark calls, and an even n whose search runs from both
        # families and then from random starts
        [(5, 1.5, 100), (8, 1.5, 100), (4, 1.5, 3000)],
    )
    def test_opnorm_lower_bound(self, n, p, budget, seed):
        got = opnorm_lower_bound(n, p, budget, seed)
        assert repr(got) == repr(reference_opnorm_lower_bound(n, p, budget, seed))

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16])
    @pytest.mark.parametrize("p", [1.0, 1.75, 3.0])
    def test_objectives_match_the_full_matrix(self, rng, n, p):
        """The objectives, fed search coordinates, give the values of the
        formulas they replaced, over the spectra of the n x n Q diag(z) Q of
        the zeros those coordinates name, less its structural zeros, to
        1e-13 relative."""
        constant = certs.schoenberg_constant(n, p)
        own, ref = sharpness._coordinate_objective, reference_coordinate_objective
        objectives = [
            (own(n, sharpness._schoenberg_ratio(n, p)), own(n, sharpness._schatten_quotient(n, p))),
            (ref(n, reference_schoenberg_ratio(n, p)), ref(n, reference_schatten_quotient(n, p))),
        ]
        for _ in range(20):
            x = sharpness._coords_from_zeros(random_centered(rng, n))
            z = reference_zeros_from_coords(x)
            a = densela.differentiator(ZeroConfig(tuple(z)))
            moduli = np.sort(np.abs(np.linalg.eigvals(a)))[1:]
            sigma = np.linalg.svd(a, compute_uv=False)[:-1]
            z_sum = (np.abs(z) ** p).sum()
            want_ratio = (moduli**p).sum() / (constant * z_sum)
            want_quotient = ((sigma**p).sum() / z_sum) ** (1.0 / p)
            for ratio_at, quotient_at in objectives:
                assert -ratio_at(x) == pytest.approx(want_ratio, rel=1e-13, abs=0)
                assert -quotient_at(x) == pytest.approx(want_quotient, rel=1e-13, abs=0)

    def test_even_case_restarts_past_both_families(self):
        _, _, _, restarts = sharpness._search(
            4, 1.5, 3000, (0, 4, 1), sharpness._schatten_quotient,
            (extremal_low, extremal_high),
        )
        assert restarts > 2

    @staticmethod
    def assert_same_run(objective, x0, budget):
        """_nelder_mead evaluates the reference loop's points in its order
        and returns its result, bit for bit."""
        runs = []
        for minimize in (sharpness._nelder_mead, reference_nelder_mead):
            points = []

            def traced(x):
                points.append(x.tobytes())
                return objective(x)

            x, fx, used = minimize(traced, x0, budget)
            runs.append((points, x.tobytes(), repr(float(fx)), used))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "nan_at",
        [
            pytest.param(None, id="ties"),
            pytest.param(lambda x: x[0] > 0.2, id="one-nan"),
            pytest.param(lambda x: x[0] > 0.2 or x[1] > 0.2, id="two-nans"),
        ],
    )
    def test_nelder_mead_on_ties_and_nan(self, nan_at):
        # a staircase has many equal values, which a stable sort must keep
        # in vertex order, and argsort puts a NaN last
        centre = np.array([-0.7, 0.4, 1.1])

        def staircase(x):
            if nan_at is not None and nan_at(x):
                return float("nan")
            return float(np.floor(4.0 * ((x - centre) ** 2).sum()) / 4.0)

        for budget in (10, 40, 200):
            self.assert_same_run(staircase, np.zeros(3), budget)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_nelder_mead_on_hashed_values(self, dim):
        # values drawn by a hash of the point from a few numbers and NaN:
        # ties and NaN vertices everywhere, and a NaN among the others when
        # the worst vertex is replaced
        table = (0.0, 0.0, 1.0, 1.0, 2.0, -1.0, float("nan"), float("nan"))

        def hashed(x):
            return table[zlib.crc32(x.tobytes()) % len(table)]

        for start in range(20):
            self.assert_same_run(hashed, np.full(dim, 0.1 * start), 60)
