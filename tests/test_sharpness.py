import numpy as np
import pytest

from schoenberg import certs, sharpness
from schoenberg.certs import opnorm_constant
from schoenberg.polyzero import centroid
from schoenberg.sharpness import (
    extremal_high,
    extremal_low,
    maximize_ratio,
    opnorm_lower_bound,
    ratio,
)
from schoenberg.polyzero import ZeroConfig

from conftest import random_centered


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
        with pytest.raises(ValueError):
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
            (5, 1.75, 1000, 1, 1001, 2),
        ],
    )
    def test_evaluations_count_every_objective_call(
        self, monkeypatch, n, p, budget, seed, evaluations, restarts
    ):
        calls = []
        moduli = certs._critical_moduli

        def counted(z):
            calls.append(1)
            return moduli(z)

        monkeypatch.setattr(certs, "_critical_moduli", counted)
        res = maximize_ratio(n, p, budget=budget, seed=seed)
        # one call more evaluates the ratio of the best configuration
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
        # exist for n >= 5 and 1 < p < 2; the search reports them unclipped
        res = maximize_ratio(5, 1.75, budget=20000, seed=1)
        assert res.best_ratio > 1.0 + 1e-9
        assert ratio(res.best_config, 1.75) == pytest.approx(res.best_ratio, abs=1e-12)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_rejects_bad_order_before_searching(self, monkeypatch, p):
        calls = []
        zeros = sharpness._zeros_from_coords
        monkeypatch.setattr(
            sharpness, "_zeros_from_coords", lambda x: calls.append(1) or zeros(x)
        )
        with pytest.raises(ValueError):
            maximize_ratio(5, p, budget=300, seed=0)
        with pytest.raises(ValueError):
            opnorm_lower_bound(5, p, budget=300, seed=0)
        assert not calls

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            maximize_ratio(2, 2.0, budget=100, seed=0)
        with pytest.raises(ValueError):
            maximize_ratio(4, 0.5, budget=100, seed=0)
        with pytest.raises(ValueError):
            maximize_ratio(4, 2.0, budget=0, seed=0)


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
        # the closed-form constant is falsified for 1 < p < 2 once n >= 5;
        # the search finds and reports the excess
        est, bound = opnorm_lower_bound(8, 1.5, budget=1000, seed=0)
        assert est > bound * (1.0 + 1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            opnorm_lower_bound(2, 2.0)
        with pytest.raises(ValueError):
            opnorm_lower_bound(4, 0.3)
