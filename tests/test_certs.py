import numpy as np
import pytest

from schoenberg.certs import (
    ABS_TOL,
    REL_TOL,
    Certificate,
    check_all,
    endpoint_checks,
    esf_bounds,
    opnorm_constant,
    pereira_bound,
    quartic_bounds,
    schoenberg_constant,
    schoenberg_order_p,
    sv_product_check,
    weyl_check,
)
from schoenberg.densela import centering_projector, differentiator, lp_norm, schatten_norm
from schoenberg.polyzero import ZeroConfig, center, critical_points_direct

from conftest import mp_schoenberg_ratio, random_centered

LOW3 = ZeroConfig((0.0, 1.0, -1.0), centered=True)
HIGH4 = ZeroConfig((1.0, -1.0, 1.0, -1.0), centered=True)
QUARTIC_ROOTS = ZeroConfig((1.0, 1j, -1.0, -1j), centered=True)
PAIR = ZeroConfig((1.0, -1.0), centered=True)


def centered_sample(rng, n):
    return ZeroConfig(tuple(random_centered(rng, n)), centered=True)


class TestConstants:
    def test_branches_agree_at_two(self):
        for n in range(3, 12):
            assert schoenberg_constant(n, 2.0) == pytest.approx((n - 2) / n)
            lo = schoenberg_constant(n, 2.0 - 1e-12)
            hi = schoenberg_constant(n, 2.0 + 1e-12)
            assert lo == pytest.approx(hi, rel=1e-9)

    def test_never_weaker_than_pereira(self):
        for n in range(2, 20):
            for p in (1.0, 1.3, 2.0, 3.0, 7.0, 25.0):
                assert schoenberg_constant(n, p) <= (n - 1) / n

    def test_opnorm_values(self):
        assert opnorm_constant(4, 2) == pytest.approx(np.sqrt(0.5))
        assert opnorm_constant(4, 4) == pytest.approx(0.5 ** 0.25)
        assert opnorm_constant(3, 1) == pytest.approx(1 / np.sqrt(3))

    def test_order_validated(self):
        with pytest.raises(ValueError):
            schoenberg_constant(4, 0.5)


class TestSchoenbergOrderP:
    def test_low_family_order_one_equality(self):
        cert = schoenberg_order_p(LOW3, 1.0)
        assert cert.lhs == pytest.approx(2 / np.sqrt(3), abs=1e-12)
        assert cert.rhs == pytest.approx(np.sqrt(1 / 3) * 2, abs=1e-12)
        assert cert.holds and cert.ratio == pytest.approx(1.0, abs=1e-12)

    def test_high_family_order_three_equality(self):
        cert = schoenberg_order_p(HIGH4, 3.0)
        assert cert.lhs == pytest.approx(2.0, abs=1e-10)
        assert cert.rhs == pytest.approx(2.0, abs=1e-12)
        assert cert.holds

    def test_degenerate_derivative_slack(self):
        cert = schoenberg_order_p(QUARTIC_ROOTS, 2.0)
        assert cert.lhs == pytest.approx(0.0, abs=1e-6)
        assert cert.rhs == pytest.approx(2.0)
        assert cert.holds and cert.slack == pytest.approx(2.0, abs=1e-6)

    def test_requires_centering(self):
        with pytest.raises(ValueError):
            schoenberg_order_p(ZeroConfig((0.0, 1.0, 2.0)), 2.0)

    def test_rejects_small_order(self):
        with pytest.raises(ValueError):
            schoenberg_order_p(LOW3, 0.99)

    def test_n2_degenerate(self):
        cert = schoenberg_order_p(PAIR, 2.0)
        assert cert.holds
        assert cert.ratio is None
        assert cert.lhs == pytest.approx(0.0, abs=1e-14)

    def test_constant_scale_hook(self):
        honest = schoenberg_order_p(LOW3, 1.0)
        rigged = schoenberg_order_p(LOW3, 1.0, constant_scale=0.5)
        assert honest.holds and not rigged.holds


class TestQuarticBounds:
    def test_low_family_double_equality(self):
        dbs, kt, dom = quartic_bounds(LOW3)
        assert dbs.lhs == pytest.approx(2 / 9, abs=1e-10)
        assert dbs.rhs == pytest.approx(2 / 9, abs=1e-12)
        assert kt.rhs == pytest.approx(2 / 9, abs=1e-12)
        assert dbs.holds and kt.holds and dom.holds

    def test_fourth_roots_of_unity(self):
        dbs, kt, dom = quartic_bounds(QUARTIC_ROOTS)
        assert dbs.lhs == pytest.approx(0.0, abs=1e-10)
        assert kt.rhs == pytest.approx(1.0, abs=1e-12)
        assert dbs.rhs == pytest.approx(2.0, abs=1e-12)
        assert dom.lhs == pytest.approx(1.0) and dom.rhs == pytest.approx(2.0)

    def test_high_family(self):
        dbs, kt, dom = quartic_bounds(HIGH4)
        assert dbs.lhs == pytest.approx(2.0, abs=1e-9)
        assert dbs.rhs == pytest.approx(2.0, abs=1e-12)
        assert kt.rhs == pytest.approx(2.0, abs=1e-12)

    def test_kt_sharper_everywhere(self, rng):
        for _ in range(40):
            cfg = centered_sample(rng, int(rng.integers(3, 10)))
            _, kt, dom = quartic_bounds(cfg)
            assert dom.holds
            assert kt.rhs <= dom.rhs + 1e-12


class TestPereira:
    def test_pair(self):
        cert = pereira_bound(PAIR, 2.0)
        assert cert.lhs == pytest.approx(0.0, abs=1e-14)
        assert cert.rhs == pytest.approx(1.0)

    def test_low_family_order_one(self):
        cert = pereira_bound(LOW3, 1.0)
        assert cert.lhs == pytest.approx(1.1547, abs=1e-4)
        assert cert.rhs == pytest.approx(4 / 3, abs=1e-12)

    def test_uncentered_parabola(self):
        # p = z(z-1)(z-2), p' has roots 1 +- 1/sqrt(3)
        cert = pereira_bound(ZeroConfig((0.0, 1.0, 2.0)), 2.0)
        assert cert.lhs == pytest.approx(8 / 3, abs=1e-10)
        assert cert.rhs == pytest.approx(10 / 3, abs=1e-12)
        assert cert.holds

    def test_holds_without_centering(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 0.7
            assert pereira_bound(ZeroConfig(tuple(z)), 1.5).holds


class TestWeyl:
    def test_diagonal_equality(self):
        m = np.diag([2.0, -1j, 0.5])
        for p in (1.0, 2.0, 3.5):
            cert = weyl_check(m, p)
            assert cert.holds
            assert cert.lhs == pytest.approx(cert.rhs, rel=1e-13)

    def test_shift_matrix(self):
        cert = weyl_check(np.array([[0.0, 1.0], [0.0, 0.0]]), 2.0)
        assert cert.lhs == pytest.approx(0.0, abs=1e-15)
        assert cert.rhs == pytest.approx(1.0)

    def test_symmetric_differentiator_equality(self):
        cert = weyl_check(differentiator(ZeroConfig((2.0, -1.0, -1.0))), 3.0)
        assert cert.lhs == pytest.approx(2.0, abs=1e-10)
        assert cert.rhs == pytest.approx(2.0, abs=1e-10)
        assert abs(cert.lhs - cert.rhs) <= 1e-10

    def test_random_matrices(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert weyl_check(m, float(rng.uniform(1, 6))).holds


class TestEndpointChecks:
    def test_zero_matrix_pair(self):
        s1, s2, sinf = endpoint_checks(PAIR)
        assert s1.lhs == 0.0 and s1.rhs == 0.0 and s1.holds
        assert s2.lhs == 0.0 and s2.rhs == 0.0 and s2.holds
        assert sinf.lhs == 0.0 and sinf.rhs == pytest.approx(1.0)

    def test_low_family_s2_identity(self):
        _, s2, _ = endpoint_checks(LOW3)
        assert s2.lhs == pytest.approx(2 / 3, abs=1e-15)
        assert s2.rhs == pytest.approx(2 / 3, abs=1e-15)

    def test_low_family_s1_equality(self):
        s1, _, _ = endpoint_checks(LOW3)
        assert s1.lhs == pytest.approx(2 / np.sqrt(3), abs=1e-12)
        assert s1.rhs == pytest.approx(np.sqrt(1 / 3) * 2, abs=1e-12)

    def test_random_all_hold(self, rng):
        for _ in range(30):
            cfg = centered_sample(rng, int(rng.integers(2, 12)))
            s1, s2, sinf = endpoint_checks(cfg)
            assert s1.holds and s2.holds and sinf.holds

    def test_requires_centering(self):
        with pytest.raises(ValueError):
            endpoint_checks(ZeroConfig((1.0, 2.0)))


class TestEsfBounds:
    def test_low_family(self):
        k1, k2 = esf_bounds(LOW3)
        assert k1.lhs == pytest.approx(2 / np.sqrt(3), abs=1e-12)
        assert k1.rhs == pytest.approx(4 / 3, abs=1e-12)
        assert k2.lhs == pytest.approx(1 / 3, abs=1e-12)
        assert k2.rhs == pytest.approx(1 / 3, abs=1e-12)

    def test_pair(self):
        (k1,) = esf_bounds(PAIR)
        assert k1.lhs == pytest.approx(0.0, abs=1e-14)
        assert k1.rhs == pytest.approx(1.0)

    def test_high_family(self):
        k1, k2, k3 = esf_bounds(HIGH4)
        assert k1.lhs == pytest.approx(2.0, abs=1e-12)
        assert k1.rhs == pytest.approx(3.0)
        assert k2.lhs == pytest.approx(1.0, abs=1e-12)
        assert k2.rhs == pytest.approx(3.0)
        assert k3.lhs == pytest.approx(0.0, abs=1e-12)
        assert k3.rhs == pytest.approx(1.0)

    def test_no_centering_needed(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 1.0
            for cert in esf_bounds(ZeroConfig(tuple(z))):
                assert cert.holds


class TestSvProduct:
    def test_identity_conjugation(self):
        rows = sv_product_check(np.eye(2), [1.0, -1.0])
        for cert in rows:
            assert cert.holds
            assert cert.lhs == pytest.approx(cert.rhs, rel=1e-12)

    def test_projector_annihilates(self):
        rows = sv_product_check(centering_projector(2), [1.0, -1.0])
        assert rows[0].lhs == pytest.approx(0.0, abs=1e-14)
        assert rows[0].rhs == pytest.approx(1.0)
        assert all(cert.holds for cert in rows)

    def test_random_gaussian(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert all(cert.holds for cert in sv_product_check(x, d))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sv_product_check(np.eye(3), [1.0, 2.0])


class TestCertificateSchema:
    def test_round_trip(self):
        cert = schoenberg_order_p(LOW3, 2.5)
        again = Certificate.from_dict(cert.to_dict())
        assert again == cert

    def test_tolerance_policy(self):
        # boundary: lhs exceeding rhs by less than the tolerance still holds
        near = Certificate.from_dict(
            {
                "name": "x", "n": 3, "p": None,
                "lhs": 1.0, "rhs": 1.0, "slack": 0.0, "ratio": 1.0, "holds": True,
            }
        )
        assert near.holds
        assert ABS_TOL == 1e-12 and REL_TOL == 1e-9


class TestCheckAll:
    def test_composition_and_count(self):
        rows = check_all(LOW3, [1.0, 2.0, 4.0])
        names = [c.name for c in rows]
        assert names == sorted(names)
        by_family = {}
        for c in rows:
            family = c.name
            for prefix in ("esf_k", "sv_product_k"):
                if c.name.startswith(prefix):
                    family = prefix[:-2]
            by_family[family] = by_family.get(family, 0) + 1
        assert by_family == {
            "endpoint_s1": 1,
            "endpoint_s2": 1,
            "endpoint_sinf": 1,
            "esf": 2,
            "pereira": 3,
            "quartic_dbs": 1,
            "quartic_kt": 1,
            "quartic_dominance": 1,
            "schoenberg": 3,
            "sv_product": 3,
            "weyl": 3,
        }
        assert all(c.holds for c in rows)

    def test_pair_all_trivial(self):
        rows = check_all(PAIR, [2.0])
        assert all(c.holds for c in rows)

    def test_requires_centering(self):
        with pytest.raises(ValueError):
            check_all(ZeroConfig((1.0, 2.0)), [2.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_all(LOW3, [])

    def test_infinite_and_nan_orders_rejected(self):
        # an infinite order would certify 0 <= 0, a vacuous verdict
        for p in (np.inf, np.nan):
            for call in (
                lambda: check_all(LOW3, [2.0, p]),
                lambda: schoenberg_order_p(LOW3, p),
                lambda: pereira_bound(LOW3, p),
                lambda: weyl_check(np.eye(3), p),
                lambda: schoenberg_constant(4, p),
            ):
                with pytest.raises(ValueError):
                    call()

    def test_deterministic_order(self):
        a = check_all(LOW3, [2.0, 1.0])
        b = check_all(LOW3, [1.0, 2.0])
        assert a == b


class TestIntermediateOrderCounterexample:
    """A centered real quintuple falsifying the order-p bound for 1 < p < 2.

    The certificate ratio exceeds 1 by 1.7e-3 at p = 1.75 (independently
    recomputed with 60-digit arithmetic by conftest.mp_schoenberg_ratio:
    critical points of the expanded quintic, then both power sums), while
    both endpoint orders hold: p = 2 is an exact equality (the zeros are
    collinear) and p = 1 has slack.
    This pins the finding so any later change that silently "fixes" the
    audit would be caught here.
    """

    WITNESS = ZeroConfig(
        (
            1.2858403708440693,
            -0.6132817622316489,
            -0.1418063626098606,
            -0.13311815317996312,
            -0.39763409282259676,
        ),
        centered=True,
    )

    def test_violates_claimed_bound_at_intermediate_order(self):
        cert = schoenberg_order_p(self.WITNESS, 1.75)
        assert not cert.holds
        assert cert.ratio == pytest.approx(1.0016828, abs=1e-6)

    def test_ratio_confirmed_at_60_digits(self):
        exact = mp_schoenberg_ratio(self.WITNESS.as_array(), 1.75)
        assert exact == pytest.approx(1.00168280036673, abs=1e-12)

    def test_endpoints_still_hold(self):
        order_one = schoenberg_order_p(self.WITNESS, 1.0)
        order_two = schoenberg_order_p(self.WITNESS, 2.0)
        assert order_one.holds and order_one.ratio < 1
        assert order_two.holds
        assert order_two.ratio == pytest.approx(1.0, abs=1e-12)  # collinear equality

    def test_above_two_holds_with_slack(self):
        cert = schoenberg_order_p(self.WITNESS, 2.5)
        assert cert.holds and cert.ratio < 0.9

    def test_weyl_link_is_not_the_culprit(self):
        # the eigenvalue-to-singular-value step is exact here (real zeros,
        # symmetric matrix); it is the Schatten-side constant that fails
        a = differentiator(self.WITNESS)
        cert = weyl_check(a, 1.75)
        assert abs(cert.lhs - cert.rhs) <= 1e-10
        schatten = schatten_norm(a, 1.75)
        allowed = opnorm_constant(5, 1.75) * lp_norm(self.WITNESS.as_array(), 1.75)
        assert schatten > allowed * (1 + 1e-4)


class TestCustomTolerances:
    GRID = [1.0, 1.75, 2.0, 4.0]
    WITNESS = TestIntermediateOrderCounterexample.WITNESS

    def test_explicit_defaults_match_default_call(self, rng):
        for n in (3, 5, 8):
            cfg = centered_sample(rng, n)
            explicit = check_all(cfg, self.GRID, abs_tol=ABS_TOL, rel_tol=REL_TOL)
            assert explicit == check_all(cfg, self.GRID)

    def test_loose_rel_tol_absorbs_the_witness(self):
        default = {c.name: c for c in check_all(self.WITNESS, [1.75])}
        loose = {c.name: c for c in check_all(self.WITNESS, [1.75], rel_tol=1e-2)}
        assert not default["schoenberg"].holds
        assert loose["schoenberg"].holds
        assert loose["schoenberg"].ratio == default["schoenberg"].ratio

    def test_sv_product_keeps_its_own_slack(self, rng):
        def sv_rows(cfg, **tols):
            rows = check_all(cfg, [1.75], **tols)
            return [c for c in rows if c.name.startswith("sv_product")]

        for cfg in (self.WITNESS, centered_sample(rng, 6)):
            default = sv_rows(cfg)
            assert default and default == sv_rows(cfg, abs_tol=ABS_TOL, rel_tol=1e-2)


class TestNonFiniteSides:
    """A side that overflows is an OverflowError, never a verdict."""

    GRID = [1.0, 1.75, 2.0, 4.0, 10.0]

    @staticmethod
    def scaled(n, exponent):
        z = random_centered(np.random.default_rng(n), n) * 2.0**exponent
        return ZeroConfig(tuple(z), centered=True)

    @pytest.mark.parametrize("exponent", [150, 400, 700])
    def test_huge_scales_raise(self, exponent):
        for n in (3, 8):
            with pytest.raises(OverflowError):
                check_all(self.scaled(n, exponent), self.GRID)

    @pytest.mark.parametrize("exponent", [-150, -400, -700])
    def test_tiny_scales_still_certify(self, exponent):
        for n in (3, 8):
            rows = check_all(self.scaled(n, exponent), self.GRID)
            assert rows and all(c.holds for c in rows)
            assert all(np.isfinite(c.lhs) and np.isfinite(c.rhs) for c in rows)


class TestInvariances:
    @staticmethod
    def ratios(cfg, p):
        return [
            c.ratio
            for c in check_all(cfg, [p])
            if c.ratio is not None
        ]

    def test_scale_rotation_permutation(self, rng):
        for _ in range(8):
            n = int(rng.integers(3, 8))
            z = random_centered(rng, n)
            base = ZeroConfig(tuple(z), centered=True)
            factor = 3.7 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            scaled = ZeroConfig(tuple(factor * z), centered=True)
            perm = rng.permutation(n)
            permuted = ZeroConfig(tuple(z[perm]), centered=True)
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            r0 = self.ratios(base, p)
            r1 = self.ratios(scaled, p)
            for a, b in zip(r0, r1):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
            r2 = self.ratios(permuted, p)
            for a, b in zip(r0, r2):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
            holds0 = [c.holds for c in check_all(base, [p])]
            holds1 = [c.holds for c in check_all(scaled, [p])]
            assert holds0 == holds1

    def test_cross_path_agreement(self, rng):
        # the schoenberg lhs via direct root-finding agrees with the
        # spectral route
        for _ in range(10):
            n = int(rng.integers(3, 9))
            cfg = centered_sample(rng, n)
            p = 2.5
            spectral = schoenberg_order_p(cfg, p).lhs
            w = np.abs(critical_points_direct(cfg).as_array())
            direct = float((w**p).sum())
            assert spectral == pytest.approx(direct, rel=1e-8, abs=1e-10)

    def test_chain_consistency(self, rng):
        # sum |w|^p <= ||A||_Sp^p <= C(n,p) sum |z|^p, each link separately;
        # restricted to the orders where the second link is actually true
        # (1 < p < 2 has counterexamples, see the class above)
        for _ in range(12):
            n = int(rng.integers(3, 9))
            cfg = centered_sample(rng, n)
            p = float(rng.choice([1.0, 2.0, 3.0, 4.0]))
            a = differentiator(cfg)
            link1 = weyl_check(a, p)
            assert link1.holds
            schatten_p = schatten_norm(a, p) ** p
            bound = schoenberg_constant(n, p) * lp_norm(cfg.as_array(), p) ** p
            assert schatten_p <= bound * (1 + 1e-9) + 1e-12
            full = schoenberg_order_p(cfg, p)
            assert full.lhs <= schatten_p * (1 + 1e-9) + 1e-12
            assert full.holds
