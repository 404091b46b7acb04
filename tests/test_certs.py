import dataclasses
import json

import mpmath
import numpy as np
import pytest

import schoenberg
from schoenberg import densela, harness
from schoenberg.certs import (
    _NOT_FINITE,
    ABS_TOL,
    REL_TOL,
    Certificate,
    UnderflowError,
    _certificates,
    _certify_batch,
    _error,
    _order_set,
    _power_sums,
    check_all,
    endpoint_checks,
    esf_bounds,
    opnorm_constant,
    quartic_bounds,
    schoenberg_constant,
    schoenberg_order_p,
    sv_product_check,
)
from schoenberg.densela import critical_points_spectral, differentiator, lp_norm, schatten_norm
from schoenberg.harness import (
    DEFAULT_N_VALUES,
    DEFAULT_P_GRID,
    DISTRIBUTIONS,
    _cell_generator,
    _draw_rows,
    dumps_report,
    sample_config,
)
from schoenberg.polyzero import ZeroConfig, center, center_rows, critical_points_direct
from schoenberg.sharpness import extremal_high, extremal_low, ratio

from conftest import c_output, mp_critical_points, mp_schoenberg_ratio, random_centered

LOW3 = ZeroConfig((0.0, 1.0, -1.0), centered=True)
HIGH4 = ZeroConfig((1.0, -1.0, 1.0, -1.0), centered=True)
QUARTIC_ROOTS = ZeroConfig((1.0, 1j, -1.0, -1j), centered=True)
PAIR = ZeroConfig((1.0, -1.0), centered=True)


def centered_sample(rng, n):
    return ZeroConfig(tuple(random_centered(rng, n)), centered=True)


def pereira_row(cfg: ZeroConfig, p: float) -> Certificate:
    """The pereira column at p of the columnar evaluator's row for cfg,
    centered or not, as a Certificate; the row's error where the column has
    an overflowed side or an underflow mark."""
    batch = _certify_batch(cfg.as_array()[None], [p], 1.0, (ABS_TOL, REL_TOL))
    return _certificates(cfg.n, batch.row(0).take([batch.labels.index(("pereira", p))]))[0]


def weyl_row(cfg: ZeroConfig, p: float) -> Certificate:
    """check_all's weyl certificate of cfg at p."""
    (cert,) = [c for c in check_all(cfg, [p]) if c.name == "weyl"]
    return cert


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

    @pytest.mark.parametrize("n", [1, 0, -3, True, 3.5, "4"])
    @pytest.mark.parametrize("constant", [schoenberg_constant, opnorm_constant])
    def test_n_validated(self, constant, n):
        # schoenberg_constant(1, 1.5) was complex, n = 0 divided by zero,
        # True read as 1 and 3.5 was taken as it stands
        with pytest.raises(ValueError, match="n"):
            constant(n, 1.5)

    def test_pair_and_numpy_orders_of_n(self):
        # an n = 2 audit reads the constant 0
        assert schoenberg_constant(2, 1.5) == opnorm_constant(2, 1.5) == 0.0
        assert schoenberg_constant(np.int64(4), 2.0) == 0.5
        assert opnorm_constant(np.int64(4), 2.0) == opnorm_constant(4, 2.0)


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
    # sample_config(16, "disk", 0) of the per-sample sampler the audit used
    # before its cells were drawn as arrays, to 17 significant digits
    DISK16 = (
        (-0.68536686044948558, 0.61552786289844852),
        (0.34021692484672345, -0.65276005089473566),
        (-0.52787522455226266, 0.69709004915827188),
        (-0.20311023199890985, 0.93817282082602382),
        (0.098229489912775081, 0.37557831454831758),
        (-0.40850866266804975, 0.2424037362812875),
        (-0.0022826510132898485, -0.2024048223586942),
        (-0.68433242064442401, -0.74852336629534755),
        (-0.10179695876474709, 0.00099694151322891542),
        (0.49604964804135243, -0.14748389478244645),
        (0.43557410740665436, -0.37020281229981289),
        (0.44467971140424101, -0.19040979914251377),
        (0.63567600814553749, -0.6540138868164278),
        (-0.089748398533665688, -0.26062430625717486),
        (-0.65446152444349526, 0.55793042907868751),
        (0.90705704331104586, -0.2012772154571128),
    )

    def test_pair(self):
        cert = pereira_row(PAIR, 2.0)
        assert cert.lhs == pytest.approx(0.0, abs=1e-14)
        assert cert.rhs == pytest.approx(1.0)

    def test_low_family_order_one(self):
        cert = pereira_row(LOW3, 1.0)
        assert cert.lhs == pytest.approx(1.1547, abs=1e-4)
        assert cert.rhs == pytest.approx(4 / 3, abs=1e-12)

    def test_uncentered_parabola(self):
        # p = z(z-1)(z-2), p' has roots 1 +- 1/sqrt(3)
        cert = pereira_row(ZeroConfig((0.0, 1.0, 2.0)), 2.0)
        assert cert.lhs == pytest.approx(8 / 3, abs=1e-10)
        assert cert.rhs == pytest.approx(10 / 3, abs=1e-12)
        assert cert.holds

    def test_holds_without_centering(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 0.7
            assert pereira_row(ZeroConfig(tuple(z)), 1.5).holds

    def test_uncentered_against_mpmath(self, rng):
        # the spectral route reads uncentered zeros as well as centered ones;
        # the Aberth route it replaced read up to 5.8e-9 here
        worst = 0.0
        for _ in range(60):
            n = int(rng.integers(3, 12))
            offset = complex(*rng.uniform(-3.0, 3.0, 2))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n) + offset
            w = critical_points_spectral(ZeroConfig(tuple(z))).as_array()
            lhs = float((np.abs(w) ** 2).sum())
            with mpmath.mp.workdps(50):
                exact = float(mpmath.fsum(abs(w) ** 2 for w in mp_critical_points(z)))
            worst = max(worst, abs(lhs - exact) / exact)
        assert worst <= 1e-13

    @pytest.mark.parametrize("exponent", [350, -350])
    def test_uncentered_scale_equivariance(self, rng, exponent):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 1.5
            at_one = pereira_row(ZeroConfig(tuple(z)), 2.0)
            scaled = pereira_row(ZeroConfig(tuple(z * 2.0**exponent)), 2.0)
            assert scaled.holds
            assert scaled.ratio == at_one.ratio
            assert scaled.lhs == at_one.lhs * 2.0 ** (2 * exponent)

    def test_overflowing_uncentered_config(self):
        # prod (z - z_j) has the constant term 2^1050, out of the double
        # range, but the spectral route never expands it: scaling by a power
        # of two leaves the ratio bit for bit
        cert = pereira_row(ZeroConfig((2.0**350, 2.0**350 * 1j, 2.0**351)), 2.0)
        assert cert.holds
        assert cert.ratio == pereira_row(ZeroConfig((1.0, 1j, 2.0)), 2.0).ratio

    def test_small_uncentered_config(self):
        # uncentered zeros go through the spectral route like centered ones,
        # which must read a configuration deep inside the unit disk as it
        # reads it at scale 1
        z = np.array([complex(re, im) for re, im in self.DISK16]) + 0.5
        at_one = pereira_row(ZeroConfig(tuple(z)), 2.0)
        small = pereira_row(ZeroConfig(tuple(1e-3 * z)), 2.0)
        assert at_one.holds and small.holds
        assert small.lhs / 1e-6 == pytest.approx(at_one.lhs, rel=1e-10)
        assert at_one.lhs / float((np.abs(z) ** 2).sum()) == pytest.approx(0.8632, abs=1e-4)


class TestWeyl:
    def test_symmetric_differentiator_equality(self):
        cert = weyl_row(ZeroConfig((2.0, -1.0, -1.0), centered=True), 3.0)
        assert cert.lhs == pytest.approx(2.0, abs=1e-10)
        assert cert.rhs == pytest.approx(2.0, abs=1e-10)
        assert abs(cert.lhs - cert.rhs) <= 1e-10


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
        rows = sv_product_check(np.eye(2) - 1.0 / 2, [1.0, -1.0])
        assert rows[0].lhs == pytest.approx(0.0, abs=1e-14)
        assert rows[0].rhs == pytest.approx(1.0)
        assert all(cert.holds for cert in rows)

    def test_random_gaussian(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 8))
            x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert all(cert.holds for cert in sv_product_check(x, d))

    def test_nonnegative_d_is_reflexive(self, rng):
        # D = |D| makes the two sides one matrix: equal at every k, ratio 1
        for _ in range(10):
            n = int(rng.integers(2, 8))
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for cert in sv_product_check(x, rng.uniform(0.5, 2.0, n)):
                assert cert.holds and cert.lhs == cert.rhs and cert.ratio == 1.0

    @pytest.mark.parametrize("zero", ["x", "d"])
    def test_zero_products_hold_with_no_ratio(self, rng, zero):
        n = 4
        x = np.zeros((n, n)) if zero == "x" else rng.standard_normal((n, n))
        d = np.zeros(n) if zero == "d" else rng.standard_normal(n) + 1j * rng.standard_normal(n)
        rows = sv_product_check(x, d)
        assert len(rows) == n
        for cert in rows:
            assert cert.lhs == 0.0 and cert.rhs == 0.0
            assert cert.holds and cert.ratio is None

    def test_projector_instance(self, rng):
        # sigma(Q diag(z) Q) against sigma(Q diag(|z|) Q), the instance that
        # check_all audits
        for _ in range(25):
            n = int(rng.integers(2, 9))
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert all(cert.holds for cert in sv_product_check(np.eye(n) - 1.0 / n, z))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sv_product_check(np.eye(3), [1.0, 2.0])

    @pytest.mark.parametrize("x", [np.ones((2, 3)), np.ones(4), np.ones((1, 2, 2))])
    def test_non_square_x_rejected(self, x):
        with pytest.raises(ValueError, match="square matrix"):
            sv_product_check(x, [1.0, 1.0])

    def test_empty_matrix_has_no_certificates(self):
        # one certificate per k = 1..n, so none at n = 0; this read the
        # leading singular value of an empty spectrum (IndexError)
        assert sv_product_check(np.zeros((0, 0)), []) == []


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


class TestCertificateFromDict:
    """from_dict reads outside input (a JSON report, a stored violation) and
    checks it; it used to coerce, so holds="false" read as True."""

    WIRE = {
        "name": "schoenberg", "n": 3, "p": 2.0,
        "lhs": 1.0, "rhs": 2.0, "slack": 1.0, "ratio": 0.5, "holds": True,
    }

    def test_json_loaded_report_round_trips(self):
        batch = check_all(PAIR, [1.0, 2.0])
        loaded = json.loads(dumps_report(batch))["certificates"]
        # n = 2 renders its zero sides as the JSON integer 0, and p = 1 as 1
        assert loaded[0]["lhs"] == 0 and isinstance(loaded[0]["lhs"], int)
        assert [Certificate.from_dict(d) for d in loaded] == batch

    def test_keys_follow_the_field_declarations(self):
        names = [f.name for f in dataclasses.fields(Certificate)]
        assert list(schoenberg_order_p(LOW3, 2.0).to_dict()) == names
        assert harness.CSV_COLUMNS == tuple(names)

    @pytest.mark.parametrize(
        "key,bad,message",
        [
            ("n", 3.7, "n must be an integer"),
            ("n", True, "n must be an integer"),
            ("n", "3", "n must be an integer"),
            ("p", True, "p must be a real number"),
            ("p", "2", "p must be a real number"),
            ("lhs", None, "lhs must be a real number"),
            ("rhs", "1", "rhs must be a real number"),
            ("slack", False, "slack must be a real number"),
            ("ratio", [0.5], "ratio must be a real number"),
            ("holds", "false", "holds must be a bool"),
            ("holds", 1, "holds must be a bool"),
            ("name", 7, "name must be text"),
            ("name", None, "name must be text"),
        ],
    )
    def test_rejects_a_value_of_the_wrong_type(self, key, bad, message):
        with pytest.raises(ValueError, match=message):
            Certificate.from_dict({**self.WIRE, key: bad})

    @pytest.mark.parametrize("key", ["p", "ratio"])
    def test_optional_values_may_be_none(self, key):
        assert getattr(Certificate.from_dict({**self.WIRE, key: None}), key) is None

    def test_integers_read_as_floats(self):
        cert = Certificate.from_dict({**self.WIRE, "p": 2, "lhs": 0, "ratio": np.float64(0.5)})
        assert (cert.p, cert.lhs, cert.ratio) == (2.0, 0.0, 0.5)
        assert all(type(v) is float for v in (cert.p, cert.lhs, cert.ratio))

    def test_missing_key_is_named(self):
        data = {key: value for key, value in self.WIRE.items() if key != "slack"}
        with pytest.raises(ValueError, match=r"missing certificate keys: \['slack'\]"):
            Certificate.from_dict(data)

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match=r"unknown certificate keys: \['verdict'\]"):
            Certificate.from_dict({**self.WIRE, "verdict": True})

    @pytest.mark.parametrize("data", [None, [("n", 3)], "schoenberg"])
    def test_rejects_a_non_mapping(self, data):
        with pytest.raises(ValueError, match="must be a mapping"):
            Certificate.from_dict(data)

    def test_underflow_error_is_one_class(self):
        assert UnderflowError is densela.UnderflowError is schoenberg.UnderflowError
        assert issubclass(UnderflowError, ArithmeticError)


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
                lambda: schoenberg_constant(4, p),
            ):
                with pytest.raises(ValueError):
                    call()

    @pytest.mark.parametrize("p", ["2", True, np.True_])
    def test_text_and_bool_orders_rejected(self, p):
        # "2" once returned the p = 2 certificates, True the p = 1 ones
        with pytest.raises(ValueError, match="real number"):
            check_all(LOW3, [p])

    def test_numpy_orders_accepted(self):
        assert check_all(LOW3, [np.float32(2.0), np.int64(1)]) == check_all(LOW3, [2.0, 1.0])

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
        cert = weyl_row(self.WITNESS, 1.75)
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

    def test_sv_product_is_judged_by_the_one_rule(self, rng):
        # the product lemma has no slack of its own: every verdict is
        # lhs <= rhs + rel_tol * max(|lhs|, |rhs|), and past the rank of
        # Q diag(|z|) Q both prefixes are exact zeros with no ratio
        low = ZeroConfig(tuple(2.0**40 * extremal_low(5).as_array()), centered=True)
        for cfg in (self.WITNESS, centered_sample(rng, 6), low):
            for rel_tol in (REL_TOL, 1e-2):
                rows = [c for c in check_all(cfg, [1.75], rel_tol=rel_tol)
                        if c.name.startswith("sv_product")]
                assert rows
                for c in rows:
                    assert c.holds == (c.lhs <= c.rhs + rel_tol * max(abs(c.lhs), abs(c.rhs)))
        rows = [c for c in check_all(low, [1.75]) if c.name.startswith("sv_product")]
        assert [c.rhs > 0 for c in rows] == [True, True, False, False, False]
        assert all(c.lhs == c.rhs == 0.0 and c.ratio is None and c.holds for c in rows[2:])


class TestScaleFreeVerdicts:
    """Every family is homogeneous in the zeros, so no verdict may depend on
    their unit: each scaling by 2^k, k in [-60, 60], is exact, and under it
    neither side leaves the normal range on these rows.  Each row is
    certified at every scale as one stack."""

    SCALES = 2.0 ** np.arange(-60, 61)

    @classmethod
    def verdicts(cls, rows: np.ndarray, orders):
        """The K labels and the (S, B, K) verdicts of the (B, n) rows at
        every scale, with no side out of range."""
        scaled = (cls.SCALES[:, None, None] * rows[None]).reshape(-1, rows.shape[-1])
        batch = _certify_batch(scaled, orders, 1.0, (ABS_TOL, REL_TOL))
        assert batch.finite.all() and not batch.underflow.any()
        return batch.labels, batch.holds.reshape(len(cls.SCALES), len(rows), -1)

    def test_audit_rows_keep_their_verdicts(self):
        # at a unit-scale floor of the tolerance, the 1 < p < 2 violations
        # of clustered rows at n = 5 and 6 held from 2^-15 down
        for n in DEFAULT_N_VALUES:
            rows = np.concatenate(
                [center_rows(_draw_rows(_cell_generator(7, n, d), n, d, 4)) for d in DISTRIBUTIONS]
            )
            unit = _certify_batch(rows, DEFAULT_P_GRID, 1.0, (ABS_TOL, REL_TOL)).holds
            _, holds = self.verdicts(rows, DEFAULT_P_GRID)
            np.testing.assert_array_equal(holds, np.broadcast_to(unit, holds.shape))

    def test_witnesses_fail_at_every_scale(self):
        order_four = center(ZeroConfig((1.0, -1 / 3, -1 / 3, -1 / 3)))
        order_five = TestIntermediateOrderCounterexample.WITNESS
        for cfg, p in ((order_four, 1.9), (order_five, 1.75)):
            labels, holds = self.verdicts(cfg.as_array()[None], [p])
            assert not holds[:, 0, labels.index(("schoenberg", p))].any()

    def test_extremal_families_hold_at_every_scale(self):
        # the e_3 bound of 0, 0, 1024, -1024 once failed on the shadow of
        # the exact zero e_3(sigma_1, sigma_2, sigma_3) against e_3(|z|) = 0
        for n in range(3, 9):
            families = [extremal_low(n)] + ([extremal_high(n)] if n % 2 == 0 else [])
            for cfg in families:
                assert self.verdicts(cfg.as_array()[None], DEFAULT_P_GRID)[1].all(), (n, cfg)


class TestPowerSums:
    def test_within_eight_ulps_of_mpmath(self):
        # a direct sum of powers; the peak-scaled round trip it replaced was
        # off by 16.7 u (u = 2^-53) on these rows
        rng = np.random.default_rng(0)
        scales = np.array([1e-3, 1e-1, 1.0, 1e1, 1e3])[:, None]
        worst = 0.0
        with mpmath.workdps(50):
            for n in range(3, 33):
                mods = np.abs(rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n)))
                mods *= scales
                sums = _power_sums(mods, DEFAULT_P_GRID)
                for row, got in zip(mods, sums):
                    for p, value in zip(DEFAULT_P_GRID, got):
                        exact = mpmath.fsum(mpmath.mpf(m) ** mpmath.mpf(p) for m in row)
                        worst = max(worst, float(abs(value - exact) / exact))
        assert worst <= 8 * 2.0**-53

    def test_zero_row_gives_exact_zeros(self):
        sums = _power_sums(np.zeros((2, 4)), DEFAULT_P_GRID)
        assert sums.shape == (2, len(DEFAULT_P_GRID))
        assert not sums.any()

    def test_one_dimensional_row(self):
        sums = _power_sums(np.array([3.0, 4.0]), (1.0, 2.0, 3.0))
        assert sums.shape == (3,)
        assert sums.tolist() == [7.0, 25.0, 91.0]

    def test_orders_one_and_two_are_plain_sums(self, rng):
        mods = np.abs(rng.standard_normal((6, 9)))
        sums = _power_sums(mods, (1.0, 2.0))
        np.testing.assert_array_equal(sums[:, 0], mods.sum(axis=-1))
        np.testing.assert_array_equal(sums[:, 1], (mods * mods).sum(axis=-1))

    ORDERS = (*DEFAULT_P_GRID, 1.9, 3.7)
    SHAPES = ((10_000, 1), (5_000, 2), (2_000, 5), (1_250, 8), (625, 16), (100, 100))

    @classmethod
    def moduli(cls, seed: int):
        """Seeded (B, n) stacks of 10,000 moduli each, over 2^-40 .. 2^40."""
        rng = np.random.default_rng(seed)
        for shape in cls.SHAPES:
            mods = np.abs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            yield mods * 2.0 ** rng.integers(-40, 41, shape)

    def test_prepared_orders_give_the_bits_of_each_power_alone(self):
        # the broadcast power differs from np.square, the scalar fast path
        # of mods ** 2.0, in the last bit of some squares; a p = 2 column
        # taken by the broadcast power fails here
        prepared = _order_set(self.ORDERS)
        for mods in self.moduli(0):
            sums = _power_sums(mods, prepared)
            assert sums.shape == (mods.shape[0], len(self.ORDERS))
            for col, p in enumerate(self.ORDERS):
                want = (mods**p).sum(axis=-1)
                assert sums[:, col].tobytes() == want.tobytes(), (mods.shape, p)

    def test_a_column_does_not_depend_on_the_other_orders(self):
        together = _order_set(self.ORDERS)
        backwards = _order_set(self.ORDERS[::-1])
        for mods in self.moduli(1):
            sums = _power_sums(mods, together)
            reversed_sums = _power_sums(mods, backwards)[:, ::-1]
            assert sums.tobytes() == np.ascontiguousarray(reversed_sums).tobytes()
            for col, p in enumerate(self.ORDERS):
                alone = _power_sums(mods, _order_set([p]))
                assert alone.shape == (mods.shape[0], 1)
                assert alone[:, 0].tobytes() == sums[:, col].tobytes(), (mods.shape, p)
                # an unprepared sequence is prepared on the spot
                assert _power_sums(mods, [p]).tobytes() == alone.tobytes()

    def test_prepared_orders_are_read_only(self):
        prepared = _order_set([1.5, 2.0])
        assert prepared.square == 1 and _order_set([1.5]).square is None
        with pytest.raises(ValueError):
            prepared.exponents[0, 0] = 3.0


class TestNonFiniteSides:
    """A side that overflows is an OverflowError, and a right side that
    underflows where it is not an exact zero is an UnderflowError, never a
    verdict."""

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

    def test_overflowed_quartic_sides_raise(self):
        # at 2^260 the fourth powers overflow but the differentiator does
        # not; an infinite side is never snapped to a zero
        for n in (4, 8):
            cfg = self.scaled(n, 260)
            for run in (lambda: quartic_bounds(cfg), lambda: check_all(cfg, [2.0])):
                with pytest.raises(OverflowError):
                    run()

    @pytest.mark.parametrize("exponent", [-150, -400, -700])
    def test_tiny_scales_raise(self, exponent):
        # the p = 10 sums underflow from 2^-150 on, the fixed p = 4 ones at
        # 2^-400 and 2^-700
        for n in (3, 8):
            with pytest.raises(UnderflowError):
                check_all(self.scaled(n, exponent), self.GRID)

    @staticmethod
    def disk(factor):
        z = np.array(sample_config(5, "disk", 0).zeros) * factor
        return ZeroConfig(tuple(z), centered=True)

    def test_underflow_at_ten_raises_everywhere(self):
        cfg = self.disk(1e-40)  # |z|^10 underflows, |z|^4 does not
        for run in (
            lambda: check_all(cfg, DEFAULT_P_GRID),
            lambda: check_all(cfg, [10.0]),
            lambda: schoenberg_order_p(cfg, 10.0),
            lambda: pereira_row(cfg, 10.0),
        ):
            with pytest.raises(UnderflowError):
                run()
        assert check_all(cfg, [3.0])
        assert quartic_bounds(cfg) and endpoint_checks(cfg)

    def test_underflow_at_fixed_orders_raises(self):
        cfg = self.disk(1e-120)  # |z|^3 and |z|^4 underflow, |z|^2 does not
        for run in (
            lambda: check_all(cfg, [1.0]),
            lambda: schoenberg_order_p(cfg, 3.0),
            lambda: pereira_row(cfg, 3.0),
            lambda: quartic_bounds(cfg),
            lambda: ratio(cfg, 3.0),
        ):
            with pytest.raises(UnderflowError):
                run()
        assert endpoint_checks(cfg) and schoenberg_order_p(cfg, 2.0)

    def test_underflowed_products_raise(self):
        # every power sum of |z| is normal, but e_6(|z|), e_7(|z|) and the
        # singular value prefix products from k = 6 on are not
        cfg = ZeroConfig(tuple(np.array(sample_config(8, "disk", 0).zeros) * 1e-60), centered=True)
        d = cfg.as_array()
        for run in (
            lambda: check_all(cfg, [1.0, 2.0, 4.0]),
            lambda: esf_bounds(cfg),
            lambda: sv_product_check(np.eye(8) - 1.0 / 8, d),
        ):
            with pytest.raises(UnderflowError):
                run()
        assert endpoint_checks(cfg) and schoenberg_order_p(cfg, 4.0)

    def test_exact_zero_products_stay_verdicts(self):
        # e_3 of two nonzero moduli and the prefix products past the rank
        # floor are exact zeros, not underflows
        cfg = ZeroConfig((0.0, 0.0, 1.0, -1.0), centered=True)
        rows = {c.name: c for c in check_all(cfg, [2.0])}
        assert rows["esf_k3"].rhs == 0.0 and rows["sv_product_k4"].rhs == 0.0
        assert esf_bounds(cfg)[2].rhs == 0.0

    def test_overflowed_differentiator_raises_overflow(self):
        # the zeros are finite, but z_1 + z_2 overflows in Q diag(z) Q
        cfg = ZeroConfig((1e308, -1e308, 0.0), centered=True)
        for run in (
            lambda: check_all(cfg, [2.0]),
            lambda: schoenberg_order_p(cfg, 2.0),
            lambda: quartic_bounds(cfg),
            lambda: pereira_row(cfg, 2.0),
            lambda: endpoint_checks(cfg),
            lambda: esf_bounds(cfg),
        ):
            with pytest.raises(OverflowError):
                run()

    # a = 0.6e308: the zeros and their differentiator are finite, but the
    # differentiator of |z| is not, since sum |z| = 4a overflows
    HALF_FINITE = (0.6e308, -0.6e308, 0.6e308j, -0.6e308j)

    def test_overflowed_differentiator_reaches_no_lapack_call(self, capfd):
        # LAPACK's SVD takes a non-finite matrix without raising, and
        # OpenBLAS prints "** On entry to DLASCL parameter number 4 had an
        # illegal value" through C stdio
        for zeros in ((1e308, -1e308, 0.0), self.HALF_FINITE):
            cfg = ZeroConfig(zeros, centered=True)
            for run in (
                lambda: check_all(cfg, [2.0]),
                lambda: endpoint_checks(cfg),
                lambda: esf_bounds(cfg),
            ):
                with pytest.raises(OverflowError):
                    run()
        assert c_output(capfd) == ("", "")

    def test_batch_marks_an_overflowed_absolute_half_per_row(self, capfd):
        # only the overflowed row is an error; the other keeps the bits of
        # its batch of one, and LAPACK never sees the overflowed one
        z = np.array([self.HALF_FINITE, (1.0, -1.0, 1j, -1j)])
        batch = _certify_batch(z, [2.0], 1.0, (ABS_TOL, REL_TOL))
        assert batch.finite.tolist() == [False, True]
        error = _error(batch.row(0))
        assert isinstance(error, OverflowError) and str(error) == _NOT_FINITE
        one = _certify_batch(z[1:], [2.0], 1.0, (ABS_TOL, REL_TOL))
        assert one.labels == batch.labels
        for got, want in zip(batch.row(1)[1:], one.row(0)[1:]):
            assert got.tobytes() == want.tobytes()
        assert c_output(capfd) == ("", "")

    def test_overflowed_product_is_an_overflow_error(self):
        with pytest.raises(OverflowError):
            sv_product_check(1e200 * np.eye(2), [1e200, 1.0])
        with pytest.raises(ValueError, match="finite"):
            sv_product_check(np.diag([np.inf, 1.0]), [1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            sv_product_check(np.eye(2), [np.nan, 1.0])

    def test_all_zero_configuration_still_certifies(self):
        zero = ZeroConfig((0j,) * 4, centered=True)
        rows = check_all(zero, DEFAULT_P_GRID)
        assert rows and all(c.holds and c.lhs == c.rhs == 0.0 for c in rows)
        assert schoenberg_order_p(zero, 10.0).ratio is None
        with pytest.raises(ValueError, match="all zeros vanish"):
            ratio(zero, 3.0)


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
            assert weyl_row(cfg, p).holds
            schatten_p = schatten_norm(a, p) ** p
            bound = schoenberg_constant(n, p) * lp_norm(cfg.as_array(), p) ** p
            assert schatten_p <= bound * (1 + 1e-9) + 1e-12
            full = schoenberg_order_p(cfg, p)
            assert full.lhs <= schatten_p * (1 + 1e-9) + 1e-12
            assert full.holds
