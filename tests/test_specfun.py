import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn
from scipy.special import psi

from carlemanfp import bounds, specfun, verification
from carlemanfp.coupling import Coupling
from carlemanfp.specfun import (
    EULER_GAMMA,
    digamma,
    dilog,
    hyp2f1,
    trigamma,
    zeta_lambda,
)
from carlemanfp.verification import COUPLINGS

# Brute-force Kahan series value for 2F1(1, 1/4; 5/4; 0.9), 2e6-term budget.
BRUTE_1MU_025_09 = 1.5077780625170767
# 1e7-term direct sum with integral tail bracket, and the trigamma identity.
ZETA_ONE_SIXTH = 1.228801173700901


def _bound_parameter_sets() -> list[tuple[float, float, float]]:
    """The (a, b, c) of every 2F1 in ``bounds``: four fixed, two per lambda_r."""
    sets = [(1.0, 1.25, 2.25), (2.0, 1.25, 3.25), (2.0, 1.25, 4.25), (1.0, 1.25, 3.25)]
    for lam in COUPLINGS:
        lr = Coupling(lam).lambda_r
        sets += [(1.0, 1.0 + lr, 2.0 + lr), (2.0, 1.0 + lr, 3.0 + lr)]
    return sets


# 0 to 1 - 1e-8, on both sides of the series switch at z = 1/2
ORACLE_Z = np.concatenate([
    np.linspace(0.0, 0.999, 61),
    0.5 + np.array([-1e-9, -1e-15, 1e-15, 1e-9]),
    1.0 - np.geomspace(1e-8, 0.45, 25),
])


def mpmath_hyp2f1(a, b, c, z):
    import mpmath as mp

    with mp.workdps(30):
        return np.array([float(mp.hyp2f1(a, b, c, mp.mpf(float(v)))) for v in z])


def _tail_inverse_square(m: float) -> float:
    # Euler-Maclaurin tail of sum_{k>N} (k+x)^{-2} with m = N+1+x.
    return 1.0 / m + 0.5 / m**2 + 1.0 / (6.0 * m**3) - 1.0 / (30.0 * m**5)


def zeta_series(coupling: Coupling, n_terms: int = 100_000) -> float:
    """(1/pi) sum_k [1/(k+|lam|)^2 + 1/(k-lambda_r)^2] summed directly:
    explicit partial sum plus Euler-Maclaurin tail, absolute error far
    below 1e-12 at the default term count."""
    al, lr = coupling.abs_lambda, coupling.lambda_r
    k = np.arange(1, n_terms + 1, dtype=float)
    body = math.fsum((1.0 / (k + al) ** 2 + 1.0 / (k - lr) ** 2).tolist())
    tail = _tail_inverse_square(n_terms + 1.0 + al) + _tail_inverse_square(
        n_terms + 1.0 - lr
    )
    return (body + tail) / math.pi


def one_mu(mu, z):
    """2F1(1, mu; 1+mu; z), the power-law tail's family, one row per mu
    for an array of mu."""
    return hyp2f1(1.0, mu, 1.0 + mu, z)


class TestHyp2f1OneMu:
    def test_unit_at_zero(self):
        assert one_mu(0.25, 0.0) == 1.0

    def test_arctanh_closed_form(self):
        # 2F1(1, 1/2; 3/2; z) = atanh(sqrt z)/sqrt z
        assert one_mu(0.5, 0.25) == pytest.approx(math.log(3.0), rel=1e-14)

    def test_brute_force_series(self):
        assert one_mu(0.25, 0.9) == pytest.approx(BRUTE_1MU_025_09, rel=1e-10)

    @pytest.mark.parametrize("mu", [0.02, 0.1, 0.25, 0.5, 0.75, 0.97])
    def test_against_general_implementation(self, mu):
        # the row of mu in a block of mu against the scalar call, on both
        # branches: the other members' series run to other lengths
        z = np.linspace(0.0, 0.999999, 40)
        block = np.array([0.9, mu, 0.05, 0.5])
        rows = one_mu(block, z)
        assert rows.shape == (4, z.size)
        assert np.array_equal(rows[1], one_mu(mu, z))

    def test_near_unit_argument_accuracy(self):
        import mpmath as mp

        mp.mp.dps = 30
        for mu in (0.1, 0.25, 0.45):
            z = 1.0 - 1e-8
            ref = float(mp.hyp2f1(1, mu, 1 + mu, z))
            assert one_mu(mu, z) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 0.84, 1.7])
    def test_matches_mpmath_on_both_branches(self, mu):
        # one array across the branch switch: each branch takes its term
        # count from its largest argument
        import mpmath as mp

        z = np.concatenate([np.linspace(0.0, 0.999, 41), 1.0 - np.geomspace(1e-12, 0.4, 9)])
        with mp.workdps(30):
            ref = np.array([float(mp.hyp2f1(1, mu, 1 + mu, mp.mpf(float(v)))) for v in z])
        assert np.max(np.abs(one_mu(mu, z) / ref - 1.0)) <= 1e-14

    @given(
        mu=st.floats(min_value=0.05, max_value=0.95),
        z1=st.floats(min_value=0.0, max_value=0.99),
        z2=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_increasing_and_at_least_one(self, mu, z1, z2):
        lo, hi = sorted((z1, z2))
        v_lo, v_hi = one_mu(mu, lo), one_mu(mu, hi)
        assert v_lo >= 1.0
        # allow summation-order noise for nearly identical arguments
        assert v_hi >= v_lo * (1.0 - 1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            one_mu(0.25, 1.0)
        with pytest.raises(ValueError):
            one_mu(-0.5, 0.5)
        # +inf passed `not mu > 0`; the series then grew until memory ran out
        with pytest.raises(ValueError, match="a, b and c"):
            one_mu(math.inf, 0.3)

    @pytest.mark.parametrize("z", [math.nan, [0.1, math.nan], [math.nan, 0.9]])
    def test_nan_rejected(self, z):
        # NaN passes both z < 0 and z >= 1 as false; the series would then
        # never meet their stopping test
        with pytest.raises(ValueError):
            one_mu(0.5, z)

    def test_domain_edges_accepted(self):
        assert one_mu(0.5, 0.0) == 1.0
        assert math.isfinite(one_mu(0.5, np.nextafter(1.0, 0.0)))


class TestHyp2f1Rows:
    """Arrays of b and c: one row per (b, c) pair, with the bits of its
    own call."""

    # the bound sets with m = 0 and m = 1 side by side, and the tail's
    # family: each series runs to a length of its own
    PAIRS = [(2.0, [1.25, 1.25, 1.0 + 0.5, 1.0 + 0.1], [3.25, 4.25, 3.0 + 0.5, 3.0 + 0.1]),
             (1.0, [0.05, 0.3, 0.97], [1.05, 1.3, 1.97])]

    @pytest.mark.parametrize("a, b, c", PAIRS)
    @pytest.mark.parametrize("z", [np.linspace(0.0, 0.5, 17), 1.0 - np.geomspace(1e-9, 0.49, 17),
                                   ORACLE_Z], ids=["gauss", "log", "both"])
    def test_rows_have_the_bits_of_scalar_calls(self, a, b, c, z):
        rows = hyp2f1(a, np.array(b), np.array(c), z)
        assert rows.shape == (len(b), z.size)
        for row, b_k, c_k in zip(rows, b, c):
            assert np.array_equal(row, hyp2f1(a, b_k, c_k, z))

    def test_scalar_z_gives_one_value_per_row(self):
        b = np.array([0.1, 0.6])
        for z in (0.3, 0.9):
            got = one_mu(b, z)
            assert got.shape == (2,)
            assert got.tolist() == [one_mu(0.1, z), one_mu(0.6, z)]

    def test_each_row_needs_its_balance(self):
        with pytest.raises(ValueError, match="c - a - b"):
            hyp2f1(1.0, np.array([0.5, 0.5]), np.array([1.5, 1.75]), 0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["b", "c", "z"])
    def test_non_finite_refused_before_any_series(self, where, bad, monkeypatch):
        def series(*args):
            raise AssertionError("a series ran")

        monkeypatch.setattr(specfun, "_gauss_series", series)
        monkeypatch.setattr(specfun, "_log_series", series)
        args = {"b": np.array([0.25, 0.5]), "c": np.array([1.25, 1.5]),
                "z": np.array([0.3, 0.9])}
        args[where] = args[where].copy()
        args[where][1] = bad
        with pytest.raises(ValueError, match="z must" if where == "z" else "a, b and c"):
            hyp2f1(1.0, args["b"], args["c"], args["z"])


class TestHyp2f1General:
    def test_unit_at_zero(self):
        assert hyp2f1(2.0, 1.25, 3.25, 0.0) == 1.0

    @pytest.mark.parametrize(
        "a,b,c,z,expected",
        [
            # printed six-digit reference products, back-solved
            (2.0, 1.25, 3.25, 2.0 / 3.0, 0.507407 * 135.0 / 32.0),
            (2.0, 1.25, 4.25, 4.0 / 13.0, 0.0458811 * 117.0**2 / 512.0),
        ],
    )
    def test_printed_reference_values(self, a, b, c, z, expected):
        assert hyp2f1(a, b, c, z) == pytest.approx(expected, rel=3e-6)

    def test_series_oracle(self):
        # plain Gauss series with compensated summation
        a, b, c, z = 2.0, 1.25, 3.25, 0.7
        total, comp, term = 0.0, 0.0, 1.0
        for k in range(2000):
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            term *= (a + k) * (b + k) * z / ((c + k) * (1.0 + k))
            if term < 1e-18 * total:
                break
        assert hyp2f1(a, b, c, z) == pytest.approx(total, rel=1e-12)

    def test_parameter_domain(self):
        assert hyp2f1(2.0, 1.25, 3.25, np.array([0.5]))[0] == pytest.approx(
            hyp2f1(2.0, 1.25, 3.25, 0.5), rel=0
        )
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)
        # rejected by the parameter check, not by round(nan) failing
        with pytest.raises(ValueError, match="a, b and c"):
            hyp2f1(math.nan, 1.0, 2.0, 0.5)

    # measured worst relative error: 8.0e-15, at (2, 1.25, 4.25) just above z = 1/2
    @pytest.mark.parametrize("a,b,c", _bound_parameter_sets())
    def test_bound_parameter_sets_match_mpmath(self, a, b, c):
        got = hyp2f1(a, b, c, ORACLE_Z)
        assert np.max(np.abs(got / mpmath_hyp2f1(a, b, c, ORACLE_Z) - 1.0)) <= 1e-13

    # measured worst relative error: 1.2e-15
    @pytest.mark.parametrize("mu", np.linspace(0.05, 0.95, 7))
    def test_zero_balanced_family_matches_mpmath(self, mu):
        got = hyp2f1(mu, mu, 2.0 * mu, ORACLE_Z)
        assert np.max(np.abs(got / mpmath_hyp2f1(mu, mu, 2.0 * mu, ORACLE_Z) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("a,b,c", [
        (1.0, 1.25, 2.75),          # c - a - b = 1/2
        (1.0, 1.25, 2.25 + 1e-9),   # not an integer, however close
        (2.0, 1.25, 5.25),          # c - a - b = 2
        (2.0, 1.25, 2.25),          # c - a - b = -1
        (-0.5, 1.25, 0.75),         # a <= 0
    ])
    def test_other_families_rejected(self, a, b, c):
        with pytest.raises(ValueError):
            hyp2f1(a, b, c, 0.3)

    def test_ponnusamy_two_sided_bound(self):
        # zero-balanced bound: for alpha=beta=mu, x in (0,1],
        # B(mu,mu) 2F1(mu,mu;2mu;1-x) + log x in
        # (-2 psi(mu) - 2 gamma, same + x log(1/x)/(1-x))
        mus = np.linspace(0.05, 0.95, 10)
        xs = np.concatenate([np.geomspace(1e-6, 0.9, 12), [1.0 - 1e-9]])
        for mu in mus:
            base = -2.0 * psi(mu) - 2.0 * EULER_GAMMA
            for x in xs:
                val = beta_fn(mu, mu) * hyp2f1(mu, mu, 2.0 * mu, 1.0 - x) + math.log(x)
                width = x * math.log(1.0 / x) / (1.0 - x)
                assert base < val < base + width


class TestDigammaDilog:
    def test_euler_gamma(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-14)

    def test_reflection_identity(self):
        for mu in np.arange(0.1, 0.95, 0.1):
            lhs = digamma(mu) - digamma(1.0 - mu) + math.pi / math.tan(math.pi * mu)
            assert abs(lhs) < 1e-10
        # quarter-point value: psi(1/4) - psi(3/4) = -pi cot(pi/4) = -pi
        assert digamma(0.25) - digamma(0.75) == pytest.approx(-math.pi, rel=1e-14)

    def test_native_matches_scipy_and_mpmath(self):
        # the mu of the solve path with margin, and densely around the zero
        # near 1.46, where the error is bounded in absolute terms
        import mpmath as mp

        x = np.concatenate([np.geomspace(1e-3, 3.0, 300), np.linspace(1.4, 1.5, 41)])
        mine = np.array([digamma(v) for v in x])
        with mp.workdps(30):
            ref = np.array([float(mp.digamma(mp.mpf(float(v)))) for v in x])
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(mine - ref) / scale) <= 2e-15
        assert np.max(np.abs(mine - psi(x)) / scale) <= 2e-15

    def test_recurrence_oracle(self):
        # downward recurrence anchored at the asymptotic expansion
        x, big = 10.0, 40
        y = x + big
        val = math.log(y) - 1.0 / (2.0 * y)
        y2 = 1.0 / (y * y)
        term = y2
        for n, b2n in enumerate([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66], start=1):
            val -= b2n / (2 * n) * term
            term *= y2
        for j in range(big):
            val -= 1.0 / (x + big - 1 - j)
        assert digamma(10.0) == pytest.approx(val, rel=1e-13)

    def test_domain(self):
        # pole at 0, outside the domain x > 0
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                digamma(x)

    def test_trigamma_matches_mpmath(self):
        # measured worst error: 2.2e-16 * max(1, psi')
        import mpmath as mp

        x = np.linspace(0.5, 3.0, 251)
        with mp.workdps(30):
            ref = np.array([float(mp.psi(1, mp.mpf(float(v)))) for v in x])
        mine = np.array([trigamma(v) for v in x])
        assert np.max(np.abs(mine - ref) / np.maximum(1.0, ref)) <= 2e-15

    def test_trigamma_domain(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                trigamma(x)

    def test_dilog_matches_mpmath(self, monkeypatch):
        # measured worst error: 3.7e-16 * max(1, |Li2|)
        import mpmath as mp

        scanned = []

        def recording_dilog(x):
            scanned.append(np.asarray(x, dtype=float))
            return dilog(x)

        monkeypatch.setattr(bounds, "dilog", recording_dilog)
        verification.suite_prop5(seed=0, n_pairs=0)
        x = np.concatenate([
            -np.geomspace(1e-12, 1e8, 120),
            np.linspace(-1.0, 1.0, 81),
            1.0 - np.geomspace(1e-16, 0.5, 30),
            [np.nextafter(-1.0, -2.0), np.nextafter(0.5, 1.0)],
            np.concatenate(scanned)[::20],      # the auxiliary sup's scan
        ])
        with mp.workdps(30):
            ref = np.array([float(mp.polylog(2, mp.mpf(float(v)))) for v in x])
        assert np.max(np.abs(dilog(x) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-14

    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, math.pi**2 / 6.0), (0.0, 0.0), (-1.0, -math.pi**2 / 12.0)],
    )
    def test_dilog_values(self, x, expected):
        assert dilog(x) == pytest.approx(expected, abs=1e-12)

    def test_dilog_domain(self):
        with pytest.raises(ValueError):
            dilog(1.5)
        with pytest.raises(ValueError):
            dilog(np.array([0.5, math.nan]))


class TestZetaLambda:
    def test_zero_coupling(self):
        assert zeta_lambda(Coupling(0.0)) == pytest.approx(math.pi / 3.0, abs=1e-13)

    def test_brute_force_value(self):
        assert zeta_lambda(Coupling(-1.0 / 6.0)) == pytest.approx(
            ZETA_ONE_SIXTH, abs=1e-12
        )

    def test_trigamma_oracle(self):
        # the trigamma closed form against the series summed term by term
        for lam in (-0.02, -0.08, -1.0 / 6.0):
            c = Coupling(lam)
            assert zeta_lambda(c) == pytest.approx(zeta_series(c), abs=1e-12)

    def test_monotone_in_coupling(self):
        lams = np.linspace(0.0, -1.0 / 6.0, 15)
        vals = [zeta_lambda(Coupling(l)) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert zeta_lambda(Coupling(-0.05)) > math.pi / 3.0
