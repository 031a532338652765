import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import special as sp

from dpp_repulsion.special import (
    LN_GAMMA_MAX_ARG,
    _FMT_CHUNK,
    _fixed_digits,
    _fmt,
    _fmt_join,
    laguerre,
    ln_ball_volume,
    ln_bessel_j_ratio,
    ln_bessel_k,
    ln_gamma,
    ln_gamma_ratio,
)

# reference values: 40-digit evaluations, frozen
LN_GAMMA_100_5 = 361.4355404677776215552519
LN_GAMMA_1E_3 = 6.907178885383853682512345
LN_GAMMA_1E6 = 12815504.56914761165997697
J1_OF_1 = 0.4400505857449335159596822
J0_OF_10 = -0.2459357644513483351977609
J100_OF_120 = 0.07573717913001070144717447
J1000_OF_1100 = -0.03263155660887654418850701
J2_5_OF_9999 = -0.005073645985216075964626321
LN_K0_OF_700 = -703.0499272589439122322491
LN_K3_5_OF_2 = 0.1435816425386026985700815
LN_BALL_100 = -91.24127265930302336036583


class TestLnGamma:
    def test_factorial_identity(self):
        assert ln_gamma(5.0) == approx(math.log(24.0), rel=1e-14)

    def test_half_integer(self):
        assert ln_gamma(0.5) == approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    @pytest.mark.parametrize("x,ref", [
        (100.5, LN_GAMMA_100_5), (1e-3, LN_GAMMA_1E_3), (1e6, LN_GAMMA_1E6),
    ])
    def test_frozen_references(self, x, ref):
        assert ln_gamma(x) == approx(ref, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, -math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            ln_gamma(x)

    def test_matches_scipy_gammaln(self):
        # the log-gamma is math.lgamma; scipy's gammaln is the oracle
        x = np.concatenate([np.geomspace(1e-3, 1e4, 4001), np.arange(1, 41) * 0.5])
        ref = sp.gammaln(x)
        got = np.array([ln_gamma(v) for v in x])
        assert np.all(np.abs(got - ref) <= 2e-15 * np.maximum(1.0, np.abs(ref)))

    def test_overflow_is_inf(self):
        assert ln_gamma(1e306) == math.inf and ln_gamma(math.inf) == math.inf

    @given(st.floats(min_value=1e-3, max_value=1e5))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, x):
        assert ln_gamma(x + 1.0) == approx(ln_gamma(x) + math.log(x), rel=1e-11, abs=1e-11)


class TestLnGammaRatio:
    @pytest.mark.parametrize("x,h", [
        (x, h) for x in (0.5, 20.0, 99.9, 100.0, 150.0, 1e3, 1e5, 1e12, 1e20, 1e100, 2e305,
                         1e307, 1e308)
        for h in (-40.0, -3.0, 0.5, 2.5, 500.0) if x + h > 0])
    def test_matches_mpmath(self, x, h):
        # direct differences below 100, Stirling's series for the difference above
        with mpmath.workdps(400):
            want = float(mpmath.loggamma(mpmath.mpf(x) + h) - mpmath.loggamma(x))
        assert ln_gamma_ratio(x, h) == approx(want, rel=3e-14, abs=3e-14)

    def test_overflow_threshold(self):
        assert math.isfinite(ln_gamma(LN_GAMMA_MAX_ARG))
        assert ln_gamma(math.nextafter(LN_GAMMA_MAX_ARG, math.inf)) == math.inf


def laguerre_defining_sum(m, beta, x):
    """The alternating defining sum in exact rational arithmetic; oracle only.

    Float evaluation of this sum cancels catastrophically for large beta,
    which is why the implementation under test uses the recurrence instead.
    """
    from fractions import Fraction

    beta, x = Fraction(beta), Fraction(x)
    total = Fraction(0)
    for k in range(m + 1):
        binom = Fraction(1)
        for i in range(1, m - k + 1):  # C(m + beta, m - k) as a rising product
            binom *= (beta + k + i)
            binom /= i
        total += binom * (-x) ** k / math.factorial(k)
    return float(total)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 3.7, 12.0) == 1.0

    def test_degree_one(self):
        n = 40
        assert laguerre(1, n / 2, 3.25) == approx(1 + n / 2 - 3.25, rel=1e-14)

    def test_m2_beta0(self):
        # (x^2 - 4x + 2)/2 at x = 3
        assert laguerre(2, 0.0, 3.0) == approx(-0.5, rel=1e-13)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 5.0, 50.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 10])
    def test_recurrence_matches_defining_sum(self, m, beta, x_grid=(0.0, 0.3, 1.0, 7.5, 31.0, 100.0)):
        for x in x_grid:
            want = laguerre_defining_sum(m, beta, x)
            got = laguerre(m, beta, x)
            assert got == approx(want, rel=1e-12, abs=1e-12)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, 2.0])
        assert laguerre(2, 1.0, x) == approx([laguerre(2, 1.0, float(v)) for v in x])

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)


def _jv_via_ratio(order, x):
    """J_order(x) for x > 0, rebuilt from ln_bessel_j_ratio's log |J / x^order| and sign."""
    log_mag, sign = ln_bessel_j_ratio(order, np.array([x]))
    return float(sign[0] * math.exp(log_mag[0] + order * math.log(x)))


class TestBesselJ:
    def test_at_zero(self):
        log_mag, sign = ln_bessel_j_ratio(0.0, np.array([0.0]))
        assert log_mag[0] == 0.0 and sign[0] == 1

    def test_half_order_zero_of_sin(self):
        assert _jv_via_ratio(0.5, math.pi) == approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("order,x,ref", [
        (1.0, 1.0, J1_OF_1),
        (0.0, 10.0, J0_OF_10),
        (100.0, 120.0, J100_OF_120),
        (1000.0, 1100.0, J1000_OF_1100),
        (2.5, 9999.0, J2_5_OF_9999),
    ])
    def test_frozen_references(self, order, x, ref):
        assert _jv_via_ratio(order, x) == approx(ref, rel=1e-10)

    @pytest.mark.parametrize("order,x", [(-1.0, 1.0), (1.0, -1.0), (2.5, math.nan)])
    def test_domain(self, order, x):
        with pytest.raises(ValueError):
            ln_bessel_j_ratio(order, np.array([x, 1.0]))

    def test_half_order_identity_on_grid(self):
        for x in np.geomspace(0.1, 100.0, 50):
            want = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert _jv_via_ratio(0.5, float(x)) == approx(want, rel=1e-10, abs=1e-12)


class TestBesselJRatio:
    def test_matches_bessel_j_mid_range(self):
        for mu in (0.5, 3.0, 26.0, 101.5):
            for y in (0.5, 2.0, 10.0, 80.0, 400.0):
                logmag, sign = ln_bessel_j_ratio(mu, np.array([y]))
                want = sp.jv(mu, y) / y**mu
                if want != 0.0:
                    got = sign[0] * math.exp(float(logmag[0]))
                    assert got == approx(want, rel=1e-9)

    def test_limit_at_zero(self):
        mu = 250.0
        logmag, sign = ln_bessel_j_ratio(mu, np.array([0.0]))
        assert sign[0] == 1
        assert float(logmag[0]) == approx(-mu * math.log(2.0) - ln_gamma(mu + 1.0), rel=1e-13)

    def test_underflow_zone_finite(self):
        # direct jv underflows here; the series branch must stay finite
        logmag, sign = ln_bessel_j_ratio(300.0, np.array([1.0, 5.0, 20.0]))
        assert np.all(np.isfinite(logmag))
        assert np.all(sign == 1)


class TestBesselK:
    def test_half_order_closed_form(self):
        want = math.log(math.sqrt(math.pi / 2.0)) - 1.0
        assert ln_bessel_k(0.5, 1.0)[0] == approx(want, rel=1e-12)

    @pytest.mark.parametrize("order,x,ref", [
        (0.0, 700.0, LN_K0_OF_700), (3.5, 2.0, LN_K3_5_OF_2),
    ])
    def test_frozen_references(self, order, x, ref):
        assert ln_bessel_k(order, x)[0] == approx(ref, rel=1e-10, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=1e-3, max_value=300.0))
    @settings(max_examples=100, deadline=None)
    def test_always_finite(self, order, x):
        assert np.isfinite(ln_bessel_k(order, x)[0])

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_bessel_k(1.0, 0.0)

    # every x <= 0 or NaN raises, also beside valid values and at an order
    # where kve overflows at small x
    @pytest.mark.parametrize("order", [0.0, 1.0, 40.0])
    @pytest.mark.parametrize("x", [-0.0, -1.0, math.nan, -math.inf, [1.0, -2.0],
                                   [1e-300, math.nan]])
    def test_domain_below_zero_and_nan(self, order, x):
        with pytest.raises(ValueError):
            ln_bessel_k(order, x)

    @pytest.mark.parametrize("order", [0.0, 1.0, 4.5])
    def test_log_convex_in_x(self, order):
        logk = ln_bessel_k(order, np.linspace(0.2, 30.0, 200))
        second = logk[2:] - 2.0 * logk[1:-1] + logk[:-2]
        assert np.all(second >= -1e-12)

    # every regime: kve finite, kve NaN (x past ~1e9), kve overflowing (tiny x,
    # large order) and below x ~ 3e-308, where kve overflows at every order
    # (scipy's kve is NaN at subnormal orders such as 1e-310)
    @pytest.mark.parametrize("order", [0.0, 1e-310, 1e-4, 0.01, 0.3, 0.5, 1.0, 1.5, 3.7,
                                       20.0, 100.0, 100.5, 200.0, 731.3, 1000.0])
    def test_against_mpmath(self, order):
        import mpmath as mp

        xs = np.concatenate([np.geomspace(1e-320, 50.0, 60), [3e7, 1e10, 1e14]])
        with mp.workdps(40):
            want = np.array([float(mp.log(mp.besselk(order, mp.mpf(float(x))))) for x in xs])
        got = ln_bessel_k(order, xs)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


class TestBallVolume:
    def test_dim2(self):
        assert ln_ball_volume(2, 1.0) == approx(math.log(math.pi), rel=1e-14)

    def test_dim3(self):
        assert ln_ball_volume(3, 2.0) == approx(math.log(32.0 * math.pi / 3.0), rel=1e-14)

    def test_dim100_frozen(self):
        assert ln_ball_volume(100, 1.0) == approx(LN_BALL_100, rel=1e-13)

    @given(st.integers(min_value=1, max_value=900),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_doubling_identity(self, n, r):
        got = ln_ball_volume(n, 2.0 * r) - ln_ball_volume(n, r)
        assert got == approx(n * math.log(2.0), rel=1e-13)


def _per_value(x, sep="\n"):
    return sep.join(_fmt(v) for v in np.asarray(x, dtype=float)).encode()


class TestFmtJoin:
    """The array renderer against _fmt, value by value."""

    def test_seeded_sweep_over_every_decade(self):
        # 1e6 doubles, log-uniform from 1e-6 to 1e18, full 53-bit mantissas
        rng = np.random.default_rng(2024)
        x = 10.0 ** rng.uniform(-6.0, 18.0, 1_000_000)
        x *= 1.0 + rng.uniform(0.0, 1e-3, x.size)
        assert _fmt_join(x) == _per_value(x)

    def test_powers_of_ten_and_neighbours(self):
        tens = np.array([10.0**e for e in range(-8, 20)] + [float(f"1e{e}") for e in range(-8, 20)])
        near = [tens]
        for toward in (0.0, np.inf):
            step = tens
            for _ in range(3):  # 1, 2 and 3 ulps away
                step = np.nextafter(step, toward)
                near.append(step)
        x = np.concatenate(near)
        assert _fmt_join(x) == _per_value(x)

    def test_exact_ties_go_to_fmt(self):
        # x = M / 2^(p+1), M odd: x * 10^p = M 5^p / 2 is an odd multiple of
        # 1/2, with 17 digits before the point; %.17g breaks the tie to even
        rng = np.random.default_rng(7)
        ties = []
        for p in range(1, 21):
            lo, hi = -(-2 * 10**16 // 5**p), min(2 * 10**17 // 5**p, 2**53)
            for m in rng.integers(lo, hi, 20):
                m = int(m) | 1
                if lo <= m < hi:
                    x = m / 2 ** (p + 1)
                    assert (Fraction(x) * 10**p * 2).denominator == 1
                    ties.append(x)
        ties = np.array(ties)
        assert len(ties) > 300
        assert len(_fixed_digits(ties)[0]) == 0
        assert _fmt_join(ties) == _per_value(ties)

    def test_trailing_zeros_at_every_exponent_in_one_chunk(self):
        # values whose 17 digits end in exactly z zeros, 1 <= z <= 16, at each
        # decimal exponent e: an integer from e + z >= 16 on, else c / 2^q with
        # c odd and q = 16 - z - e, whose digits are c 5^q (ending in 5) and z
        # zeros; at e = 16 there is no fraction to trim.  Shuffled into one
        # chunk with values whose digits end in no zero.
        rng = np.random.default_rng(17)
        x, want = [], []
        for e in range(-4, 17):
            for z in range(1, 17):
                q = 16 - z - e
                for _ in range(3):
                    if q <= 0:
                        while True:  # d ends in no zero, and d 10^-q is a double
                            d = int(rng.integers(10 ** (16 - z), 10 ** (17 - z)))
                            if d % 10 and float(d * 10**-q) == d * 10**-q:
                                break
                        x.append(float(d * 10**-q))
                    else:  # odd c in [2^q 10^e, 2^q 10^(e+1)), if there is one
                        lo, hi = (-(-(2**q) * 10**max(j, 0) // 10**max(-j, 0))
                                  for j in (e, e + 1))
                        c = int(rng.integers(lo, max(hi, lo + 1))) | 1
                        if c >= hi:
                            c -= 2
                        if c < lo:
                            continue
                        x.append(c / 2**q)
                    want.append((e, z))
        where, digits, k = _fixed_digits(np.array(x))
        assert len(where) == len(x)
        got = [(int(kk), len(str(d)) - len(str(d).rstrip("0"))) for d, kk in zip(digits, k)]
        assert got == want
        assert {e for e, _ in want} == set(range(-4, 17))
        assert {z for e, z in want if e == 16} == {z for _, z in want} == set(range(1, 17))
        x = rng.permutation(np.concatenate([x, 10.0 ** rng.uniform(-4.0, 17.0, 2000)]))
        assert len(x) <= _FMT_CHUNK
        assert _fmt_join(x) == _per_value(x)

    def test_zero_subnormals_negatives_and_non_finite(self):
        x = np.array([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308, -5e-324, -1e-5,
                      -0.5, -1.0 / 3.0, -123456.0, -1e16, -1.7976931348623157e308,
                      9.9999999999999991e-05, 1e-4, 99999999999999984.0, 1e17,
                      np.inf, -np.inf, np.nan])
        assert _fmt_join(x) == _per_value(x)

    def test_separator_across_chunks(self):
        x = np.random.default_rng(3).uniform(0.0, 3.0, 2 * _FMT_CHUNK + 3)
        assert _fmt_join(x, ",\n    ") == _per_value(x, ",\n    ")

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(min_value=1e-4, max_value=1e17)), max_size=40),
           st.sampled_from(["\n", ",\n    ", ","]))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_array(self, values, sep):
        assert _fmt_join(np.array(values, dtype=float), sep) == _per_value(values, sep)
