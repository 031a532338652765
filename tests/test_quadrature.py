import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx
from scipy import integrate
from scipy import special as sp

from conftest import bessel_sq_prefix_ref_log, bessel_sq_total_log
from dpp_repulsion import oracle, quadrature, repulsion
from dpp_repulsion.examples import example_spec
from dpp_repulsion.kernels import Family, KernelSpec
from dpp_repulsion.quadrature import (
    InfiniteMassError,
    LogIntegrand,
    QuadratureError,
    RadialCdf,
    bessel_sq_moment_log,
    bessel_sq_prefix_log,
    build_cdf,
    integrate_log_panels,
    inverse_cdf,
)
from dpp_repulsion.special import ln_bessel_k, ln_gamma

# ln of int_0^inf J_mu(y)^2 y^{-lam} dy, frozen 40-digit values
BESSEL_SQ_REFS = [
    (1.0, 1.0, -0.6931471805599453094172),
    (5.5, 2.0, -4.545927267511555549557),
    (26.0, 1.0, -3.951243718581427354888),
    (26.0, 3.0, -11.15910359001390248769),
    (50.5, 2.0, -8.988578524001872004407),
    (50.5, 3.0, -13.15182217464553983909),
    (2.0, 1.5, -1.98416238776074777776),
]


def _k15_scalar_log(g, lo, hi):
    """One panel's K15 log value and log |K15 - G7| error via 1-D np.dot."""
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    vals = g(mid + half * quadrature._KX)
    m = float(np.max(vals))
    e = np.exp(vals - m)
    k15 = float(np.dot(e, quadrature._KW))
    diff = abs(k15 - float(np.dot(e, quadrature._GW)))
    return m + math.log(k15 * half), (m + math.log(diff * half) if diff > 0 else -math.inf)


class TestK15:
    @pytest.mark.parametrize("g,edges", [
        (lambda r: 11.0 * np.log(r) - 8.0 * r * r, np.linspace(0.05, 3.0, 40)),
        (lambda y: quadrature._bessel_sq_log(26.0, y, 3.0), 40.0 + math.pi * np.arange(41)),
    ], ids=["smooth", "bessel_sq"])
    def test_matches_scalar_panel_rule(self, g, edges):
        rows = quadrature._k15_log(g, edges[:-1], edges[1:])
        assert rows.shape == (len(edges) - 1, 4)
        np.testing.assert_array_equal(rows[:, 0], edges[:-1])
        np.testing.assert_array_equal(rows[:, 1], edges[1:])
        log_val, log_err = rows[:, 2], rows[:, 3]
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            want_val, want_err = _k15_scalar_log(g, lo, hi)
            assert log_val[i] == approx(want_val, abs=1e-14)
            # |K15 - G7| cancels, so compare it relative to the panel value
            assert math.exp(log_err[i] - want_val) == approx(math.exp(want_err - want_val),
                                                             abs=1e-14)

    def test_zero_panel_and_divergence(self):
        rows = quadrature._k15_log(lambda u: np.full(u.shape, -np.inf), [0.0, 1.0], [1.0, 2.0])
        assert np.all(rows[:, 2:] == -np.inf)
        with pytest.raises(InfiniteMassError):
            quadrature._k15_log(lambda u: np.where(u > 1.5, np.inf, 0.0),
                                [0.0, 1.0], [1.0, 2.0])


class TestIntegrateLog:
    def test_unit_integrand(self):
        # int_0^inf e^{-r} dr = 1
        got = integrate_log_panels(LogIntegrand(lambda r: -r), rel_tol=1e-10).log_total
        assert got == approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (2.0, 3.0), (0.25, 7.5)])
    def test_gaussian_with_power_weight(self, a, b):
        # int_0^inf r^b e^{-a r^2} dr = (1/2) a^{-(b+1)/2} Gamma((b+1)/2)
        f = LogIntegrand(lambda r: -a * r * r + b * np.log(np.maximum(r, 1e-300)))
        want = math.log(0.5) - 0.5 * (b + 1.0) * math.log(a) + ln_gamma(0.5 * (b + 1.0))
        got = integrate_log_panels(f, rel_tol=1e-11).log_total
        assert got == approx(want, rel=1e-10, abs=1e-10)

    def test_sharply_peaked_high_dimension(self):
        n, alpha = 600, 0.3
        f = LogIntegrand(lambda r: (n - 1) * np.log(np.maximum(r, 1e-300))
                         - 2.0 * r * r / alpha**2)
        want = math.log(0.5) - 0.5 * n * math.log(2.0 / alpha**2) + ln_gamma(0.5 * n)
        assert integrate_log_panels(f, rel_tol=1e-11).log_total == approx(want, rel=1e-10)

    def test_bessel_k_weighted_closed_form(self):
        # int_0^inf r^k K_nu(r/alpha)^2 dr for k > 2 nu - 1
        nu, alpha = 1.5, 0.7
        for k in (4.0, 7.0):
            def log_f(r, k=k):
                out = np.full(r.shape, -np.inf)
                pos = r > 0
                out[pos] = k * np.log(r[pos]) + 2.0 * ln_bessel_k(nu, r[pos] / alpha)
                return out
            want = ((k - 2.0) * math.log(2.0) + (k + 1.0) * math.log(alpha)
                    - ln_gamma(k + 1.0) + ln_gamma(0.5 * (1 + k) + nu)
                    + 2.0 * ln_gamma(0.5 * (k + 1.0)) + ln_gamma(0.5 * (1 + k) - nu))
            got = integrate_log_panels(LogIntegrand(log_f), rel_tol=1e-10)
            assert got.log_total == approx(want, rel=1e-9)

    @given(st.floats(min_value=-500.0, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, shift):
        f0 = LogIntegrand(lambda r: -3.0 * (r - 1.0) ** 2)
        f1 = LogIntegrand(lambda r: -3.0 * (r - 1.0) ** 2 + shift)
        a = integrate_log_panels(f0, rel_tol=1e-10).log_total
        b = integrate_log_panels(f1, rel_tol=1e-10).log_total
        assert b - a == approx(shift, rel=1e-12, abs=1e-9)

    def test_rel_tol_domain(self):
        with pytest.raises(ValueError):
            integrate_log_panels(LogIntegrand(lambda r: -r), rel_tol=0.5)

    def test_panel_budget_stop_carries_partial(self, monkeypatch):
        # the full-domain run and a batch of prefixes refined together as
        # groups both stop at the budget with a finite partial
        f = LogIntegrand(lambda r: np.cos(40.0 * r) - r)
        ps = integrate_log_panels(f, rel_tol=1e-8)
        monkeypatch.setattr(quadrature, "MAX_PANELS", 40)
        ps.rel_tol = 1e-13
        for run in (lambda: integrate_log_panels(f, rel_tol=1e-13),
                    lambda: ps.log_prefix(np.linspace(0.05, 0.95, 7))):
            with pytest.raises(QuadratureError, match="budget") as err:
                run()
            assert math.isfinite(err.value.log_error_bound)
            assert math.isfinite(err.value.log_partial)

    def test_unsplittable_panel_stop_carries_partial(self):
        # a one-ulp panel of an integrand that is noise at every node misses
        # any tolerance, and its midpoint rounds to an edge
        rng = np.random.default_rng(0)

        def g(u):
            return rng.standard_normal(u.shape)

        lo = 0.5
        panels = quadrature._k15_log(g, [lo], [np.nextafter(lo, 1.0)])
        with pytest.raises(QuadratureError, match="cannot be halved") as err:
            quadrature._refine(g, panels, 1e-8, np.zeros(1, int), 1)
        assert math.isfinite(err.value.log_error_bound)
        assert math.isfinite(err.value.log_partial)

    def test_prefix_batches_match_one_element_calls(self, monkeypatch):
        # a budget of three prefixes' stored panels splits the refined
        # prefixes into several batches
        spec = example_spec(Family.LAGUERRE_GAUSS, n=50)
        ps = integrate_log_panels(repulsion.radial_density(spec), rel_tol=1e-8)
        r = quadrature.r_of_u(np.linspace(0.0, 1.0, 62)[1:-1])
        monkeypatch.setattr(quadrature, "MAX_PANELS", 3 * len(ps.lo))
        batches = []
        refine = quadrature._refine

        def spy(g, panels, rel_tol, group, n_groups):
            batches.append(n_groups)
            return refine(g, panels, rel_tol, group, n_groups)

        monkeypatch.setattr(quadrature, "_refine", spy)
        batched = ps.log_prefix(r)
        n_batches = len(batches)
        assert n_batches >= 3 and max(batches) == 3
        one = np.array([ps.log_prefix(x) for x in r])
        assert sum(batches[n_batches:]) == sum(batches[:n_batches])  # the same misses
        np.testing.assert_allclose(batched, one, rtol=0, atol=1e-12)

    def test_mode_at_domain_edge_stays_inside_domain(self):
        # the mode in u sits at u = 0 (r = 0), so the curvature stencil must
        # not probe u < 0, where r < 0, nor u = 1, where r = inf
        def log_f(r):
            if not np.all((r >= 0.0) & (r < math.inf)):
                raise ValueError("outside [0, inf)")
            return -5.0 * r
        got = integrate_log_panels(LogIntegrand(log_f), rel_tol=1e-10).log_total
        assert got == approx(-math.log(5.0), abs=1e-13)

    @pytest.mark.parametrize("fam", [Family.LAGUERRE_GAUSS, Family.POWER_EXPONENTIAL,
                                     Family.WHITTLE_MATERN, Family.CAUCHY],
                             ids=lambda f: f.value)
    def test_integrand_hook_sees_every_point(self, fam, monkeypatch):
        # every point the wrapped integrand g receives, in the mode scan, the
        # seeding, the panels and the prefixes, enters the radial law through
        # LogIntegrand.__call__, the hook that profilers count
        hooked, received = [], []
        call = LogIntegrand.__call__
        monkeypatch.setattr(LogIntegrand, "__call__",
                            lambda self, r: hooked.append(np.size(r)) or call(self, r))

        def spying(fn):
            def wrapper(g, *args):
                def g_spy(u):
                    received.append(np.size(u))
                    return g(u)
                return fn(g_spy, *args)
            return wrapper

        monkeypatch.setattr(quadrature, "_scan_seed", spying(quadrature._scan_seed))
        monkeypatch.setattr(quadrature, "_k15_log", spying(quadrature._k15_log))
        ps = integrate_log_panels(repulsion.radial_density(example_spec(fam, n=50)),
                                  rel_tol=repulsion.PRODUCTION_REL_TOL)
        ps.log_prefix(np.linspace(0.01, 10.0, 50))
        assert sum(received) > 0
        assert hooked == received
        # the curvature stencil and the growth test are one call of six points
        assert 6 in received and 3 not in received

    def test_moment_quadrature_hook_counts_each_point_once(self, monkeypatch):
        # the moment integrand reads the radial law through its log_f, so
        # the hook counts each point the quadrature evaluates once
        hooked, received = [], []
        call = LogIntegrand.__call__
        monkeypatch.setattr(LogIntegrand, "__call__",
                            lambda self, r: hooked.append(np.size(r)) or call(self, r))

        def spying(fn):
            def wrapper(g, *args):
                def g_spy(u):
                    received.append(np.size(u))
                    return g(u)
                return fn(g_spy, *args)
            return wrapper

        monkeypatch.setattr(quadrature, "_scan_seed", spying(quadrature._scan_seed))
        monkeypatch.setattr(quadrature, "_k15_log", spying(quadrature._k15_log))
        repulsion.radial_moment_quadrature(example_spec(Family.CAUCHY, n=10), 2)
        assert sum(received) > 0
        assert hooked == received

    @pytest.mark.parametrize("fam", [Family.LAGUERRE_GAUSS, Family.POWER_EXPONENTIAL,
                                     Family.WHITTLE_MATERN, Family.CAUCHY],
                             ids=lambda f: f.value)
    @pytest.mark.parametrize("n", [2, 10, 60, 600])
    def test_density_seeded_moment_matches_unseeded(self, fam, n):
        # r^k f(r) refined from the density's own panels meets the run that
        # seeds its panels around its own mode
        spec = example_spec(fam, n=n)
        seed = repulsion._density_panels(spec, repulsion.CHECK_REL_TOL)
        dens = repulsion.radial_density(spec)
        for k in (1, 2, 3, 4):
            f = LogIntegrand(lambda r: dens.log_f(r) + k * np.log(r))
            seeded = integrate_log_panels(f, repulsion.CHECK_REL_TOL, seed).log_total
            plain = integrate_log_panels(f, repulsion.CHECK_REL_TOL).log_total
            assert math.exp(seeded - plain) == approx(1.0, rel=1e-10), k

    @pytest.mark.parametrize("n,nu", [(2, 0.5), (4, 1.2), (6, 0.2), (3, 1.7), (3, 0.55),
                                      (8, 2.0)])
    def test_seeded_growth_test_refuses_what_the_scan_refuses(self, n, nu):
        # Cauchy moments of order k near the divergence at k = n + 4 nu
        # (n = 2, nu = 0.5, k = 4 diverges; n = 4, nu = 1.2, k = 8 is finite)
        spec = KernelSpec(Family.CAUCHY, n=n, nu=nu, alpha=0.15)
        seed = repulsion._density_panels(spec, repulsion.CHECK_REL_TOL)
        dens = repulsion.radial_density(spec)
        edge = n + 4 * nu
        outcomes = set()
        for k in range(math.floor(edge) - 2, math.ceil(edge) + 2):
            f = LogIntegrand(lambda r: dens.log_f(r) + k * np.log(r))
            finite = []
            for s in (seed, None):
                try:
                    finite.append(math.isfinite(
                        integrate_log_panels(f, repulsion.CHECK_REL_TOL, s).log_total))
                except InfiniteMassError:
                    finite.append(False)
            assert finite[0] == finite[1], k
            outcomes.add(finite[0])
        assert outcomes == {True, False}

    def test_seeded_run_probes_once(self, monkeypatch):
        # the seeded probe is one call: the first scan round and the three
        # growth-test points
        received = []
        seed_fn = quadrature._scan_seed

        def spy(g, *args):
            return seed_fn(lambda u: received.append(np.size(u)) or g(u), *args)

        spec = example_spec(Family.CAUCHY, n=10)
        repulsion._density_panels(spec, repulsion.CHECK_REL_TOL)  # the seed, built unspied
        monkeypatch.setattr(quadrature, "_scan_seed", spy)
        repulsion.radial_moment_quadrature(spec, 2)
        assert received == [quadrature.SCAN_POINTS - 1 + 3]

    def test_prefix_rejects_nan_and_negative_cuts(self):
        ps = repulsion._density_panels(example_spec(Family.CAUCHY, n=10),
                                       repulsion.PRODUCTION_REL_TOL)
        for cut in (-2.0, -1.0, math.nan, -math.inf, np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                ps.log_prefix(cut)
        assert ps.log_prefix(math.inf) == ps.log_total

    def test_prefix_matches_incomplete_gamma_deep_tail(self):
        n, alpha = 600, 0.3
        f = LogIntegrand(lambda r: (n - 1) * np.log(np.maximum(r, 1e-300))
                         - 2.0 * r * r / alpha**2)
        ps = integrate_log_panels(f, rel_tol=1e-11)
        for rq in (0.9, 2.0, 4.5):
            t = 2.0 * rq * rq / alpha**2
            want = (math.log(0.5) - 0.5 * n * math.log(2.0 / alpha**2)
                    + ln_gamma(0.5 * n) + math.log(sp.gammainc(0.5 * n, t)))
            assert ps.log_prefix(rq) == approx(want, rel=1e-9, abs=1e-8)


    def test_prefixes_leave_cached_panels_unchanged(self):
        spec = example_spec(Family.CAUCHY, n=50)
        ps = repulsion._density_panels(spec, repulsion.PRODUCTION_REL_TOL)
        before = {k: v.copy() for k, v in vars(ps).items() if isinstance(v, np.ndarray)}
        assert set(before) >= {"panels", "lo", "hi", "log_vals", "log_errs"}
        assert ps.panels.shape == (len(ps.lo), 4) and not ps.panels.flags.writeable
        for R in np.linspace(0.002, 1.5, 2000):
            repulsion.log_eta_ball_ratio(spec, float(R))
        assert repulsion._density_panels(spec, repulsion.PRODUCTION_REL_TOL) is ps
        for k, v in before.items():
            np.testing.assert_array_equal(getattr(ps, k), v)


class TestCdf:
    @staticmethod
    def gaussian_density(n=12, alpha=0.5):
        return LogIntegrand(lambda r: (n - 1) * np.log(np.maximum(r, 1e-300))
                            - 2.0 * r * r / alpha**2), n, alpha

    def test_gaussian_cdf_matches_incomplete_gamma_at_nodes(self):
        # the node-level contract; between nodes only interpolation accuracy holds
        f, n, alpha = self.gaussian_density()
        cdf = build_cdf(integrate_log_panels(f, rel_tol=1e-10))
        nodes = cdf.nodes[(cdf.nodes > 0.05) & (cdf.nodes < 2.0)]
        want = sp.gammainc(0.5 * n, 2.0 * nodes**2 / alpha**2)
        got = cdf.cdf(nodes)
        assert got == approx(want, abs=5e-10)

    def test_gaussian_cdf_interpolated_between_nodes(self):
        f, n, alpha = self.gaussian_density()
        cdf = build_cdf(integrate_log_panels(f, rel_tol=1e-10))
        rs = np.linspace(0.2, 1.2, 41)
        want = sp.gammainc(0.5 * n, 2.0 * rs**2 / alpha**2)
        assert cdf.cdf(rs) == approx(want, abs=2e-5)

    def test_total_normalizes_to_one(self):
        f, *_ = self.gaussian_density()
        cdf = build_cdf(integrate_log_panels(f, rel_tol=1e-9))
        assert cdf.cdf(np.array([cdf.nodes[-1]]))[0] == approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf.log_mass[1:]) >= 0.0)

    def test_below_support_is_zero(self):
        f = LogIntegrand(lambda r: np.where(r >= 1.0, -(r - 2.0) ** 2, -np.inf))
        cdf = build_cdf(integrate_log_panels(f, rel_tol=1e-8))
        assert cdf.cdf(0.5) == approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("log_f,rel_tol", [
        (lambda r: np.cos(30.0 * r) - 5.0 * r, 1e-10),
        (lambda r: 11.0 * np.log(np.maximum(r, 1e-300)) - 8.0 * r * r, 1e-9),
        (lambda r: -2.5 * np.log1p(r * r), 1e-8),
    ], ids=["oscillating", "gaussian", "heavy_tail"])
    def test_node_masses_match_refined_prefixes(self, log_f, rel_tol):
        # the nodes take the panel set's unrefined prefixes, each within
        # rel_tol of the total; log_prefix refines each to rel_tol of itself
        cdf = build_cdf(integrate_log_panels(LogIntegrand(log_f), rel_tol=rel_tol))
        ps = integrate_log_panels(LogIntegrand(log_f), rel_tol=rel_tol)
        assert cdf.nodes[0] == 0.0 and cdf.log_mass[0] == -np.inf
        want = np.exp(ps.log_prefix(cdf.nodes) - ps.log_total)
        got = np.exp(cdf.log_mass - cdf.log_total)
        assert np.max(np.abs(got - want)) <= rel_tol

    @given(st.sampled_from([Family.LAGUERRE_GAUSS, Family.POWER_EXPONENTIAL,
                            Family.WHITTLE_MATERN, Family.CAUCHY]),
           st.integers(min_value=2, max_value=200))
    @settings(max_examples=16, deadline=None)
    def test_levels_match_ball_ratios(self, fam, n):
        # the CDF of |X_n| at its nodes is the ball ratio at R = r / sqrt(n)
        spec = example_spec(fam, n=n)
        cdf = repulsion.radial_cdf(spec)
        want = np.exp(repulsion.log_eta_ball_ratio(spec, cdf.nodes / math.sqrt(n)))
        assert np.max(np.abs(cdf.levels() - want)) <= 3.0 * repulsion.PRODUCTION_REL_TOL

    def test_one_panel_set_per_spec(self, monkeypatch):
        # ball ratios, the CDF, sampled radii and the Monte Carlo oracle on
        # one spec read one cached PanelSet between them
        builds = []
        run = quadrature.integrate_log_panels

        def spy(*args, **kwargs):
            builds.append(1)
            return run(*args, **kwargs)

        for module in (quadrature, repulsion):
            monkeypatch.setattr(module, "integrate_log_panels", spy)
        repulsion._density_panels.cache_clear()
        spec = example_spec(Family.CAUCHY, n=10)
        repulsion.log_eta_ball_ratio(spec, np.array([0.05, 0.1, 0.2]))
        repulsion.radial_cdf(spec)
        oracle.sample_radius(spec, 1000, 1)
        oracle.mc_ball_ratio(spec, 0.1, 1000, 2)
        assert len(builds) == 1

    def test_integrand_calls_bounded(self):
        # the node masses are one evaluator call over all cut panels, not one per node
        f, *_ = self.gaussian_density()
        calls = []
        build_cdf(integrate_log_panels(LogIntegrand(lambda r: calls.append(1) or f(r)),
                                       rel_tol=1e-10))
        assert len(calls) <= 150

    def test_panels_from_few_vectorized_calls(self):
        # the mode search scans grids: no golden-section loop of single points
        f, *_ = self.gaussian_density()
        sizes = []
        integrate_log_panels(LogIntegrand(lambda r: sizes.append(np.size(r)) or f(r)),
                             rel_tol=1e-10)
        assert len(sizes) <= 12
        assert min(sizes) > 1

    @pytest.mark.parametrize("fam", [Family.LAGUERRE_GAUSS, Family.POWER_EXPONENTIAL,
                                     Family.WHITTLE_MATERN, Family.CAUCHY],
                             ids=lambda f: f.value)
    def test_cdf_from_few_vectorized_calls(self, fam):
        # each side's band edge and cut come from one scan: no bisection of single points
        f = repulsion.radial_density(example_spec(fam, n=50))
        sizes = []
        spy = LogIntegrand(lambda r: sizes.append(np.size(r)) or f(r))
        build_cdf(integrate_log_panels(spy, rel_tol=repulsion.PRODUCTION_REL_TOL))
        assert len(sizes) <= 15
        assert min(sizes) > 1

    def test_unconverged_nodes_raise(self):
        # node masses whose error misses rel_tol of the total raise with the
        # partial and the bound; the noise starts once the panels are built
        rng = np.random.default_rng(0)
        noisy = []
        f = LogIntegrand(lambda r: -r + (1e-3 * rng.standard_normal(np.shape(r))
                                         if noisy else 0.0))
        ps = integrate_log_panels(f, rel_tol=1e-8)
        noisy.append(1)
        with pytest.raises(QuadratureError) as err:
            build_cdf(ps)
        assert math.isfinite(err.value.log_partial)
        assert math.isfinite(err.value.log_error_bound)

    def test_infinite_mass_detected(self):
        f = LogIntegrand(lambda r: np.zeros_like(r))
        with pytest.raises(InfiniteMassError):
            build_cdf(integrate_log_panels(f, rel_tol=1e-8))

    @pytest.mark.parametrize("make_cdf", [
        lambda: build_cdf(integrate_log_panels(TestCdf.gaussian_density()[0], rel_tol=1e-9)),
        lambda: repulsion.radial_cdf(example_spec(Family.CAUCHY, n=400)),
    ], ids=["gaussian", "cauchy_n400"])
    def test_inverse_cdf_endpoints(self, make_cdf):
        # u = 0 gives the last node at level 0; u = 1 the first node at
        # level 1, which ends the grid
        cdf = make_cdf()
        levels = cdf.levels()
        assert inverse_cdf(cdf, 0.0) == cdf.nodes[levels == 0.0][-1]
        assert inverse_cdf(cdf, 1.0) == cdf.nodes[-1]
        assert levels[-2] < levels[-1] == 1.0
        with pytest.raises(ValueError):
            inverse_cdf(cdf, 1.5)

    def test_inverse_cdf_rejects_nan_draws(self):
        cdf = repulsion.radial_cdf(example_spec(Family.CAUCHY, n=10))
        for u in (math.nan, np.array([0.25, math.nan])):
            with pytest.raises(ValueError):
                inverse_cdf(cdf, u)

    def test_inverse_cdf_median_matches_gammaincinv(self):
        f, n, alpha = self.gaussian_density()
        cdf = build_cdf(integrate_log_panels(f, rel_tol=1e-10))
        want = math.sqrt(float(sp.gammaincinv(0.5 * n, 0.5)) * alpha**2 / 2.0)
        assert inverse_cdf(cdf, 0.5) == approx(want, rel=1e-6)

    @pytest.mark.parametrize("make_cdf", [
        lambda: TestCdf._CDF_CACHE,
        lambda: repulsion.radial_cdf(example_spec(Family.CAUCHY, n=400)),
    ], ids=["gaussian", "cauchy_n400"])
    def test_inverse_cdf_matches_interp_on_unsorted_draws(self, make_cdf):
        # the draws are interpolated in sorted order and put back: the radii
        # are those of one np.interp call on the draws as given
        cdf = make_cdf()
        u = np.random.default_rng(5).random(2001)
        u[[3, 700, 1500]] = 0.0, 1.0, 0.5
        u[1000:1010] = u[17]  # repeated draws
        u[1800:1805] = 0.0
        want = np.interp(u, cdf.levels(), cdf.nodes)
        got = inverse_cdf(cdf, u)
        assert got.tobytes() == want.tobytes()
        grid = u[:2000].reshape(40, 50)
        assert inverse_cdf(cdf, grid).tobytes() == want[:2000].reshape(40, 50).tobytes()
        for x in (0.0, 1.0, u[17]):
            got_one = inverse_cdf(cdf, x)
            assert isinstance(got_one, float)
            assert got_one == float(np.interp(x, cdf.levels(), cdf.nodes))

    @pytest.mark.parametrize("make_cdf", [
        lambda: TestCdf._CDF_CACHE,
        lambda: repulsion.radial_cdf(example_spec(Family.WHITTLE_MATERN, n=3)),
        # levels 0, 0, 0, 1/4, 1/4, 3/4, 1: a level-0 plateau and a flat step
        lambda: RadialCdf(np.array([0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0]),
                          np.array([-np.inf, -1000.0, -np.inf, math.log(0.25), math.log(0.25),
                                    math.log(0.75), 0.0]), 0.0),
    ], ids=["gaussian", "whittle_n3", "plateaus"])
    def test_inverse_cdf_bucket_edges_match_interp(self, make_cdf):
        # the draws are ordered by the bucket floor(u 2^15), not by value: at
        # 0 and 1, at the node levels, on the level-0 plateau and at every
        # bucket edge k / 2^15 and its neighbouring doubles, shuffled, the
        # radii are those of one np.interp call on the draws as given
        cdf = make_cdf()
        levels = cdf.levels()
        edges = np.arange((1 << 15) + 1) / 2.0**15
        u = np.concatenate([[0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)], levels, edges,
                            *(np.nextafter(x, t) for x in (levels, edges) for t in (0.0, 1.0)),
                            np.random.default_rng(25).random(5000)])
        u = np.random.default_rng(26).permutation(u)
        want = np.interp(u, levels, cdf.nodes)
        assert inverse_cdf(cdf, u).tobytes() == want.tobytes()

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_within_grid_cell(self, frac):
        # r inside the grid's coverage (mass outside the grid is ~e^-700 of total)
        cdf = TestCdf._CDF_CACHE
        r = cdf.nodes[0] + frac * (1.5 - cdf.nodes[0])
        u = float(cdf.cdf(np.array([r]))[0])
        r_back = float(inverse_cdf(cdf, u))
        idx = np.searchsorted(cdf.nodes, r)
        cell = cdf.nodes[min(idx + 1, len(cdf.nodes) - 1)] - cdf.nodes[max(idx - 1, 0)]
        assert abs(r_back - r) <= max(cell, 1e-9)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_inverse_monotone(self, us):
        cdf = TestCdf._CDF_CACHE
        us = sorted(us)
        rs = inverse_cdf(cdf, np.array(us))
        assert np.all(np.diff(rs) >= -1e-15)


TestCdf._CDF_CACHE = build_cdf(integrate_log_panels(TestCdf.gaussian_density()[0],
                                                     rel_tol=1e-10))


class TestBesselSquared:
    @pytest.mark.parametrize("mu,lam,ref", BESSEL_SQ_REFS)
    def test_full_integral_against_frozen_closed_form(self, mu, lam, ref):
        got = bessel_sq_moment_log(mu, lam)
        assert got == approx(ref, abs=5e-9)

    @pytest.mark.parametrize("mu,lam", [(100.0, 150.0), (60.0, 100.0)])
    def test_closed_form_at_large_lam_matches_quadrature(self, mu, lam):
        # Y^{-lam} underflows here, so a tail built on it took log(0)
        want = bessel_sq_total_log(mu, lam)
        assert abs(bessel_sq_moment_log(mu, lam) - want) <= 1e-8 * max(abs(want), 1.0)

    @given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=0.02, max_value=0.9),
           st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_total_bounds_every_prefix(self, mu, frac, ts):
        lam = frac * (2.0 * mu + 1.0)
        total = bessel_sq_moment_log(mu, lam)
        assert math.isfinite(total)
        for t in ts:
            assert bessel_sq_prefix_log(mu, lam, t * mu) <= total + 1e-9

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            bessel_sq_moment_log(2.0, 0.0)
        with pytest.raises(ValueError):
            bessel_sq_moment_log(2.0, 6.0)

    @pytest.mark.parametrize("mu,lam", [(1.0, 3.5), (1.0, 3.0), (20.5, 45.0)])
    def test_divergent_prefix_rejected(self, mu, lam):
        # lam >= 2 mu + 1: the integrand is at least 1/y at y = 0
        for y_hi in (1e-3, 2.0, 1e3, math.inf):
            with pytest.raises(ValueError, match="diverges"):
                bessel_sq_prefix_log(mu, lam, y_hi)
        assert bessel_sq_prefix_log(mu, lam, 0.0) == -math.inf  # the empty integral

    def test_prefix_grows_to_total(self):
        mu, lam = 10.0, 2.0
        total = bessel_sq_moment_log(mu, lam)
        prefixes = [bessel_sq_prefix_log(mu, lam, y) for y in (5.0, 20.0, 200.0, 4000.0)]
        assert all(a <= b + 1e-12 for a, b in zip(prefixes, prefixes[1:]))
        assert prefixes[-1] <= total + 1e-9
        assert prefixes[-1] == approx(total, abs=2e-3)  # slow algebraic tail

    @given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=0.02, max_value=0.9),
           st.integers(min_value=0, max_value=60),
           st.lists(st.floats(min_value=-3.5, max_value=3.5), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_prefix_monotone_across_t0_and_panel_edges(self, mu, frac, k, offsets):
        lam = frac * (2.0 * mu + 1.0)
        t0 = mu + 4.0 * mu ** (1.0 / 3.0) + 6.0
        anchors = (t0, t0 + k * math.pi)
        ys = sorted({a + o for a in anchors for o in [*offsets, -1e-9, 0.0, 1e-9]})
        vals = [bessel_sq_prefix_log(mu, lam, y) for y in ys if y > 0]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (10.0, 2.0), (50.5, 3.0)])
    def test_prefix_reaches_total(self, mu, lam):
        total = bessel_sq_moment_log(mu, lam)
        assert bessel_sq_prefix_log(mu, lam, math.inf) == total
        y = 1e4  # the tail past y is y^{-lam} / (lam pi) up to O(1/y) corrections
        want = math.log(math.exp(total) - y ** -lam / (lam * math.pi))
        got = bessel_sq_prefix_log(mu, lam, y)
        assert got < total
        assert got == approx(want, abs=1e-7)

    def test_prefix_with_mode_at_origin(self):
        # lam = 2 mu: the integrand is largest at y = 0
        want, _ = integrate.quad(lambda y: (sp.jv(1.0, y) / y) ** 2 if y > 0 else 0.25,
                                 0.0, 3.0, epsabs=0.0, epsrel=1e-12)
        assert bessel_sq_prefix_log(1.0, 2.0, 3.0) == approx(math.log(want), abs=1e-9)

    @staticmethod
    def _bessel_curve_grid(spec, points=50):
        mu, lam, s = repulsion._bessel_y_scale(spec)
        t0 = mu + 4.0 * mu ** (1.0 / 3.0) + 6.0
        # y = sqrt(n) R / s from deep below the turning point to five times it
        return [float(y) * s / math.sqrt(spec.n) for y in np.linspace(0.3, 5.0 * t0, points)]

    @pytest.mark.parametrize("fam", [Family.BESSEL_TYPE, Family.INDICATOR_SPECTRAL],
                             ids=lambda f: f.value)
    def test_curve_matches_independent_reference(self, fam):
        spec = example_spec(fam, n=10)
        mu, lam, s = repulsion._bessel_y_scale(spec)
        total = bessel_sq_moment_log(mu, lam)
        curve = repulsion.build_eta_report(spec, self._bessel_curve_grid(spec)).ratio_curve
        for R, ratio in curve:
            want = bessel_sq_prefix_ref_log(mu, lam, math.sqrt(spec.n) * R / s) - total
            assert math.log(ratio) == approx(want, abs=1e-9)

    @pytest.mark.parametrize("mu,lam", [(60.0, 100.0), (100.0, 150.0)])
    def test_series_at_large_y_meets_closed_form(self, mu, lam):
        # the tail past y = 1e4 is y^{-lam} / (lam pi), far below rounding
        assert bessel_sq_prefix_log(mu, lam, 1e4) == approx(bessel_sq_moment_log(mu, lam),
                                                             abs=1e-10)

    @pytest.mark.parametrize("y", [0.5, 2.0, 10.0])
    def test_prefix_with_integrable_singularity(self, y):
        # 2 mu - lam = -0.9: the integrand is y^{-0.9} at y = 0
        want, _ = integrate.quad(lambda t: sp.jv(1.5, t) ** 2 * t ** -3.9, 0.0, y,
                                 epsabs=0.0, epsrel=1e-13, limit=200)
        assert bessel_sq_prefix_log(1.5, 3.9, y) == approx(math.log(want), abs=1e-10)


# a cut as a multiple of mu (the turning point), or one of the special cuts
_CUT_FACTORS = st.one_of(st.sampled_from([0.0, 1e-9, 1.0, math.inf, -1.0]),
                         st.floats(min_value=1e-6, max_value=3.0))


def _cuts(mu, factors):
    """Unsorted cuts with a duplicate; the specials 0, 1e-9 and inf are absolute."""
    cuts = [f if f in (0.0, 1e-9, math.inf) else f * mu for f in factors]
    return np.array(cuts + cuts[:1])


class TestBesselPrefixArray:
    """bessel_sq_prefix_log on an array of cuts: one lane per cut."""

    @given(st.floats(min_value=0.5, max_value=300.0), st.floats(min_value=0.02, max_value=0.98),
           st.lists(_CUT_FACTORS, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_each_lane_matches_its_one_cut_call(self, mu, frac, factors):
        lam = frac * (2.0 * mu + 1.0)
        cuts = _cuts(mu, factors)
        got = bessel_sq_prefix_log(mu, lam, cuts)
        assert got.shape == cuts.shape
        for y, v in zip(cuts, got):
            one = bessel_sq_prefix_log(mu, lam, float(y))
            assert isinstance(one, float)
            assert v == one or abs(v - one) <= 1e-12
        order = np.argsort(cuts, kind="stable")
        vals = got[order]
        assert all(b >= a - 1e-12 * max(1.0, abs(a)) for a, b in zip(vals, vals[1:]))

    @given(st.floats(min_value=0.5, max_value=100.0), st.floats(min_value=-0.9, max_value=0.9),
           st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=4, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_shape_follows_the_input(self, mu, frac, factors):
        # lam from -0.9 up: signed weights below lam = 0, no total needed
        lam = frac * (2.0 * mu + 1.0) if frac > 0 else frac
        cuts = np.array(factors).reshape(2, 2) * mu
        got = bessel_sq_prefix_log(mu, lam, cuts)
        assert got.shape == (2, 2)
        assert np.array_equal(got.ravel(), bessel_sq_prefix_log(mu, lam, cuts.ravel()))
        assert bessel_sq_prefix_log(mu, lam, cuts[:0]).shape == (0, 2)

    @pytest.mark.parametrize("mu, lam", [(1.0, 0.0), (0.5, -0.9), (30.0, 40.0)])
    def test_subnormal_cut_follows_the_first_term(self, mu, lam):
        # the prefix grows like y^(2 mu + 1 - lam) near 0, down to the least subnormal
        lo, hi = bessel_sq_prefix_log(mu, lam, np.array([5e-324, 1e-300]))
        assert math.isfinite(lo)
        assert hi - lo == pytest.approx((2.0 * mu + 1.0 - lam) * (math.log(1e-300) - math.log(5e-324)),
                                        rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=100.0),
           st.lists(_CUT_FACTORS, min_size=1, max_size=6), st.integers(min_value=0, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_nan_anywhere_raises(self, mu, factors, at):
        cuts = list(_cuts(mu, factors))
        cuts.insert(at % (len(cuts) + 1), math.nan)
        with pytest.raises(ValueError, match="NaN"):
            bessel_sq_prefix_log(mu, mu, np.array(cuts))

    @given(st.floats(min_value=0.5, max_value=100.0), st.floats(min_value=0.0, max_value=5.0),
           st.lists(_CUT_FACTORS, min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_divergent_lam_raises_for_any_non_empty_cut(self, mu, over, factors):
        lam = 2.0 * mu + 1.0 + over
        cuts = _cuts(mu, factors)
        if (cuts > 0).any():
            with pytest.raises(ValueError, match="diverges"):
                bessel_sq_prefix_log(mu, lam, cuts)
        else:
            assert np.all(bessel_sq_prefix_log(mu, lam, cuts) == -math.inf)

    @pytest.mark.parametrize("mu,lam,y,want", [
        # frozen 30-digit mpmath quadrature on 40 equal panels of [0, y]
        (1001.8028421082009, 1776.040165375396, 1001.8028421082009, -11947.214055312523),
        (1928.770549656915, 3808.54109931383, 1466.339333931584, -27746.142648724715),
        (1928.77, 3808.54, 1466.34, -27746.133577687236),
    ])
    def test_lam_near_two_mu_matches_mpmath(self, mu, lam, y, want):
        # the weights outgrow J^2 for many orders past the turning point here;
        # a series cut 12 y^{1/3} + 40 orders past it was off by 76 in the log
        assert bessel_sq_prefix_log(mu, lam, y) == approx(want, rel=1e-14)

    def test_reference_refuses_where_jv_underflows(self):
        # jv(mu, y) underflows below y = 1072 here, and the bound on the mass
        # hidden there exceeds the prefix itself (-27746.13 above)
        with pytest.raises(FloatingPointError, match="underflows"):
            bessel_sq_prefix_ref_log(1928.77, 3808.54, 1466.34)

    def test_large_mu_curve_is_bounded_in_memory(self):
        # mu = 50002.5: every cut runs about 5e4 orders below mu; the blocks
        # keep the sweep's memory independent of mu, and the large cuts need
        # hundreds of series terms (the series cut at 12 y^{1/3} + 40 orders
        # past the turning point fell to -342 at R = 1)
        spec = KernelSpec(Family.BESSEL_TYPE, n=5, sigma=1e5, alpha=0.1)
        R = np.linspace(0.05, 1.0, 50)
        t0 = time.process_time()
        curve = repulsion.log_eta_ball_ratio(spec, R)
        assert time.process_time() - t0 < 10.0  # about 0.25 s
        tracemalloc.start()
        try:
            repulsion.log_eta_ball_ratio(spec, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6  # about 0.55 MB
        # the prefix and the total are logs near -1.05e6, spaced 2.3e-10 apart
        assert np.all(np.diff(curve) >= -1e-9)
        assert curve[-1] == approx(0.0, abs=1e-9)
        for i in (0, 17, 49):
            assert curve[i] == approx(repulsion.log_eta_ball_ratio(spec, R[i]), abs=1e-12)
