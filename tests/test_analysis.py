"""Curvature diagnostics, inflection location, and Bayes-minimizer checks."""

import math
import re

import numpy as np
import pytest

from ttlr import analysis
from ttlr.analysis import (
    bayes_binary_check,
    bayes_multiclass_check,
    curvature_report,
    find_inflection,
    inflection_residual,
    is_convex_pair,
    loss_first_derivative,
    loss_second_derivative,
    margin_derivatives,
    margin_losses,
)
from ttlr.loss import TemperaturePair, batch_losses
from ttlr.tempered import log_t


def test_convex_pair_truth_table():
    assert is_convex_pair(TemperaturePair(1.0, 1.0))
    assert is_convex_pair(TemperaturePair(1.3, 1.0))
    assert is_convex_pair(TemperaturePair(1.3, 1.3))
    assert not is_convex_pair(TemperaturePair(0.6, 1.6))
    assert not is_convex_pair(TemperaturePair(1.0, 1.6))
    assert not is_convex_pair(TemperaturePair(0.9, 0.9))
    assert not is_convex_pair(TemperaturePair(1.2, 1.5))


def test_logistic_second_derivative_oracle():
    # sigmoid variance at the origin
    tp = TemperaturePair(1.0, 1.0)
    assert loss_second_derivative(np.array([0.0]), tp)[0] == pytest.approx(
        0.25, abs=1e-12
    )


def test_equal_temperature_loss_curvature_equals_partition_curvature():
    # at t1 = t2 the importance factor is 1 and the loss is a - G up to sign,
    # so both second derivatives coincide
    grid = np.linspace(-8.0, 8.0, 41)
    for t in (1.0, 1.3):
        tp = TemperaturePair(t, t)
        d2_loss = loss_second_derivative(grid, tp)
        _, _, d2_g = margin_derivatives(grid, t)
        assert np.allclose(d2_loss, d2_g, atol=1e-12)


def test_derivatives_match_finite_differences():
    # first derivative against loss differences, second against first-
    # derivative differences; probes stay off plateau boundaries
    h = 1e-5
    probes = {
        (1.0, 1.0): (-4.0, -0.5, 1.2),
        (0.6, 1.6): (-6.0, -0.527, 2.0),
        (1.0, 1.6): (-3.0, 0.4, 5.0),
        (0.8, 0.6): (-1.0, 0.2, 1.5),
    }
    for temps, points in probes.items():
        tp = TemperaturePair(*temps)
        for a in points:
            fd1 = (
                margin_losses(np.array([a + h]), tp)[0]
                - margin_losses(np.array([a - h]), tp)[0]
            ) / (2.0 * h)
            assert loss_first_derivative(np.array([a]), tp)[0] == pytest.approx(
                fd1, abs=1e-6
            )
            fd2 = (
                loss_first_derivative(np.array([a + h]), tp)[0]
                - loss_first_derivative(np.array([a - h]), tp)[0]
            ) / (2.0 * h)
            assert loss_second_derivative(np.array([a]), tp)[0] == pytest.approx(
                fd2, abs=1e-6
            )


def test_second_derivative_against_direct_loss_differences():
    # coarser h keeps the solver noise floor (~1e-13 per evaluation) harmless
    h = 1e-3
    tp = TemperaturePair(0.6, 1.6)
    for a in (-3.0, -1.0, 0.0, 1.5):
        lp = margin_losses(np.array([a + h]), tp)[0]
        l0 = margin_losses(np.array([a]), tp)[0]
        lm = margin_losses(np.array([a - h]), tp)[0]
        fd2 = (lp - 2.0 * l0 + lm) / (h * h)
        d2 = loss_second_derivative(np.array([a]), tp)[0]
        assert d2 == pytest.approx(fd2, rel=1e-4, abs=1e-7)


def test_plateau_region_is_exactly_flat():
    # t1 = t2 = 0.7 caps at 10/3 past the boundary a = -1/(1-t); spell the
    # cap with the same float arithmetic the loss uses
    tp = TemperaturePair(0.7, 0.7)
    cap = 1.0 / (1.0 - 0.7)
    inside = margin_losses(np.array([-10.0 / 3.0 + 0.01]), tp)[0]
    assert inside < cap
    for a in (-10.0 / 3.0 - 0.01, -5.0, -40.0):
        arr = np.array([a])
        assert margin_losses(arr, tp)[0] == cap
        assert loss_first_derivative(arr, tp)[0] == 0.0
        assert loss_second_derivative(arr, tp)[0] == 0.0


def test_mirror_symmetry_between_classes():
    # swapping the label mirrors the margin axis: the class-2 loss of the
    # embedding [a/2, -a/2] is the +1 margin loss at -a
    tp = TemperaturePair(0.6, 1.6)
    grid = np.linspace(-5.0, 5.0, 21)
    minus = batch_losses(grid[:, None], np.full(21, 2), np.array([[0.5, -0.5]]), tp)
    assert np.allclose(margin_losses(-grid, tp), minus, atol=1e-13)


def test_find_inflection_known_location():
    pts = find_inflection(TemperaturePair(0.6, 1.6), -20.0, 5.0)
    assert len(pts) == 1
    assert pts[0] == pytest.approx(-0.5271020633720118, abs=1e-5)


def test_find_inflection_plateau_boundary_closed_form():
    # t1 = t2 = t < 1: curvature drops to 0 exactly at a = -1/(1-t)
    pts = find_inflection(TemperaturePair(0.7, 0.7), -10.0, 0.0)
    assert len(pts) == 1
    assert pts[0] == pytest.approx(-10.0 / 3.0, abs=1e-6)


def test_find_inflection_rejects_convex_pairs():
    with pytest.raises(ValueError):
        find_inflection(TemperaturePair(1.0, 1.0), -10.0, 10.0)
    with pytest.raises(ValueError):
        find_inflection(TemperaturePair(1.5, 1.2), -10.0, 10.0)


def test_find_inflection_validates_interval():
    with pytest.raises(ValueError):
        find_inflection(TemperaturePair(0.6, 1.6), 5.0, -5.0)


def test_curvature_report_convex_case():
    tp = TemperaturePair(1.2, 1.0)
    rep = curvature_report(tp, lo=-10.0, hi=10.0)
    assert rep.regime == "convex"
    assert rep.inflection_points == []
    # the report's grid
    assert np.min(loss_second_derivative(np.linspace(-10.0, 10.0, 2001), tp)) >= -1e-9


def test_curvature_report_quasiconvex_case():
    tp = TemperaturePair(0.6, 1.6)
    rep = curvature_report(tp, lo=-10.0, hi=10.0)
    assert rep.regime == "quasi_convex"
    assert len(rep.inflection_points) >= 1
    # negative curvature in the far tail, positive near the origin, on the report's grid
    d2 = loss_second_derivative(np.linspace(-10.0, 10.0, 2001), tp)
    assert np.min(d2) < -1e-6
    assert np.max(d2) > 1e-3


def test_curvature_report_regime_matches_temperature_rule():
    for t1 in (0.7, 1.0, 1.3):
        for t2 in (0.7, 1.0, 1.3):
            rep = curvature_report(TemperaturePair(t1, t2), lo=-12.0, hi=12.0)
            expected = "convex" if (t1 >= t2 and t1 >= 1.0) else "quasi_convex"
            assert rep.regime == expected, (t1, t2)


def test_bayes_binary_logistic_oracle():
    # eta = 3/4 at (1, 1): a* = log(eta/(1-eta)) = log 3
    chk = bayes_binary_check(0.75, TemperaturePair(1.0, 1.0))
    assert chk.a_star_closed_form == pytest.approx(math.log(3.0), abs=1e-12)
    assert abs(chk.a_star_numeric - chk.a_star_closed_form) <= 1e-5
    assert chk.sign_consistent


@pytest.mark.parametrize("temps", [(1.0, 1.0), (1.0, 1.6), (0.6, 1.6), (1.3, 1.0)])
def test_bayes_binary_is_the_two_class_multiclass_check(temps):
    # the binary margin is the difference of the two-class activations, and
    # that oracle lands on the closed form far inside criterion 6's 1e-5
    for eta in (0.05, 0.25, 0.5, 0.9):
        chk = bayes_binary_check(eta, temps)
        a_star = bayes_multiclass_check([eta, 1.0 - eta], temps).a_star
        assert chk.a_star_numeric == a_star[0] - a_star[1], (temps, eta)
        assert abs(chk.a_star_numeric - chk.a_star_closed_form) <= 1e-9, (temps, eta)


def test_bayes_binary_closed_form_independent_recompute():
    # z_c = eta_c^(1/t1), a* = log_t2(z+/Z) - log_t2(z-/Z), done here in
    # plain math-module arithmetic; a numpy eta still yields plain scalars
    eta, t1, t2 = np.float64(0.9), 0.6, 1.6
    zp, zm = eta ** (1.0 / t1), (1.0 - eta) ** (1.0 / t1)
    z = zp + zm

    def logt(x, t):
        return (x ** (1.0 - t) - 1.0) / (1.0 - t)

    expected = logt(zp / z, t2) - logt(zm / z, t2)
    chk = bayes_binary_check(eta, TemperaturePair(t1, t2))
    assert chk.a_star_closed_form == pytest.approx(expected, abs=1e-12)
    assert abs(chk.a_star_numeric - chk.a_star_closed_form) <= 1e-5
    assert type(chk.a_star_numeric) is float
    assert type(chk.a_star_closed_form) is float
    assert type(chk.sign_consistent) is bool


@pytest.mark.parametrize("temps", [(1.0, 1.0), (0.6, 1.6), (1.3, 1.0), (0.8, 0.6), (1.5, 0.8)])
def test_bayes_binary_closed_form_is_log_t2_of_the_tilted_posterior(temps):
    t1, t2 = temps
    for eta in (1e-6, 0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 1.0 - 1e-6):
        zp, zm = eta ** (1.0 / t1), (1.0 - eta) ** (1.0 / t1)
        plus, minus = log_t(zp / (zp + zm), t2), log_t(zm / (zp + zm), t2)
        got = bayes_binary_check(eta, TemperaturePair(t1, t2)).a_star_closed_form
        # ulps of the larger term, since the difference cancels near eta = 1/2
        assert abs(got - (plus - minus)) <= 4 * np.spacing(max(abs(plus), abs(minus))), eta


def test_bayes_binary_balanced_posterior_is_zero():
    for temps in ((1.0, 1.0), (0.6, 1.6), (1.2, 0.8)):
        chk = bayes_binary_check(0.5, TemperaturePair(*temps))
        assert abs(chk.a_star_numeric) <= 1e-6
        assert abs(chk.a_star_closed_form) <= 1e-12


def test_bayes_binary_sign_tracks_majority():
    for eta in (0.1, 0.35, 0.65, 0.9):
        chk = bayes_binary_check(eta, TemperaturePair(0.6, 1.6))
        assert chk.sign_consistent
        assert (chk.a_star_numeric > 0) == (eta > 0.5)


def test_bayes_binary_closed_form_at_an_underflowing_posterior():
    # eta^(1/t1) = 1e-3000 underflows to 0; the closed form is then
    # log_t2(0) - log_t2(1) = -inf at t2 > 1, not an error
    chk = bayes_binary_check(1e-300, TemperaturePair(0.1, 1.5))
    assert chk.a_star_closed_form == -np.inf
    assert chk.sign_consistent
    assert np.sign(chk.a_star_numeric) == np.sign(chk.a_star_closed_form) == -1.0


def test_bayes_binary_validates_eta():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            bayes_binary_check(bad, TemperaturePair(1.0, 1.0))


def test_bayes_multiclass_uniform_posterior():
    p = np.full(4, 0.25)
    chk = bayes_multiclass_check(p, TemperaturePair(0.6, 1.6))
    assert chk.ok
    assert np.allclose(chk.a_star, chk.a_star[0], atol=1e-6)


def test_bayes_multiclass_logistic_recovers_posterior():
    # at (1, 1) the minimizer's tempered probabilities equal the posterior
    p = np.array([0.7, 0.2, 0.1])
    chk = bayes_multiclass_check(p, TemperaturePair(1.0, 1.0))
    assert chk.ok
    assert chk.max_deviation <= 1e-6
    assert np.allclose(chk.target, p, atol=1e-12)


def test_bayes_multiclass_tilted_target():
    # minimizer matches the 1/t1-power tilt of the posterior
    p = np.array([0.7, 0.2, 0.1])
    tilt = p ** (1.0 / 0.6)
    tilt /= tilt.sum()
    chk = bayes_multiclass_check(p, TemperaturePair(0.6, 1.6))
    assert chk.ok
    assert np.allclose(chk.target, tilt, atol=1e-12)
    assert chk.max_deviation <= 1e-4
    assert chk.argmax_preserved


def test_bayes_multiclass_handles_skewed_posteriors():
    # (1.3, 0.7) and (1.6, 0.4) polish at t2 < 1, where the normalizer's
    # support is clamped and the kernel's t1 >= 1 loss is +inf off it
    for temps in ((0.6, 1.6), (1.3, 0.7), (1.6, 0.4)):
        for p in ([0.998, 0.001, 0.001], [0.85, 0.1, 0.03, 0.02], [0.4, 0.35, 0.25]):
            chk = bayes_multiclass_check(np.array(p), TemperaturePair(*temps))
            assert chk.ok, (temps, p)
            assert chk.argmax_preserved, (temps, p)


def test_bayes_multiclass_chart_trials_leak_no_warning():
    # chart trial steps at this posterior overflow exp; the line search
    # rejects them without a warning (warnings are errors here)
    p = [0.755519479222324, 0.00025635412393004025, 0.12472765524783462,
         4.278002230140545e-05, 0.1194537313836101]
    chk = bayes_multiclass_check(p, (0.6, 1.6))
    assert chk.ok
    assert chk.max_deviation < 1e-10


def test_bayes_multiclass_chart_search_stops_at_its_float_floor(monkeypatch):
    # check 2 of the criterion-7 stream: its chart search asks for a
    # gradient of 1e-12 that float64 cannot reach; it stops once its step
    # no longer moves the point, far below its 2000-iteration cap
    rng = np.random.default_rng(20240503)
    for _ in range(3):
        c = int(rng.integers(3, 6))
        p = rng.dirichlet(np.ones(c))
        p = np.clip(p, 1e-3, None)
        p /= p.sum()
    minimize = analysis.lbfgs_minimize
    traces = []

    def recording(objective, init, config=None):
        x, trace = minimize(objective, init, config)
        traces.append(trace)
        return x, trace

    monkeypatch.setattr(analysis, "lbfgs_minimize", recording)
    chk = bayes_multiclass_check(p, TemperaturePair(0.6, 1.6))
    chart = traces[0]
    assert chart.termination == "line_search_failed"
    assert chart.grad_sup_norms[-1] > 1e-12
    assert chart.iterations <= 100
    assert chk.ok


def test_bayes_multiclass_validates_input():
    with pytest.raises(ValueError):
        bayes_multiclass_check(np.array([0.5, 0.6]), TemperaturePair(1.0, 1.0))
    with pytest.raises(ValueError, match=re.escape("p must be strictly positive, got [1.0, 0.0]")):
        bayes_multiclass_check(np.array([1.0, 0.0]), TemperaturePair(1.0, 1.0))
    with pytest.raises(ValueError):
        bayes_multiclass_check(np.array([1.0]), TemperaturePair(1.0, 1.0))
    for bad in ([np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5]):
        with pytest.raises(ValueError, match=r"^p\[0\] must be finite and >= 0, got -?(nan|inf)$"):
            bayes_multiclass_check(bad, TemperaturePair(0.6, 1.6))


@pytest.mark.parametrize("eta", [1e-100, 1e-200, 1e-300])
def test_bayes_oracle_names_a_posterior_past_the_support_edge(eta):
    # at t2 < 1 the tilted class probability is too small for a float
    # activation, so the polish would start where P = 0 and the loss is +inf
    message = ("p at (t1, t2) = (1.5, 0.3) must tilt to class probabilities float "
               f"activations can reach, got [{eta!r}, 1.0]")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bayes_binary_check(eta, TemperaturePair(1.5, 0.3))


@pytest.mark.parametrize(
    "p, message",
    [
        # the tolerance and wording of every other sum-to-one check
        ([0.5, 0.5 + 2**-20], "p must sum to 1, got 1.0000009536743164"),
        ([[0.5, 0.5]], "p must have shape (k,) with k >= 2, got (1, 2)"),
        ([], "p must have shape (k,) with k >= 2, got (0,)"),
        ([1.0], "p must have shape (k,) with k >= 2, got (1,)"),
    ],
)
def test_bayes_multiclass_checks_the_posterior_like_every_distribution(p, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bayes_multiclass_check(p, TemperaturePair(1.0, 1.0))
    # within NORMALIZATION_TOL is a distribution
    assert bayes_multiclass_check([0.5, 0.5 + 1e-9], TemperaturePair(1.0, 1.0)).ok


@pytest.mark.parametrize(
    "helper",
    [margin_losses, loss_first_derivative, loss_second_derivative, inflection_residual,
     pytest.param(lambda a, temps: margin_derivatives(a, temps[1]), id="margin_derivatives")],
)
@pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf, [0.0, np.nan]])
@pytest.mark.parametrize("temps", [(0.6, 1.6), (1.0, 1.0)])
def test_margin_helpers_reject_non_finite_margins(helper, a, temps):
    with pytest.raises(ValueError, match=r"^margin\[\d\] must be finite, got -?(nan|inf)$"):
        helper(a, temps)


def test_a_non_finite_margin_prints_as_a_plain_float():
    with pytest.raises(ValueError, match=r"^margin\[1\] must be finite, got nan$"):
        margin_losses(np.array([0.0, np.nan]), (1.0, 1.0))


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        (-np.inf, 5.0, "lo must be finite, got -inf"),
        (-5.0, np.inf, "hi must be finite and > lo, got inf"),
        (np.nan, 5.0, "lo must be finite, got nan"),
        (-5.0, np.nan, "hi must be finite and > lo, got nan"),
        (5.0, -5.0, "hi must be finite and > lo, got -5.0"),
    ],
)
def test_scans_reject_non_finite_or_unordered_bounds(lo, hi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        find_inflection((0.6, 1.6), lo, hi)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        curvature_report((0.6, 1.6), lo, hi)
