import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcm import losses
from tvcm.errors import ConfigError, DomainError, EtaOverflowError


def test_gaussian_minimum_is_zero():
    assert losses.GAUSSIAN.value(3.0, 3.0, 1.0) == 0.0


def test_poisson_value_at_zero_count():
    # direct evaluation of 2w(mu - y + y ln(y/mu)) at y = 0
    assert losses.POISSON.value(1.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-15)


def test_poisson_value_known_point():
    expected = 2.0 * (2.0 * math.log(2.0) - 1.0)  # mu=1, y=2, w=1
    assert losses.POISSON.value(1.0, 2.0, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.772589, abs=1e-6)


def test_gaussian_deriv_known_point():
    assert losses.GAUSSIAN.deriv_mu(1.0, 3.0, 1.0) == -4.0


def test_poisson_deriv_zero_at_minimum():
    for w in (1.0, 0.25, 7.0):
        assert losses.POISSON.deriv_mu(2.5, 2.5, w) == 0.0


def test_poisson_deriv_known_point():
    assert losses.POISSON.deriv_mu(2.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-14)


def test_poisson_zero_count_loss_is_2wmu():
    rng = np.random.default_rng(0)
    mu = rng.uniform(0.01, 20.0, size=200)
    w = rng.uniform(0.1, 5.0, size=200)
    vals = losses.POISSON.value(mu, 0.0, w)
    assert np.all(np.isfinite(vals))
    np.testing.assert_allclose(vals, 2.0 * w * mu, rtol=1e-14)


def _centered_fd(loss, mu, y, w):
    h = 1e-6 * max(1.0, abs(mu))
    return (loss.value(mu + h, y, w) - loss.value(mu - h, y, w)) / (2.0 * h)


@pytest.mark.parametrize("kind", ["gaussian", "poisson"])
def test_deriv_matches_finite_differences(kind):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        w = float(rng.uniform(0.1, 5.0))
        if kind == "gaussian":
            loss = losses.GAUSSIAN
            mu = float(rng.uniform(-10.0, 10.0))
            y = float(rng.uniform(-10.0, 10.0))
        else:
            loss = losses.POISSON
            mu = float(rng.uniform(0.05, 10.0))
            y = float(rng.choice([0.0, rng.uniform(0.0, 10.0)]))
        analytic = float(loss.deriv_mu(mu, y, w))
        fd = _centered_fd(loss, mu, y, w)
        assert abs(analytic - fd) / max(1.0, abs(analytic)) <= 1e-6


def test_directional_gradient_zero_direction():
    g = losses.directional_gradient(losses.GAUSSIAN, 0.0, 1.3, 4.0, 2.0)
    assert g == 0.0


def test_directional_gradient_known_point():
    g = losses.directional_gradient(losses.GAUSSIAN, 2.0, 1.0, 3.0, 1.0)
    assert g == -8.0


def test_directional_gradient_vanishes_at_fit():
    # identity: mu = eta = y
    g = losses.directional_gradient(losses.GAUSSIAN, 1.7, 2.0, 2.0, 3.0)
    assert g == 0.0
    # log: mu = exp(eta) = y
    g = losses.directional_gradient(losses.POISSON, 1.7, math.log(2.0), 2.0, 3.0)
    assert g == pytest.approx(0.0, abs=1e-12)


def test_directional_gradient_poisson_log_form():
    # reduces to x * 2w * (mu - y) under the log link
    rng = np.random.default_rng(3)
    x = rng.standard_normal(50)
    eta = rng.uniform(-2, 2, size=50)
    y = rng.poisson(1.0, size=50).astype(float)
    w = rng.uniform(0.5, 2.0, size=50)
    g = losses.directional_gradient(losses.POISSON, x, eta, y, w)
    np.testing.assert_allclose(g, x * 2.0 * w * (np.exp(eta) - y), rtol=1e-12)


def test_directional_gradient_scaling_is_exact():
    rng = np.random.default_rng(7)
    for loss in (losses.GAUSSIAN, losses.POISSON):
        x = rng.standard_normal(200)
        eta = rng.uniform(-1.5, 1.5, size=200)
        y = np.abs(rng.standard_normal(200))
        w = rng.uniform(0.2, 3.0, size=200)
        unit = losses.directional_gradient(loss, 1.0, eta, y, w)
        scaled = losses.directional_gradient(loss, x, eta, y, w)
        assert np.array_equal(scaled, x * unit)


@pytest.mark.parametrize(
    "loss,link",
    [(losses.GAUSSIAN, losses.IDENTITY), (losses.POISSON, losses.LOG)],
)
def test_canonical_pair_convexity_in_eta(loss, link):
    assert loss.link is link  # each loss carries its canonical link
    rng = np.random.default_rng(11)
    for _ in range(400):
        e1, e2 = np.sort(rng.uniform(-3.0, 3.0, size=2))
        t = float(rng.uniform(0.0, 1.0))
        y = float(np.abs(rng.standard_normal()) + 0.1)
        w = float(rng.uniform(0.2, 3.0))
        mid = loss.value(link.inverse(t * e1 + (1 - t) * e2), y, w)
        chord = t * loss.value(link.inverse(e1), y, w) + (1 - t) * loss.value(
            link.inverse(e2), y, w
        )
        assert mid <= chord + 1e-12


def test_poisson_domain_errors():
    with pytest.raises(DomainError):
        losses.POISSON.value(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        losses.POISSON.value(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        losses.POISSON.value(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        losses.POISSON.deriv_mu(0.0, 1.0, 1.0)


def test_loss_total_rejects_a_poisson_mean_that_underflows():
    # the fit's unchecked evaluation trusts y and w, but not a mean from a
    # stepped linear predictor: exp(-800) is 0
    with pytest.raises(DomainError, match="mu > 0"):
        losses.loss_total(losses.POISSON, [-800.0], 1.0, 1.0)


def test_nonpositive_weight_rejected():
    with pytest.raises(DomainError):
        losses.GAUSSIAN.value(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        losses.POISSON.value(1.0, 1.0, -2.0)


def test_eta_overflow_raises_with_row():
    eta = np.array([0.0, 1.0, 800.0])
    with pytest.raises(EtaOverflowError, match="row 2"):
        losses.directional_gradient(losses.POISSON, 1.0, eta, 1.0, 1.0)


def test_non_canonical_pairs_rejected():
    with pytest.raises(ConfigError):
        losses.check_canonical(losses.GAUSSIAN, losses.LOG)
    with pytest.raises(ConfigError):
        losses.check_canonical(losses.POISSON, losses.IDENTITY)
    losses.check_canonical(losses.GAUSSIAN, losses.IDENTITY)
    losses.check_canonical(losses.POISSON, losses.LOG)


def test_loss_total_matches_plain_sum():
    rng = np.random.default_rng(5)
    eta = rng.uniform(-1, 1, size=1000)
    y = np.abs(rng.standard_normal(1000))
    w = rng.uniform(0.5, 2.0, size=1000)
    total = losses.loss_total(losses.POISSON, eta, y, w)
    direct = float(np.sum(losses.POISSON.value(np.exp(eta), y, w)))
    assert total == pytest.approx(direct, rel=1e-12)


@st.composite
def stepped_etas(draw):
    """eta, y >= 0 (with zeros), w > 0, the rows a step moves and the
    step on them, itself with zeros."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 80))
    moved_share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    eta = rng.normal(-1.0, 2.0, size=n)
    y = np.where(rng.random(n) < 0.6, 0.0, rng.gamma(1.0, 2.0, size=n))
    w = rng.uniform(0.01, 3.0, size=n)
    moved = rng.random(n) < moved_share
    step = np.where(rng.random(n) < 0.3, 0.0, rng.normal(0.0, 0.5, size=n))
    rows = slice(None) if moved.all() else np.flatnonzero(moved)
    return eta, y, w, rows, np.where(moved, step, 0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(stepped_etas(), st.sampled_from(["gaussian", "poisson"]))
def test_stepped_record_equals_a_fresh_evaluation(case, kind):
    # the validation update recomputes only the moved rows; its per-row
    # loss and total equal a full evaluation at the stepped eta
    loss = losses.GAUSSIAN if kind == "gaussian" else losses.POISSON
    eta, y, w, rows, step = case
    record = losses.EtaRecord(loss, eta, y, w)
    stepped = record.stepped(rows, step[rows])
    fresh = losses.loss_total(loss, eta + step, y, w)
    assert np.float64(stepped.total).tobytes() == np.float64(fresh).tobytes()
    full = loss._value(loss.link.inverse(eta + step), y, w)
    assert stepped.row_loss.tobytes() == full.tobytes()
    assert record.eta.tobytes() == eta.tobytes()  # the record is unchanged


def test_eta_record_checks_a_log_link_eta_before_the_gradient_base():
    # as directional_gradient does, with the same context in the message
    eta = np.array([-1.0, 0.5, 800.0])
    record = losses.EtaRecord(losses.POISSON, eta, np.ones(3), np.ones(3))
    with pytest.raises(EtaOverflowError, match="row 2 .*directional gradient"):
        record.base
