"""Deviance losses, link functions, and directional gradients.

Only the canonical pairings are accepted (Gaussian deviance with the
identity link, Poisson deviance with the log link): the monotone-loss
guarantee of the cyclic trainer relies on the per-observation loss being
convex in the linear predictor, which holds exactly for these pairs.

Weights are exposure-style multipliers (policy duration and the like).
Every evaluation takes ``w`` explicitly; pass ``w = 1`` for unweighted
data. The response ``y`` lives on the same scale as the mean ``mu``, so
count data observed over an exposure ``w`` enters as ``y = count / w``.

All functions are pure and accept scalars or numpy arrays. The public
``value``/``deriv_mu`` check their inputs. The fit's inner loop
(``directional_gradient``, ``loss_total``, the leaf-step guard, the
tuning noise margin) calls the private ``_value``/``_deriv`` instead:
same arithmetic, with y and w trusted because the public fit entry
points (``fit_tvcm``, ``fit_glm``, ``train``, ``tune_kappa``, and
``adjust_leaves`` once per tree) check them first. They keep the
Poisson mu > 0 test, since mu there comes from a stepped linear
predictor that no entry check covers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError, EtaOverflowError, FitError

# exp() saturates float64 a little above 709; stop well before that
ETA_MAX = 700.0
# guards log(0) for degenerate inputs; applied inside evaluation only,
# never to model state
MU_FLOOR = 1e-12


class IdentityLink:
    kind = "identity"

    def inverse(self, eta):
        return np.asarray(eta, dtype=float)

    def inverse_deriv(self, eta):
        return np.ones_like(np.asarray(eta, dtype=float))


class LogLink:
    kind = "log"

    def inverse(self, eta):
        return np.exp(np.asarray(eta, dtype=float))

    def inverse_deriv(self, eta):
        return np.exp(np.asarray(eta, dtype=float))


IDENTITY = IdentityLink()
LOG = LogLink()


def _check_weights(w):
    if np.any(np.asarray(w) <= 0):
        raise DomainError("weights must be strictly positive")


def _check_mu(mu):
    if (np.asarray(mu) <= 0).any():
        raise DomainError("Poisson deviance requires mu > 0")


class GaussianDeviance:
    """Weighted squared-error deviance: w * (y - mu)^2."""

    kind = "gaussian_deviance"

    def value(self, mu, y, w):
        _check_weights(w)
        return self._value(mu, y, w)

    def deriv_mu(self, mu, y, w):
        _check_weights(w)
        return self._deriv(mu, y, w)

    def _value(self, mu, y, w):
        mu = np.asarray(mu, dtype=float)
        y = np.asarray(y, dtype=float)
        return w * (y - mu) ** 2

    def _deriv(self, mu, y, w):
        mu = np.asarray(mu, dtype=float)
        y = np.asarray(y, dtype=float)
        return -2.0 * w * (y - mu)


class PoissonDeviance:
    """Weighted Poisson deviance: 2w * (mu - y + y*log(y/mu)).

    The y*log(y/mu) term is taken to be zero at y = 0, so the y = 0
    deviance is simply 2*w*mu.
    """

    kind = "poisson_deviance"

    def _validate(self, y, w):
        _check_weights(w)
        if np.any(np.asarray(y) < 0):
            raise DomainError("Poisson deviance requires y >= 0")

    def value(self, mu, y, w):
        self._validate(y, w)
        return self._value(mu, y, w)

    def deriv_mu(self, mu, y, w):
        self._validate(y, w)
        return self._deriv(mu, y, w)

    def _value(self, mu, y, w):
        _check_mu(mu)
        mu = np.maximum(np.asarray(mu, dtype=float), MU_FLOOR)
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            ylog = np.where(y > 0, y * np.log(np.where(y > 0, y, 1.0) / mu), 0.0)
        return 2.0 * w * (mu - y + ylog)

    def _deriv(self, mu, y, w):
        _check_mu(mu)
        mu = np.maximum(np.asarray(mu, dtype=float), MU_FLOOR)
        y = np.asarray(y, dtype=float)
        return 2.0 * w * (1.0 - y / mu)


GAUSSIAN = GaussianDeviance()
POISSON = PoissonDeviance()

_LOSSES = {GAUSSIAN.kind: GAUSSIAN, POISSON.kind: POISSON}
_LINKS = {IDENTITY.kind: IDENTITY, LOG.kind: LOG}

_CANONICAL = {
    (GAUSSIAN.kind, IDENTITY.kind),
    (POISSON.kind, LOG.kind),
}


def get_loss(kind: str):
    try:
        return _LOSSES[kind]
    except KeyError:
        raise ConfigError(f"unknown loss kind {kind!r}") from None


def get_link(kind: str):
    try:
        return _LINKS[kind]
    except KeyError:
        raise ConfigError(f"unknown link kind {kind!r}") from None


def check_canonical(loss, link) -> None:
    """Reject non-canonical loss/link pairings at configuration time."""
    if (loss.kind, link.kind) not in _CANONICAL:
        raise ConfigError(
            f"unsupported loss/link pairing ({loss.kind}, {link.kind}); "
            "supported: gaussian_deviance+identity, poisson_deviance+log"
        )


def check_eta(eta, context: str = "") -> None:
    """Raise if a linear predictor would overflow exp() or underflow it to 0.

    Only meaningful under the log link; identity-link callers skip it.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all(np.isfinite(eta)):
        bad = int(np.flatnonzero(~np.isfinite(eta))[0])
        raise EtaOverflowError(
            f"non-finite linear predictor at row {bad}"
            + (f" ({context})" if context else "")
        )
    mag = np.abs(eta)
    if eta.size and float(np.max(mag)) > ETA_MAX:
        bad = int(np.argmax(mag))
        value = float(eta.flat[bad])
        raise EtaOverflowError(
            f"linear predictor {value:.3g} at row {bad} "
            f"{'overflows' if value > 0 else 'underflows'} exp(); "
            "model state is divergent"
            + (f" ({context})" if context else "")
        )


def directional_gradient(loss, link, x, eta, y, w):
    """Gradient of the total loss along coefficient direction j.

    For observation i this is x_ij * dL/dmu * d(inverse link)/d(eta),
    evaluated at the current linear predictor. The x factor multiplies
    last, so scaling in x is exact. y and w are not checked here.
    """
    eta = np.asarray(eta, dtype=float)
    if link.kind == "log":
        check_eta(eta, context="directional gradient")
    mu = link.inverse(eta)
    base = loss._deriv(mu, y, w) * link.inverse_deriv(eta)
    return np.asarray(x, dtype=float) * base


def loss_total(loss, link, eta, y, w) -> float:
    """Total loss at linear predictor eta, accumulated in extended precision.

    Extended precision keeps successive totals comparable at the 1e-10
    absolute level used by the monotone-training check. y and w are not
    checked here; a Poisson mean that underflows to 0 is a DomainError.
    """
    mu = link.inverse(np.asarray(eta, dtype=float))
    return float(np.sum(loss._value(mu, y, w), dtype=np.longdouble))


def intercept_shift(loss, link, partial_eta, y, w) -> float:
    """Stationary intercept given the rest of the linear predictor.

    Closed forms exist for both canonical pairs (they are the exact
    limits of the 1-D Newton iteration), so the balance property holds
    to machine precision.
    """
    y = np.asarray(y, dtype=float)
    w = np.broadcast_to(np.asarray(w, dtype=float), y.shape)
    if link.kind == "identity":
        return float(np.sum(w * (y - partial_eta))) / float(np.sum(w))
    check_eta(partial_eta, context="intercept recalibration")
    wy = float(np.sum(w * y))
    if wy <= 0:
        raise FitError("intercept recalibration needs a positive response total")
    return float(np.log(wy) - np.log(np.sum(w * np.exp(partial_eta))))
