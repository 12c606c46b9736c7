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
``value``/``deriv_mu`` check their inputs. The fit's loss evaluations
call the private ``_value``/``_deriv`` instead: same arithmetic, with y
and w trusted because the public fit entry points (``fit_tvcm``,
``fit_glm``, ``train``, ``tune_kappa``, and ``adjust_leaves`` once per
call) check them first; the trees of a fit take their leaf step
without that per-tree check. They keep the Poisson mu > 0 test, since mu
there comes from a stepped linear predictor that no entry check covers.

What depends on eta alone is kept in an ``EtaRecord``, one per eta, so
the cyclic loop evaluates, on the training half, one ``_deriv`` and one
``_value`` over every row per eta (the gradient base, and the per-row
loss that gives the trace its total and the leaf-step guard its loss at
a zero step), and per candidate only ``_value`` on each leaf with a
non-zero step; on the validation half, one ``_value`` over every row at
the start, per candidate ``_value`` on the rows whose x is non-zero
(``EtaRecord.stepped``), and one ``_deriv`` per accepted eta for the
noise margin. ``directional_gradient`` and ``loss_total`` compute the
same arithmetic through a fresh record; the GLM fit calls
``loss_total``.
"""

from __future__ import annotations

from functools import cached_property

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
        pos = y > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ylog = np.where(pos, y * np.log(np.where(pos, y, 1.0) / mu), 0.0)
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


class EtaRecord:
    """What the loss gives at one linear predictor eta, each part
    computed on first use and then kept.

    - ``mu``: the mean, ``link.inverse(eta)``;
    - ``score``: dL/deta per row, unchecked;
    - ``base``: the same array once a log-link eta has passed
      ``check_eta``; the gradient along coefficient direction j is
      ``x_j * base`` (``directional_gradient``);
    - ``row_loss``: ``loss._value(mu, y, w)`` per row;
    - ``total``: its sum in extended precision (``loss_total``).

    y and w are not checked here; a Poisson mean that underflows to 0 is
    a DomainError. Nothing updates a record in place: a new eta gets a
    new record (``stepped`` builds one from this one).
    """

    def __init__(self, loss, link, eta, y, w):
        self.loss = loss
        self.link = link
        self.eta = np.asarray(eta, dtype=float)
        self.y = y
        self.w = w

    @cached_property
    def mu(self):
        return self.link.inverse(self.eta)

    @cached_property
    def score(self):
        deriv = self.loss._deriv(self.mu, self.y, self.w)
        return deriv * self.link.inverse_deriv(self.eta)

    @cached_property
    def base(self):
        if self.link.kind == "log":
            check_eta(self.eta, context="directional gradient")
        return self.score

    @cached_property
    def row_loss(self):
        return self.loss._value(self.mu, self.y, self.w)

    @cached_property
    def total(self) -> float:
        return float(np.sum(self.row_loss, dtype=np.longdouble))

    def stepped(self, rows, step) -> "EtaRecord":
        """The record at eta with ``step`` added to ``eta[rows]``, its
        per-row loss recomputed on those rows only.

        ``rows`` is an index array or a slice over array-valued y and w.
        The loss is elementwise and eta + 0 == eta, so wherever a row is
        left out or its step is 0 the kept value is the one a fresh
        evaluation gives: ``row_loss`` and ``total`` equal those of
        ``EtaRecord(loss, link, eta + full_step, y, w)`` bit for bit.
        """
        eta = self.eta.copy()
        eta[rows] += step
        out = EtaRecord(self.loss, self.link, eta, self.y, self.w)
        row_loss = self.row_loss.copy()
        row_loss[rows] = self.loss._value(
            self.link.inverse(eta[rows]), self.y[rows], self.w[rows]
        )
        out.row_loss = row_loss
        return out


def directional_gradient(loss, link, x, eta, y, w):
    """Gradient of the total loss along coefficient direction j.

    For observation i this is x_ij * dL/dmu * d(inverse link)/d(eta),
    evaluated at the current linear predictor. The x factor multiplies
    last, so scaling in x is exact. y and w are not checked here.
    """
    return np.asarray(x, dtype=float) * EtaRecord(loss, link, eta, y, w).base


def loss_total(loss, link, eta, y, w) -> float:
    """Total loss at linear predictor eta, accumulated in extended precision.

    Extended precision keeps successive totals comparable at the 1e-10
    absolute level used by the monotone-training check. y and w are not
    checked here; a Poisson mean that underflows to 0 is a DomainError.
    """
    return EtaRecord(loss, link, eta, y, w).total


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
    return log_link_intercept(wy, partial_eta, w)


def log_link_intercept(wy: float, eta, w) -> float:
    """``intercept_shift``'s log-link closed form for ``wy = sum(w*y) > 0``,
    with eta not checked: log(wy) - log(sum(w*exp(eta)))."""
    return float(np.log(wy) - np.log(np.sum(w * np.exp(eta))))
