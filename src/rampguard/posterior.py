"""Conjugate Gaussian beliefs over the control and treatment means.

Outcomes for arm w (0 = control, 1 = treatment) are modelled as independent
draws from ``N(mu_true(w), sigma(w)**2)`` with an independent Gaussian prior
``mu_true(w) ~ N(mu0(w), sigma0(w)**2)`` per arm. Only treated outcomes
under w = 1 and control outcomes under w = 0 are ever observed, so the
treatment-arm posterior is driven by the cumulative treated sum and the
control-arm posterior by the cumulative control sum.

All state here is immutable; updates return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .schedules import RULES, as_float, checked

__all__ = [
    "InsufficientDataError",
    "NonFinitePosteriorError",
    "GaussianPrior",
    "OutcomeVariance",
    "SufficientStats",
    "PosteriorState",
    "VariancePolicy",
    "init_posterior",
    "update_stats",
    "compute_posterior",
    "posterior_moments",
    "estimate_variance",
]

Pair = tuple[float, float]  # indexed by arm: (control, treatment)
_NO_VARIANCE = "known-variance mode needs explicit values or a feed that reports true variances"


class InsufficientDataError(ValueError):
    """An arm has fewer than two observations, so its variance is undefined."""


class NonFinitePosteriorError(ValueError):
    """An arm's posterior mean is not a finite float, so no ramp size can rest on it."""


def _float_pair(name: str, pair, rule: str = "finite") -> Pair:
    """``pair`` as two floats, refused unless it is a sequence of two numbers to ``as_float``
    (no bool or string) that both pass ``RULES[rule]``."""
    test, wants = RULES[rule]
    try:
        a, b = (pair[0], pair[1]) if len(pair) == 2 else (None, None)
    except (TypeError, LookupError):  # no sequence: no length, or no entries 0 and 1
        a = b = None
    a, b = as_float(a), as_float(b)
    if a is not None and b is not None and test(a) and test(b):
        return (a, b)
    raise ValueError(f"{name} must be a pair, each {wants}, got {pair!r}")


@dataclass(frozen=True)
class GaussianPrior:
    """Prior mean and variance of the unknown arm means, per arm. Each mean
    must pass ``RULES["finite"]`` and each variance ``RULES["variance"]`` (no
    less than ``VARIANCE_FLOOR``), or ``ValueError`` names the pair. A mean
    too large for its variance is refused where the posterior is formed
    (``posterior_moments``)."""

    mu0: Pair
    sigma0_sq: Pair

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu0", _float_pair("mu0", self.mu0))
        object.__setattr__(self, "sigma0_sq", _float_pair("sigma0_sq", self.sigma0_sq, "variance"))


@dataclass(frozen=True)
class OutcomeVariance:
    """Per-arm outcome variances, either supplied or estimated from data."""

    sigma_sq: Pair

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_sq", _float_pair("sigma_sq", self.sigma_sq, "positive"))


@dataclass(frozen=True)
class SufficientStats:
    """Cumulative sums, counts and sums of squares of observed outcomes.

    ``sum_treated`` accumulates the treated units' outcomes under treatment
    and ``sum_control`` the control units' outcomes under control, the only
    two sums a deployment observes. ``counts`` are the cumulative control
    and treated group sizes ``(M(0), M(1))`` indexed by arm. The
    sum-of-squares accumulators back the variance estimator.
    """

    sum_treated: float = 0.0
    sum_control: float = 0.0
    counts: tuple[int, int] = (0, 0)
    treated_sumsq: float = 0.0
    control_sumsq: float = 0.0


@dataclass(frozen=True)
class PosteriorState:
    """Posterior mean and variance of the unknown arm means, per arm."""

    mu_p: Pair
    sigma_p_sq: Pair

    def __post_init__(self) -> None:
        _float_pair("sigma_p_sq", self.sigma_p_sq, "positive")


def init_posterior(prior: GaussianPrior) -> PosteriorState:
    """Posterior before any data: a verbatim copy of the prior."""
    return PosteriorState(mu_p=prior.mu0, sigma_p_sq=prior.sigma0_sq)


def update_stats(
    stats: SufficientStats,
    m_t: int,
    N_t: int,
    treated_sum: float,
    control_sum: float,
    treated_sumsq: float = 0.0,
    control_sumsq: float = 0.0,
) -> SufficientStats:
    """Fold one stage of observations into the running statistics.

    ``m_t`` treated units out of ``N_t`` contributed ``treated_sum`` (and
    ``treated_sumsq``), the remaining control units ``control_sum`` (and
    ``control_sumsq``). Any ``m_t`` in ``[0, N_t]`` folds; the half cap is
    a policy's rule, which the stage loops check (``trace.check_decision``).
    Each sum must be a number to ``as_float``, ``inf`` included, or ``ValueError`` names it.
    """
    if N_t < 0:
        raise ValueError(f"N_t must be >= 0, got {N_t!r}")
    if not 0 <= m_t <= N_t:
        raise ValueError(f"m_t must be in [0, N_t={N_t}], got {m_t!r}")
    number = RULES["number"]
    return SufficientStats(
        sum_treated=stats.sum_treated + checked(number, treated_sum, "treated_sum"),
        sum_control=stats.sum_control + checked(number, control_sum, "control_sum"),
        counts=(stats.counts[0] + (N_t - m_t), stats.counts[1] + m_t),
        treated_sumsq=stats.treated_sumsq + checked(number, treated_sumsq, "treated_sumsq"),
        control_sumsq=stats.control_sumsq + checked(number, control_sumsq, "control_sumsq"),
    )


def compute_posterior(
    prior: GaussianPrior, variance: OutcomeVariance, stats: SufficientStats
) -> PosteriorState:
    """Closed-form conjugate update of both arm means.

    Arm 1 is informed by the observed treated sum with count ``M(1)``, arm 0
    by the observed control sum with count ``M(0)``. Each posterior mean is
    the precision-weighted average of the prior mean and the sample mean,
    and each posterior variance is the reciprocal total precision.
    """
    mu_p, sigma_p_sq = posterior_moments(
        prior, variance.sigma_sq, stats.counts, (stats.sum_control, stats.sum_treated)
    )
    return PosteriorState(mu_p=mu_p, sigma_p_sq=sigma_p_sq)


def posterior_moments(prior: GaussianPrior, sigma_sq: Pair, counts, sums) -> tuple[Pair, Pair]:
    """Posterior means and variances from per-arm counts and observed sums.

    The arithmetic of :func:`compute_posterior`; ``counts`` and ``sums`` are
    ``(control, treatment)`` pairs of scalars or of equal-shape numpy
    arrays, so one call updates many replications. Every variance is at
    least ``VARIANCE_FLOOR``, so each precision is finite, but a mean term,
    ``mu0 / sigma0_sq`` or ``sum / sigma_sq``, may overflow a float: an arm
    whose posterior mean is not finite, in any replication, raises
    ``NonFinitePosteriorError`` naming it. This is the one finiteness check
    on the posterior, and numpy's overflow warnings stay silent on the way.
    """
    if not hasattr(sums[1], "dtype"):  # scalars: float arithmetic overflows silently
        mu, var = _moments(prior, sigma_sq, counts, sums)
        finite = [math.isfinite(m) for m in mu]
    else:
        import numpy as np

        with np.errstate(over="ignore", invalid="ignore"):
            mu, var = _moments(prior, sigma_sq, counts, sums)
            finite = [np.isfinite(m).all() for m in mu]
    for w in (0, 1):
        if not finite[w]:
            raise NonFinitePosteriorError(
                f"arm {w}'s posterior mean is not finite: the prior's mu0 {prior.mu0[w]!r} "
                f"over sigma0_sq {prior.sigma0_sq[w]!r} plus the arm's outcome sum over "
                f"sigma_sq {sigma_sq[w]!r} overflows a float"
            )
    return mu, var


def _moments(prior: GaussianPrior, sigma_sq: Pair, counts, sums) -> tuple[Pair, Pair]:
    mu, var = [0.0, 0.0], [0.0, 0.0]
    for w in (0, 1):
        prior_prec = 1.0 / prior.sigma0_sq[w]
        data_prec = counts[w] / sigma_sq[w]
        total = prior_prec + data_prec
        mu[w] = (prior.mu0[w] * prior_prec + sums[w] / sigma_sq[w]) / total
        var[w] = 1.0 / total
    return (mu[0], mu[1]), (var[0], var[1])


def estimate_variance(
    stats: SufficientStats, fallback: "Pair | None" = None
) -> OutcomeVariance:
    """Sample variance of each arm's own observed outcomes.

    Arm 1 uses the treated accumulators, arm 0 the control accumulators,
    each with denominator ``M(w) - 1``. An arm with fewer than two
    observations has no sample variance: it takes its ``fallback`` value,
    the pretrial estimate (a number to ``as_float``, or ValueError), and
    without one InsufficientDataError names the value the caller must pass.
    """
    out = [0.0, 0.0]
    accum = (
        (stats.counts[0], stats.sum_control, stats.control_sumsq),
        (stats.counts[1], stats.sum_treated, stats.treated_sumsq),
    )
    for w in (0, 1):
        count, total, sumsq = accum[w]
        if count >= 2:
            # Clamp tiny negative rounding residue from the sumsq formula.
            out[w] = max(sumsq - total * total / count, 0.0) / (count - 1)
        elif fallback is not None:
            out[w] = checked(RULES["number"], fallback[w], "fallback")
        else:
            raise InsufficientDataError(
                f"arm {w} has {count} observation(s); need >= 2 or a pretrial value (fallback)"
            )
    if min(out) <= 0.0:
        # Degenerate (constant) data gives a zero estimate; keep strictly
        # positive variances so downstream precisions stay finite.
        out = [max(v, 1e-12) for v in out]
    return OutcomeVariance(sigma_sq=(out[0], out[1]))


@dataclass(frozen=True)
class VariancePolicy:
    """How the experiment loop obtains per-stage outcome variances.

    ``known`` mode uses ``values`` when given, otherwise whatever the stage
    feed reports as ground truth. ``estimated`` mode applies the sample
    estimator with ``pretrial`` as the per-arm fallback while an arm has
    fewer than two observations, which ``estimate_variance`` refuses without
    one. Both pairs are checked when the policy is built, each variance by
    ``RULES["variance"]`` (a finite number at least ``VARIANCE_FLOOR``), and
    kept as floats; a fault raises ``ValueError`` naming the pair.
    """

    mode: Literal["known", "estimated"] = "known"
    values: "Pair | None" = None
    pretrial: "Pair | None" = None

    def __post_init__(self) -> None:
        if self.mode not in ("known", "estimated"):
            raise ValueError(f"variance mode must be 'known' or 'estimated', got {self.mode!r}")
        for name in ("values", "pretrial"):
            if getattr(self, name) is not None:
                pair = _float_pair(name, getattr(self, name), "variance")
                object.__setattr__(self, name, pair)

    def resolve(
        self, stats: SufficientStats, feed_truth: "Pair | None"
    ) -> OutcomeVariance:
        if self.mode == "known":
            values = self.values if self.values is not None else feed_truth
            if values is None:
                raise ValueError(_NO_VARIANCE)
            return OutcomeVariance(sigma_sq=values)
        return estimate_variance(stats, fallback=self.pretrial)
