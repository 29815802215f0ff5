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

__all__ = [
    "InsufficientDataError",
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


def _float_pair(name: str, pair, positive: bool = False) -> Pair:
    """``pair`` as two floats, refused unless both are finite (and > 0 if ``positive``)."""
    if len(pair) != 2:
        raise ValueError(f"{name} must have exactly two components, got {pair!r}")
    pair = (float(pair[0]), float(pair[1]))
    if not all(math.isfinite(v) and (v > 0.0 or not positive) for v in pair):
        rule = "finite and > 0" if positive else "finite"
        raise ValueError(f"{name} components must be {rule}, got {pair!r}")
    return pair


@dataclass(frozen=True)
class GaussianPrior:
    """Prior mean and variance of the unknown arm means, per arm."""

    mu0: Pair
    sigma0_sq: Pair

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu0", _float_pair("mu0", self.mu0))
        sigma0_sq = _float_pair("sigma0_sq", self.sigma0_sq, positive=True)
        object.__setattr__(self, "sigma0_sq", sigma0_sq)


@dataclass(frozen=True)
class OutcomeVariance:
    """Per-arm outcome variances, either supplied or estimated from data."""

    sigma_sq: Pair

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_sq", _float_pair("sigma_sq", self.sigma_sq, positive=True))


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
        _float_pair("sigma_p_sq", self.sigma_p_sq, positive=True)


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
    """
    if N_t < 0:
        raise ValueError(f"N_t must be >= 0, got {N_t!r}")
    if not 0 <= m_t <= N_t:
        raise ValueError(f"m_t must be in [0, N_t={N_t}], got {m_t!r}")
    return SufficientStats(
        sum_treated=stats.sum_treated + float(treated_sum),
        sum_control=stats.sum_control + float(control_sum),
        counts=(stats.counts[0] + (N_t - m_t), stats.counts[1] + m_t),
        treated_sumsq=stats.treated_sumsq + float(treated_sumsq),
        control_sumsq=stats.control_sumsq + float(control_sumsq),
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

    The arithmetic of :func:`compute_posterior`, without its validation;
    ``counts`` and ``sums`` are ``(control, treatment)`` pairs of scalars or
    of equal-shape numpy arrays, so one call updates many replications.
    """
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
    observations has no sample variance: the ``fallback`` value is used for
    that arm when given, otherwise InsufficientDataError is raised (a
    pretrial estimate must then be supplied by the caller).
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
            out[w] = float(fallback[w])
        else:
            raise InsufficientDataError(
                f"arm {w} has {count} observation(s); need >= 2 or a fallback value"
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
    fewer than two observations (mandatory at the first stage). Both pairs
    are checked when the policy is built and kept as floats.
    """

    mode: Literal["known", "estimated"] = "known"
    values: "Pair | None" = None
    pretrial: "Pair | None" = None

    def __post_init__(self) -> None:
        if self.mode not in ("known", "estimated"):
            raise ValueError(f"variance mode must be 'known' or 'estimated', got {self.mode!r}")
        for name in ("values", "pretrial"):
            if getattr(self, name) is not None:
                pair = _float_pair(name, getattr(self, name), positive=True)
                object.__setattr__(self, name, pair)

    def resolve(
        self, stats: SufficientStats, feed_truth: "Pair | None"
    ) -> OutcomeVariance:
        if self.mode == "known":
            values = self.values if self.values is not None else feed_truth
            if values is None:
                raise ValueError(_NO_VARIANCE)
            return OutcomeVariance(sigma_sq=values)
        if self.pretrial is None and min(stats.counts) < 2:
            raise InsufficientDataError(
                "estimated-variance mode requires 'pretrial' values until "
                "both arms have at least two observations"
            )
        return estimate_variance(stats, fallback=self.pretrial)
