"""Thompson-sampling bandit baseline for ramp-schedule comparisons.

Each incoming user is assigned to treatment independently with probability

    p**c / (p**c + (1 - p)**c),

where p is the posterior probability that the treatment mean exceeds the
control mean and c > 0 sharpens (c > 1) or flattens (c < 1) the rule. The
baseline is not budget-aware; traces still account the true costs so its
budget behaviour can be compared against the constrained solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .normal import normal_cdf
from .posterior import (
    GaussianPrior,
    OutcomeVariance,
    PosteriorState,
    compute_posterior,
    init_posterior,
)
from .solver import StageDecision
from .trace import Stage

__all__ = ["ThompsonPolicy", "thompson_assignment_probability"]

BRANCH_THOMPSON = "thompson"


def thompson_assignment_probability(posterior: PosteriorState, c: float) -> float:
    """Per-user treatment probability p**c / (p**c + (1-p)**c).

    p = Phi((mu_p(1) - mu_p(0)) / sqrt(sigma_p(0)^2 + sigma_p(1)^2)) is the
    posterior probability of a positive effect. Evaluated on the logit
    scale so values of p within an ulp of 0 or 1 stay stable.
    """
    if c <= 0.0:
        raise ValueError(f"c must be > 0, got {c!r}")
    z = (posterior.mu_p[1] - posterior.mu_p[0]) / math.sqrt(
        posterior.sigma_p_sq[0] + posterior.sigma_p_sq[1]
    )
    p = normal_cdf(z)
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    logit = math.log(p) - math.log1p(-p)
    # expit(c * logit(p)), written to avoid overflow on either side.
    x = c * logit
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class ThompsonPolicy:
    """The Thompson-sampling baseline as a stage-loop policy.

    The treated count is binomial in the incoming population at the current
    assignment probability (each user assigned independently), drawn from
    the feed's generator. ``sigma_sq`` fixes the model variances; None
    falls back to the feed's stage-1 ground truth. ``cap_at_half``
    optionally clamps the treated count at half the incoming population;
    the assignment rule itself has no such cap, so it defaults off. The
    baseline is not budget-aware: it ignores the stage thresholds and
    tolerances.
    """

    c: float
    prior: GaussianPrior
    sigma_sq: "tuple[float, float] | None" = None
    cap_at_half: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be finite and > 0, got {self.c!r}")

    def decide(self, stage: Stage) -> StageDecision:
        if stage.t == 1:
            posterior = init_posterior(self.prior)
        else:
            variance = OutcomeVariance(self.sigma_sq or stage.feed.true_variance(1))
            posterior = compute_posterior(self.prior, variance, stage.stats)
        p_t = thompson_assignment_probability(posterior, self.c)
        m_t = int(stage.feed.rng.binomial(stage.n_units, p_t))
        if self.cap_at_half:
            m_t = min(m_t, stage.n_units // 2)
        return StageDecision(m_t, BRANCH_THOMPSON, m_t / stage.n_units)
