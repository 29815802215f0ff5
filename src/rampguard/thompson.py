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
from itertools import repeat
from math import erfc, exp, log, log1p
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from .normal import SQRT2
from .posterior import (_NO_VARIANCE, GaussianPrior, Pair, PosteriorState, _float_pair,
                        posterior_moments)
from .schedules import RULES, checked
from .solver import StageDecision, _decided
from .trace import Stage

if TYPE_CHECKING:
    from .batch import BlockStage

__all__ = [
    "ThompsonPolicy",
    "thompson_assignment_probabilities",
    "thompson_assignment_probability",
]

BRANCH_THOMPSON = "thompson"


def thompson_assignment_probability(posterior: PosteriorState, c: float) -> float:
    """Per-user treatment probability p**c / (p**c + (1-p)**c).

    p = Phi((mu_p(1) - mu_p(0)) / sqrt(sigma_p(0)^2 + sigma_p(1)^2)) is the
    posterior probability of a positive effect. Evaluated on the logit
    scale so values of p within an ulp of 0 or 1 stay stable.
    """
    c = checked(RULES["positive"], c, "c")
    z = (posterior.mu_p[1] - posterior.mu_p[0]) / math.sqrt(
        posterior.sigma_p_sq[0] + posterior.sigma_p_sq[1]
    )
    return _sharpened(-z / SQRT2, c)


def thompson_assignment_probabilities(mu_p, sigma_p_sq, c: float) -> np.ndarray:
    """``thompson_assignment_probability`` for many posteriors at once.

    ``mu_p`` and ``sigma_p_sq`` are ``(control, treatment)`` pairs of
    equal-shape arrays (or scalars). ``z`` and ``w = -z / sqrt(2)`` are
    computed on the arrays in the scalar function's order; its kernel maps
    over ``w`` with ``math``'s ``erfc``, ``log``, ``log1p`` and ``exp``, as
    numpy's ``log`` and ``exp`` may differ by an ulp, which ``c * logit(p)``
    can widen to a hundred. Each entry equals the scalar probability bit for bit.
    """
    c = checked(RULES["positive"], c, "c")
    z = (mu_p[1] - mu_p[0]) / np.sqrt(sigma_p_sq[0] + sigma_p_sq[1])
    flat = np.ravel(-z / SQRT2).tolist()
    p = np.fromiter(map(_sharpened, flat, repeat(c)), float, len(flat))
    return p.reshape(np.shape(z))


def _sharpened(w: float, c: float) -> float:
    """expit(c * logit(p)) at p = normal_cdf(z), given w = -z / SQRT2, without overflow."""
    p = 0.5 * erfc(w)
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    x = c * (log(p) - log1p(-p))
    if x >= 0.0:
        return 1.0 / (1.0 + exp(-x))
    e = exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class ThompsonPolicy:
    """The Thompson-sampling baseline as a stage-loop policy.

    The treated count is binomial in the incoming population at the current
    assignment probability (each user assigned independently), drawn from
    the feed's generator. When built, ``c`` must pass ``RULES["positive"]``
    and ``sigma_sq``, which fixes the model variances, ``RULES["variance"]``
    (no less than ``VARIANCE_FLOOR``), or ``ValueError`` names the field; a
    ``sigma_sq`` of None falls back to the feed's stage-1 ground truth. The
    assignment rule has no cap at half the stage, so the class sets
    ``cap_at_half = False`` and the loops let it treat the whole stage. The
    baseline is not budget-aware: it ignores the stage thresholds and
    tolerances. ``decide_block`` makes the same decision for a block of
    replications, with one binomial draw from the block's stream.
    """

    c: float
    prior: GaussianPrior
    sigma_sq: "tuple[float, float] | None" = None
    cap_at_half: ClassVar[bool] = False
    branch_labels: ClassVar[tuple[str, ...]] = (BRANCH_THOMPSON,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", checked(RULES["positive"], self.c, "c"))
        if self.sigma_sq is not None:
            object.__setattr__(self, "sigma_sq", _float_pair("sigma_sq", self.sigma_sq, "variance"))

    def decide(self, stage: Stage) -> StageDecision:
        stats = stage.stats
        sums = (stats.sum_control, stats.sum_treated)
        mu_p, sigma_p_sq = self._belief(stage.t, stats.counts, sums, stage.feed.true_variance)
        p_t = thompson_assignment_probability(PosteriorState(mu_p, sigma_p_sq), self.c)
        m_t = int(stage.feed.rng.binomial(stage.n_units, p_t))
        return _decided(m_t, BRANCH_THOMPSON, stage.n_units)

    def decide_block(self, stage: BlockStage) -> tuple[np.ndarray, np.ndarray]:
        sums = (stage.sum_control, stage.sum_treated)
        mu_p, sigma_p_sq = self._belief(stage.t, stage.counts, sums, stage.scenario.true_variance)
        p_t = thompson_assignment_probabilities(mu_p, sigma_p_sq, self.c)
        size = stage.sum_treated.shape
        if p_t.shape != size:
            p_t = np.broadcast_to(p_t, size)
        return stage.rng.binomial(stage.n_units, p_t), np.zeros(size, dtype=np.int8)

    def _belief(self, t: int, counts, sums, true_variance) -> tuple[Pair, Pair]:
        """Posterior ``(mu_p, sigma_p_sq)`` before stage ``t``: the prior's pairs at
        stage 1, else ``counts`` and ``sums`` (scalars or arrays) folded in under
        ``sigma_sq`` or, without it, the stage-1 truth ``true_variance(1)``; a
        feed that reports none raises ``ValueError``."""
        if t == 1:
            return self.prior.mu0, self.prior.sigma0_sq
        sigma_sq = self.sigma_sq or true_variance(1)
        if sigma_sq is None:
            raise ValueError(_NO_VARIANCE)
        return posterior_moments(self.prior, sigma_sq, counts, sums)
