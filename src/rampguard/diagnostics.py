"""Simulator-side robustness checks over the treated counts of a study.

The analytic solver stays conservative beyond the Gaussian model when, at
every stage it treats anyone, (a) the prior does not overestimate the
treatment effect or underestimate its variability at the first stage,
(b) the true mean effect never drops below the history-weighted mean effect
of previously treated units, and (c) the plug-in outcome variances are at
or above the relevant true variances. These checks need the scenario's true
moments, so they are only available in simulation.

Every condition depends only on the treated counts ``m``, the prior, the
plug-in variances and the true moments, so one array computation checks a
single rollout (``[r.m for r in trace.records]``) or a whole study of
either engine (``summary.traces.m``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posterior import GaussianPrior, _float_pair
from .scenarios import Scenario

__all__ = ["RobustnessChecks", "robustness_diagnostics"]

# Relative slack so exact-equality structures count as passing.
_TOL = 1e-9


def _at_least(lhs, rhs) -> np.ndarray:
    return lhs >= rhs - _TOL * np.maximum(1.0, np.abs(rhs))


@dataclass(frozen=True)
class RobustnessChecks:
    """Boolean arrays shaped like the treated counts, one entry per stage.

    An entry is True where its condition holds or does not bind: every check
    binds only where ``m > 0``, the prior checks only at stage 1 and the
    history checks only where ``has_history``, that is where an earlier
    stage treated someone.
    """

    prior_mean_ok: np.ndarray
    prior_variance_ok: np.ndarray
    effect_nondecreasing: np.ndarray
    control_variance_ok: np.ndarray
    effect_variance_ok: np.ndarray
    has_history: np.ndarray

    @property
    def passed(self) -> np.ndarray:
        return (self.prior_mean_ok & self.prior_variance_ok & self.effect_nondecreasing
                & self.control_variance_ok & self.effect_variance_ok)


def robustness_diagnostics(
    scenario: Scenario,
    m,
    prior: GaussianPrior,
    sigma_sq: tuple[float, float],
) -> RobustnessChecks:
    """Evaluate the conservatism conditions at every entry of ``m``.

    ``m`` holds treated counts shaped ``(T,)`` for one rollout or ``(K, T)``
    for K replications; column t is stage t + 1. ``sigma_sq`` is the
    plug-in variance pair the solver used, two numbers to ``as_float``. The
    history of a stage sums the earlier stages in stage order from 0.0,
    exactly as a running total would.
    """
    m = np.asarray(m)
    stages = range(1, m.shape[-1] + 1)
    effect = np.array([scenario.true_effect(t) for t in stages])
    diff_var = np.array([scenario.effect_variance(t) for t in stages])
    var0 = np.array([scenario.true_var(0, t) for t in stages])
    v0, v1 = _float_pair("sigma_sq", sigma_sq, "number")

    def earlier(x):
        # Exclusive running sum; cumsum minus the current term rounds differently.
        shifted = np.concatenate([np.zeros_like(x[..., :1]), x[..., :-1]], axis=-1)
        return np.cumsum(shifted, axis=-1)

    hist_m = earlier(m)
    has_history = hist_m > 0
    per_unit = np.maximum(hist_m, 1)  # the sums below are 0.0 where nothing came before
    hist_effect = earlier(m * effect) / per_unit
    hist_var0 = earlier(m * var0) / per_unit
    idle = m <= 0
    first = np.arange(m.shape[-1]) == 0
    prior_var = v0 + v1 + m * (prior.sigma0_sq[0] + prior.sigma0_sq[1])
    return RobustnessChecks(
        prior_mean_ok=idle | ~first | _at_least(effect, prior.mu0[1] - prior.mu0[0]),
        prior_variance_ok=idle | ~first | _at_least(prior_var, diff_var),
        effect_nondecreasing=idle | ~has_history | _at_least(effect, hist_effect),
        control_variance_ok=idle | ~has_history | _at_least(v0, hist_var0),
        effect_variance_ok=idle | _at_least(v0 + v1, diff_var),
        has_history=has_history,
    )
