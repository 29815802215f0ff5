"""Analytic ramp-size solver.

At each stage the treated-group size m must keep the probability of the
cumulative cost crossing the stage threshold below the stage tolerance.
Under the conjugate Gaussian belief the next-stage cost statistic is
Gaussian with mean and variance that are explicit in m, so the tail
condition

    (b_t - S - mu_tilde(m)) / sigma_tilde(m) <= quantile(Delta_t)

can be inverted in closed form: squaring turns it into a quadratic in m,
the two roots are floored, and each candidate is re-checked against the
original inequality. The largest admissible m wins, capped at half the
incoming population; m = 0 is always admissible and is the fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING, ClassVar

from .normal import normal_quantile
from .posterior import (
    GaussianPrior,
    OutcomeVariance,
    PosteriorState,
    SufficientStats,
    VariancePolicy,
    compute_posterior,
    posterior_moments,
)
from .schedules import RULES, checked, whole

if TYPE_CHECKING:
    import numpy as np

    from .batch import BlockStage
    from .trace import Stage

__all__ = [
    "BRANCH_CAP",
    "BRANCH_NO_REAL_ROOT",
    "BRANCH_ROOT",
    "BRANCH_EMPTY",
    "BRANCH_ZERO_TOL",
    "BRANCHES",
    "Z_SLACK",
    "AnalyticPolicy",
    "PredictiveMoments",
    "StageDecision",
    "quadratic_coefficients",
    "solve_ramp_size",
    "solve_ramp_sizes",
]

BRANCH_CAP = "cap_at_half"
BRANCH_NO_REAL_ROOT = "no_real_root"
BRANCH_ROOT = "root_selected"
BRANCH_EMPTY = "empty_valid_set"
BRANCH_ZERO_TOL = "zero_tolerance"
# Branch labels by the codes that solve_ramp_sizes returns.
BRANCHES = (BRANCH_CAP, BRANCH_NO_REAL_ROOT, BRANCH_ROOT, BRANCH_EMPTY, BRANCH_ZERO_TOL)
_CODE = {label: code for code, label in enumerate(BRANCHES)}
# The code of a solve_ramp_sizes row below the cap, by found + 2 * no_root.
_BY_FOUND_AND_NO_ROOT = tuple(
    _CODE[b] for b in (BRANCH_EMPTY, BRANCH_ROOT, BRANCH_NO_REAL_ROOT, BRANCH_NO_REAL_ROOT)
)


@cache
def _codes_below_cap() -> np.ndarray:
    import numpy as np  # built on the first batch solve: importing this module loads no numpy

    return np.array(_BY_FOUND_AND_NO_ROOT, np.int8)


# Absolute slack on the tail-condition comparison; the brute-force oracles
# in the test suite apply the same slack so boundary cases cannot flip.
Z_SLACK = 1e-12

# Threshold below which the quadratic degenerates to a linear equation.
_DEGENERATE_A = 1e-12

# Relative rounding slack on the discriminant. A double root (always the
# case at Delta_t = 1/2, where q = 0) can round to a slightly negative
# discriminant; it is kept as a root, whose candidates are re-checked.
_DISC_SLACK = 1e-12

_NO_STATS = SufficientStats()  # built once: every replication's statistics at stage 1


@dataclass(frozen=True)
class PredictiveMoments:
    """Mean and variance of the stage cost statistic as functions of m.

    The statistic is the stage's treated-outcome sum minus the cumulative
    counterfactual control sum of all units ever treated; its conditional
    moments depend on the posterior, the outcome variances and the number
    of previously treated units.
    """

    mu_p: tuple[float, float]
    sigma_p_sq: tuple[float, float]
    sigma_sq: tuple[float, float]
    m1_prev: int

    def mu_tilde(self, m):
        return self._at(m)[0]

    def sigma_tilde_sq(self, m):
        return self._at(m)[1]

    def _at(self, m):
        """``(mu_tilde(m), sigma_tilde_sq(m))``, forming ``m + m1_prev`` once."""
        mm = m + self.m1_prev
        var = (m * m * self.sigma_p_sq[1] + m * self.sigma_sq[1]
               + mm * mm * self.sigma_p_sq[0] + mm * self.sigma_sq[0])
        return self.mu_p[1] * m - self.mu_p[0] * mm, var


def quadratic_coefficients(
    moments: PredictiveMoments, S_T1_prev: float, b_t: float, q: float
) -> tuple[float, float, float]:
    """``(A, B, C)`` of A m**2 + B m + C = 0, the tail condition squared at the quantile
    ``q`` of the stage tolerance: its real roots are where the condition holds with equality."""
    mu0, mu1 = moments.mu_p
    sp0, sp1 = moments.sigma_p_sq
    v0, v1 = moments.sigma_sq
    M = moments.m1_prev
    effect = mu1 - mu0
    slack = b_t - S_T1_prev + mu0 * M
    q2 = q * q
    A = q2 * (sp1 + sp0) - effect * effect
    B = q2 * (v1 + v0 + 2.0 * sp0 * M) + 2.0 * slack * effect
    C = q2 * sp0 * M * M + q2 * v0 * M - slack * slack
    return A, B, C


def _z_statistic(moments: PredictiveMoments, S_T1_prev: float, b_t: float, m: int) -> float:
    mu, var = moments._at(m)
    num = b_t - S_T1_prev - mu
    if var <= 0.0:
        # Only reachable at m = 0 with no treatment history: the statistic
        # is exactly zero, so the condition holds iff the threshold is
        # nonnegative relative to it.
        return -math.inf if num < 0.0 else math.inf
    return num / math.sqrt(var)


@dataclass(frozen=True)
class StageDecision:
    """Chosen treated-group size, the branch that produced it, and m/N."""

    m: int
    branch: str
    assignment_probability: float


def _stage_cap(b_t: float, Delta_t: float, N_t: int) -> int:
    """The stage's cap ``N_t // 2``, once ``N_t``, ``Delta_t`` and ``b_t`` pass their rules."""
    checked(RULES["population"], N_t, "N_t")
    checked(RULES["tolerance"], Delta_t, "Delta_t")
    checked(RULES["finite"], b_t, "b_t")
    return int(N_t) // 2


def _decided(m: int, branch: str, N_t: int) -> StageDecision:
    """The decision to treat ``m`` of the ``N_t`` units of a stage."""
    return StageDecision(m=m, branch=branch, assignment_probability=m / N_t)


def _largest_passing(roots, cap: int, passes, start=()) -> int:
    """The largest ``m`` in ``[0, cap]`` that ``passes``, or -1 if none does.

    The candidates are ``start`` and, for each finite root, its floor and
    the next integer up, which guards the floor against float rounding.
    """
    candidates = set(start)
    for r in filter(math.isfinite, roots):
        candidates.update((math.floor(r), math.floor(r) + 1))
    return max((m for m in candidates if 0 <= m <= cap and passes(m)), default=-1)


def solve_ramp_size(
    posterior: PosteriorState,
    variance: OutcomeVariance,
    M1_prev: int,
    S_T1_prev: float,
    b_t: float,
    Delta_t: float,
    N_t: int,
) -> StageDecision:
    """Largest admissible treated-group size for one stage.

    Either the half-population cap already satisfies the tail condition, or
    the condition is squared into a quadratic whose floored roots (and their
    upper neighbours, guarding the floor against float rounding) are
    re-checked directly; the largest survivor in [0, N_t/2] is returned.
    Every failure mode maps to m = 0 with its branch label. An input outside
    its rule raises ``ValueError``: ``N_t``, ``Delta_t`` and ``b_t`` at the
    stage entry; past the zero-tolerance and empty-cap exits, ``M1_prev``
    (a whole number >= 0) and ``S_T1_prev`` (finite).
    """
    cap = _stage_cap(b_t, Delta_t, N_t)
    if Delta_t == 0.0:
        # Zero tolerance admits no treated units under positive predictive
        # variance; the quantile would be -inf.
        return _decided(0, BRANCH_ZERO_TOL, N_t)
    if cap == 0:
        return _decided(0, BRANCH_CAP, N_t)

    checked(whole(0), M1_prev, "M1_prev")
    checked(RULES["finite"], S_T1_prev, "S_T1_prev")
    moments = PredictiveMoments(
        posterior.mu_p, posterior.sigma_p_sq, variance.sigma_sq, int(M1_prev)
    )
    q = normal_quantile(Delta_t)

    def satisfies(m: int) -> bool:
        return _z_statistic(moments, S_T1_prev, b_t, m) <= q + Z_SLACK

    if satisfies(cap):
        return _decided(cap, BRANCH_CAP, N_t)

    A, B, C = quadratic_coefficients(moments, S_T1_prev, b_t, q)
    if math.isnan(B) or math.isnan(C):
        # Overflow made a coefficient NaN: solve_ramp_sizes finds no root there.
        return _decided(0, BRANCH_EMPTY, N_t)
    scale = max(abs(B), abs(C), 1.0)
    roots: list[float] = []
    if abs(A) < _DEGENERATE_A * scale:
        # Degenerate quadratic: solve B m + C = 0 when B is meaningful.
        if abs(B) >= _DEGENERATE_A * scale:
            roots.append(-C / B)
        else:
            return _decided(0, BRANCH_NO_REAL_ROOT, N_t)
    else:
        b2, ac4 = B * B, 4.0 * A * C
        disc = b2 - ac4
        if disc < -_DISC_SLACK * (b2 + abs(ac4)):
            return _decided(0, BRANCH_NO_REAL_ROOT, N_t)
        sq = math.sqrt(max(disc, 0.0))
        roots.append((-B + sq) / (2.0 * A))
        roots.append((-B - sq) / (2.0 * A))

    best = _largest_passing(roots, cap, satisfies)
    return _decided(best, BRANCH_ROOT, N_t) if best >= 0 else _decided(0, BRANCH_EMPTY, N_t)


def _satisfied(moments: PredictiveMoments, S_T1_prev, b_t: float, m, limit: float) -> np.ndarray:
    """Elementwise ``_z_statistic(...) <= limit``; call under ``np.errstate``.

    Where the predictive variance is zero, ``num / 0`` gives -inf, +inf or
    NaN (for num < 0, > 0, == 0), which compare against ``limit`` exactly
    as the scalar path's -inf and +inf do.
    """
    import numpy as np

    mu, var = moments._at(m)
    return (b_t - S_T1_prev - mu) / np.sqrt(var) <= limit


def solve_ramp_sizes(
    moments: PredictiveMoments,
    S_T1_prev: np.ndarray,
    b_t: float,
    Delta_t: float,
    N_t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``solve_ramp_size`` for many states that share one stage.

    ``moments`` holds arrays (posterior moments and ``m1_prev``, one entry
    per state) and ``S_T1_prev`` the matching cumulative treated sums;
    ``b_t``, ``Delta_t`` and ``N_t`` are the stage's scalars. The cap test,
    the quadratic, the floored-root candidates and their re-check are those
    of the scalar solver, evaluated for every state at once, so each entry
    equals the scalar decision bit for bit. The cap and the candidates fill
    one ``(5, N)`` stack; the linear roots are formed only when some row is
    degenerate. Returns ``(m, branch)`` as arrays; ``branch`` holds indices
    into ``BRANCHES``.
    """
    import numpy as np

    cap = _stage_cap(b_t, Delta_t, N_t)
    S = np.asarray(S_T1_prev, dtype=float)
    if Delta_t == 0.0 or cap == 0:
        code = _CODE[BRANCH_ZERO_TOL if Delta_t == 0.0 else BRANCH_CAP]
        return np.zeros(S.shape, np.int64), np.full(S.shape, code, np.int8)

    q = normal_quantile(Delta_t)
    limit = q + Z_SLACK
    # Rows of other branches compute NaN or overflowing roots; the masks
    # below discard them, as the scalar path never computes them.
    with np.errstate(all="ignore"):
        A, B, C = quadratic_coefficients(moments, S, b_t, q)
        abs_b = np.abs(B)
        tiny = _DEGENERATE_A * np.maximum(np.maximum(abs_b, np.abs(C)), 1.0)
        degenerate = np.abs(A) < tiny
        b2, ac4 = B * B, 4.0 * A * C
        disc = b2 - ac4
        no_root = disc < -_DISC_SLACK * (b2 + np.abs(ac4))
        sq = np.sqrt(np.maximum(disc, 0.0))
        two_a, neg_b = 2.0 * A, -B
        # One tail check: row 0 is the cap, rows 1-4 the floored roots and their upper neighbours.
        stack = np.empty((5, *neg_b.shape))
        stack[0] = cap
        np.floor((neg_b + sq) / two_a, out=stack[1])
        np.floor((neg_b - sq) / two_a, out=stack[2])
        if degenerate.any():  # a degenerate row has the one root of B m + C = 0, if any
            linear = degenerate & (abs_b >= tiny)
            no_root = np.where(degenerate, ~linear, no_root)
            np.copyto(stack[1:3], np.floor(-C / B), where=linear)
        np.add(stack[1:3], 1.0, out=stack[3:])
        ok = _satisfied(moments, S, b_t, stack, limit)
        at_cap, candidates = ok[0], stack[1:]
        # A passing candidate below 0 leaves best below 0 too, which finds no root.
        best = np.where(ok[1:] & (candidates <= cap), candidates, -1.0).max(axis=0)
    found = best >= 0.0

    branch = _codes_below_cap()[found + 2 * no_root]
    branch[at_cap] = _CODE[BRANCH_CAP]
    m = np.where(branch == _CODE[BRANCH_ROOT], best, 0.0).astype(np.int64)
    m[at_cap] = cap
    return m, branch


@dataclass(frozen=True)
class AnalyticPolicy:
    """The closed-form ramp solver as a stage-loop policy.

    Each stage resolves the outcome variances per ``variance``, refreshes
    the posterior and solves for the largest admissible m. ``decide_block``
    does the same for a block of replications under known variances; at
    stage 1, where every replication has the empty statistics, it solves once.
    """

    prior: GaussianPrior
    variance: VariancePolicy
    branch_labels: ClassVar[tuple[str, ...]] = BRANCHES

    def decide(self, stage: Stage) -> StageDecision:
        return self._solve(stage, stage.stats, stage.feed.true_variance(stage.t))

    def decide_block(self, stage: BlockStage) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        if self.variance.mode != "known":
            raise ValueError("the batch engine needs known outcome variances")
        truth = stage.scenario.true_variance(stage.t)
        if stage.t == 1:
            d = self._solve(stage, _NO_STATS, truth)
            size = stage.sum_treated.shape
            return np.full(size, d.m, np.int64), np.full(size, _CODE[d.branch], np.int8)
        sigma_sq = self.variance.resolve(_NO_STATS, truth).sigma_sq
        mu_p, sigma_p_sq = posterior_moments(
            self.prior, sigma_sq, stage.counts, (stage.sum_control, stage.sum_treated)
        )
        return solve_ramp_sizes(
            PredictiveMoments(mu_p, sigma_p_sq, sigma_sq, stage.counts[1]),
            stage.sum_treated,
            stage.b_t,
            stage.delta_t,
            stage.n_units,
        )

    def _solve(self, stage: Stage | BlockStage, stats: SufficientStats, truth) -> StageDecision:
        """The decision of ``stage`` on ``stats``: resolve the variances (``truth`` is
        the feed's), refresh the posterior and solve with this module's ``solve_ramp_size``."""
        variance = self.variance.resolve(stats, truth)
        posterior = compute_posterior(self.prior, variance, stats)
        return solve_ramp_size(posterior, variance, stats.counts[1], stats.sum_treated,
                               stage.b_t, stage.delta_t, stage.n_units)
