"""Monte-Carlo ramp sizing with a Cantelli tail bound.

This solver handles per-unit cost functions beyond the plain treatment
effect. Posterior samples impute the unobserved counterfactual control
outcomes of all previously treated units and draw full outcome pairs for
two representative fresh units; those samples estimate the conditional
moments of the stage cost, and a one-sided variance bound turns the stage
constraint into a quadratic inequality in the treated-group size.

The sampler here is exact for the conjugate Gaussian model: each draw
samples the arm means from the posterior and then the needed outcomes from
the model, so no MCMC is involved.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .posterior import (
    GaussianPrior,
    OutcomeVariance,
    PosteriorState,
    VariancePolicy,
    compute_posterior,
)
from .replication import usable_cpus
from .schedules import RULES, SAMPLE_CAP, checked
from .solver import (
    BRANCHES,
    BRANCH_CAP,
    BRANCH_EMPTY,
    BRANCH_NO_REAL_ROOT,
    BRANCH_ROOT,
    BRANCH_ZERO_TOL,
    StageDecision,
    _decided,
    _largest_passing,
    _stage_cap,
)
from .trace import Stage

__all__ = [
    "CostFunction",
    "TreatmentEffectCost",
    "CappedEffectCost",
    "GaussianPosteriorSampler",
    "PosteriorQuantities",
    "estimate_posterior_quantities",
    "solve_ramp_size_cantelli",
    "CantelliPolicy",
    "SAMPLE_CAP",
]

# Per-unit history imputation runs in this many fixed row shards, each on
# its own child stream, so its draws do not depend on the thread count.
_SHARDS = 8
# Doubles in one shard's reused draw buffer (4 MiB).
_BUFFER_DOUBLES = 2**19
# CPUs this process may keep busy imputing, the calling thread included.
_cpu_share = usable_cpus()


def set_cpu_share(cpus: int) -> None:
    """Let this process's imputation keep at most ``cpus`` threads busy.

    The share counts the thread that calls ``draw_cost_batch``, so a call
    starts at most ``cpus - 1`` helpers, and none at a share of 1. A
    process pool that runs studies side by side gives each worker its
    share of the CPUs here, so the pool and the threads together never
    outnumber the CPUs. Results do not depend on the share.
    """
    global _cpu_share
    _cpu_share = max(1, int(cpus))


@contextmanager
def _imputing(impute, shards: list):
    """Run ``impute(*shard)`` for every shard beside the ``with`` body.

    Up to ``min(_cpu_share, len(shards)) - 1`` helper threads take shards from
    one locked hand-out while the calling thread runs the body; the caller
    then takes the remaining shards itself and joins every helper before
    the ``with`` statement ends. The first failure, in a shard or in the
    body, empties the hand-out, so no further shard starts, and is raised
    once every helper has stopped.
    """
    lock = threading.Lock()
    pending = shards[::-1]

    def drain():
        while True:
            with lock:
                if not pending:
                    return
                shard = pending.pop()
            try:
                impute(*shard)
            except BaseException:
                with lock:
                    pending.clear()
                raise

    helpers = min(_cpu_share, len(shards)) - 1
    if helpers < 1:
        yield
        drain()
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(helpers) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        try:
            yield
            drain()
        finally:
            with lock:
                pending.clear()
    for future in futures:
        future.result()  # re-raises a helper's failure


class CostFunction:
    """Deterministic per-unit cost of treating a unit.

    ``evaluate`` maps (treated outcome, control outcome) elementwise to a
    real cost; subclasses must be picklable values. ``is_linear_effect``
    marks the plain difference cost, for which sums over imputed units can
    be sampled through their Gaussian aggregate instead of per unit.
    ``evaluate_into`` writes ``evaluate(y1, y0)`` into the float array
    ``out``, which may be ``y0`` itself; override it with ufunc ``out=``
    calls to spare the per-unit imputation a temporary array.
    """

    is_linear_effect = False

    def evaluate(self, y1, y0):
        raise NotImplementedError

    def evaluate_into(self, y1, y0, out):
        out[...] = self.evaluate(y1, y0)
        return out


@dataclass(frozen=True)
class TreatmentEffectCost(CostFunction):
    """Cost of a treated unit is its treatment effect y(1) - y(0)."""

    is_linear_effect = True

    def evaluate(self, y1, y0):
        return np.asarray(y1) - np.asarray(y0)

    def evaluate_into(self, y1, y0, out):
        # Only subclasses that clear is_linear_effect impute per unit and
        # reach this; the linear history cost is drawn as one total.
        return np.subtract(y1, y0, out=out)


@dataclass(frozen=True)
class CappedEffectCost(CostFunction):
    """Treatment effect with a floor: max(y(1) - y(0), floor). ``floor`` must pass
    ``RULES["floor"]``, a number with ``|floor| <= FLOOR_CAP``: ``ValueError``
    otherwise. It is kept as a float."""

    floor: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "floor", checked(RULES["floor"], self.floor, "floor"))

    def evaluate(self, y1, y0):
        return np.maximum(np.asarray(y1) - np.asarray(y0), self.floor)

    def evaluate_into(self, y1, y0, out):
        np.subtract(y1, y0, out=out)
        return np.maximum(out, self.floor, out=out)


class GaussianPosteriorSampler:
    """Exact posterior sampler for the conjugate Gaussian model.

    Each draw first samples the two arm means from their Gaussian
    posteriors, then samples every required outcome independently from the
    model given those means. Because the arms are conditionally
    independent, imputed counterfactuals are fresh normal draws and do not
    condition on the observed treated values.
    """

    def __init__(
        self,
        posterior: PosteriorState,
        variance: OutcomeVariance,
        history: "list[np.ndarray] | tuple[np.ndarray, ...]" = (),
    ) -> None:
        self.posterior = posterior
        self.variance = variance
        self.history = tuple(np.asarray(a, dtype=float) for a in history)
        self.history_sizes = tuple(a.shape[0] for a in self.history)
        self.m1_prev = int(sum(self.history_sizes))
        self.observed_treated_sum = float(sum(a.sum() for a in self.history))

    def _draw_means(self, rng: np.random.Generator, k: int):
        mp, sp = self.posterior.mu_p, self.posterior.sigma_p_sq
        mu0 = mp[0] + math.sqrt(sp[0]) * rng.standard_normal(k)
        mu1 = mp[1] + math.sqrt(sp[1]) * rng.standard_normal(k)
        return mu0, mu1

    def draw_cost_batch(
        self, cost: CostFunction, k: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """k joint draws reduced to (history cost, fresh cost 1, fresh cost 2).

        The history cost applies the cost function to every previously
        treated unit's observed value against its imputed counterfactual
        and sums. For the linear effect cost that sum depends on the
        imputed values only through their total, which is sampled directly
        from its Gaussian law on ``rng``.

        Other costs impute per unit, in ``_SHARDS`` fixed row shards
        ``k*i//8 .. k*(i+1)//8``, shard ``i`` on child ``i`` of
        ``rng.spawn(8)`` (spawning draws nothing from ``rng``). A shard
        draws each history array's counterfactuals row-major in chunks that
        fit its reused buffer of ``_BUFFER_DOUBLES`` doubles (one row if a
        stage treated more units) and reduces them in place through
        ``cost.evaluate_into``. The calling thread draws the fresh units
        while up to ``min(_cpu_share, _SHARDS) - 1`` helper threads, bounded
        by ``set_cpu_share``, impute shards; it then imputes the shards
        still pending and joins every helper before the return. A share
        of 1 starts no helper, and neither does a call with no shard to
        impute. The result does not depend on the thread count.

        ``rng`` itself draws, in order: the two arm means, the linear
        cost's imputed total (linear costs only) and the two fresh units.
        """
        mu0, mu1 = self._draw_means(rng, k)
        v0, v1 = self.variance.sigma_sq
        sd0, sd1 = math.sqrt(v0), math.sqrt(v1)

        r_prev = np.zeros(k)
        shards = []
        if self.m1_prev and cost.is_linear_effect:
            m = float(self.m1_prev)
            imputed_total = m * mu0 + math.sqrt(m * v0) * rng.standard_normal(k)
            r_prev = self.observed_treated_sum - imputed_total
        elif self.m1_prev:
            rows = [slice(k * i // _SHARDS, k * (i + 1) // _SHARDS) for i in range(_SHARDS)]
            shards = [
                (cost, mu0[r], sd0, child, r_prev[r])
                for r, child in zip(rows, rng.spawn(_SHARDS))
            ]

        h = []
        with _imputing(self._impute_shard, shards):
            for _ in range(2):
                fresh0 = mu0 + sd0 * rng.standard_normal(k)
                fresh1 = mu1 + sd1 * rng.standard_normal(k)
                h.append(np.asarray(cost.evaluate(fresh1, fresh0), dtype=float))
        return r_prev, h[0], h[1]

    def _impute_shard(
        self,
        cost: CostFunction,
        mu0: np.ndarray,
        sd0: float,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> None:
        """Add each row's history cost to ``out``, imputing from ``rng``."""
        rows = out.shape[0]
        widest = max(self.history_sizes)
        buf = np.empty(min(rows * widest, max(widest, _BUFFER_DOUBLES)))
        for arr in self.history:
            n = arr.shape[0]
            if n == 0:
                continue
            step = max(1, _BUFFER_DOUBLES // n)
            for lo in range(0, rows, step):
                hi = min(lo + step, rows)
                imputed = buf[: (hi - lo) * n].reshape(hi - lo, n)
                rng.standard_normal(out=imputed)
                imputed *= sd0
                imputed += mu0[lo:hi, None]
                cost.evaluate_into(arr, imputed, imputed)
                out[lo:hi] += imputed.sum(axis=1)


@dataclass(frozen=True)
class PosteriorQuantities:
    """Sample estimates of the conditional cost moments.

    ``phi0`` is the fraction of draws whose history cost stays at or above
    the total budget; the remaining quantities are moments over that
    surviving subset: mean fresh-unit cost (``phi1``), mean history cost
    (``phi2``), fresh-unit cost variance (``phi3``), covariance between the
    two fresh units' costs (``phi4``), history cost variance (``phi5``) and
    the fresh-to-history covariance term as printed in the estimator block
    (``phi6``, which reuses the paired fresh costs). ``phi6_natural`` logs
    the direct fresh-to-history covariance estimate alongside, without
    replacing ``phi6`` anywhere.
    """

    phi0: float
    phi1: float
    phi2: float
    phi3: float
    phi4: float
    phi5: float
    phi6: float
    phi6_natural: float
    sample_count: int
    survivor_count: int


def estimate_posterior_quantities(
    sampler: GaussianPosteriorSampler,
    cost: CostFunction,
    B: float,
    K: int,
    rng: np.random.Generator,
) -> PosteriorQuantities:
    """Monte-Carlo estimates of the stage-cost moments from K joint draws.

    When no draw survives the budget condition the moment fields are NaN
    and ``survivor_count`` is zero; the solver maps that straight to m = 0.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K!r}")
    r_prev, h1, h2 = sampler.draw_cost_batch(cost, K, rng)
    alive = r_prev >= B
    survivors = int(alive.sum())
    phi0 = survivors / K
    if survivors == 0:
        nan = math.nan
        return PosteriorQuantities(0.0, nan, nan, nan, nan, nan, nan, nan, K, 0)

    rL, h1L, h2L = r_prev[alive], h1[alive], h2[alive]
    phi1 = float(h1L.mean())
    phi2 = float(rL.mean())
    phi3 = max(float((h1L * h1L).mean()) - phi1 * phi1, 0.0)
    cross = float((h1L * h2L).mean())
    phi4 = cross - phi1 * float(h2L.mean())
    phi5 = max(float((rL * rL).mean()) - phi2 * phi2, 0.0)
    phi6 = cross - phi1 * phi2
    phi6_natural = float((h1L * rL).mean()) - phi1 * phi2
    return PosteriorQuantities(
        phi0, phi1, phi2, phi3, phi4, phi5, phi6, phi6_natural, K, survivors
    )


def solve_ramp_size_cantelli(
    q: PosteriorQuantities, b_t: float, Delta_t: float, N_t: int
) -> StageDecision:
    """Largest treated-group size passing both Cantelli-side inequalities.

    Feasibility of m requires the expected post-stage cost to stay at or
    above the stage threshold, ``m * phi1 + phi2 >= b_t``, and the variance
    bound quadratic ``A m**2 + B m + C >= 0`` with ``q = 1/Delta_t - 1``.
    The feasible set need not be one interval, so every boundary of either
    constraint, its floor and the next integer, 0 and the cap are
    candidates, each re-checked directly; the roots are taken in the
    stable form, and roots that overflow are skipped.

    Two guards keep the variance plug-in honest against sampling noise,
    without which the bound can turn vacuously permissive at large m:
    ``phi4`` estimates the covariance of an exchangeable pair, which is a
    variance of a conditional mean and hence nonnegative, so it enters
    clamped at zero; and the fresh-to-history covariance slot uses the
    direct estimate ``phi6_natural`` (the as-printed ``phi6`` mixes in the
    history mean and is reported for comparison only).
    """
    cap = _stage_cap(Delta_t, N_t)
    if Delta_t == 0.0:
        return _decided(0, BRANCH_ZERO_TOL, N_t)
    if q.phi0 == 0.0:
        return _decided(0, BRANCH_EMPTY, N_t)
    if cap == 0:
        return _decided(0, BRANCH_CAP, N_t)

    qt = 1.0 / Delta_t - 1.0
    pair_cov = max(q.phi4, 0.0)
    hist_cov = q.phi6_natural if math.isfinite(q.phi6_natural) else q.phi6
    gap = q.phi2 - b_t
    A = q.phi1 * q.phi1 - qt * pair_cov
    B = 2.0 * q.phi1 * gap - qt * q.phi3 + qt * pair_cov - qt * hist_cov
    C = gap * gap - qt * q.phi5

    def feasible(m) -> bool:
        m = float(m)
        return (m * q.phi1 + q.phi2 >= b_t) and (A * m * m + B * m + C >= 0.0)

    # Either constraint changes sign only at one of these boundaries.
    roots = []
    if q.phi1 != 0.0:
        roots.append(-gap / q.phi1)
    if A != 0.0:
        disc = B * B - 4.0 * A * C
        if disc >= 0.0:
            # The stable pair of roots: neither cancels to 0 when A is tiny.
            h = -(B + math.copysign(math.sqrt(disc), B)) / 2.0
            if h != 0.0:  # else B and 4AC are 0: a double root at 0, a candidate already
                roots += [h / A, C / h]
    elif B != 0.0:
        roots.append(-C / B)
    best = _largest_passing(roots, cap, feasible, start=(0, cap))
    if best < 0:
        no_roots = A < 0.0 and (B * B - 4.0 * A * C) < 0.0
        return _decided(0, BRANCH_NO_REAL_ROOT if no_roots else BRANCH_EMPTY, N_t)
    if best == cap:
        return _decided(cap, BRANCH_CAP, N_t)
    return _decided(best, BRANCH_ROOT if best >= 1 else BRANCH_EMPTY, N_t)


@dataclass(frozen=True)
class CantelliPolicy:
    """The Monte-Carlo Cantelli solver as a stage-loop policy.

    Each stage imputes the counterfactuals of every earlier treated unit
    from ``samples`` posterior draws on the stage's own sampling stream (a
    non-linear cost's per-unit imputation on child streams spawned from
    it); a zero-tolerance stage draws no samples. ``samples`` must pass
    ``RULES["samples"]``, a whole number in ``[1, SAMPLE_CAP]`` (``500.0``
    is 500): ``ValueError`` otherwise. It is kept as an int.
    """

    prior: GaussianPrior
    variance: VariancePolicy
    samples: int = 10_000
    cost: CostFunction = TreatmentEffectCost()
    branch_labels: ClassVar[tuple[str, ...]] = BRANCHES

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", int(checked(RULES["samples"], self.samples, "samples")))

    def decide(self, stage: Stage) -> StageDecision:
        if any(outcomes is None for outcomes in stage.history):
            raise ValueError(
                "the Monte-Carlo solver needs a stage feed that reports the "
                "treated outcomes"
            )
        variance = self.variance.resolve(stage.stats, stage.feed.true_variance(stage.t))
        posterior = compute_posterior(self.prior, variance, stage.stats)
        if stage.delta_t == 0.0:
            return _decided(0, BRANCH_ZERO_TOL, stage.n_units)
        sampler = GaussianPosteriorSampler(posterior, variance, stage.history)
        quantities = estimate_posterior_quantities(
            sampler, self.cost, stage.budget, self.samples, stage.streams(stage.t)
        )
        return solve_ramp_size_cantelli(quantities, stage.b_t, stage.delta_t, stage.n_units)
