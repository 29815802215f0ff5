"""Outcome-generating scenarios for simulation studies.

Each scenario describes paired potential outcomes (control value, treated
value) for every incoming unit at every stage. Both potential outcomes are
generated so the simulator can account the true per-stage cost, i.e. the
sum of individual treatment effects over the treated group, which is never
observable in a real rollout.

Families:

- ``gaussian_iid``: independent Gaussian arms with stage-constant moments.
- ``gaussian_time_varying``: same, with per-stage means and variances.
- ``gaussian_correlated``: bivariate Gaussian arms with a fixed correlation.
- ``bernoulli_scaled``: each arm is ``scale * Bernoulli(p_arm)``.
- ``student_t_shifted``: each arm is a shifted, scaled Student-t; the scale
  is derived from the requested variance and the degrees of freedom.

A new family is one ``_FAMILIES`` row: its per-unit pair draw, the exact
law of its stage sums (None when it has none, as for ``student_t_shifted``)
and the parameters that only it takes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from .schedules import RULES, checked
from .trace import StageFeed, StageOutcome

if TYPE_CHECKING:
    from .mc_solver import CostFunction

__all__ = [
    "Scenario", "ScenarioFeed", "generate_stage_outcomes", "draw_stage_sums", "has_sum_law",
    "has_gaussian_sum_law", "builtin_scenarios", "scenario_from_config",
]

_MOMENTS = ("mean_control", "mean_treatment", "var_control", "var_treatment")
# Each checked field: the test its values must pass and what the test wants.
_RULES = {
    "T": RULES["stages"],
    "population": RULES["population"],
    "mean_control": RULES["finite"],
    "mean_treatment": RULES["finite"],
    "var_control": RULES["variance"],
    "var_treatment": RULES["variance"],
    "correlation": (lambda v: -1.0 <= v <= 1.0, "a number in [-1, 1]"),
    "bernoulli_scale": RULES["positive"],
    "bernoulli_p": (lambda v: 0.0 < v < 1.0, "two numbers in (0, 1)"),
    "tail_df": (lambda v: 2.0 < v < math.inf, "a finite number > 2"),
}


def _per_stage(name: str, value, T: int, label: str = "") -> tuple[float, ...]:
    """``value``, a number or one per stage, checked and broadcast over ``T`` stages."""
    label = label or name
    if not isinstance(value, (list, tuple)):
        return (checked(_RULES[name], value, label),) * T
    if len(value) != T:
        raise ValueError(f"{label} must have one value per stage (T={T}), has {len(value)}")
    return tuple(checked(_RULES[name], v, label) for v in value)


@dataclass(frozen=True)
class Scenario:
    """A named outcome-generating process over T stages, checked when built.

    ``population`` and the moment fields take a number, broadcast over the
    stages, or one value per stage; they hold per-stage tuples once built.
    ``correlation``, ``bernoulli_scale`` with ``bernoulli_p`` (control,
    treatment) and ``tail_df`` belong to the correlated Gaussian,
    scaled-Bernoulli and Student-t families: each family needs its own and
    takes no other. The scaled-Bernoulli moments are derived, ``scale * p``
    and ``scale**2 * p * (1 - p)`` per arm; given ones must equal them.
    Every fault, a wrong type included, raises ``ValueError`` naming the field
    and what ``_RULES`` wants of it. Moments whose outcome sums overflow the
    posterior are refused where it is formed (``posterior.posterior_moments``).
    """

    name: str
    family: str
    T: int
    population: tuple[int, ...]
    # None only until derived, in the scaled-Bernoulli family.
    mean_control: tuple[float, ...] = None  # type: ignore[assignment]
    mean_treatment: tuple[float, ...] = None  # type: ignore[assignment]
    var_control: tuple[float, ...] = None  # type: ignore[assignment]
    var_treatment: tuple[float, ...] = None  # type: ignore[assignment]
    correlation: "float | None" = None
    bernoulli_scale: "float | None" = None
    bernoulli_p: "tuple[float, float] | None" = None  # (control, treatment)
    tail_df: "float | None" = None

    def __post_init__(self) -> None:
        store = object.__setattr__  # the fields are frozen
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ValueError(f"family must be one of {sorted(_FAMILIES)}, got {self.family!r}")
        T = int(checked(_RULES["T"], self.T, "T"))
        store(self, "T", T)
        population = _per_stage("population", self.population, T)
        store(self, "population", tuple(int(n) for n in population))
        own = _FAMILIES[self.family].parameters
        for key in (name for family in _FAMILIES.values() for name in family.parameters):
            value = getattr(self, key)
            if (value is None) == (key in own):
                wants = "needs" if value is None else "takes no"
                raise ValueError(f"a {self.family} scenario {wants} {key}")
            if key == "bernoulli_p" and value is not None:
                if not isinstance(value, (list, tuple)) or len(value) != 2:
                    raise ValueError(f"bernoulli_p must be two numbers in (0, 1), got {value!r}")
                store(self, key, tuple(checked(_RULES[key], p, key) for p in value))
            elif value is not None:
                store(self, key, checked(_RULES[key], value, key))

        derived = {}
        if self.family == "bernoulli_scaled":
            s, (p0, p1) = self.bernoulli_scale, self.bernoulli_p
            laws = (s * p0, s * p1, s * s * p0 * (1.0 - p0), s * s * p1 * (1.0 - p1))
            derived = dict(zip(_MOMENTS, laws))
        for key in _MOMENTS:
            given = getattr(self, key)
            if key in derived:
                label = f"{key} from bernoulli_scale and bernoulli_p"
                value = _per_stage(key, derived[key], T, label)
                if given is not None and _per_stage(key, given, T) != value:
                    raise ValueError(f"{key} of a bernoulli_scaled scenario must be left out or "
                                     f"equal {derived[key]!r}, got {given!r}")
            elif given is None:
                raise ValueError(f"a {self.family} scenario needs {key}")
            else:
                value = _per_stage(key, given, T)
            store(self, key, value)

    # True per-stage moments (simulator-side knowledge).

    def true_mean(self, w: int, t: int) -> float:
        means = self.mean_treatment if w == 1 else self.mean_control
        return means[t - 1]

    def true_var(self, w: int, t: int) -> float:
        var = self.var_treatment if w == 1 else self.var_control
        return var[t - 1]

    def true_variance(self, t: int) -> tuple[float, float]:
        """The ``(control, treatment)`` outcome variances at stage t."""
        return (self.var_control[t - 1], self.var_treatment[t - 1])

    def true_effect(self, t: int) -> float:
        return self.true_mean(1, t) - self.true_mean(0, t)

    def effect_variance(self, t: int) -> float:
        """Variance of the per-unit treatment effect Y(1) - Y(0) at stage t."""
        v0, v1 = self.true_variance(t)
        if not self.correlation:  # independent arms: no cross term, whose v0 * v1 may overflow
            return v0 + v1
        return v0 + v1 - 2.0 * self.correlation * math.sqrt(v0 * v1)


def _gaussian_pair(scn: Scenario, t: int, n: int, rng: np.random.Generator):
    y0 = rng.normal(scn.true_mean(0, t), math.sqrt(scn.true_var(0, t)), n)
    y1 = rng.normal(scn.true_mean(1, t), math.sqrt(scn.true_var(1, t)), n)
    return y0, y1


def _correlated_pair(scn: Scenario, t: int, n: int, rng: np.random.Generator):
    v0, v1 = scn.true_variance(t)
    rho = scn.correlation or 0.0
    cov = np.array([[v0, rho * math.sqrt(v0 * v1)], [rho * math.sqrt(v0 * v1), v1]])
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, 2)) @ chol.T
    return scn.true_mean(0, t) + z[:, 0], scn.true_mean(1, t) + z[:, 1]


def _bernoulli_pair(scn: Scenario, t: int, n: int, rng: np.random.Generator):
    scale = scn.bernoulli_scale
    p0, p1 = scn.bernoulli_p  # type: ignore[misc]
    y0 = scale * (rng.random(n) < p0).astype(float)
    y1 = scale * (rng.random(n) < p1).astype(float)
    return y0, y1


def _student_pair(scn: Scenario, t: int, n: int, rng: np.random.Generator):
    df = float(scn.tail_df)  # type: ignore[arg-type]
    out = []
    for w in (0, 1):
        # Explicit construction: standard normal over sqrt(chi2/df), then
        # scaled to hit the requested variance df/(df-2) * scale**2.
        scale = math.sqrt(scn.true_var(w, t) * (df - 2.0) / df)
        tvals = rng.standard_normal(n) / np.sqrt(rng.chisquare(df, n) / df)
        out.append(scn.true_mean(w, t) + scale * tvals)
    return out[0], out[1]


def _gaussian_sums(scn: Scenario, t: int, m: np.ndarray, rng: np.random.Generator):
    v0, v1 = scn.true_variance(t)
    rho = scn.correlation or 0.0
    rest = scn.population[t - 1] - m
    z = rng.standard_normal((3, m.shape[0]))
    treated = scn.true_mean(1, t) * m + np.sqrt(v1 * m) * z[0]
    # Independent arms take z[1] itself. 0.0 * z[0] + 1.0 * z[1] differs from it only in the sign
    # of a zero, which adding mean * m erases unless that is -0.0: a mean of -0.0, or m = 0, whose
    # cost run_block masks.
    noise = rho * z[0] + math.sqrt(1.0 - rho * rho) * z[1] if rho else z[1]
    counterfactual = scn.true_mean(0, t) * m + np.sqrt(v0 * m) * noise
    control = scn.true_mean(0, t) * rest + np.sqrt(v0 * rest) * z[2]
    return treated, counterfactual, control


def _bernoulli_sums(scn: Scenario, t: int, m: np.ndarray, rng: np.random.Generator):
    scale = scn.bernoulli_scale
    p0, p1 = scn.bernoulli_p  # type: ignore[misc]
    treated = scale * rng.binomial(m, p1)
    counterfactual = scale * rng.binomial(m, p0)
    control = scale * rng.binomial(scn.population[t - 1] - m, p0)
    return treated, counterfactual, control


class _Family(NamedTuple):
    draw: Callable  # (scenario, t, n, rng) -> every unit's pair (y0, y1)
    sum_law: "Callable | None"  # (scenario, t, m, rng) -> stage sums, see draw_stage_sums
    parameters: tuple[str, ...]  # the fields only this family takes


_FAMILIES = {
    "gaussian_iid": _Family(_gaussian_pair, _gaussian_sums, ()),
    "gaussian_time_varying": _Family(_gaussian_pair, _gaussian_sums, ()),
    "gaussian_correlated": _Family(_correlated_pair, _gaussian_sums, ("correlation",)),
    "bernoulli_scaled": _Family(
        _bernoulli_pair, _bernoulli_sums, ("bernoulli_scale", "bernoulli_p")
    ),
    "student_t_shifted": _Family(_student_pair, None, ("tail_df",)),
}


def has_sum_law(scenario: Scenario) -> bool:
    """Whether :func:`draw_stage_sums` supports the scenario's family."""
    return _FAMILIES[scenario.family].sum_law is not None


def has_gaussian_sum_law(scenario: Scenario) -> bool:
    """Whether :func:`draw_stage_sums` draws the family's sums as standard
    normals, whose use of the stream depends on the call shape alone."""
    return _FAMILIES[scenario.family].sum_law is _gaussian_sums


def draw_stage_sums(
    scenario: Scenario, t: int, m: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage-t sums for many replications, drawn from their exact laws.

    ``m`` holds each replication's treated-group size. Returns, per
    replication, the treated units' outcome sum under treatment, the same
    units' counterfactual sum under control (the true stage cost is the
    difference) and the control group's outcome sum: the quantities a
    ``ScenarioFeed`` stage reports, without drawing individual units.
    Gaussian arms give normal sums (the pair of a treated group is
    bivariate normal under correlated arms) and scaled-Bernoulli arms give
    scaled binomial counts. The generator is consumed in a fixed order:
    treated, counterfactual, then control, each for every replication.
    The family must have a sum law (see :func:`has_sum_law`).
    """
    if not 1 <= t <= scenario.T:
        raise ValueError(f"stage {t} outside 1..{scenario.T}")
    return _FAMILIES[scenario.family].sum_law(scenario, t, m, rng)


def generate_stage_outcomes(
    scenario: Scenario, t: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Paired potential outcomes (y0, y1) for every unit at stage t."""
    if not 1 <= t <= scenario.T:
        raise ValueError(f"stage {t} outside 1..{scenario.T}")
    n = scenario.population[t - 1]
    return _FAMILIES[scenario.family].draw(scenario, t, n, rng)


class ScenarioFeed:
    """StageFeed backed by a scenario and a replication-local RNG.

    Units are exchangeable within a stage, so the first m generated units
    form the treated group; their individual observed outcomes are reported
    too (the Monte-Carlo solver needs them). A stage's true cost sums
    ``cost.evaluate(y1, y0)`` over the treated units, the treatment effect
    ``y1 - y0`` when ``cost`` is None.
    """

    def __init__(
        self, scenario: Scenario, rng: np.random.Generator, cost: CostFunction | None = None
    ) -> None:
        self.scenario = scenario
        self.rng = rng
        self.cost = cost

    @property
    def num_stages(self) -> int:
        return self.scenario.T

    def population(self, t: int) -> int:
        return self.scenario.population[t - 1]

    def true_variance(self, t: int) -> tuple[float, float]:
        return self.scenario.true_variance(t)

    def run_stage(self, t: int, m: int) -> StageOutcome:
        y0, y1 = generate_stage_outcomes(self.scenario, t, self.rng)
        n = y0.shape[0]
        if not 0 <= m <= n:
            raise ValueError(f"m={m} outside [0, N_t={n}] at stage {t}")
        treated = y1[:m]
        control = y0[m:]
        cost = treated - y0[:m] if self.cost is None else self.cost.evaluate(treated, y0[:m])
        with np.errstate(over="ignore"):  # past the float range a sum of squares reads inf
            sumsq = float((treated * treated).sum()), float((control * control).sum())
        return StageOutcome(
            treated_sum=float(treated.sum()),
            treated_sumsq=sumsq[0],
            control_sum=float(control.sum()),
            control_sumsq=sumsq[1],
            true_cost=float(cost.sum()),
            treated_outcomes=treated,
        )


def builtin_scenarios() -> dict[str, Scenario]:
    """Registry of the stock simulation scenarios, keyed by name.

    The ten-stage scenarios all use 500 incoming units per stage. ``pte``,
    ``nte`` and ``npte`` are the ramp-study processes (positive, negative
    and negative-to-positive treatment effect; ``npte`` ramps the treatment
    mean from -2 up to a cap of 2). The budget-spend quartet ``norm``,
    ``corr``, ``bern`` and ``fat`` share a unit-magnitude harmful treatment
    effect and outcome variance 10 per arm, differing in distribution
    shape: plain Gaussian, correlated arms (rho 0.8), scaled Bernoulli and
    shifted Student-t. ``dec`` degrades the treatment mean linearly without
    bound. ``linkedin`` replays six stages of group-level moments from a
    real phased release, with populations scaled down for desk-size
    simulation.
    """
    T, N = 10, 500

    def gaussian(name, mu0, mu1, family="gaussian_iid", corr=None):
        return Scenario(name, family, T, N, mu0, mu1, 10.0, 10.0, correlation=corr)

    npte_means = tuple(min(-2.0 + 0.5 * (t - 1), 2.0) for t in range(1, T + 1))
    dec_means = tuple(-float(t - 1) for t in range(1, T + 1))

    linkedin = Scenario(
        "linkedin", "gaussian_time_varying", 6, (10756, 10460, 10598, 7580, 10550, 10688),
        mean_control=(0.3648, 0.3780, 0.3752, 0.2317, 0.4009, 0.3930),
        mean_treatment=(0.3659, 0.3788, 0.3754, 0.2317, 0.4010, 0.3941),
        var_control=(2.0993, 2.2769, 2.0909, 1.1165, 2.2705, 2.3982),
        var_treatment=(2.0923, 2.2248, 2.0135, 1.0526, 2.2476, 2.4430),
    )

    fat = Scenario("fat", "student_t_shifted", T, N, 1.0, 0.0, 10.0, 10.0, tail_df=4.0)
    bern = Scenario(
        "bern", "bernoulli_scaled", T, N, bernoulli_scale=6.4, bernoulli_p=(0.5786, 0.4224)
    )

    return {
        "pte": gaussian("pte", 0.0, 1.0),
        "nte": gaussian("nte", 1.0, 0.0),
        "npte": gaussian("npte", 0.0, npte_means, family="gaussian_time_varying"),
        "norm": gaussian("norm", 0.0, -1.0),
        "corr": gaussian("corr", 0.0, -1.0, family="gaussian_correlated", corr=0.8),
        "bern": bern,
        "fat": fat,
        "dec": gaussian("dec", 0.0, dec_means, family="gaussian_time_varying"),
        "linkedin": linkedin,
    }


def scenario_from_config(spec: "str | dict[str, Any]") -> Scenario:
    """Resolve a scenario by registry name or build one from a mapping.

    An inline scenario maps ``Scenario`` fields to values: ``family``, ``T``
    and ``population`` are required and ``name`` defaults to ``"custom"``.
    An unknown name or key, or a missing required key, raises ``KeyError``;
    ``Scenario`` itself broadcasts, derives and checks the values.
    """
    if isinstance(spec, str):
        registry = builtin_scenarios()
        if spec not in registry:
            raise KeyError(f"unknown scenario {spec!r}; known: {sorted(registry)}")
        return registry[spec]

    unknown = sorted(spec.keys() - {field.name for field in fields(Scenario)})
    if unknown:
        raise KeyError(f"unknown scenario keys {unknown}; an inline scenario takes Scenario fields")
    missing = [key for key in ("family", "T", "population") if key not in spec]
    if missing:
        raise KeyError(f"an inline scenario needs {', '.join(missing)}")
    return Scenario(**{"name": "custom", **spec})
