"""Budget and risk-tolerance sequences for staged releases.

A release plan fixes a total budget ``B < 0`` on the cumulative cost and an
overall ruin tolerance ``delta``. Each stage t carries a threshold ``b_t``
(no smaller than B) and a stage tolerance ``Delta_t`` in [0, 1), and the
product of ``(1 - Delta_t)`` stays at or above ``1 - delta``: the rule from
which the ruin guarantee follows. ``RiskSchedule`` is valid by
construction: its constructor is the one place that checks the rule, so
every schedule a caller holds admits all of its stages. Because every
factor is at most one, the running product is nonincreasing, so a valid
plan remains valid when truncated, and it can be extended stage by stage
as long as the product constraint still holds.

Two stock tolerance constructions are provided: a uniform split that spends
the tolerance evenly over a fixed horizon, and an infinite-horizon sequence
``Delta_t = (gamma/t)**2`` whose infinite product equals ``1 - delta``
exactly when ``gamma`` solves ``sin(pi g)/(pi g) = 1 - delta`` on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Any

__all__ = [
    "FLOOR_CAP",
    "REL_SLACK",
    "REPLICATION_CAP",
    "RULES",
    "SAMPLE_CAP",
    "STAGE_CAP",
    "VARIANCE_FLOOR",
    "ScheduleError",
    "as_float",
    "checked",
    "whole",
    "RiskSchedule",
    "uniform_tolerance",
    "sinc_gamma",
    "sinc_schedule",
]

# Relative slack absorbing float rounding in product comparisons.
REL_SLACK = 1e-12
# Count bounds, kept here so that numpy-free callers read them too.
# Stages of a scenario or a tolerance generator at most.
STAGE_CAP = 10_000
# Replications of one study at most: its trace arrays hold 25 bytes per replication and
# stage, and writing schedule.csv adds 16 and one chunk of rows.
REPLICATION_CAP = 10**6
# Posterior draws per Cantelli stage at most: a stage keeps ~10 float64 arrays of this length.
SAMPLE_CAP = 10**6
# A capped cost's floor in magnitude at most: Cantelli's sums of squared costs overflow near 1e150.
FLOOR_CAP = 1e100
# A supplied outcome or prior variance at least. The engines fold up to STAGE_CAP stages of
# 2**53 units, about 9.0e19, and that count over a variance is a precision: any floor
# >= 5.0e-289 keeps it below the float maximum, 1.8e308. At 1e-280 it is at most 9.0e299.
VARIANCE_FLOOR = 1e-280


class ScheduleError(ValueError):
    """Raised for a schedule or an extension that breaks the schedule rule."""


def as_float(value) -> "float | None":
    """``value`` as a float if it is a number (no bool, string or integer past every float)
    that ``float()`` converts, else None: the one test of a number. A float comes back as is."""
    if type(value) is float:
        return value
    try:
        return float(value) if isinstance(value, Real) and not isinstance(value, bool) else None
    except OverflowError:  # an integer beyond every float
        return None


def whole(least: int, most: float = math.inf):
    """The rule of a whole number from ``least`` to ``most``."""
    wants = "a whole number " + (f"in [{least}, {most}]" if most < math.inf else f">= {least}")
    return (lambda v: least <= v <= most and v % 1 == 0, wants)


# The value rules that the CLI's schemas and the constructors share: each a test of a
# float and the wording of what it wants. ``checked`` applies one.
RULES = {
    "number": (lambda v: True, "a number"),
    "finite": (math.isfinite, "a finite number"),
    "positive": (lambda v: 0.0 < v < math.inf, "a finite number > 0"),
    "variance": (lambda v: VARIANCE_FLOOR <= v < math.inf,
                 f"a finite number >= {VARIANCE_FLOOR:g}"),
    "tolerance": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    "stages": whole(1, STAGE_CAP),
    # Past 2**53 a float no longer holds every whole number.
    "population": (whole(1, 2**53)[0], "a whole number in [1, 2**53]"),
    "replications": whole(1, REPLICATION_CAP),
    "samples": whole(1, SAMPLE_CAP),
    "floor": (lambda v: abs(v) <= FLOOR_CAP, f"a number in [-{FLOOR_CAP:g}, {FLOOR_CAP:g}]"),
}


def checked(rule, value, name: str, error=ValueError) -> float:
    """``value`` as a float once it is a number ``rule`` admits; else ``error`` naming ``name``."""
    number = as_float(value)
    if number is None or not rule[0](number):
        raise error(f"{name} must be {rule[1]}, got {value!r}")
    return number


def uniform_tolerance(delta: float, T: int) -> tuple[float, ...]:
    """Spread an overall tolerance evenly over T stages.

    Returns the constant sequence ``Delta_t = 1 - (1 - delta)**(1/T)``, so
    the product of ``(1 - Delta_t)`` recovers ``1 - delta`` up to rounding.
    ScheduleError unless ``delta`` passes ``RULES["tolerance"]`` and ``T`` ``RULES["stages"]``.
    """
    delta = checked(RULES["tolerance"], delta, "delta", ScheduleError)
    T = int(checked(RULES["stages"], T, "stage count", ScheduleError))
    step = 1.0 - (1.0 - delta) ** (1.0 / T)
    return (step,) * T


def _sinc(g: float) -> float:
    if g == 0.0:
        return 1.0
    x = math.pi * g
    return math.sin(x) / x


def sinc_gamma(delta: float) -> float:
    """Solve sin(pi g)/(pi g) = 1 - delta for g in [0, 1] by bisection.

    The function is strictly decreasing from 1 to 0 on [0, 1], so the root
    is unique; bisection runs to an absolute width of 1e-14. ``delta`` must
    pass ``RULES["tolerance"]``; else :class:`ScheduleError`.
    """
    delta = checked(RULES["tolerance"], delta, "delta", ScheduleError)
    if delta == 0.0:
        return 0.0
    target = 1.0 - delta
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if _sinc(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sinc_schedule(delta: float, T_horizon: int) -> tuple[float, ...]:
    """First ``T_horizon`` terms of the infinite schedule (gamma/t)**2.

    Every finite prefix product of ``(1 - Delta_t)`` stays above
    ``1 - delta``; the infinite product converges to it exactly. The
    arguments follow the rules of ``uniform_tolerance``.
    """
    horizon = int(checked(RULES["stages"], T_horizon, "horizon", ScheduleError))
    g = sinc_gamma(delta)
    return tuple((g / t) ** 2 for t in range(1, horizon + 1))


@dataclass(frozen=True)
class RiskSchedule:
    """Total budget, overall tolerance and the per-stage sequences.

    Valid by construction: the constructor refuses, with a
    :class:`ScheduleError` naming the first stage that fails, any plan
    whose stage budget is not finite or falls below ``budget``, whose ``delta``
    or stage tolerance fails ``RULES["tolerance"]``, or whose running product of
    ``(1 - Delta_t)`` dips below ``1 - delta`` (within ``REL_SLACK``).
    Every value must be a number to ``as_float``; the stage entries are
    stored as its floats, ``budget`` and ``delta`` as given.
    """

    budget: float
    delta: float
    stage_budgets: tuple[float, ...]
    stage_tolerances: tuple[float, ...]

    def __post_init__(self) -> None:
        budget, tolerance = as_float(self.budget), RULES["tolerance"]
        if budget is None or not (math.isfinite(budget) and budget < 0.0):
            raise ScheduleError(f"budget must be finite and < 0, got {self.budget!r}")
        delta = checked(tolerance, self.delta, "delta", ScheduleError)
        raw = tuple(self.stage_budgets), tuple(self.stage_tolerances)
        if len(raw[0]) != len(raw[1]):
            raise ScheduleError(f"{len(raw[0])} stage budgets vs {len(raw[1])} stage tolerances")
        budgets, tolerances = tuple(map(as_float, raw[0])), []
        threshold = (1.0 - delta) * (1.0 - REL_SLACK)
        prod = 1.0
        for t, (b, given_b, given_d) in enumerate(zip(budgets, *raw), start=1):
            if b is None or not (math.isfinite(b) and b >= budget):
                raise ScheduleError(f"stage {t}: budget {given_b!r} must be finite "
                                    f"and >= the total budget {self.budget}")
            tolerances.append(checked(tolerance, given_d, f"stage {t}: tolerance", ScheduleError))
            prod *= 1.0 - tolerances[-1]
            if prod < threshold:
                raise ScheduleError(
                    f"stage {t}: tolerance product {prod:.12g} falls below "
                    f"1 - delta = {1.0 - delta:.12g}"
                )
        object.__setattr__(self, "stage_budgets", budgets)
        object.__setattr__(self, "stage_tolerances", tuple(tolerances))

    @property
    def num_stages(self) -> int:
        return len(self.stage_budgets)

    def tolerance_product(self) -> float:
        prod = 1.0
        for d in self.stage_tolerances:
            prod *= 1.0 - d
        return prod

    def exhausted(self) -> bool:
        """True once the stages spend all of ``delta`` up to rounding slack.

        Only stages whose tolerance is zero or below the slack can follow.
        """
        return self.tolerance_product() <= (1.0 - self.delta) * (1.0 + REL_SLACK)

    def extended(self, b_next: float, delta_next: float) -> "RiskSchedule":
        """This schedule with one more stage, if the schedule rule admits it."""
        return RiskSchedule(
            self.budget,
            self.delta,
            self.stage_budgets + (b_next,),
            self.stage_tolerances + (delta_next,),
        )

    @classmethod
    def uniform(
        cls,
        budget: float,
        delta: float,
        T: int,
        stage_budgets: "tuple[float, ...] | list[float] | None" = None,
    ) -> "RiskSchedule":
        """The schedule of ``uniform_tolerance(delta, T)``, each stage budget ``budget``
        unless ``stage_budgets`` gives them."""
        tolerances = uniform_tolerance(delta, T)
        budgets = (budget,) * len(tolerances) if stage_budgets is None else stage_budgets
        return cls(budget, delta, budgets, tolerances)

    def to_config(self) -> dict[str, Any]:
        return {
            "budget": self.budget,
            "delta": self.delta,
            "stage_budgets": list(self.stage_budgets),
            "stage_tolerances": list(self.stage_tolerances),
        }
