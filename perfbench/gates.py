"""Correctness gates. Each returns (ok, detail); a failed gate counts as a
failed operation in ``error_rate``."""

from __future__ import annotations

import csv
import io
import json
import math
import statistics


def ruin_within_bound(ruined: int, reps: int, delta: float) -> tuple[bool, str]:
    """Ruin rate at most delta + 3 * sqrt(delta * (1 - delta) / K)."""
    rate = ruined / reps
    limit = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / reps)
    return rate <= limit, f"ruin rate {rate:.5f} over {reps} reps vs limit {limit:.5f}"


def all_equal_to(values, expected, what: str) -> tuple[bool, str]:
    bad = [v for v in values if v != expected]
    return not bad, f"{len(bad)} of {len(values)} {what} differ from {expected!r}: {bad[:5]!r}"


def within_half_cap(m_rows, populations) -> tuple[bool, str]:
    """Every stage's m is at most N_t // 2."""
    for rep, row in enumerate(m_rows):
        for t, m in enumerate(row):
            if m > populations[t] // 2:
                return False, f"replication {rep} stage {t + 1}: m={m} > {populations[t] // 2}"
    return True, ""


def thompson_ordered(stage1_m: dict) -> tuple[bool, str]:
    """Stage-1 median m ordered c=0.25 >= c=1 >= c=4, with 0.25 > 4 strictly."""
    med = {c: statistics.median(ms) for c, ms in stage1_m.items()}
    ok = med[0.25] >= med[1.0] >= med[4.0] and med[0.25] > med[4.0]
    return ok, f"stage-1 medians by c: {med}"


def _csv_rows(text: str) -> list[list[str]]:
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.reader(io.StringIO(body)))


def fig2a_matches(ruin_csv: str, spend_csv: str, ruin_rate: float, final_costs) -> tuple[bool, str]:
    """``reproduce fig2a`` tables equal the in-process run exactly."""
    ruin = _csv_rows(ruin_csv)
    if len(ruin) != 2 or float(ruin[1][1]) != ruin_rate:
        return False, f"ruin.csv {ruin[1:]!r} vs in-process ruin rate {ruin_rate!r}"
    spend = _csv_rows(spend_csv)[1:]
    if len(spend) != len(final_costs):
        return False, f"spend.csv has {len(spend)} rows, in-process run {len(final_costs)}"
    for row, cost in zip(spend, final_costs):
        if float(row[1]) != float(cost):
            return False, f"spend.csv replication {row[0]}: {row[1]} vs {float(cost)!r}"
    return True, ""


def decision_matches(stdout: str, stage: int, m_next: int) -> tuple[bool, str]:
    """A next-stage decision reports the stage and the recomputed m."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return False, f"not JSON: {stdout!r}"
    ok = out.get("stage") == stage and out.get("m_next") == m_next
    return ok, f"got {out!r}, expected stage={stage} m_next={m_next}"


def same_bytes(first: str, retry: str) -> tuple[bool, str]:
    return first == retry, f"retry printed {retry!r}, first call {first!r}"


def exit_code(got: int, expected: int, what: str) -> tuple[bool, str]:
    return got == expected, f"{what} exited {got}, expected {expected}"
