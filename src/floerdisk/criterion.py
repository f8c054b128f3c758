"""Non-displaceability decision procedures for two-sided scenarios.

The decision tree, in order:

  1. nonzero pairing of the fundamental classes -> non-displaceable for
     purely topological reasons;
  2. nonzero pairing of either fundamental class with the other side's
     string invariant -> non-displaceable ("lower-index" rule);
  3. area gate a + b < min(A, B), then nonzero pairing of the two string
     invariants -> non-displaceable, citing the rule that applied.

Rule identifiers in reports: "1.5" (plain), "1.6" (subspace-refined),
"2.4" / "2.5" (monotone-partner variants where A is the first level whose
boundary sum fails to cancel), "lower-index".  A verdict is never
"displaceable": these criteria are one-sided; displaceability questions are
handled by the probes module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .abelian import pair
from .errors import (CancellationFails, HypothesisViolated,
                     InsufficientLedger, MissingLocalSystem, NoLift,
                     TwoSidedRequired, ValidationError)
from .invariants import (ThresholdResult, cancellation_threshold, least_area,
                         next_area, oc_low)
from .rings import Ring, rational_str
from .scenario import Scenario

TOPOLOGICAL = "topologically_non_displaceable"
NON_DISPLACEABLE = "non_displaceable"
INCONCLUSIVE = "inconclusive"

RULE_PLAIN = "1.5"
RULE_SUBSPACE = "1.6"
RULE_MONOTONE = "2.4"
RULE_MONOTONE_SUBSPACE = "2.5"
RULE_LOWER_INDEX = "lower-index"


def _fmt(x) -> str:
    if x is None:
        return "inf"
    return rational_str(x)


@dataclass
class Verdict:
    conclusion: str
    theorem: str | None = None
    reason: str | None = None
    audit: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        out = {"conclusion": self.conclusion, "audit": self.audit,
               "notes": self.notes}
        if self.theorem is not None:
            out["theorem"] = self.theorem
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def gate_reason(a, b, big_a, big_b) -> str | None:
    """Why the strict gate a + b < min(A, B) fails, or None when it passes;
    None plays the role of infinity."""
    bounds = [x for x in (big_a, big_b) if x is not None]
    return gate_failure(Fraction(a) + Fraction(b), min(bounds, default=None))


def gate_failure(total, bound, den=1) -> str | None:
    """Why the strict gate total < bound fails, both read over den, or None
    when it passes; a bound of None is infinity."""
    if bound is None or total < bound:
        return None
    total_text = _fmt(Fraction(total, den))
    if total == bound:
        return f"area gate boundary: a+b = {total_text} equals min(A,B)"
    return (f"area gate: a+b = {total_text} >= min(A,B) = "
            f"{_fmt(Fraction(bound, den))}")


def gate_sides(left, right, monotone_variant: bool = False) -> tuple:
    """The two sides in gate order: the first gives the gate's (a, A), the
    second its (b, B).  Rules 1.5/1.6 keep the order; rules 2.4/2.5 put the
    non-monotone side first and need exactly one monotone side."""
    if not monotone_variant:
        return left, right
    if left.monotone == right.monotone:
        raise ValidationError(
            "monotone variant needs exactly one monotone side")
    return (right, left) if left.monotone else (left, right)


def gate_inputs(left, right, ring: Ring, use_subspaces: bool = False,
                monotone_variant: bool = False) -> tuple:
    """(a, b, A, B, threshold) for the step-3 gate a + b < min(A, B), with
    the sides in gate_sides order: a and b are their least areas.

    Rules 1.5/1.6: A and B are their next areas; threshold None.
    Rules 2.4/2.5: A is the first non-cancelling level of the non-monotone
    side, B is None (infinity), and threshold is (side name,
    ThresholdResult).
    """
    first, second = gate_sides(left, right, monotone_variant)
    a, b = least_area(first), least_area(second)
    if not monotone_variant:
        return a, b, next_area(first), next_area(second), None
    threshold = cancellation_threshold(
        first, ring, subspace=first.subspace if use_subspaces else None)
    return a, b, threshold.effective_bound, None, (first.name, threshold)


def side_subspace(side, use_subspaces: bool):
    """The subspace the side is evaluated with: None without subspaces, else
    its own, which must exist."""
    if not use_subspaces:
        return None
    if side.subspace is None:
        raise ValidationError(f"side {side.name}: subspace evaluation "
                              f"requested but no subspace is defined")
    return side.subspace


def evaluate_pair(scenario: Scenario, use_subspaces: bool = False,
                  monotone_variant: bool = False,
                  ring: Ring | None = None) -> Verdict:
    """Run the decision tree on a two-sided scenario; returns an auditable
    verdict and never raises for a merely inconclusive situation."""
    if len(scenario.sides) != 2:
        raise TwoSidedRequired("evaluate_pair needs a two-sided scenario")
    ring = ring or scenario.ring
    left, right = scenario.sides
    form = scenario.form
    audit = []
    notes = []

    def record(check, inputs, value):
        audit.append({"check": check, "inputs": inputs, "value": value})

    # 1. topological intersection of the fundamental classes
    fund_pairing = pair(form, left.fundamental_class,
                        right.fundamental_class, ring)
    record("fundamental_pairing",
           {"left": left.name, "right": right.name, "ring": ring.name},
           str(fund_pairing))
    if fund_pairing != 0:
        return Verdict(TOPOLOGICAL, audit=audit, notes=notes)

    # 2. string invariants (and the lower-index pairings)
    sub_left = side_subspace(left, use_subspaces)
    sub_right = side_subspace(right, use_subspaces)
    try:
        oc_left = oc_low(left, ring, subspace=sub_left)
        oc_right = oc_low(right, ring, subspace=sub_right)
    except (CancellationFails, NoLift, InsufficientLedger,
            MissingLocalSystem) as exc:
        record("invariant", {"ring": ring.name}, f"undefined: {exc}")
        return Verdict(INCONCLUSIVE, reason=f"invariant undefined: {exc}",
                       audit=audit, notes=notes)
    for oc in (oc_left, oc_right):
        notes.extend(oc.notes)
    record("oc_low_left", {"side": left.name, "ring": ring.name,
                           "subspace": use_subspaces}, oc_left.describe())
    record("oc_low_right", {"side": right.name, "ring": ring.name,
                            "subspace": use_subspaces}, oc_right.describe())

    lower_left = pair(form, left.fundamental_class, oc_right.value, ring)
    lower_right = pair(form, right.fundamental_class, oc_left.value, ring)
    record("lower_index_pairings", {},
           f"[L].oc_K = {lower_left}, [K].oc_L = {lower_right}")
    if lower_left != 0 or lower_right != 0:
        return Verdict(NON_DISPLACEABLE, theorem=RULE_LOWER_INDEX,
                       audit=audit, notes=notes)

    # 3. areas and the gate
    try:
        a, b, big_a, big_b, threshold = gate_inputs(
            left, right, ring, use_subspaces, monotone_variant)
    except (InsufficientLedger, HypothesisViolated) as exc:
        record("area_spectrum", {}, f"undefined: {exc}")
        return Verdict(INCONCLUSIVE, reason=f"area spectrum unavailable: {exc}",
                       audit=audit, notes=notes)
    if threshold is not None:
        side, result = threshold
        record("cancellation_threshold", {"side": side, "ring": ring.name},
               _describe_threshold(result))

    reason = gate_reason(a, b, big_a, big_b)
    record("area_gate",
           {"a": _fmt(a), "b": _fmt(b), "A": _fmt(big_a), "B": _fmt(big_b)},
           "fail" if reason else "pass")
    if reason:
        if a + b == min(x for x in (big_a, big_b) if x is not None):
            notes.append("boundary case a+b = min(A,B): the strict gate "
                         "fails; a continuity argument may still apply")
        return Verdict(INCONCLUSIVE, reason=reason, audit=audit, notes=notes)

    # ambiguity of the lift must not be able to change the outcome
    if not (oc_left.lift_unique and oc_right.lift_unique):
        return Verdict(INCONCLUSIVE, reason="ambiguous pairing",
                       audit=audit, notes=notes)

    pairing = pair(form, oc_left.value, oc_right.value, ring)
    raw = pair(form, oc_left.value, oc_right.value, Ring.rationals())
    record("invariant_pairing", {"ring": ring.name, "representative": str(raw)},
           str(pairing))
    if pairing == 0:
        return Verdict(INCONCLUSIVE,
                       reason=f"pairing {raw} = 0 in {ring.name}",
                       audit=audit, notes=notes)

    if monotone_variant:
        rule = RULE_MONOTONE_SUBSPACE if use_subspaces else RULE_MONOTONE
    else:
        rule = RULE_SUBSPACE if use_subspaces else RULE_PLAIN
    return Verdict(NON_DISPLACEABLE, theorem=rule, audit=audit, notes=notes)


def _describe_threshold(result: ThresholdResult) -> str:
    if result.threshold is not None:
        return f"first non-cancelling level {_fmt(result.threshold)}"
    return f">= cutoff {_fmt(result.cutoff)} (all listed levels cancel)"
