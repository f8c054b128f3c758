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
    if isinstance(x, Fraction):
        return rational_str(x)
    return str(x)


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


def area_gate(a, b, big_a, big_b) -> bool:
    """Strict inequality a + b < min(A, B); None plays the role of infinity."""
    total = Fraction(a) + Fraction(b)
    for bound in (big_a, big_b):
        if bound is not None and total >= bound:
            return False
    return True


def gate_inputs(left, right, ring: Ring, use_subspaces: bool = False,
                monotone_variant: bool = False) -> tuple:
    """(a, b, A, B, threshold) for the step-3 gate a + b < min(A, B).

    Rules 1.5/1.6: least and next areas of each side; threshold None.
    Rules 2.4/2.5: a and b are the least areas of the non-monotone and the
    monotone side, A is the first non-cancelling level of the former, B
    is None (infinity), and threshold is (side name, ThresholdResult).
    """
    if not monotone_variant:
        return (least_area(left), least_area(right), next_area(left),
                next_area(right), None)
    mono = [s for s in (left, right) if s.monotone]
    if len(mono) != 1:
        raise ValidationError(
            "monotone variant needs exactly one monotone side")
    other = right if mono[0] is left else left
    a, b = least_area(other), least_area(mono[0])
    threshold = cancellation_threshold(
        other, ring, subspace=other.subspace if use_subspaces else None)
    return a, b, threshold.effective_bound, None, (other.name, threshold)


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
    fund_pairing = pair(form, left.fundamental_element(),
                        right.fundamental_element(), ring)
    record("fundamental_pairing",
           {"left": left.name, "right": right.name, "ring": ring.name},
           str(fund_pairing))
    if not fund_pairing.is_zero:
        return Verdict(TOPOLOGICAL, audit=audit, notes=notes)

    # 2. string invariants (and the lower-index pairings)
    if use_subspaces:
        for side in (left, right):
            if side.subspace is None:
                raise ValidationError(
                    f"side {side.name}: subspace evaluation requested but no "
                    f"subspace is defined")
    try:
        oc_left = oc_low(left, ring,
                         subspace=left.subspace if use_subspaces else None)
        oc_right = oc_low(right, ring,
                          subspace=right.subspace if use_subspaces else None)
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

    lower_left = pair(form, left.fundamental_element(), oc_right.value, ring)
    lower_right = pair(form, right.fundamental_element(), oc_left.value, ring)
    record("lower_index_pairings", {},
           f"[L].oc_K = {lower_left}, [K].oc_L = {lower_right}")
    if not lower_left.is_zero or not lower_right.is_zero:
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

    gate = area_gate(a, b, big_a, big_b)
    record("area_gate",
           {"a": _fmt(a), "b": _fmt(b), "A": _fmt(big_a), "B": _fmt(big_b)},
           "pass" if gate else "fail")
    if not gate:
        bounds = [x for x in (big_a, big_b) if x is not None]
        min_bound = min(bounds) if bounds else None
        if min_bound is not None and a + b == min_bound:
            notes.append("boundary case a+b = min(A,B): the strict gate "
                         "fails; a continuity argument may still apply")
            reason = (f"area gate boundary: a+b = {_fmt(a + b)} equals "
                      f"min(A,B)")
        else:
            reason = (f"area gate: a+b = {_fmt(a + b)} >= min(A,B) = "
                      f"{_fmt(min_bound)}")
        return Verdict(INCONCLUSIVE, reason=reason, audit=audit, notes=notes)

    # ambiguity of the lift must not be able to change the outcome
    if not (oc_left.lift_unique and oc_right.lift_unique):
        return Verdict(INCONCLUSIVE, reason="ambiguous pairing",
                       audit=audit, notes=notes)

    pairing = pair(form, oc_left.value, oc_right.value, ring)
    raw = pair(form, oc_left.value, oc_right.value, Ring.rationals())
    record("invariant_pairing", {"ring": ring.name, "representative": str(raw)},
           str(pairing))
    if pairing.is_zero:
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
    if result.cutoff is not None:
        return f">= cutoff {_fmt(result.cutoff)} (all listed levels cancel)"
    return "no non-cancelling level; ledger complete at every area"
