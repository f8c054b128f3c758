"""Command-line front end.

Subcommands: validate, invariant, criterion, sweep, potential, probes,
builtin-list.  Reports are deterministic JSON (sorted keys) by default, or
plain text rendered from the same payload with --format text.

Exit codes: 0 success (whatever the verdict), 2 usage error, 3 validation
error, 4 computation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .criterion import evaluate_pair, gate_inputs
from .errors import (BadParams, DimensionMismatch, FloerDiskError, SchemaError,
                     UnknownLabel, UnknownScenario, ValidationError)
from .invariants import area_spectrum, oc_low
from .potential import (potential_from_ledger, residue_critical_points,
                        truncate_to_level, unit_critical_analysis)
from .probes import builtin_polytope, polytope_from_json, search_probes
from .rings import Ring, parse_rational, rational_str
from .scenario import (A_INTERVALS, AffineSubspace, BUILTIN_NAMES, Scenario,
                       builtin_scenario, combine, load_scenario)

USAGE_ERROR = 2
VALIDATION_ERROR = 3
COMPUTATION_ERROR = 4

# OSError covers scenario and polytope files that are missing, are
# directories or cannot be read; UnknownLabel is a --bulk label that names
# no disk.
_VALIDATION_FAILURES = (SchemaError, ValidationError, UnknownScenario,
                        BadParams, UnknownLabel, OSError)

# Most points a sweep may have; the grid is counted before any is evaluated.
SWEEP_POINT_LIMIT = 10_000


def _parse_assignments(text: str, what: str, parse) -> dict:
    """'key=value,...' as a dict of parsed values; a chunk without '=value'
    or a key given twice is BadParams."""
    out = {}
    for chunk in text.split(","):
        key, _, value = chunk.partition("=")
        key = key.strip()
        if not value:
            raise BadParams(f"bad {what} assignment {chunk!r}")
        if key in out:
            raise BadParams(f"{what} {key!r} given twice")
        out[key] = parse(value)
    return out


def _parse_builtin_ref(text: str) -> Scenario:
    name, _, param_text = text.partition(":")
    params = (_parse_assignments(param_text, "parameter", parse_rational)
              if param_text else {})
    return builtin_scenario(name.strip(), params)


def _scenario_search_paths():
    raw = os.environ.get("FLOER_LEDGER_PATH", "")
    return [p for p in raw.split(os.pathsep) if p]


def _load_scenario_file(path: str) -> Scenario:
    candidates = [path]
    if not os.path.isabs(path):
        candidates += [os.path.join(d, path) for d in _scenario_search_paths()]
    for candidate in candidates:
        if os.path.exists(candidate):
            with open(candidate, "rb") as handle:
                return load_scenario(handle.read())
    raise FileNotFoundError(f"scenario file not found: {path}")


def _resolve_scenario(ref: str) -> Scenario:
    base = ref.partition(":")[0]
    if base in BUILTIN_NAMES:
        return _parse_builtin_ref(ref)
    return _load_scenario_file(ref)


def _parse_subspace(text: str, field: Ring) -> AffineSubspace:
    base_text, _, span_text = text.partition(";")
    base = tuple(int(x) for x in base_text.split(","))
    span = tuple(tuple(int(x) for x in row.split(","))
                 for row in span_text.split("|") if row)
    try:
        return AffineSubspace(field, base, span)
    except DimensionMismatch as exc:
        raise BadParams(f"--subspace: {exc}") from exc


def _side_overrides(args) -> dict:
    """The --subspace / --local-system overrides of the first side."""
    overrides = {}
    if args.subspace:
        if not args.field:
            raise BadParams("--subspace requires --field")
        overrides["subspace"] = _parse_subspace(args.subspace,
                                                Ring.parse(args.field))
    if args.local_system:
        overrides["local_system"] = _parse_assignments(
            args.local_system, "local-system", parse_rational)
    return overrides


def _apply_side_overrides(scenario: Scenario, overrides: dict) -> Scenario:
    if not overrides:
        return scenario
    return Scenario(scenario.h2x, scenario.form,
                    (replace(scenario.sides[0], **overrides),)
                    + scenario.sides[1:], scenario.ring)


def _report(command: str, scenario: Scenario | None, options: dict,
            result: dict, warnings=()) -> dict:
    report = {"command": command, "version": __version__,
              "options": options, "result": result,
              "warnings": list(warnings)}
    if scenario is not None:
        report["scenario"] = {"digest": scenario.digest(),
                              "sides": [s.name for s in scenario.sides],
                              "ring": scenario.ring.name}
    return report


def _render_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return "\n".join(lines)


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "text":
        stream.write(_render_text(report) + "\n")
    else:
        stream.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _oc_payload(invariant, side) -> dict:
    group = invariant.value.group
    return {
        "coords": [str(c) for c in invariant.value.coords],
        "basis": list(group.generator_labels),
        "ring": invariant.ring.name,
        "value": invariant.describe(),
        "ambiguity": group.describe(invariant.ambiguity.coords),
        "asserted": invariant.asserted,
        "selected": list(invariant.selected),
        "notes": list(invariant.notes),
    }


# --- subcommands --------------------------------------------------------------

def _cmd_validate(args, out):
    scenario = _resolve_scenario(args.scenario)
    result = {"valid": True,
              "sides": [{"name": s.name,
                         "disks": len(s.ledger.disks),
                         "monotone": s.monotone}
                        for s in scenario.sides]}
    _emit(_report("validate", scenario, {"scenario": args.scenario}, result),
          args.format, out)
    return 0


def _cmd_invariant(args, out):
    scenario = _apply_side_overrides(_resolve_scenario(args.scenario),
                                     _side_overrides(args))
    side = scenario.sides[0]
    ring = Ring.parse(args.ring) if args.ring else scenario.ring
    subspace = side.subspace if args.field else None
    spectrum = area_spectrum(side)
    invariant = oc_low(side, ring, subspace=subspace)
    result = dict(spectrum.as_dict())
    result["oc_low"] = _oc_payload(invariant, side)
    options = {"ring": ring.name, "subspaces": bool(args.field)}
    _emit(_report("invariant", scenario, options, result,
                  warnings=invariant.notes), args.format, out)
    return 0


def _verdict_result(verdict) -> dict:
    result = verdict.as_dict()
    for entry in verdict.audit:
        if entry["check"] == "invariant_pairing":
            result["pairing"] = entry["value"]
    return result


def _cmd_criterion(args, out):
    scenario = _apply_side_overrides(_resolve_scenario(args.scenario),
                                     _side_overrides(args))
    if args.vs:
        scenario = combine(scenario, _resolve_scenario(args.vs))
    if len(scenario.sides) < 2:
        raise BadParams("criterion needs two sides: give --vs or a "
                        "two-sided scenario")
    ring = Ring.parse(args.ring) if args.ring else scenario.ring
    verdict = evaluate_pair(scenario, use_subspaces=bool(args.field),
                            monotone_variant=args.monotone_variant,
                            ring=ring)
    options = {"ring": ring.name, "subspaces": bool(args.field),
               "monotone_variant": args.monotone_variant}
    if args.field:
        options["field"] = args.field
    _emit(_report("criterion", scenario, options, _verdict_result(verdict),
                  warnings=verdict.notes), args.format, out)
    return 0


def _sweep_grid(start: Fraction, stop: Fraction, step: Fraction) -> list:
    """start, start + step, ... up to stop, counted exactly before it is built."""
    if step <= 0:
        raise BadParams("--step must be positive")
    count = (stop - start) // step + 1
    if count < 1:
        raise BadParams(f"empty sweep grid: --from {rational_str(start)} is "
                        f"above --to {rational_str(stop)}")
    if count > SWEEP_POINT_LIMIT:
        raise BadParams(f"sweep grid has {count} points; the limit is "
                        f"{SWEEP_POINT_LIMIT}")
    return [start + i * step for i in range(count)]


def _margin_root(inputs_at, low: Fraction, high: Fraction):
    """The t in (low, high), as a string, such that for a in (low, high)
    the area gate passes iff a < t; None when there is no such t.

    Every gate input is affine in a on the builtin's open interval, so two
    exact evaluations inside it fix each margin X(a) - (a + b), X in {A, B}.
    Each margin falls as a grows: a + b holds the swept side's least area,
    a itself, and no bound grows with a.  Any other margin gives None.
    """
    t1, t2 = low + (high - low) / 3, high - (high - low) / 3
    try:
        (a1, b1, *bounds1, _), (a2, b2, *bounds2, _) = map(inputs_at, (t1, t2))
    except FloerDiskError:
        return None
    roots = []
    for x1, x2 in zip(bounds1, bounds2):
        if x1 is None:
            continue
        m1, m2 = x1 - a1 - b1, x2 - a2 - b2
        if m2 >= m1:
            return None
        roots.append(t1 + m1 * (t2 - t1) / (m1 - m2))
    t = min(roots, default=high)
    return rational_str(t) if low < t < high else None


def _cmd_sweep(args, out):
    if args.param != "a":
        raise BadParams("only the parameter 'a' can be swept")
    if not args.vs:
        raise BadParams("sweep needs the second side: give --vs")
    start = parse_rational(args.start)
    stop = parse_rational(args.stop)
    step = parse_rational(args.step)
    name = args.scenario.partition(":")[0]
    if name not in A_INTERVALS:
        raise BadParams("sweeps need a parametric builtin for the swept side")
    ring = Ring.parse(args.ring) if args.ring else None
    grid = _sweep_grid(start, stop, step)
    overrides = _side_overrides(args)
    second = _resolve_scenario(args.vs)

    def scenario_at(a: Fraction) -> Scenario:
        return combine(_apply_side_overrides(builtin_scenario(name, {"a": a}),
                                             overrides), second)

    points = []
    for a in grid:
        scenario = scenario_at(a)
        ring = ring or scenario.ring
        verdict = evaluate_pair(scenario, use_subspaces=bool(args.field),
                                monotone_variant=args.monotone_variant,
                                ring=ring)
        entry = {"a": rational_str(a), "conclusion": verdict.conclusion}
        if verdict.theorem:
            entry["theorem"] = verdict.theorem
        if verdict.reason:
            entry["reason"] = verdict.reason
        points.append(entry)
    result = {"param": args.param, "points": points}
    threshold = _margin_root(
        lambda t: gate_inputs(*scenario_at(t).sides, ring, bool(args.field),
                              args.monotone_variant),
        *A_INTERVALS[name][:2])
    if threshold is not None:
        result["gate_threshold"] = threshold
        result["gate_passes_iff"] = f"a < {threshold}"
    options = {"ring": ring.name, "subspaces": bool(args.field),
               "monotone_variant": args.monotone_variant,
               "from": rational_str(start), "to": rational_str(stop),
               "step": rational_str(step)}
    _emit(_report("sweep", scenario, options, result), args.format, out)
    return 0


def _cmd_potential(args, out):
    scenario = _apply_side_overrides(_resolve_scenario(args.scenario),
                                     _side_overrides(args))
    side = scenario.sides[0]
    hits = _parse_assignments(args.bulk, "bulk", int) if args.bulk else None
    poly = potential_from_ledger(side, divisor_hits=hits)
    result = {"terms": poly.to_dicts()}
    warnings = []
    if args.analyze_units:
        result["unit_analysis"] = unit_critical_analysis(poly).as_dict()
    if args.residue_ring:
        ring = Ring.parse(args.residue_ring)
        levels = poly.t_levels()
        truncated = truncate_to_level(poly, levels[0]) if levels else poly
        result["residue_level"] = rational_str(levels[0]) if levels else None
        result["residue_critical_points"] = [
            [str(z), str(w)]
            for z, w in residue_critical_points(truncated, ring)]
        result["residue_ring"] = ring.name
    options = {"bulk": args.bulk, "analyze_units": args.analyze_units,
               "residue_ring": args.residue_ring}
    _emit(_report("potential", scenario, options, result, warnings=warnings),
          args.format, out)
    return 0


def _cmd_probes(args, out):
    if args.polytope in ("p1xp1", "cp2"):
        poly = builtin_polytope(args.polytope)
    else:
        with open(args.polytope, "rb") as handle:
            poly = polytope_from_json(json.loads(handle.read().decode()))
    x_text, _, y_text = args.point.partition(",")
    point = (parse_rational(x_text), parse_rational(y_text))
    hits = search_probes(poly, point, args.bound)
    result = {"polytope": poly.to_json_dict(),
              "point": [rational_str(point[0]), rational_str(point[1])],
              "bound": args.bound,
              "displaceable_by_probe": bool(hits),
              "displacing_probes": [h.as_dict() for h in hits]}
    _emit(_report("probes", None, {"point": args.point, "bound": args.bound},
                  result), args.format, out)
    return 0


def _cmd_builtin_list(args, out):
    entries = []
    for name in BUILTIN_NAMES:
        needs_a = name in A_INTERVALS
        entries.append({"name": name,
                        "parameters": ["a"] if needs_a else [],
                        "example": f"{name}:a=1/10" if needs_a else name})
    _emit(_report("builtin-list", None, {}, {"builtins": entries}),
          args.format, out)
    return 0


# --- argument parsing -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="floerdisk")
    parser.add_argument("--version", action="store_true",
                        help="print the version and exit")
    sub = parser.add_subparsers(dest="command")

    def add_common(p, scenario=True):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if scenario:
            p.add_argument("--builtin", dest="scenario",
                           help="builtin name, optionally name:a=1/10")
            p.add_argument("--scenario", dest="scenario_file",
                           help="scenario JSON file")
            p.add_argument("--ring", help="coefficient ring, e.g. Z/8")
            p.add_argument("--field",
                           help="prime field for subspace refinement, e.g. F2")
            p.add_argument("--subspace",
                           help="override side 1 subspace: 'b1,b2;s1,s2|t1,t2'")
            p.add_argument("--local-system", dest="local_system",
                           help="override side 1 local system: 'gen=unit,...'")

    p = sub.add_parser("validate")
    p.add_argument("target", nargs="?",
                   help="scenario file (same as --scenario)")
    add_common(p)

    p = sub.add_parser("invariant")
    add_common(p)

    p = sub.add_parser("criterion")
    add_common(p)
    p.add_argument("--vs", help="second side: builtin ref or file")
    p.add_argument("--monotone-variant", dest="monotone_variant",
                   action="store_true")

    p = sub.add_parser("sweep")
    add_common(p)
    p.add_argument("--vs", help="second side: builtin ref or file")
    p.add_argument("--monotone-variant", dest="monotone_variant",
                   action="store_true")
    p.add_argument("--param", default="a")
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--to", dest="stop", required=True)
    p.add_argument("--step", required=True)

    p = sub.add_parser("potential")
    add_common(p)
    p.add_argument("--bulk", help="divisor hits per disk label: 'b=1'")
    p.add_argument("--analyze-units", dest="analyze_units",
                   action="store_true")
    p.add_argument("--residue-ring", dest="residue_ring",
                   help="finite ring for the truncated-level critical search")

    p = sub.add_parser("probes")
    p.add_argument("polytope", help="polytope JSON file, or 'p1xp1' / 'cp2'")
    p.add_argument("--point", required=True, help="interior point 'x,y'")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("builtin-list")
    p.add_argument("--format", choices=("json", "text"), default="json")

    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "invariant": _cmd_invariant,
    "criterion": _cmd_criterion,
    "sweep": _cmd_sweep,
    "potential": _cmd_potential,
    "probes": _cmd_probes,
    "builtin-list": _cmd_builtin_list,
}


def _write_error(out, kind: str, exc: Exception, code: int) -> int:
    out.write(json.dumps({"error": {"type": kind, "message": str(exc)}},
                         indent=2, sort_keys=True) + "\n")
    return code


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "version", False) and args.command is None:
            out.write(__version__ + "\n")
            return 0
        if args.command is None:
            raise _UsageError("a subcommand is required")
        if hasattr(args, "scenario"):
            if getattr(args, "target", None):
                if args.scenario or args.scenario_file:
                    raise _UsageError(
                        "give either a positional file or --builtin/--scenario")
                args.scenario_file = args.target
            if args.scenario and args.scenario_file:
                raise _UsageError("--builtin and --scenario are exclusive")
            if args.scenario_file:
                args.scenario = args.scenario_file
            if not args.scenario and args.command != "builtin-list":
                raise _UsageError("one of --builtin or --scenario is required")
            # the coefficient ring and the subspace field are independent
            # choices; subspace mode therefore wants both spelled out
            if getattr(args, "field", None) and not args.ring:
                raise _UsageError("--field requires an explicit --ring")
        return _COMMANDS[args.command](args, out)
    except (_UsageError, ValueError) as exc:
        return _write_error(out, "usage", exc, USAGE_ERROR)
    except _VALIDATION_FAILURES as exc:
        return _write_error(out, type(exc).__name__, exc, VALIDATION_ERROR)
    except FloerDiskError as exc:
        return _write_error(out, type(exc).__name__, exc, COMPUTATION_ERROR)


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
