"""Command-line front end.

Subcommands: validate, invariant, criterion, sweep, potential, probes,
builtin-list.  Reports are deterministic JSON (sorted keys) by default, or
plain text rendered from the same payload with --format text.

Exit codes: 0 success (whatever the verdict), 2 usage error, 3 validation
error, 4 computation error.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import os
import re
import sys
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .criterion import (evaluate_pair, gate_failure, gate_inputs, gate_sides,
                        side_subspace)
from .errors import (BadParams, DimensionMismatch, FloerDiskError, SchemaError,
                     UnknownLabel, UnknownScenario, ValidationError)
from .invariants import area_spectrum, oc_low
from .potential import (potential_from_ledger, residue_critical_points,
                        truncate_to_level, unit_critical_analysis)
from .probes import builtin_polytope, polytope_from_json, search_probes
from .rings import PRIME_FIELD, Ring, parse_rational, rational_str
from .scenario import (A_INTERVALS, AffineSubspace, BUILTIN_NAMES, Scenario,
                       builtin_row, builtin_scenario, check_a, combine,
                       decode_json, load_scenario)

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


def _load_scenario_file(path: str) -> Scenario:
    candidates = [path]
    if not os.path.isabs(path):
        search = os.environ.get("FLOER_LEDGER_PATH", "").split(os.pathsep)
        candidates += [os.path.join(d, path) for d in search if d]
    for candidate in candidates:
        if os.path.exists(candidate):
            with open(candidate, "rb") as handle:
                return load_scenario(handle.read())
    raise FileNotFoundError(f"scenario file not found: {path}")


def _resolve_scenario(ref: str) -> Scenario:
    """A builtin 'name' or 'name:a=1/10', else a scenario file."""
    name, _, param_text = ref.partition(":")
    if name not in BUILTIN_NAMES:
        return _load_scenario_file(ref)
    params = (_parse_assignments(param_text, "parameter", parse_rational)
              if param_text else {})
    return builtin_scenario(name, params)


def _parse_subspace(text: str, field: Ring) -> AffineSubspace:
    base_text, _, span_text = text.partition(";")
    base = tuple(int(x) for x in base_text.split(","))
    span = tuple(tuple(int(x) for x in row.split(","))
                 for row in span_text.split("|") if row)
    try:
        return AffineSubspace(field, base, span)
    except DimensionMismatch as exc:
        raise BadParams(f"--subspace: {exc}") from exc


def _field(args) -> Ring | None:
    """--field as a prime field, or None when it is not given; a name that
    is no ring is a usage error, any other ring BadParams."""
    if args.field is None:
        return None
    # the coefficient ring and the subspace field are independent
    # choices; subspace mode therefore wants both spelled out
    if args.ring is None:
        raise _UsageError("--field requires an explicit --ring")
    field = Ring.parse(args.field)
    if field.kind != PRIME_FIELD:
        raise BadParams(f"--field {field.name} is not a prime field")
    return field


def _check_field(sides, field: Ring | None) -> None:
    """Every subspace of the sides evaluated under --field lies over it."""
    if field is None:
        return
    for side in sides:
        if side.subspace is not None and side.subspace.field != field:
            raise BadParams(f"side {side.name}: its subspace lies over "
                            f"{side.subspace.field.name}, not over --field "
                            f"{field.name}")


def _side_overrides(args, field: Ring | None) -> dict:
    """The --subspace / --local-system overrides of the first side."""
    overrides = {}
    if args.subspace is not None:
        if field is None:
            raise BadParams("--subspace requires --field")
        overrides["subspace"] = _parse_subspace(args.subspace, field)
    if args.local_system is not None:
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
    return "\n".join(lines)


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "text":
        stream.write(_render_text(report) + "\n")
    else:
        stream.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _oc_payload(invariant) -> dict:
    group = invariant.group
    return {
        "coords": [str(c) for c in invariant.value],
        "basis": list(group.generator_labels),
        "ring": invariant.ring.name,
        "value": invariant.describe(),
        "ambiguity": group.describe(invariant.ambiguity),
        "asserted": invariant.asserted,
        "selected": list(invariant.selected),
        "notes": list(invariant.notes),
    }


# --- subcommands --------------------------------------------------------------

def _cmd_validate(args):
    scenario = _resolve_scenario(args.scenario)
    result = {"valid": True,
              "sides": [{"name": s.name,
                         "disks": len(s.ledger.disks),
                         "monotone": s.monotone}
                        for s in scenario.sides]}
    return _report("validate", scenario, {"scenario": args.scenario}, result)


def _cmd_invariant(args):
    field = _field(args)
    scenario = _apply_side_overrides(_resolve_scenario(args.scenario),
                                     _side_overrides(args, field))
    side = scenario.sides[0]
    _check_field([side], field)
    ring = scenario.ring if args.ring is None else Ring.parse(args.ring)
    subspace = side_subspace(side, field is not None)
    spectrum = area_spectrum(side)
    invariant = oc_low(side, ring, subspace=subspace)
    result = dict(spectrum.as_dict())
    result["oc_low"] = _oc_payload(invariant)
    options = {"ring": ring.name, "subspaces": field is not None}
    return _report("invariant", scenario, options, result,
                   warnings=invariant.notes)


def _verdict_result(verdict) -> dict:
    result = verdict.as_dict()
    for entry in verdict.audit:
        if entry["check"] == "invariant_pairing":
            result["pairing"] = entry["value"]
    return result


def _cmd_criterion(args):
    field = _field(args)
    scenario = _apply_side_overrides(_resolve_scenario(args.scenario),
                                     _side_overrides(args, field))
    if args.vs is not None:
        scenario = combine(scenario, _resolve_scenario(args.vs))
    if len(scenario.sides) < 2:
        raise BadParams("criterion needs two sides: give --vs or a "
                        "two-sided scenario")
    _check_field(scenario.sides, field)
    ring = scenario.ring if args.ring is None else Ring.parse(args.ring)
    verdict = evaluate_pair(scenario, use_subspaces=field is not None,
                            monotone_variant=args.monotone_variant,
                            ring=ring)
    options = {"ring": ring.name, "subspaces": field is not None,
               "monotone_variant": args.monotone_variant}
    if field is not None:
        options["field"] = args.field
    return _report("criterion", scenario, options, _verdict_result(verdict),
                   warnings=verdict.notes)


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
    den = math.lcm(start.denominator, step.denominator)
    first, stride = int(start * den), int(step * den)
    return [Fraction(first + i * stride, den) for i in range(count)]


def _gate_lines(name: str, scenario: Scenario, a: Fraction, start: Fraction,
                step: Fraction, ring: Ring, use_subspaces: bool,
                monotone_variant: bool):
    """(lines, m): the gate's a + b, then its finite bounds among A and B, as
    lines (u, v) worth (u + v*i) / m at every grid point i inside the swept
    builtin's open interval; one line with no bound when the gate inputs are
    undefined at the interior point a, and so everywhere inside.  Of the
    gate's two (least area, bound) pairs, the --vs side gives a constant one
    and the swept side the other, each input the one row of the builtin's
    table worth it at a."""
    swept, partner = scenario.sides
    try:
        least_a, least_b, big_a, big_b, _ = gate_inputs(
            swept, partner, ring, use_subspaces, monotone_variant)
    except FloerDiskError:
        return [(0, 0)], 1
    pairs = [(least_a, big_a), (least_b, big_b)]
    if gate_sides(swept, partner, monotone_variant)[0] is not swept:
        pairs.reverse()
    (least, bound), (other_least, other_bound) = pairs
    c0, c1 = builtin_row(name, least, a)
    rows = [(c0 + other_least, c1)]
    if bound is not None:
        rows.append(builtin_row(name, bound, a))
    if other_bound is not None:
        rows.append((other_bound, 0))
    on_grid = [(c0 + c1 * start, c1 * step) for c0, c1 in rows]
    m = math.lcm(*(x.denominator for row in on_grid for x in row))
    return [(int(x * m), int(y * m)) for x, y in on_grid], m


def _gate_threshold(lines: list, start: Fraction, step: Fraction,
                    high: Fraction):
    """The t such that, on the open interval, the gate passes iff a < t, or
    None when there is none: the least root of the margins X - (a + b), X a
    finite bound, when each falls as a grows.  lines hold a + b, then the
    bounds, as (u, v): (u + v*i) / m at grid point i."""
    (sum_u, sum_v), *bounds = lines
    roots = []
    for u, v in bounds:
        if v >= sum_v:
            return None
        roots.append(start + step * Fraction(u - sum_u, sum_v - v))
    return min(roots, default=high)


def _cmd_sweep(args):
    """The decision tree runs once per gate outcome (pass or fail) that the
    grid meets inside the builtin's open interval, and once at the closed top
    end; every other point is answered by lookup, and a reason that is the
    gate's own is rendered again at that point's a."""
    field = _field(args)
    if args.param != "a":
        raise BadParams("only the parameter 'a' can be swept")
    if args.vs is None:
        raise BadParams("sweep needs the second side: give --vs")
    start = parse_rational(args.start)
    stop = parse_rational(args.stop)
    step = parse_rational(args.step)
    name, _, param_text = args.scenario.partition(":")
    if name not in A_INTERVALS:
        raise BadParams("sweeps need a parametric builtin for the swept side")
    if param_text:
        raise BadParams(f"the swept builtin {args.scenario!r} takes no "
                        f"parameters; --from, --to and --step set a")
    ring = Ring.parse(args.ring) if args.ring is not None else None
    grid = _sweep_grid(start, stop, step)
    overrides = _side_overrides(args, field)
    second = _resolve_scenario(args.vs)
    low, high, top = A_INTERVALS[name]
    # the grid ascends and the interval is convex: past a first point inside,
    # the first point outside is the first one at or past the top end
    past = (bisect.bisect_right if top else bisect.bisect_left)(grid, high)
    for a in (grid[0], *grid[past:past + 1]):
        check_a(name, a)

    @functools.cache
    def scenario_at(a: Fraction) -> Scenario:
        return combine(_apply_side_overrides(builtin_scenario(name, {"a": a}),
                                             overrides), second)

    # the gate's lines are read at the first point, which is evaluated
    # anyway; a grid of only the closed top end reads them at the midpoint
    read_at = grid[0] if grid[0] != high else (low + high) / 2
    first = scenario_at(read_at)
    _check_field(first.sides, field)
    ring = ring or first.ring
    use_subspaces = field is not None
    lines, m = _gate_lines(name, first, read_at, start, step, ring,
                           use_subspaces, args.monotone_variant)
    (sum_u, sum_v), *bound_lines = lines
    threshold = _gate_threshold(lines, start, step, high)

    # key -> (its verdict, whether its reason is the gate's at its point);
    # the key is "top", or whether the gate passes at a
    verdicts, points = {}, []
    top_index = len(grid) - 1 if grid[-1] == high else None
    for i, a in enumerate(grid):
        bound = min([u + v * i for u, v in bound_lines], default=None)
        failure = gate_failure(sum_u + sum_v * i, bound, m)
        key = "top" if i == top_index else failure is None
        if key in verdicts:
            verdict, gated = verdicts[key]
            reason = failure if gated else verdict.reason
        else:
            verdict = evaluate_pair(scenario_at(a),
                                    use_subspaces=use_subspaces,
                                    monotone_variant=args.monotone_variant,
                                    ring=ring)
            reason = verdict.reason
            gated = reason == failure
            verdicts[key] = verdict, gated
        entry = {"a": rational_str(a), "conclusion": verdict.conclusion}
        if verdict.theorem:
            entry["theorem"] = verdict.theorem
        if reason:
            entry["reason"] = reason
        points.append(entry)
    result = {"param": args.param, "points": points}
    if threshold is not None and low < threshold < high:
        result["gate_threshold"] = rational_str(threshold)
        result["gate_passes_iff"] = f"a < {result['gate_threshold']}"
    options = {"ring": ring.name, "subspaces": use_subspaces,
               "monotone_variant": args.monotone_variant,
               "from": rational_str(start), "to": rational_str(stop),
               "step": rational_str(step)}
    return _report("sweep", scenario_at(grid[-1]), options, result)


def _cmd_potential(args):
    scenario = _resolve_scenario(args.scenario)
    side = scenario.sides[0]
    ring = (Ring.parse(args.residue_ring) if args.residue_ring is not None
            else None)
    if ring is not None and not ring.is_finite:
        raise BadParams(f"--residue-ring {ring.name}: the residue search "
                        f"needs a finite ring")
    hits = (_parse_assignments(args.bulk, "bulk", int)
            if args.bulk is not None else None)
    poly = potential_from_ledger(side, divisor_hits=hits)
    result = {"terms": poly.to_dicts()}
    if args.analyze_units:
        result["unit_analysis"] = unit_critical_analysis(poly).as_dict()
    if ring is not None:
        levels = poly.t_levels()
        truncated = truncate_to_level(poly, levels[0]) if levels else poly
        result["residue_level"] = rational_str(levels[0]) if levels else None
        result["residue_critical_points"] = [
            [str(z), str(w)]
            for z, w in residue_critical_points(truncated, ring)]
        result["residue_ring"] = ring.name
    options = {"bulk": args.bulk, "analyze_units": args.analyze_units,
               "residue_ring": args.residue_ring}
    return _report("potential", scenario, options, result)


def _cmd_probes(args):
    if args.polytope in ("p1xp1", "cp2"):
        poly = builtin_polytope(args.polytope)
    else:
        with open(args.polytope, "rb") as handle:
            poly = polytope_from_json(decode_json(handle.read()))
    x_text, _, y_text = args.point.partition(",")
    point = (parse_rational(x_text), parse_rational(y_text))
    hits = search_probes(poly, point, args.bound)
    result = {"polytope": poly.to_json_dict(),
              "point": [rational_str(point[0]), rational_str(point[1])],
              "bound": args.bound,
              "displaceable_by_probe": bool(hits),
              "displacing_probes": [h.as_dict() for h in hits]}
    return _report("probes", None, {"point": args.point, "bound": args.bound},
                   result)


def _cmd_builtin_list(args):
    entries = []
    for name in BUILTIN_NAMES:
        needs_a = name in A_INTERVALS
        entries.append({"name": name,
                        "parameters": ["a"] if needs_a else [],
                        "example": f"{name}:a=1/10" if needs_a else name})
    return _report("builtin-list", None, {}, {"builtins": entries})


# --- argument parsing -----------------------------------------------------------

class _StoreOnce(argparse.Action):
    """Store an option's value; an option given twice is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a token that starts with '-' and a digit is a value, as in
        # --point -1/4,1/4 or --from -1/4; argparse alone takes -1 and -.5
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self.register("action", None, _StoreOnce)
        self.register("action", "store", _StoreOnce)

    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _value(text: str) -> str:
    """An option value or scenario name; an empty one is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("the value is empty")
    return text


def _build_parser() -> _Parser:
    """The whole argv declaration; each subcommand registers exactly the
    options its handler reads."""
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    coefficients = _Parser(add_help=False)
    coefficients.add_argument("--ring", type=_value,
                              help="coefficient ring, e.g. Z/8")
    coefficients.add_argument(
        "--field", type=_value,
        help="prime field for subspace refinement, e.g. F2")
    coefficients.add_argument(
        "--subspace", type=_value,
        help="override side 1 subspace: 'b1,b2;s1,s2|t1,t2'")
    coefficients.add_argument(
        "--local-system", type=_value,
        help="override side 1 local system: 'gen=unit,...'")
    pair = _Parser(add_help=False)
    pair.add_argument("--vs", type=_value,
                      help="second side: builtin ref or file")
    pair.add_argument("--monotone-variant", action="store_true")

    parser = _Parser(prog="floerdisk")
    parser.add_argument("--version", action="store_true",
                        help="print the version and exit")
    sub = parser.add_subparsers(dest="command")

    def command(name, run, *parents, scenario=True, file=False):
        """A subcommand; by default it reads exactly one scenario name, which
        with file=True may also be a positional FILE."""
        p = sub.add_parser(name, parents=[fmt, *parents])
        p.set_defaults(run=run)
        if not scenario:
            return p
        names = p.add_mutually_exclusive_group(required=True)
        if file:
            names.add_argument("scenario", nargs="?", metavar="FILE",
                               type=_value, default=argparse.SUPPRESS,
                               help="scenario file (same as --scenario)")
        names.add_argument("--builtin", dest="scenario", type=_value,
                           help="builtin name, optionally name:a=1/10")
        names.add_argument("--scenario", type=_value,
                           help="scenario JSON file")
        return p

    command("validate", _cmd_validate, file=True)
    command("invariant", _cmd_invariant, coefficients)
    command("criterion", _cmd_criterion, coefficients, pair)
    p = command("sweep", _cmd_sweep, coefficients, pair)
    p.add_argument("--param", default="a")
    p.add_argument("--from", dest="start", required=True)
    p.add_argument("--to", dest="stop", required=True)
    p.add_argument("--step", required=True)
    p = command("potential", _cmd_potential)
    p.add_argument("--bulk", type=_value,
                   help="divisor hits per disk label: 'b=1'")
    p.add_argument("--analyze-units", action="store_true")
    p.add_argument("--residue-ring", type=_value,
                   help="finite ring for the truncated-level critical search")
    p = command("probes", _cmd_probes, scenario=False)
    p.add_argument("polytope", help="polytope JSON file, or 'p1xp1' / 'cp2'")
    p.add_argument("--point", required=True, help="interior point 'x,y'")
    p.add_argument("--bound", type=int, default=3)
    command("builtin-list", _cmd_builtin_list, scenario=False)
    return parser


_PARSER = _build_parser()


def _write_error(out, kind: str, exc: Exception, code: int) -> int:
    _emit({"error": {"type": kind, "message": str(exc)}}, "json", out)
    return code


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _PARSER.parse_args(argv)
        if args.version:
            if args.command is not None:
                raise _UsageError("--version takes no subcommand")
            out.write(__version__ + "\n")
            return 0
        if args.command is None:
            raise _UsageError("a subcommand is required")
        _emit(args.run(args), args.format, out)
        return 0
    except (_UsageError, ValueError) as exc:
        return _write_error(out, "usage", exc, USAGE_ERROR)
    except _VALIDATION_FAILURES as exc:
        return _write_error(out, type(exc).__name__, exc, VALIDATION_ERROR)
    except FloerDiskError as exc:
        return _write_error(out, type(exc).__name__, exc, COMPUTATION_ERROR)


if __name__ == "__main__":
    sys.exit(main())
