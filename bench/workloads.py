"""Seeded workloads for the floerdisk benchmark, and checks on their outputs.

Every op is one call of ``floerdisk.cli.main(argv, out=buffer)``.  A workload
hands out its ops in *cycles*: one cycle is a balanced set of inputs (every
ring size, every direction bound, every sweep pair and grid-size band ...)
in a seeded order with seeded parameters.  The inputs that set an op's cost
are fixed (which rings get the bulk flag) or rotate from cycle to cycle
from a seeded phase (which grid denominator a band uses, ...), so over a
run's cycles two seeds measure the same mix of costs.  This keeps the
seed-to-seed spread of the timings down to the machine's own noise.

The checks are independent of the program: they use the benchmark's own
copy of the ledger data and the thresholds from the paper, plus the probe
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

OK, INVALID = 0, 3


@dataclass
class Op:
    """One CLI call with its expected exit code and an output check.

    ``check`` takes the parsed JSON report and returns None when the output
    is right, or a short description of what is wrong.  ``points`` is the
    number of criterion evaluations the op asks for (sweep grid points, or
    one for a criterion call); the traced run divides by it.
    """

    argv: list
    expect_code: int
    check: Callable[[dict], str | None]
    points: int = 0


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _rational_in(rng: random.Random, low: Fraction, high: Fraction,
                 closed_top: bool) -> Fraction:
    """A seeded rational strictly above low and below (or at) high."""
    while True:
        q = rng.randint(5, 40)
        p = rng.randint(1, q)
        x = low + (high - low) * Fraction(p, q)
        if low < x < high or (closed_top and x == high):
            return x


# --- ledger data and paper thresholds ----------------------------------------

# cp2_ta ledger: (boundary in H1, count, area as a function of a).  Only the
# lowest area level enters the residue search.
CP2_TA_DISKS = (
    ((-2, -1), 1, lambda a: a),
    ((-2, 0), 2, lambda a: a),
    ((-2, 1), 1, lambda a: a),
    ((1, 0), 1, lambda a: (1 - a) / 2),
)

# (first side, second side, ring/field flags, a range top, top closed,
#  threshold below which the rule proves non-displaceability, rule id)
SWEEP_PAIRS = (
    ("cp2_ta", "cp2_clifford", ["--ring", "Z/8"],
     Fraction(1, 3), True, Fraction(1, 9), "1.5"),
    ("p1xp1_ta", "p1xp1_clifford", ["--ring", "Z/2", "--field", "F2"],
     Fraction(1, 2), True, Fraction(1, 4), "1.6"),
    ("bl3_ta", "bl3_clifford",
     ["--ring", "Z/2", "--field", "F2", "--monotone-variant"],
     Fraction(1, 2), False, Fraction(1, 4), "2.5"),
)

BUILTINS = ("cp2_ta", "cp2_clifford", "p1xp1_ta", "p1xp1_clifford",
            "bl3_ta", "bl3_clifford", "ts2_la", "trp2_la")


def cp2_residue_points(n: int, a: Fraction) -> list:
    """Brute-force unit critical points of the lowest level of cp2_ta over Z/n.

    Plain ints throughout: both Laurent partials are summed term by term
    with ``pow(x, e, n)`` at every unit pair.
    """
    level = min(area(a) for _, _, area in CP2_TA_DISKS)
    terms = [(count, bz, bw) for (bz, bw), count, area in CP2_TA_DISKS
             if area(a) == level]
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    found = []
    for z in units:
        for w in units:
            dz = sum(c * bz * pow(z, bz - 1, n) * pow(w, bw, n)
                     for c, bz, bw in terms)
            dw = sum(c * bw * pow(z, bz, n) * pow(w, bw - 1, n)
                     for c, bz, bw in terms)
            if dz % n == 0 and dw % n == 0:
                found.append([str(z), str(w)])
    return found


_RESIDUE_CACHE: dict = {}


def residue_check(n: int, a: Fraction, bulk: bool):
    def check(report):
        result = report["result"]
        # below a = 1/3 the lowest level holds the same three disks for every a
        key = (n, a == Fraction(1, 3))
        if key not in _RESIDUE_CACHE:
            _RESIDUE_CACHE[key] = cp2_residue_points(n, a)
        if result.get("residue_ring") != f"Z/{n}":
            return "residue ring echo"
        # a <= (1 - a) / 2 on the whole range, so the lowest level is a
        if result.get("residue_level") != frac_str(a):
            return "residue level"
        if result.get("residue_critical_points") != _RESIDUE_CACHE[key]:
            return "residue critical points differ from brute force"
        if len(result.get("terms", ())) != len(CP2_TA_DISKS):
            return "potential term count"
        if bulk and "unit_analysis" not in result:
            return "missing unit analysis"
        return None
    return check


def residue_argv(n: int, a: Fraction, bulk: bool) -> list:
    argv = ["potential", "--builtin", f"cp2_ta:a={frac_str(a)}",
            "--residue-ring", f"Z/{n}"]
    if bulk:
        argv += ["--bulk", "b=1", "--analyze-units"]
    return argv


def verdict_check(threshold: Fraction, rule: str, grid=None, a=None):
    """Sweep points (grid given) or one criterion verdict (a given)."""

    def conclusion_error(entry, value):
        expected = "non_displaceable" if value < threshold else "inconclusive"
        where = f"a={frac_str(value)}"
        if entry.get("conclusion") != expected:
            return f"{where}: {entry.get('conclusion')} != {expected}"
        if expected == "non_displaceable" and entry.get("theorem") != rule:
            return f"{where}: theorem {entry.get('theorem')} != {rule}"
        return None

    def check(report):
        result = report["result"]
        if grid is None:
            return conclusion_error(result, a)
        points = result.get("points", [])
        if [p.get("a") for p in points] != [frac_str(x) for x in grid]:
            return "sweep grid differs"
        if result.get("gate_threshold") != frac_str(threshold):
            return f"gate_threshold {result.get('gate_threshold')}"
        for entry, value in zip(points, grid):
            error = conclusion_error(entry, value)
            if error:
                return error
        return None
    return check


# --- scenario templates (the benchmark's own, written as JSON files) ---------

def _group(gens, relations=()):
    return {"generators": list(gens),
            "relations": [list(r) for r in relations]}


def cp2_ta_document(a: Fraction) -> dict:
    """cp2_ta at a < 1/3 in the documented scenario schema."""
    def disk(label, rel, bd, area, count):
        return {"label": label, "rel_class": list(rel), "boundary": list(bd),
                "maslov": 2, "area": frac_str(area), "count": count}
    return {
        "ring": "Z/8", "H2_X": _group(["H"]), "form": [[1]],
        "sides": [{
            "name": "T_a", "H1_L": _group(["dbeta", "dalpha"]),
            "H2_XL": _group(["H", "beta", "alpha"]),
            "j": [[1], [0], [0]], "bd": [[0, 1, 0], [0, 0, 1]],
            "fundamental_class": [0], "monotone": False,
            "lattice_params": {"k": 3, "N": 2},
            "ledger": {"complete_below": frac_str(1 - 2 * a), "disks": [
                disk("H-2b-a", (1, -2, -1), (-2, -1), a, 1),
                disk("H-2b", (1, -2, 0), (-2, 0), a, 2),
                disk("H-2b+a", (1, -2, 1), (-2, 1), a, 1),
                disk("b", (0, 1, 0), (1, 0), (1 - a) / 2, 1)]}}]}


# (mutation, expected error type, message fragment)
def _drop_count(doc):
    del doc["sides"][0]["ledger"]["disks"][0]["count"]


def _bad_rational(doc):
    doc["sides"][0]["ledger"]["disks"][1]["area"] = "1/x"


def _bad_boundary(doc):
    doc["sides"][0]["ledger"]["disks"][2]["boundary"] = [9, 9]


def _odd_maslov(doc):
    doc["sides"][0]["ledger"]["disks"][0]["maslov"] = 3


INVALID_KINDS = (
    ("missing_key", _drop_count, "SchemaError", "missing key 'count'"),
    ("bad_rational", _bad_rational, "SchemaError", "bad rational"),
    ("boundary_mismatch", _bad_boundary, "ValidationError",
     "boundary mismatch"),
    ("odd_maslov", _odd_maslov, "ValidationError", "odd Maslov"),
)


def error_check(error_type: str, fragment: str):
    def check(report):
        error = report.get("error", {})
        if error.get("type") != error_type:
            return f"error type {error.get('type')} != {error_type}"
        if fragment not in error.get("message", ""):
            return f"error message lacks {fragment!r}"
        return None
    return check


# --- polygons for the probe workload -----------------------------------------

TRIANGLES = {
    # name: (vertices, t) where a point (0, y) is displaceable iff y > t
    "p1xp1": (((0, 0), (1, 1), (-1, 1)), Fraction(1, 2)),
    "cp2": (((0, 0), (1, Fraction(1, 2)), (-1, Fraction(1, 2))),
            Fraction(1, 4)),
}


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def random_polygon(rng: random.Random, facets: int, radius: int,
                   den: int) -> list:
    """A strictly convex counterclockwise polygon with the given facets, its
    vertices near a circle of the radius, on the grid of step 1/den."""
    while True:
        step = 2 * math.pi / facets
        angles = [(i + rng.uniform(-0.3, 0.3)) * step for i in range(facets)]
        verts = [(Fraction(round(radius * den * math.cos(t)), den),
                  Fraction(round(radius * den * math.sin(t)), den))
                 for t in angles]
        if len(set(verts)) == facets and all(
                _cross(verts[i], verts[(i + 1) % facets],
                       verts[(i + 2) % facets]) > 0 for i in range(facets)):
            return verts


def interior_point(rng: random.Random, verts) -> tuple:
    weights = [rng.randint(1, 6) for _ in verts]
    total = sum(weights)
    return (sum(w * v[0] for w, v in zip(weights, verts)) / total,
            sum(w * v[1] for w, v in zip(weights, verts)) / total)


def probes_check(verts, point, bound, axis_threshold, oracle):
    def check(report):
        result = report["result"]
        if result.get("bound") != bound:
            return "bound echo"
        if result.get("point") != [frac_str(point[0]), frac_str(point[1])]:
            return "point echo"
        if result.get("polytope", {}).get("vertices") != [
                [frac_str(x), frac_str(y)] for x, y in verts]:
            return "polytope echo"
        hits = result.get("displacing_probes", [])
        if result.get("displaceable_by_probe") != bool(hits):
            return "displaceable_by_probe disagrees with the hit list"
        for hit in hits:
            base = tuple(Fraction(x) for x in hit["base"])
            if not oracle(verts, base, tuple(hit["direction"]), point):
                return f"hit {hit['base']} {hit['direction']} fails the oracle"
        if axis_threshold is not None and point[0] == 0:
            if bool(hits) != (point[1] > axis_threshold):
                return f"axis point y={frac_str(point[1])} misjudged"
        return None
    return check


# --- workloads ---------------------------------------------------------------

class Workload:
    """Base: a seeded source of op cycles plus a fixed warm-up op."""

    name = ""

    def __init__(self, seed: int, workdir: str, oracle=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.oracle = oracle
        self.files = 0
        self.cycles = 0
        self.phase = self.rng.randrange(1 << 16)

    def turn(self, *salt) -> int:
        """A rotation by cycle: every seed gets the same mix over a run."""
        return self.cycles + self.phase + sum(salt)

    def write_json(self, doc) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        return path

    def warmup(self) -> Op:
        raise NotImplementedError

    def cycle(self) -> list:
        ops = self.make_cycle()
        self.cycles += 1
        return ops

    def make_cycle(self) -> list:
        raise NotImplementedError


class Residue(Workload):
    """potential --residue-ring Z/n over cp2_ta: each n in 8..48 once a cycle,
    and the four cheapest, 8, 9, 10 and 12, twice."""

    name = "residue"

    def warmup(self):
        a = Fraction(1, 5)
        return Op(residue_argv(8, a, False), OK, residue_check(8, a, False))

    def make_cycle(self):
        # The cost grows with phi(n)^2, so the top ops form a few separate
        # steps.  With 45 ops a cycle the 90th percentile falls in the middle
        # of the Z/31 ops; with 41 it would sit on the edge of a step.
        # The flags that set the cost are fixed by n, so every cycle, and so
        # every run however many cycles it holds, has the same mix of costs.
        # Bulk on n = 1 mod 3 covers primes (13 ... 43), prime powers (16,
        # 25) and composites; a = 1/3, where the levels merge, falls on
        # n = 4, 5 mod 12, with and without bulk.
        ns = list(range(8, 49)) + [8, 9, 10, 12]
        self.rng.shuffle(ns)
        ops = []
        for n in ns:
            a = Fraction(1, 3) if n % 12 in (4, 5) else _rational_in(
                self.rng, Fraction(0), Fraction(1, 3), closed_top=False)
            bulk = n % 3 == 1
            ops.append(Op(residue_argv(n, a, bulk), OK,
                          residue_check(n, a, bulk)))
        return ops


class Sweep(Workload):
    """sweep over the three pairs, each in four bands of grid denominators."""

    name = "sweep"
    BANDS = ((20, 29), (30, 39), (40, 49), (50, 60))
    MAX_POINTS = 20

    def _op(self, pair, d, third):
        first, second, flags, top, closed, threshold, rule = pair
        last = math.floor(top * d) if closed else math.ceil(top * d) - 1
        count = min(self.MAX_POINTS, last)
        # the grid start, drawn from one third of its range: the cost
        # depends on where the grid sits relative to the threshold
        starts = last - count + 1
        start = 1 + self.rng.randrange(third * starts // 3,
                                       max(third * starts // 3 + 1,
                                           (third + 1) * starts // 3))
        grid = [Fraction(start + i, d) for i in range(count)]
        argv = ["sweep", "--builtin", first, "--vs", second, *flags,
                "--param", "a", "--from", frac_str(grid[0]),
                "--to", frac_str(grid[-1]), "--step", f"1/{d}"]
        return Op(argv, OK, verdict_check(threshold, rule, grid=grid),
                  points=count)

    def warmup(self):
        pair = SWEEP_PAIRS[0]
        grid = [Fraction(i, 20) for i in range(1, 7)]
        argv = ["sweep", "--builtin", pair[0], "--vs", pair[1], *pair[2],
                "--param", "a", "--from", "1/20", "--to", "3/10",
                "--step", "1/20"]
        return Op(argv, OK, verdict_check(pair[5], pair[6], grid=grid),
                  points=len(grid))

    def make_cycle(self):
        jobs = []
        for p, pair in enumerate(SWEEP_PAIRS):
            for b, (low, high) in enumerate(self.BANDS):
                d = low + self.turn(3 * p, b) % (high - low + 1)
                jobs.append((pair, d, self.turn(p, b) % 3))
        self.rng.shuffle(jobs)
        return [self._op(*job) for job in jobs]


class Probes(Workload):
    """probes with bounds 5..15 on p1xp1, cp2 and a 4-8 facet polygon."""

    name = "probes"

    def _triangle_point(self, name, on_axis, third):
        verts, _ = TRIANGLES[name]
        top = verts[1][1]
        # y from one third of the height: points near the bottom vertex
        # cost less, so the third rotates with the cycle
        q = 3 * self.rng.randint(3, 8)
        y = top * Fraction(third * q // 3 + self.rng.randint(1, q // 3 - 1), q)
        if on_axis:
            return (Fraction(0), y)
        m = self.rng.randint(3, 12)
        # |x| < y * (half-width of the triangle at height top) / top
        x = y * verts[1][0] / top * Fraction(self.rng.randint(1 - m, m - 1), m)
        return (x, y)

    def _op(self, kind, bound):
        turn = self.turn(bound)
        if kind == "polygon":
            verts = random_polygon(self.rng, 4 + bound % 5,
                                   radius=2 + turn % 4,
                                   den=(2, 3, 4, 6)[turn // 4 % 4])
            point = interior_point(self.rng, verts)
            target = self.write_json({"vertices": [[frac_str(x), frac_str(y)]
                                                   for x, y in verts],
                                      "excluded_vertices": []})
            threshold = None
        else:
            verts, threshold = TRIANGLES[kind]
            verts = [(Fraction(x), Fraction(y)) for x, y in verts]
            point = self._triangle_point(kind, bound % 2 == 0, turn % 3)
            target = kind
        # "--point=" keeps argparse from reading "-1/2,1/3" as an option
        argv = ["probes", target,
                f"--point={frac_str(point[0])},{frac_str(point[1])}",
                "--bound", str(bound)]
        return Op(argv, OK, probes_check(verts, point, bound, threshold,
                                         self.oracle))

    def warmup(self):
        verts, threshold = TRIANGLES["p1xp1"]
        verts = [(Fraction(x), Fraction(y)) for x, y in verts]
        point = (Fraction(0), Fraction(3, 4))
        return Op(["probes", "p1xp1", "--point", "0,3/4", "--bound", "3"], OK,
                  probes_check(verts, point, 3, threshold, self.oracle))

    def make_cycle(self):
        jobs = [(kind, bound) for kind in ("p1xp1", "cp2", "polygon")
                for bound in range(5, 16)]
        self.rng.shuffle(jobs)
        return [self._op(kind, bound) for kind, bound in jobs]


class Requests(Workload):
    """A mix of short commands; 2 of every 20 use an invalid document."""

    name = "requests"

    def __init__(self, seed, workdir, oracle=None):
        super().__init__(seed, workdir, oracle)
        self.valid = []
        for _ in range(4):
            a = _rational_in(self.rng, Fraction(0), Fraction(1, 3), False)
            self.valid.append((a, self.write_json(cp2_ta_document(a))))
        self.invalid = []
        for kind, mutate, error_type, fragment in INVALID_KINDS:
            doc = cp2_ta_document(Fraction(1, 10))
            mutate(doc)
            self.invalid.append((self.write_json(doc), error_type, fragment))
        self.invalid_turn = 0

    def warmup(self):
        return self._builtin_list()

    def _builtin_list(self):
        def check(report):
            names = [b["name"] for b in report["result"]["builtins"]]
            return None if tuple(names) == BUILTINS else "builtin list"
        return Op(["builtin-list"], OK, check)

    def _a(self, top=Fraction(1, 3), closed=False):
        return _rational_in(self.rng, Fraction(0), top, closed)

    def _validate_builtin(self, slot):
        name = BUILTINS[self.turn(slot) % len(BUILTINS)]
        ref = name
        if name.endswith(("_ta", "_la")):
            top = {"cp2_ta": Fraction(1, 3)}.get(name, Fraction(1, 2))
            ref = f"{name}:a={frac_str(self._a(top))}"

        def check(report):
            result = report["result"]
            return None if result.get("valid") is True and len(
                result.get("sides", ())) == 1 else "validate result"
        return Op(["validate", "--builtin", ref], OK, check)

    def _validate_file(self):
        _, path = self.rng.choice(self.valid)

        def check(report):
            sides = report["result"].get("sides", [])
            return None if report["result"].get("valid") is True and [
                s["disks"] for s in sides] == [4] else "validate file result"
        return Op(["validate", "--scenario", path], OK, check)

    def _invariant(self, from_file):
        if from_file:
            _, path = self.rng.choice(self.valid)
            argv = ["invariant", "--scenario", path, "--ring", "Z/8"]
        else:
            argv = ["invariant", "--builtin",
                    f"cp2_ta:a={frac_str(self._a())}", "--ring", "Z/8"]

        # the least-area string invariant of the CP^2 torus is 4 in Z/8
        def check(report):
            coords = report["result"].get("oc_low", {}).get("coords")
            return None if coords == ["4"] else f"oc_low coords {coords}"
        return Op(argv, OK, check)

    def _criterion(self, pair, from_file=False):
        first, second, flags, top, closed, threshold, rule = pair
        if from_file:
            a, target = self.rng.choice(self.valid)
            argv = ["criterion", "--scenario", target]
        else:
            a = self._a(top, closed)
            argv = ["criterion", "--builtin", f"{first}:a={frac_str(a)}"]
        return Op(argv + ["--vs", second, *flags], OK,
                  verdict_check(threshold, rule, a=a), points=1)

    def _potential(self):
        a = self._a()
        return Op(residue_argv(8, a, False), OK, residue_check(8, a, False))

    def _invalid(self):
        path, error_type, fragment = self.invalid[
            self.invalid_turn % len(self.invalid)]
        command = ("validate", "invariant", "criterion")[
            self.invalid_turn % 3]
        self.invalid_turn += 1
        argv = [command, "--scenario", path]
        if command != "validate":
            argv += ["--ring", "Z/8"]
        if command == "criterion":
            argv += ["--vs", "cp2_clifford"]
        return Op(argv, INVALID, error_check(error_type, fragment))

    def make_cycle(self):
        # Counts per cycle put the median inside the invariant ops and the
        # 90th percentile inside the rule 2.5 criterion ops, not in the gap
        # between two kinds of op, where it would jump from seed to seed.
        invariant = lambda: self._invariant(False)
        makers = [
            self._builtin_list, self._invalid, self._invalid,
            lambda: self._validate_builtin(0),
            lambda: self._validate_builtin(3),
            self._validate_file,
            invariant, invariant, invariant,
            lambda: self._invariant(True), lambda: self._invariant(True),
            lambda: self._criterion(SWEEP_PAIRS[0]),
            lambda: self._criterion(SWEEP_PAIRS[0], from_file=True),
            self._potential, self._potential,
            lambda: self._criterion(SWEEP_PAIRS[1]),
            lambda: self._criterion(SWEEP_PAIRS[1]),
        ] + [lambda: self._criterion(SWEEP_PAIRS[2])] * 3
        self.rng.shuffle(makers)
        return [make() for make in makers]


WORKLOADS = {cls.name: cls for cls in (Residue, Sweep, Probes, Requests)}
