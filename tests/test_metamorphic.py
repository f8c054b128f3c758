"""Metamorphic tests: a ledger is a set of disks, so the order in which a
document lists them changes no report.  Only the document digest and the
order of the selected disk labels may differ."""

import io
import json
import random
from fractions import Fraction as F

import pytest

from floerdisk.cli import main
from floerdisk.scenario import A_INTERVALS, BUILTIN_NAMES, builtin_scenario
from test_scenario import dense_document

PARTNERS = {"cp2_ta": "cp2_clifford", "p1xp1_ta": "p1xp1_clifford",
            "bl3_ta": "bl3_clifford"}
PARTNERS.update({v: k for k, v in PARTNERS.items()})


def _builtin(name):
    return builtin_scenario(
        name, {"a": F(1, 10)} if name in A_INTERVALS else None).to_json_dict()


DOCUMENTS = {name: _builtin(name) for name in BUILTIN_NAMES}
DOCUMENTS.update({f"dense{seed}": dense_document(3, 1, 4, 8, seed)
                  for seed in range(3)})


def _shuffled(doc, rng):
    doc = json.loads(json.dumps(doc))
    for side in doc["sides"]:
        disks = side["ledger"]["disks"]
        before = list(disks)
        while len(disks) > 1 and disks == before:
            rng.shuffle(disks)
    return doc


def _argvs(doc, path, partner):
    labels = doc["sides"][0]["H1_L"]["generators"]
    local = ",".join(f"{g}={u}" for g, u in zip(labels, ("3/2", "-1") * 9))
    vs = ["--vs", partner] if len(doc["sides"]) == 1 else []
    scenario = ["--scenario", path]
    return [["invariant", *scenario, "--ring", "Z/8"],
            ["invariant", *scenario, "--ring", "F2", "--field", "F2"],
            ["invariant", *scenario, "--ring", "Q", "--local-system", local],
            ["criterion", *scenario, *vs, "--ring", "Z/8"],
            ["criterion", *scenario, *vs, "--ring", "F2", "--field", "F2",
             "--monotone-variant"],
            ["potential", *scenario, "--analyze-units",
             "--residue-ring", "Z/8"]]


def _report(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    report = json.loads(out.getvalue())
    report.get("scenario", {}).pop("digest", None)
    selected = report.get("result", {}).get("oc_low", {}).get("selected")
    if selected is not None:
        selected.sort()
    return code, report


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_disk_order_changes_no_report(name, tmp_path):
    rng = random.Random(name)
    doc, partner = DOCUMENTS[name], DOCUMENTS[PARTNERS.get(name, name)]
    plain = (_write(tmp_path / "plain.json", doc),
             _write(tmp_path / "plain_vs.json", partner))
    moved = (_write(tmp_path / "moved.json", _shuffled(doc, rng)),
             _write(tmp_path / "moved_vs.json", _shuffled(partner, rng)))
    for argv, shuffled in zip(_argvs(doc, *plain), _argvs(doc, *moved)):
        assert _report(shuffled) == _report(argv), argv[0]


def test_the_shuffle_moves_every_ledger():
    rng = random.Random(0)
    for doc in DOCUMENTS.values():
        for side, moved in zip(doc["sides"], _shuffled(doc, rng)["sides"]):
            disks = side["ledger"]["disks"]
            assert len(disks) < 2 or moved["ledger"]["disks"] != disks
            assert sorted(map(json.dumps, moved["ledger"]["disks"])) == sorted(
                map(json.dumps, disks))
