import io
import json
import os
import pathlib

import pytest

from floerdisk.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

GOLDEN_COMMANDS = {
    "criterion_cp2": ["criterion", "--builtin", "cp2_ta:a=1/10",
                      "--vs", "cp2_clifford", "--ring", "Z/8"],
    "invariant_cp2": ["invariant", "--builtin", "cp2_ta:a=1/10",
                      "--ring", "Z/8"],
    "sweep_p1xp1": ["sweep", "--builtin", "p1xp1_ta", "--vs",
                    "p1xp1_clifford", "--ring", "Z/2", "--field", "F2",
                    "--param", "a", "--from", "1/5", "--to", "3/10",
                    "--step", "1/20"],
    "potential_cp2": ["potential", "--builtin", "cp2_ta:a=1/5", "--bulk",
                      "b=1", "--analyze-units", "--residue-ring", "Z/8"],
    "probes_p1xp1": ["probes", "p1xp1", "--point", "0,3/4", "--bound", "3"],
    "builtin_list": ["builtin-list"],
    "criterion_bl3": ["criterion", "--builtin", "bl3_ta:a=1/5", "--vs",
                      "bl3_clifford", "--ring", "Z/2", "--field", "F2",
                      "--monotone-variant"],
}


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs(name):
    code, text = run(GOLDEN_COMMANDS[name])
    assert code == 0
    expected = (GOLDEN / f"{name}.json").read_text()
    assert text == expected  # byte-for-byte regression


def test_criterion_payload():
    code, text = run(GOLDEN_COMMANDS["criterion_cp2"])
    payload = json.loads(text)
    assert payload["result"]["conclusion"] == "non_displaceable"
    assert payload["result"]["theorem"] == "1.5"
    assert payload["result"]["pairing"] == "4"


def test_sweep_reports_threshold():
    code, text = run(GOLDEN_COMMANDS["sweep_p1xp1"])
    payload = json.loads(text)
    assert payload["result"]["gate_threshold"] == "1/4"
    conclusions = [p["conclusion"] for p in payload["result"]["points"]]
    assert conclusions == ["non_displaceable", "inconclusive", "inconclusive"]


def test_cp2_sweep_threshold_is_one_ninth():
    code, text = run(["sweep", "--builtin", "cp2_ta", "--vs", "cp2_clifford",
                      "--ring", "Z/8", "--param", "a", "--from", "1/100",
                      "--to", "1/5", "--step", "1/100"])
    assert code == 0
    payload = json.loads(text)
    assert payload["result"]["gate_threshold"] == "1/9"
    from fractions import Fraction
    for point in payload["result"]["points"]:
        a = Fraction(point["a"])
        expected = "non_displaceable" if a < Fraction(1, 9) else "inconclusive"
        assert point["conclusion"] == expected


def test_text_format_renders_same_payload():
    code_json, json_text = run(GOLDEN_COMMANDS["criterion_cp2"])
    code_text, plain = run(GOLDEN_COMMANDS["criterion_cp2"]
                           + ["--format", "text"])
    assert code_json == code_text == 0
    from floerdisk.cli import _render_text
    assert plain == _render_text(json.loads(json_text)) + "\n"


def test_validate_good_and_bad(tmp_path):
    code, text = run(["validate", "--builtin", "cp2_ta:a=1/10"])
    assert code == 0
    assert json.loads(text)["result"]["valid"]

    import floerdisk.scenario as scen
    doc = scen.builtin_scenario("cp2_ta", {"a": "1/10"}).to_json_dict()
    doc["sides"][0]["ledger"]["disks"][0]["boundary"] = [9, 9]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run(["validate", "--scenario", str(bad)])
    assert code == 3
    error = json.loads(text)["error"]
    assert error["type"] == "ValidationError"
    assert "boundary mismatch" in error["message"]
    # positional spelling behaves the same
    code, text = run(["validate", str(bad)])
    assert code == 3
    assert "boundary mismatch" in json.loads(text)["error"]["message"]


def test_scenario_file_roundtrip(tmp_path):
    import floerdisk.scenario as scen
    doc = scen.builtin_scenario("cp2_ta", {"a": "1/10"}).to_json_dict()
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(doc))
    code, text = run(["invariant", "--scenario", str(path), "--ring", "Z/8"])
    assert code == 0
    assert json.loads(text)["result"]["oc_low"]["coords"] == ["4"]


def test_ledger_path_search(tmp_path, monkeypatch):
    import floerdisk.scenario as scen
    doc = scen.builtin_scenario("cp2_clifford").to_json_dict()
    (tmp_path / "cl.json").write_text(json.dumps(doc))
    monkeypatch.setenv("FLOER_LEDGER_PATH", str(tmp_path))
    code, text = run(["criterion", "--builtin", "cp2_ta:a=1/10",
                      "--vs", "cl.json", "--ring", "Z/8"])
    assert code == 0
    assert json.loads(text)["result"]["conclusion"] == "non_displaceable"


def test_usage_errors():
    code, text = run(["criterion"])  # missing scenario
    assert code == 2
    code, _ = run(["invariant", "--builtin", "cp2_ta:a=1/10",
                   "--scenario", "x.json"])
    assert code == 2
    # ring and field are independent; subspace mode needs both spelled out
    code, _ = run(["criterion", "--builtin", "p1xp1_ta:a=1/5",
                   "--vs", "p1xp1_clifford", "--field", "F2"])
    assert code == 2
    code, _ = run(["invariant", "--builtin", "cp2_ta:a=1/10",
                   "--ring", "Z/x"])
    assert code == 2


def test_validation_exit_code():
    code, text = run(["invariant", "--builtin", "unknown_thing"])
    assert code == 3
    code, text = run(["invariant", "--builtin", "cp2_ta:a=7/8"])
    assert code == 3
    assert json.loads(text)["error"]["type"] == "BadParams"


def test_computation_exit_code():
    # a least-area boundary sum that does not cancel is a computation error
    code, text = run(["invariant", "--builtin", "cp2_ta:a=1/10",
                      "--ring", "Z"])
    assert code == 4


@pytest.mark.parametrize("ring", ["Q", "Z"])
def test_infinite_residue_ring_is_bad_params(ring):
    assert _error(["potential", "--builtin", "cp2_ta:a=1/5",
                   "--residue-ring", ring]) == (3, "BadParams")


@pytest.mark.parametrize("swept", ["cp2_ta:a=1/10", "cp2_ta:b=1"])
def test_swept_builtin_parameters_are_bad_params(swept):
    assert _error(["sweep", "--builtin", swept, "--vs", "cp2_clifford",
                   "--ring", "Z/8", "--from", "1/10", "--to", "1/10",
                   "--step", "1/10"]) == (3, "BadParams")


@pytest.mark.parametrize("argv, reason", [
    (["--builtin", "cp2_ta:a=1/10", "--vs", "cp2_clifford", "--ring", "Z"],
     "invariant undefined: side T_a: boundary sum -8*dbeta is nonzero "
     "over Z"),
    (["--builtin", "p1xp1_ta:a=1/5", "--vs", "p1xp1_clifford",
      "--ring", "Z/4", "--field", "F2"],
     "invariant undefined: side That_a: coset (0, 0) sum 2*dbeta is "
     "nonzero over Z/4")])
def test_cancellation_failure_reasons(argv, reason):
    code, text = run(["criterion", *argv])
    assert code == 0
    assert json.loads(text)["result"]["reason"] == reason


def test_residue_search_refuses_large_moduli():
    for ring in ("Z/1000000007", "F1000000000000000009"):
        code, text = run(["potential", "--builtin", "cp2_ta:a=1/5",
                          "--residue-ring", ring])
        assert code == 4
        assert json.loads(text)["error"]["type"] == "ResidueSearchTooLarge"


def test_large_prime_field_modulus():
    argv = ["criterion", "--builtin", "cp2_ta:a=1/10", "--vs",
            "cp2_clifford", "--ring"]
    code, _ = run(argv + ["F1000000000000000009"])
    assert code == 0
    code, text = run(argv + ["F1000000000000000001"])
    assert code == 2
    assert json.loads(text)["error"]["type"] == "usage"


def test_local_system_flag_gives_zero_invariant():
    code, text = run(["invariant", "--builtin", "cp2_ta:a=1/10",
                      "--ring", "Q", "--local-system", "dalpha=-1,dbeta=1"])
    assert code == 0
    payload = json.loads(text)
    assert payload["result"]["oc_low"]["coords"] == ["0"]


def test_probes_from_file(tmp_path):
    doc = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
           "excluded_vertices": []}
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    code, text = run(["probes", str(path), "--point", "1/2,1/5",
                      "--bound", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["result"]["displaceable_by_probe"] is True


def test_version_flag():
    code, text = run(["--version"])
    assert code == 0
    assert text.strip() == "0.1.0"


def _error(argv):
    code, text = run(argv)
    return code, json.loads(text)["error"]["type"]


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_probes_bound_below_one(bound):
    assert _error(["probes", "p1xp1", "--point", "0,3/4", "--bound",
                   bound]) == (3, "BadParams")


def test_probes_bound_past_budget():
    assert _error(["probes", "p1xp1", "--point", "0,3/4", "--bound",
                   "1000000"]) == (4, "ProbeSearchTooLarge")


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"vertices": [["0", "0"], ["1", "0", "0"], ["0", "1"]]},
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "excluded_vertices": [1.5]},
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1/0"]]},
])
def test_probes_bad_polytope_document(tmp_path, doc):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(doc))
    assert _error(["probes", str(path), "--point", "1/4,1/4"]) == \
        (3, "SchemaError")


def test_duplicate_builtin_parameter():
    assert _error(["invariant", "--builtin", "cp2_ta:a=1/3,a=1/4",
                   "--ring", "Z/8"]) == (3, "BadParams")


def test_zero_denominator_is_a_usage_error():
    assert _error(["probes", "p1xp1", "--point", "1/0,1"]) == (2, "usage")


def test_unreadable_paths_are_validation_errors(tmp_path):
    assert _error(["validate", str(tmp_path)]) == (3, "IsADirectoryError")
    assert _error(["probes", str(tmp_path), "--point", "0,1"]) == \
        (3, "IsADirectoryError")
    assert _error(["validate", str(tmp_path / "missing.json")]) == \
        (3, "FileNotFoundError")


SWEEP = ["sweep", "--builtin", "cp2_ta", "--vs", "cp2_clifford"]


def test_sweep_grid_edges(monkeypatch):
    # --from above --to: no point at all, with or without --ring
    for ring in ([], ["--ring", "Z/8"]):
        assert _error(SWEEP + ring + ["--from", "1/5", "--to", "1/10",
                                      "--step", "1/20"]) == (3, "BadParams")
    code, text = run(SWEEP + ["--from", "1/10", "--to", "1/10",
                              "--step", "1/20"])
    assert code == 0
    assert [p["a"] for p in json.loads(text)["result"]["points"]] == ["1/10"]
    assert _error(SWEEP + ["--from", "1/100", "--to", "1/5", "--step",
                           "1/1000000000"]) == (3, "BadParams")
    monkeypatch.setattr("floerdisk.cli.SWEEP_POINT_LIMIT", 3)
    grid = ["--from", "1/20", "--to", "3/20"]
    code, text = run(SWEEP + grid + ["--step", "1/20"])
    assert code == 0
    assert len(json.loads(text)["result"]["points"]) == 3
    assert _error(SWEEP + grid + ["--step", "1/30"]) == (3, "BadParams")


@pytest.mark.parametrize("local_system, value", [
    (None, "4*H"), ("dbeta=1,dalpha=3", "0"), ("dbeta=1,dalpha=5", "4*H")])
def test_local_system_override(local_system, value):
    argv = ["invariant", "--builtin", "cp2_ta:a=1/10", "--ring", "Z/8"]
    if local_system:
        argv += ["--local-system", local_system]
    code, text = run(argv)
    assert code == 0
    assert json.loads(text)["result"]["oc_low"]["value"] == value


@pytest.mark.parametrize("subspace, conclusion, theorem, reason", [
    ("0,0;0,1", "inconclusive", None, "pairing 0 = 0 in Z/2"),
    ("1,0;1,0", "non_displaceable", "1.6", None)])
def test_subspace_override(subspace, conclusion, theorem, reason):
    code, text = run(["criterion", "--builtin", "p1xp1_ta:a=1/5", "--vs",
                      "p1xp1_clifford", "--ring", "Z/2", "--field", "F2",
                      "--subspace", subspace])
    assert code == 0
    result = json.loads(text)["result"]
    assert (result["conclusion"], result.get("theorem"),
            result.get("reason")) == (conclusion, theorem, reason)


def test_benchmark_tracer_rebinds_every_layer(monkeypatch):
    # The traced benchmark wraps library functions and rebinds the names
    # that modules took with ``from ... import``; it refuses to run when a
    # module no longer binds one.  Check that here, and that tracing leaves
    # stdout unchanged.
    import floerdisk.cli as cli

    monkeypatch.syspath_prepend(str(GOLDEN.parent.parent / "bench"))
    import tracing

    argvs = [GOLDEN_COMMANDS["sweep_p1xp1"],
             ["criterion", "--builtin", "p1xp1_ta:a=1/5", "--vs",
              "p1xp1_clifford", "--ring", "Z/2", "--field", "F2"],
             ["sweep", "--builtin", "bl3_ta", "--vs", "bl3_clifford",
              "--ring", "Z/2", "--field", "F2", "--monotone-variant",
              "--from", "1/10", "--to", "2/5", "--step", "1/10"]]

    def outputs():
        result = []
        for argv in argvs:
            out = io.StringIO()
            result.append((cli.main(argv, out=out), out.getvalue()))
        return result

    plain = outputs()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.rebinding_errors() == []
        traced = outputs()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert {span[0] for span in tracer.spans} >= {
        "cli.main", "criterion.evaluate_pair", "abelian.solve_linear"}


def test_subspace_span_width_is_bad_params():
    assert _error(["criterion", "--builtin", "p1xp1_ta:a=1/5", "--vs",
                   "p1xp1_clifford", "--ring", "Z/2", "--field", "F2",
                   "--subspace", "0,0;0,1,1"]) == (3, "BadParams")


def test_local_weight_past_the_bit_limit(tmp_path):
    # (3/2)^(-10^4) would need about 15,800 bits: refused before the power
    # is taken, where the report used to fail on int-to-str conversion
    import floerdisk.scenario as scen
    doc = scen.builtin_scenario("cp2_ta", {"a": "1/10"}).to_json_dict()
    side = doc["sides"][0]
    disk = side["ledger"]["disks"][0]
    assert disk["label"] == "H-2b-a"
    disk.update(rel_class=[1, -2, -10 ** 4], boundary=[-2, -10 ** 4])
    side["local_system"] = {"dbeta": "1", "dalpha": "3/2"}
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(doc))
    code, _ = run(["validate", str(path)])
    assert code == 0
    assert _error(["invariant", "--scenario", str(path), "--ring", "Q"]) == \
        (4, "WeightTooLarge")


def test_missing_second_side_is_bad_params(tmp_path):
    assert _error(["sweep", "--builtin", "cp2_ta", "--ring", "Z/8", "--from",
                   "1/10", "--to", "1/10", "--step", "1/10"]) == \
        (3, "BadParams")
    assert _error(["criterion", "--builtin", "cp2_ta:a=1/10",
                   "--ring", "Z/8"]) == (3, "BadParams")
    # a two-sided scenario file needs no --vs
    import floerdisk.scenario as scen
    pair = scen.combine(scen.builtin_scenario("cp2_ta", {"a": "1/10"}),
                        scen.builtin_scenario("cp2_clifford"))
    path = tmp_path / "pair.json"
    path.write_text(pair.canonical_json())
    code, text = run(["criterion", "--scenario", str(path), "--ring", "Z/8"])
    assert code == 0
    assert json.loads(text)["result"]["conclusion"] == "non_displaceable"


@pytest.mark.parametrize("argv", [
    ["potential", "--builtin", "cp2_ta:a=1/5", "--bulk", "b=1,b=2"],
    ["potential", "--builtin", "cp2_ta:a=1/5", "--bulk", "b"],
    ["invariant", "--builtin", "cp2_ta:a=1/10", "--ring", "Z/8",
     "--local-system", "dbeta=3,dbeta=1,dalpha=1"],
    ["invariant", "--builtin", "cp2_ta:a=1/10", "--ring", "Z/8",
     "--local-system", "dbeta"],
    ["invariant", "--builtin", "cp2_ta:a", "--ring", "Z/8"]])
def test_repeated_or_empty_assignment_is_bad_params(argv):
    assert _error(argv) == (3, "BadParams")


def test_bulk_values_must_be_integers():
    assert _error(["potential", "--builtin", "cp2_ta:a=1/5",
                   "--bulk", "b=1/2"]) == (2, "usage")


def test_unknown_bulk_label_is_a_validation_error():
    assert _error(["potential", "--builtin", "cp2_ta:a=1/5",
                   "--bulk", "zz=1"]) == (3, "UnknownLabel")


@pytest.mark.parametrize("argv, code, kind", [
    (["probes", "p1xp1", "--point", "1/0,1"], 2, "usage"),
    (["probes", "p1xp1", "--point", "0,3/4", "--bound", "0"], 3, "BadParams"),
    (["probes", "p1xp1", "--point", "0,3/4", "--bound", "1000000"], 4,
     "ProbeSearchTooLarge")])
def test_error_document_layout(argv, code, kind):
    got, text = run(argv)
    message = json.loads(text)["error"]["message"]
    assert got == code
    assert text == json.dumps({"error": {"type": kind, "message": message}},
                              indent=2, sort_keys=True) + "\n"
