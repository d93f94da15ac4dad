"""Dataset loading, replay verification and erratum grading."""

import copy
import json
import shutil
from fractions import Fraction

import pytest

from blowdown import (
    DATA_ENV,
    available_constructions,
    build_model,
    load_construction,
    parse_construction,
    pullback_expansion,
    verify,
)

CITATION = "H. Park, J. Park and D. Shin"

MAIN_CHECKS = (
    "script_expectations",
    "chain_shapes",
    "artin_contractibility",
    "discrepancies",
    "adjunction",
    "orthogonality",
    "k_squared",
    "canonical_relation",
    "fiber_relation",
    "pullback_expansion",
    "nef_table",
    "invariants",
    "pi1_closure",
    "rationality_exclusion",
    "citation",
)

SHORT_CHECKS = tuple(
    name
    for name in MAIN_CHECKS
    if name not in ("canonical_relation", "fiber_relation", "pullback_expansion")
)


def check_map(report):
    return {check.name: check for check in report.checks}


def joined(check):
    return "\n".join(check.details)


def test_available_constructions():
    assert available_constructions() == ("k4", "main_k3", "pencil2_k3")


def test_load_by_name_and_by_path(main_construction):
    assert main_construction.name == "main_k3"
    assert CITATION in main_construction.citation
    assert main_construction.source_path.endswith("main_k3.json")
    assert len(main_construction.sha256) == 64
    again = load_construction(main_construction.source_path)
    assert again.sha256 == main_construction.sha256
    assert again.name == main_construction.name


def test_load_unknown_name_lists_choices():
    with pytest.raises(FileNotFoundError, match="k4, main_k3, pencil2_k3"):
        load_construction("nosuch")


def test_data_dir_override(tmp_path, monkeypatch, k4_construction):
    shutil.copy(k4_construction.source_path, tmp_path / "k4.json")
    monkeypatch.setenv(DATA_ENV, str(tmp_path))
    assert available_constructions() == ("k4",)
    assert load_construction("k4").name == "k4"
    with pytest.raises(FileNotFoundError):
        load_construction("main_k3")


def test_build_model_sizes(main_construction, pencil2_construction, k4_construction):
    for construction, steps in [
        (main_construction, 30),
        (pencil2_construction, 19),
        (k4_construction, 27),
    ]:
        model = build_model(construction)
        assert model.blowup_count == steps
        assert len(model.canonical.coords) == steps + 1


def test_verify_main_statuses(main_construction):
    report = verify(main_construction)
    assert report.ok
    assert report.errata_found
    assert tuple(check.name for check in report.checks) == MAIN_CHECKS
    statuses = {check.name: check.status for check in report.checks}
    assert statuses["fiber_relation"] == "erratum"
    assert statuses["pullback_expansion"] == "erratum"
    assert statuses["nef_table"] == "erratum"
    for name, status in statuses.items():
        if name not in ("fiber_relation", "pullback_expansion", "nef_table"):
            assert status == "pass", name


def test_verify_pencil2_statuses(pencil2_construction):
    report = verify(pencil2_construction)
    assert report.ok
    assert report.errata_found
    assert tuple(check.name for check in report.checks) == SHORT_CHECKS
    statuses = {check.name: check.status for check in report.checks}
    assert statuses["nef_table"] == "erratum"
    assert all(
        status == "pass" for name, status in statuses.items() if name != "nef_table"
    )


def test_verify_k4_is_clean(k4_construction):
    report = verify(k4_construction)
    assert report.ok
    assert not report.errata_found
    assert tuple(check.name for check in report.checks) == SHORT_CHECKS
    assert all(check.status == "pass" for check in report.checks)


def test_verify_is_deterministic(main_construction):
    assert verify(main_construction) == verify(main_construction)


def test_erratum_details_confirm_the_corrections(main_construction):
    report = verify(main_construction)
    checks = check_map(report)
    for name in ("fiber_relation", "pullback_expansion", "nef_table"):
        assert "matches the dataset's correction" in joined(checks[name])


def test_negative_nef_pairing_is_reported(pencil2_construction):
    report = verify(pencil2_construction)
    nef = check_map(report)["nef_table"]
    text = joined(nef)
    assert "pullback . x8 = -1/16 < 0" in text
    assert "matching the negative pairing recorded against the source's" in text


def test_reconstructed_graphs_are_noted_in_reports(
    main_construction, pencil2_construction, k4_construction
):
    note = "connection graph was reconstructed from the curve geometry"
    for construction in (pencil2_construction, k4_construction):
        pi1 = check_map(verify(construction))["pi1_closure"]
        assert note in joined(pi1)
    assert note not in joined(check_map(verify(main_construction))["pi1_closure"])


def test_citation_check_counts_recorded_values(
    main_construction, pencil2_construction, k4_construction
):
    for construction, count in [
        (main_construction, 20),
        (pencil2_construction, 14),
        (k4_construction, 13),
    ]:
        citation = check_map(verify(construction))["citation"]
        assert f"all {count} recorded values carry citations" in joined(citation)


def test_uncited_value_fails_the_citation_check(pencil2_raw):
    pencil2_raw["expected"]["k_squared"] = 3
    report = verify(parse_construction(pencil2_raw))
    assert not report.ok
    citation = check_map(report)["citation"]
    assert citation.status == "fail"
    assert "recorded values lacking a citation: k_squared" in joined(citation)


def test_unrecorded_negative_pairing_fails(pencil2_raw):
    del pencil2_raw["expected"]["nef_negative_pairings"]
    report = verify(parse_construction(pencil2_raw))
    assert not report.ok
    nef = check_map(report)["nef_table"]
    assert nef.status == "fail"
    text = joined(nef)
    assert "pullback . x8 = -1/16 < 0" in text
    assert CITATION in text


def test_pullback_expansion_frozen_values(main_construction, main_model):
    coefficients = pullback_expansion(main_construction, main_model)
    assert coefficients["E3"] == 5
    assert coefficients["G10"] == Fraction(146, 35)
    assert coefficients["H6"] == Fraction(39, 38)
    assert coefficients["I6"] == Fraction(65, 14)
    assert coefficients["E2''"] == Fraction(11, 2)
    assert coefficients["E1"] == 0
    assert coefficients["E2"] == 0


def test_recorded_tables_are_faithful_to_the_source(main_construction):
    # The dataset stores what the source prints, with corrections kept apart.
    recorded = main_construction.expected["pullback_coefficients"]
    assert Fraction(recorded["I6"]) == Fraction(37, 14)
    assert Fraction(recorded["E2''"]) == 3
    corrections = main_construction.errata["pullback_coefficients"]
    assert Fraction(corrections["I6"]) == Fraction(65, 14)
    assert Fraction(corrections["E2''"]) == Fraction(11, 2)
    nef_recorded = main_construction.expected["nef_values"]
    assert Fraction(nef_recorded["E2''"]) == Fraction(43, 70)
    assert Fraction(main_construction.errata["nef_values"]["E2''"]) == Fraction(4, 35)


def test_unreduced_recorded_fractions_still_pass(main_raw, main_construction):
    # The transcription keeps 30/35 as printed; grading compares exact values.
    recorded = main_raw["expected"]["discrepancies"]["values"]["C(35,6)"]
    assert recorded[5] == "30/35"
    report = verify(main_construction)
    assert check_map(report)["discrepancies"].status == "pass"


def test_perturbed_expectation_fails_with_citation(main_raw):
    main_raw["expectations"][0]["self_int"] = -3
    report = verify(parse_construction(main_raw))
    assert not report.ok
    failing = check_map(report)["script_expectations"]
    assert failing.status == "fail"
    text = joined(failing)
    assert "recorded -3, computed -1" in text
    assert CITATION in text


def test_perturbed_chain_parameter_fails_with_citation(main_raw):
    main_raw["chains"][0]["q"] = 11
    report = verify(parse_construction(main_raw))
    assert not report.ok
    failing = check_map(report)["chain_shapes"]
    assert failing.status == "fail"
    text = joined(failing)
    assert "does not match the expansion" in text
    assert CITATION in text


def test_verify_stops_gracefully_on_missing_curve(main_raw):
    main_raw["chains"][0]["curves"][0] = "nosuchcurve"
    report = verify(parse_construction(main_raw))
    assert not report.ok
    assert check_map(report)["chain_shapes"].status == "fail"


def test_parse_construction_requires_script_fields(main_raw):
    incomplete = copy.deepcopy(main_raw)
    del incomplete["steps"]
    with pytest.raises(ValueError, match="steps"):
        parse_construction(incomplete)
    del main_raw["base_curves"]
    with pytest.raises(ValueError, match="base_curves"):
        parse_construction(main_raw)


def test_perturbed_step_multiplicity_fails(main_raw):
    main_raw["steps"][0]["at"][0][1] += 1
    report = verify(parse_construction(main_raw))
    assert not report.ok
    assert check_map(report)["script_expectations"].status == "fail"


@pytest.mark.parametrize("section,table,key,value,check", [
    ("expected", "discrepancies", "C(99,1)", ["1/2"], "discrepancies"),
    ("expected", "fiber_relation", "F9", {"F1": 1}, "fiber_relation"),
    ("errata", "fiber_relation", "F9", {"F1": 1}, "fiber_relation"),
    ("expected", "pullback_fiber_weights", "F9", "-1/2", "pullback_expansion"),
    ("errata", "pullback_coefficients", "ZZ", "1", "pullback_expansion"),
])
def test_a_recorded_key_that_matches_nothing_fails_its_check(
        main_raw, section, table, key, value, check):
    entry = main_raw[section][table]
    (entry["values"] if "values" in entry else entry)[key] = value
    report = verify(parse_construction(main_raw))
    assert [c.name for c in report.checks if c.status == "fail"] == [check]
    assert f"[{key}] matches no " in joined(check_map(report)[check])
    assert CITATION in joined(check_map(report)[check])
