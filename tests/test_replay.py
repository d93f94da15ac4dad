"""One shared replay per command: byte-identical envelopes, exact integer
arithmetic, and each stage computed once."""

import argparse
import ast
import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import blowdown.cli as cli
import blowdown.topology as topology
from blowdown import (
    Expectation,
    Replay,
    Script,
    contraction,
    expand_in_curves,
    grade_checkpoints,
    lattice,
    load_construction,
    parse_construction,
    parse_script,
    run_script,
    tchains,
    verify,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
DATASETS = ("main_k3", "pencil2_k3", "k4")
COMMANDS = ("verify", "contract", "invariants")


def run_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main([*argv, "--json"])
    return rc, out.getvalue()


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("command", [*COMMANDS, "pi1"])
def test_json_envelopes_match_the_golden_files(command, dataset):
    rc, text = run_json(command, dataset)
    assert rc == 0
    golden = GOLDEN / f"{command}_{dataset}.json"
    assert text.encode("utf-8") == golden.read_bytes()


FAILURES = json.loads((GOLDEN / "verify_failures.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "edit", FAILURES,
    ids=[".".join(map(str, edit["path"])) for edit in FAILURES],
)
def test_failing_reports_match_the_golden_file(edit, write_mutant,
                                               main_construction):
    """The report of each single edit of ``main_k3``, line for line, as
    pinned in ``golden/verify_failures.json``."""
    rc, text = run_json("verify", "--dataset", write_mutant(
        main_construction, edit["path"], edit["value"]))
    assert rc == 1
    assert json.loads(text)["result"]["checks"] == edit["checks"]


def _no_float(text):
    raise AssertionError(f"float {text} in a JSON envelope")


def assert_exact_envelope(text, construction):
    """No JSON number is a float, and no string prints a decimal point
    outside the dataset's own citation strings."""
    payload = json.loads(text, parse_float=_no_float)
    cites = sorted(
        {construction.citation, *construction.expected_cites.values(),
         *(exp.cite for exp in construction.script.expectations)} - {""},
        key=len, reverse=True,
    )

    def walk(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key != "version":
                    walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)
        elif isinstance(node, str):
            bare = node
            for cite in cites:
                bare = bare.replace(cite, "")
            assert not re.search(r"\d\.\d", bare), node

    walk(payload)


@pytest.mark.parametrize("dataset", DATASETS)
def test_envelopes_and_classes_stay_exact(dataset, write_mutant, request):
    construction = request.getfixturevalue(
        {"main_k3": "main_construction", "pencil2_k3": "pencil2_construction",
         "k4": "k4_construction"}[dataset]
    )
    for command in COMMANDS:
        assert_exact_envelope(run_json(command, dataset)[1], construction)
    replay = Replay(construction)
    model = replay.model
    for cls in [model.canonical, replay.pullback, *model.curves.values()]:
        assert all(type(c) is int for c in cls.coords), cls
        assert type(cls.denominator) is int
    assert all(type(v) is int for v in model.gram.values())
    for ds in replay.discrepancies:
        assert all(type(d) is Fraction for d in ds)
    for pairing in (replay.pullback.dot(replay.pullback), replay.summary.k_squared):
        assert type(pairing) in (int, Fraction)
    # A failing run prints more numbers; they must be exact too.
    mutant = write_mutant(construction, ("chains", 0, "q"),
                          construction.chains[0].q + 1)
    assert_exact_envelope(run_json("verify", "--dataset", mutant)[1], construction)


EXACT_MATH = {"gcd", "lcm", "isqrt"}


def test_sources_use_no_floats():
    """No module of the package writes a float or complex literal, names
    ``float``, or imports from ``math`` anything but integer functions."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{where}: literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{where}: name float")
            elif isinstance(node, ast.Import):
                found += [f"{where}: import {alias.name}" for alias in node.names
                          if alias.name.split(".")[0] == "math"]
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{where}: from math import {alias.name}"
                          for alias in node.names if alias.name not in EXACT_MATH]
    assert not found, found


def _exported(tree) -> set:
    """The names a module lists in its ``__all__``, where it is a literal."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def test_sources_import_no_unused_name():
    """Every name a module of the package imports is used in it or listed
    in its ``__all__``."""
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= _exported(tree)
        found += [f"{path.name}:{line}: {name}"
                  for name, line in sorted(imported.items()) if name not in used]
    assert not found, found


@st.composite
def scripts(draw):
    """A script of up to 12 blow-ups of up to three plane curves.  Each
    centre lies on distinct earlier curves, exceptional ones too, so points
    may be infinitely near, with multiplicities 1 to 3."""
    base = {f"C{i}": draw(st.integers(1, 3)) for i in range(draw(st.integers(1, 3)))}
    names = list(base)
    steps = []
    for i in range(draw(st.integers(0, 12))):
        on = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
        steps.append({"at": [[name, draw(st.integers(1, 3))] for name in on]})
        names.append(f"e{i + 1}")
    return parse_script({"base_curves": base, "steps": steps})


@given(script=scripts())
@example(script=load_construction("main_k3").script)
@example(script=load_construction("k4").script)
@settings(max_examples=60, deadline=None)
def test_gram_matrix_matches_the_classes(script):
    """The one-pass build pairs named curves as their classes do, drops
    ``K^2`` by one per blow-up, and every pairing after step ``k`` graded on
    the finished model is the pairing on the script cut to ``k`` steps."""
    model = run_script(script)
    for a, ca in model.curves.items():
        for b, cb in model.curves.items():
            assert model.gram[a, b] == ca.dot(cb), (a, b)
    n = len(script.steps)
    assert model.blowup_count == n
    assert len(model.canonical.coords) == 1 + n
    assert model.intersect(model.canonical, model.canonical) == 9 - n
    for k in range(n + 1):
        snapshot = run_script(Script(script.base_curves, script.steps[:k]))
        for pair in product(model.curves, repeat=2):
            checkpoint = Expectation(after_step=k, curves=pair, value=Fraction(0))
            if all(name in snapshot.curves for name in pair):
                assert checkpoint.grade(model)[1] == snapshot.intersect(*pair)
            else:
                with pytest.raises(KeyError, match="no curve named"):
                    checkpoint.grade(model)


def test_expand_in_curves_matches_rational_elimination(main_model):
    # The fraction-free solve against a plain Fraction solve of the same system.
    names = ["e1", "e2", "e3", "e7", "L1"]
    weights = [Fraction(3, 7), Fraction(-2), Fraction(5, 3), Fraction(1, 2), 4]
    target = main_model.canonical * 0
    for name, w in zip(names, weights):
        target = target + w * main_model.curve(name)
    coefficients = expand_in_curves(main_model, target, names)
    assert coefficients == dict(zip(names, map(Fraction, weights)))
    assert all(type(c) is Fraction for c in coefficients.values())


def test_one_verify_replays_once(count_calls, main_construction):
    replays = count_calls(lattice.run_script)
    pullbacks = count_calls(contraction.pullback_canonical)
    readings = count_calls(contraction.chain_shape)
    closures = count_calls(topology.pi1_closure)
    rc, text = run_json("verify", "main_k3")
    assert rc == 0
    assert len(replays) == 1
    assert len(pullbacks) == 1
    # One reading of each chain serves chain_shapes and artin_contractibility;
    # the replay matches it to (p, q) without reading it again.
    assert [args[1] for args in readings] == [
        emb.curves for emb in main_construction.chains
    ]
    assert len(closures) == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_solves_each_chain_once(count_calls, main_construction,
                                             command):
    # Replay.discrepancies is the one solve: the pullback and the K^2 gain
    # of the discrepancies check read it.
    solves = count_calls(tchains.chain_discrepancies)
    rc, _ = run_json(command, "main_k3")
    assert rc == 0
    assert [args[0] for args in solves] == [
        emb.chain for emb in main_construction.chains
    ]


def test_contracted_k_squared_is_computed_once(monkeypatch, main_construction):
    # verify's k_squared check, the invariants summary and contract all read
    # Replay.k_squared instead of squaring the pullback again.
    replay = Replay(main_construction)
    pullback = replay.pullback
    squares = []
    dot = lattice.DivisorClass.dot

    def counted(self, other):
        if self is pullback and other is pullback:
            squares.append(1)
        return dot(self, other)

    monkeypatch.setattr(lattice.DivisorClass, "dot", counted)
    assert replay.verify().ok
    args = argparse.Namespace(json=True)
    with redirect_stdout(io.StringIO()):
        assert cli._cmd_contract(args, replay) == 0
        assert cli._cmd_invariants(args, replay) == 0
    assert len(squares) == 1
    assert replay.summary.k_squared == replay.k_squared == 3


def test_checkpoint_that_raises_does_not_replay_again(count_calls, main_raw):
    main_raw["expectations"][0]["curve"] = "nosuchcurve"
    construction = parse_construction(main_raw)
    replays = count_calls(lattice.run_script)
    report = verify(construction)
    assert len(replays) == 1
    by_name = {c.name: c for c in report.checks}
    script = by_name["script_expectations"]
    assert script.status == "fail"
    assert "no curve named 'nosuchcurve'" in script.details[0]
    assert [c.name for c in report.checks if c.status == "fail"] == [
        "script_expectations"
    ]


def test_replay_grades_checkpoints_on_its_single_pass(main_construction):
    replay = Replay(main_construction)
    script = main_construction.script
    assert replay.checkpoints == list(grade_checkpoints(script, run_script(script)))


def test_failed_stage_fails_each_dependent_check_alike(main_raw):
    main_raw["chains"][1]["q"] = 4
    report = verify(parse_construction(main_raw))
    by_name = {c.name: c for c in report.checks}
    message = by_name["chain_shapes"].details[0]
    assert message.startswith("C(19,4): shape")
    for name in ("discrepancies", "adjunction", "orthogonality", "k_squared",
                 "pullback_expansion", "nef_table", "invariants",
                 "rationality_exclusion"):
        assert by_name[name].status == "fail"
        assert by_name[name].details[0] == message


@pytest.mark.parametrize("dataset,edge", [("main_k3", 2), ("k4", 0)])
def test_residual_pi1_fails_with_citation(dataset, edge, write_mutant, request):
    construction = request.getfixturevalue(
        {"main_k3": "main_construction", "k4": "k4_construction"}[dataset]
    )
    mutant = write_mutant(
        construction, ("graph", "edges", edge, "power_b"), 2
    )
    rc, text = run_json("verify", "--dataset", mutant)
    assert rc == 1
    checks = {c["name"]: c for c in json.loads(text)["result"]["checks"]}
    source = f"source: {construction.citation}"
    for name in ("pi1_closure", "invariants"):
        assert checks[name]["status"] == "fail"
        assert source in checks[name]["details"]
    assert any("fingerprint: computed None" in d
               for d in checks["invariants"]["details"])


# The nef test curves each dataset recorded before the set was derived.
RECORDED_NEF_CURVES = {
    "main_k3": {"E3", "E4", "E1'", "E2'", "E4'", "E1''", "E2''", "E2'''", "E1",
                "E2", "B", "e1", "e6"},
    "pencil2_k3": {"B", "C", "L1", "e1'", "e3", "e4''", "N1", "N2", "x1", "x2",
                   "x3", "x4", "x6", "x7", "x8"},
    "k4": {"e6", "e9", "N1", "N2", "b1", "b5", "c1", "c2", "c3", "d3", "g2", "h2"},
}


@pytest.mark.parametrize("dataset", DATASETS)
def test_nef_test_set_is_every_curve_outside_the_chains(dataset, request):
    construction = request.getfixturevalue(f"{dataset.split('_')[0]}_construction")
    replay = Replay(construction)
    names = [name for name, _ in replay.nef]
    assert set(names) == RECORDED_NEF_CURVES[dataset]
    assert names == [name for name in replay.model.curves if name in set(names)]


def test_zero_on_contracted_is_graded(main_raw, main_construction):
    main_raw["expected"]["zero_on_contracted"]["value"] = False
    report = verify(parse_construction(main_raw))
    nef = {c.name: c for c in report.checks}["nef_table"]
    assert not report.ok
    assert nef.status == "fail"
    assert any("zero_on_contracted is recorded as false" in d for d in nef.details)
    assert f"source: {main_construction.citation}" in nef.details


def test_adjunction_failure_fails_the_pullback_checks():
    # A smooth cubic through 13 blown-up points has square -4, the shape of
    # C(2,1), but genus one: K . C = 4 where adjunction asks for 2.  The
    # pullback's orthogonality assertion is what then stops the later checks.
    report = verify(parse_construction({
        "name": "genus-one", "citation": "synthetic", "base_curves": {"C": 3},
        "steps": [{"at": [["C", 1]]} for _ in range(13)],
        "chains": [{"p": 2, "q": 1, "curves": ["C"]}],
    }))
    by_name = {c.name: c for c in report.checks}
    assert by_name["chain_shapes"].status == "pass"
    assert "C(2,1): K . C = 4, expected 2" in by_name["adjunction"].details
    for name in ("adjunction", "orthogonality", "k_squared", "nef_table",
                 "invariants"):
        assert by_name[name].status == "fail", name
    assert by_name["orthogonality"].details[0] == (
        "pullback not orthogonal to contracted curve C: 2"
    )
