"""End-to-end runs of the command line interface."""

import copy
import hashlib
import io
import json
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from blowdown import cli, parse_construction, read_dataset
from blowdown.cli import MAX_CHAIN_LENGTH, MAX_GEN_LENGTH
from blowdown.tchains import ClassTResult, hj_expand


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blowdown", *args],
        capture_output=True,
        text=True,
    )


def test_no_arguments_shows_usage():
    result = run_cli()
    assert result.returncode == 2
    assert "usage" in (result.stderr + result.stdout).lower()


def test_unknown_subcommand_exits_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def test_list_names_constructions():
    result = run_cli("list")
    assert result.returncode == 0
    for name in ("k4", "main_k3", "pencil2_k3"):
        assert name in result.stdout
    assert "K^2 = 3" in result.stdout
    assert "K^2 = 4" in result.stdout


def test_cpq_text_output():
    result = run_cli("cpq", "7", "1")
    assert result.returncode == 0
    assert "C(7,1): 9 2 2 2 2 2" in result.stdout
    assert "lens order 49" in result.stdout
    assert "discrepancies: 6/7, 5/7, 4/7, 3/7, 2/7, 1/7" in result.stdout
    assert "meridian powers: 6, 5, 4, 3, 2, 1" in result.stdout


def test_cpq_rejects_non_coprime_pairs():
    for p, q in [("2", "2"), ("7", "0"), ("4", "6")]:
        result = run_cli("cpq", p, q)
        assert result.returncode == 2
        assert "coprime" in result.stderr


def test_cpq_json_is_deterministic():
    first = run_cli("cpq", "35", "6", "--json")
    second = run_cli("cpq", "35", "6", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["tool"] == "blowdown"
    assert payload["command"] == "cpq"
    assert len(payload["input_sha256"]) == 64
    assert payload["result"]["chain"] == [6, 8, 2, 2, 2, 3, 2, 2, 2, 2]


def test_tchain_gen_counts_and_annotations():
    result = run_cli("tchain", "gen", "--max-len", "4")
    assert result.returncode == 0
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    assert lines[-1] == "26 chains of length <= 4"
    assert "[4]  d=1 n=2 a=1 (Wahl p=2 q=1)" in result.stdout
    assert "[3, 3]  d=2 n=2 a=1" in result.stdout


def test_cpq_bounds_the_chain_length_before_expanding():
    # C(p, 1) has p - 1 curves.
    result = run_cli("cpq", str(MAX_CHAIN_LENGTH + 1), "1")
    assert result.returncode == 0
    assert f"length {MAX_CHAIN_LENGTH}," in result.stdout
    result = run_cli("cpq", "100000000000000000000001", "2")
    assert result.returncode == 2
    assert "p=100000000000000000000001, q=2" in result.stderr
    assert f"more than {MAX_CHAIN_LENGTH}" in result.stderr


@pytest.mark.parametrize("max_len", [0, MAX_GEN_LENGTH + 1, 100])
def test_tchain_gen_bounds_max_len(max_len):
    assert MAX_GEN_LENGTH >= 17
    result = run_cli("tchain", "gen", "--max-len", str(max_len))
    assert result.returncode == 2
    assert f"--max-len must lie between 1 and {MAX_GEN_LENGTH}" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_tchain_gen_exits_141_when_the_reader_leaves(flags):
    # As in `blowdown tchain gen --max-len 14 | head -1`.
    proc = subprocess.Popen(
        [sys.executable, "-m", "blowdown", "tchain", "gen", "--max-len", "14",
         *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


def test_tchain_gen_json_streams_in_flat_memory():
    # The process's own peak RSS; the whole envelope built in memory
    # peaked at about 104 MiB at this length.
    script = (
        "import resource, sys\n"
        "from blowdown import cli\n"
        "code = cli.main(['tchain', 'gen', '--max-len', '14', '--json'])\n"
        "sys.stdout.flush()\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(rss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)["result"]
    assert payload["count"] == len(payload["chains"]) == 2**15 - 16
    assert int(result.stderr) < 64 * 1024  # KiB


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_tchain_gen_stops_at_a_record_that_fails_its_check(
    monkeypatch, capsys, flags
):
    good = list(cli.iter_class_t(3))
    monkeypatch.setattr(
        cli, "iter_class_t", lambda max_len: iter(good + [((2, 5), (1, 3, 1))])
    )
    assert cli.main(["tchain", "gen", "--max-len", "3", *flags]) == 1
    out, err = capsys.readouterr()
    assert "error: chain [2, 5] has fraction 9/5" in err
    # Every good record was written before the bad one was checked, and
    # the output stops there.
    if flags:
        assert out.count('"chain"') == len(good)
        assert '"count"' not in out
        with pytest.raises(ValueError):
            json.loads(out)
    else:
        assert out.splitlines() == [
            f"{list(record['chain'])}  {cli._params_line(record)}"
            for record in cli._tchain_records(good)
        ]


def test_tchain_check_recognizes_class_t():
    result = run_cli("tchain", "check", "6", "8", "2", "2", "2", "3", "2", "2", "2", "2")
    assert result.returncode == 0
    assert "class T (derived)" in result.stdout
    assert "base [4]" in result.stdout
    assert "d=1 n=35 a=6 (Wahl p=35 q=6)" in result.stdout


def test_tchain_check_rejects_other_chains():
    result = run_cli("tchain", "check", "4", "4")
    assert result.returncode == 0
    assert "not_class_t" in result.stdout


def test_contract_text_report():
    result = run_cli("contract", "main_k3")
    assert result.returncode == 0
    assert "4 chains contract" in result.stdout
    assert "K^2: -21 -> 3" in result.stdout
    assert "C(35,6): [6, 8, 2, 2, 2, 3, 2, 2, 2, 2]" in result.stdout


def test_contract_json_report():
    result = run_cli("contract", "main_k3", "--report", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    body = payload["result"]
    assert body["k_squared"] == "3"
    assert body["k_squared_resolution"] == "-21"
    assert len(body["chains"]) == 4
    assert body["nef_values"]["E2''"] == "4/35"


def test_contract_rejects_two_sources(main_construction):
    result = run_cli("contract", "main_k3", "--dataset", main_construction.source_path)
    assert result.returncode == 2
    assert "not both" in result.stderr


def test_invariants_text_and_json():
    text = run_cli("invariants", "main_k3")
    assert text.returncode == 0
    assert "K^2 = 3, e = 9, signature = -5" in text.stdout
    assert "homeomorphism type: P2 # 6 P2bar" in text.stdout
    as_json = run_cli("invariants", "main_k3", "--json")
    payload = json.loads(as_json.stdout)
    assert payload["result"]["fingerprint"] == "P2 # 6 P2bar"
    assert payload["result"]["k_squared"] == "3"
    assert payload["result"]["noether_ok"] is True


def test_pi1_construction_name():
    result = run_cli("pi1", "main_k3")
    assert result.returncode == 0
    assert "fundamental group killed" in result.stdout


def test_pi1_graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(
        json.dumps(
            {
                "nodes": [
                    {"name": "A", "order": 4},
                    {"name": "B", "order": 8},
                ],
                "edges": [{"a": "A", "b": "B", "power_a": 1, "power_b": 1}],
            }
        )
    )
    result = run_cli("pi1", str(path))
    assert result.returncode == 0
    assert "closure leaves residual cyclic factors" in result.stdout
    assert "final orders: A: 4, B: 4" in result.stdout


@pytest.mark.parametrize("graph,message", [
    ({"nodes": 5, "edges": []}, "graph.nodes must be an array"),
    ({"nodes": [{"name": "A", "order": 4}]}, "graph.edges must be an array"),
    ({"nodes": [{"order": 4}], "edges": []}, "graph.nodes[0].name is missing"),
    ({"nodes": [4], "edges": []}, "graph.nodes[0] must be an object"),
    ({"nodes": [{"name": "A", "order": 4}], "edges": [{"a": "A"}]},
     "graph.edges[0].b is missing"),
    ({"nodes": [{"name": "A", "order": 4}], "edges": [{"b": "A"}]},
     "graph.edges[0].a is missing"),
    ({"nodes": [{"name": 5, "order": 4}], "edges": []},
     "graph.nodes[0].name must be a string"),
    ({"nodes": [{"name": "A", "order": 4}],
      "edges": [{"a": "A", "b": 5, "power_a": 1, "power_b": 1}]},
     "graph.edges[0].b must be a string"),
    ({"nodes": [{"name": "A", "order": 4}], "edges": [], "reconstructed": "no"},
     "graph.reconstructed must be a boolean"),
], ids=["nodes_not_a_list", "no_edges", "node_without_name", "node_not_object",
        "edge_without_b", "edge_without_a", "node_name_not_a_string",
        "edge_end_not_a_string", "reconstructed_not_a_boolean"])
def test_malformed_graph_file_names_the_field(tmp_path, graph, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    result = run_cli("pi1", str(path))
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"


def test_pi1_reads_a_construction_file_once(monkeypatch, main_construction):
    reads = []
    read_bytes = pathlib.Path.read_bytes

    def counted(self):
        reads.append(str(self))
        return read_bytes(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counted)
    source = main_construction.source_path
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["pi1", "--dataset", source, "--json"]) == 0
    assert reads == [source]
    with open(source, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert json.loads(out.getvalue())["input_sha256"] == digest
    assert digest == main_construction.sha256


def test_verify_text_passes_and_reports_errata():
    result = run_cli("verify", "main_k3")
    assert result.returncode == 0
    assert "[PASS] script_expectations" in result.stdout
    assert "[ERRATUM] nef_table" in result.stdout
    assert "K^2: 3" in result.stdout
    assert result.stdout.rstrip().endswith("result: OK (recorded errata confirmed)")


def test_verify_clean_dataset_ends_plain():
    result = run_cli("verify", "k4")
    assert result.returncode == 0
    assert result.stdout.rstrip().endswith("result: OK")


def test_verify_unknown_name_exits_2():
    result = run_cli("verify", "nosuch")
    assert result.returncode == 2
    assert "no construction named" in result.stderr


def test_verify_json_is_deterministic():
    first = run_cli("verify", "pencil2_k3", "--json")
    second = run_cli("verify", "pencil2_k3", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["result"]["ok"] is True
    assert payload["result"]["errata_found"] is True


def test_verify_mutated_dataset_exits_1(tmp_path, main_construction):
    with open(main_construction.source_path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    doctored = copy.deepcopy(raw)
    doctored["expectations"][0]["self_int"] = -3
    path = tmp_path / "doctored.json"
    path.write_text(json.dumps(doctored))
    result = run_cli("verify", "--dataset", str(path))
    assert result.returncode == 1
    assert "[FAIL] script_expectations" in result.stdout
    assert "H. Park, J. Park and D. Shin" in result.stdout


@pytest.mark.parametrize(
    "argv",
    [["verify", "--dataset"], ["contract", "--dataset"],
     ["invariants", "--dataset"], ["pi1", "--dataset"], ["pi1"]],
)
def test_dataset_that_is_a_directory_exits_2(tmp_path, argv):
    path = tmp_path / "d.json"
    path.mkdir()
    result = run_cli(*argv, str(path))
    assert result.returncode == 2
    assert f"cannot read {path}" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["verify", "contract", "invariants"])
def test_dataset_that_is_an_array_exits_2(tmp_path, command):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    result = run_cli(command, "--dataset", str(path))
    assert result.returncode == 2
    assert "must be an object" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["verify", "contract", "invariants"])
def test_chain_without_q_exits_2(tmp_path, main_construction, command):
    with open(main_construction.source_path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    del raw["chains"][0]["q"]
    path = tmp_path / "no_q.json"
    path.write_text(json.dumps(raw))
    result = run_cli(command, "--dataset", str(path))
    assert result.returncode == 2
    assert "chains[0].q" in result.stderr
    assert "Traceback" not in result.stderr


def test_residual_pi1_exits_1_with_a_report(tmp_path, k4_construction):
    with open(k4_construction.source_path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["graph"]["edges"][0]["power_b"] = 2
    path = tmp_path / "k4_pi1.json"
    path.write_text(json.dumps(raw))
    result = run_cli("verify", "--dataset", str(path))
    assert result.returncode == 1
    assert "[FAIL] pi1_closure" in result.stdout
    assert "[FAIL] invariants" in result.stdout
    assert "Traceback" not in result.stderr


def test_recorded_table_that_is_an_array_exits_2(tmp_path, main_construction):
    with open(main_construction.source_path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    raw["expected"]["canonical_relation"]["values"] = [1, 2]
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps(raw))
    result = run_cli("verify", "--dataset", str(path))
    assert result.returncode == 2
    assert "expected.canonical_relation must be an object" in result.stderr


@pytest.mark.parametrize("path,value,message", [
    (("expected", "k_squared", "value"), "abc",
     "expected.k_squared must be an integer or a fraction string, got 'abc'"),
    (("expected", "discrepancies", "values", "C(7,1)", 2), [1],
     "expected.discrepancies.C(7,1)[2] must be an integer or a fraction"),
    (("errata", "nef_values", "E2''"), "4/0",
     "errata.nef_values.E2'' must be an integer or a fraction string"),
    (("expected", "pi1_trivial", "value"), "yes",
     "expected.pi1_trivial must be a boolean"),
    (("graph", "nodes", 0, "q"), "x", "graph.nodes[0].q must be an integer"),
    (("steps", 0, "at", 0, 1), 1.5, "steps[0].at[0][1] must be an integer"),
    (("steps", 0, "at", 0, 1), "1", "steps[0].at[0][1] must be an integer"),
    (("steps", 0, "at", 0, 1), True, "steps[0].at[0][1] must be an integer"),
    (("steps", 0, "at", 0), ["B"], "steps[0].at[0] must have two entries"),
    (("base_curves", "B"), [1, 0.5], "base_curves.B[1] must be an integer"),
    (("base_curves", "B"), True, "base_curves.B must be an integer"),
    (("base_curves", "B"), "1", "base_curves.B must be an integer"),
    (("expectations", 0, "after_step"), 1.7,
     "expectations[0].after_step must be an integer"),
    (("expectations", 0, "self_int"), 1.5,
     "expectations[0].self_int must be an integer or a fraction string"),
    (("expectations", 20, "intersection"), True,
     "expectations[20].intersection must be an integer or a fraction string"),
    (("nef_test_curves",), 5, "nef_test_curves must be an array"),
    (("nef_test_curves",), "abc", "nef_test_curves must be an array"),
    (("nef_test_curves", 0), 3, "nef_test_curves[0] must be a string"),
    (("parity_override",), 5, "parity_override must be a string"),
    (("name",), 5, "name must be a string"),
    (("title",), ["x"], "title must be a string"),
    (("citation",), 7, "citation must be a string"),
    (("fiber_expansions", "F1"), "F1", "fiber_expansions.F1 must be an array"),
    (("expected", "k_squared", "cite"), 5, "expected.k_squared.cite must be a string"),
    (("graph", "reconstructed"), "no", "graph.reconstructed must be a boolean"),
    (("graph", "nodes", 0, "name"), 5, "graph.nodes[0].name must be a string"),
    (("graph", "edges", 0, "a"), 5, "graph.edges[0].a must be a string"),
    # Only a missing or null graph means the dataset has none.
    (("graph",), 0, "graph must be an object"),
    (("graph",), False, "graph must be an object"),
    (("graph",), "", "graph must be an object"),
    (("graph",), [], "graph must be an object"),
    (("graph",), {}, "graph.nodes must be an array"),
], ids=["k_squared", "discrepancy", "erratum", "pi1_trivial", "graph_node_q",
        "multiplicity_float", "multiplicity_string", "multiplicity_bool",
        "center_not_a_pair", "degree_float_entry", "degree_bool", "degree_string",
        "after_step_float", "self_int_float", "intersection_bool",
        "nef_curves_int", "nef_curves_string", "nef_curve_int", "parity_override",
        "name", "title", "citation", "fiber_expansion", "cite",
        "graph_reconstructed", "graph_node_name", "graph_edge_end",
        "graph_zero", "graph_false", "graph_empty_string", "graph_empty_array",
        "graph_empty_object"])
def test_malformed_recorded_field_exits_2(write_mutant, main_construction, path,
                                          value, message):
    result = run_cli("verify", "--dataset",
                     write_mutant(main_construction, path, value))
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("path,value,field", [
    (("comment",), 1, "comment"),
    (("steps", 3, "mult"), 1, "steps[3].mult"),
    (("expectations", 5, "value"), 1, "expectations[5].value"),
    (("chains", 1, "length"), 1, "chains[1].length"),
    (("graph", "loops"), 1, "graph.loops"),
    (("graph", "nodes", 2, "order_b"), 1, "graph.nodes[2].order_b"),
    (("graph", "edges", 1, "power"), 1, "graph.edges[1].power"),
    (("expected", "k2"), {"cite": "x", "value": 7}, "expected.k2"),
    (("errata", "notes"), ["x"], "errata.notes"),
    # Keys that no check reads, which used to pass with exit 0.
    (("errata", "discrepancies"), {"C(99,1)": ["1/2"]}, "errata.discrepancies"),
    (("errata", "k_squared"), "7", "errata.k_squared"),
    (("expected", "k_sqared"), {"cite": "x", "value": 7}, "expected.k_sqared"),
    (("nef_tset_curves",), ["F1"], "nef_tset_curves"),
    # A checkpoint carries the keys of its own shape only.
    (("expectations", 0, "intersection"), 99, "expectations[0].intersection"),
    # A wrapper carries its cite and one of value and values.
    (("expected", "k_squared", "valeu"), 99, "expected.k_squared.valeu"),
    (("expected", "k_squared", "values"), 3, "expected.k_squared.value"),
], ids=["top_level", "step", "expectation", "chain", "graph", "graph_node",
        "graph_edge", "expected", "errata", "errata_discrepancies",
        "errata_k_squared", "expected_typo", "top_level_typo",
        "expectation_other_shape", "wrapper_typo", "wrapper_value_and_values"])
@pytest.mark.parametrize("command", ["verify", "contract", "invariants"])
def test_an_unknown_key_exits_2_naming_its_path(capsys, write_mutant,
                                                main_construction, command,
                                                path, value, field):
    mutant = write_mutant(main_construction, path, value)
    code, out, err = run_in_process(capsys, command, "--dataset", mutant)
    assert (code, out) == (2, "")
    assert err == f"error: {field} is not a known field\n"


@pytest.mark.parametrize("key", ["graph", "nodes[0]", "edges[0]"])
def test_an_unknown_key_in_a_graph_file_exits_2(capsys, tmp_path, key):
    graph = {"nodes": [{"name": "A", "order": 4}],
             "edges": [{"a": "A", "b": "A", "power_a": 1, "power_b": 1}]}
    entry = graph if key == "graph" else graph[key[:5]][0]
    entry["extra"] = 1
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_in_process(capsys, "pi1", str(path))
    assert (code, out) == (2, "")
    field = "graph.extra" if key == "graph" else f"graph.{key}.extra"
    assert err == f"error: {field} is not a known field\n"


def test_built_in_datasets_carry_only_known_keys():
    """Every key of the built-in datasets is one the reader knows, and the
    keys it keeps unread (``comments``, ``errata.note``, edge ``curve``)
    are there to keep."""
    for name in ("main_k3", "pencil2_k3", "k4"):
        data, _, _ = read_dataset(name)
        parse_construction(data)
        assert "comments" in data
        assert all("curve" in edge for edge in data["graph"]["edges"])


@pytest.mark.parametrize("drop,needs", [
    (("base_surface_step",), "fiber_expansions"),
    (("base_surface_step", "fiber_expansions"), "expected.canonical_relation"),
], ids=["with_fibers", "without_fibers"])
@pytest.mark.parametrize("command", ["verify", "contract", "invariants"])
def test_a_fiber_decomposition_without_base_surface_step_exits_2(
        capsys, tmp_path, main_raw, command, drop, needs):
    for key in drop:
        del main_raw[key]
    path = tmp_path / "no_base.json"
    path.write_text(json.dumps(main_raw))
    code, out, err = run_in_process(capsys, command, "--dataset", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: base_surface_step is missing, but {needs} is "
                   "measured from the base surface\n")


@pytest.mark.parametrize("graph", ["missing", "null"])
@pytest.mark.parametrize("command", ["verify", "contract", "invariants"])
def test_a_recorded_pi1_trivial_without_graph_exits_2(capsys, tmp_path, main_raw,
                                                       command, graph):
    if graph == "missing":
        del main_raw["graph"]
    else:
        main_raw["graph"] = None
    path = tmp_path / "no_graph.json"
    path.write_text(json.dumps(main_raw))
    code, out, err = run_in_process(capsys, command, "--dataset", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: graph is missing, but expected.pi1_trivial is read "
                   "off its closure\n")


@pytest.mark.parametrize("dataset", ["main_k3", "pencil2_k3", "k4"])
@pytest.mark.parametrize("command", ["verify", "contract", "invariants"])
def test_each_dataset_chain_is_expanded_once(capsys, count_calls, dataset,
                                             command, request):
    construction = request.getfixturevalue(f"{dataset.split('_')[0]}_construction")
    expansions = count_calls(hj_expand)
    code, _, err = run_in_process(capsys, command, dataset, "--json")
    assert (code, err) == (0, "")
    assert sorted(expansions) == sorted(
        (emb.p * emb.p, emb.p * emb.q - 1) for emb in construction.chains)


@pytest.mark.parametrize("dataset,steps", [
    ("main_k3", 30), ("pencil2_k3", 19), ("k4", 27),
])
def test_base_surface_step_beyond_the_script_exits_2(write_mutant, dataset, steps,
                                                     request):
    construction = request.getfixturevalue(f"{dataset.split('_')[0]}_construction")
    result = run_cli("verify", "--dataset", write_mutant(
        construction, ("base_surface_step",), 999))
    assert result.returncode == 2
    assert (f"base_surface_step must lie between 0 and the script's {steps} "
            "steps, got 999") in result.stderr


@pytest.mark.parametrize("command", ["verify", "pi1"])
def test_graph_node_with_zero_p_and_q_exits_2(write_mutant, main_construction,
                                              command):
    path = write_mutant(main_construction, ("graph", "nodes", 0),
                        {"name": "C(35,6)", "p": 0, "q": 0})
    result = run_cli(command, "--dataset", path)
    assert result.returncode == 2
    assert "graph.nodes[0].p must be positive, got 0" in result.stderr


@pytest.mark.parametrize("dataset", ["main_k3", "pencil2_k3", "k4"])
def test_graph_node_must_carry_its_chains_parameters(write_mutant, dataset,
                                                     request):
    construction = request.getfixturevalue(f"{dataset.split('_')[0]}_construction")
    node = construction.graph.nodes[0]
    path = write_mutant(construction, ("graph", "nodes", 0, "p"), node.p + 2)
    result = run_cli("verify", "--dataset", path, "--json")
    assert result.returncode == 1
    checks = {c["name"]: c for c in json.loads(result.stdout)["result"]["checks"]}
    pi1 = checks["pi1_closure"]
    assert pi1["status"] == "fail"
    assert (f"graph node {node.name} carries (p, q) = ({node.p + 2}, {node.q}), "
            f"but its chain has ({node.p}, {node.q})") in pi1["details"]
    assert f"source: {construction.citation}" in pi1["details"]


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
TEXT_CASES = json.loads((GOLDEN / "cli_text.json").read_text(encoding="utf-8"))


def run_in_process(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("case", TEXT_CASES,
                         ids=[" ".join(case["argv"]) for case in TEXT_CASES])
def test_text_output_matches_the_golden_file(monkeypatch, capsys, case):
    """The text report of each command, with its stderr and exit code, as
    pinned in ``golden/cli_text.json``."""
    monkeypatch.delenv("BLOWDOWN_DATA_DIR", raising=False)
    code, out, err = run_in_process(capsys, *case["argv"])
    assert (out, err, code) == (case["stdout"], case["stderr"], case["code"])


@pytest.mark.parametrize("command", ["verify", "contract", "invariants", "pi1"])
def test_source_must_be_given_once(capsys, main_construction, command):
    code, out, err = run_in_process(
        capsys, command, "main_k3", "--dataset", main_construction.source_path)
    assert (code, out) == (2, "")
    assert err == "error: give either a construction name or --dataset, not both\n"
    code, out, err = run_in_process(capsys, command, "--json")
    assert (code, out) == (2, "")
    assert err == "error: name a construction or pass --dataset <path>\n"


@pytest.mark.parametrize("command,failure", [
    ("contract", "contraction fails"), ("invariants", "invariants unavailable"),
])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_failing_stage_exits_1_on_stderr(capsys, write_mutant, main_construction,
                                         command, failure, flags):
    path = write_mutant(main_construction, ("chains", 0, "q"), 3)
    code, out, err = run_in_process(capsys, command, "--dataset", path, *flags)
    assert (code, out) == (1, "")
    assert err.startswith(f"{failure}: C(35,3): shape (6, 8, 2, 2, 2, 3, 2, 2, 2, 2)")


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_tchain_check_exits_1_on_a_bad_triple(monkeypatch, capsys, flags):
    monkeypatch.setattr(ClassTResult, "params", property(lambda self: (1, 3, 1)))
    code, out, err = run_in_process(capsys, "tchain", "check", "2", "5", *flags)
    assert (code, out) == (1, "")
    assert err == ("error: chain [2, 5] has fraction 9/5, "
                   "not dn^2/(dna - 1) for (d, n, a) = (1, 3, 1)\n")


def test_list_with_no_datasets(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("BLOWDOWN_DATA_DIR", str(tmp_path))
    assert run_in_process(capsys, "list") == (0, "no constructions found\n", "")
    code, out, err = run_in_process(capsys, "list", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"constructions": []}


def test_list_marks_an_unreadable_dataset(monkeypatch, capsys, tmp_path):
    (tmp_path / "broken.json").write_text("{not json")
    monkeypatch.setenv("BLOWDOWN_DATA_DIR", str(tmp_path))
    assert run_in_process(capsys, "list") == (0, "broken: (unreadable)\n", "")


@pytest.mark.parametrize("content,reason", [
    (b"{not json", "Expecting property name enclosed in double quotes"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["json_syntax", "utf8"])
def test_undecodable_dataset_exits_2_naming_its_path(monkeypatch, capsys,
                                                     tmp_path, content, reason):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    monkeypatch.setenv("BLOWDOWN_DATA_DIR", str(tmp_path))
    for argv in (["verify", "broken"], ["contract", "--dataset", str(path)],
                 ["invariants", "broken", "--json"], ["pi1", str(path)]):
        code, out, err = run_in_process(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: {reason}"), err
    assert run_in_process(capsys, "list") == (0, "broken: (unreadable)\n", "")


@pytest.mark.parametrize("p,q,length", [
    (2_000_000, 1, 1_999_999), (2_000, 2_000, 3_999_999),
    (-2_000_000, -1, 1_999_999), (MAX_CHAIN_LENGTH + 2, 1, MAX_CHAIN_LENGTH + 1),
])
@pytest.mark.parametrize("command", ["verify", "contract", "invariants"])
def test_dataset_chain_too_long_to_expand_exits_2(capsys, tmp_path, main_raw,
                                                  count_calls, command, p, q,
                                                  length):
    main_raw["chains"][0].update(p=p, q=q)
    path = tmp_path / "long_chain.json"
    path.write_text(json.dumps(main_raw))
    expansions = count_calls(hj_expand)
    code, out, err = run_in_process(capsys, command, "--dataset", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: chains[0]: the chain of p={p}, q={q} has {length} "
                   f"curves, more than {MAX_CHAIN_LENGTH}\n")
    assert expansions == []


@pytest.mark.parametrize("p,q", [(MAX_CHAIN_LENGTH + 1, 1), (1, 1), (5, 6), (0, 3)])
def test_dataset_chain_within_the_bound_is_matched(capsys, tmp_path, main_raw,
                                                   p, q):
    """A chain the bound lets through, or whose expansion is undefined,
    still reaches the replay and fails there as a mismatched shape."""
    main_raw["chains"][0].update(p=p, q=q)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(main_raw))
    code, out, err = run_in_process(capsys, "verify", "--dataset", str(path))
    assert (code, err) == (1, "")
    assert "[FAIL] chain_shapes" in out


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_contract_fails_on_a_recorded_fiber_decomposition_that_fails(
        capsys, write_mutant, main_construction, flags):
    support = dict(main_construction.fiber_expansions)["F1"][:-1]
    path = write_mutant(main_construction, ("fiber_expansions", "F1"), support)
    code, out, err = run_in_process(capsys, "contract", "--dataset", path, *flags)
    assert (code, out) == (1, "")
    assert err.startswith("contraction fails: class does not lie in the span of")


@pytest.mark.parametrize("dataset", ["pencil2_k3", "k4"])
def test_contract_without_a_fiber_decomposition_prints_no_expansion(capsys,
                                                                    dataset):
    code, out, err = run_in_process(capsys, "contract", dataset, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["expansion"] is None
