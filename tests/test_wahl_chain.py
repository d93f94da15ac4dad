"""One reading of a Wahl pair: every ``(p, q)`` becomes its chain through
``tchains.wahl_chain``, with one bound and one message for each way in."""

import json
from math import gcd
from time import perf_counter

import pytest

from blowdown import ChainEmbedding, ContractionError, hj_expand, wahl_chain
from blowdown import cli
from blowdown.tchains import MAX_CHAIN_LENGTH

MAIN_CHAINS = ((35, 6), (19, 5), (7, 1), (2, 1))


def run_in_process(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, data):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_wahl_chain_is_the_expansion_of_every_coprime_pair():
    for p in range(2, 61):
        for q in range(1, p):
            if gcd(p, q) == 1:
                assert wahl_chain(p, q) == hj_expand(p * p, p * q - 1)


@pytest.mark.parametrize("p,q,fraction", [
    (5, 6, "25/29"), (0, 3, "0/-1"), (1, 1, "1/0"), (3, -1, "9/-4"),
])
def test_wahl_chain_names_the_pair_of_an_undefined_fraction(p, q, fraction):
    with pytest.raises(ValueError) as info:
        wahl_chain(p, q)
    assert str(info.value) == (f"C({p},{q}): p^2/(pq - 1) = {fraction} "
                               "is not a fraction above 1")


def test_every_reading_of_a_pair_gives_the_one_bound_message(
        capsys, tmp_path, main_raw, count_calls):
    # C(1002, 1) has 1001 curves.
    bound = (f"the chain of p=1002, q=1 has 1001 curves, "
             f"more than {MAX_CHAIN_LENGTH}")
    expansions = count_calls(hj_expand)
    assert run_in_process(capsys, "cpq", "1002", "1") == (2, "", f"error: {bound}\n")
    main_raw["chains"][0].update(p=1002, q=1)
    assert run_in_process(capsys, "verify", "--dataset", write(tmp_path, main_raw)) \
        == (2, "", f"error: chains[0]: {bound}\n")
    with pytest.raises(ValueError) as info:
        ChainEmbedding(1002, 1, ("a",)).match((2,))
    assert str(info.value) == bound
    assert expansions == []


def test_a_library_match_is_bounded_before_it_expands():
    start = perf_counter()
    with pytest.raises(ValueError) as info:
        ChainEmbedding(2_000_000, 1, ("a",)).match((2,))
    assert perf_counter() - start < 0.01
    message = str(info.value)
    assert "p=2000000, q=1" in message and len(message) < 200


@pytest.mark.parametrize("p,q", [(5, 6), (0, 3), (1, 1)])
def test_a_dataset_pair_with_an_undefined_fraction_is_named_as_given(
        capsys, tmp_path, main_raw, p, q):
    main_raw["chains"][0].update(p=p, q=q)
    code, out, err = run_in_process(capsys, "verify", "--dataset",
                                    write(tmp_path, main_raw))
    assert (code, err) == (1, "")
    shapes = out.split("[FAIL] chain_shapes\n")[1].split("\n[")[0]
    assert shapes.startswith(f"    C({p},{q}): p^2/(pq - 1) = ")
    assert "need 0 < q < p" not in out


@pytest.mark.parametrize("index", range(len(MAIN_CHAINS)))
def test_a_negated_pair_fails_the_shapes_and_the_contraction(
        capsys, tmp_path, main_raw, index):
    p, q = MAIN_CHAINS[index]
    main_raw["chains"][index].update(p=-p, q=-q)
    path = write(tmp_path, main_raw)
    message = f"C({-p},{-q}): a rational ball needs coprime 0 < q < p"
    code, out, err = run_in_process(capsys, "verify", "--dataset", path)
    assert (code, err) == (1, "")
    assert f"[FAIL] chain_shapes\n    {message}\n" in out
    assert f"[FAIL] discrepancies\n    {message}\n" in out
    assert run_in_process(capsys, "contract", "--dataset", path) \
        == (1, "", f"contraction fails: {message}\n")


def test_a_shape_that_matches_an_improper_pair_does_not_contract():
    with pytest.raises(ContractionError, match=r"^C\(2,2\): a rational ball"):
        ChainEmbedding(2, 2, ("a", "b", "c")).match((2, 2, 2))
    assert ChainEmbedding(2, 1, ("a",)).match((4,)) == (4,)
