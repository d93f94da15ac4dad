"""Continued-fraction expansion and class T chain recognition."""

import ast
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from blowdown import (
    classify_chain,
    continuants,
    fraction_terms,
    hj_expand,
    iter_class_t,
    wahl_chain_length,
)
from blowdown import cli, tchains
from blowdown.tchains import chain_bases
from class_t_oracle import (
    apply_moves,
    extend_left,
    extend_right,
    fold,
    general_params,
    wahl_params,
)

ORACLE = Path(__file__).resolve().parent / "class_t_oracle.py"
GOLDEN = Path(__file__).resolve().parent / "golden"

# Each C(p,q) label denotes the expansion of p^2/(pq - 1).
WAHL_CHAINS = {
    (2, 1): (4,),
    (7, 1): (9, 2, 2, 2, 2, 2),
    (19, 5): (4, 7, 2, 2, 3, 2, 2),
    (35, 6): (6, 8, 2, 2, 2, 3, 2, 2, 2, 2),
    (7, 4): (2, 6, 2, 3),
    (48, 17): (3, 6, 5, 3, 2, 2, 2, 3, 2),
    (3, 1): (5, 2),
    (4, 1): (6, 2, 2),
    (7, 2): (4, 5, 2, 2),
    (131, 27): (5, 7, 6, 2, 3, 2, 2, 2, 2, 3, 2, 2, 2),
}


def coprime_pairs(limit):
    for p in range(2, limit + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


st_coprime = st.integers(2, 400).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1),
    )
)


def test_hj_expand_small_values():
    assert hj_expand(2, 1) == (2,)
    assert hj_expand(3, 1) == (3,)
    assert hj_expand(3, 2) == (2, 2)
    assert hj_expand(7, 5) == (2, 2, 3)
    assert hj_expand(19, 5) == (4, 5)
    assert hj_expand(49, 6) == (9, 2, 2, 2, 2, 2)


def test_hj_expand_entries_at_least_two():
    for p, q in coprime_pairs(40):
        assert min(hj_expand(p, q)) >= 2


@pytest.mark.parametrize(
    "p, q",
    [(7, 0), (7, 7), (3, 5), (4, 2), (0, 1), (-5, 2)],
)
def test_hj_expand_rejects_bad_pairs(p, q):
    with pytest.raises(ValueError):
        hj_expand(p, q)


def test_hj_expand_rejects_non_integers():
    with pytest.raises(ValueError):
        hj_expand(2.0, 1)


def test_hj_value_inverts_expansion():
    for p, q in coprime_pairs(40):
        assert Fraction(*fraction_terms(hj_expand(p, q))) == Fraction(p, q)


@given(st_coprime)
@settings(max_examples=200)
def test_hj_round_trip_property(pair):
    p, q = pair
    bs = hj_expand(p, q)
    assert all(b >= 2 for b in bs)
    assert Fraction(*fraction_terms(bs)) == Fraction(p, q)


def test_continuants_recurrence():
    bs = (6, 8, 2, 2, 2, 3, 2, 2, 2, 2)
    qs = continuants(bs)
    assert len(qs) == len(bs)
    prev2, prev1 = 1, qs[0]
    assert qs[0] == bs[0]
    for b, q in zip(bs[1:], qs[1:]):
        assert q == b * prev1 - prev2
        prev2, prev1 = prev1, q


def test_continuant_is_numerator():
    for p, q in coprime_pairs(30):
        assert continuants(hj_expand(p, q))[-1] == p


def test_chain_determinant_equals_top_continuant():
    for p, q in coprime_pairs(25):
        bs = hj_expand(p, q)
        assert continuants(bs)[-1] == fraction_terms(bs)[0] == p


def test_wahl_expansions_match_table():
    for (p, q), bs in WAHL_CHAINS.items():
        assert hj_expand(p * p, p * q - 1) == bs


def test_extend_moves():
    assert extend_left((4,)) == (2, 5)
    assert extend_right((4,)) == (5, 2)
    assert extend_left((3, 3)) == (2, 3, 4)
    assert extend_right((3, 3)) == (4, 3, 2)
    assert extend_right((2, 5)) == (3, 5, 2)


def test_classify_bases():
    for bs in [(4,), (3, 3), (3, 2, 3), (3, 2, 2, 2, 3)]:
        res = classify_chain(bs)
        assert res.kind == "base"
        assert res.is_class_t
        assert res.base == bs
        assert res.moves == ()


def test_classify_derived():
    res = classify_chain((6, 8, 2, 2, 2, 3, 2, 2, 2, 2))
    assert res.kind == "derived"
    assert res.base == (4,)
    assert res.moves == (
        "right",
        "right",
        "right",
        "right",
        "left",
        "right",
        "right",
        "right",
        "right",
    )
    assert apply_moves(res.base, res.moves) == res.chain


def test_classify_all_twos_is_rdp():
    for k in (1, 2, 5):
        res = classify_chain((2,) * k)
        assert res.kind == "rdp"
        assert not res.is_class_t


@pytest.mark.parametrize("bs", [(4, 4), (3,), (5, 5, 2), (2, 3, 2)])
def test_classify_rejects_non_class_t(bs):
    res = classify_chain(bs)
    assert res.kind == "not_class_t"
    assert not res.is_class_t
    with pytest.raises(ValueError):
        general_params(bs)


@pytest.mark.parametrize("bs", [(), (4, 1), (0, 3), (4, -2)])
def test_classify_rejects_malformed_chains(bs):
    with pytest.raises(ValueError):
        classify_chain(bs)


def test_generate_counts():
    # 2^k - 1 chains of each length k.
    expected = 0
    for length in range(1, 7):
        expected += 2**length - 1
        assert len(list(iter_class_t(length))) == expected


def test_generate_is_exact_and_distinct():
    chains = [chain for chain, _ in iter_class_t(6)]
    assert len(set(chains)) == len(chains)
    for bs in chains:
        res = classify_chain(bs)
        assert res.is_class_t
        if res.kind == "derived":
            assert apply_moves(res.base, res.moves) == bs


def test_chain_bases_are_the_base_family():
    bases = list(chain_bases(5))
    assert bases == [(4,), (3, 3), (3, 2, 3), (3, 2, 2, 3), (3, 2, 2, 2, 3)]
    for bs in bases:
        assert classify_chain(bs).kind == "base"


def test_general_params_known_values():
    assert general_params((4,)) == (1, 2, 1)
    assert general_params((3, 3)) == (2, 2, 1)
    assert general_params((3, 2, 3)) == (3, 2, 1)
    assert general_params((2, 5)) == (1, 3, 2)
    assert general_params(hj_expand(361, 94)) == (1, 19, 5)


def test_general_params_defines_the_fraction():
    for bs, _ in iter_class_t(7):
        d, n, a = classify_chain(bs).params
        assert n >= 2 and 0 < a < n and gcd(a, n) == 1
        assert Fraction(*fraction_terms(bs)) == Fraction(d * n * n, d * n * a - 1)


def test_wahl_params_known_values():
    for (p, q), bs in WAHL_CHAINS.items():
        assert wahl_params(bs) == (p, q)


def test_wahl_params_rejects_wider_class_t():
    # d > 1 chains have non-square determinant or a mismatched cofactor.
    for bs in [(3, 3), (3, 2, 3), (2, 3, 4)]:
        with pytest.raises(ValueError):
            wahl_params(bs)


def test_wahl_members_have_d_one():
    for bs, (d, n, a) in iter_class_t(6):
        try:
            p, q = wahl_params(bs)
        except ValueError:
            assert d > 1
        else:
            assert d == 1 and (p, q) == (n, a)


@given(st_coprime)
@settings(max_examples=120)
def test_wahl_chains_are_class_t(pair):
    p, q = pair
    bs = hj_expand(p * p, p * q - 1)
    res = classify_chain(bs)
    assert res.is_class_t
    assert wahl_params(bs) == (p, q)


@given(st.sampled_from([chain for chain, _ in iter_class_t(8)]),
       st.sampled_from(["left", "right"]))
def test_moves_preserve_class_t_and_d(bs, move):
    extended = extend_left(bs) if move == "left" else extend_right(bs)
    assert len(extended) == len(bs) + 1
    assert classify_chain(extended).is_class_t
    d, n, a = classify_chain(bs).params
    d2, n2, a2 = classify_chain(extended).params
    assert d2 == d
    assert n2 > n


def run_cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main([*argv, "--json"])
    return rc, out.getvalue()


def test_tchain_gen_json_matches_the_golden_file():
    for max_len in (5, 8):
        rc, text = run_cli_json("tchain", "gen", "--max-len", str(max_len))
        assert rc == 0
        golden = GOLDEN / f"tchain_gen_{max_len}.json"
        assert text.encode("utf-8") == golden.read_bytes()


def test_streamed_json_is_the_rendered_envelope():
    # The streamed document against _render_json over the listed records.
    for max_len in range(1, 13):
        records = list(cli._tchain_records(iter_class_t(max_len)))
        out = io.StringIO()
        with redirect_stdout(out):
            print(cli._render_json(
                "tchain gen",
                cli._digest_args({"max_len": max_len}),
                {"max_len": max_len, "count": len(records), "chains": records},
            ))
        rc, text = run_cli_json("tchain", "gen", "--max-len", str(max_len))
        assert rc == 0
        assert text == out.getvalue()


def test_carried_params_match_the_fraction_search():
    # The (d, n, a) carried along the moves against the O(sqrt N) search,
    # on every class T chain up to length 12.
    pairs = list(iter_class_t(12))
    assert len(pairs) == 2**13 - 2 - 12 == 8178
    for chain, params in pairs:
        assert params == general_params(chain)
        if params[0] == 1:
            assert wahl_params(chain) == params[1:]


def test_classify_chain_carries_params_from_its_base():
    for chain, params in iter_class_t(8):
        assert classify_chain(chain).params == params
    assert classify_chain((4, 4)).params is None
    assert classify_chain((2, 2)).params is None


def test_integer_hj_value_matches_a_fraction_fold():
    # fraction_terms runs once from the far end; the fold runs from the
    # near end.  Class T chains up to length 10, then seeded random chains
    # of the same lengths, most of them not of class T.
    rng = random.Random(10)
    others = [
        tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 10)))
        for _ in range(2000)
    ]
    for chain in [chain for chain, _ in iter_class_t(10)] + others:
        value = fold(chain)
        assert fraction_terms(chain) == (value.numerator, value.denominator)
        assert fraction_terms(chain[::-1])[0] == value.numerator


def test_wahl_chain_length_needs_no_expansion():
    for p, q in coprime_pairs(150):
        assert wahl_chain_length(p, q) == len(hj_expand(p * p, p * q - 1))


def test_tchain_records_check_each_carried_triple():
    (record,) = cli._tchain_records([((2, 5), (1, 3, 2))])
    assert (record["p"], record["q"]) == (3, 2)
    with pytest.raises(ArithmeticError, match=r"fraction 9/5"):
        list(cli._tchain_records([((2, 5), (1, 3, 1))]))


def test_tchains_exports_only_what_the_cli_and_the_replay_run():
    assert sorted(tchains.__all__) == sorted([
        "MAX_CHAIN_LENGTH", "hj_expand", "fraction_terms", "continuants",
        "chain_bases", "ClassTResult", "classify_chain", "iter_class_t",
        "wahl_chain_length", "wahl_chain", "chain_discrepancies",
        "meridian_powers",
    ])
    for name in ("hj_value", "chain_determinant", "extend_left",
                 "extend_right", "is_class_t", "apply_moves",
                 "generate_class_t", "general_params", "wahl_params"):
        with pytest.raises(ImportError):
            exec(f"from blowdown import {name}", {})
        assert not hasattr(tchains, name)


def test_the_oracle_imports_nothing_from_blowdown():
    imported = []
    for node in ast.walk(ast.parse(ORACLE.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported == ["fractions", "math"]
