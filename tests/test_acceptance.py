"""Acceptance gate: one test per shipped guarantee, exact values, no slack.

Criteria 1-6 and 8 pin the replayed constructions to their recorded values.
Criterion 7 runs the property suites and must finish inside a shared time
budget, accounted in DURATIONS and enforced by the final budget test.

Three recorded values do not survive exact replay and are shipped as errata
inside the datasets (two expansion tables and one nef pairing, plus the
fiber multiplicities feeding them).  The gate stays honest about those: the
corrected values must match the replay bit for bit, and the as-printed
variants are strict expected failures so a silent change in either
direction trips the suite.
"""

import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from blowdown import (
    Replay,
    chain_discrepancies,
    classify_chain,
    continuants,
    fraction_terms,
    hj_expand,
    iter_class_t,
    load_construction,
    parse_construction,
    parse_graph,
    pi1_closure,
    verify,
)
from class_t_oracle import general_params, wahl_params

DURATIONS = {}

CITATION = "H. Park, J. Park and D. Shin"

PRINTED_CHAINS = {
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

CANONICAL_DISCREPANCIES = {
    "C(35,6)": ("29/35", "34/35", "33/35", "32/35", "31/35",
                "6/7", "24/35", "18/35", "12/35", "6/35"),
    "C(19,5)": ("14/19", "18/19", "17/19", "16/19", "15/19", "10/19", "5/19"),
    "C(7,1)": ("6/7", "5/7", "4/7", "3/7", "2/7", "1/7"),
    "C(2,1)": ("1/2",),
}

NEF_TABLE = {
    "E3": Fraction(79, 665),
    "E4": Fraction(33, 70),
    "E1'": Fraction(411, 665),
    "E2'": Fraction(16, 133),
    "E4'": Fraction(9, 38),
    "E1''": Fraction(376, 665),
    "E2''": Fraction(43, 70),
    "E2'''": Fraction(79, 133),
}


def timed(fn, *args, repeats=3):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return result, best


def arithmetic_class_t(bs):
    """Whether some d*n^2/(d*n*a - 1) equals the chain fraction, by the
    test-side search."""
    try:
        general_params(bs)
    except ValueError:
        return False
    return True


def test_criterion_1_printed_chains():
    for (p, q), chain in PRINTED_CHAINS.items():
        computed, elapsed = timed(hj_expand, p * p, p * q - 1)
        assert computed == chain, f"C({p},{q})"
        assert elapsed < 1e-3, f"C({p},{q}) took {elapsed * 1e3:.3f} ms"
    # The cpq command prints the same chains.
    for (p, q), chain in PRINTED_CHAINS.items():
        result = subprocess.run(
            [sys.executable, "-m", "blowdown", "cpq", str(p), str(q)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert f"C({p},{q}): " + " ".join(str(b) for b in chain) in result.stdout


def test_criterion_2_canonical_relation_coefficients():
    construction = load_construction("main_k3")
    shapes = dict(zip(
        (emb.label for emb in construction.chains), Replay(construction).shapes
    ))

    start = time.perf_counter()
    computed = {
        label: chain_discrepancies(shape) for label, shape in shapes.items()
    }
    elapsed = time.perf_counter() - start

    total = 0
    for label, expected in CANONICAL_DISCREPANCIES.items():
        assert tuple(str(d) for d in computed[label]) == expected, label
        total += len(expected)
    assert total == 24
    assert elapsed < 10e-3, f"24 coefficients took {elapsed * 1e3:.1f} ms"


def test_criterion_3_pullback_expansion():
    construction = load_construction("main_k3")
    computed = Replay(construction).coefficients
    recorded = construction.expected["pullback_coefficients"]
    corrections = construction.errata["pullback_coefficients"]

    # Spot values called out in the recorded expansion.
    assert computed["E3"] == 5
    assert computed["G10"] == Fraction(146, 35)
    assert computed["H6"] == Fraction(39, 38)
    assert Fraction(recorded["I6"]) == Fraction(37, 14)

    for name, value in recorded.items():
        expected = Fraction(corrections.get(name, value))
        assert computed[name] == expected, name
    assert set(corrections) == {"I3", "I4", "I5", "I6", "E2''"}


@pytest.mark.xfail(
    strict=True,
    reason="the recorded I6 coefficient 37/14 does not survive exact replay; "
    "the dataset ships 65/14 as its correction",
)
def test_criterion_3_pullback_expansion_as_printed():
    construction = load_construction("main_k3")
    computed = Replay(construction).coefficients
    assert computed["I6"] == Fraction(37, 14)


def test_criterion_4_nef_table():
    construction = load_construction("main_k3")
    replay = Replay(construction)
    model = replay.model
    recorded = construction.expected["nef_values"]
    corrections = construction.errata["nef_values"]
    assert {name: Fraction(value) for name, value in recorded.items()} == NEF_TABLE

    computed = dict(replay.nef)
    for name, value in NEF_TABLE.items():
        expected = Fraction(corrections.get(name, value))
        assert computed[name] == expected, name
    assert set(corrections) == {"E2''"}

    pullback = replay.pullback
    contracted = [name for emb in construction.chains for name in emb.curves]
    assert len(contracted) == 24
    for name in contracted:
        assert model.intersect(pullback, name) == 0, name


@pytest.mark.xfail(
    strict=True,
    reason="the recorded pairing 43/70 against E2'' does not survive exact "
    "replay; the dataset ships 4/35 as its correction",
)
def test_criterion_4_nef_table_as_printed():
    construction = load_construction("main_k3")
    computed = dict(Replay(construction).nef)
    assert computed["E2''"] == Fraction(43, 70)


def test_criterion_5_invariants():
    reports = {}
    for name in ("main_k3", "pencil2_k3", "k4"):
        construction = load_construction(name)
        start = time.perf_counter()
        report = verify(construction)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"verify({name}) took {elapsed:.2f} s"
        assert report.ok
        reports[name] = (construction, report)

    for name, k_squared, euler in [
        ("main_k3", 3, 9),
        ("pencil2_k3", 3, 9),
        ("k4", 4, 8),
    ]:
        construction, _ = reports[name]
        summary = Replay(construction).summary
        assert summary.k_squared == k_squared
        assert summary.euler == euler
        assert summary.b2_plus == 1
        assert summary.chi == 1
        assert summary.noether_ok
        assert summary.k_squared + summary.euler == 12 * summary.chi

    _, k4_report = reports["k4"]
    k4_summary = Replay(reports["k4"][0]).summary
    assert k4_summary.fingerprint == "P2 # 5 P2bar"


def test_criterion_6_pi1_closure():
    construction = load_construction("main_k3")
    result = pi1_closure(construction.graph)
    assert result.trivial
    assert result.steps[0] == (
        "edge 1 (C(19,5) -> C(35,6)): meridian power 1 in C(19,5) (order 361) "
        "generates a subgroup of order 361; order of C(35,6) drops from 1225 "
        "to gcd(1225, 1 * 361) = 1"
    )

    control = pi1_closure(
        parse_graph(
            {
                "nodes": [
                    {"name": "A", "order": 4},
                    {"name": "B", "order": 8},
                ],
                "edges": [{"a": "A", "b": "B", "power_a": 1, "power_b": 1}],
            }
        )
    )
    assert not control.trivial


def test_criterion_7a_round_trip():
    start = time.perf_counter()
    for p in range(2, 201):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            assert Fraction(*fraction_terms(hj_expand(p, q))) == Fraction(p, q)
            assert wahl_params(hj_expand(p * p, p * q - 1)) == (p, q)
    DURATIONS["7a"] = time.perf_counter() - start


def test_criterion_7b_recognition_agreement():
    start = time.perf_counter()

    # Complete positive side: every generated class T chain of length <= 10.
    positives = [bs for bs, _ in iter_class_t(10)]
    for bs in positives:
        assert classify_chain(bs).is_class_t
        assert arithmetic_class_t(bs)
        d, n, a = classify_chain(bs).params
        assert Fraction(*fraction_terms(bs)) == Fraction(d * n * n, d * n * a - 1)
    positive_set = set(positives)

    # Exhaustive short chains.
    stack = [()]
    while stack:
        prefix = stack.pop()
        if prefix:
            structural = classify_chain(prefix).is_class_t
            assert structural == arithmetic_class_t(prefix), prefix
            assert structural == (prefix in positive_set), prefix
        if len(prefix) < 5:
            stack.extend(prefix + (entry,) for entry in range(2, 7))

    # Seeded samples across the full advertised range.
    rng = random.Random(98292683)
    for _ in range(20000):
        length = rng.randint(6, 10)
        bs = tuple(rng.randint(2, 10) for _ in range(length))
        structural = classify_chain(bs).is_class_t
        assert structural == arithmetic_class_t(bs), bs
        assert structural == (bs in positive_set), bs

    DURATIONS["7b"] = time.perf_counter() - start


def test_criterion_7c_weighted_discrepancy_sums():
    start = time.perf_counter()
    wahl_members = 0
    for bs, params in iter_class_t(13):
        ds = chain_discrepancies(bs)
        weighted = sum(d * (b - 2) for d, b in zip(ds, bs))
        try:
            wahl_params(bs)
        except ValueError:
            pass
        else:
            wahl_members += 1
            assert weighted == len(bs), bs
        assert weighted == len(bs) - params[0] + 1, bs
    assert wahl_members > 1000
    DURATIONS["7c"] = time.perf_counter() - start


@pytest.mark.xfail(
    strict=True,
    reason="the weighted discrepancy sum equals length - d + 1; chains with "
    "d > 1, starting at (3, 3), break the plain-length form",
)
def test_criterion_7c_weighted_sums_as_stated():
    start = time.perf_counter()
    failures = []
    for bs, _ in iter_class_t(13):
        ds = chain_discrepancies(bs)
        weighted = sum(d * (b - 2) for d, b in zip(ds, bs))
        if weighted != len(bs):
            failures.append(bs)
    DURATIONS["7c_literal"] = time.perf_counter() - start
    assert not failures, f"first counterexample: {failures[0]}"


def test_criterion_7d_chain_determinants():
    start = time.perf_counter()
    for p in range(2, 101):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            assert continuants(hj_expand(p * p, p * q - 1))[-1] == p * p
    DURATIONS["7d"] = time.perf_counter() - start


def test_criterion_7e_discrepancy_range():
    start = time.perf_counter()
    checked = 0
    for bs, _ in iter_class_t(10):
        for d in chain_discrepancies(bs):
            assert 0 < d < 1
            checked += 1
    for (p, q), bs in PRINTED_CHAINS.items():
        for d in chain_discrepancies(bs):
            assert 0 < d < 1
            checked += 1
    assert checked > 5000
    DURATIONS["7e"] = time.perf_counter() - start


def test_criterion_7_runtime_budget():
    expected = {"7a", "7b", "7c", "7c_literal", "7d", "7e"}
    assert set(DURATIONS) == expected
    total = sum(DURATIONS.values())
    assert total < 30.0, f"property suites took {total:.1f} s: {DURATIONS}"


def test_criterion_8_perturbation_controls():
    with open(load_construction("main_k3").source_path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)

    perturbations = [
        ("self-intersection", "script_expectations",
         lambda d: d["expectations"][0].__setitem__("self_int", -3)),
        ("chain parameter", "chain_shapes",
         lambda d: d["chains"][0].__setitem__("q", 11)),
        ("chain curve order", "chain_shapes",
         lambda d: d["chains"][2].__setitem__(
             "curves", list(reversed(d["chains"][2]["curves"])))),
    ]
    for label, checkpoint, mutate in perturbations:
        doctored = copy.deepcopy(raw)
        mutate(doctored)
        report = verify(parse_construction(doctored))
        assert not report.ok, label
        failing = {c.name: c for c in report.checks}[checkpoint]
        assert failing.status == "fail", label
        assert CITATION in "\n".join(failing.details), label
