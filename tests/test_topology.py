"""Boundary lens spaces, the fundamental group closure and surface invariants."""

import dataclasses
import itertools
import random
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import blowdown.topology as topology
from blowdown import (
    Replay,
    blowdown_invariants,
    continuants,
    hj_expand,
    meridian_powers,
    parse_graph,
    pi1_closure,
)

st_coprime = st.integers(2, 200).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.integers(1, p - 1).filter(lambda q: gcd(p, q) == 1),
    )
)


def simple_graph(order_a, order_b, power_a=1, power_b=1):
    return parse_graph(
        {
            "nodes": [
                {"name": "A", "order": order_a},
                {"name": "B", "order": order_b},
            ],
            "edges": [
                {"a": "A", "b": "B", "power_a": power_a, "power_b": power_b}
            ],
        }
    )


def test_meridian_powers_frozen_values():
    assert meridian_powers(hj_expand(49, 6)) == (6, 5, 4, 3, 2, 1)
    assert meridian_powers(hj_expand(2304, 815)) == (815, 141, 31, 14, 11, 8, 5, 2, 1)
    assert meridian_powers((4,)) == (1,)


def test_meridian_powers_are_the_trailing_continuants():
    rng = random.Random(7)
    chains = [
        tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 40)))
        for _ in range(300)
    ]
    chains.append(hj_expand(1001 * 1001, 1001 * 1 - 1))  # cpq 1001 1
    for bs in chains:
        expected = tuple(
            continuants(bs[i + 1:])[-1] if i + 1 < len(bs) else 1
            for i in range(len(bs))
        )
        assert meridian_powers(bs) == expected, bs


def test_meridian_powers_are_suffix_continuants():
    bs = hj_expand(361, 94)
    powers = meridian_powers(bs)
    assert powers[-1] == 1
    assert len(powers) == len(bs)
    # The power at position i is the continuant of the suffix after i.
    for i in range(len(bs) - 1):
        assert powers[i] == continuants(bs[i + 1 :])[-1]


@given(st_coprime)
@settings(max_examples=100)
def test_first_meridian_power_generates_the_lens_group(pair):
    p, q = pair
    bs = hj_expand(p * p, p * q - 1)
    powers = meridian_powers(bs)
    assert gcd(powers[0], p * p) == 1


def test_parse_graph_node_orders(main_construction):
    graph = main_construction.graph
    orders = {node.name: node.order for node in graph.nodes}
    assert orders["C(35,6)"] == 1225
    assert orders["C(19,5)"] == 361
    assert orders["C(7,1)"] == 49
    assert orders["C(2,1)"] == 4
    assert not graph.reconstructed


def test_parse_graph_rejects_malformed_data():
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph(
            {
                "nodes": [{"name": "A", "order": 2}, {"name": "A", "order": 3}],
                "edges": [],
            }
        )
    with pytest.raises(ValueError, match="unknown node"):
        parse_graph(
            {
                "nodes": [{"name": "A", "order": 2}],
                "edges": [{"a": "A", "b": "B", "power_a": 1, "power_b": 1}],
            }
        )
    with pytest.raises(ValueError, match="power"):
        simple_graph(4, 8, power_a=0)
    with pytest.raises(ValueError, match="order"):
        simple_graph(0, 8)


def test_pi1_closure_kills_main_graph(main_construction):
    result = pi1_closure(main_construction.graph)
    assert result.trivial
    assert all(order == 1 for _, order in result.orders)
    assert result.steps[0] == (
        "edge 1 (C(19,5) -> C(35,6)): meridian power 1 in C(19,5) (order 361) "
        "generates a subgroup of order 361; order of C(35,6) drops from 1225 "
        "to gcd(1225, 1 * 361) = 1"
    )
    assert result.describe()[-1] == "fundamental group killed"


def test_pi1_closure_negative_control():
    result = pi1_closure(simple_graph(4, 8))
    assert not result.trivial
    assert dict(result.orders) == {"A": 4, "B": 4}
    assert result.describe()[-1] == "closure leaves residual cyclic factors"


def test_pi1_closure_coprime_orders_cancel():
    result = pi1_closure(simple_graph(4, 9))
    assert result.trivial
    assert dict(result.orders) == {"A": 1, "B": 1}


def test_pi1_closure_is_a_fixpoint():
    result = pi1_closure(simple_graph(4, 8))
    # Re-running the closure on the residual orders changes nothing.
    again = pi1_closure(
        parse_graph(
            {
                "nodes": [
                    {"name": name, "order": order}
                    for name, order in result.orders
                ],
                "edges": [{"a": "A", "b": "B", "power_a": 1, "power_b": 1}],
            }
        )
    )
    assert again.orders == result.orders


def test_reconstructed_graphs_are_flagged(
    pencil2_construction, k4_construction, main_construction
):
    assert pencil2_construction.graph.reconstructed
    assert k4_construction.graph.reconstructed
    assert not main_construction.graph.reconstructed


def test_rationality_exclusion_values(main_construction):
    model, chains = Replay(main_construction).model, main_construction.chains
    for k_squared, plurigenus in ((3, 4), (4, 5), (-2, -1)):
        summary = blowdown_invariants(model, chains, k_squared, None)
        assert summary.second_plurigenus == plurigenus


def test_blowdown_invariants_frozen(main_construction):
    summary = Replay(main_construction).summary
    assert summary.k_squared == 3
    assert summary.euler == 9
    assert summary.signature == -5
    assert summary.b2_plus == 1
    assert summary.b2_minus == 6
    assert summary.chi == 1
    assert summary.noether_ok
    assert summary.parity == "odd"
    assert "not divisible by 8" in summary.parity_reason
    assert summary.pi1_trivial
    assert summary.fingerprint == "P2 # 6 P2bar"


def test_blowdown_invariants_k4(k4_construction):
    summary = Replay(k4_construction).summary
    assert summary.k_squared == 4
    assert summary.euler == 8
    assert summary.signature == -4
    assert (summary.b2_plus, summary.b2_minus) == (1, 5)
    assert summary.fingerprint == "P2 # 5 P2bar"


@pytest.mark.parametrize("dataset", ["main_construction", "pencil2_construction",
                                     "k4_construction"])
def test_closed_forms_match_the_lattice_on_every_chain_subset(request, dataset):
    """The invariants stated in (n, L) agree with the lattice's rank, the
    signature and the contracted K^2 when any nonempty subset of the chains
    is blown down."""
    construction = request.getfixturevalue(dataset)
    chains = construction.chains
    for size in range(1, len(chains) + 1):
        for subset in itertools.combinations(chains, size):
            replay = Replay(dataclasses.replace(construction, chains=subset,
                                                graph=None))
            model, summary = replay.model, replay.summary
            length = sum(len(emb.curves) for emb in subset)
            b2_plus, b2_minus = summary.b2_plus, summary.b2_minus
            assert b2_plus + b2_minus == model.lattice_rank - length
            assert b2_plus - b2_minus == summary.signature
            assert summary.euler == 2 + b2_plus + b2_minus
            gain = replay.k_squared - model.canonical_self_intersection()
            assert summary.noether_ok == (gain == length)
            off = blowdown_invariants(model, subset, replay.k_squared + 1, None)
            assert not off.noether_ok


def test_fingerprint_requires_trivial_pi1(main_construction):
    summary = Replay(main_construction).summary
    assert summary.fingerprint == "P2 # 6 P2bar"
    silent = dataclasses.replace(summary, pi1_trivial=False)
    assert silent.fingerprint is None


def test_invariants_without_graph_leave_pi1_open(main_construction):
    summary = Replay(dataclasses.replace(main_construction, graph=None)).summary
    assert summary.k_squared == 3
    assert summary.pi1_trivial is None
    assert summary.fingerprint is None


def test_topology_exports_only_what_its_readers_read():
    assert sorted(topology.__all__) == sorted([
        "GraphNode", "GraphEdge", "ConnectionGraph", "Pi1Result",
        "pi1_closure", "SurfaceSummary", "blowdown_invariants",
    ])
    for name in ("ClosureStep", "fingerprint", "rationality_exclusion"):
        with pytest.raises(ImportError):
            exec(f"from blowdown import {name}", {})
        assert not hasattr(topology, name)
