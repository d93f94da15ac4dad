"""Chain contraction certificates, discrepancies and the canonical pullback."""

from fractions import Fraction
from math import gcd

import pytest

from blowdown import (
    ChainEmbedding,
    ContractionError,
    Replay,
    chain_discrepancies,
    check_artin,
    classify_chain,
    expand_in_curves,
    hj_expand,
    pullback_canonical,
    wahl_chain,
)


def contracted_names(construction):
    return [name for emb in construction.chains for name in emb.curves]


def matched_shape(model, emb):
    """The chain's shape as the replay reads it: once, by the Artin check,
    then matched to its ``(p, q)``."""
    (cert,) = check_artin(model, [emb]).chains
    return emb.match(cert.chain)


def test_embedding_label():
    emb = ChainEmbedding(19, 5, ("a", "b"))
    assert emb.label == "C(19,5)"


def test_validate_embedding_returns_recorded_shapes(main_construction, main_model):
    shapes = {
        "C(35,6)": (6, 8, 2, 2, 2, 3, 2, 2, 2, 2),
        "C(19,5)": (4, 7, 2, 2, 3, 2, 2),
        "C(7,1)": (9, 2, 2, 2, 2, 2),
        "C(2,1)": (4,),
    }
    for emb in main_construction.chains:
        bs = matched_shape(main_model, emb)
        assert bs == shapes[emb.label]
        assert bs == hj_expand(emb.p * emb.p, emb.p * emb.q - 1)


def test_validate_embedding_rejects_repeated_curve(main_construction, main_model):
    emb = main_construction.chains[0]
    doctored = ChainEmbedding(emb.p, emb.q, (emb.curves[0],) + emb.curves[:-1])
    with pytest.raises(ContractionError, match="repeated"):
        matched_shape(main_model, doctored)


def test_validate_embedding_rejects_wrong_order(main_construction, main_model):
    emb = main_construction.chains[2]
    doctored = ChainEmbedding(emb.p, emb.q, tuple(reversed(emb.curves)))
    with pytest.raises(ContractionError, match="does not match the expansion"):
        matched_shape(main_model, doctored)


def test_validate_embedding_rejects_wrong_parameters(main_construction, main_model):
    emb = main_construction.chains[0]
    doctored = ChainEmbedding(emb.p, 11, emb.curves)
    with pytest.raises(ContractionError, match=r"35\^2/\(35\*11 - 1\)"):
        matched_shape(main_model, doctored)


def test_validate_embedding_rejects_non_adjacent_curves(main_construction, main_model):
    a = main_construction.chains[0]
    b = main_construction.chains[1]
    doctored = ChainEmbedding(a.p, a.q, a.curves[:-1] + (b.curves[0],))
    with pytest.raises(ContractionError):
        matched_shape(main_model, doctored)


def test_chain_discrepancies_frozen_values():
    ds = chain_discrepancies((6, 8, 2, 2, 2, 3, 2, 2, 2, 2))
    assert [str(d) for d in ds] == [
        "29/35",
        "34/35",
        "33/35",
        "32/35",
        "31/35",
        "6/7",
        "24/35",
        "18/35",
        "12/35",
        "6/35",
    ]
    assert chain_discrepancies((4,)) == (Fraction(1, 2),)
    assert chain_discrepancies((3, 3)) == (Fraction(1, 2), Fraction(1, 2))


def test_chain_discrepancies_in_open_unit_interval(main_construction, main_model):
    for emb in main_construction.chains:
        bs = matched_shape(main_model, emb)
        for d in chain_discrepancies(bs):
            assert 0 < d < 1


def test_discrepancy_sum_for_wahl_chains(main_construction, main_model):
    # For a chain with fraction p^2/(pq - 1) the weighted sum equals the length.
    for emb in main_construction.chains:
        bs = matched_shape(main_model, emb)
        ds = chain_discrepancies(bs)
        assert sum(d * (b - 2) for d, b in zip(ds, bs)) == len(bs)


def test_k_squared_gain_general_form():
    # Contracting a chain raises K^2 by sum_i d_i (b_i - 2).
    for bs in [(4,), (3, 3), (3, 2, 3), (9, 2, 2, 2, 2, 2), (2, 6, 2, 3)]:
        d, n, a = classify_chain(bs).params
        ds = chain_discrepancies(bs)
        assert sum(d_i * (b - 2) for d_i, b in zip(ds, bs)) == len(bs) - d + 1
    # For every Wahl chain C(p, q) with p < 120 the discrepancies lie in
    # (0, 1) and the gain is the chain length, so the discrepancy check
    # need not test either.
    pairs = [(p, q) for p in range(2, 120) for q in range(1, p) if gcd(p, q) == 1]
    assert len(pairs) == 4353
    for p, q in pairs:
        bs = wahl_chain(p, q)
        ds = chain_discrepancies(bs)
        assert all(0 < d_i < 1 for d_i in ds), (p, q)
        assert sum(d_i * (b - 2) for d_i, b in zip(ds, bs)) == len(bs), (p, q)


def test_check_artin_certificates(main_construction, main_model):
    cert = check_artin(main_model, main_construction.chains)
    assert cert.cross_violations == ()
    assert cert.ok
    assert len(cert.chains) == 4
    by_label = {c.label: c for c in cert.chains}
    for emb in main_construction.chains:
        chain_cert = by_label[emb.label]
        # Negative definiteness is witnessed by strictly alternating minors.
        for i, minor in enumerate(chain_cert.minors, start=1):
            assert minor * (-1) ** i > 0
        assert abs(chain_cert.minors[-1]) == emb.p * emb.p


def test_contracted_k_squared(
    main_construction, pencil2_construction, k4_construction
):
    assert Replay(main_construction).k_squared == 3
    assert Replay(pencil2_construction).k_squared == 3
    assert Replay(k4_construction).k_squared == 4


def test_pullback_is_orthogonal_to_contracted_curves(main_construction, main_model):
    pullback = Replay(main_construction).pullback
    names = contracted_names(main_construction)
    assert len(names) == 24
    for name in names:
        assert main_model.intersect(pullback, name) == 0
    assert main_model.intersect(pullback, pullback) == 3


def test_pullback_decomposes_with_discrepancy_coefficients(
    main_construction, main_model
):
    # pullback = K_Z + sum of discrepancy multiples of the contracted curves.
    chains = main_construction.chains
    pullback = pullback_canonical(
        main_model, chains,
        [chain_discrepancies(matched_shape(main_model, emb)) for emb in chains],
    )
    correction = pullback - main_model.canonical
    names = contracted_names(main_construction)
    coefficients = expand_in_curves(main_model, correction, names)
    for emb in main_construction.chains:
        bs = matched_shape(main_model, emb)
        for name, d in zip(emb.curves, chain_discrepancies(bs)):
            assert coefficients[name] == d


def test_nef_values_frozen(main_construction):
    values = dict(Replay(main_construction).nef)
    assert values["E3"] == Fraction(79, 665)
    assert values["E4"] == Fraction(33, 70)
    assert values["E1'"] == Fraction(411, 665)
    assert values["E2'"] == Fraction(16, 133)
    assert values["E4'"] == Fraction(9, 38)
    assert values["E1''"] == Fraction(376, 665)
    assert values["E2''"] == Fraction(4, 35)
    assert values["E2'''"] == Fraction(79, 133)
    assert values["E1"] == Fraction(23, 35)
    assert values["E2"] == Fraction(5, 7)
    assert values["B"] == Fraction(34, 19)
    assert values["e1"] == Fraction(1187, 665)
    assert values["e6"] == Fraction(11, 7)


def test_expand_in_curves_round_trip(main_model):
    names = ["e1", "e2", "e3"]
    target = (
        2 * main_model.curves["e1"]
        - main_model.curves["e2"]
        + 5 * main_model.curves["e3"]
    )
    coefficients = expand_in_curves(main_model, target, names)
    rebuilt = sum(
        (coefficients[name] * main_model.curves[name] for name in names),
        0 * main_model.curves["e1"],
    )
    assert rebuilt.coords == target.coords


def test_expand_in_curves_rejects_unspanned_classes(main_model):
    with pytest.raises(ContractionError, match="span"):
        expand_in_curves(main_model, main_model.canonical, ["e1", "e2"])
