"""Topology of the surgered surface: fundamental group and homeomorphism type.

Cutting out disjoint chain neighbourhoods and gluing in rational homology
balls changes a smooth rational surface into a candidate exotic surface.
This module tracks what survives that surgery: the Euler characteristic and
signature bookkeeping, a certificate that the fundamental group dies, the
parity of the intersection form, the resulting homeomorphism fingerprint
(:attr:`SurfaceSummary.fingerprint`) and the second plurigenus that rules
out a rational surface (:attr:`SurfaceSummary.second_plurigenus`).

The fundamental group argument works on a connection graph.  Each node is a
contracted chain, whose boundary lens space has cyclic fundamental group of
order ``p^2``; each edge is a curve meeting two chains, giving a relation
between powers of the two meridian generators.  Killing generators via
greatest common divisors is exactly the computation done by hand in such
arguments, and the closure below performs it deterministically, recording
every forcing step.  This module reads no JSON: graph files and dataset
graphs are read by :func:`blowdown.constructions.parse_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence, Union

from .contraction import ChainEmbedding, surviving_curves
from .lattice import Rational, SurfaceModel

__all__ = [
    "GraphNode",
    "GraphEdge",
    "ConnectionGraph",
    "Pi1Result",
    "pi1_closure",
    "SurfaceSummary",
    "blowdown_invariants",
]


@dataclass(frozen=True)
class GraphNode:
    """One contracted chain: its boundary is the lens space L(p^2, pq-1),
    whose fundamental group is cyclic of order ``p^2``.

    A node not backed by a chain gives its cyclic order alone, which need
    not be a perfect square, and keeps ``p = q = 0``.
    """

    name: str
    order: int
    p: int = 0
    q: int = 0


@dataclass(frozen=True)
class GraphEdge:
    """A curve meeting two chains, with the meridian powers it relates.

    ``power_a`` is the exponent of the chosen generator of node ``a``'s
    cyclic group carried by the meridian of the chain curve the edge meets;
    likewise ``power_b``.  Any unit rescaling of a node's generator leaves
    the closure below unchanged, so an edge meeting an end curve of a chain
    may record that power simply as 1.
    """

    a: str
    b: str
    power_a: int
    power_b: int


@dataclass(frozen=True)
class ConnectionGraph:
    nodes: tuple[GraphNode, ...]
    edges: tuple[GraphEdge, ...]
    reconstructed: bool = False


@dataclass(frozen=True)
class Pi1Result:
    trivial: bool
    orders: tuple[tuple[str, int], ...]
    steps: tuple[str, ...]

    def describe(self) -> list[str]:
        lines = list(self.steps)
        final = ", ".join(f"{name}: {order}" for name, order in self.orders)
        lines.append(f"final orders: {final}")
        lines.append(
            "fundamental group killed"
            if self.trivial
            else "closure leaves residual cyclic factors"
        )
        return lines


def pi1_closure(graph: ConnectionGraph) -> Pi1Result:
    """Drive every node's cyclic order to 1, if the edge relations allow.

    Each edge says the two meridian powers agree up to inversion, so the
    subgroup orders must match: if the power ``w_a`` of node ``a``'s
    generator has order ``m`` in the current quotient, then node ``b``'s
    order divides ``gcd(o_b, w_b * m)``.  Edges are replayed in their given
    order, both directions, until no more forcing occurs; the step log is
    therefore deterministic, and each forcing step is logged as one line.
    Triviality of every cyclic factor certifies that the glued manifold is
    simply connected, provided the ambient complement contributes no extra
    generators.
    """
    orders = {node.name: node.order for node in graph.nodes}
    steps: list[str] = []
    changed = True
    while changed:
        changed = False
        for index, edge in enumerate(graph.edges, start=1):
            for src, tgt, w_src, w_tgt in (
                (edge.a, edge.b, edge.power_a, edge.power_b),
                (edge.b, edge.a, edge.power_b, edge.power_a),
            ):
                o_src, o_tgt = orders[src], orders[tgt]
                multiplier = o_src // gcd(o_src, w_src)
                new = gcd(o_tgt, w_tgt * multiplier)
                if new < o_tgt:
                    steps.append(
                        f"edge {index} ({src} -> {tgt}): meridian power "
                        f"{w_src} in {src} (order {o_src}) generates a "
                        f"subgroup of order {multiplier}; order of {tgt} "
                        f"drops from {o_tgt} to gcd({o_tgt}, "
                        f"{w_tgt} * {multiplier}) = {new}"
                    )
                    orders[tgt] = new
                    changed = True
    ordered = tuple((node.name, orders[node.name]) for node in graph.nodes)
    return Pi1Result(
        trivial=all(order == 1 for _, order in ordered),
        orders=ordered,
        steps=tuple(steps),
    )


@dataclass(frozen=True)
class SurfaceSummary:
    """Numerical record of the surgered surface."""

    k_squared: Rational
    euler: int
    signature: int
    b2_plus: int
    b2_minus: int
    chi: int
    noether_ok: bool
    parity: str
    parity_reason: str
    pi1_trivial: Union[bool, None]
    second_plurigenus: Rational

    @property
    def fingerprint(self) -> Union[str, None]:
        """Homeomorphism type read off the classification of simply
        connected four-manifolds, when the hypotheses are all certified.

        An odd indefinite form of type ``(a, b)`` is diagonal, so a simply
        connected surface carrying it is homeomorphic to the connected sum
        of ``a`` projective planes and ``b`` reversed ones.
        """
        if self.pi1_trivial is not True or self.parity != "odd" or self.b2_minus < 1:
            return None
        return f"P2 # {self.b2_minus} P2bar"


def _parity(
    model: SurfaceModel,
    embeddings: Sequence[ChainEmbedding],
    signature: int,
    b2_minus: int,
) -> tuple[str, str]:
    """Decide whether the surgered intersection form is odd.

    First look for a named witness curve: one disjoint from every contracted
    curve whose image therefore survives, with odd self-intersection.  If no
    witness is named, fall back to the signature: an even indefinite
    unimodular form has signature divisible by 8, so a signature that is not
    forces the form to be odd.
    """
    for name in surviving_curves(model, embeddings):
        self_int = model.self_intersection(name)
        if self_int % 2 == 0:
            continue
        if all(
            model.intersect(name, other) == 0
            for emb in embeddings for other in emb.curves
        ):
            return (
                "odd",
                f"curve {name} survives the contraction with odd "
                f"self-intersection {self_int}",
            )
    if b2_minus >= 1 and signature % 8 != 0:
        return (
            "odd",
            f"signature {signature} is not divisible by 8, which an even "
            "indefinite unimodular form would require",
        )
    return "unknown", "no witness curve and the signature test is silent"


def blowdown_invariants(
    model: SurfaceModel,
    embeddings: Sequence[ChainEmbedding],
    k_squared: Rational,
    pi1_trivial: Union[bool, None],
) -> SurfaceSummary:
    """Invariants of the surface after rationally blowing down the chains.

    Each chain of ``k`` curves spans a neighbourhood of Euler
    characteristic ``k + 1`` and signature ``-k``; the surgery trades it
    for a rational ball (Euler characteristic 1, signature 0).  The plane
    blown up ``n`` times has ``e = 3 + n`` and ``sigma = 1 - n``, so with
    ``L`` contracted curves in all

        e = 3 + n - L,  sigma = 1 - n + L,  b2+ = chi = 1,
        b2- = n - L,    and Noether's 12 chi = K^2 + e says K^2 = 9 - n + L.

    ``k_squared`` is the square of the contraction pullback.  Whether it
    meets the last identity is only recorded, in ``noether_ok``; the
    replay grades a recorded ``k_squared`` in its ``k_squared`` check
    alone.  ``pi1_trivial`` is the verdict of the closure (``None``
    without a connection graph).  For a minimal surface of general type
    the second plurigenus is ``chi + K^2``; a positive value rules out a
    rational surface, whose plurigenera all vanish.
    """
    n = model.blowup_count
    total_length = sum(len(emb.curves) for emb in embeddings)
    euler = 3 + n - total_length
    signature = 1 - n + total_length
    b2_minus = n - total_length
    if b2_minus < 0:
        raise ValueError(
            f"{total_length} contracted curves exceed the {n} blow-ups"
        )
    noether_ok = k_squared + euler == 12
    parity, parity_reason = _parity(model, embeddings, signature, b2_minus)
    chi = 1
    return SurfaceSummary(
        k_squared=k_squared,
        euler=euler,
        signature=signature,
        b2_plus=1,
        b2_minus=b2_minus,
        chi=chi,
        noether_ok=noether_ok,
        parity=parity,
        parity_reason=parity_reason,
        pi1_trivial=pi1_trivial,
        second_plurigenus=chi + k_squared,
    )
