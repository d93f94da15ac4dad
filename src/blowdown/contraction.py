"""Contraction of curve chains to quotient singularities, done numerically.

Given a surface model carrying disjoint chains of rational curves, the
contraction to a singular surface is tracked through exact lattice data:
each chain read off the model is matched against ``wahl_chain(p, q)``, the
pullback of the contracted canonical class is assembled from the chains'
discrepancies (bare chain arithmetic lives in :mod:`blowdown.tchains`) over
one common denominator, and negative definiteness of each chain is
certified by the signs of its leading principal minors, signed
continuants.  Expansions over curve classes use fraction-free (Bareiss)
elimination.  Every value is an ``int`` or a
:class:`fractions.Fraction`, never a ``float``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence, Union

from .lattice import DivisorClass, SurfaceModel
from .tchains import continuants, wahl_chain

__all__ = [
    "ContractionError",
    "ChainEmbedding",
    "ChainCertificate",
    "ArtinCertificate",
    "chain_shape",
    "check_artin",
    "pullback_canonical",
    "surviving_curves",
    "expand_in_curves",
]


class ContractionError(ValueError):
    """A chain embedding fails one of the contraction prerequisites."""


@dataclass(frozen=True)
class ChainEmbedding:
    """A chain of named curves meant to contract to a ``p/q`` point.

    ``curves`` lists the chain in order; the model determines the actual
    self-intersections, which :meth:`match` compares against the continued
    fraction of ``p^2/(pq - 1)``.
    """

    p: int
    q: int
    curves: tuple[str, ...]

    @property
    def label(self) -> str:
        return f"C({self.p},{self.q})"

    @cached_property
    def chain(self) -> tuple[int, ...]:
        """``wahl_chain(p, q)``, expanded at most once per embedding."""
        return wahl_chain(self.p, self.q)

    def match(self, bs: tuple[int, ...]) -> tuple[int, ...]:
        """``bs``, checked to be the expansion of ``p^2/(pq - 1)`` (chain
        determinant ``p^2``) for coprime ``0 < q < p``, a rational ball's."""
        expected_bs = self.chain
        if bs != expected_bs:
            raise ContractionError(
                f"{self.label}: shape {bs} does not match the expansion "
                f"{expected_bs} of {self.p}^2/({self.p}*{self.q} - 1)"
            )
        if not 0 < self.q < self.p or gcd(self.p, self.q) != 1:
            raise ContractionError(f"{self.label}: a rational ball needs "
                                   "coprime 0 < q < p")
        return bs


def chain_shape(model: SurfaceModel, curves: Sequence[str]) -> tuple[int, ...]:
    """Read ``(b_1, ..., b_k)`` off the model, where ``b_i = -curve_i^2``."""
    bs = []
    for name in curves:
        self_int = model.self_intersection(name)
        if self_int > -2:
            raise ContractionError(
                f"curve {name!r} has self-intersection {self_int}, "
                "need an integer at most -2"
            )
        bs.append(-self_int)
    return tuple(bs)


@dataclass(frozen=True)
class ChainCertificate:
    label: str
    chain: tuple[int, ...]
    minors: tuple[int, ...]


@dataclass(frozen=True)
class ArtinCertificate:
    chains: tuple[ChainCertificate, ...]
    cross_violations: tuple[tuple[str, str, str, str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.cross_violations


def check_artin(
    model: SurfaceModel, embeddings: Sequence[ChainEmbedding]
) -> ArtinCertificate:
    """Certify that the chains contract: each negative definite, all disjoint.

    Each chain is read off the model once, without its recorded ``(p, q)``:
    its curves must be distinct, consecutive ones meeting once and the
    others not at all, and each must have self-intersection at most -2, or
    a ``ContractionError`` is raised.  The matrix of a chain is
    tridiagonal, so its leading principal minor ``m_j`` is ``(-1)^j`` times
    the j-th continuant ``q_j`` of its shape.  With every ``b_i >= 2`` the
    continuants increase strictly from ``q_0 = 1``, since
    ``q_j - q_{j-1} = (b_j - 2) q_{j-1} + (q_{j-1} - q_{j-2})``, so the
    minors alternate in sign and the chain is negative definite.  Whether
    the determinant is ``(-1)^k p^2`` is for :meth:`ChainEmbedding.match`
    to decide.  Distinct chains must not meet.
    """
    certificates = []
    for emb in embeddings:
        names = emb.curves
        if len(set(names)) != len(names):
            raise ContractionError(
                f"{emb.label}: repeated curve in chain {tuple(names)}")
        bs = chain_shape(model, names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                value = model.intersect(names[i], names[j])
                expected = 1 if j == i + 1 else 0
                if value != expected:
                    raise ContractionError(
                        f"{emb.label}: {names[i]} . {names[j]} = {value}, "
                        f"expected {expected}"
                    )
        minors = tuple((-1) ** j * q
                       for j, q in enumerate(continuants(bs), start=1))
        certificates.append(ChainCertificate(emb.label, bs, minors))
    violations = []
    for i in range(len(embeddings)):
        for j in range(i + 1, len(embeddings)):
            for a in embeddings[i].curves:
                for b in embeddings[j].curves:
                    value = model.intersect(a, b)
                    if value != 0:
                        violations.append((embeddings[i].label, a,
                                           embeddings[j].label, b, value))
    return ArtinCertificate(
        chains=tuple(certificates), cross_violations=tuple(violations)
    )


def pullback_canonical(
    model: SurfaceModel,
    embeddings: Sequence[ChainEmbedding],
    discrepancies: Sequence[Sequence[Fraction]],
) -> DivisorClass:
    """The pullback of the contracted surface's canonical class.

    Computes ``K + sum of d_i G_i`` over every chain, from the
    discrepancies of each chain's shape as read off the model and matched
    to its ``(p, q)``.  The sum is taken in integers over the common
    denominator of the discrepancies.
    Orthogonality to every contracted curve defines the pullback and is
    asserted; it fails when adjunction ``K . G_i = b_i - 2``, which the
    discrepancies assume, fails on a chain curve, or when two chains meet.
    """
    terms = []
    for emb, ds in zip(embeddings, discrepancies):
        terms.extend(zip(emb.curves, ds))
    den = lcm(*(d.denominator for _, d in terms))
    coords = [den * c for c in model.canonical.coords]
    for name, d in terms:
        weight = d.numerator * (den // d.denominator)
        for i, c in enumerate(model.curve(name).coords):
            if c:
                coords[i] += weight * c
    total = DivisorClass(tuple(coords), den)
    for name, _ in terms:
        value = total.dot(model.curve(name))
        if value != 0:
            raise AssertionError(
                f"pullback not orthogonal to contracted curve {name}: {value}"
            )
    return total


def surviving_curves(
    model: SurfaceModel, embeddings: Sequence[ChainEmbedding]
) -> tuple[str, ...]:
    """The named curves outside every chain, in the model's order: those
    whose images survive the contraction."""
    contracted = {name for emb in embeddings for name in emb.curves}
    return tuple(name for name in model.curves if name not in contracted)


def expand_in_curves(
    model: SurfaceModel,
    cls: Union[str, DivisorClass],
    names: Sequence[str],
) -> dict[str, Fraction]:
    """Write a class as an exact combination of named curves.

    Solves ``cls = sum_i c_i [curve_i]`` by fraction-free Gauss-Jordan
    elimination (Bareiss 1968): every entry stays an integer minor of the
    augmented matrix, each division by the previous pivot is exact, and the
    coefficients are quotients by the last pivot.  Raises
    ``ContractionError`` if the named curves are linearly dependent (the
    expansion would not be unique) or if the class does not lie in their
    span.
    """
    target = model.resolve(cls)
    columns = [model.curve(n).coords for n in names]
    cols = len(columns)
    matrix = [
        [column[r] for column in columns] + [value]
        for r, value in enumerate(target.coords)
    ]
    rows = len(matrix)
    prev = 1
    for col in range(cols):
        pivot_row = next(
            (r for r in range(col, rows) if matrix[r][col] != 0), None
        )
        if pivot_row is None:
            raise ContractionError(
                f"curves {list(names)} are linearly dependent; "
                "expansion is not unique"
            )
        matrix[col], matrix[pivot_row] = matrix[pivot_row], matrix[col]
        pivot_line = matrix[col]
        pivot = pivot_line[col]
        for r in range(rows):
            line = matrix[r]
            factor = line[col]
            if r != col:
                matrix[r] = [
                    (pivot * v - factor * w) // prev
                    for v, w in zip(line, pivot_line)
                ]
        prev = pivot
    den = prev * target.denominator
    for r in range(cols, rows):
        if matrix[r][cols] != 0:
            raise ContractionError(
                "class does not lie in the span of "
                f"{list(names)} (residual {Fraction(matrix[r][cols], den)})"
            )
    return {names[i]: Fraction(matrix[i][cols], den) for i in range(cols)}
