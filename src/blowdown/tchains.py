"""Negative continued fractions and chains of class T.

A chain is recorded as a tuple ``(b_1, ..., b_k)`` of integers, each at
least 2, standing for a string of smooth rational curves of
self-intersections ``-b_1, ..., -b_k`` meeting consecutively.  The chain
contracting to the cyclic quotient singularity of type ``p/q`` (the cone
over the lens space ``L(p, q)``) is read off from the negative-regular
continued fraction

    p/q = b_1 - 1/(b_2 - 1/(... - 1/b_k)).

Chains of class T are the ones whose contraction admits a smoothing with
Milnor number zero.  They are generated from ``(4,)`` and
``(3, 2, ..., 2, 3)`` by two end moves, and their fractions are exactly
the ``dn^2 / (dna - 1)`` with ``n >= 2``, ``0 < a < n`` and
``gcd(a, n) == 1`` (Kollar and Shepherd-Barron, Invent. Math. 91, 1988).
Only the moves are implemented here.  The generator :func:`iter_class_t`
carries ``(d, n, a)`` along them: a base ``(4,)`` is ``(1, 2, 1)``, a base
``(3, 2, ..., 2, 3)`` of length ``L`` is ``(L, 2, 1)``, the left move
sends ``(d, n, a)`` to ``(d, 2n - a, n)`` and the right move sends it to
``(d, n + a, a)``.  :func:`wahl_chain` is the one reading of a pair
``C(p, q)`` into its chain, and the arithmetic of a bare chain
(discrepancies, meridian powers) is here too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple, Sequence

MAX_CHAIN_LENGTH = 1000
"""Longest chain of ``p^2/(pq - 1)`` that :func:`wahl_chain` expands (the
chain's length grows like ``p/q``), and longest chain that
:func:`classify_chain` reduces."""

__all__ = [
    "MAX_CHAIN_LENGTH",
    "hj_expand",
    "fraction_terms",
    "continuants",
    "chain_bases",
    "ClassTResult",
    "classify_chain",
    "iter_class_t",
    "wahl_chain_length",
    "wahl_chain",
    "chain_discrepancies",
    "meridian_powers",
]


def _validate_chain(bs: Sequence[int]) -> tuple[int, ...]:
    chain = tuple(bs)
    if not chain:
        raise ValueError("chain is empty")
    for b in chain:
        if not isinstance(b, int) or b < 2:
            raise ValueError(f"chain entries must be integers >= 2, got {b!r}")
    return chain


def hj_expand(p: int, q: int) -> tuple[int, ...]:
    """Negative-regular continued fraction expansion of ``p/q``.

    Requires ``p > q >= 1`` and ``gcd(p, q) == 1``.  Every entry of the
    result is at least 2, and such an expansion is unique.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("p and q must be integers")
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got p={p}, q={q}")
    if gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got p={p}, q={q}")
    out = []
    while q > 0:
        b = -(-p // q)
        out.append(b)
        p, q = q, b * q - p
    return tuple(out)


def fraction_terms(bs: Sequence[int]) -> tuple[int, int]:
    """Numerator and denominator of ``b_1 - 1/(b_2 - 1/(...))``, in integers.

    They are the continuants of the chain and of the chain without its
    first entry (1 for a single curve).  Consecutive continuants are
    coprime, so the pair is already in lowest terms.  A continuant does
    not change when its chain is reversed, so one pass from the far end
    ends on both: ``K(b_2..b_k)`` and then ``K(b_1..b_k)``.
    """
    prev, cur = 0, 1
    for b in reversed(_validate_chain(bs)):
        prev, cur = cur, b * cur - prev
    return cur, prev


def continuants(bs: Sequence[int]) -> tuple[int, ...]:
    """Partial denominators ``q_1, ..., q_k`` of the chain.

    These satisfy ``q_j = b_j q_{j-1} - q_{j-2}`` with ``q_0 = 1`` and are
    all positive when every entry is at least 2; ``q_k`` equals the
    numerator of :func:`fraction_terms`, the absolute determinant of the
    chain's intersection matrix.
    """
    chain = _validate_chain(bs)
    prev, cur = 0, 1
    out = []
    for b in chain:
        prev, cur = cur, b * cur - prev
        out.append(cur)
    return tuple(out)


def _left(chain: tuple[int, ...]) -> tuple[int, ...]:
    return (2,) + chain[:-1] + (chain[-1] + 1,)


def _right(chain: tuple[int, ...]) -> tuple[int, ...]:
    return (chain[0] + 1,) + chain[1:] + (2,)


_MOVES = {
    "left": (_left, lambda d, n, a: (d, 2 * n - a, n)),
    "right": (_right, lambda d, n, a: (d, n + a, a)),
}
"""Each end move on a chain, and what it does to the chain's ``(d, n, a)``."""


def _base_params(base: tuple[int, ...]) -> tuple[int, int, int]:
    """``(d, n, a)`` of a base: ``(4,)`` is ``4/1``, and ``(3, 2, ..., 2, 3)``
    of length ``L`` is ``4L / (2L - 1)``."""
    return (1, 2, 1) if len(base) == 1 else (len(base), 2, 1)


def chain_bases(max_len: int) -> Iterator[tuple[int, ...]]:
    """The starting chains ``(4,)`` and ``(3, 2, ..., 2, 3)`` up to a length."""
    if max_len >= 1:
        yield (4,)
    for length in range(2, max_len + 1):
        yield (3,) + (2,) * (length - 2) + (3,)


def _is_base(chain: tuple[int, ...]) -> bool:
    if chain == (4,):
        return True
    return (
        len(chain) >= 2
        and chain[0] == 3
        and chain[-1] == 3
        and all(b == 2 for b in chain[1:-1])
    )


class ClassTResult(NamedTuple):
    """Outcome of :func:`classify_chain`.

    ``kind`` is one of ``"base"``, ``"derived"``, ``"rdp"`` (a string of
    ``-2`` curves, which contracts to a du Val point rather than a class T
    point) or ``"not_class_t"``.  For class T chains, ``base`` and ``moves``
    give a derivation: applying the named moves to ``base`` in order
    reproduces the chain.
    """

    kind: str
    chain: tuple[int, ...]
    base: "tuple[int, ...] | None" = None
    moves: tuple[str, ...] = ()

    @property
    def is_class_t(self) -> bool:
        return self.kind in ("base", "derived")

    @property
    def params(self) -> "tuple[int, int, int] | None":
        """``(d, n, a)``, carried from the base along the moves; ``None``
        when the chain is not of class T."""
        if not self.is_class_t:
            return None
        params = _base_params(self.base)
        for move in self.moves:
            params = _MOVES[move][1](*params)
        return params


def classify_chain(bs: Sequence[int]) -> ClassTResult:
    """Decide whether a chain is of class T by running the moves backwards.

    A derived chain always has exactly one end equal to 2 (the last move
    put it there), so the reduction step is forced at each stage and the
    derivation found is the unique one.  Each step copies the chain, so a
    chain of more than :data:`MAX_CHAIN_LENGTH` entries raises
    ``ValueError``.  Below that bound each move at most doubles ``n``, so
    ``n`` stays under ``2^1000`` and ``d`` at most 1000.
    """
    chain = _validate_chain(bs)
    if len(chain) > MAX_CHAIN_LENGTH:
        raise ValueError(f"the chain has {len(chain)} entries, more than "
                         f"{MAX_CHAIN_LENGTH}")
    if all(b == 2 for b in chain):
        return ClassTResult(kind="rdp", chain=chain)
    cur = chain
    undone: list[str] = []
    while True:
        if _is_base(cur):
            moves = tuple(reversed(undone))
            kind = "base" if not undone else "derived"
            return ClassTResult(kind=kind, chain=chain, base=cur, moves=moves)
        if cur[0] == 2 and cur[-1] >= 3:
            cur = cur[1:-1] + (cur[-1] - 1,)
            undone.append("left")
        elif cur[0] >= 3 and cur[-1] == 2:
            cur = (cur[0] - 1,) + cur[1:-1]
            undone.append("right")
        else:
            return ClassTResult(kind="not_class_t", chain=chain)
        if not cur:
            return ClassTResult(kind="not_class_t", chain=chain)


def iter_class_t(
    max_len: int,
) -> Iterator[tuple[tuple[int, ...], tuple[int, int, int]]]:
    """Every class T chain of length at most ``max_len`` with its
    ``(d, n, a)``, ordered by length and then by chain.

    The chains of length ``k`` are the new base plus both moves applied to
    each chain of length ``k - 1``; ``(d, n, a)`` is carried along each
    move, so no chain is folded into a fraction.  There are ``2**k - 1``
    chains of length exactly ``k``, and distinct move sequences never
    collide because reduction is deterministic.  Only two lengths are held
    at a time.
    """
    level: list[tuple[tuple[int, ...], tuple[int, int, int]]] = []
    for base in chain_bases(max_len):
        level = [
            (move(chain), rule(*params))
            for chain, params in level
            for move, rule in _MOVES.values()
        ]
        level.append((base, _base_params(base)))
        level.sort()
        yield from level


def wahl_chain_length(p: int, q: int) -> int:
    """Length of the chain of ``p^2 / (pq - 1)``, in ``O(log p)`` steps.

    With ``p^2/(pq - 1) = [a_1; a_2, ..., a_m]`` as a regular continued
    fraction, the chain has one entry for each odd-placed term and
    ``a_i - 1`` twos for each even-placed one.  This bounds the work
    before :func:`wahl_chain` expands the chain, so it needs only
    ``0 < pq - 1 < p^2`` (as for ``1 <= q <= p`` with ``p > 1``), under
    which ``p^2`` and ``pq - 1`` are always coprime.
    """
    n, k = p * p, p * q - 1
    length, odd = 0, True
    while k:
        a, n, k = n // k, k, n % k
        length += 1 if odd else a - 1
        odd = not odd
    return length


def wahl_chain(p: int, q: int) -> tuple[int, ...]:
    """The chain of ``C(p, q)``, ``p^2 / (pq - 1)`` expanded: every reading
    of a pair into its chain goes through here.

    Raises ``ValueError`` naming ``C(p,q)`` when ``p^2/(pq - 1)`` is not a
    fraction above 1, or naming ``p`` and ``q`` when the chain, measured
    first, has more than :data:`MAX_CHAIN_LENGTH` curves.  The pair itself
    is not checked: ``(-p, -q)`` reads as ``(p, q)``.
    """
    n, k = p * p, p * q - 1
    if not 0 < k < n:
        raise ValueError(f"C({p},{q}): p^2/(pq - 1) = {n}/{k} is not a "
                         "fraction above 1")
    length = wahl_chain_length(p, q)
    if length > MAX_CHAIN_LENGTH:
        raise ValueError(f"the chain of p={p}, q={q} has {length} curves, "
                         f"more than {MAX_CHAIN_LENGTH}")
    return hj_expand(n, k)


def chain_discrepancies(bs: Sequence[int]) -> tuple[Fraction, ...]:
    """Discrepancies ``d_1, ..., d_k`` of the chain's contraction.

    These solve the tridiagonal system ``sum_i (G_i . G_j) d_i = 2 - b_j``,
    which says the class ``K + sum d_i G_i`` is orthogonal to every curve
    of the chain.  The solve is fraction-free: with continuants ``q_j`` and
    forcing terms ``s_j = b_j s_{j-1} - s_{j-2} + (2 - b_j)``, the first
    discrepancy is ``-s_k/q_k`` and ``d_{j+1} = q_j d_1 + s_j``.  All
    discrepancies of a chain with entries at least 2 (not all 2) lie in
    the open interval (0, 1).
    """
    qs = continuants(bs)
    prev, cur = 0, 0
    ss = []
    for b in bs:
        prev, cur = cur, b * cur - prev + (2 - b)
        ss.append(cur)
    det, top = qs[-1], -ss[-1]
    return (Fraction(top, det),) + tuple(
        Fraction(q * top + s * det, det) for q, s in zip(qs, ss[:-1])
    )


def meridian_powers(bs: Sequence[int]) -> tuple[int, ...]:
    """Meridian exponents of the chain curves in the boundary lens space.

    With the generator taken at the last curve of the chain, the meridian
    of the i-th curve is the generator raised to the continuant of the
    trailing subchain ``(b_{i+1}, ..., b_k)``; the last curve itself gets
    exponent 1.  The leading curve's exponent is coprime to the total
    determinant, so either end generates and may serve as the unit.
    """
    # The continuants of the reversed chain are those of every trailing
    # subchain, longest last: one pass gives them all.
    trailing = continuants(tuple(bs)[::-1])
    return (*reversed(trailing[:-1]), 1)
