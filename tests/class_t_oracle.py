"""An independent oracle for chains of class T.

Nothing here imports ``blowdown``: the chain's fraction is folded in
``Fraction`` arithmetic from the near end, the two end moves are written
out again, and the arithmetic normal form ``dn^2 / (dna - 1)`` of a class T
fraction (Kollar and Shepherd-Barron, Invent. Math. 91, 1988) is found by
search.  So the ``(d, n, a)`` that ``iter_class_t`` carries along the moves,
and the integer fraction that ``fraction_terms`` computes, are checked
against code they share nothing with.
"""

from fractions import Fraction
from math import gcd, isqrt


def fold(bs):
    """``b_1 - 1/(b_2 - 1/(... - 1/b_k))``, one ``Fraction`` step a curve."""
    value = Fraction(bs[-1])
    for b in reversed(bs[:-1]):
        value = b - 1 / value
    return value


def extend_left(bs):
    """Prepend a ``-2`` curve and steepen the far end."""
    return (2,) + tuple(bs[:-1]) + (bs[-1] + 1,)


def extend_right(bs):
    """Append a ``-2`` curve and steepen the near end."""
    return (bs[0] + 1,) + tuple(bs[1:]) + (2,)


def apply_moves(base, moves):
    """Apply ``"left"``/``"right"`` moves to a chain in order."""
    chain = tuple(base)
    for move in moves:
        chain = {"left": extend_left, "right": extend_right}[move](chain)
    return chain


def general_params(bs):
    """The ``(d, n, a)`` with fraction ``dn^2 / (dna - 1)``, ``n >= 2``,
    ``0 < a < n`` and ``gcd(a, n) == 1``; ``ValueError`` when there is none.

    With fraction ``N/M``, any such ``n`` has ``n^2 | N`` and ``n | M + 1``,
    so ``n^2`` divides ``gcd(N, (M + 1)^2)`` and the search stops at its
    square root.
    """
    value = fold(bs)
    big_n, big_m = value.numerator, value.denominator
    for n in range(isqrt(gcd(big_n, (big_m + 1) ** 2)), 1, -1):
        if big_n % (n * n) or (big_m + 1) % n:
            continue
        d = big_n // (n * n)
        if (big_m + 1) % (d * n):
            continue
        a = (big_m + 1) // (d * n)
        if 0 < a < n and gcd(a, n) == 1:
            return (d, n, a)
    raise ValueError(f"chain {tuple(bs)} has fraction {big_n}/{big_m}, "
                     "which is not of the form dn^2/(dna - 1)")


def wahl_params(bs):
    """The ``(p, q)`` with fraction ``p^2 / (pq - 1)``, for a Wahl chain;
    ``ValueError`` when the determinant is not a square or the cofactor
    does not match."""
    value = fold(bs)
    big_n, big_m = value.numerator, value.denominator
    p = isqrt(big_n)
    q = (big_m + 1) // p
    if p * p != big_n or not 0 < q < p or gcd(p, q) != 1 or p * q - 1 != big_m:
        raise ValueError(f"chain {tuple(bs)} has fraction {big_n}/{big_m}, "
                         "not of the form p^2/(pq - 1)")
    return (p, q)
