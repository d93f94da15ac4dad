"""Chains of rational curves from two integers.

A pair of coprime integers 0 < q < p determines the fraction p^2/(pq - 1)
and with it a chain of self-intersection numbers: the unique continued
fraction expansion of that value with every entry at least 2.  Contracting
a chain of rational curves with those self-intersections (negated) produces
a Wahl singularity, the basic building block of a rational blow-down.

Run:  python3 demos/01_wahl_chains.py
"""

from fractions import Fraction

from blowdown import (
    classify_chain,
    continuants,
    fraction_terms,
    iter_class_t,
    wahl_chain,
)

print("The expansion of p^2/(pq - 1) for small (p, q):")
for p, q in [(2, 1), (3, 1), (7, 1), (19, 5), (35, 6), (131, 27)]:
    print(f"  C({p},{q}) -> {list(wahl_chain(p, q))}")
print()

print("The expansion inverts exactly; nothing is floating point here:")
bs = wahl_chain(35, 6)
print(f"  value of {list(bs)} = {Fraction(*fraction_terms(bs))} = 1225/209")
print(f"  determinant of the chain's intersection matrix = {continuants(bs)[-1]}")
print(f"  recover the parameters: (d, n, a) = {classify_chain(bs).params}, "
      "so d = 1 and (p, q) = (n, a)")
print()

print("Chains that contract to the wider class T family obey")
print("fraction = d*n^2/(d*n*a - 1).  Recognition runs the two")
print("length-increasing moves backwards until a base chain appears:")
for chain in [(4,), (3, 3), (6, 8, 2, 2, 2, 3, 2, 2, 2, 2), (4, 4)]:
    res = classify_chain(chain)
    if res.is_class_t:
        d, n, a = res.params
        extra = f"d={d} n={n} a={a}, base {list(res.base)}, {len(res.moves)} moves"
    else:
        extra = "no (d, n, a) exists"
    print(f"  {str(list(chain)):38} {res.kind:12} {extra}")
print()

print("Every class T chain arises from (4) or (3,2,...,2,3) by the two")
print("moves, so the family can be generated exhaustively: there are")
print("2^k - 1 chains of each length k.")
for max_len in (1, 2, 3, 4, 5):
    print(f"  length <= {max_len}: {sum(1 for _ in iter_class_t(max_len))} chains")
print()

print("The d = 1 members are the Wahl chains; d > 1 appears from length 2 on:")
for chain, (d, n, a) in iter_class_t(3):
    tag = f"Wahl p={n} q={a}" if d == 1 else f"d={d}"
    print(f"  {str(list(chain)):12} {tag}")
