"""Contracting the chains: certificates, discrepancies and the pullback.

Once the rational surface is built, the construction names disjoint chains
of curves whose self-intersections match Wahl fractions.  Contracting them
needs three exact certificates: the chains have the right shape, their
intersection matrices are negative definite, and the canonical class pulls
back from the singular quotient with coefficients strictly between 0 and 1.
The pullback must then pair nonnegatively with every curve in sight, and
its square is the K^2 of the blown-down surface.

Run:  python3 demos/03_contraction.py
"""

from blowdown import Replay, load_construction

construction = load_construction("main_k3")
# One replay: the script runs once and each stage is computed once, on use.
replay = Replay(construction)
model = replay.model

print("Each recorded chain is read curve by curve and matched to its fraction:")
for emb, shape in zip(construction.chains, replay.shapes):
    print(f"  {emb.label}: {list(shape)} on {list(emb.curves)}")
print()

print("Negative definiteness comes with an explicit minor certificate:")
cert = replay.artin
for chain_cert in cert.chains:
    minors = ", ".join(str(m) for m in chain_cert.minors)
    print(f"  {chain_cert.label}: minors {minors}")
print(f"  cross-chain intersections: {len(cert.cross_violations)} violations")
print()

print("Discrepancies (the canonical correction per contracted curve):")
for emb, ds in zip(construction.chains, replay.discrepancies):
    print(f"  {emb.label}: {', '.join(str(d) for d in ds)}")
print()

pullback = replay.pullback
k2_before = model.intersect(model.canonical, model.canonical)
k2_after = replay.k_squared
print(f"K^2 of the resolution: {k2_before}")
print(f"K^2 after contracting all 24 curves: {k2_after}")
print(f"pullback . pullback = {model.intersect(pullback, pullback)} (the same number)")
print()

contracted = [name for emb in construction.chains for name in emb.curves]
zeroes = sum(1 for name in contracted if model.intersect(pullback, name) == 0)
print(f"The pullback is orthogonal to {zeroes} of {len(contracted)} contracted curves.")
print()

print("Nef check against every curve outside the chains (all must be >= 0):")
for name, value in replay.nef:
    print(f"  pullback . {name:6} = {value}")
