"""Topological bookkeeping: lens spaces, the group closure and invariants.

Each contracted chain bounds a rational homology ball; its boundary lens
space has cyclic fundamental group of order p^2.  Gluing the balls back in
only gives a simply connected surface if the meridian relations between
neighbouring chains kill every cyclic factor.  The closure below runs that
computation as a gcd fixpoint and logs each step.  The surface invariants
then follow from the lattice data alone.

Run:  python3 demos/04_topology.py
"""

from blowdown import (
    Replay,
    continuants,
    load_construction,
    meridian_powers,
    pi1_closure,
    wahl_chain,
)

print("The C(7,1) chain, whose neighbourhood bounds the lens space L(49, 6):")
chain = wahl_chain(7, 1)
print(f"  chain {chain}, determinant {continuants(chain)[-1]} = |pi1 L(49, 6)|")
print("  the rational ball glued in its place has euler = 1, signature = 0, |H1| = 7")
print()

print("Meridian exponents along the C(7,1) chain (generator at the last curve):")
print(f"  {meridian_powers(chain)}")
print()

construction = load_construction("main_k3")
print(f"Connection graph of '{construction.name}' and the closure log:")
result = pi1_closure(construction.graph)
for line in result.describe():
    print(f"  {line}")
print()

print("A negative control: orders 4 and 8 share a factor, so a single")
print("unit-power edge cannot kill both groups:")
from blowdown import parse_graph

control = pi1_closure(
    parse_graph(
        {
            "nodes": [{"name": "A", "order": 4}, {"name": "B", "order": 8}],
            "edges": [{"a": "A", "b": "B", "power_a": 1, "power_b": 1}],
        }
    )
)
for line in control.describe():
    print(f"  {line}")
print()

summary = Replay(construction).summary
print("Invariants of the blown-down surface:")
print(f"  K^2 = {summary.k_squared}, e = {summary.euler}, signature = {summary.signature}")
print(f"  b2+ = {summary.b2_plus}, b2- = {summary.b2_minus}, chi = {summary.chi}")
print(f"  Noether relation holds: {summary.noether_ok}")
print(f"  intersection form parity: {summary.parity} ({summary.parity_reason})")
print(f"  pi1 trivial: {summary.pi1_trivial}")
print(f"  homeomorphism type: {summary.fingerprint}")
