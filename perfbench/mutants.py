"""Seeded one-field perturbations of the built-in construction datasets.

Every mutant changes exactly one recorded field of one dataset and names
the ``verify`` check that must fail for it (the field-to-check table in the
README); ``checks.check_mutant`` holds every mutant to it.  Fields that
``verify`` is known to ignore are not generated (see the README for the
list and the reasons).
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from typing import NamedTuple

DATASETS = ("main_k3", "pencil2_k3", "k4")

# Field kinds, in the order one round takes them for each dataset.
KINDS = ("recorded", "invariant", "chain", "script")

# Recorded invariant -> the verify check that grades it.
INVARIANT_CHECKS = {
    "blowup_count": "invariants",
    "rank": "invariants",
    "euler": "invariants",
    "signature": "invariants",
    "b2_plus": "invariants",
    "b2_minus": "invariants",
    "chi": "invariants",
    "parity": "invariants",
    "fingerprint": "invariants",
    "k_squared": "k_squared",
    "k_squared_resolution": "k_squared",
    "pi1_trivial": "pi1_closure",
    "rationality_exclusion": "rationality_exclusion",
}

# Recorded table -> the verify check that grades its entries.
TABLE_CHECKS = {
    "discrepancies": "discrepancies",
    "canonical_relation": "canonical_relation",
    "fiber_relation": "fiber_relation",
    "pullback_fiber_weights": "pullback_expansion",
    "pullback_coefficients": "pullback_expansion",
    "nef_values": "nef_table",
    "nef_negative_pairings": "nef_table",
}

INT_DELTAS = tuple(d for d in range(-8, 9) if d)
FRACTION_STEPS = tuple(sorted(
    {Fraction(d, den) for den in (1, 2, 5) for d in (-3, -2, -1, 1, 2, 3)}
))

# Fields verify is known to ignore, left out until it checks them: the
# multiplicity of x7 at the x8 blow-up of pencil2_k3 can change freely.
IGNORED_FIELDS = {("pencil2_k3", ("steps", 18, "at", 1, 1))}

PI1_EDGES = {"main_k3": 2, "k4": 0}
"""Graph edge whose ``power_b`` the pi1 mutants of each dataset raise.

An even ``power_b`` on these edges leaves a residual cyclic factor in the
closure, so ``verify`` must report a failing ``pi1_closure``.  No single
field of ``pencil2_k3``'s graph can do that, so it has no pi1 mutant.
"""


class Mutant(NamedTuple):
    dataset: str
    kind: str
    path: tuple
    old: object
    new: object
    check: str

    @property
    def field(self) -> str:
        out = ""
        for part in self.path:
            out += f"[{part}]" if isinstance(part, int) else (
                f".{part}" if out else str(part)
            )
        return out


def _int_values(old: int, low: int) -> list[int]:
    return [old + d for d in INT_DELTAS if old + d >= low]


def _recorded_value(entry):
    return entry["values"] if "values" in entry else entry["value"]


def _perturb_number(old) -> list:
    """Different values of the same JSON type: an int or a fraction string."""
    if isinstance(old, int):
        return _int_values(old, -(10**6))
    base = Fraction(old)
    return [str(base + step) for step in FRACTION_STEPS]


def _table_leaves(table, corrections, prefix):
    """Yield ``(path, value)`` for the entries of a recorded table.

    Entries that the dataset's errata already correct are skipped: their
    grade is ``erratum`` whatever the printed value says.
    """
    if isinstance(table, list):
        for i, value in enumerate(table):
            yield prefix + (i,), value
        return
    for key, value in table.items():
        fix = corrections.get(key) if isinstance(corrections, dict) else None
        if isinstance(value, (dict, list)):
            yield from _table_leaves(value, fix or {}, prefix + (key,))
        elif fix is None:
            yield prefix + (key,), value


def candidates(name: str, data: dict) -> dict[str, list[Mutant]]:
    """Every generated mutant of one dataset, by field kind, in a fixed order."""
    out: dict[str, list[Mutant]] = {kind: [] for kind in KINDS}

    def add(kind, path, old, news, check):
        if (name, path) in IGNORED_FIELDS:
            return
        out[kind].extend(
            Mutant(name, kind, path, old, new, check) for new in news if new != old
        )

    for i, exp in enumerate(data["expectations"]):
        key = "self_int" if "curve" in exp else "intersection"
        add("recorded", ("expectations", i, key), exp[key],
            _perturb_number(exp[key]), "script_expectations")
    expected = data.get("expected", {})
    errata = data.get("errata", {})
    for key, check in TABLE_CHECKS.items():
        if key not in expected:
            continue
        leaves = _table_leaves(
            _recorded_value(expected[key]), errata.get(key, {}),
            ("expected", key, "values"),
        )
        for path, value in leaves:
            add("recorded", path, value, _perturb_number(value), check)
    for key, check in INVARIANT_CHECKS.items():
        if key not in expected:
            continue
        old = _recorded_value(expected[key])
        path = ("expected", key, "value")
        if key == "parity":
            news = ["even", "unknown"]
        elif key == "pi1_trivial":
            news = [not old]
        elif key == "fingerprint":
            plus, minus = old.split(" # ")
            count = int(minus.split()[0])
            news = [f"{plus} # {n} P2bar" for n in _int_values(count, 0)]
        else:
            news = _perturb_number(old)
        add("invariant", path, old, news, check)
    for i, chain in enumerate(data["chains"]):
        for key in ("p", "q"):
            add("chain", ("chains", i, key), chain[key],
                _int_values(chain[key], 1), "chain_shapes")
    for name_, degree in data["base_curves"].items():
        add("script", ("base_curves", name_), degree, _int_values(degree, 1),
            "script_expectations")
    for i, step in enumerate(data["steps"]):
        for j, (_, mult) in enumerate(step["at"]):
            add("script", ("steps", i, "at", j, 1), mult,
                _int_values(mult, 1), "script_expectations")
    return out


def apply(data: dict, path: tuple, value) -> dict:
    """A deep copy of ``data`` with the field at ``path`` set to ``value``."""
    out = copy.deepcopy(data)
    node = out
    for part in path[:-1]:
        node = node[part]
    node[path[-1]] = value
    return out


def pi1_mutant(name: str, data: dict, round_index: int) -> Mutant:
    """The round's pi1 mutant: an even ``power_b`` that grows with the round.

    It depends on the round index only, never on the seed, so every run
    attempts the same pi1 mutants in the same places.
    """
    edge = PI1_EDGES[name]
    old = data["graph"]["edges"][edge]["power_b"]
    return Mutant(name, "pi1", ("graph", "edges", edge, "power_b"), old,
                  2 + 2 * round_index, "pi1_closure")


class MutantStream:
    """Hands out one round of mutants at a time, never repeating one.

    Each (dataset, kind) pool is shuffled once with the seed; round ``r``
    takes the ``r``-th mutant of every pool, then the pi1 mutants.
    """

    def __init__(self, sources: dict[str, dict], seed: int) -> None:
        rng = random.Random(seed)
        self.sources = sources
        self.pools = {}
        for name in DATASETS:
            by_kind = candidates(name, sources[name])
            for kind in KINDS:
                pool = list(by_kind[kind])
                rng.shuffle(pool)
                self.pools[name, kind] = pool
        self.rounds = min(len(pool) for pool in self.pools.values())

    def round(self, r: int) -> list[Mutant]:
        if r >= self.rounds:
            raise IndexError(f"only {self.rounds} distinct mutant rounds")
        out = []
        for name in DATASETS:
            out.extend(self.pools[name, kind][r] for kind in KINDS)
            if name in PI1_EDGES:
                out.append(pi1_mutant(name, self.sources[name], r))
        return out
