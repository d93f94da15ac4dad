"""The three workloads, as rounds of ops with their checkers.

A run repeats whole rounds, so every run performs the same op mix in the
same cyclic order whatever the host's speed.  The seed rotates the order of
a round (``replay``, ``chains``) or picks the mutants (``mutants``); the
first, untimed op of a run never depends on it, so set-up time measures
the same work on every seed.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import mutants


class Op(NamedTuple):
    kind: str
    argv: tuple
    check: Callable[[int, dict], list]


def load_sources(root: Path) -> dict[str, dict]:
    data = root / "src" / "blowdown" / "data"
    return {
        name: json.loads((data / f"{name}.json").read_text(encoding="utf-8"))
        for name in mutants.DATASETS
    }


def _rotate(ops: list, seed: int) -> list:
    k = seed % len(ops)
    return ops[k:] + ops[:k]


# (command, dataset, copies per round).  Copies are set so that no
# reported percentile falls between two op kinds' clusters of timings: of
# the 16 ops of a round sorted by time, contract main_k3 fills places 6-9
# (p50, the 8th, inside it) and verify main_k3, the slowest op, places
# 14-16 (p90, the 15th, in its middle).
REPLAY_ROUND = (
    ("verify", "main_k3", 3),
    ("invariants", "pencil2_k3", 1),
    ("contract", "pencil2_k3", 1),
    ("invariants", "k4", 1),
    ("invariants", "main_k3", 1),
    ("contract", "k4", 1),
    ("verify", "pencil2_k3", 1),
    ("contract", "main_k3", 4),
    ("verify", "k4", 3),
)

# tchain gen lengths: five kinds a factor of 4-5 apart in time, one of each
# per round, so p50 is the third kind's time and p90 the fifth's.
CHAIN_LENGTHS = (4, 6, 8, 10, 12)


class Cycle:
    """A workload whose rounds are all the same ops, rotated by the seed."""

    rounds = None  # the cycle repeats without end

    def __init__(self, ops: list[Op], seed: int) -> None:
        self.warm = ops[0]
        self.ops = _rotate(ops, seed)

    def warmup(self) -> Op:
        return self.warm

    def round(self, r: int) -> list[Op]:
        return self.ops

    def release(self, r: int) -> None:
        pass


def replay(root: Path, seed: int, workdir: Path) -> Cycle:
    sources = load_sources(root)
    ops = []
    for command, name, copies in REPLAY_ROUND:
        op = Op(
            f"{command} {name}",
            (command, name, "--json"),
            partial(checks.REPLAY_CHECKERS[command], name, sources[name]),
        )
        ops.extend([op] * copies)
    return Cycle(ops, seed)


def chains(root: Path, seed: int, workdir: Path) -> Cycle:
    ops = [
        Op(
            f"tchain gen {n}",
            ("tchain", "gen", "--max-len", str(n), "--json"),
            partial(checks.check_chains, n),
        )
        for n in CHAIN_LENGTHS
    ]
    return Cycle(ops, seed)


class Mutants:
    """``verify --dataset`` on files written fresh for each round."""

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.root = root
        self.sources = load_sources(root)
        self.stream = mutants.MutantStream(self.sources, seed)
        self.workdir = workdir
        # Distinct rounds: a run that uses them all stops early (run.py
        # reports it) rather than repeat a mutant.
        self.rounds = self.stream.rounds

    def warmup(self) -> Op:
        name = mutants.DATASETS[0]
        path = self.root / "src" / "blowdown" / "data" / f"{name}.json"
        return Op(
            f"verify {name}",
            ("verify", "--dataset", str(path), "--json"),
            partial(checks.check_verify_clean, name, self.sources[name]),
        )

    def round(self, r: int) -> list[Op]:
        """The round's ops.  Their kind is the dataset (its pi1 mutants
        apart, which fail today): a round holds one mutant of each field
        kind per dataset, so the 12 ops that do not fail sort into three
        clusters of four, and p50 (the 6th) and p90 (the 11th) each fall
        inside one cluster, never on a boundary between two."""
        ops = []
        for i, mutant in enumerate(self.stream.round(r)):
            kind = "pi1" if mutant.kind == "pi1" else "mutants"
            data = mutants.apply(self.sources[mutant.dataset], mutant.path, mutant.new)
            path = self.workdir / f"round{r}-{i}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            citation = self.sources[mutant.dataset]["citation"]
            ops.append(Op(
                f"{kind} {mutant.dataset}",
                ("verify", "--dataset", str(path), "--json"),
                partial(checks.check_mutant, mutant, citation),
            ))
        return ops

    def release(self, r: int) -> None:
        for path in self.workdir.glob(f"round{r}-*.json"):
            os.unlink(path)


WORKLOADS = {"replay": replay, "mutants": Mutants, "chains": chains}
