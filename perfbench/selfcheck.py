"""Quick tests of the benchmark itself: every checker passes the program's
real output and rejects a corrupted copy of it, the tracer's counts on
one ``verify main_k3`` match the hand counts (52 ``validate_embedding``,
7 ``pullback_canonical``) and repeat exactly, and a ``mutants`` run whose
ops are fast stops when its distinct rounds run out.

Run from the root of a checkout:  python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import blowdown.cli as cli  # noqa: E402

import checks  # noqa: E402
import mutants  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import timed_rounds  # noqa: E402
from workloads import Mutants, load_sources  # noqa: E402

SOURCES = load_sources(ROOT)


def run(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(list(argv) + ["--json"])
    return rc, json.loads(out.getvalue())["result"]


class ReplayCheckers(unittest.TestCase):
    def assert_rejects(self, checker, name, rc, result, corrupt):
        self.assertEqual(checker(name, SOURCES[name], rc, result), [])
        bad = copy.deepcopy(result)
        corrupt(bad)
        self.assertNotEqual(checker(name, SOURCES[name], rc, bad), [])

    def test_verify(self):
        rc, result = run("verify", "k4")
        self.assert_rejects(checks.check_verify_clean, "k4", rc, result,
                            lambda r: r.update(errata_found=True))
        rc, result = run("verify", "main_k3")
        self.assert_rejects(checks.check_verify_clean, "main_k3", rc, result,
                            lambda r: r["checks"][0].update(status="fail"))

    def test_contract(self):
        rc, result = run("contract", "main_k3")
        corruptions = [
            lambda r: r["chains"][0]["shape"].__setitem__(0, 3),
            lambda r: r["chains"][1]["discrepancies"].__setitem__(2, "1/19"),
            lambda r: r["chains"][3].update(discrepancies=["3/2"]),
            lambda r: r.update(k_squared="4"),
            lambda r: r.update(k_squared_resolution="-20"),
        ]
        for corrupt in corruptions:
            self.assert_rejects(checks.check_contract, "main_k3", rc, result, corrupt)

    def test_invariants(self):
        rc, result = run("invariants", "pencil2_k3")
        for key, value in [("k_squared", "4"), ("euler", 10), ("chi", 2),
                           ("b2_plus", 2), ("pi1_trivial", False),
                           ("fingerprint", "P2 # 5 P2bar")]:
            self.assert_rejects(checks.check_invariants, "pencil2_k3", rc, result,
                                lambda r: r.update({key: value}))


class MutantChecker(unittest.TestCase):
    def test_mutant(self):
        source = SOURCES["k4"]
        mutant = mutants.candidates("k4", source)["chain"][0]
        path = HERE.parent / ".perfbench_out" / "selfcheck-mutant.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(mutants.apply(source, mutant.path, mutant.new)))
        try:
            rc, result = run("verify", "--dataset", str(path))
        finally:
            path.unlink()
        cite = source["citation"]
        self.assertEqual(checks.check_mutant(mutant, cite, rc, result), [])
        self.assertNotEqual(checks.check_mutant(mutant, cite, 0, result), [])
        bad = copy.deepcopy(result)
        for check in bad["checks"]:
            if check["name"] == mutant.check:
                check["details"] = [d for d in check["details"]
                                    if not d.startswith("source: ")]
        self.assertNotEqual(checks.check_mutant(mutant, cite, rc, bad), [])
        other = mutant._replace(check="citation")
        self.assertNotEqual(checks.check_mutant(other, cite, rc, result), [])


class ChainChecker(unittest.TestCase):
    def test_chains(self):
        rc, result = run("tchain", "gen", "--max-len", "6")
        self.assertEqual(checks.check_chains(6, rc, result), [])
        corruptions = [
            lambda r: r["chains"].pop(),
            lambda r: r["chains"].__setitem__(1, r["chains"][0]),
            lambda r: r["chains"][1]["chain"].__setitem__(0, 3),
            lambda r: r["chains"][7].update(a=r["chains"][7]["a"] + 1),
            lambda r: next(c for c in r["chains"] if "p" in c).update(q=2),
            lambda r: next(c for c in r["chains"] if "p" not in c).update(p=1, q=1),
        ]
        for corrupt in corruptions:
            bad = copy.deepcopy(result)
            corrupt(bad)
            self.assertNotEqual(checks.check_chains(6, rc, bad), [])


class FastRunner:
    """Stands in for the measuring loop's runner: every op takes 1 ms."""

    def run(self, op):
        return 0.001, op.kind.startswith("pi1"), 4.0


class MutantRounds(unittest.TestCase):
    def test_stops_when_rounds_run_out(self):
        (ROOT / ".perfbench_out").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
        try:
            workload = Mutants(ROOT, 1, workdir)
            with self.assertRaises(IndexError):
                workload.stream.round(workload.rounds)
            samples, size, early = timed_rounds(workload, FastRunner(), 30)
        finally:
            shutil.rmtree(workdir)
        self.assertTrue(early)
        self.assertEqual(len(samples), workload.rounds * size)
        self.assertEqual(sum(s[3] for s in samples) * 7, len(samples))


class TracerCounts(unittest.TestCase):
    def traced_verify(self):
        tracer = Tracer()
        tracer.op = 0
        tracer.install()
        try:
            run("verify", "main_k3")
        finally:
            tracer.uninstall()
        return tracer.summary(1)

    def test_hand_counts_repeat(self):
        first = self.traced_verify()
        metrics = first["metrics"]
        self.assertEqual(metrics["contraction.validate_embedding.calls"], 52)
        self.assertEqual(metrics["contraction.pullback_canonical.calls"], 7)
        self.assertGreater(metrics["fraction.ops"], 0)
        again = self.traced_verify()
        self.assertEqual(first["detail"], again["detail"])
        self.assertEqual(metrics["fraction.ops"], again["metrics"]["fraction.ops"])

    def test_uninstall_restores(self):
        from fractions import Fraction

        main, add = cli.main, Fraction.__add__
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(cli.main, main)
        tracer.uninstall()
        self.assertIs(cli.main, main)
        self.assertIs(Fraction.__add__, add)


if __name__ == "__main__":
    unittest.main()
