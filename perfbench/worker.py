"""The measuring process: one thread, one client, a closed loop.

It imports ``blowdown`` from the checkout's ``src``, runs one untimed op
and prints ``ready`` (``run.py`` times set-up up to that line), then runs
whole rounds of the workload through ``blowdown.cli.main([...])`` until
the timed ops add up to ``--seconds`` (or, for ``mutants``, until its
distinct rounds run out).  Each op's wall time covers the
call alone; checking its output and writing the next round's input files
happen between ops, off the clock.  Right before and right after each op
it times a fixed piece of reference work (``reference``), so that
``run.py`` can divide out the host's speed at that moment.  The last line
of standard output is one JSON object with the samples, which ``run.py``
reduces to metrics.

With ``--trace 1`` it instead runs a fixed number of rounds twice, first
untraced and then traced, so the per-layer counts depend on the seed
alone and the difference between the passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

TRACE_ROUNDS = 2
MIN_OPS = 100  # ops that did not fail: ten beyond the pooled p90
MAX_PROBLEMS = 20


# A nominal time for the reference work, in ms: op times are reported at
# the speed at which it takes this long (on the host the README describes
# it read 3.3-6 ms, most often about 3.5).
REF_MS = 4.0


def reference() -> float:
    """Milliseconds for a fixed piece of pure-Python work: a running sum of
    products of ``Fraction`` values, the rational arithmetic the program
    itself leans on.

    Timed next to each op, it slows with the op when other tenants of the
    host load its cores, caches and memory, so an op's time over it
    depends on the program and far less on the host's state of the moment.
    ``Fraction`` is bound when this module loads, before the program is
    imported, and the collector is held off, so that neither what the
    program leaves on the heap nor a rebinding of ``fractions.Fraction``
    changes it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 600):
            acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
            if acc > 1000:
                acc -= 1000
        return (perf_counter() - start) * 1000
    finally:
        if enabled:
            gc.enable()


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop; tracks host speed only."""
    start = perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    return (perf_counter() - start) * 1000


class Runner:
    def __init__(self, cli) -> None:
        self.cli = cli
        self.problems: list[str] = []

    def run(self, op, tracer=None) -> tuple[float, bool, float]:
        """Time one op between two timings of the reference work, then check
        its output; returns (seconds, failed, mean reference ms)."""
        before = reference()
        outcome = self.call(op, tracer)
        ref_ms = (before + reference()) / 2
        return (*self.check(op, *outcome), ref_ms)

    def call(self, op, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        rc = None
        error = None
        if tracer is not None:
            tracer.install()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except (Exception, SystemExit) as exc:  # the op failed; count it
                error = exc
            elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        return elapsed, error, rc, out.getvalue()

    def check(self, op, elapsed, error, rc, out) -> tuple[float, bool]:
        if error is not None:
            return elapsed, True
        try:
            envelope = json.loads(out)
        except ValueError:
            return elapsed, True
        found = op.check(rc, envelope.get("result", {}))
        if found and len(self.problems) < MAX_PROBLEMS:
            self.problems.extend(found)
        return elapsed, False


def timed_rounds(workload, runner, seconds: float) -> tuple[list, int, bool]:
    """Whole rounds until the timed ops reach ``seconds``, or until the
    workload's distinct rounds run out (``workload.rounds``; ``None`` for a
    cycle that repeats without end).  Returns ``(samples, ops per round,
    stopped early)``, one ``(kind, input, seconds, failed, reference ms)``
    per op."""
    samples = []
    timed = 0.0
    ok = 0
    r = 0
    limit = workload.rounds

    def wanted() -> bool:
        return timed < seconds or ok < MIN_OPS

    while wanted() and (limit is None or r < limit):
        ops = workload.round(r)
        for op in ops:
            elapsed, failed, ref_ms = runner.run(op)
            samples.append((op.kind, " ".join(op.argv), elapsed, failed, ref_ms))
            timed += elapsed
            ok += not failed
        workload.release(r)
        r += 1
    return samples, len(ops), wanted()


def traced_rounds(workload, runner, rounds: int, dump: Path) -> dict:
    from spans import Tracer

    ops = [op for r in range(rounds) for op in workload.round(r)]
    plain = sum(runner.run(op)[0] for op in ops)
    tracer = Tracer()
    traced = 0.0
    failed = 0
    for i, op in enumerate(ops):
        tracer.op = i
        elapsed, did_fail, _ = runner.run(op, tracer)
        traced += elapsed
        failed += did_fail
    for r in range(rounds):
        workload.release(r)
    tracer.dump(dump)
    summary = tracer.summary(len(ops))
    summary.update(
        ops=len(ops),
        failed=failed,
        untraced_s=plain,
        traced_s=traced,
        overhead=traced / plain - 1,
    )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--dump")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import blowdown.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"blowdown imported from {cli.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    start = perf_counter()
    workload = WORKLOADS[args.workload](root, args.seed, Path(args.workdir))
    inputs_s = perf_counter() - start
    runner = Runner(cli)
    warm = workload.warmup()
    outcome = runner.call(warm)
    # Set-up ends here; run.py subtracts the time spent making inputs and
    # divides by the reference work timed here and just before the start.
    print(f"ready {inputs_s!r}", flush=True)
    print(f"reference {statistics.median([reference() for _ in range(3)])!r}",
          flush=True)
    _, failed = runner.check(warm, *outcome)
    if failed or runner.problems:
        print(f"first op failed: {runner.problems or outcome[1]!r}",
              file=sys.stderr)
        return 1
    if args.setup_only:
        return 0

    result: dict = {"calibration_ms": [calibrate()]}
    if args.trace:
        result["trace"] = traced_rounds(workload, runner, TRACE_ROUNDS, Path(args.dump))
    else:
        result["samples"], result["round_size"], result["stopped_early"] = (
            timed_rounds(workload, runner, args.seconds)
        )
    result["calibration_ms"].append(calibrate())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["problems"] = runner.problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
