"""Benchmark of the ``blowdown`` package, driven through its command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in a fresh measuring process (``worker.py``) that calls
``blowdown.cli.main([..., "--json"])`` in a closed loop with one client and
checks every output against ``checks.py``.  Before it, ``SETUP_SAMPLES - 1``
further fresh processes run only the first op, so ``setup_s`` is a median.
Every time is reported at the reference speed of ``worker.reference``: it
is divided by the reference work timed next to it and multiplied by
``worker.REF_MS``, so that the host's own swings in speed divide out.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Full records of
each run go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import REF_MS, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("replay", "mutants", "chains")
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # a workload's processes, set-up samples included


class BenchError(RuntimeError):
    pass


def spawn(args, workload: str, workdir: Path, deadline: float, *extra: str):
    """Start a measuring process; return (set-up seconds, reference ms, its
    output).

    Set-up runs from just before the process is started to its ``ready``
    line, less the time it reports spending on making inputs.  The
    reference ms is the mean of the reference work timed here just before
    the start and in the process just after ``ready``.  The process is
    killed if it is still running at ``deadline`` (a ``perf_counter``).
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *extra,
    ]
    env = dict(os.environ)
    env.pop("BLOWDOWN_DATA_DIR", None)
    if args.trace:
        # topology._parity walks a set of curve names and stops at the first
        # curve that meets the witness, so its dot calls follow string
        # hashing; a fixed hash seed makes the traced counts repeat exactly.
        env["PYTHONHASHSEED"] = "0"
    ref_before = statistics.median([reference() for _ in range(3)])
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], deadline - start)
        line = proc.stdout.readline() if readable else ""
        ready = perf_counter()
        ref_line = proc.stdout.readline() if line else ""
        rest, _ = proc.communicate(timeout=max(deadline - ready, 0.1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: measuring process timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if (proc.returncode != 0 or not line.startswith("ready ")
            or not ref_line.startswith("reference ")):
        raise BenchError(f"{workload}: measuring process exited {proc.returncode}")
    ref_ms = (ref_before + float(ref_line.split()[1])) / 2
    return ready - start - float(line.split()[1]), ref_ms, rest


def at_reference(seconds: float, ref_ms: float) -> float:
    """A wall time in ms at the reference speed: the time over the
    reference work timed next to it, times ``REF_MS``."""
    return seconds * 1000 * REF_MS / ref_ms


def kind_times(samples: list) -> dict[str, float]:
    """Each op kind's time in ms at the reference speed: the median over
    every input's repeats, then the mean over the kind's distinct inputs.

    On a shared host, other tenants slow every op by up to 2x, in spells
    of seconds to minutes that can cover a whole run (see the README), so
    neither the best nor the median of raw times repeats from run to run.
    The reference work timed right before and after each op slows with it,
    and the ratio of the two does repeat.  Where an input repeats
    (``replay``, ``chains``) the median of its ratios sheds the odd op or
    reference that a burst hit alone; where no input repeats
    (``mutants``), a kind's time is the mean over its mutants, which also
    averages over which mutants the seed drew.
    """
    by_input: dict[tuple, list[float]] = {}
    for kind, key, seconds, _, ref_ms in samples:
        by_input.setdefault((kind, key), []).append(at_reference(seconds, ref_ms))
    by_kind: dict[str, list[float]] = {}
    for (kind, _), ms in by_input.items():
        by_kind.setdefault(kind, []).append(statistics.median(ms))
    return {kind: statistics.fmean(v) for kind, v in by_kind.items()}


def nearest_rank(sorted_ms: list[float], share: float) -> float:
    """The ``share`` percentile by nearest rank: always one op's own time,
    never a blend of two kinds' times."""
    return sorted_ms[math.ceil(share * len(sorted_ms)) - 1]


def end_to_end(samples: list, round_size: int, setups: list[tuple],
               rss_mb: float) -> dict:
    """Metrics of one round of ops, each op taken at its kind's time;
    ``setups`` holds (set-up seconds, reference ms) of each process."""
    times = kind_times(samples)
    round_ops = samples[:round_size]
    ok_ms = sorted(times[kind] for kind, _, _, failed, _ in round_ops if not failed)
    round_ms = sum(times[kind] for kind, *_ in round_ops)
    return {
        "setup_s": {"value": statistics.median(
            at_reference(s, ref_ms) / 1000 for s, ref_ms in setups), "unit": "s"},
        "ops_per_s": {"value": 1000 * len(ok_ms) / round_ms, "unit": "ops/s"},
        "op_ms.p50": {"value": nearest_rank(ok_ms, 0.5), "unit": "ms"},
        "op_ms.p90": {"value": nearest_rank(ok_ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }


def pooled(samples: list) -> dict:
    """The raw wall times pooled over every op of the run, for reference:
    these move with the host."""
    timed = sum(s[2] for s in samples)
    ok_ms = sorted(s[2] * 1000 for s in samples if not s[3])
    return {
        "ops_per_s": len(ok_ms) / timed,
        "op_ms.p50": nearest_rank(ok_ms, 0.5),
        "op_ms.p90": nearest_rank(ok_ms, 0.9),
    }


def measure(args, workload: str) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{args.seed}.jsonl"
    # The extra set-up samples are split before and after the measured
    # process, so the median spans the host's slow and quiet spells.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    deadline = perf_counter() + RUN_LIMIT_S
    try:
        setups = [spawn(args, workload, workdir, deadline, "--setup-only")[:2]
                  for _ in range(extra // 2)]
        *setup, output = spawn(args, workload, workdir, deadline, "--dump", str(dump))
        setups.append(tuple(setup))
        setups += [spawn(args, workload, workdir, deadline, "--setup-only")[:2]
                   for _ in range(extra - extra // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = json.loads(output.strip().splitlines()[-1])
    before, after = record["calibration_ms"]
    if args.trace:
        trace = record["trace"]
        attempted, failed = trace["ops"], trace["failed"]
        units = {name: "ms" if name.endswith("ms") else "count"
                 for name in trace["metrics"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in trace["metrics"].items()}
        print(f"{workload}: tracing overhead {trace['overhead']:+.1%} "
              f"({trace['traced_s']:.3f} s traced, {trace['untraced_s']:.3f} s "
              f"untraced, same {attempted} ops); spans in {dump.name}")
    else:
        samples = record["samples"]
        attempted = len(samples)
        failed = sum(1 for s in samples if s[3])
        metrics = end_to_end(samples, record["round_size"], setups,
                             record["peak_rss_mb"])
        record["per_kind_ms"] = kind_times(samples)
        record["pooled"] = pooled(samples)
        record["setup_samples_s"] = setups
        timed = sum(s[2] for s in samples)
        print(f"{workload}: {attempted} ops, {failed} failed, {timed:.2f} s timed; "
              f"set-up samples {', '.join(f'{s:.3f}' for s, _ in setups)} s raw")
        if record["stopped_early"]:
            print(f"{workload}: stopped early: its {attempted // record['round_size']} "
                  f"distinct rounds ran out after {timed:.2f} s of timed ops")
        print(f"{workload}: per-kind ms at reference speed " + ", ".join(
            f"{k} {v:.1f}" for k, v in sorted(record["per_kind_ms"].items())))
        print(f"{workload}: raw, pooled over all ops " + ", ".join(
            f"{k} {v:.2f}" for k, v in record["pooled"].items()))
        print(f"{workload}: reference work {statistics.median(s[4] for s in samples):.2f} "
              f"ms (median next to the ops; {REF_MS} ms at reference speed)")
    print(f"{workload}: calibration loop {before:.2f} ms before, {after:.2f} ms after")
    for problem in record["problems"]:
        print(f"{workload}: WRONG OUTPUT: {problem}", file=sys.stderr)
    result = {
        "correct": not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    path = OUT / f"run-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "blowdown" / "cli.py").is_file():
        print(f"error: no blowdown sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(args, name)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) > 1:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }))
    else:
        print(json.dumps(results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
