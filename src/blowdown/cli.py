"""Command line front end.

Every subcommand can emit either human-readable text or a deterministic
JSON envelope (``--json``) carrying the tool version and a sha256 digest of
the input, so runs are reproducible and diffable.  Exit codes: 0 for
success (including verification that only finds recorded errata), 1 for a
mathematical failure (a verification check fails, a chain does not
contract), 2 for usage or input errors, and 141 (128 + SIGPIPE) when the
reader of stdout goes away before the output is written, as in
``blowdown tchain gen --max-len 14 | head -1``.

Each handler builds its one result and hands it, with its text lines, to
:func:`_emit`; a handler that cannot finish raises :class:`_Exit`.  Only
:func:`main` writes to stderr and picks the exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from math import gcd
from typing import Iterable, Sequence, Union

from . import __version__
from .constructions import (
    STAGE_ERRORS,
    Replay,
    available_constructions,
    load_construction,
    load_graph,
    stage_message,
)
from .tchains import (
    chain_discrepancies,
    classify_chain,
    fraction_terms,
    iter_class_t,
    meridian_powers,
    wahl_chain,
)
from .topology import pi1_closure

__all__ = ["main"]

MAX_GEN_LENGTH = 17
"""Largest ``tchain gen --max-len``: there are ``2**L - 1`` chains of
length ``L``.  Text and ``--json`` output both stream, and the generator
holds two lengths of chains at a time: at 17 either form takes 1.3 s and
peaks at 86.5 MiB (best of 3, Python 3.11.7, 2-vCPU Xeon)."""


def _digest_args(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _render_json(command: str, input_sha256: Union[str, None], result) -> str:
    """The ``--json`` envelope of every command, as one indented string."""
    envelope = {
        "tool": "blowdown",
        "version": __version__,
        "command": command,
        "input_sha256": input_sha256,
        "result": result,
    }
    return json.dumps(envelope, sort_keys=True, indent=2, default=str)


class _Exit(Exception):
    """``_Exit(message, code)`` ends a command early: :func:`main` writes
    the message to stderr and exits with the code."""


def _emit(args, command: str, input_sha256: Union[str, None], result,
          lines: Iterable[str], code: int = 0) -> int:
    """Print a command's one result and return its exit code: the ``--json``
    envelope of ``result``, or else ``lines``, which a handler may pass as a
    generator so that they are built only when printed."""
    if args.json:
        print(_render_json(command, input_sha256, result))
    else:
        for line in lines:
            print(line)
    return code


def _cmd_cpq(args) -> int:
    p, q = args.p, args.q
    if not 0 < q < p or gcd(p, q) != 1:
        raise _Exit("error: need coprime integers 0 < q < p, "
                    f"got p={p}, q={q}", 2)
    try:
        chain = wahl_chain(p, q)
    except ValueError as exc:
        raise _Exit(f"error: {exc}", 2)
    ds = [str(d) for d in chain_discrepancies(chain)]
    powers = meridian_powers(chain)
    result = {
        "p": p,
        "q": q,
        "chain": list(chain),
        "length": len(chain),
        "determinant": p * p,
        "discrepancies": ds,
        "meridian_powers": list(powers),
    }
    lines = (
        f"C({p},{q}): " + " ".join(str(b) for b in chain),
        f"continued fraction {p * p}/{p * q - 1}, length {len(chain)}, "
        f"lens order {p * p}",
        "discrepancies: " + ", ".join(ds),
        "meridian powers: " + ", ".join(str(w) for w in powers),
    )
    return _emit(args, "cpq", _digest_args({"p": p, "q": q}), result, lines)


def _tchain_records(pairs):
    """A record per ``(chain, (d, n, a))``, each checked against the
    chain's own fraction, which must be ``dn^2 / (dna - 1)``."""
    for chain, (d, n, a) in pairs:
        terms = fraction_terms(chain)
        if terms != (d * n * n, d * n * a - 1):
            raise ArithmeticError(
                f"chain {list(chain)} has fraction {terms[0]}/{terms[1]}, "
                f"not dn^2/(dna - 1) for (d, n, a) = ({d}, {n}, {a})"
            )
        record = {"chain": chain, "d": d, "n": n, "a": a}
        if d == 1:
            record["p"], record["q"] = n, a
        yield record


def _params_line(record: dict) -> str:
    line = f"d={record['d']} n={record['n']} a={record['a']}"
    if "p" in record:
        line += f" (Wahl p={record['p']} q={record['q']})"
    return line


def _record_json(record: dict) -> str:
    """A ``tchain gen`` record as :func:`_render_json` writes it at
    ``result.chains[i]``: keys sorted, six spaces in, all values integers."""
    chain = ",\n          ".join(map(str, record["chain"]))
    text = (
        f'      {{\n        "a": {record["a"]},\n        "chain": [\n'
        f'          {chain}\n        ],\n        "d": {record["d"]},\n'
        f'        "n": {record["n"]}'
    )
    if "p" in record:
        text += f',\n        "p": {record["p"]},\n        "q": {record["q"]}'
    return text + "\n      }"


def _stream_tchain_json(max_len: int, records) -> None:
    """Write the envelope of ``tchain gen --json`` with each record as it
    comes, byte for byte what :func:`_render_json` gives for the record list.

    The envelope is rendered once around placeholders: sorted keys put
    ``chains`` before ``count``, so the count is filled in after the last
    record, and no record is held.
    """
    text = _render_json(
        "tchain gen",
        _digest_args({"max_len": max_len}),
        {"max_len": max_len, "count": "<count>", "chains": "<chains>"},
    )
    head, tail = text.split('"<chains>"')
    write = sys.stdout.write
    write(head)
    count = 0
    for count, record in enumerate(records, start=1):
        write(("[\n" if count == 1 else ",\n") + _record_json(record))
    write("\n    ]" if count else "[]")
    write(tail.replace('"<count>"', str(count)) + "\n")


def _cmd_tchain_gen(args) -> int:
    """Print every class T chain up to ``--max-len`` as it is generated.

    Text and ``--json`` output both stream: each record is written once
    :func:`_tchain_records` has checked it.  A record that fails its check
    ends the command with exit 1 and names the chain on stderr, and the
    output already written stays cut short there (for ``--json``, a
    document that does not parse).
    """
    if not 1 <= args.max_len <= MAX_GEN_LENGTH:
        raise _Exit(f"error: --max-len must lie between 1 and {MAX_GEN_LENGTH}, "
                    f"got {args.max_len}", 2)
    records = _tchain_records(iter_class_t(args.max_len))
    try:
        if args.json:
            _stream_tchain_json(args.max_len, records)
            return 0
        count = 0
        for count, record in enumerate(records, start=1):
            print(f"{list(record['chain'])}  {_params_line(record)}")
    except ArithmeticError as exc:
        raise _Exit(f"error: {exc}", 1)
    print(f"{count} chains of length <= {args.max_len}")
    return 0


def _cmd_tchain_check(args) -> int:
    try:
        result = classify_chain(tuple(args.entries))
    except ValueError as exc:
        raise _Exit(f"error: {exc}", 2)
    payload: dict = {
        "chain": list(result.chain),
        "kind": result.kind,
        "class_t": result.is_class_t,
    }
    lines: tuple = (f"{list(result.chain)}: {result.kind}",)
    if result.is_class_t:
        payload["base"] = list(result.base or ())
        payload["moves"] = list(result.moves)
        try:
            (record,) = _tchain_records([(result.chain, result.params)])
        except ArithmeticError as exc:
            raise _Exit(f"error: {exc}", 1)
        payload.update({k: v for k, v in record.items() if k != "chain"})
        lines = (
            f"{list(result.chain)}: class T ({result.kind})",
            f"base {payload['base']}, moves {payload['moves']}",
            _params_line(payload),
        )
    return _emit(args, "tchain check", _digest_args({"entries": args.entries}),
                 payload, lines)


def _load_replay(source: str) -> Replay:
    return Replay(load_construction(source))


def _dataset_command(sub, name: str, help_text: str, run, failure: str,
                     load=_load_replay, metavar=None, source_help=None,
                     dataset_help="path to a construction JSON file"):
    """Add a subcommand that runs ``run(args, load(source))`` on the dataset
    named positionally or by ``--dataset``.

    Usage and input errors exit 2; a stage of the replay that fails ends
    the command with ``failure`` and exit 1.
    """

    def handler(args) -> int:
        if args.dataset and args.construction:
            raise _Exit("error: give either a construction name or --dataset, "
                        "not both", 2)
        source = args.dataset or args.construction
        if not source:
            raise _Exit("error: name a construction or pass --dataset <path>", 2)
        try:
            loaded = load(source)
        except (FileNotFoundError, ValueError) as exc:
            raise _Exit(f"error: {exc}", 2)
        try:
            return run(args, loaded)
        except STAGE_ERRORS as exc:
            raise _Exit(f"{failure}: {stage_message(exc)}", 1)

    command = sub.add_parser(name, help=help_text)
    command.add_argument("construction", nargs="?", metavar=metavar,
                         help=source_help)
    command.add_argument("--dataset", help=dataset_help)
    command.add_argument("--json", action="store_true")
    command.set_defaults(handler=handler)


def _cmd_contract(args, replay: Replay) -> int:
    construction, model = replay.construction, replay.model
    chains = list(zip(construction.chains, replay.shapes, replay.discrepancies))
    nef = replay.nef
    k2 = replay.k_squared
    k2_res = model.canonical_self_intersection()
    expansion: Union[list, None] = None
    if construction.records_fiber_decomposition:
        expansion = sorted(
            (name, value) for name, value in replay.coefficients.items() if value
        )
    result = {
        "construction": construction.name,
        "chains": [
            {
                "label": emb.label,
                "p": emb.p,
                "q": emb.q,
                "curves": list(emb.curves),
                "shape": list(bs),
                "discrepancies": [str(d) for d in ds],
            }
            for emb, bs, ds in chains
        ],
        "k_squared_resolution": str(k2_res),
        "k_squared": str(k2),
        "expansion": (
            {name: str(v) for name, v in expansion}
            if expansion is not None
            else None
        ),
        "nef_values": {name: str(value) for name, value in nef},
    }

    def text():
        yield f"{construction.name}: {len(chains)} chains contract"
        for emb, bs, ds in chains:
            yield f"  {emb.label}: {list(bs)} on {list(emb.curves)}"
            yield "    discrepancies: " + ", ".join(str(d) for d in ds)
        yield f"K^2: {k2_res} -> {k2}"
        if expansion is not None:
            yield "pullback canonical class over curve classes:"
            yield from (f"  {value} {name}" for name, value in expansion)
        if nef:
            yield "nef pairings:"
            yield from (f"  pullback . {name} = {value}" for name, value in nef)

    return _emit(args, "contract", construction.sha256, result, text())


def _cmd_invariants(args, replay: Replay) -> int:
    construction = replay.construction
    summary = replay.summary
    plurigenus = summary.second_plurigenus
    result = {
        "construction": construction.name,
        "k_squared": str(summary.k_squared),
        "euler": summary.euler,
        "signature": summary.signature,
        "b2_plus": summary.b2_plus,
        "b2_minus": summary.b2_minus,
        "chi": summary.chi,
        "noether_ok": summary.noether_ok,
        "parity": summary.parity,
        "parity_reason": summary.parity_reason,
        "pi1_trivial": summary.pi1_trivial,
        "fingerprint": summary.fingerprint,
        "second_plurigenus": str(plurigenus),
        "rational": plurigenus <= 0,
    }

    def text():
        yield f"{construction.name}:"
        yield (f"  K^2 = {summary.k_squared}, e = {summary.euler}, "
               f"signature = {summary.signature}")
        yield (f"  b2+ = {summary.b2_plus}, b2- = {summary.b2_minus}, "
               f"chi = {summary.chi}")
        yield f"  Noether: {'holds' if summary.noether_ok else 'FAILS'}"
        yield f"  parity: {summary.parity} ({summary.parity_reason})"
        if summary.pi1_trivial is not None:
            yield f"  pi1 trivial: {summary.pi1_trivial}"
        if summary.fingerprint:
            yield f"  homeomorphism type: {summary.fingerprint}"
        yield (f"  second plurigenus chi + K^2 = {plurigenus}"
               + (" (not rational)" if plurigenus > 0 else ""))

    return _emit(args, "invariants", construction.sha256, result, text())


def _cmd_pi1(args, loaded) -> int:
    graph, digest = loaded
    result = pi1_closure(graph)
    return _emit(args, "pi1", digest, {
        "trivial": result.trivial,
        "orders": {name: order for name, order in result.orders},
        "steps": list(result.steps),
        "reconstructed": graph.reconstructed,
    }, result.describe())


def _cmd_verify(args, replay: Replay) -> int:
    construction = replay.construction
    report = replay.verify()

    def text():
        yield f"verify {construction.name} (sha256 {construction.sha256[:12]})"
        for check in report.checks:
            tag = {"pass": "PASS", "erratum": "ERRATUM", "fail": "FAIL"}[check.status]
            yield f"[{tag}] {check.name}"
            yield from (f"    {line}" for line in check.details)
        if report.ok and report.errata_found:
            yield "result: OK (recorded errata confirmed)"
        else:
            yield "result: OK" if report.ok else "result: FAIL"

    return _emit(args, "verify", construction.sha256, report.as_dict(), text(),
                 0 if report.ok else 1)


def _cmd_list(args) -> int:
    entries = []
    for name in available_constructions():
        try:
            entries.append((name, load_construction(name).title))
        except (FileNotFoundError, ValueError):
            entries.append((name, "(unreadable)"))
    result = {"constructions": [{"name": n, "title": t} for n, t in entries]}
    lines = [f"{name}: {title}" if title else name for name, title in entries]
    return _emit(args, "list", None, result, lines or ["no constructions found"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowdown",
        description="Exact bookkeeping for rational blow-down constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cpq = sub.add_parser(
        "cpq", help="chain, discrepancies and meridian data for C(p,q)"
    )
    cpq.add_argument("p", type=int)
    cpq.add_argument("q", type=int)
    cpq.add_argument("--json", action="store_true")
    cpq.set_defaults(handler=_cmd_cpq)

    tchain = sub.add_parser("tchain", help="class T chain utilities")
    tchain_sub = tchain.add_subparsers(dest="tchain_command", required=True)
    gen = tchain_sub.add_parser("gen", help="generate all chains up to a length")
    gen.add_argument("--max-len", type=int, required=True)
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(handler=_cmd_tchain_gen)
    check = tchain_sub.add_parser("check", help="classify one chain")
    check.add_argument("entries", type=int, nargs="+")
    check.add_argument("--json", action="store_true")
    check.set_defaults(handler=_cmd_tchain_check)

    _dataset_command(
        sub, "contract", "contract the chains of a construction",
        _cmd_contract, "contraction fails",
    )
    _dataset_command(
        sub, "invariants", "invariants of the blown-down surface",
        _cmd_invariants, "invariants unavailable",
    )
    _dataset_command(
        sub, "pi1", "run the fundamental group closure on a connection graph",
        _cmd_pi1, "pi1 closure fails", load=load_graph, metavar="graph",
        source_help="graph JSON file or construction name",
        dataset_help="path to a graph or construction JSON file",
    )
    _dataset_command(
        sub, "verify", "replay a construction and grade every recorded value",
        _cmd_verify, "verification fails",
    )

    list_cmd = sub.add_parser("list", help="list available constructions")
    list_cmd.add_argument("--json", action="store_true")
    list_cmd.set_defaults(handler=_cmd_list)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it."""
    return build_parser()


def main(argv: Union[Sequence[str], None] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            code = args.handler(args)
        except _Exit as exc:
            message, code = exc.args
            print(message, file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``): send what is still buffered to
        # devnull so the interpreter's last flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
