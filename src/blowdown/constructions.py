"""Built-in constructions and the verification harness that replays them.

Each construction ships as a JSON dataset: a blow-up script with recorded
intersection checkpoints, the chains to contract, a connection graph for
the fundamental group argument, and the numerical values recorded in the
cited source, together with a correction table for the few recorded values
that fail exact recomputation.  A :class:`Replay` runs the blow-up script
once and computes each later stage at most once; ``verify``, ``contract``
and ``invariants`` all read it.  The verifier grades each check ``pass``,
``erratum`` (recorded value wrong, recorded correction confirmed) or
``fail``.  Failure messages always carry the dataset's citation string.

This module is the one reader of datasets and graph files: the ``parse_*``
functions type every field, and malformed input raises ``ValueError``
naming the field's path.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Union

from .contraction import (
    ChainEmbedding,
    ContractionError,
    check_artin,
    expand_in_curves,
    pullback_canonical,
    surviving_curves,
)
from .lattice import (
    BlowupStep,
    Expectation,
    Script,
    grade_checkpoints,
    run_script,
)
from .tchains import chain_discrepancies
from .topology import (
    ConnectionGraph,
    GraphEdge,
    GraphNode,
    blowdown_invariants,
    pi1_closure,
)

__all__ = [
    "DATA_ENV",
    "MAX_CURVES",
    "MAX_INTEGER",
    "STAGE_ERRORS",
    "Construction",
    "CheckResult",
    "VerifyReport",
    "Replay",
    "data_dir",
    "available_constructions",
    "parse_script",
    "parse_graph",
    "parse_construction",
    "read_dataset",
    "load_construction",
    "load_graph",
    "verify",
]

DATA_ENV = "BLOWDOWN_DATA_DIR"

MAX_CURVES = 500
"""Most named curves a script may make, its base curves and steps
together.  The model holds the pairing of each ordered pair of named
curves, so its size grows as the square of this count: ``verify`` on 500
curves peaks at about 50 MiB and takes about 0.25 s, ``invariants`` about
0.1 s (Python 3.11, 2-vCPU Xeon)."""

MAX_INTEGER = 10**6
"""Largest degree, multiplicity, graph ``p``, ``q`` or ``order`` and edge
power a file may give; the datasets use at most 141.  A curve's
coordinates are such values, so every minor that the expansion over up to
:data:`MAX_CURVES` curves computes stays below Python's 4300-digit limit
for printing an integer."""


def data_dir() -> Path:
    """Directory holding construction datasets; overridable by environment."""
    env = os.environ.get(DATA_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


def available_constructions() -> tuple[str, ...]:
    directory = data_dir()
    if not directory.is_dir():
        return ()
    return tuple(sorted(path.stem for path in directory.glob("*.json")))


@dataclass(frozen=True)
class Construction:
    """A dataset: script, chains, graph, expectations and corrections.

    ``expected`` holds the recorded values and ``errata`` their corrections,
    each parsed once: numbers are fractions, and a table maps names to
    them.  ``expected_cites`` holds where each recorded value was printed.
    """

    name: str
    title: str
    citation: str
    script: Script
    chains: tuple[ChainEmbedding, ...]
    graph: Union[ConnectionGraph, None]
    fiber_expansions: tuple[tuple[str, tuple[str, ...]], ...]
    expected: Mapping
    errata: Mapping
    expected_cites: Mapping
    source_path: str = ""
    sha256: str = ""

    @property
    def records_fiber_decomposition(self) -> bool:
        """Whether the dataset records what expanding the pullback over
        curve classes needs: fiber supports, and the
        ``pullback_fiber_weights`` and ``canonical_relation`` tables."""
        return (
            bool(self.fiber_expansions)
            and "pullback_fiber_weights" in self.expected
            and "canonical_relation" in self.expected
        )


_KINDS = {Mapping: "an object", list: "an array", int: "an integer", str: "a string",
          bool: "a boolean"}


def _typed(value, kind: type, path: str):
    """``value``, checked to be of a JSON kind; errors name its field path.
    An integer is an ``int`` proper, so a boolean is not one."""
    if type(value) is not kind and (kind is int or not isinstance(value, kind)):
        raise ValueError(f"{path} must be {_KINDS[kind]}")
    return value


# The keys each object of a dataset or graph file may carry; any other key
# is an input error.  Tables keyed by curve, chain or fiber names stay open,
# since the checks grade their keys.  Three keys are kept but never read:
#   comments          prose for the reader of the file;
#   errata.note       prose on how the corrections were found;
#   graph edge curve  names the curve behind the edge; the closure reads
#                     only its powers.
_TOP_KEYS = {
    "name", "title", "citation", "comments", "base_curves", "steps",
    "expectations", "chains", "graph", "fiber_expansions", "expected", "errata",
}
_STEP_KEYS = {"name", "at"}
# A checkpoint is a self-intersection of one curve or a pairing of two.
_SELF_INT_KEYS = {"after_step", "cite", "curve", "self_int"}
_PAIRING_KEYS = {"after_step", "cite", "curves", "intersection"}
_CHAIN_KEYS = {"p", "q", "curves"}
_GRAPH_KEYS = {"nodes", "edges", "reconstructed"}
_NODE_KEYS = {"name", "order", "p", "q"}
_EDGE_KEYS = {"a", "b", "power_a", "power_b", "curve"}
# The four correction tables the checks read, and the note.
_ERRATA_KEYS = {"canonical_relation", "fiber_relation", "pullback_coefficients",
                "nef_values", "note"}


def _object(value, path: str, keys) -> Mapping:
    """``value``, checked to be a JSON object with no key outside ``keys``;
    errors name its path, or ``path.key`` for an unknown key.  The empty
    path is the dataset itself."""
    for key in _typed(value, Mapping, path or "a construction dataset"):
        if key not in keys:
            field = f"{path}.{key}" if path else key
            raise ValueError(f"{field} is not a known field")
    return value


_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _number(value, path: str) -> Fraction:
    """A recorded number, given as an integer or a fraction string ``"p/q"``
    of ASCII digits, with no sign in the denominator and no spaces."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and _NUMBER.fullmatch(value):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(
        f"{path} must be an integer or a fraction string, got {value!r}"
    )


def _count(value, path: str) -> int:
    """A positive integer field of at most :data:`MAX_INTEGER`; errors name
    its path."""
    if _typed(value, int, path) < 1:
        raise ValueError(f"{path} must be positive, got {value}")
    if value > MAX_INTEGER:
        raise ValueError(f"{path} must be at most {MAX_INTEGER}")
    return value


def _pair(value, path: str, first: type, second: type) -> tuple:
    """A two-entry array of the given JSON kinds."""
    if len(_typed(value, list, path)) != 2:
        raise ValueError(f"{path} must have two entries")
    return (_typed(value[0], first, f"{path}[0]"),
            _typed(value[1], second, f"{path}[1]"))


def _expectation(raw, path: str, step_count: int) -> Expectation:
    """One recorded checkpoint, read from the entry at ``path``: the
    ``self_int`` of one ``curve``, or the ``intersection`` of two
    ``curves``."""
    single = "curve" in _typed(raw, Mapping, path)
    _object(raw, path, _SELF_INT_KEYS if single else _PAIRING_KEYS)
    after_step = _typed(raw.get("after_step"), int, f"{path}.after_step")
    if not 0 <= after_step <= step_count:
        raise ValueError(
            f"{path}.after_step refers to step {after_step}, "
            f"but the script has {step_count} steps"
        )
    cite = _typed(raw.get("cite", ""), str, f"{path}.cite")
    if single:
        curve = _typed(raw["curve"], str, f"{path}.curve")
        curves, key = (curve, curve), "self_int"
    else:
        curves = _pair(raw.get("curves"), f"{path}.curves", str, str)
        key = "intersection"
    return Expectation(after_step=after_step, curves=curves,
                       value=_number(raw.get(key), f"{path}.{key}"), cite=cite)


def parse_script(data: Mapping) -> Script:
    """Build a :class:`Script` from its JSON object form.

    Degrees, multiplicities and ``after_step`` must be JSON integers, and a
    checkpoint value an integer or a fraction string ``"p/q"``.  Degrees
    and multiplicities must be positive, a step's centre must list distinct
    curves made before it, and a step name must be new.  Anything else, or
    more than :data:`MAX_CURVES` base curves and steps, raises
    ``ValueError`` naming the field path.
    """
    for key in ("base_curves", "steps"):
        if key not in data:
            raise ValueError(f"script is missing the {key!r} key")
    raw_base = _typed(data["base_curves"], Mapping, "base_curves")
    if len(raw_base) > MAX_CURVES:
        raise ValueError(f"base_curves names {len(raw_base)} curves, more "
                         f"than {MAX_CURVES}")
    base = tuple((name, _count(degree, f"base_curves.{name}"))
                 for name, degree in raw_base.items())
    raw_steps = _typed(data["steps"], list, "steps")
    total = len(base) + len(raw_steps)
    if total > MAX_CURVES:
        raise ValueError(f"steps bring the named curves to {total}, more than "
                         f"{MAX_CURVES}")
    raw_steps = [
        _object(raw, f"steps[{i}]", _STEP_KEYS) for i, raw in enumerate(raw_steps)
    ]
    used = {name for name, _ in base}
    used.update(
        _typed(raw["name"], str, f"steps[{i}].name")
        for i, raw in enumerate(raw_steps) if "name" in raw
    )
    made = {name for name, _ in base}
    steps = []
    for i, raw in enumerate(raw_steps):
        path = f"steps[{i}].at"
        at = {}
        for j, point in enumerate(_typed(raw.get("at"), list, path)):
            curve, mult = _pair(point, f"{path}[{j}]", str, int)
            if curve not in made:
                raise ValueError(f"{path}[{j}][0] is {curve!r}, which names "
                                 "no curve made before this step")
            if curve in at:
                raise ValueError(f"{path}[{j}][0] lists {curve!r} a second "
                                 "time in one centre")
            at[curve] = _count(mult, f"{path}[{j}][1]")
        if "name" in raw:
            name = raw["name"]
            if name in made:
                raise ValueError(f"steps[{i}].name {name!r} is already the "
                                 "name of a curve")
        else:
            name = f"e{i + 1}"
            while name in used:
                name += "'"
            used.add(name)
        made.add(name)
        steps.append(BlowupStep(name=name, center=tuple(at.items())))
    expectations = tuple(
        _expectation(raw, f"expectations[{i}]", len(steps))
        for i, raw in enumerate(
            _typed(data.get("expectations", []), list, "expectations")
        )
    )
    return Script(
        base_curves=base,
        steps=tuple(steps),
        expectations=expectations,
    )


def _fields(entry: Mapping, path: str, *keys: str) -> tuple[str, ...]:
    """Required string fields of a graph entry; errors name their path."""
    for key in keys:
        if key not in entry:
            raise ValueError(f"{path}.{key} is missing")
    return tuple(_typed(entry[key], str, f"{path}.{key}") for key in keys)


def parse_graph(data: Mapping) -> ConnectionGraph:
    """Build a graph from its JSON object form.

    ``nodes`` and ``edges`` must be arrays, each node needs a string
    ``name`` and each edge its string ends ``a`` and ``b``.  A node gives
    either its ``order`` or its chain's ``p`` and ``q``, never both; an
    order, ``p``, ``q`` or meridian power must be a positive integer, and
    ``reconstructed`` a boolean.  Anything else raises ``ValueError``
    naming the field.
    """
    _object(data, "graph", _GRAPH_KEYS)
    parsed = []
    for i, n in enumerate(_typed(data.get("nodes"), list, "graph.nodes")):
        path = f"graph.nodes[{i}]"
        (name,) = _fields(_object(n, path, _NODE_KEYS), path, "name")
        if "order" in n:
            if "p" in n or "q" in n:
                raise ValueError(f"{path} gives both order and p/q")
            parsed.append(GraphNode(
                name=name, order=_count(n["order"], f"{path}.order")))
        else:
            p = _count(n.get("p"), f"{path}.p")
            parsed.append(GraphNode(
                name=name, order=p * p, p=p, q=_count(n.get("q"), f"{path}.q"),
            ))
    nodes = tuple(parsed)
    names = set()
    for i, node in enumerate(nodes):
        if node.name in names:
            raise ValueError(f"graph.nodes[{i}].name {node.name!r} duplicates "
                             "an earlier node's name")
        names.add(node.name)
    edges = []
    for i, e in enumerate(_typed(data.get("edges"), list, "graph.edges")):
        path = f"graph.edges[{i}]"
        a, b = _fields(_object(e, path, _EDGE_KEYS), path, "a", "b")
        for key, end in (("a", a), ("b", b)):
            if end not in names:
                raise ValueError(f"{path}.{key} is {end!r}, an unknown node")
        edges.append(GraphEdge(
            a=a, b=b,
            power_a=_count(e.get("power_a"), f"{path}.power_a"),
            power_b=_count(e.get("power_b"), f"{path}.power_b"),
        ))
    return ConnectionGraph(
        nodes=nodes,
        edges=tuple(edges),
        reconstructed=_typed(data.get("reconstructed", False), bool,
                             "graph.reconstructed"),
    )


def _array(parse):
    """A parser of a JSON array whose every entry ``parse`` reads."""
    return lambda value, path: tuple(
        parse(entry, f"{path}[{i}]")
        for i, entry in enumerate(_typed(value, list, path))
    )


def _table(parse):
    """A parser of a JSON object whose every entry ``parse`` reads."""
    return lambda value, path: {
        str(key): parse(entry, f"{path}.{key}")
        for key, entry in _typed(value, Mapping, path).items()
    }


def _kind(kind: type):
    return lambda value, path: _typed(value, kind, path)


_strings = _array(_kind(str))


# How each recorded value the checks grade is parsed: the keys ``expected``
# may carry.
_RECORDED = {
    **dict.fromkeys((
        "blowup_count", "rank", "k_squared_resolution", "k_squared", "euler",
        "signature", "b2_plus", "b2_minus", "chi", "rationality_exclusion",
    ), _number),
    **dict.fromkeys((
        "canonical_relation", "pullback_fiber_weights", "pullback_coefficients",
        "nef_values", "nef_negative_pairings",
    ), _table(_number)),
    "fiber_relation": _table(_table(_number)),
    "discrepancies": _table(_array(_number)),
    "parity": _kind(str),
    "fingerprint": _kind(str),
    "pi1_trivial": _kind(bool),
    "zero_on_contracted": _kind(bool),
}


def _parse_recorded(raw: Mapping) -> tuple[dict, dict]:
    """The recorded values of ``expected`` and their citations, each entry
    read once; a malformed one raises ``ValueError`` naming its field.

    An entry is a wrapper ``{"cite": ..., "value": ...}`` (``"values"`` for
    a table) or a bare value, which cites nothing."""
    values: dict = {}
    cites: dict = {}
    for key, entry in raw.items():
        path = f"expected.{key}"
        cite = ""
        if isinstance(entry, Mapping) and ("value" in entry or "values" in entry):
            field = "values" if "values" in entry else "value"
            _object(entry, path, {"cite", field})
            cite = _typed(entry.get("cite", ""), str, f"{path}.cite")
            entry = entry[field]
        values[key] = _RECORDED[key](entry, path)
        cites[key] = cite
    return values, cites


def _parse_chains(raw) -> tuple[ChainEmbedding, ...]:
    chains = []
    for i, entry in enumerate(_typed(raw, list, "chains")):
        path = f"chains[{i}]"
        _object(entry, path, _CHAIN_KEYS)
        emb = ChainEmbedding(
            p=_typed(entry.get("p"), int, f"{path}.p"),
            q=_typed(entry.get("q"), int, f"{path}.q"),
            curves=_strings(entry.get("curves"), f"{path}.curves"),
        )
        # A chain too long to expand is an input error; an undefined
        # fraction is left for the replay, where the shape fails to match.
        # The chain expanded here is the one the replay matches.
        if 0 < emb.p * emb.q - 1 < emb.p * emb.p:
            try:
                emb.chain
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
        chains.append(emb)
    return tuple(chains)


def parse_construction(
    data: Mapping, *, source_path: str = "", sha256: str = ""
) -> Construction:
    """Build a :class:`Construction` from its JSON object form.

    Malformed input raises ``ValueError`` naming the offending field, as
    does a key the format does not define, or an ``expected.pi1_trivial``
    without ``graph``.  Only a missing or ``null`` ``graph`` means the
    dataset has none.
    """
    _object(data, "", _TOP_KEYS)
    _object(data.get("expected", {}), "expected", _RECORDED)
    _object(data.get("errata", {}), "errata", _ERRATA_KEYS)
    _typed(data.get("fiber_expansions", {}), Mapping, "fiber_expansions")
    script = parse_script(data)
    chains = _parse_chains(data.get("chains", []))
    graph = None if data.get("graph") is None else parse_graph(data["graph"])
    fibers = tuple(
        (name, _strings(support, f"fiber_expansions.{name}"))
        for name, support in data.get("fiber_expansions", {}).items()
    )
    expected, expected_cites = _parse_recorded(data.get("expected", {}))
    if graph is None and "pi1_trivial" in expected:
        raise ValueError("graph is missing, but expected.pi1_trivial is "
                         "read off its closure")
    return Construction(
        name=_typed(data.get("name", source_path or "construction"), str, "name"),
        title=_typed(data.get("title", ""), str, "title"),
        citation=_typed(data.get("citation", ""), str, "citation"),
        script=script,
        chains=chains,
        graph=graph,
        fiber_expansions=fibers,
        expected=expected,
        errata={
            key: _RECORDED[key](value, f"errata.{key}")
            for key, value in data.get("errata", {}).items()
            if key != "note"
        },
        expected_cites=expected_cites,
        source_path=source_path,
        sha256=sha256,
    )


def read_dataset(name_or_path: Union[str, Path]) -> tuple[object, str, str]:
    """The decoded JSON, path and sha256 digest of a built-in dataset by
    name, or of any JSON file by path; the file is read once.  A path that
    cannot be read (a directory, say) or decoded as UTF-8 JSON raises
    ``ValueError`` naming it."""
    candidate = Path(name_or_path)
    if candidate.suffix == ".json" and candidate.exists():
        path = candidate
    else:
        path = data_dir() / f"{name_or_path}.json"
        if not path.exists():
            known = ", ".join(available_constructions()) or "none"
            raise FileNotFoundError(
                f"no construction named {name_or_path!r} "
                f"(available: {known})"
            )
    try:
        raw = path.read_bytes()
        data = json.loads(raw.decode("utf-8"))
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return data, str(path), hashlib.sha256(raw).hexdigest()


def load_construction(name_or_path: Union[str, Path]) -> Construction:
    """Load a built-in dataset by name, or any dataset by file path."""
    data, path, digest = read_dataset(name_or_path)
    return parse_construction(data, source_path=path, sha256=digest)


def load_graph(source: Union[str, Path]) -> tuple[ConnectionGraph, str]:
    """The connection graph and input digest of a graph file (a JSON object
    with ``nodes``) or, failing that, of a construction."""
    data, path, digest = read_dataset(source)
    if isinstance(data, dict) and "nodes" in data:
        return parse_graph(data), digest
    construction = parse_construction(data, source_path=path, sha256=digest)
    if construction.graph is None:
        raise ValueError("no connection graph in this dataset")
    return construction.graph, construction.sha256


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    details: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True)
class VerifyReport:
    construction: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def errata_found(self) -> bool:
        return any(check.status == "erratum" for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "construction": self.construction,
            "ok": self.ok,
            "errata_found": self.errata_found,
            "checks": [asdict(check) for check in self.checks],
        }


class _Grade:
    """The status and detail lines of one check, written as it runs.

    The only place that orders the statuses: a failure outranks an
    erratum, which outranks a pass.
    """

    __slots__ = ("status", "details")

    def __init__(self) -> None:
        self.status = "pass"
        self.details: list[str] = []

    def note(self, *lines: str) -> None:
        self.details.extend(lines)

    def erratum(self, *lines: str) -> None:
        if self.status == "pass":
            self.status = "erratum"
        self.details.extend(lines)

    def fail(self, *lines: str) -> None:
        self.status = "fail"
        self.details.extend(lines)

    def unmatched(self, label: str, keys, known, what: str) -> None:
        """Fail each recorded key that is not among the ``known`` ones."""
        for key in keys:
            if key not in known:
                self.fail(f"{label}[{key}] matches no {what}")

    def table(
        self,
        label: str,
        printed: Mapping[str, Fraction],
        computed: Mapping[str, Fraction],
        corrections: Mapping[str, Fraction],
    ) -> None:
        """Grade computed values against recorded ones, correction-aware,
        under a line counting the exact matches; a correction must be of a
        recorded value."""
        matched = sum(computed.get(key) == value for key, value in printed.items())
        self.note(f"{matched} of {len(printed)} recorded values reproduced exactly")
        self.unmatched(f"{label} correction", corrections, printed,
                       "recorded value")
        for key, recorded in printed.items():
            if key not in computed:
                self.fail(
                    f"{label}[{key}]: recorded {recorded}, but no value computed"
                )
                continue
            value = computed[key]
            if value == recorded:
                continue
            if key in corrections and value == corrections[key]:
                self.erratum(
                    f"{label}[{key}]: recorded {recorded}, computed {value}; "
                    "matches the dataset's correction"
                )
            else:
                self.fail(
                    f"{label}[{key}]: recorded {recorded}, computed {value}, "
                    "and no correction covers this"
                )
        for key, value in computed.items():
            if key not in printed and value != 0:
                self.fail(
                    f"{label}[{key}]: computed {value} but nothing was recorded"
                )


STAGE_ERRORS = (ContractionError, ValueError, KeyError, AssertionError)
"""What a stage of a replay may raise; a check depending on it then fails."""


def stage_message(exc: Exception) -> str:
    """The message of a stage error.  ``str`` of a ``KeyError`` is the repr
    of its argument, quotes and all, so its argument is printed instead."""
    if isinstance(exc, KeyError) and len(exc.args) == 1:
        return str(exc.args[0])
    return str(exc)


BASE_SURFACE_STEP = 9
"""The step of the script that reaches the rational elliptic base surface,
on which the canonical and fiber relations are measured: after ``s``
blow-ups of the plane ``K^2 = 9 - s``, and the base has ``K^2 = 0``."""


class Replay:
    """One replay of a construction, shared by everything that reads it.

    The blow-up script runs once.  Each later stage, the recorded
    checkpoints too, is computed on first use from the finished model and
    kept for the life of the object, which is a single command.  A stage
    that raises is not kept: it raises the same exception again at the
    next use, so every check that depends on it fails with the same
    message.
    """

    def __init__(self, construction: Construction) -> None:
        self.construction = construction
        self.model = run_script(construction.script)

    @cached_property
    def checkpoints(self):
        """``(expectation, computed, ok)`` for every recorded checkpoint,
        graded on the finished model in ``after_step`` order."""
        return list(grade_checkpoints(self.construction.script, self.model))

    @cached_property
    def artin(self):
        """The Artin certificate, whose shapes are the one reading of each
        chain off the model."""
        return check_artin(self.model, self.construction.chains)

    @cached_property
    def shapes(self):
        """The shape of each chain, matched against its ``(p, q)``."""
        return tuple(
            emb.match(cert.chain)
            for emb, cert in zip(self.construction.chains, self.artin.chains)
        )

    @cached_property
    def discrepancies(self):
        """The discrepancies of each chain, solved once from its shape."""
        return tuple(chain_discrepancies(bs) for bs in self.shapes)

    @cached_property
    def pullback(self):
        """The pullback of the contracted surface's canonical class."""
        return pullback_canonical(
            self.model, self.construction.chains, self.discrepancies
        )

    @cached_property
    def k_squared(self):
        """``K^2`` of the contracted surface: the pullback's square."""
        return self.pullback.dot(self.pullback)

    @cached_property
    def relation(self):
        """``K`` minus the base surface's ``K``, expanded over the recorded
        canonical relation support."""
        base_k = self.model.canonical_at(BASE_SURFACE_STEP)
        support = list(self.construction.expected["canonical_relation"])
        return expand_in_curves(self.model, self.model.canonical - base_k, support)

    @cached_property
    def fibers(self):
        """The fiber class, minus the base surface's ``K``, expanded over
        each recorded fiber support.  Each fiber is named after a curve,
        and that curve must have the fiber class on the base surface."""
        fiber_class = -self.model.canonical_at(BASE_SURFACE_STEP)
        # A blow-up only appends a coordinate, so a curve's class after the
        # base step is the head of its coordinates.
        head = BASE_SURFACE_STEP + 1
        for name, _ in self.construction.fiber_expansions:
            curve = self.model.curves.get(name)
            if curve is None or curve.coords[:head] != fiber_class.coords[:head]:
                raise ValueError(f"fiber {name}: curve {name} is not -K = "
                                 f"(3, -1, ..., -1) at step {BASE_SURFACE_STEP}")
        return {
            name: expand_in_curves(self.model, fiber_class, list(support))
            for name, support in self.construction.fiber_expansions
        }

    @cached_property
    def coefficients(self):
        """Per-curve coefficients of the contraction pullback of the
        canonical class, assembled from the recorded fiber decomposition,
        the canonical relation support, and the chain discrepancies.

        The support of the full expansion is linearly dependent in the
        lattice, so the coefficients cannot be solved for; they are
        assembled from the three independent contributions instead.
        Requires a dataset that records ``fiber_expansions`` and the
        ``pullback_fiber_weights`` and ``canonical_relation`` tables.
        """
        construction = self.construction
        if not construction.records_fiber_decomposition:
            raise ValueError(
                "dataset does not record the fiber decomposition needed to "
                "expand the pullback over curve classes"
            )
        weights = construction.expected["pullback_fiber_weights"]
        coefficients: dict[str, Fraction] = {}

        def accumulate(name: str, value: Fraction) -> None:
            coefficients[name] = coefficients.get(name, Fraction(0)) + value

        for fiber_name, expansion in self.fibers.items():
            for curve, coeff in expansion.items():
                accumulate(curve, weights[fiber_name] * coeff)
        for curve, coeff in self.relation.items():
            accumulate(curve, coeff)
        for emb, ds in zip(construction.chains, self.discrepancies):
            for curve, d in zip(emb.curves, ds):
                accumulate(curve, d)
        return coefficients

    @cached_property
    def nef(self):
        """The pullback paired with every curve that survives the
        contraction, in the model's order: the test set of ``K`` nef."""
        model, pullback = self.model, self.pullback
        return [(name, pullback.dot(model.curve(name)))
                for name in surviving_curves(model, self.construction.chains)]

    @cached_property
    def summary(self):
        """Invariants of the blown-down surface; whether its fundamental
        group dies is read from :attr:`pi1`."""
        construction = self.construction
        return blowdown_invariants(
            self.model, construction.chains, self.k_squared,
            None if construction.graph is None else self.pi1.trivial,
        )

    @cached_property
    def pi1(self):
        return pi1_closure(self.construction.graph)

    def verify(self) -> VerifyReport:
        """Grade every recorded claim about the construction.

        The checks run in a fixed order, from the raw blow-up bookkeeping
        out to the final homeomorphism fingerprint, so a failure early in
        the list explains the failures after it.
        """
        construction = self.construction
        return VerifyReport(
            construction=construction.name,
            checks=tuple(
                self._graded(name, check, cite_key)
                for name, check, cite_key, applies in _CHECKS
                if applies(construction)
            ),
        )

    def _graded(self, name: str, check, cite_key: str) -> CheckResult:
        construction = self.construction
        grade = _Grade()
        try:
            check(self, grade)
        except STAGE_ERRORS as exc:
            grade = _Grade()
            grade.fail(stage_message(exc))
        cite = construction.expected_cites.get(cite_key, "") if cite_key else ""
        if grade.status != "pass" and cite:
            grade.note(f"recorded at: {cite}")
        if grade.status == "fail" and construction.citation:
            grade.note(f"source: {construction.citation}")
        return CheckResult(name=name, status=grade.status,
                           details=tuple(grade.details))


def verify(construction: Construction) -> VerifyReport:
    """Replay a construction and grade every recorded claim about it."""
    return Replay(construction).verify()


def _script_check(replay: Replay, grade: _Grade):
    results = replay.checkpoints
    failures = [exp.mismatch(actual) for exp, actual, ok in results if not ok]
    grade.note(f"{len(results) - len(failures)} of {len(results)} recorded "
               "intersection numbers reproduced")
    for line in failures:
        grade.fail(line)


def _shapes_check(replay: Replay, grade: _Grade):
    # Once match has passed, gcd(p^2, pq - 1) = 1: the fraction is reduced.
    for emb, bs in zip(replay.construction.chains, replay.shapes):
        p, q = emb.p, emb.q
        grade.note(f"{emb.label}: shape {list(bs)} matches {p * p}/"
                   f"{p * q - 1}, determinant {p * p}")


def _artin_check(replay: Replay, grade: _Grade):
    cert = replay.artin
    lines = [
        f"{chain_cert.label}: leading minors "
        f"{', '.join(str(m) for m in chain_cert.minors)}; "
        "signs alternate, negative definite"
        for chain_cert in cert.chains
    ] + [
        f"{a_label} curve {a} meets {b_label} curve {b}: {value}"
        for a_label, a, b_label, b, value in cert.cross_violations
    ]
    (grade.note if cert.ok else grade.fail)(*lines)


def _discrepancy_check(replay: Replay, grade: _Grade):
    construction = replay.construction
    recorded_tables = construction.expected.get("discrepancies", {})
    for emb, ds in zip(construction.chains, replay.discrepancies):
        line = f"{emb.label}: ({', '.join(str(d) for d in ds)})"
        recorded = recorded_tables.get(emb.label)
        if recorded is None:
            grade.note(line)
        elif recorded != ds:
            grade.fail(f"{line}; recorded values "
                       f"({', '.join(str(d) for d in recorded)}) differ")
        else:
            grade.note(f"{line}; matches the recorded values")
    grade.unmatched("discrepancies", recorded_tables,
                    {emb.label for emb in construction.chains}, "chain")


def _adjunction_check(replay: Replay, grade: _Grade):
    """``K . G = b - 2`` on every chain curve, and a nonnegative arithmetic
    genus ``p_a = 1 + (C^2 + K . C)/2`` on every other named curve."""
    model, chains = replay.model, replay.construction.chains
    k_dot = {name: model.intersect(model.canonical, name) for name in model.curves}
    violations = [
        f"{emb.label}: K . {name} = {k_dot[name]}, expected {b - 2}"
        for emb, bs in zip(chains, replay.shapes)
        for name, b in zip(emb.curves, bs)
        if k_dot[name] != b - 2
    ] + [
        f"{name}: p_a = {p_a} < 0, which no irreducible curve has"
        for name in surviving_curves(model, chains)
        if (p_a := 1 + (model.self_intersection(name) + k_dot[name]) // 2) < 0
    ]
    if violations:
        grade.fail("adjunction violated", *violations)
    else:
        count = sum(len(emb.curves) for emb in chains)
        grade.note(f"K . G = b - 2 on all {count} chain curves")


def _orthogonality_check(replay: Replay, grade: _Grade):
    # pullback_canonical asserts orthogonality to every contracted curve.
    replay.pullback
    grade.note("pullback canonical class is orthogonal to every contracted curve")


def _k_squared_check(replay: Replay, grade: _Grade):
    construction, model = replay.construction, replay.model
    recorded = construction.expected
    k2 = replay.k_squared
    k2_res = model.canonical_self_intersection()
    total_length = sum(len(emb.curves) for emb in construction.chains)
    grade.note(f"K^2 rises from {k2_res} to {k2} across {total_length} "
               "contracted curves")
    if k2 - k2_res != total_length:
        grade.fail(f"gain {k2 - k2_res} differs from total chain length "
                   f"{total_length}")
    if recorded.get("k_squared_resolution", k2_res) != k2_res:
        grade.fail(f"resolution K^2 = {k2_res}, recorded "
                   f"{recorded['k_squared_resolution']}")
    if recorded.get("k_squared", k2) != k2:
        grade.fail(f"contracted K^2 = {k2}, recorded {recorded['k_squared']}")


def _canonical_relation_check(replay: Replay, grade: _Grade):
    construction = replay.construction
    grade.table(
        "canonical_relation", construction.expected["canonical_relation"],
        replay.relation, construction.errata.get("canonical_relation", {}),
    )


def _fiber_relation_check(replay: Replay, grade: _Grade):
    construction = replay.construction
    corrections = construction.errata.get("fiber_relation", {})
    names = dict(construction.fiber_expansions)
    grade.unmatched("fiber_relation", construction.expected["fiber_relation"],
                    names, "fiber expansion")
    grade.unmatched("fiber_relation correction", corrections, names,
                    "fiber expansion")
    for name in names:
        grade.table(
            f"fiber {name}", construction.expected["fiber_relation"][name],
            replay.fibers[name], corrections.get(name, {}),
        )


def _pullback_expansion_check(replay: Replay, grade: _Grade):
    construction, model = replay.construction, replay.model
    coefficients = replay.coefficients
    grade.unmatched("pullback_fiber_weights",
                    construction.expected["pullback_fiber_weights"],
                    replay.fibers, "fiber expansion")
    assembled = model.canonical * 0
    for curve, coeff in coefficients.items():
        assembled = assembled + coeff * model.curve(curve)
    grade.table(
        "pullback", construction.expected["pullback_coefficients"],
        {curve: coeff for curve, coeff in coefficients.items() if coeff},
        construction.errata.get("pullback_coefficients", {}),
    )
    if assembled != replay.pullback:
        grade.fail("assembled expansion does not reproduce the pullback class")
    else:
        grade.note("assembled expansion equals the pullback canonical class")


def _nef_check(replay: Replay, grade: _Grade):
    construction = replay.construction
    recorded = construction.expected
    values = replay.nef
    computed = dict(values)
    negative = [(name, value) for name, value in values if value < 0]
    grade.note(f"pullback pairs nonnegatively with {len(values) - len(negative)} "
               f"of {len(values)} test curves")
    recorded_negative = recorded.get("nef_negative_pairings", {})
    for name, value in negative:
        if recorded_negative.get(name) == value:
            grade.erratum(
                f"pullback . {name} = {value} < 0, matching the negative "
                "pairing recorded against the source's minimality claim"
            )
        else:
            grade.fail(f"pullback . {name} = {value} < 0")
    for name in recorded_negative:
        if computed.get(name, 0) >= 0:
            grade.fail(f"recorded negative pairing for {name} was not reproduced")
    if "nef_values" in recorded:
        printed = recorded["nef_values"]
        grade.table(
            "nef", printed, {k: v for k, v in computed.items() if k in printed},
            construction.errata.get("nef_values", {}),
        )
    if "zero_on_contracted" in recorded:
        # The pullback exists only if it is orthogonal to every contracted
        # curve (pullback_canonical asserts it), so only true can hold.
        line = "pullback vanishes on every contracted curve"
        if recorded["zero_on_contracted"]:
            grade.note(line)
        else:
            cite = construction.expected_cites.get("zero_on_contracted", "")
            grade.fail(f"{line}, but zero_on_contracted is recorded as false"
                       + (f" [{cite}]" if cite else ""))


def _invariants_check(replay: Replay, grade: _Grade):
    model, summary = replay.model, replay.summary
    expected = replay.construction.expected
    for key, actual, label in (
        ("blowup_count", model.blowup_count, "blow-ups"),
        ("rank", model.lattice_rank, "lattice rank"),
        ("k_squared", summary.k_squared, "K^2"),
        ("euler", summary.euler, "Euler characteristic"),
        ("signature", summary.signature, "signature"),
        ("b2_plus", summary.b2_plus, "b2+"),
        ("b2_minus", summary.b2_minus, "b2-"),
        ("chi", summary.chi, "chi"),
        ("parity", summary.parity, "parity"),
        ("fingerprint", summary.fingerprint, "fingerprint"),
    ):
        if key not in expected:
            continue
        # The k_squared check grades K^2; this line only restates it.
        recorded = actual if key == "k_squared" else expected[key]
        # A name such as the fingerprint is compared as text, also when
        # nothing was computed; a number as an exact fraction.
        if (str(actual) if isinstance(recorded, str) else actual) == recorded:
            grade.note(f"{label}: {actual}")
        else:
            grade.fail(f"{label}: computed {actual}, recorded {recorded}")
    # The K^2 check grades K^2 = 9 - n + L; this line only restates it.
    terms = f"{summary.k_squared} + {summary.euler}"
    grade.note(f"Noether relation holds: {terms} = 12 * {summary.chi}"
               if summary.noether_ok else
               f"Noether relation fails: {terms} != 12 * {summary.chi}")
    grade.note(f"parity reason: {summary.parity_reason}")


def _pi1_check(replay: Replay, grade: _Grade):
    construction, result = replay.construction, replay.pi1
    graph = construction.graph
    grade.note(*result.describe())
    if graph.reconstructed:
        grade.note("connection graph was reconstructed from the curve "
                   "geometry rather than recorded explicitly")
    nodes = {node.name: node for node in graph.nodes}
    for emb in construction.chains:
        node = nodes.get(emb.label)
        if node is not None and (node.p, node.q) != (emb.p, emb.q):
            grade.fail(
                f"graph node {node.name} carries (p, q) = ({node.p}, "
                f"{node.q}), but its chain has ({emb.p}, {emb.q})"
            )
    recorded = construction.expected
    if recorded.get("pi1_trivial", result.trivial) != result.trivial:
        grade.fail(f"closure trivial = {result.trivial}, recorded "
                   f"{recorded['pi1_trivial']}")


def _rationality_check(replay: Replay, grade: _Grade):
    value = replay.summary.second_plurigenus
    recorded = replay.construction.expected["rationality_exclusion"]
    grade.note(f"second plurigenus chi + K^2 = {value}"
               + (", positive, so the surface is not rational" if value > 0 else ""))
    if value != recorded:
        grade.fail(f"recorded value {recorded} differs")
    if value <= 0:
        grade.fail("plurigenus is not positive")


def _citation_check(replay: Replay, grade: _Grade):
    construction = replay.construction
    if construction.citation.strip():
        grade.note(construction.citation)
    else:
        grade.fail("dataset carries no citation string")
    missing = sorted(
        key
        for key in construction.expected
        if not construction.expected_cites.get(key, "").strip()
    )
    if missing:
        grade.fail("recorded values lacking a citation: " + ", ".join(missing))
    elif construction.expected:
        grade.note(f"all {len(construction.expected)} recorded values carry "
                   "citations")


def _always(construction: Construction) -> bool:
    return True


# (check name, check, key of the recorded value whose citation it carries,
#  whether the dataset records what the check needs)
_CHECKS = (
    ("script_expectations", _script_check, "", _always),
    ("chain_shapes", _shapes_check, "", _always),
    ("artin_contractibility", _artin_check, "", _always),
    ("discrepancies", _discrepancy_check, "discrepancies", _always),
    ("adjunction", _adjunction_check, "", _always),
    ("orthogonality", _orthogonality_check, "", _always),
    ("k_squared", _k_squared_check, "k_squared", _always),
    ("canonical_relation", _canonical_relation_check, "canonical_relation",
     lambda c: "canonical_relation" in c.expected),
    ("fiber_relation", _fiber_relation_check, "fiber_relation",
     lambda c: bool(c.fiber_expansions) and "fiber_relation" in c.expected),
    ("pullback_expansion", _pullback_expansion_check, "pullback_coefficients",
     lambda c: "pullback_coefficients" in c.expected),
    ("nef_table", _nef_check, "nef_values", _always),
    ("invariants", _invariants_check, "", _always),
    ("pi1_closure", _pi1_check, "pi1_trivial", lambda c: c.graph is not None),
    ("rationality_exclusion", _rationality_check, "rationality_exclusion",
     lambda c: "rationality_exclusion" in c.expected),
    ("citation", _citation_check, "", _always),
)
