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
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Mapping, Union

from .contraction import (
    ChainEmbedding,
    ContractionError,
    chain_discrepancies,
    check_artin,
    expand_in_curves,
    k_squared_gain,
    nef_values,
    pullback_canonical,
)
from .lattice import (
    Script,
    SurfaceModel,
    check_expectations,
    iter_models,
    parse_script,
    run_script,
)
from .tchains import wahl_params
from .topology import (
    ConnectionGraph,
    blowdown_invariants,
    parse_graph,
    pi1_closure,
    rationality_exclusion,
)

__all__ = [
    "DATA_ENV",
    "STAGE_ERRORS",
    "Construction",
    "CheckResult",
    "VerifyReport",
    "Replay",
    "data_dir",
    "available_constructions",
    "parse_construction",
    "read_dataset",
    "load_construction",
    "build_model",
    "pullback_expansion",
    "verify",
]

DATA_ENV = "BLOWDOWN_DATA_DIR"


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

    ``expected`` and ``errata`` hold the recorded values as printed;
    ``recorded`` and ``corrections`` hold them parsed once, for the checks.
    """

    name: str
    title: str
    citation: str
    script: Script
    chains: tuple[ChainEmbedding, ...]
    graph: Union[ConnectionGraph, None]
    base_surface_step: Union[int, None]
    fiber_expansions: tuple[tuple[str, tuple[str, ...]], ...]
    nef_test_curves: tuple[str, ...]
    parity_override: Union[str, None]
    expected: Mapping
    errata: Mapping
    expected_cites: Mapping
    recorded: Mapping
    corrections: Mapping
    source_path: str = ""
    sha256: str = ""


def _split_expected(raw: Mapping) -> tuple[dict, dict]:
    """Unwrap ``{"cite": ..., "value"/"values": ...}`` entries.

    Every recorded value is supposed to say where it was printed; the
    citation strings are collected separately so the value-consuming code
    stays simple and the citation audit stays explicit.
    """
    expected: dict = {}
    cites: dict = {}
    for key, entry in raw.items():
        if isinstance(entry, Mapping) and ("value" in entry or "values" in entry):
            expected[key] = entry["values"] if "values" in entry else entry["value"]
            cites[key] = str(entry.get("cite", ""))
        else:
            expected[key] = entry
            cites[key] = ""
    return expected, cites


_KINDS = {Mapping: "an object", list: "an array", int: "an integer", str: "a string",
          bool: "a boolean"}


def _typed(value, kind: type, path: str):
    """``value``, checked to be of a JSON kind; errors name its field path."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"{path} must be {_KINDS[kind]}")
    return value


def _number(value, path: str) -> Fraction:
    """A recorded number, given as an integer or a fraction string ``"p/q"``."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        try:
            return Fraction(int(num), int(den) if slash else 1)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(
        f"{path} must be an integer or a fraction string, got {value!r}"
    )


def _row(value, path: str) -> tuple[Fraction, ...]:
    return tuple(
        _number(v, f"{path}[{i}]") for i, v in enumerate(_typed(value, list, path))
    )


def _table(parse):
    """A parser of a JSON object whose every entry ``parse`` reads."""
    return lambda value, path: {
        str(key): parse(entry, f"{path}.{key}")
        for key, entry in _typed(value, Mapping, path).items()
    }


def _kind(kind: type):
    return lambda value, path: _typed(value, kind, path)


# How each recorded value the checks grade is parsed; the keys of
# ``expected`` and ``errata`` that are not listed are kept as printed only.
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
    "discrepancies": _table(_row),
    "parity": _kind(str),
    "fingerprint": _kind(str),
    "pi1_trivial": _kind(bool),
    "zero_on_contracted": _kind(bool),
}


def _parse_recorded(section: str, raw: Mapping) -> dict:
    """The recorded values of a section, parsed once; a malformed one
    raises ``ValueError`` naming its field."""
    return {
        key: _RECORDED[key](value, f"{section}.{key}")
        for key, value in raw.items()
        if key in _RECORDED
    }


def _parse_chains(raw) -> tuple[ChainEmbedding, ...]:
    chains = []
    for i, entry in enumerate(_typed(raw, list, "chains")):
        path = f"chains[{i}]"
        curves = _typed(_typed(entry, Mapping, path).get("curves"), list,
                        f"{path}.curves")
        chains.append(ChainEmbedding(
            p=_typed(entry.get("p"), int, f"{path}.p"),
            q=_typed(entry.get("q"), int, f"{path}.q"),
            curves=tuple(_typed(name, str, f"{path}.curves[{j}]")
                         for j, name in enumerate(curves)),
        ))
    return tuple(chains)


def _parse_section(path: str, parse, raw):
    """Run a section parser, naming the section on a malformed entry."""
    try:
        return parse(raw)
    except (KeyError, TypeError, AttributeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValueError(f"{path}: malformed entry ({detail})") from None


def parse_construction(
    data: Mapping, *, source_path: str = "", sha256: str = ""
) -> Construction:
    """Build a :class:`Construction` from its JSON object form.

    Malformed input raises ``ValueError`` naming the offending field.
    """
    _typed(data, Mapping, "a construction dataset")
    for key in ("expected", "errata", "fiber_expansions"):
        _typed(data.get(key, {}), Mapping, key)
    script = _parse_section("script", parse_script, data)
    chains = _parse_chains(data.get("chains", []))
    graph = (
        _parse_section("graph", parse_graph, data["graph"])
        if data.get("graph")
        else None
    )
    base_step = data.get("base_surface_step")
    if base_step is not None and not (
        0 <= _typed(base_step, int, "base_surface_step") <= script.step_count
    ):
        raise ValueError(
            f"base_surface_step must lie between 0 and the script's "
            f"{script.step_count} steps, got {base_step}"
        )
    fibers = _parse_section("fiber_expansions", lambda raw: tuple(
        (str(name), tuple(str(c) for c in support))
        for name, support in raw.items()
    ), data.get("fiber_expansions", {}))
    expected, expected_cites = _split_expected(data.get("expected", {}))
    errata = data.get("errata", {})
    return Construction(
        name=str(data.get("name", source_path or "construction")),
        title=str(data.get("title", "")),
        citation=str(data.get("citation", "")),
        script=script,
        chains=chains,
        graph=graph,
        base_surface_step=base_step,
        fiber_expansions=fibers,
        nef_test_curves=tuple(
            str(n) for n in data.get("nef_test_curves", ())
        ),
        parity_override=data.get("parity_override"),
        expected=expected,
        errata=errata,
        expected_cites=expected_cites,
        recorded=_parse_recorded("expected", expected),
        corrections=_parse_recorded("errata", errata),
        source_path=source_path,
        sha256=sha256,
    )


def read_dataset(name_or_path: Union[str, Path]) -> tuple[object, str, str]:
    """The decoded JSON, path and sha256 digest of a built-in dataset by
    name, or of any JSON file by path; the file is read once.  A path that
    cannot be read (a directory, say) raises ``ValueError`` naming it."""
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
    except OSError as exc:  # a directory, or a file that cannot be read
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    data = json.loads(raw.decode("utf-8"))
    return data, str(path), hashlib.sha256(raw).hexdigest()


def load_construction(name_or_path: Union[str, Path]) -> Construction:
    """Load a built-in dataset by name, or any dataset by file path."""
    data, path, digest = read_dataset(name_or_path)
    return parse_construction(data, source_path=path, sha256=digest)


def build_model(construction: Construction) -> SurfaceModel:
    """Replay the blow-up script without stopping at checkpoints."""
    return run_script(construction.script, check=False)


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


def _compare_tables(
    label: str,
    printed: Mapping[str, Fraction],
    computed: Mapping[str, Fraction],
    corrections: Mapping[str, Fraction],
) -> tuple[str, list[str]]:
    """Grade computed values against recorded ones, correction-aware."""
    status = "pass"
    details: list[str] = []
    matched = 0
    for key, recorded in printed.items():
        if key not in computed:
            status = "fail"
            details.append(
                f"{label}[{key}]: recorded {recorded}, but no value computed"
            )
            continue
        value = computed[key]
        if value == recorded:
            matched += 1
        elif key in corrections and value == corrections[key]:
            if status == "pass":
                status = "erratum"
            details.append(
                f"{label}[{key}]: recorded {recorded}, computed {value}; "
                "matches the dataset's correction"
            )
        else:
            status = "fail"
            details.append(
                f"{label}[{key}]: recorded {recorded}, computed {value}, "
                "and no correction covers this"
            )
    for key, value in computed.items():
        if key not in printed and value != 0:
            status = "fail"
            details.append(
                f"{label}[{key}]: computed {value} but nothing was recorded"
            )
    details.insert(
        0, f"{matched} of {len(printed)} recorded values reproduced exactly"
    )
    return status, details


STAGE_ERRORS = (ContractionError, ValueError, KeyError, AssertionError)
"""What a stage of a replay may raise; a check depending on it then fails."""


class Replay:
    """One replay of a construction, shared by everything that reads it.

    The blow-up script runs once, grading the recorded checkpoints on the
    way, unless a finished ``model`` is passed in.  Each later stage is
    computed on first use and kept for the life of the object, which is a
    single command.  A stage that raises is not kept: it raises the same
    exception again at the next use, so every check that depends on it
    fails with the same message.
    """

    def __init__(
        self, construction: Construction, model: Union[SurfaceModel, None] = None
    ) -> None:
        self.construction = construction
        self._checkpoints = None
        if model is None:
            model = self._replay_script()
        self.model = model

    def _replay_script(self) -> SurfaceModel:
        script = self.construction.script
        by_step = script.checkpoints()
        graded: Union[list, Exception] = []
        for step, model in iter_models(script):
            if isinstance(graded, list):
                try:
                    graded.extend(exp.grade(model) for exp in by_step.get(step, ()))
                except STAGE_ERRORS as exc:
                    graded = exc
        self._checkpoints = graded
        return model

    @property
    def checkpoints(self):
        """``(expectation, computed, ok)`` for every recorded checkpoint,
        graded on the replay's single pass; raises what grading raised."""
        if self._checkpoints is None:  # a finished model was passed in
            self._checkpoints = check_expectations(self.construction.script)
        if isinstance(self._checkpoints, Exception):
            raise self._checkpoints
        return self._checkpoints

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
        return tuple(chain_discrepancies(bs) for bs in self.shapes)

    @cached_property
    def pullback(self):
        """The pullback of the contracted surface's canonical class."""
        return pullback_canonical(
            self.model, self.construction.chains, self.shapes
        )

    @cached_property
    def k_squared(self):
        """``K^2`` of the contracted surface: the pullback's square."""
        return self.pullback.dot(self.pullback)

    @cached_property
    def relation(self):
        """``K`` minus the base surface's ``K``, expanded over the recorded
        canonical relation support."""
        base_k = self.model.canonical_at(self.construction.base_surface_step)
        support = list(self.construction.recorded["canonical_relation"])
        return expand_in_curves(self.model, self.model.canonical - base_k, support)

    @cached_property
    def fibers(self):
        """The fiber class, minus the base surface's ``K``, expanded over
        each recorded fiber support."""
        fiber_class = -self.model.canonical_at(self.construction.base_surface_step)
        return {
            name: expand_in_curves(self.model, fiber_class, list(support))
            for name, support in self.construction.fiber_expansions
        }

    @cached_property
    def coefficients(self):
        """See :func:`pullback_expansion`."""
        construction = self.construction
        recorded = construction.recorded
        if (
            construction.base_surface_step is None
            or not construction.fiber_expansions
            or "pullback_fiber_weights" not in recorded
            or "canonical_relation" not in recorded
        ):
            raise ValueError(
                "dataset does not record the fiber decomposition needed to "
                "expand the pullback over curve classes"
            )
        weights = recorded["pullback_fiber_weights"]
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
    def summary(self):
        """Invariants of the blown-down surface; whether its fundamental
        group dies is read from :attr:`pi1`."""
        construction = self.construction
        summary = blowdown_invariants(
            self.model,
            construction.chains,
            parity_override=construction.parity_override,
            k_squared=self.k_squared,
        )
        if construction.graph is None:
            return summary
        return replace(summary, pi1_trivial=self.pi1.trivial)

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
        try:
            status, details = check(self)
        except STAGE_ERRORS as exc:
            status, details = "fail", [str(exc)]
        lines = list(details)
        cite = str(construction.expected_cites.get(cite_key, "")) if cite_key else ""
        if status != "pass" and cite:
            lines.append(f"recorded at: {cite}")
        if status == "fail" and construction.citation:
            lines.append(f"source: {construction.citation}")
        return CheckResult(name=name, status=status, details=tuple(lines))


def pullback_expansion(
    construction: Construction, model: SurfaceModel
) -> dict[str, Fraction]:
    """Per-curve coefficients of the contraction pullback of the canonical
    class, assembled from the recorded fiber decomposition, the canonical
    relation support, and the chain discrepancies.

    The support of the full expansion is linearly dependent in the lattice,
    so the coefficients cannot be solved for; they are assembled from the
    three independent contributions instead.  Requires a dataset that
    records ``base_surface_step``, ``fiber_expansions``, and the
    ``pullback_fiber_weights`` and ``canonical_relation`` tables.
    """
    return Replay(construction, model).coefficients


def verify(construction: Construction) -> VerifyReport:
    """Replay a construction and grade every recorded claim about it."""
    return Replay(construction).verify()


def _merge(status: str, sub_status: str) -> str:
    if sub_status == "fail":
        return "fail"
    if sub_status == "erratum" and status == "pass":
        return "erratum"
    return status


def _script_check(replay: Replay):
    results = replay.checkpoints
    failures = [
        f"after step {exp.after_step}: {exp.describe()} recorded "
        f"{exp.expected_value()}, computed {actual} [{exp.cite}]"
        for exp, actual, ok in results
        if not ok
    ]
    details = [
        f"{len(results) - len(failures)} of {len(results)} recorded "
        "intersection numbers reproduced"
    ] + failures
    return ("pass" if not failures else "fail"), details


def _shapes_check(replay: Replay):
    details = []
    for emb, bs in zip(replay.construction.chains, replay.shapes):
        # The shape is the expansion of p^2/(pq - 1); recovering (p, q)
        # from it fails unless 0 < q < p are coprime.
        wahl_params(bs)
        fraction = Fraction(emb.p * emb.p, emb.p * emb.q - 1)
        details.append(
            f"{emb.label}: shape {list(bs)} matches {fraction.numerator}/"
            f"{fraction.denominator}, determinant {emb.p * emb.p}"
        )
    return "pass", details


def _artin_check(replay: Replay):
    cert = replay.artin
    details = []
    for chain_cert in cert.chains:
        minors = ", ".join(str(m) for m in chain_cert.minors)
        details.append(
            f"{chain_cert.label}: leading minors {minors}; "
            + (
                "signs alternate, negative definite"
                if chain_cert.negative_definite
                else "signs do not alternate"
            )
        )
    for a_label, a, b_label, b, value in cert.cross_violations:
        details.append(
            f"{a_label} curve {a} meets {b_label} curve {b}: {value}"
        )
    return ("pass" if cert.ok else "fail"), details


def _discrepancy_check(replay: Replay):
    construction = replay.construction
    status = "pass"
    details = []
    recorded_tables = construction.recorded.get("discrepancies", {})
    for emb, bs, ds in zip(construction.chains, replay.shapes, replay.discrepancies):
        if not all(0 < d < 1 for d in ds):
            status = "fail"
            details.append(
                f"{emb.label}: discrepancies {list(map(str, ds))} "
                "leave the open interval (0, 1)"
            )
            continue
        gain = k_squared_gain(bs)
        if gain != len(bs):
            status = "fail"
            details.append(
                f"{emb.label}: sum of d_i (b_i - 2) is {gain}, "
                f"expected the chain length {len(bs)}"
            )
            continue
        line = f"{emb.label}: ({', '.join(str(d) for d in ds)})"
        if emb.label in recorded_tables:
            recorded = recorded_tables[emb.label]
            if recorded != ds:
                status = "fail"
                line += (
                    "; recorded values "
                    f"({', '.join(str(d) for d in recorded)}) differ"
                )
            else:
                line += "; matches the recorded values"
        details.append(line)
    return status, details


def _adjunction_check(replay: Replay):
    model, chains = replay.model, replay.construction.chains
    details = []
    status = "pass"
    for emb, bs in zip(chains, replay.shapes):
        for name, b in zip(emb.curves, bs):
            pairing = model.intersect(model.canonical, name)
            if pairing != b - 2:
                status = "fail"
                details.append(
                    f"{emb.label}: K . {name} = {pairing}, expected {b - 2}"
                )
    count = sum(len(emb.curves) for emb in chains)
    details.insert(0, f"K . G = b - 2 on all {count} chain curves"
                   if status == "pass" else "adjunction violated")
    return status, details


def _orthogonality_check(replay: Replay):
    # pullback_canonical asserts orthogonality to every contracted curve.
    replay.pullback
    return "pass", [
        "pullback canonical class is orthogonal to every contracted curve"
    ]


def _k_squared_check(replay: Replay):
    construction, model = replay.construction, replay.model
    recorded = construction.recorded
    status = "pass"
    details = []
    k2 = replay.k_squared
    k2_res = model.canonical_self_intersection()
    total_length = sum(len(emb.curves) for emb in construction.chains)
    details.append(
        f"K^2 rises from {k2_res} to {k2} across {total_length} "
        "contracted curves"
    )
    if k2 - k2_res != total_length:
        status = "fail"
        details.append(
            f"gain {k2 - k2_res} differs from total chain length "
            f"{total_length}"
        )
    if "k_squared_resolution" in recorded and (
        k2_res != recorded["k_squared_resolution"]
    ):
        status = "fail"
        details.append(
            f"resolution K^2 = {k2_res}, recorded "
            f"{recorded['k_squared_resolution']}"
        )
    if "k_squared" in recorded and k2 != recorded["k_squared"]:
        status = "fail"
        details.append(
            f"contracted K^2 = {k2}, recorded {recorded['k_squared']}"
        )
    return status, details


def _canonical_relation_check(replay: Replay):
    construction = replay.construction
    computed = replay.relation
    printed = construction.recorded["canonical_relation"]
    corrections = construction.corrections.get("canonical_relation", {})
    return _compare_tables("canonical_relation", printed, computed, corrections)


def _fiber_relation_check(replay: Replay):
    construction = replay.construction
    fibers = replay.fibers
    status = "pass"
    details: list[str] = []
    for fiber_name, _ in construction.fiber_expansions:
        printed = construction.recorded["fiber_relation"][fiber_name]
        corrections = construction.corrections.get("fiber_relation", {})
        sub_status, sub_details = _compare_tables(
            f"fiber {fiber_name}", printed, fibers[fiber_name],
            corrections.get(fiber_name, {}),
        )
        status = _merge(status, sub_status)
        details.extend(sub_details)
    return status, details


def _pullback_expansion_check(replay: Replay):
    construction, model = replay.construction, replay.model
    coefficients = replay.coefficients
    assembled = model.canonical * 0
    for curve, coeff in coefficients.items():
        assembled = assembled + coeff * model.curve(curve)
    pullback = replay.pullback
    computed = {
        curve: coeff for curve, coeff in coefficients.items() if coeff
    }
    printed = construction.recorded["pullback_coefficients"]
    corrections = construction.corrections.get("pullback_coefficients", {})
    status, details = _compare_tables("pullback", printed, computed, corrections)
    if assembled != pullback:
        status = "fail"
        details.append(
            "assembled expansion does not reproduce the pullback class"
        )
    else:
        details.append(
            "assembled expansion equals the pullback canonical class"
        )
    return status, details


def _nef_check(replay: Replay):
    construction, model = replay.construction, replay.model
    recorded = construction.recorded
    pullback = replay.pullback
    values = nef_values(
        model, construction.chains, construction.nef_test_curves, pullback
    )
    computed = dict(values)
    status = "pass"
    details = []
    recorded_negative = recorded.get("nef_negative_pairings", {})
    negative = 0
    for name, value in values:
        if value >= 0:
            continue
        negative += 1
        if recorded_negative.get(name) == value:
            if status == "pass":
                status = "erratum"
            details.append(
                f"pullback . {name} = {value} < 0, matching the negative "
                "pairing recorded against the source's minimality claim"
            )
        else:
            status = "fail"
            details.append(f"pullback . {name} = {value} < 0")
    for name in recorded_negative:
        if name not in computed or computed[name] >= 0:
            status = "fail"
            details.append(
                f"recorded negative pairing for {name} was not reproduced"
            )
    details.insert(
        0,
        f"pullback pairs nonnegatively with {len(values) - negative} "
        f"of {len(values)} test curves",
    )
    if "nef_values" in recorded:
        printed = recorded["nef_values"]
        corrections = construction.corrections.get("nef_values", {})
        sub_status, sub_details = _compare_tables(
            "nef", printed, {k: v for k, v in computed.items() if k in printed},
            corrections,
        )
        status = _merge(status, sub_status)
        details.extend(sub_details)
    if "zero_on_contracted" in recorded:
        # The pullback exists only if it is orthogonal to every contracted
        # curve (pullback_canonical asserts it), so only true can hold.
        line = "pullback vanishes on every contracted curve"
        if not recorded["zero_on_contracted"]:
            status = "fail"
            cite = construction.expected_cites.get("zero_on_contracted", "")
            line += (
                ", but zero_on_contracted is recorded as false"
                + (f" [{cite}]" if cite else "")
            )
        details.append(line)
    return status, details


def _invariants_check(replay: Replay):
    construction, model = replay.construction, replay.model
    expected = construction.recorded
    summary = replay.summary
    status = "pass"
    details = []

    def expect(key: str, actual, label: str) -> None:
        nonlocal status
        if key not in expected:
            return
        recorded = expected[key]
        # A name such as the fingerprint is compared as text, also when
        # nothing was computed; a number as an exact fraction.
        if (str(actual) if isinstance(recorded, str) else actual) == recorded:
            details.append(f"{label}: {actual}")
        else:
            status = "fail"
            details.append(f"{label}: computed {actual}, recorded {recorded}")

    expect("blowup_count", model.blowup_count, "blow-ups")
    expect("rank", model.lattice_rank, "lattice rank")
    expect("k_squared", summary.k_squared, "K^2")
    expect("euler", summary.euler, "Euler characteristic")
    expect("signature", summary.signature, "signature")
    expect("b2_plus", summary.b2_plus, "b2+")
    expect("b2_minus", summary.b2_minus, "b2-")
    expect("chi", summary.chi, "chi")
    expect("parity", summary.parity, "parity")
    expect("fingerprint", summary.fingerprint, "fingerprint")
    if not summary.noether_ok:
        status = "fail"
        details.append(
            f"Noether relation fails: {summary.k_squared} + "
            f"{summary.euler} != 12 * {summary.chi}"
        )
    else:
        details.append(
            f"Noether relation holds: {summary.k_squared} + "
            f"{summary.euler} = 12 * {summary.chi}"
        )
    details.append(f"parity reason: {summary.parity_reason}")
    return status, details


def _pi1_check(replay: Replay):
    construction = replay.construction
    graph = construction.graph
    result = replay.pi1
    details = list(result.describe())
    if graph.reconstructed:
        details.append(
            "connection graph was reconstructed from the curve "
            "geometry rather than recorded explicitly"
        )
    status = "pass"
    nodes = {node.name: node for node in graph.nodes}
    for emb in construction.chains:
        node = nodes.get(emb.label)
        if node is not None and (node.p, node.q) != (emb.p, emb.q):
            status = "fail"
            details.append(
                f"graph node {node.name} carries (p, q) = ({node.p}, "
                f"{node.q}), but its chain has ({emb.p}, {emb.q})"
            )
    recorded = construction.recorded
    if "pi1_trivial" in recorded and result.trivial != recorded["pi1_trivial"]:
        status = "fail"
        details.append(
            f"closure trivial = {result.trivial}, recorded "
            f"{recorded['pi1_trivial']}"
        )
    return status, details


def _rationality_check(replay: Replay):
    summary = replay.summary
    verdict, value = rationality_exclusion(summary.k_squared, summary.chi)
    recorded = replay.construction.recorded["rationality_exclusion"]
    details = [
        f"second plurigenus chi + K^2 = {value}"
        + (", positive, so the surface is not rational" if verdict else "")
    ]
    status = "pass"
    if value != recorded:
        status = "fail"
        details.append(f"recorded value {recorded} differs")
    if not verdict:
        status = "fail"
        details.append("plurigenus is not positive")
    return status, details


def _citation_check(replay: Replay):
    construction = replay.construction
    status = "pass"
    details = []
    if construction.citation.strip():
        details.append(construction.citation)
    else:
        status = "fail"
        details.append("dataset carries no citation string")
    missing = sorted(
        key
        for key in construction.expected
        if not str(construction.expected_cites.get(key, "")).strip()
    )
    if missing:
        status = "fail"
        details.append(
            "recorded values lacking a citation: " + ", ".join(missing)
        )
    elif construction.expected:
        details.append(
            f"all {len(construction.expected)} recorded values carry "
            "citations"
        )
    return status, details


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
     lambda c: c.base_surface_step is not None
     and "canonical_relation" in c.expected),
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
