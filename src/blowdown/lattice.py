"""Exact intersection theory on iterated blow-ups of the projective plane.

A surface is modelled by its Neron-Severi lattice together with the classes
of finitely many named curves.  The lattice has basis ``(h, e_1, ..., e_n)``
where ``h`` is the class of a line and ``e_i`` is the total transform of the
exceptional curve of the i-th blow-up; the intersection form is
``diag(1, -1, ..., -1)``.  Blowing up is a pure operation: it returns a new
model whose named curves are the strict transforms of the old ones, with the
new exceptional curve registered under a fresh name.

Every coordinate is an ``int``.  A rational class, such as the pullback of
a contracted canonical class, keeps integer coordinates over one common
denominator, and its pairings come out as :class:`fractions.Fraction`.  Each
model also carries the integer Gram matrix of its named curves, updated at
every blow-up.  Arithmetic is ``int`` and ``Fraction``, never ``float``.
This module reads no JSON: :func:`blowdown.constructions.parse_script`
reads a :class:`Script` from a dataset.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterator, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "DivisorClass",
    "BlowupStep",
    "SurfaceModel",
    "Expectation",
    "ExpectationError",
    "Script",
    "new_plane",
    "blow_up",
    "intersect",
    "iter_models",
    "grade_checkpoints",
    "run_script",
    "check_expectations",
]


@dataclass(frozen=True)
class DivisorClass:
    """A lattice element ``(a_0 h + a_1 e_1 + ... + a_n e_n) / denominator``.

    ``coords`` holds the integers ``(a_0, a_1, ..., a_n)``; the denominator
    is positive and shares no factor with all of them, so equal classes
    have equal fields.  The intersection pairing is
    ``a_0 b_0 - a_1 b_1 - ... - a_n b_n`` over the product of denominators:
    an ``int`` for integral classes, a ``Fraction`` otherwise.
    """

    coords: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        if self.denominator != 1:
            den = self.denominator
            if den < 1:
                raise ValueError(f"denominator must be positive, got {den}")
            common = gcd(den, *self.coords)
            if common != 1:
                object.__setattr__(
                    self, "coords", tuple(c // common for c in self.coords)
                )
                object.__setattr__(self, "denominator", den // common)

    @property
    def lattice_rank(self) -> int:
        return len(self.coords)

    def dot(self, other: "DivisorClass") -> Rational:
        a, b = self.coords, other.coords
        if len(a) != len(b):
            raise ValueError(
                f"cannot pair classes of rank {len(a)} and {len(b)}"
            )
        total = 2 * a[0] * b[0] - sum(map(mul, a, b))
        den = self.denominator * other.denominator
        return total if den == 1 else Fraction(total, den)

    def _combine(self, other: "DivisorClass", sign: int, what: str):
        if len(self.coords) != len(other.coords):
            raise ValueError(f"rank mismatch in divisor {what}")
        da, db = self.denominator, other.denominator
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return DivisorClass(
            tuple(fa * a + fb * b for a, b in zip(self.coords, other.coords)),
            den,
        )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, 1, "sum")

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, -1, "difference")

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        if isinstance(scalar, int):
            num, den = scalar, 1
        elif isinstance(scalar, Fraction):
            num, den = scalar.numerator, scalar.denominator
        else:
            return NotImplemented
        return DivisorClass(
            tuple(num * a for a in self.coords), den * self.denominator
        )

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coords), self.denominator)

    def __repr__(self) -> str:
        inside = ", ".join(str(c) for c in self.coords)
        tail = f", denominator={self.denominator}" if self.denominator != 1 else ""
        return f"DivisorClass(({inside}){tail})"


@dataclass(frozen=True)
class BlowupStep:
    """One blow-up: the new exceptional name and the curves through its center.

    ``center`` lists ``(curve_name, multiplicity)`` pairs; the multiplicity is
    the multiplicity of the named curve at the blown-up point, so a smooth
    transverse pass is 1 and a node or cusp is 2.
    """

    name: str
    center: tuple[tuple[str, int], ...]


def _no_curve(name: str) -> KeyError:
    return KeyError(f"no curve named {name!r} on this surface")


@dataclass(frozen=True)
class SurfaceModel:
    """The plane after ``blowup_count`` blow-ups, with named curve classes.

    ``gram`` maps every ordered pair of curve names to their intersection
    number, so pairings of named curves are lookups.
    """

    blowup_count: int
    curves: Mapping[str, DivisorClass]
    canonical: DivisorClass
    gram: Mapping[tuple[str, str], int]

    @property
    def lattice_rank(self) -> int:
        return self.blowup_count + 1

    def curve(self, name: str) -> DivisorClass:
        try:
            return self.curves[name]
        except KeyError:
            raise _no_curve(name) from None

    def resolve(self, item: Union[str, DivisorClass]) -> DivisorClass:
        if isinstance(item, DivisorClass):
            return item
        return self.curve(item)

    def intersect(
        self, a: Union[str, DivisorClass], b: Union[str, DivisorClass]
    ) -> Rational:
        if isinstance(a, str) and isinstance(b, str) and (a, b) in self.gram:
            return self.gram[a, b]
        return self.resolve(a).dot(self.resolve(b))

    def self_intersection(self, name: str) -> int:
        return self.intersect(name, name)

    def canonical_self_intersection(self) -> int:
        return self.canonical.dot(self.canonical)

    def canonical_at(self, step: int) -> DivisorClass:
        """The canonical class after ``step`` blow-ups, pulled back here.

        Every blow-up adds its exceptional class to the canonical class, so
        this is ``-3h + e_1 + ... + e_step`` and needs no replay.
        """
        return DivisorClass(
            (-3,) + (1,) * step + (0,) * (self.blowup_count - step)
        )


def new_plane(base_curves: Mapping[str, int]) -> SurfaceModel:
    """The projective plane carrying named plane curves of given degrees."""
    curves: dict[str, DivisorClass] = {}
    for name, degree in base_curves.items():
        if not isinstance(degree, int) or degree < 1:
            raise ValueError(
                f"curve {name!r} must have a positive integer degree, got {degree!r}"
            )
        curves[name] = DivisorClass((degree,))
    gram = {
        (a, b): ca.coords[0] * cb.coords[0]
        for a, ca in curves.items()
        for b, cb in curves.items()
    }
    return SurfaceModel(
        blowup_count=0, curves=curves, canonical=DivisorClass((-3,)), gram=gram
    )


def blow_up(
    model: SurfaceModel,
    at: Sequence[tuple[str, int]],
    name: str,
) -> SurfaceModel:
    """Blow up one point and return the resulting surface.

    ``at`` names the curves through the point with their multiplicities
    there.  Curves not listed are assumed to miss the point.  The strict
    transform of a listed curve drops ``mult`` copies of the new exceptional
    class; the canonical class gains one copy.  In the Gram matrix, two
    listed curves lose the product of their multiplicities, and the new
    curve meets each curve in its multiplicity.
    """
    if name in model.curves:
        raise ValueError(f"curve name {name!r} already in use")
    seen: set[str] = set()
    for curve_name, mult in at:
        if curve_name not in model.curves:
            raise ValueError(
                f"blow-up center lies on unknown curve {curve_name!r}"
            )
        if curve_name in seen:
            raise ValueError(
                f"curve {curve_name!r} listed twice in one blow-up center"
            )
        seen.add(curve_name)
        if not isinstance(mult, int) or mult < 1:
            raise ValueError(
                f"multiplicity of {curve_name!r} must be a positive integer, "
                f"got {mult!r}"
            )

    mults = dict(at)
    curves = {
        curve_name: DivisorClass(cls.coords + (-mults.get(curve_name, 0),))
        for curve_name, cls in model.curves.items()
    }
    curves[name] = DivisorClass((0,) * model.lattice_rank + (1,))
    gram = dict(model.gram)
    for a, ma in mults.items():
        for b, mb in mults.items():
            gram[a, b] -= ma * mb
    for curve_name in model.curves:
        gram[name, curve_name] = gram[curve_name, name] = mults.get(curve_name, 0)
    gram[name, name] = -1
    return SurfaceModel(
        blowup_count=model.blowup_count + 1,
        curves=curves,
        canonical=DivisorClass(model.canonical.coords + (1,)),
        gram=gram,
    )


def intersect(
    model: SurfaceModel,
    a: Union[str, DivisorClass],
    b: Union[str, DivisorClass],
) -> Rational:
    return model.intersect(a, b)


class ExpectationError(AssertionError):
    """A recorded intersection number disagrees with the computed one."""

    def __init__(self, expectation: "Expectation", actual: Rational) -> None:
        self.expectation = expectation
        self.actual = actual
        super().__init__(expectation.mismatch(actual))


@dataclass(frozen=True)
class Expectation:
    """A recorded intersection number tied to a point in the blow-up script:
    after step ``after_step``, the two ``curves`` pair to ``value``.

    A self-intersection is a curve paired with itself.  ``cite`` records
    where the number was published.
    """

    after_step: int
    curves: tuple[str, str]
    value: Fraction
    cite: str = ""

    def describe(self) -> str:
        a, b = self.curves
        return f"({a})^2" if a == b else f"({a}).({b})"

    def mismatch(self, actual: Rational) -> str:
        """The report of this checkpoint computing ``actual``."""
        return (f"after step {self.after_step}: {self.describe()} recorded "
                f"{self.value}, computed {actual} [{self.cite}]")

    def grade(self, model: SurfaceModel) -> tuple["Expectation", Rational, bool]:
        """This checkpoint, its value after step ``after_step`` and whether
        they agree, on ``model`` taken at that step or at any later one.

        A blow-up only appends a coordinate: the pairing after the step is
        the Gram entry plus the products of the later coordinates, and a
        curve whose earlier coordinates all vanish did not exist yet."""
        k = self.after_step + 1
        tails = []
        for name in self.curves:
            coords = model.curve(name).coords
            if not any(coords[:k]):
                raise _no_curve(name)
            tails.append(coords[k:])
        actual = model.intersect(*self.curves) + sum(map(mul, *tails))
        return self, actual, actual == self.value


@dataclass(frozen=True)
class Script:
    """A reproducible blow-up recipe with its recorded checkpoints."""

    base_curves: tuple[tuple[str, int], ...]
    steps: tuple[BlowupStep, ...]
    expectations: tuple[Expectation, ...] = ()

    @property
    def step_count(self) -> int:
        return len(self.steps)


def iter_models(script: Script) -> Iterator[tuple[int, SurfaceModel]]:
    """Yield ``(step_index, model)`` starting from ``(0, plane)``."""
    model = new_plane(dict(script.base_curves))
    yield 0, model
    for i, step in enumerate(script.steps, start=1):
        model = blow_up(model, step.center, step.name)
        yield i, model


def grade_checkpoints(
    script: Script, model: SurfaceModel
) -> Iterator[tuple[Expectation, Rational, bool]]:
    """Grade each checkpoint of ``script`` on ``model``, its finished
    surface, lazily and in ``after_step`` order (stable)."""
    for exp in sorted(script.expectations, key=attrgetter("after_step")):
        yield exp.grade(model)


def run_script(script: Script, *, check: bool = True) -> SurfaceModel:
    """Execute every blow-up; optionally verify each recorded checkpoint.

    With ``check`` set, the checkpoints are graded on the finished surface
    and the first failing one in ``after_step`` order raises
    :class:`ExpectationError` naming the step, the curves, both values, and
    the recorded citation.
    """
    for _, model in iter_models(script):
        pass
    if check:
        for exp, actual, ok in grade_checkpoints(script, model):
            if not ok:
                raise ExpectationError(exp, actual)
    return model


def check_expectations(
    script: Script,
) -> list[tuple[Expectation, Rational, bool]]:
    """Evaluate every checkpoint, collecting results instead of raising."""
    return list(grade_checkpoints(script, run_script(script, check=False)))
