"""Exact intersection arithmetic on iterated blow-ups of the plane."""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from blowdown import Script, grade_checkpoints, parse_script, run_script


def build(base_curves, *centres):
    """The surface of a script that ``parse_script`` reads from a dict: the
    plane curves ``base_curves`` blown up at each of ``centres`` in turn,
    the i-th new curve named ``e<i>``."""
    return run_script(parse_script({"base_curves": base_curves,
                                    "steps": [{"at": at} for at in centres]}))


def test_new_plane_pairings():
    m = build({"L": 1, "Q": 2, "C": 3})
    assert m.intersect("L", "L") == 1
    assert m.intersect("Q", "Q") == 4
    assert m.intersect("L", "Q") == 2
    assert m.intersect("Q", "C") == 6
    assert m.intersect(m.canonical, m.canonical) == 9
    assert m.intersect(m.canonical, "L") == -3
    assert m.blowup_count == 0


def test_blow_up_updates_pairings():
    m1 = build({"L": 1, "Q": 2}, [["L", 1], ["Q", 1]])
    assert m1.blowup_count == 1
    assert m1.intersect("L", "L") == 0
    assert m1.intersect("Q", "Q") == 3
    assert m1.intersect("L", "Q") == 1
    assert m1.intersect("e1", "e1") == -1
    assert m1.intersect("L", "e1") == 1
    assert m1.intersect(m1.canonical, m1.canonical) == 8
    assert m1.intersect(m1.canonical, "e1") == -1


def test_blow_up_multiplicity_two():
    m1 = build({"N": 3}, [["N", 2]])
    assert m1.intersect("N", "N") == 9 - 4
    assert m1.intersect("N", "e1") == 2
    assert m1.intersect(m1.canonical, "N") == -9 + 2


def test_blow_up_of_exceptional_curve():
    m2 = build({"L": 1}, [["L", 1]], [["e1", 1]])
    assert m2.intersect("e1", "e1") == -2
    assert m2.intersect("e2", "e2") == -1
    assert m2.intersect("e1", "e2") == 1
    assert m2.intersect("L", "e2") == 0


def test_blow_up_free_point():
    m1 = build({"L": 1}, [])
    assert m1.intersect("L", "e1") == 0
    assert m1.intersect("e1", "e1") == -1


@pytest.mark.parametrize("step", [-1, 2])
def test_canonical_at_rejects_a_step_outside_the_script(step):
    m = build({"L": 1}, [["L", 1]])
    assert m.canonical_at(1) == m.canonical
    with pytest.raises(ValueError, match=rf"step {step} lies outside "
                                         r"0\.\.blowup_count = 0\.\.1"):
        m.canonical_at(step)


def test_models_are_immutable():
    m = build({"L": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.blowup_count = 5


def test_intersect_accepts_names_and_classes():
    m1 = build({"L": 1}, [["L", 1]])
    cls = m1.curves["L"]
    assert m1.intersect(cls, "e1") == m1.intersect("e1", cls)
    assert m1.intersect(cls, cls) == 0


def test_divisor_class_arithmetic():
    m = build({"L": 1, "Q": 2})
    l, q = m.curves["L"], m.curves["Q"]
    assert m.intersect(q - 2 * l, "L") == 0
    assert m.intersect(l + l, q) == 4
    assert m.intersect(-l, l) == -1


@given(st.lists(st.integers(1, 3), min_size=0, max_size=12))
@settings(max_examples=60)
def test_blow_up_sequence_invariants(mults):
    # K^2 drops by exactly one per blow-up, whatever the centres are.
    # Alternate centres between the base curve and the last sphere.
    centres = [[["L", mult]] if i % 2 == 0 else [[f"e{i}", 1]]
               for i, mult in enumerate(mults)]
    m = build({"L": 1}, *centres)
    n = len(mults)
    assert m.blowup_count == n
    assert m.intersect(m.canonical, m.canonical) == 9 - n
    assert len(m.canonical.coords) == 1 + n


def test_script_replay_counts(main_construction, pencil2_construction, k4_construction):
    for construction, steps, rank in [
        (main_construction, 30, 31),
        (pencil2_construction, 19, 20),
        (k4_construction, 27, 28),
    ]:
        model = run_script(construction.script)
        assert model.blowup_count == steps
        assert len(model.canonical.coords) == rank
        assert model.intersect(model.canonical, model.canonical) == 9 - steps


def test_check_expectations_all_reproduced(
    main_construction, pencil2_construction, k4_construction
):
    for construction, count in [
        (main_construction, 71),
        (pencil2_construction, 48),
        (k4_construction, 62),
    ]:
        rows = list(grade_checkpoints(construction.script,
                                      run_script(construction.script)))
        assert len(rows) == count
        for expectation, actual, ok in rows:
            assert ok, f"{expectation.describe()} computed {actual}"


def test_run_script_checks_expectations(main_construction):
    script = main_construction.script
    doctored = dataclasses.replace(
        script,
        expectations=(dataclasses.replace(script.expectations[0], value=-3),)
        + tuple(script.expectations[1:]),
    )
    model = run_script(doctored)
    assert not all(ok for _, _, ok in grade_checkpoints(doctored, model))
    assert model.blowup_count == 30


def test_run_script_raises_the_earliest_failing_checkpoint(main_construction):
    script = main_construction.script
    late = dataclasses.replace(script.expectations[43], value=0)  # step 30
    early = dataclasses.replace(script.expectations[0], value=0)  # step 9
    doctored = dataclasses.replace(script, expectations=(late, early))
    graded = grade_checkpoints(doctored, run_script(doctored))
    assert [exp for exp, _, ok in graded if not ok][0] is early


def _outcome(pairing):
    """The value of a pairing, or the text of the ``KeyError`` it raises."""
    try:
        return "value", pairing()
    except KeyError as exc:
        return "KeyError", str(exc)


@pytest.mark.parametrize(
    "fixture", ["main_construction", "pencil2_construction", "k4_construction"]
)
def test_grading_on_the_finished_model_matches_every_snapshot(fixture, request):
    """Each checkpoint, moved to any step up to its own, grades on the
    finished model as the pairing on that step's snapshot does, and on the
    snapshot itself too; a curve not yet created raises the same error."""
    script = request.getfixturevalue(fixture).script
    snapshots = [run_script(Script(script.base_curves, script.steps[:k]))
                 for k in range(len(script.steps) + 1)]
    finished = snapshots[-1]
    kinds = set()
    for exp in script.expectations:
        names = exp.curves
        for step in range(exp.after_step + 1):
            moved = dataclasses.replace(exp, after_step=step)
            reference = _outcome(lambda: snapshots[step].intersect(*names))
            assert _outcome(lambda: moved.grade(finished)[1]) == reference, (
                exp.describe(), step)
            assert _outcome(lambda: moved.grade(snapshots[step])[1]) == reference
            kinds.add(reference[0])
    assert kinds == {"value", "KeyError"}
