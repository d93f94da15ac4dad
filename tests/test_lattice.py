"""Exact intersection arithmetic on iterated blow-ups of the plane."""

import dataclasses
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from blowdown import (
    blow_up,
    grade_checkpoints,
    intersect,
    iter_models,
    new_plane,
    run_script,
)


def test_new_plane_pairings():
    m = new_plane({"L": 1, "Q": 2, "C": 3})
    assert intersect(m, "L", "L") == 1
    assert intersect(m, "Q", "Q") == 4
    assert intersect(m, "L", "Q") == 2
    assert intersect(m, "Q", "C") == 6
    assert intersect(m, m.canonical, m.canonical) == 9
    assert intersect(m, m.canonical, "L") == -3
    assert m.blowup_count == 0


def test_new_plane_rejects_bad_degrees():
    with pytest.raises(ValueError):
        new_plane({"L": 0})
    with pytest.raises(ValueError):
        new_plane({"L": -2})


def test_blow_up_updates_pairings():
    m = new_plane({"L": 1, "Q": 2})
    m1 = blow_up(m, [("L", 1), ("Q", 1)], "e1")
    assert m1.blowup_count == 1
    assert intersect(m1, "L", "L") == 0
    assert intersect(m1, "Q", "Q") == 3
    assert intersect(m1, "L", "Q") == 1
    assert intersect(m1, "e1", "e1") == -1
    assert intersect(m1, "L", "e1") == 1
    assert intersect(m1, m1.canonical, m1.canonical) == 8
    assert intersect(m1, m1.canonical, "e1") == -1


def test_blow_up_multiplicity_two():
    m = new_plane({"N": 3})
    m1 = blow_up(m, [("N", 2)], "e1")
    assert intersect(m1, "N", "N") == 9 - 4
    assert intersect(m1, "N", "e1") == 2
    assert intersect(m1, m1.canonical, "N") == -9 + 2


def test_blow_up_of_exceptional_curve():
    m = new_plane({"L": 1})
    m1 = blow_up(m, [("L", 1)], "e1")
    m2 = blow_up(m1, [("e1", 1)], "e2")
    assert intersect(m2, "e1", "e1") == -2
    assert intersect(m2, "e2", "e2") == -1
    assert intersect(m2, "e1", "e2") == 1
    assert intersect(m2, "L", "e2") == 0


def test_blow_up_free_point():
    m = new_plane({"L": 1})
    m1 = blow_up(m, [], "e1")
    assert intersect(m1, "L", "e1") == 0
    assert intersect(m1, "e1", "e1") == -1


def test_blow_up_rejections():
    m = new_plane({"L": 1})
    with pytest.raises(ValueError):
        blow_up(m, [("X", 1)], "e1")
    with pytest.raises(ValueError):
        blow_up(m, [("L", 0)], "e1")
    with pytest.raises(ValueError):
        blow_up(m, [("L", 1)], "L")


@pytest.mark.parametrize("step", [-1, 2])
def test_canonical_at_rejects_a_step_outside_the_script(step):
    m = blow_up(new_plane({"L": 1}), [("L", 1)], "e1")
    assert m.canonical_at(1) == m.canonical
    with pytest.raises(ValueError, match=rf"step {step} lies outside "
                                         r"0\.\.blowup_count = 0\.\.1"):
        m.canonical_at(step)


def test_models_are_immutable():
    m = new_plane({"L": 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.blowup_count = 5


def test_intersect_accepts_names_and_classes():
    m = new_plane({"L": 1})
    m1 = blow_up(m, [("L", 1)], "e1")
    cls = m1.curves["L"]
    assert intersect(m1, cls, "e1") == intersect(m1, "e1", cls)
    assert intersect(m1, cls, cls) == 0


def test_divisor_class_arithmetic():
    m = new_plane({"L": 1, "Q": 2})
    l, q = m.curves["L"], m.curves["Q"]
    assert intersect(m, q - 2 * l, "L") == 0
    assert intersect(m, l + l, q) == 4
    assert intersect(m, -l, l) == -1


@given(st.lists(st.integers(1, 3), min_size=0, max_size=12))
@settings(max_examples=60)
def test_blow_up_sequence_invariants(mults):
    # K^2 drops by exactly one per blow-up, whatever the centers are.
    m = new_plane({"L": 1})
    for i, mult in enumerate(mults):
        # Alternate centers between the base curve and the last sphere.
        through = "L" if i % 2 == 0 or i == 0 else f"e{i}"
        m = blow_up(m, [(through, mult)] if through == "L" else [(through, 1)], f"e{i + 1}")
    n = len(mults)
    assert m.blowup_count == n
    assert intersect(m, m.canonical, m.canonical) == 9 - n
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
        assert intersect(model, model.canonical, model.canonical) == 9 - steps


def test_iter_models_walks_every_stage(main_construction):
    stages = list(iter_models(main_construction.script))
    assert len(stages) == 31
    for index, model in stages:
        assert model.blowup_count == index


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
    snapshots = [model for _, model in iter_models(script)]
    finished = snapshots[-1]
    kinds = set()
    for exp in script.expectations:
        names = exp.curves
        for step in range(exp.after_step + 1):
            moved = dataclasses.replace(exp, after_step=step)
            reference = _outcome(lambda: intersect(snapshots[step], *names))
            assert _outcome(lambda: moved.grade(finished)[1]) == reference, (
                exp.describe(), step)
            assert _outcome(lambda: moved.grade(snapshots[step])[1]) == reference
            kinds.add(reference[0])
    assert kinds == {"value", "KeyError"}
