"""Replaying a recorded blow-up script with exact intersection numbers.

A surface built from the plane by repeated blow-ups carries an integral
intersection lattice: one generator for a line, one for each exceptional
sphere.  The construction datasets record where every blow-up happens and
what the key intersection numbers must be afterwards; replaying the script
checks each recorded number against the exact computation.

Run:  python3 demos/02_lattice_replay.py
"""

from blowdown import (
    Script,
    grade_checkpoints,
    load_construction,
    parse_script,
    run_script,
)

print("By hand first: two conics meet in four points.  Blow one up:")
by_hand = {"base_curves": {"C1": 2, "C2": 2}, "steps": []}
model = run_script(parse_script(by_hand))
print(f"  C1 . C2 = {model.intersect('C1', 'C2')}")
by_hand["steps"].append({"at": [["C1", 1], ["C2", 1]], "name": "e1"})
model = run_script(parse_script(by_hand))
print(f"  after a blow-up at a shared point: C1 . C2 = {model.intersect('C1', 'C2')}")
print(f"  the new sphere: e1^2 = {model.intersect('e1', 'e1')}")
print(f"  K^2 drops by one: {model.intersect(model.canonical, model.canonical)}")
print()

construction = load_construction("main_k3")
print(f"Now the recorded script of '{construction.name}':")
print(f"  {construction.title}")
print()

# The surface after k steps is the script cut to its first k steps.
script = construction.script
for index in (0, 9, 20, 30):
    stage = run_script(Script(script.base_curves, script.steps[:index]))
    k2 = stage.intersect(stage.canonical, stage.canonical)
    print(f"  after step {index:2}: rank {len(stage.canonical.coords):2}, K^2 = {k2}")
print()

# Every checkpoint is graded on the finished surface, the last stage.
rows = list(grade_checkpoints(script, stage))
reproduced = sum(1 for _, _, ok in rows if ok)
print(f"The dataset records {len(rows)} intersection numbers along the way;")
print(f"exact replay reproduces {reproduced} of {len(rows)}.")
print()

print("A few of the recorded checks:")
for expectation, actual, ok in rows[:3] + rows[-2:]:
    print(f"  {expectation.describe():28} computed {actual}  ok={ok}")
