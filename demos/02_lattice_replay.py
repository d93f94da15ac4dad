"""Replaying a recorded blow-up script with exact intersection numbers.

A surface built from the plane by repeated blow-ups carries an integral
intersection lattice: one generator for a line, one for each exceptional
sphere.  The construction datasets record where every blow-up happens and
what the key intersection numbers must be afterwards; replaying the script
checks each recorded number against the exact computation.

Run:  python3 demos/02_lattice_replay.py
"""

from blowdown import (
    blow_up,
    grade_checkpoints,
    intersect,
    iter_models,
    load_construction,
    new_plane,
)

print("By hand first: two conics meet in four points.  Blow one up:")
model = new_plane({"C1": 2, "C2": 2})
print(f"  C1 . C2 = {intersect(model, 'C1', 'C2')}")
model = blow_up(model, [("C1", 1), ("C2", 1)], "e1")
print(f"  after a blow-up at a shared point: C1 . C2 = {intersect(model, 'C1', 'C2')}")
print(f"  the new sphere: e1^2 = {intersect(model, 'e1', 'e1')}")
print(f"  K^2 drops by one: {intersect(model, model.canonical, model.canonical)}")
print()

construction = load_construction("main_k3")
print(f"Now the recorded script of '{construction.name}':")
print(f"  {construction.title}")
print()

milestones = {0, 9, 20, 30}
for index, stage in iter_models(construction.script):
    if index in milestones:
        k2 = intersect(stage, stage.canonical, stage.canonical)
        print(f"  after step {index:2}: rank {len(stage.canonical.coords):2}, K^2 = {k2}")
print()

# Every checkpoint is graded on the finished surface, the last stage.
rows = list(grade_checkpoints(construction.script, stage))
reproduced = sum(1 for _, _, ok in rows if ok)
print(f"The dataset records {len(rows)} intersection numbers along the way;")
print(f"exact replay reproduces {reproduced} of {len(rows)}.")
print()

print("A few of the recorded checks:")
for expectation, actual, ok in rows[:3] + rows[-2:]:
    print(f"  {expectation.describe():28} computed {actual}  ok={ok}")
