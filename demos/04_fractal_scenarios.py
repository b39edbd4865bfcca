#!/usr/bin/env python3
"""Order-insensitivity study on the four committed fractal fronts.

Each scenario is a segmented front in the positive quadrant. The study
processes them in all 24 orders and compares the enabled reference sets
snapshotted after each scenario, in two modes: archive reset before each
scenario, and carry-over of one archive through the sequence.
"""
from refadapt import AdaptationParams, ReferenceArchive, default_scenarios, run_scenario
from refadapt.simulate import permutation_similarity

params = AdaptationParams(n=24, theta=0.2)

print("scenario geometry and standalone convergence:")
for scenario in default_scenarios():
    archive = ReferenceArchive.initialize(2, 24)
    report = run_scenario(scenario, archive, params)
    kinds = [e.kind for e in report.events]
    print(f"  {scenario.name:18s} segments={len(scenario.segments)} "
          f"points={len(scenario.points()):4d} -> active={report.n_active} "
          f"(inaccuracy {report.inaccuracy:.1%}), events={kinds}")

for carry in (False, True):
    mode = "carry-over" if carry else "reset"
    study = permutation_similarity(default_scenarios(), params, carry_over=carry)
    print(f"\n{mode} mode over {len(study.permutations)} orders:")
    for name, mean in study.per_scenario_mean.items():
        print(f"  {name:18s} mean pairwise similarity {mean:6.2f}%")
    print(f"  overall {study.mean_similarity:.2f}%  "
          f"(non-converged runs: {study.non_converged})")
