"""Side-by-side comparison of the three formulations.

Integrates each of original, Lagrangian and self-similar form with the
reference settings at reduced resolution and reports final L2 errors against
the closed-form solutions. At full scale (n=128, dt=0.01, t=10) the same
harness reproduces the reference error table; run the CLI for that:

    kfplab compare --n 128 --dt 0.01 --t-end 10 --out out_table1
"""

import time

from kfplab import analytic
from kfplab.analysis import final_errors, percent_diff
from kfplab.solvers import RunConfig, run

N = 48
print(f"=== final L2 errors at t=10 (n={N}, dt=0.02, domain [-10,10]^2) ===")
errors = {}
for form in ("original", "lagrangian", "selfsimilar"):
    cfg = RunConfig(form=form, n=N, dt=0.02, horizon=10.0)
    t0 = time.time()
    traj = run(cfg)
    errors[form] = final_errors(traj)[0]
    print(f"  {form:12s} {len(traj.times) - 1:4d} steps to time {traj.final.time:7.4f}   "
          f"L2 error {errors[form]:.5f}   ({time.time() - t0:.1f} s)")

print("\nthe self-similar run marches in s = log(1 + t): 10 time units cost "
      f"{round(2.4 / 0.02)} steps instead of 500, and its support never leaves the box")

print("\n=== where the error lives (percent-difference field) ===")
cfg = RunConfig(form="selfsimilar", n=N, dt=0.02, horizon=10.0)
traj = run(cfg)
final = traj.final
pd = percent_diff(final, lambda a, b: analytic.exact_selfsimilar(final.time, a, b))
mesh = final.mesh
inner = (abs(mesh.nodes[:, 0]) < 3) & (abs(mesh.nodes[:, 1]) < 3)
print(f"  max percent difference, inner |v|,|z| < 3 : {pd.values[inner].max():.3f}")
print(f"  max percent difference, outer region      : {pd.values[~inner].max():.3f}")
print("error concentrates where the profile curves, not at the boundary: the "
      "rescaled solution keeps compact support, so the cutoff never bites")
