"""Long-time behavior in self-similar variables.

The rescaled solution converges to an elliptic Gaussian of magnitude
sqrt(3)/2 instead of decaying. Along the way its sup norm is provably
non-monotone: it rises, peaks near s ~ 0.8, then relaxes onto the steady
profile. The analytic envelope from Young's inequality caps the whole series.
"""

import math

import numpy as np

from kfplab import analytic
from kfplab.analysis import envelope_check, l2_error
from kfplab.solvers import RunConfig, run

cfg = RunConfig(form="selfsimilar", n=64, dt=0.01, horizon=math.expm1(6.0),
                snapshot_stride=100)
traj = run(cfg)
times, l2, linf = traj.times, traj.l2, traj.linf

print("=== norm series (every s = 1) ===")
print(f"{'s':>5} {'L2':>10} {'sup':>10} {'envelope':>10} {'dist to steady':>15}")
snap = {round(f.time, 6): f for f in traj.snapshots}
for s in np.arange(0.0, 6.01, 1.0):
    i = np.argmin(np.abs(times - s))
    env = f"{analytic.linf_envelope(times[i], math.pi, 1.0):10.4f}" if times[i] > 0 else " " * 9 + "-"
    dist = ""
    key = round(times[i], 6)
    if key in snap:
        dist = f"{l2_error(snap[key], analytic.steady_state):15.5f}"
    print(f"{times[i]:5.2f} {l2[i]:10.5f} {linf[i]:10.5f} {env} {dist}")

peak = np.argmax(linf)
print(f"\nsup norm peaks at s = {times[peak]:.2f} with {linf[peak]:.4f}, "
      f"then relaxes to {linf[-1]:.4f} (steady magnitude sqrt(3)/2 = {math.sqrt(3) / 2:.4f})")
print("non-monotone:", bool(linf[peak] > linf[0] and linf[peak] > linf[-1]))
print("envelope respected:", envelope_check(times, linf, math.pi, 1.0))

final = traj.final
err = l2_error(final, lambda a, b: analytic.exact_selfsimilar(final.time, a, b))
print(f"\nL2 error vs closed form at s = {final.time:.1f}: {err:.5f}")
print(f"L2 distance to the steady profile:             "
      f"{l2_error(final, analytic.steady_state):.5f}")
print("by s ~ 6 the discretization error and the distance to the steady state "
      "are the same size: the scheme has converged onto the limit profile")
