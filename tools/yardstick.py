"""How far the sheared (Lagrangian) form's outputs lie from a tightly converged
run, with its z-line preconditioner and with Jacobi.

    python tools/yardstick.py [--n 128] [--dt 0.1] [--t-end 10]

Three runs of the same problem: the reference, solved to tol = 1e-12 with
the z-line preconditioner, and the z-line and Jacobi paths at the default
tol = 1e-10. For each path the table gives its distance from the reference
in the norm series (norms.csv), the final field and the final L2 error
against the closed form (errors.csv):

* per entry: max |a - b| / |b| over the entries;
* scale: max |a - b| / max |b|, relative to the largest value of the column.

A changed solver path is acceptable when it lies no farther from the
reference than the Jacobi path, column by column: per entry in the norm
series and the L2 error, by scale in the final field, whose entries reach 0
at the boundary. Takes about 8 s at n = 128 on two cores.
"""

import argparse
import contextlib
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kfplab import analysis, sparse  # noqa: E402
from kfplab.solvers import RunConfig, run_lagrangian  # noqa: E402

REFERENCE_TOL = 1e-12
COLUMNS = ("l2", "linf", "final field", "L2 error")


@contextlib.contextmanager
def jacobi_path():
    """Within the block, run_lagrangian preconditions its solves with Jacobi."""
    line_jacobi = sparse.line_jacobi
    sparse.line_jacobi = sparse.jacobi
    try:
        yield
    finally:
        sparse.line_jacobi = line_jacobi


def outputs(config: RunConfig) -> dict:
    """The columns of one run: norm series, final field and final L2 error."""
    traj = run_lagrangian(config)
    return {"l2": traj.l2, "linf": traj.linf, "final field": traj.final.values,
            "L2 error": np.array([analysis.final_errors(traj)[0]])}


def distances(got: dict, ref: dict) -> dict:
    """Column -> (per-entry, scale-relative) distance of got from ref."""
    out = {}
    for col in COLUMNS:
        diff = np.abs(got[col] - ref[col])
        scale = np.abs(ref[col])
        nonzero = scale > 0
        per_entry = float(np.max(diff[nonzero] / scale[nonzero], initial=0.0))
        if not np.all(diff[~nonzero] == 0.0):
            per_entry = float("inf")
        out[col] = (per_entry, float(diff.max() / scale.max()))
    return out


def yardstick(n: int, dt: float, t_end: float) -> dict:
    """Path name -> distances from the reference run."""
    base = dict(form="lagrangian", n=n, dt=dt, horizon=t_end)
    ref = outputs(RunConfig(**base, tol=REFERENCE_TOL))
    lines = outputs(RunConfig(**base))
    with jacobi_path():
        jac = outputs(RunConfig(**base))
    return {"z-lines": distances(lines, ref), "Jacobi": distances(jac, ref)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--t-end", type=float, default=10.0)
    args = parser.parse_args(argv)
    table = yardstick(args.n, args.dt, args.t_end)
    print(f"lagrangian n={args.n} dt={args.dt} t={args.t_end}, distance from tol={REFERENCE_TOL:g}"
          " (per entry / scale)")
    print(f"{'path (tol 1e-10)':<18}" + "".join(f"{c:>22}" for c in COLUMNS))
    for path, row in table.items():
        print(f"{path:<18}" + "".join(f"{f'{a:.2e} / {b:.2e}':>22}" for a, b in row.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
