"""How far each form's outputs lie from a tightly converged run of the same
problem.

    python tools/yardstick.py [--form lagrangian] [--n 128] [--dt 0.1] [--t-end 10]
    python tools/yardstick.py --cases

The reference run solves every step to tol = 1e-12; each path runs at the
default tol = 1e-10. The sheared (Lagrangian) form has two paths, "z-lines",
each step's sparse.solve preconditioned by sparse.RedBlackLines, the
symmetric red-black Gauss-Seidel sweep over z-lines, run on the odd lines,
and "Jacobi", the same run with sparse.jacobi in its place; the original and
self-similar forms have one, Jacobi. For each path the table gives its
distance from the reference in the norm series (norms.csv), the final field
and the final L2 error against the closed form (errors.csv):

* per entry: max |a - b| / |b| over the entries;
* scale: max |a - b| / max |b|, relative to the largest value of the column.

The table gives the final field by scale only. Its entries near the
boundary and in the tails lie near 0, where the solver tolerance leaves
differences far larger than the entries, so their per-entry distance
follows those entries and not the run: on the self-similar run at n = 128,
starting each solve from extrapolated increments cut the scale distance
from 2.52e-9 to 1.27e-10 and raised the per-entry one from 3.26e+03 to
1.37e+12. distances() still returns both.

Beside the distances it prints each run's cost: the total BiCGStab
iterations of its solves, from the run's record.

`--cases` prints the table of every case in CASES: each form at n = 32 and
the two coarsest Table-2 levels (n = 20 and 40, s = 10). Each takes under
three seconds on two cores; `--n 128` with the defaults takes about 8 s.
"""

import argparse
import contextlib
import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kfplab import analysis, sparse  # noqa: E402
from kfplab.solvers import RunConfig, run  # noqa: E402

REFERENCE_TOL = 1e-12
COLUMNS = ("l2", "linf", "final field", "L2 error")
# name -> (form, n, dt, t_end)
CASES = {
    "lagrangian n=32": ("lagrangian", 32, 0.1, 10.0),
    "original n=32": ("original", 32, 0.01, 5.0),
    "selfsimilar n=32": ("selfsimilar", 32, 0.01, 10.0),
    "Table 2 n=20": ("selfsimilar", 20, 0.01, math.expm1(10.0)),
    "Table 2 n=40": ("selfsimilar", 40, 0.01, math.expm1(10.0)),
}


@contextlib.contextmanager
def jacobi_path():
    """Within the block, run_lagrangian preconditions its solves with Jacobi
    in place of the red-black sweep over z-lines."""
    red_black_lines = sparse.RedBlackLines
    sparse.RedBlackLines = sparse.jacobi
    try:
        yield
    finally:
        sparse.RedBlackLines = red_black_lines


def paths(form: str) -> dict:
    """Path name -> context in which a run of the form takes that path."""
    if form == "lagrangian":
        return {"z-lines": contextlib.nullcontext, "Jacobi": jacobi_path}
    return {"Jacobi": contextlib.nullcontext}


def outputs(config: RunConfig) -> dict:
    """The columns of one run: norm series, final field and final L2 error,
    and its total BiCGStab iterations."""
    traj = run(config)
    return {"l2": traj.l2, "linf": traj.linf, "final field": traj.final.values,
            "L2 error": np.array([analysis.final_errors(traj)[0]]),
            "iterations": int(traj.iterations.sum())}


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


def runs(n: int, dt: float, t_end: float, form: str = "lagrangian") -> tuple:
    """(reference outputs, path name -> the path's outputs)."""
    base = dict(form=form, n=n, dt=dt, horizon=t_end)
    ref = outputs(RunConfig(**base, tol=REFERENCE_TOL))
    got = {}
    for name, context in paths(form).items():
        with context():
            got[name] = outputs(RunConfig(**base))
    return ref, got


def yardstick(n: int, dt: float, t_end: float, form: str = "lagrangian") -> dict:
    """Path name -> distances from the reference run, and under "iterations"
    the path's total BiCGStab iterations."""
    ref, got = runs(n, dt, t_end, form)
    return {name: {**distances(out, ref), "iterations": out["iterations"]} for name, out in got.items()}


def _print_table(title: str, ref: dict, got: dict) -> None:
    print(f"{title}, distance from tol={REFERENCE_TOL:g} (per entry / scale; "
          f"the final field by scale); "
          f"the reference took {ref['iterations']} iterations")
    print(f"{'path (tol 1e-10)':<18}" + "".join(f"{c:>22}" for c in COLUMNS) + f"{'iterations':>12}")
    for path, out in got.items():
        row = distances(out, ref)
        cells = [f"{a:.2e} / {b:.2e}" for a, b in row.values()]
        cells[COLUMNS.index("final field")] = f"{row['final field'][1]:.2e}"
        print(f"{path:<18}" + "".join(f"{c:>22}" for c in cells) + f"{out['iterations']:>12}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--form", default="lagrangian", choices=("original", "lagrangian", "selfsimilar"))
    parser.add_argument("--n", type=int, default=128)
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--t-end", type=float, default=10.0)
    parser.add_argument("--cases", action="store_true", help="every case in CASES")
    args = parser.parse_args(argv)
    if args.cases:
        for name, (form, n, dt, t_end) in CASES.items():
            _print_table(f"{name}: {form} dt={dt} t={t_end:.6g}", *runs(n, dt, t_end, form))
        return 0
    _print_table(f"{args.form} n={args.n} dt={args.dt} t={args.t_end}",
                 *runs(args.n, args.dt, args.t_end, args.form))
    return 0


if __name__ == "__main__":
    sys.exit(main())
