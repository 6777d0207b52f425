"""Workload definitions, reference values and the correctness gate.

The solver workloads are fixed reference problems run through the kfplab
command line; the seed only picks the oracle's points. Reference values were
recorded from this repository's own runs of the same commands and are
compared with a relative tolerance: the last digits of a solve differ
between machines and BLAS builds, so byte equality would reject correct
results.
"""

import math
import os

# Relative tolerance of the gate. The solver converges to 1e-10 relative
# residual; errors against the closed form move far less than 1e-7 under a
# change of summation order or BLAS, and far more under a real defect.
RTOL = 1e-7
# Criterion 2 of the acceptance suite: oracle against the closed form.
ORACLE_ATOL = 1e-6
ORACLE_T_RANGE = (2.0, 20.0)  # the criterion-3 decay window
ORACLE_BATCH = 50
ORACLE_WORKER_BATCHES = 2  # batches one untraced oracle operation checks

LADDER_LEVELS = "1,0.5,0.25,0.125"

WORKLOADS = {
    "lagrangian": {
        "kind": "cli",
        "argv": ["run", "--form", "lagrangian", "--n", "128", "--dt", "0.1", "--t-end", "10"],
        "tiny": ["run", "--form", "lagrangian", "--n", "16", "--dt", "0.1", "--t-end", "1"],
        "ops_per_item": 1,
        "probe": "csr",
    },
    "original": {
        "kind": "cli",
        "argv": ["run", "--form", "original", "--n", "128", "--dt", "0.01", "--t-end", "5"],
        "tiny": ["run", "--form", "original", "--n", "16", "--dt", "0.1", "--t-end", "1"],
        "ops_per_item": 1,
        "probe": "csr",
    },
    "selfsimilar-ladder": {
        "kind": "cli",
        "argv": ["convergence", "--levels", LADDER_LEVELS, "--s-end", "1", "--dt", "0.01"],
        "tiny": ["convergence", "--levels", "4,2,1", "--s-end", "0.2", "--dt", "0.05"],
        "ops_per_item": 4,  # one operation per ladder level
        "probe": "csr",
    },
    "oracle": {
        "kind": "oracle",
        "batch": ORACLE_BATCH,
        "tiny_batch": 3,
        "ops_per_item": 1,  # one operation per oracle point
        "probe": "gauss",
    },
}

# Recorded from the program at commit 763bdd8 (see README.md).
REFERENCE = {
    "lagrangian": {"time": 10.0, "l2_error": [0.073308076146064799]},
    "original": {"time": 5.0, "l2_error": [0.010734469124888742]},
    "selfsimilar-ladder": {
        "time": 1.0,
        "l2_error": [0.58497434013427785, 0.31639611548614199,
                     0.10654460432073329, 0.029620716777848118],
        "fit_exponent": 1.4481359009302481,
    },
}


def _close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= RTOL * abs(want)


def read_errors_csv(path: str) -> list:
    """Rows of errors.csv as dicts of floats (the empty order cell is None)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = []
        for line in fh:
            cells = line.strip().split(",")
            rows.append({k: (float(v) if v else None) for k, v in zip(header, cells)})
    return rows


def read_fit_exponent(path: str) -> float:
    with open(path) as fh:
        first = fh.readline()
    return float(first.rsplit("h^", 1)[1])


def check_cli_outputs(workload: str, out_dir: str, reference: dict | None = None):
    """(attempted, failed, notes) for one CLI operation's output files.

    An operation is one solver run, or one level of the ladder; a wrong fit
    exponent fails every level of its ladder.
    """
    ref = REFERENCE[workload] if reference is None else reference
    want = ref["l2_error"]
    notes = []
    try:
        rows = read_errors_csv(os.path.join(out_dir, "errors.csv"))
    except (OSError, ValueError, IndexError) as exc:
        return len(want), len(want), [f"errors.csv unreadable: {exc}"]
    if len(rows) != len(want):
        return len(want), len(want), [f"errors.csv has {len(rows)} rows, expected {len(want)}"]
    failed = 0
    for k, (row, w) in enumerate(zip(rows, want)):
        if not (_close(row["l2_error"], w) and _close(row["time"], ref["time"])):
            failed += 1
            notes.append(f"row {k}: l2_error {row['l2_error']!r} vs {w!r}, time {row['time']!r}")
    if "fit_exponent" in ref:
        try:
            p = read_fit_exponent(os.path.join(out_dir, "report.txt"))
        except (OSError, ValueError, IndexError) as exc:
            return len(want), len(want), notes + [f"report.txt unreadable: {exc}"]
        if not _close(p, ref["fit_exponent"]):
            notes.append(f"fit exponent {p!r} vs {ref['fit_exponent']!r}")
            failed = len(want)
    return len(want), failed, notes


def oracle_points(seed: int, batch: int, size: int):
    """Deterministic (t, v, x) triples for one batch of the oracle workload.

    t is uniform on the criterion-3 window. (v, z = x + v t) is drawn from
    the solution's own Gaussian: covariance diag(1/2, 1/2) of the initial
    state exp(-v^2 - x^2) plus the kernel's [[2t, t^2], [t^2, 2t^3/3]].
    """
    import numpy as np

    rng = np.random.default_rng([seed, batch])
    ts = rng.uniform(*ORACLE_T_RANGE, size)
    out = []
    for t, (g1, g2) in zip(ts, rng.standard_normal((size, 2))):
        cvv, cvz, czz = 2.0 * t + 0.5, t * t, 2.0 * t ** 3 / 3.0 + 0.5
        l11 = math.sqrt(cvv)
        l21 = cvz / l11
        l22 = math.sqrt(czz - l21 * l21)
        v = l11 * g1
        z = l21 * g1 + l22 * g2
        out.append((float(t), float(v), float(z - v * t)))
    return out
