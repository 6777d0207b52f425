"""Host-speed probes: fixed numpy kernels that do the kind of work a
workload does, without kfplab.

The benchmark shares a few cores of a host whose speed drifts by tens of
per cent over minutes. A probe runs between the benchmark's worker
processes, never alongside them. It does not use kfplab, so no change to the
program moves it, and its inputs are fixed: the workload seed does not touch
them.

- `csr`: a CSR matvec by gather, multiply and segmented sum, with the
  shape of the n = 128 operators (110 000 stored entries over 16 384 rows).
  The solver workloads spend most of their time in matvec.
- `gauss`: the oracle's inner step: Gauss-Legendre nodes for 32, 64 and 128
  points and a Gaussian integrand summed over each tensor grid.
"""

import time

import numpy as np

# Mean time of one probe on the reference machine (README.md, "Host-speed
# normalisation"). A normalised time reads as seconds on that machine.
REF_S = {"csr": 0.15, "gauss": 0.11}
ROWS, NNZ = 16384, 110_000


class HostSpeed:
    def __init__(self, kind: str):
        self.kind = kind
        self.ref_s = REF_S[kind]
        rng = np.random.default_rng(20141104)
        if kind == "csr":
            self.vals = rng.standard_normal(NNZ)
            self.cols = rng.integers(0, ROWS, NNZ)
            self.starts = np.sort(rng.integers(0, NNZ, ROWS))
            self.starts[0] = 0
            self.x = rng.standard_normal(ROWS)
        self.samples = []
        self.probe()  # warm-up: page faults and first-touch allocation
        self.samples.clear()

    def _csr(self):
        for _ in range(180):
            np.add.reduceat(self.vals * self.x[self.cols], self.starts)

    def _gauss(self):
        for _ in range(15):
            for m in (32, 64, 128):
                x, w = np.polynomial.legendre.leggauss(m)
                v, z = np.meshgrid(3.0 * x, 5.0 * x, indexing="ij")
                f = np.exp(-(3.0 * z ** 2 + (2.0 * v - 3.0 * z) ** 2) / 4.0) * np.exp(-v ** 2 - z ** 2)
                float(np.einsum("i,j,ij->", w, w, f))

    def probe(self) -> float:
        start = time.perf_counter()
        self._csr() if self.kind == "csr" else self._gauss()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """The reference probe time over the mean probe time: multiply a
        time by it (divide a rate by it) to express it at the reference
        machine's speed."""
        return self.ref_s * len(self.samples) / sum(self.samples)
