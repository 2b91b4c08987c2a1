"""The machine-speed probe: a fixed job of the same kind as a cpelab command.

    python3 perfbench/probe.py

It starts Python, imports numpy, scipy.fft and sympy (as every cpelab
command does), then runs a fixed mix of small-array transforms, array
arithmetic, vector norms (which wake the BLAS threads) and a pure-Python
loop. It touches no cpelab code, so a change to cpelab leaves its time
alone; `run.py` times it between rounds to see how fast the host is
running at that moment.
"""

import numpy as np
import scipy.fft as sfft
import sympy  # noqa: F401  (imported for its cost, as the CLI does)

a = np.random.default_rng(0).standard_normal((24, 24, 25))
for _ in range(300):
    b = sfft.dct(a, type=1, axis=-1)
    c = sfft.rfft2(b, axes=(0, 1))
    d = sfft.irfft2(c, s=(24, 24), axes=(0, 1))
    e = d * a + 0.5 * b - np.sqrt(np.abs(a))
    np.linalg.norm(e.ravel())
s = 0
for i in range(1_000_000):
    s += i % 7
