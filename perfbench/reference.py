"""A fixed reference computation that gauges the host's speed right now.

The host this benchmark runs on is shared: its speed drifts by more than
1.5x over minutes, and a flow's wall and CPU time drift with it, so two
runs minutes apart disagree more than any useful bound.  The reference
does the same kinds of work as a flow (Python dict and loop work, dense
BLAS and sorting, a sparse CG solve) on fixed inputs and none of
``repro``'s code, so no change to the program moves it.  A run times the
reference before and after each flow and reports the flow's times scaled
by their mean to the host speed at which the reference takes
:data:`REFERENCE_S`.

On a 2-core host, over 80 consecutive ``ilp-s38417`` flows grouped nine
to a run, scaling cut the spread of the run medians (quartile distance
over median) from 0.29 to 0.03.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl

#: Seconds the reference takes on a quiet 2-core host (numpy 2.4, OpenBLAS
#: 0.3.31 with 2 threads); reported times are scaled to that speed.
REFERENCE_S = 0.55


@functools.cache
def _inputs() -> tuple[np.ndarray, np.ndarray, sp.csr_matrix, np.ndarray]:
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((300, 300))
    values = rng.standard_normal(1_000_000)
    n = 120
    laplacian = sp.diags(
        [4.0, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, n, -n], shape=(n * n, n * n), format="csr"
    )
    return dense, values, laplacian, np.ones(n * n)


def reference_seconds() -> float:
    """Wall seconds one pass of the reference takes."""
    dense, values, laplacian, rhs = _inputs()
    tic = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(3_000_000):
        table[i % 1000] = table.get(i % 1000, 0) + i
    sorted(table.items())
    for _ in range(80):
        dense @ dense
    np.sort(values)
    np.argsort(values)
    spl.cg(laplacian, rhs, maxiter=1500)
    return time.perf_counter() - tic


def scaled(seconds: float, reference_s: float) -> float:
    """``seconds`` measured when the reference took ``reference_s``, at reference speed."""
    return seconds * REFERENCE_S / reference_s
