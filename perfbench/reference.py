"""Host speed probe: a fixed kernel that uses no qvarlab code, timed on request.

worker.py starts this file and writes one line per measurement, holding a
number of kernel calls; the reply line is their mean wall seconds. The probe lives in its own process so
that its memory stays out of the worker's peak RSS, and runs with one BLAS
thread so that no idle BLAS thread of its own spins while the worker
measures. It exits when its standard input closes.

The kernel does the kinds of work the workloads do: a Python loop,
gate-sized tensordots on a 32-row batch, small and BLAS-sized complex
matmuls, and a Hermitian eigendecomposition.
"""
import sys
import time

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((32, 32)) + 1j * _RNG.standard_normal((32, 32))
_BATCH = _RNG.standard_normal((32,) + (2,) * 5) + 0j
_GATE = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_LARGE = _RNG.standard_normal((384, 384)) + 1j * _RNG.standard_normal((384, 384))
_HERM = _LARGE + _LARGE.conj().T


def kernel() -> None:
    total = 0
    for k in range(100000):
        total += k * k % 7
    b = _BATCH
    for k in range(900):
        ax = k % 5 + 1
        b = np.moveaxis(np.tensordot(b, _GATE, axes=([ax], [1])), -1, ax)
    m = _SMALL
    for _ in range(900):
        m = _SMALL @ m
        m /= np.abs(m).max()
    for _ in range(4):
        _LARGE @ _LARGE
    np.linalg.eigh(_HERM)


def main() -> None:
    kernel()  # the first call pays one-off BLAS and LAPACK set-up
    for line in sys.stdin:
        calls = int(line)
        start = time.perf_counter()
        for _ in range(calls):
            kernel()
        print((time.perf_counter() - start) / calls, flush=True)


if __name__ == "__main__":
    main()
