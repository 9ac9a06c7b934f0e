"""The CLI entry point of `python -m qcageom` and the `qcageom` script.

It pins BLAS to one thread before numpy is first imported. The BLAS
calls of a run are thin or small: Gram products of at most 16 rows, with
one column per nonzero configuration of the other qubits (at most 137 at
N=16, 2^(N-4) for a dense state), and spectra of at most 4x4. Threads do
not speed them up, while an OpenBLAS worker per CPU would spin beside a
run that is mostly start-up. A thread count already set in the
environment wins. Importing the package as a library leaves the
environment alone.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (after the thread setting)

if __name__ == "__main__":
    raise SystemExit(main())
