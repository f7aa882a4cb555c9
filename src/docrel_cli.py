"""The ``docrel`` command: docrel's CLI with one BLAS thread by default.

docrel multiplies small matrices, for which a multithreaded BLAS spends
more CPU time than it saves in wall time. A BLAS library reads its thread
count once, when NumPy loads it, so this entry point sets each of
``BLAS_THREAD_VARIABLES`` to 1 before it imports docrel, unless the
environment already sets any of them. ``import docrel`` sets nothing, and
``python -m docrel.cli`` runs the CLI with the BLAS settings it finds.

    python -m docrel_cli selftest
"""

import os
import sys

# the thread counts of OpenBLAS, OpenMP and MKL; docrel.config records them
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    from docrel.cli import main as run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
