"""The solver kernels.

``pykernels`` (pure Python) is the one implementation; ``solver.solve``
calls it directly.  ``available_backends`` and ``default_backend_name``
only name it: the benchmark harness (``perfbench/run.py`` and
``perfbench/tracing.py``) imports them to record which kernels ran and
to find the kernel functions it traces.
"""
from __future__ import annotations

from . import pykernels


def available_backends():
    return {"py": pykernels}


def default_backend_name() -> str:
    return "py"
