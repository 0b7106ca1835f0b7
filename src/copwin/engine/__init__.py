"""Kernel backend selection.

One backend implements the solver kernels: ``py``, pure Python, always
available.  ``get_backend`` and the ``--engine`` option of the CLI stay
the seam where a compiled backend would plug in; the environment
variable COPWIN_ENGINE names the default and is checked against the
available backends.
"""
from __future__ import annotations

import os

from . import pykernels

_BACKENDS = {"py": pykernels}


def available_backends():
    return dict(_BACKENDS)


def default_backend_name() -> str:
    env = os.environ.get("COPWIN_ENGINE")
    if env:
        if env not in _BACKENDS:
            raise ValueError(
                f"COPWIN_ENGINE={env!r} not available; choices: {sorted(_BACKENDS)}"
            )
        return env
    return "py"


def get_backend(name=None):
    """Resolve a backend by name, or the default one."""
    if name is None:
        name = default_backend_name()
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown engine {name!r}; choices: {sorted(_BACKENDS)}") from None
