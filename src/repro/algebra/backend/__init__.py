"""The NTT engine, chosen by size.

The prover does its field arithmetic on plain Python ints.  One hot
path, the NTT, is data parallel, and numpy limb-vector butterflies
(:mod:`~repro.algebra.backend.numpy_limb`) run it on whole arrays at
once.  :func:`ntt` takes that path when the input has at least
:data:`MIN_NTT` points and numpy is installed; nothing else selects it.
Its output is the plan transform's, bit for bit, so proofs and
telemetry counters do not depend on which path ran.

numpy (0.17 s, about 10 MB resident) is imported by the first transform
that passes the size check, so a process that never reaches
:data:`MIN_NTT` -- every prove at k <= 10 -- never loads it.
"""

from __future__ import annotations

import importlib.util

#: The engine takes transforms from this many points up; below it, ufunc
#: dispatch costs more than the vector butterflies save
#: (``benchmarks/bench_kernels.py`` races the two paths).
MIN_NTT = 2048


def available() -> bool:
    """True when numpy is installed (answered without importing it)."""
    return importlib.util.find_spec("numpy") is not None


def ntt(values: list[int], omega: int, p: int) -> list[int] | None:
    """Forward NTT of canonical ``values`` (length a power of two,
    ``omega`` of matching order) on the limb engine, or ``None`` when
    the input is below :data:`MIN_NTT`, numpy is not installed or the
    engine does not support ``p``: the caller then runs the plan."""
    if len(values) < MIN_NTT or not available():
        return None
    from repro.algebra.backend import numpy_limb

    ctx = numpy_limb.ctx_for(p)
    return None if ctx is None else ctx.ntt(values, omega)


def backend_name() -> str:
    """``"numpy"`` when the engine is installed, else ``"python"``: what
    benchmark records stamp beside their numbers."""
    return "numpy" if available() else "python"


__all__ = ["MIN_NTT", "available", "backend_name", "ntt"]
