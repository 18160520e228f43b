"""Pluggable field-arithmetic backends.

The reference prover does all field arithmetic on plain Python ints.
That is the correctness baseline, but two hot paths -- NTT butterflies
and fused Lagrange evaluation -- are *data parallel*, and a vectorized
engine can run them on whole arrays at once.  This package provides
that seam: :class:`FieldBackend` itself is the pure-Python backend
(it declines every hook; callers run their reference loops), and
:mod:`~repro.algebra.backend.numpy_backend` does limb-vector arithmetic
on numpy int64 arrays (:mod:`~repro.algebra.backend.numpy_limb`).
Constraint expressions are not a hook: every engine evaluates them
with the compiled program of :mod:`repro.proving.evaluation`.

Every hook is **bit-identical** to the reference path: same field
elements out, same proof bytes under
:func:`repro.algebra.field.deterministic_rng`, same telemetry counter
totals (counters are incremented by the call sites *before* dispatch).
A hook returns ``None`` to decline -- wrong modulus, vector too short
to amortize the array dispatch -- and the caller falls through to its
reference loop.  That makes backend selection a pure performance knob,
never a correctness one.

Selection: the ``REPRO_FIELD_BACKEND`` environment variable picks
``auto`` (default), ``python`` or ``numpy``; :func:`set_backend` /
:func:`backend` switch it in-process (benchmarks race both sides from
one interpreter).  ``auto`` resolves to the fastest *available* engine
-- numpy, then python -- so machines without the optional dependency
transparently run the reference path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_ENV_FLAG = "REPRO_FIELD_BACKEND"

#: Resolution order for ``auto``: fastest available engine wins.
_AUTO_ORDER = ("numpy", "python")


class FieldBackend:
    """The pure-Python backend: every hook declines, callers run their
    reference loops.  Subclasses override the hooks they can
    accelerate; each MUST return bit-identical results to the reference
    path or ``None`` to decline.

    Hooks never raise on unsupported inputs -- unsupported means
    decline.  Zero-element checks and telemetry counters belong to the
    call sites (which run them before dispatch), so counter totals and
    error behavior are backend-independent.
    """

    #: Registry key; also what ``bench_metadata`` reports.
    name = "python"

    @classmethod
    def available(cls) -> bool:
        """True when this backend's dependencies are installed on this
        host (answered without importing them)."""
        return True

    def ntt(self, values: list[int], omega: int, p: int) -> list[int] | None:
        """Forward NTT of canonical ``values`` (length a power of two,
        ``omega`` of matching order), or decline."""
        return None

    def lagrange_evals(
        self,
        x: int,
        count: int,
        *,
        p: int,
        omega: int,
        omega_inv: int,
        size: int,
        kk: int,
    ) -> list[int] | None:
        """``[kk * inv(x * omega^-i - 1) for i in range(count)]`` over a
        size-``size`` domain -- the fused form of the Lagrange basis
        evaluations ``L_i(x) = (z/n) / (x * omega^-i - 1)`` with
        ``kk = z/n``.  The caller guarantees ``x`` is outside the domain
        (all denominators nonzero).  Decline with ``None``."""
        return None


def _registry() -> dict[str, FieldBackend]:
    """Name -> backend instance, cached after first use.  Importing the
    numpy backend does not import numpy: the numpy engine loads on the
    first hook call that passes its size threshold."""
    global _BACKENDS
    if _BACKENDS is None:
        from repro.algebra.backend.numpy_backend import NumpyBackend

        _BACKENDS = {
            "python": FieldBackend(),
            "numpy": NumpyBackend(),
        }
    return _BACKENDS


_BACKENDS: dict[str, FieldBackend] | None = None


def _resolve(name: str) -> FieldBackend:
    """Map a requested name to a usable backend instance.

    ``auto`` -- and any unrecognized value, so a typo'd environment
    variable degrades to the default rather than breaking imports --
    walks :data:`_AUTO_ORDER` and returns the first backend whose
    dependencies are available.  A recognized-but-unavailable name
    (``numpy`` on a host without numpy) also falls back down the auto
    chain: explicit selection is an optimization request, not a hard
    dependency declaration.
    """
    registry = _registry()
    candidates = [name] if name in registry else []
    candidates += [n for n in _AUTO_ORDER if n not in candidates]
    for candidate in candidates:
        engine = registry[candidate]
        if engine.available():
            return engine
    return registry["python"]  # pragma: no cover - python is always available


_requested: str = os.environ.get(_ENV_FLAG, "auto").strip().lower() or "auto"
_active: FieldBackend | None = None


def active() -> FieldBackend:
    """The backend currently receiving hook dispatches."""
    global _active
    if _active is None:
        _active = _resolve(_requested)
    return _active


def backend_name() -> str:
    """Name of the active backend (after ``auto`` resolution)."""
    return active().name


def available_backends() -> list[str]:
    """Names of every backend whose dependencies import on this host."""
    return [
        name for name, engine in _registry().items() if engine.available()
    ]


def set_backend(name: str) -> str:
    """Select a backend by name (``auto`` re-resolves); returns the
    *requested* name that was previously in effect so callers can
    restore it."""
    global _requested, _active
    previous = _requested
    _requested = (name or "auto").strip().lower()
    _active = _resolve(_requested)
    return previous


@contextmanager
def backend(name: str) -> Iterator[None]:
    """Temporarily force a backend (tests, A/B benchmark races)."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


__all__ = [
    "FieldBackend",
    "active",
    "available_backends",
    "backend",
    "backend_name",
    "set_backend",
]
