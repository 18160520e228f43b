"""The pure-Python reference backend.

Declines every hook, so call sites run their reference loops on plain
Python ints.  This is the correctness baseline the vectorized backends
are validated against, and what ``auto`` resolves to on hosts without
numpy.
"""

from __future__ import annotations

from repro.algebra.backend import FieldBackend


class PythonBackend(FieldBackend):
    """Every hook inherits the declining default from
    :class:`FieldBackend` -- the reference loops at the call sites ARE
    this backend's implementation."""

    name = "python"
