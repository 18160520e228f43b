"""Cached NTT execution plans: bit-reversal indices + twiddle ladders.

Rebuilding the per-stage twiddle ladder costs ``n - 1``
multiplications plus one modexp per stage on *every* transform.  The
prover runs thousands of transforms over a handful of domains, so this
module precomputes the plan -- bit-reversal swap pairs and the full
twiddle table of every stage -- once per ``(n, omega, p)`` and
:func:`repro.algebra.domain.fft_in_place` replays it.

Plans live in a module-level cache: each process builds a plan at most
once and hits it thereafter (the ``fft.twiddle_hits`` /
``fft.twiddle_builds`` counters record the traffic); a forked service
runner inherits the plans built before its fork.
"""

from __future__ import annotations

from repro import telemetry


class NttPlan:
    """A reusable transform schedule for one ``(n, omega, p)``."""

    __slots__ = ("n", "omega", "p", "swaps", "stages")

    def __init__(self, n: int, omega: int, p: int):
        if n & (n - 1):
            raise ValueError("fft size must be a power of two")
        self.n = n
        self.omega = omega % p
        self.p = p
        # Bit-reversal permutation as explicit swap pairs (i < j).
        swaps = []
        j = 0
        for i in range(1, n):
            bit = n >> 1
            while j & bit:
                j ^= bit
                bit >>= 1
            j |= bit
            if i < j:
                swaps.append((i, j))
        self.swaps = swaps
        # Twiddle ladder per stage: omega^(n/length) powers, half a
        # stage each; n - 1 entries in total.
        stages = []
        length = 2
        while length <= n:
            w_m = pow(self.omega, n // length, p)
            half = length // 2
            ws = [1] * half
            for i in range(1, half):
                ws[i] = ws[i - 1] * w_m % p
            stages.append(ws)
            length *= 2
        self.stages = stages

    # Plans are pure data.
    def __getstate__(self):
        return (self.n, self.omega, self.p, self.swaps, self.stages)

    def __setstate__(self, state):
        self.n, self.omega, self.p, self.swaps, self.stages = state


#: Process-local plan cache.  Forked service runners inherit the
#: parent's plans; ones built after the fork are rebuilt per runner.
_PLANS: dict[tuple[int, int, int], NttPlan] = {}


def plan_for(n: int, omega: int, p: int) -> NttPlan:
    """The cached plan for ``(n, omega, p)``, building it on first use."""
    key = (n, omega, p)
    plan = _PLANS.get(key)
    if plan is None:
        plan = NttPlan(n, omega, p)
        _PLANS[key] = plan
        telemetry.incr("fft.twiddle_builds")
    else:
        telemetry.incr("fft.twiddle_hits")
    return plan


def cache_size() -> int:
    return len(_PLANS)


def clear_cache() -> None:
    _PLANS.clear()


def _block_sources(n: int, skip: int) -> list[int]:
    """Which input index lands in each ``2^skip``-point block after the
    bit-reversal of an ``n``-point transform whose input is zero past
    ``n >> skip``: block ``b`` takes index ``bitreverse(b)`` over the
    ``log2(n) - skip`` bits that remain (cached per ``(n, skip)``)."""
    key = (n, skip)
    sources = _BLOCK_SOURCES.get(key)
    if sources is None:
        bits = (n >> skip).bit_length() - 1
        sources = [
            int(format(b, f"0{bits}b")[::-1], 2) if bits else 0
            for b in range(n >> skip)
        ]
        _BLOCK_SOURCES[key] = sources
    return sources


_BLOCK_SOURCES: dict[tuple[int, int], list[int]] = {}


def ntt_in_place(values: list[int], plan: NttPlan, filled: int | None = None) -> None:
    """Iterative Cooley-Tukey NTT replaying a precomputed plan.

    The textbook butterflies; only the per-call index/twiddle
    recomputation is gone.  With ``filled``, the input is zero past its
    first ``filled`` entries and the stages that would only copy are
    skipped: after the bit reversal each of the first ``n >> skip``
    inputs starts a ``2^skip``-point block the rest of which is zero,
    and the first ``skip`` stages just spread it across its block.
    """
    if len(values) != plan.n:
        raise ValueError("vector length does not match plan size")
    p = plan.p
    n = plan.n
    skip = 0
    while filled and filled << (skip + 1) <= n:
        skip += 1
    if skip:
        block = 1 << skip
        spread = []
        for source in _block_sources(n, skip):
            spread += [values[source]] * block
        values[:] = spread
    else:
        for i, j in plan.swaps:
            values[i], values[j] = values[j], values[i]
    length = 2 << skip
    for ws in plan.stages[skip:]:
        half = length // 2
        for start in range(0, n, length):
            for i in range(half):
                base = start + i
                lo = values[base]
                hi = values[base + half] * ws[i] % p
                values[base] = (lo + hi) % p
                values[base + half] = (lo - hi) % p
        length *= 2
