"""The boundary tracer: spans recorded from the benchmark's own files.

The traced repetition wraps the *public entry points* of each layer
(one declarative table, :data:`TARGETS`) and records one span per call:
name, start, end, the span that caused it, work counts.  Nothing in
``repro`` is edited and no switch is read -- a function target is
rebound in every loaded ``repro.*`` module that imported it, a method
target on its class -- and :meth:`BoundaryTracer.uninstall` puts every
original back.  Spans stay in memory until the run ends.

A target that a later refactor moved or renamed is reported in
``missing`` and simply records nothing.  Stacks are per thread, so the
proving service's workers trace independently.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# Span record layout (a list, for speed on ~10^4 calls per proof).
ID, PARENT, KEY, START, END, CALLS, UNITS, REP, THREAD = range(9)

Count = Callable[[tuple, dict], int]


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _len_of(pos: int, name: str) -> Count:
    return lambda args, kwargs: len(_arg(args, kwargs, pos, name))


def _domain_points(args: tuple, kwargs: dict) -> int:
    return args[0].size


def _many_vectors(name: str) -> Count:
    return lambda args, kwargs: len(_arg(args, kwargs, 1, name))


def _many_points(name: str) -> Count:
    return lambda args, kwargs: len(_arg(args, kwargs, 1, name)) * args[0].size


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``attr`` is a module-level function name or ``Class.method``;
    ``key`` names the layer the span is booked under (several targets
    share one); ``calls`` / ``units`` count the work in one call from
    its arguments (default one call, no units).
    """

    module: str
    attr: str
    key: str
    calls: Count | None = None
    units: Count | None = None


_DOMAIN = "repro.algebra.domain"
_TRANSCRIPT = "repro.transcript"
_IPA = "repro.commit.ipa"

TARGETS: tuple[Target, ...] = (
    # kernels
    Target("repro.ecc.msm", "msm", "ecc.msm", units=_len_of(0, "points")),
    Target(
        "repro.ecc.fixed_base", "fixed_base_msm", "ecc.fixed_base",
        units=_len_of(1, "scalars"),
    ),
    Target(_DOMAIN, "EvaluationDomain.fft", "algebra.fft", units=_domain_points),
    Target(_DOMAIN, "EvaluationDomain.ifft", "algebra.fft", units=_domain_points),
    Target(_DOMAIN, "EvaluationDomain.coset_fft", "algebra.fft", units=_domain_points),
    Target(_DOMAIN, "EvaluationDomain.coset_ifft", "algebra.fft", units=_domain_points),
    Target(
        _DOMAIN, "EvaluationDomain.fft_many", "algebra.fft",
        calls=_many_vectors("coeffs_list"), units=_many_points("coeffs_list"),
    ),
    Target(
        _DOMAIN, "EvaluationDomain.ifft_many", "algebra.fft",
        calls=_many_vectors("evals_list"), units=_many_points("evals_list"),
    ),
    Target(
        _DOMAIN, "EvaluationDomain.coset_fft_many", "algebra.fft",
        calls=_many_vectors("coeffs_list"), units=_many_points("coeffs_list"),
    ),
    Target(_DOMAIN, "EvaluationDomain.lagrange_basis_evals", "algebra.lagrange"),
    Target(
        "repro.algebra.field", "Field.batch_inv", "algebra.batch_inv",
        units=_len_of(1, "values"),
    ),
    Target(_TRANSCRIPT, "Transcript.absorb_bytes", "transcript"),
    Target(_TRANSCRIPT, "Transcript.absorb_scalar", "transcript"),
    Target(_TRANSCRIPT, "Transcript.absorb_scalars", "transcript"),
    Target(_TRANSCRIPT, "Transcript.absorb_point", "transcript"),
    Target(_TRANSCRIPT, "Transcript.absorb_points", "transcript"),
    Target(
        _TRANSCRIPT, "Transcript.challenge_scalar", "transcript",
        units=lambda args, kwargs: 1,
    ),
    Target(
        _TRANSCRIPT, "Transcript.challenge_scalars", "transcript",
        units=lambda args, kwargs: _arg(args, kwargs, 2, "count"),
    ),
    # commitment scheme
    Target(_IPA, "commit_polynomial", "commit.commit"),
    Target(_IPA, "commit_polynomials", "commit.commit", calls=_len_of(1, "items")),
    Target(_IPA, "open_polynomial", "commit.open"),
    Target(_IPA, "verify_opening", "commit.verify_opening"),
    # proof system
    Target("repro.proving.prover", "create_proof", "prover.create_proof"),
    Target("repro.proving.verifier", "verify_proof", "verifier.verify_proof"),
    Target("repro.proving.keygen", "keygen", "keygen"),
    Target("repro.proving.proof", "Proof.to_bytes", "wire.encode"),
    Target("repro.proving.proof", "Proof.from_bytes", "wire.decode"),
    # SQL front end
    Target("repro.sql.parser", "parse", "sql.parse"),
    Target("repro.sql.planner", "Planner.plan", "sql.plan"),
    Target("repro.sql.compiler", "QueryCompiler.compile", "sql.compile"),
    Target("repro.sql.compiler", "CompiledQuery.assign_witness", "plonkish.witness"),
    # storage and serving
    Target("repro.db.commitment", "commit_database", "db.commit_database"),
    Target("repro.service.journal", "JobJournal.append", "service.journal_append"),
)

# ``repro.telemetry.begin_span`` marks the prover's rounds (and the
# verifier's phases) even with telemetry off; wrapping it books each
# such region as a ``phase.<name>`` span, which is how kernel time is
# assigned to a prover round.
PHASE_SOURCE = ("repro.telemetry", "begin_span")
PHASE_PREFIX = "phase."


class _PhaseHandle:
    """What a traced ``begin_span`` returns: the original stopwatch,
    whose ``end()`` also closes the tracer's phase span."""

    __slots__ = ("_inner", "_span", "_tracer")

    def __init__(self, inner: Any, span: list, tracer: "BoundaryTracer"):
        self._inner = inner
        self._span = span
        self._tracer = tracer

    def end(self, *args: Any, **kwargs: Any) -> Any:
        self._tracer.close(self._span)
        return self._inner.end(*args, **kwargs)

    stop = end

    def set(self, **attrs: Any) -> "_PhaseHandle":
        self._inner.set(**attrs)
        return self

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class BoundaryTracer:
    """Installs the wrappers, holds the spans."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.rep = 0  # stamped on every span; the run sets it per phase
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, key: str) -> list:
        stack = self._stack()
        span = [
            next(self._ids), stack[-1][ID] if stack else 0, key, 0.0, 0.0,
            1, 0, self.rep, threading.get_ident(),
        ]
        stack.append(span)
        span[START] = perf_counter()
        return span

    def close(self, span: list) -> None:
        end = perf_counter()
        stack = self._stack()
        # An exception may have skipped descendants' close: they end here.
        while stack:
            top = stack.pop()
            top[END] = end
            self.spans.append(top)  # list.append is atomic under the GIL
            if top is span:
                break

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        key, calls, units = target.key, target.calls, target.units
        stack_of, open_, close = self._stack, self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack and stack[-1][KEY] == key:
                # Same layer re-entered (absorb_points -> absorb_point,
                # coset_ifft -> ifft): the outer span already covers it.
                return fn(*args, **kwargs)
            span = open_(key)
            try:
                return fn(*args, **kwargs)
            finally:
                close(span)
                if calls is not None:
                    span[CALLS] = calls(args, kwargs)
                if units is not None:
                    span[UNITS] = units(args, kwargs)

        return traced

    def _wrap_begin_span(self, fn: Callable) -> Callable:
        def begin_span(name: str, **attrs: Any) -> Any:
            span = self.open(PHASE_PREFIX + name)
            return _PhaseHandle(fn(name, **attrs), span, self)

        return begin_span

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that still exists; note the rest."""
        if self._undo:
            raise RuntimeError("boundary tracer already installed")
        self.missing = []
        for target in self.targets:
            if not self._install_one(
                target.module, target.attr, lambda fn, t=target: self._wrap(fn, t)
            ):
                self.missing.append(f"{target.module}:{target.attr}")
        if not self._install_one(*PHASE_SOURCE, self._wrap_begin_span):
            self.missing.append(":".join(PHASE_SOURCE))

    def _install_one(
        self, module_name: str, attr: str, wrap: Callable[[Callable], Callable]
    ) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(method) if isinstance(owner, type) else None
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(wrap(raw.__func__))
            else:
                wrapped = wrap(raw)
            self._undo.append((owner, method, raw))
            setattr(owner, method, wrapped)
            return True
        original = getattr(module, attr, None)
        if not callable(original):
            return False
        wrapped = wrap(original)
        # ``from x import f`` copied the function into other modules'
        # namespaces; rebind every copy, not just the defining module's.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, alias, original))
                    setattr(mod, alias, wrapped)
        return True

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    # -- output ----------------------------------------------------------

    def write_jsonl(self, path: Any, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s[ID], "parent": s[PARENT], "name": s[KEY],
                    "start": s[START], "end": s[END], "calls": s[CALLS],
                    "units": s[UNITS], "workload": workload, "rep": s[REP],
                    "thread": s[THREAD],
                }) + "\n")


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.
    Children of one span run on its thread one after another, so the
    covered part is the sum of their durations."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own
