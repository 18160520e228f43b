"""Radix-2 FFT evaluation domains.

A PLONKish circuit with ``2^k`` rows is interpolated over the
multiplicative subgroup ``H = <omega>`` of order ``2^k``.  The quotient
(vanishing) argument needs evaluations on an *extended* coset domain of
size ``2^(k + extension)``: products of column polynomials have degree
beyond ``2^k``, and the domain has to determine their quotient by
``X^n - 1``.

All transforms operate in place on lists of raw ints.
"""

from __future__ import annotations

from repro import telemetry
from repro.algebra import backend as field_backend
from repro.algebra import fft_plan
from repro.algebra.field import Field

#: Coset power ladders ``[1, shift, shift^2, ..]`` by ``(size, shift,
#: p)``, process-local like the NTT plans: a domain's transforms leave
#: it unchanged, so the domains inside a proving key stay immutable.
_LADDERS: dict[tuple[int, int, int], list[int]] = {}


def fft_in_place(
    values: list[int], omega: int, p: int, filled: int | None = None
) -> None:
    """Iterative Cooley-Tukey NTT over GF(p).

    ``omega`` must be a primitive n-th root of unity for n = len(values).
    With ``filled`` the values are zero past the first ``filled``, and
    the stages that would only copy them are skipped.
    The bit-reversal indices and per-stage twiddle ladders come from
    the per-``(n, omega, p)`` plan cache (:mod:`repro.algebra.fft_plan`)
    instead of being rebuilt per call.  The active field backend may
    take the transform over entirely (numpy limb-vector butterflies
    above its size threshold); its output is bit-identical to the plan
    path, so proofs do not depend on which engine ran.
    """
    n = len(values)
    if n & (n - 1):
        raise ValueError("fft size must be a power of two")
    telemetry.incr("fft.calls")
    telemetry.incr("fft.points", n)
    telemetry.observe("fft.points_per_call", n)
    out = field_backend.active().ntt(values, omega, p)
    if out is not None:
        values[:] = out
        return
    fft_plan.ntt_in_place(values, fft_plan.plan_for(n, omega, p), filled)


class EvaluationDomain:
    """The order-``2^k`` multiplicative subgroup of a field, with
    forward/inverse NTTs and coset transforms.

    Parameters
    ----------
    field:
        The prime field (two-adicity must be at least ``k``).
    k:
        log2 of the domain size.
    """

    __slots__ = (
        "field",
        "k",
        "size",
        "omega",
        "omega_inv",
        "size_inv",
    )

    def __init__(self, field: Field, k: int):
        if k > field.two_adicity:
            raise ValueError(
                f"domain 2^{k} exceeds field two-adicity {field.two_adicity}"
            )
        self.field = field
        self.k = k
        self.size = 1 << k
        self.omega = field.root_of_unity_of_order(self.size)
        self.omega_inv = field.inv(self.omega)
        self.size_inv = field.inv(self.size)

    def _shift_powers(self, shift: int) -> list[int]:
        """The full-size power ladder of ``shift``, cached per process."""
        p = self.field.p
        shift %= p
        key = (self.size, shift, p)
        ladder = _LADDERS.get(key)
        if ladder is None:
            ladder = [1] * self.size
            for i in range(1, self.size):
                ladder[i] = ladder[i - 1] * shift % p
            _LADDERS[key] = ladder
        return ladder

    # -- transforms -----------------------------------------------------

    def fft(self, coeffs: list[int]) -> list[int]:
        """Coefficients -> evaluations over H.  Input shorter than the
        domain is zero-padded; longer input is rejected."""
        if len(coeffs) > self.size:
            raise ValueError("polynomial larger than domain")
        values = list(coeffs) + [0] * (self.size - len(coeffs))
        fft_in_place(values, self.omega, self.field.p)
        return values

    def ifft(self, evals: list[int]) -> list[int]:
        """Evaluations over H -> coefficients."""
        if len(evals) != self.size:
            raise ValueError("evaluation vector must match domain size")
        values = list(evals)
        fft_in_place(values, self.omega_inv, self.field.p)
        p, n_inv = self.field.p, self.size_inv
        return [v * n_inv % p for v in values]

    def _coset_scale(self, values: list[int], count: int, shift: int) -> None:
        """Scale ``values[i] *= shift^i`` for ``i < count`` in place,
        through the cached ladder."""
        p = self.field.p
        ladder = self._shift_powers(shift)
        for i in range(count):
            values[i] = values[i] * ladder[i] % p

    def coset_fft(self, coeffs: list[int], shift: int) -> list[int]:
        """Coefficients -> evaluations over the coset ``shift * H``.  A
        polynomial of ``size / 2^s`` coefficients or fewer skips the
        transform's first ``s`` stages (they only copy its zero
        padding)."""
        scaled = list(coeffs) + [0] * (self.size - len(coeffs))
        self._coset_scale(scaled, len(coeffs), shift)
        fft_in_place(scaled, self.omega, self.field.p, len(coeffs))
        return scaled

    def coset_ifft(self, evals: list[int], shift: int) -> list[int]:
        """Evaluations over ``shift * H`` -> coefficients."""
        coeffs = self.ifft(evals)
        shift_inv = self.field.inv(shift)
        self._coset_scale(coeffs, len(coeffs), shift_inv)
        return coeffs

    # -- batched transforms -----------------------------------------------

    def fft_many(self, coeffs_list: list[list[int]]) -> list[list[int]]:
        """:meth:`fft` of many polynomials."""
        p = self.field.p
        out = []
        for coeffs in coeffs_list:
            if len(coeffs) > self.size:
                raise ValueError("polynomial larger than domain")
            values = list(coeffs) + [0] * (self.size - len(coeffs))
            fft_in_place(values, self.omega, p)
            out.append(values)
        return out

    def ifft_many(self, evals_list: list[list[int]]) -> list[list[int]]:
        """:meth:`ifft` of many evaluation vectors."""
        p, n_inv = self.field.p, self.size_inv
        out = []
        for evals in evals_list:
            if len(evals) != self.size:
                raise ValueError("evaluation vector must match domain size")
            values = list(evals)
            fft_in_place(values, self.omega_inv, p)
            out.append([v * n_inv % p for v in values])
        return out

    def coset_fft_many(
        self, coeffs_list: list[list[int]], shift: int
    ) -> list[list[int]]:
        """:meth:`coset_fft` of many polynomials, every transform
        skipping the stages that the longest one's zero padding allows."""
        p = self.field.p
        filled = max(map(len, coeffs_list), default=0)
        out = []
        for coeffs in coeffs_list:
            if len(coeffs) > self.size:
                raise ValueError("polynomial larger than domain")
            scaled = list(coeffs) + [0] * (self.size - len(coeffs))
            self._coset_scale(scaled, len(coeffs), shift)
            fft_in_place(scaled, self.omega, p, filled)
            out.append(scaled)
        return out

    # -- helpers ----------------------------------------------------------

    def elements(self) -> list[int]:
        """All domain elements ``[1, omega, omega^2, ...]`` in order."""
        p = self.field.p
        out = [1] * self.size
        for i in range(1, self.size):
            out[i] = out[i - 1] * self.omega % p
        return out

    def vanishing_eval(self, x: int) -> int:
        """Evaluate the vanishing polynomial ``Z_H(X) = X^n - 1`` at x."""
        return (pow(x, self.size, self.field.p) - 1) % self.field.p

    def rotated_point(self, x: int, rotation: int) -> int:
        """``x * omega^rotation`` -- the query point for a column opened
        at a row offset (PLONK "rotation")."""
        p = self.field.p
        if rotation >= 0:
            return x * pow(self.omega, rotation, p) % p
        return x * pow(self.omega_inv, -rotation, p) % p

    def lagrange_basis_evals(self, x: int, count: int) -> list[int]:
        """Evaluate the first ``count`` Lagrange basis polynomials
        ``L_0(x) .. L_{count-1}(x)`` with ONE batch inversion.

        Matches ``[self.lagrange_basis_eval(i, x) for i in range(count)]``
        but replaces the per-basis field inversion with a single
        Montgomery batch inversion -- the verifier
        uses this to evaluate instance columns at each distinct opening
        point (see ``proving/verifier.py``).

        The active field backend may fuse the whole computation: the
        identity ``L_i(x) = (z/n) / (x * omega^-i - 1)`` (multiply the
        numerator and denominator by ``omega^-i``) lets a vector engine
        generate the denominators, invert them with a resident product
        tree, and scale them without crossing the int boundary between
        steps.  Same field elements out either way.
        """
        p = self.field.p
        count = min(count, self.size)
        x = x % p
        z = self.vanishing_eval(x)
        if z == 0:
            # x lies in the domain: L_i(omega^j) = [i == j].
            w = 1
            out = []
            for _ in range(count):
                out.append(1 if x == w else 0)
                w = w * self.omega % p
            return out
        n_inv = self.size_inv
        fused = field_backend.active().lagrange_evals(
            x,
            count,
            p=p,
            omega=self.omega,
            omega_inv=self.omega_inv,
            size=self.size,
            kk=z * n_inv % p,
        )
        if fused is not None:
            # The reference path counts one inversion per basis via
            # Field.batch_inv; keep the counters backend-independent.
            telemetry.incr("field.inversions", count)
            return fused
        omegas = [1] * count
        for i in range(1, count):
            omegas[i] = omegas[i - 1] * self.omega % p
        denominators = [(x - w) % p for w in omegas]
        inverses = self.field.batch_inv(denominators)
        return [
            z * w % p * n_inv % p * inv % p
            for w, inv in zip(omegas, inverses)
        ]

    def lagrange_basis_eval(self, i: int, x: int) -> int:
        """Evaluate the i-th Lagrange basis polynomial L_i(X) over H at
        an arbitrary point x (used by the verifier for instance columns).

        L_i(x) = (omega^i / n) * (x^n - 1) / (x - omega^i).
        """
        p = self.field.p
        omega_i = pow(self.omega, i, p)
        num = self.vanishing_eval(x) * omega_i % p * self.size_inv % p
        den = (x - omega_i) % p
        if den == 0:
            # x is in the domain: L_i(omega^j) = [i == j].
            return 1 if x == omega_i else 0
        return num * self.field.inv(den) % p

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EvaluationDomain(k={self.k}, n={self.size})"
