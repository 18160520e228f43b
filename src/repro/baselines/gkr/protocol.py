"""The GKR prover and verifier (non-interactive via Fiat-Shamir).

Per layer ``i`` (from the output down), the identity::

    W_i(z) = sum over (u, v) of
        add_i(z, u, v) * (W_{i+1}(u) + W_{i+1}(v))
      + mul_i(z, u, v) * W_{i+1}(u) * W_{i+1}(v)

is proven with one sumcheck over the combined (u, v) variables.  The
two resulting claims about ``W_{i+1}`` are merged with a random linear
combination (the standard two-point trick).  At the input layer the
verifier evaluates the input extension itself.

As in vSQL/Libra, the verifier is assumed to know the inputs (or a
commitment opening for them); this reproduction exposes the protocol
cost shape the paper's Table 4 measures: proving time, verification
time and proof size as functions of circuit width and depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.field import SCALAR_FIELD
from repro.baselines.gkr.circuit import GateKind, LayeredCircuit
from repro.baselines.gkr.multilinear import MultilinearPoly, eq_weights
from repro.baselines.gkr.sumcheck import (
    SumcheckProof,
    sumcheck_prove,
    sumcheck_verify,
)
from repro.transcript import Transcript


@dataclass
class LayerProof:
    sumcheck: SumcheckProof
    w_u: int
    w_v: int


@dataclass
class GkrProof:
    outputs: list[int]
    layers: list[LayerProof]

    def size_bytes(self) -> int:
        scalars = len(self.outputs)
        for layer in self.layers:
            scalars += 4 * len(layer.sumcheck.rounds) + 2
        return scalars * 32


def _wiring_tables(
    layer, prev_k: int, weights: list[int], p: int
) -> tuple[list[int], list[int]]:
    """Dense add/mul predicate tables over the combined (u, v) cube,
    weighted by ``weights[g]`` (the eq/z or combined two-point weights
    for each gate g of the layer)."""
    size = 1 << (2 * prev_k)
    add_table = [0] * size
    mul_table = [0] * size
    for g, gate in enumerate(layer.padded()):
        index = gate.left | (gate.right << prev_k)
        if gate.kind is GateKind.ADD:
            add_table[index] = (add_table[index] + weights[g]) % p
        else:
            mul_table[index] = (mul_table[index] + weights[g]) % p
    return add_table, mul_table


def _uv_value_tables(prev_values: list[int], prev_k: int, p: int):
    """B(u,v) = W(u) and C(u,v) = W(v) as dense combined tables."""
    n = 1 << prev_k
    b = [0] * (n * n)
    c = [0] * (n * n)
    for v in range(n):
        base = v << prev_k
        wv = prev_values[v]
        for u in range(n):
            b[base + u] = prev_values[u]
            c[base + u] = wv
    return b, c


def gkr_prove(
    circuit: LayeredCircuit,
    inputs: list[int],
) -> GkrProof:
    """Prove correct evaluation of ``circuit`` on ``inputs``."""
    p = SCALAR_FIELD.p
    values = circuit.evaluate(inputs)
    transcript = Transcript(b"gkr")
    outputs = values[-1]
    transcript.absorb_scalars(b"outputs", outputs)

    # Claim about the output layer's extension at a random point.
    out_k = circuit.layers[-1].k
    z = transcript.challenge_scalars(b"gkr-z", out_k)

    layer_proofs: list[LayerProof] = []
    # Weights over gates of the current layer (eq(z, g) initially).
    weights = eq_weights(z)
    for layer_index in range(len(circuit.layers) - 1, -1, -1):
        layer = circuit.layers[layer_index]
        prev_values = values[layer_index]
        prev_k = max(1, (len(prev_values) - 1).bit_length())
        add_t, mul_t = _wiring_tables(layer, prev_k, weights, p)
        b_t, c_t = _uv_value_tables(prev_values, prev_k, p)
        proof, point, _finals = sumcheck_prove((add_t, b_t, c_t, mul_t), transcript)
        u_point = point[:prev_k]
        v_point = point[prev_k:]
        w_poly = MultilinearPoly(prev_values)
        w_u = w_poly.evaluate(u_point)
        w_v = w_poly.evaluate(v_point)
        transcript.absorb_scalars(b"gkr-w", [w_u, w_v])
        layer_proofs.append(LayerProof(proof, w_u, w_v))
        if layer_index > 0:
            alpha = transcript.challenge_scalar(b"gkr-alpha")
            beta = transcript.challenge_scalar(b"gkr-beta")
            wu_weights = eq_weights(u_point)
            wv_weights = eq_weights(v_point)
            weights = [
                (alpha * a + beta * b) % p
                for a, b in zip(wu_weights, wv_weights)
            ]
    return GkrProof(outputs=outputs, layers=layer_proofs)


def gkr_verify(
    circuit: LayeredCircuit,
    inputs: list[int],
    proof: GkrProof,
) -> bool:
    """Verify a GKR proof (inputs known to the verifier, as in the
    vSQL model of public auxiliary data / committed inputs)."""
    p = SCALAR_FIELD.p
    if len(proof.layers) != len(circuit.layers):
        return False
    transcript = Transcript(b"gkr")
    transcript.absorb_scalars(b"outputs", proof.outputs)
    out_k = circuit.layers[-1].k
    if len(proof.outputs) != 1 << out_k:
        return False
    z = transcript.challenge_scalars(b"gkr-z", out_k)
    claim = MultilinearPoly(proof.outputs).evaluate(z)

    # Weight functional over gate indices: starts as eq(z, .), becomes
    # the alpha/beta combination after each layer.
    weight_points: list[tuple[int, list[int]]] = [(1, z)]

    for step, layer_index in enumerate(range(len(circuit.layers) - 1, -1, -1)):
        layer = circuit.layers[layer_index]
        prev_size = (
            len(circuit.layers[layer_index - 1].padded())
            if layer_index > 0
            else 1 << circuit.input_k
        )
        prev_k = max(1, (prev_size - 1).bit_length())
        layer_proof = proof.layers[step]
        ok, point, reduced = sumcheck_verify(claim, layer_proof.sumcheck, transcript)
        if not ok or len(point) != 2 * prev_k:
            return False
        u_point = point[:prev_k]
        v_point = point[prev_k:]
        # Evaluate the wiring predicates at (weights, u*, v*): sum over
        # gates of weight(g) * eq(u*, left) * eq(v*, right).
        eq_u = eq_weights(u_point)
        eq_v = eq_weights(v_point)
        add_val = 0
        mul_val = 0
        gates = layer.padded()
        gate_weight_tables = [(scale, eq_weights(pt)) for scale, pt in weight_points]
        for g, gate in enumerate(gates):
            w = 0
            for scale, table in gate_weight_tables:
                w = (w + scale * table[g]) % p
            term = w * eq_u[gate.left] % p * eq_v[gate.right] % p
            if gate.kind is GateKind.ADD:
                add_val = (add_val + term) % p
            else:
                mul_val = (mul_val + term) % p
        w_u, w_v = layer_proof.w_u % p, layer_proof.w_v % p
        expected = (add_val * ((w_u + w_v) % p) + mul_val * w_u % p * w_v) % p
        if expected != reduced:
            return False
        transcript.absorb_scalars(b"gkr-w", [w_u, w_v])
        if layer_index > 0:
            alpha = transcript.challenge_scalar(b"gkr-alpha")
            beta = transcript.challenge_scalar(b"gkr-beta")
            claim = (alpha * w_u + beta * w_v) % p
            weight_points = [(alpha, u_point), (beta, v_point)]
        else:
            # Input layer: check the claimed W values directly.
            k0 = circuit.input_k
            padded_inputs = list(inputs) + [0] * ((1 << k0) - len(inputs))
            input_poly = MultilinearPoly(padded_inputs)
            if input_poly.evaluate(u_point) != w_u:
                return False
            if input_poly.evaluate(v_point) != w_v:
                return False
    return True
