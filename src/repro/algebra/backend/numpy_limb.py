"""numpy limb-vector NTT (the engine behind :func:`repro.algebra.backend.ntt`).

A batch of field elements is a C-contiguous ``(L, n)`` int64 array of
``W = 28``-bit limbs, limb-major: each limb row is contiguous, so a
twiddle product accumulates with ``L`` contiguous block adds and the
carry/fold passes are whole-array ops.  The boundary representation
stays plain Python ints; :meth:`_Ctx.lift` / :meth:`_Ctx.lower` convert
whole batches at once through little-endian byte buffers.

Each stage's twiddle product accumulates straight into ``L`` limb rows
plus one catch row, against per-stage tables of ``tw * 2^(W*i) mod p``;
the catch row folds back in 14-bit halves so every partial product
stays far below 2^63.  Stage outputs are *bounded*, not canonical --
``|limb| <= OUT_LIM`` -- and feed the next stage directly;
:meth:`_Ctx.canon` produces canonical limbs only at the boundary.
Because NTT outputs are unique field elements, everything the engine
returns is identical to the plan transform bit for bit.

Magnitude contract: the transform tracks a bound ``mag`` on
``max |limb|`` and keeps ``L * mag * MASK <= 2^62`` before every
twiddle product (``_Ctx.normalize`` restores ``mag <= OUT_LIM`` in two
carry rounds).  The engine only supports sparse primes ``p = 2^s + c``
with small ``c`` (both Pasta fields qualify); other moduli are
declined and fall back to the plan transform.
"""

from __future__ import annotations

import threading

import numpy as np

#: limb width in bits; 10 limbs cover the 255-bit Pasta primes with
#: headroom for bounded (non-canonical) intermediate limbs.
W = 28
MASK = (1 << W) - 1
#: the catch row folds back in HALF_W-bit halves so every fold
#: product stays below 2^42.
HALF_W = 14
#: int64 lanes per element in the conversion byte buffers.
LANES = 5
NBYTES = 8 * LANES
#: carry-pass block width (empirically fastest on streaming cores;
#: chunking finer than this costs more in ufunc dispatch than it saves
#: in cache).
CHUNK = 4096
#: bound on |limb| of every twiddle-product output / normalized array.
OUT_LIM = (1 << 29) + 128
#: product certification: L * mag * MASK must stay below this.
MAX_PROD = 1 << 62
#: largest |limb| any array may reach before it must be normalized
#: (canonicalization is certified from this bound).
ADD_LIM = 1 << 31

#: NTT stages with length <= EARLY_B run on a transposed layout so
#: every ufunc keeps a long contiguous inner dimension.
EARLY_B = 64

#: magnitude self-checks (certified unnecessary; see _twiddle_mul) --
#: the limb-parity tests switch them on.
_DEBUG = False


# -- per-modulus context ------------------------------------------------------

_CTXS: dict = {}


def ctx_for(p: int):
    """The limb context for modulus ``p``, or None when unsupported."""
    ctx = _CTXS.get(p)
    if ctx is None and p not in _CTXS:
        ctx = _Ctx(p) if _supported(p) else None
        _CTXS[p] = ctx
    return ctx


def _supported(p: int) -> bool:
    """Sparse-prime test: p = 2^s + c, c small, s inside the top limb."""
    if p < 3 or p % 2 == 0:
        return False
    s = p.bit_length() - 1
    c = p - (1 << s)
    nl = (s + W) // W  # limbs needed for canonical values
    return (
        nl * W <= 8 * NBYTES - 24  # conversion lanes have headroom
        and c >= 1
        and c.bit_length() <= s // 2
        and W * (nl - 1) < s  # bit s lands strictly inside the top limb
    )


class _Ctx:
    """Derived constants + kernels for one sparse prime modulus."""

    def __init__(self, p: int):
        self.p = p
        s = p.bit_length() - 1
        self.s = s
        self.c = p - (1 << s)
        self.L = (s + W) // W
        l = self.L
        self.q2_shift = s - W * (l - 1)

        def row(v, nl=l):
            return [(v >> (W * j)) & MASK for j in range(nl)]

        #: limbs of 2^(W*L) mod p: folds a carry out of the top limb.
        self.fold0 = np.array(row(pow(2, W * l, p)), np.int64)
        #: limbs of 2^(W*L + 14) / 2^(W*(L+1)) mod p: fold the 14-bit
        #: halves / the overflow of a catch-row split.
        self.fold0_14 = np.array(row(pow(2, W * l + HALF_W, p)), np.int64)
        self.fold1 = np.array(row(pow(2, W * (l + 1), p)), np.int64)
        self.p_limbs = np.array(row(p), np.int64)
        nc = (self.c.bit_length() + W - 1) // W
        self.c_limbs = np.array(row(self.c, nc), np.int64).reshape(nc, 1)
        self.nc = nc
        #: NTT twiddle/permutation cache keyed (n, omega); read-only
        #: after construction, so safe to share across threads.
        self._ntt: dict = {}
        #: mutable scratch (carry buffers, NTT ping-pong buffers) is
        #: thread-local: concurrent verifier threads must not share it.
        self._scratch = threading.local()

    # -- conversions ----------------------------------------------------

    def lift(self, vals) -> "np.ndarray":
        """Canonical ints in [0, p) -> (L, n) int64 limbs."""
        out = np.empty((self.L, len(vals)), np.int64)
        self.lift_into(vals, out)
        return out

    def lift_into(self, vals, out) -> None:
        n = len(vals)
        buf = b"".join(
            map(int.to_bytes, vals, (NBYTES,) * n, ("little",) * n)
        )
        lanes = np.frombuffer(buf, np.uint8).reshape(n, NBYTES).view(np.uint64)
        for j in range(self.L):
            bit = W * j
            k, sh = bit >> 6, bit & 63
            acc = lanes[:, k] >> sh
            if sh + W > 64:
                acc = acc | (lanes[:, k + 1] << (64 - sh))
            out[j] = acc & np.uint64(MASK)

    def lower(self, x: "np.ndarray") -> list:
        """Bounded (L, n) limbs -> canonical Python ints."""
        r = self.canon(x)
        n = r.shape[1]
        ru = r.view(np.uint64)
        lanes = self._buf_for("lanes", (n, LANES), np.uint64)
        lanes[:] = 0
        for j in range(self.L):
            bit = W * j
            k, sh = bit >> 6, bit & 63
            lanes[:, k] |= ru[j] << sh
            if sh + W > 64:
                lanes[:, k + 1] |= ru[j] >> (64 - sh)
        mv = memoryview(lanes.tobytes())
        return [
            int.from_bytes(mv[i * NBYTES : (i + 1) * NBYTES], "little")
            for i in range(n)
        ]

    def _buf_for(self, tag: str, shape, dtype) -> "np.ndarray":
        """Thread-local reusable buffer (avoids fresh-page mmap churn on
        every call; large ``np.empty`` blocks fault in otherwise)."""
        cache = getattr(self._scratch, "bufs", None)
        if cache is None:
            cache = self._scratch.bufs = {}
        key = (tag, shape)
        buf = cache.get(key)
        if buf is None:
            buf = cache[key] = np.empty(shape, dtype)
        return buf

    # -- bounded arithmetic ---------------------------------------------

    def _carry_round(self, r, rq, tmp=None) -> None:
        """One bulk carry round with the top spill folded via fold0."""
        l = self.L
        np.right_shift(r, W, out=rq)
        r &= MASK
        r[1:] += rq[:-1]
        if tmp is None:
            r += self.fold0.reshape(l, 1) * rq[l - 1]
        else:
            np.multiply(self.fold0.reshape(l, 1), rq[l - 1], out=tmp)
            r += tmp

    def normalize(self, r, mag: float) -> float:
        """Two chunked carry rounds: |limb| <= mag -> <= OUT_LIM.

        Certified for ``mag <= ADD_LIM`` (and a little beyond: the NTT
        calls it from at most ~2^31.1)."""
        n = r.shape[1]
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            shape = (self.L, hi - lo)
            rq = self._buf_for("norm_q", shape, np.int64)
            tmp = self._buf_for("norm_t", shape, np.int64)
            blk = r[:, lo:hi]
            self._carry_round(blk, rq, tmp)
            self._carry_round(blk, rq, tmp)
        return float(OUT_LIM)

    # -- canonicalization ------------------------------------------------

    def canon(self, x: "np.ndarray") -> "np.ndarray":
        """Bounded limbs (|limb| < 2^33) -> canonical limbs in [0, p).

        Returns a reusable scratch buffer: consume it before the next
        ``canon``/``lower`` call on this thread."""
        l = self.L
        n = x.shape[1]
        r = self._buf_for("canon_r", (l, n), np.int64)
        np.copyto(r, x)
        rq = self._buf_for("canon_q", (l, n), np.int64)
        # Two bulk rounds shrink |limb| to ~2^29; the sequential sweep
        # then leaves limbs 0..L-2 in [0, MASK] exactly.
        self._carry_round(r, rq)
        self._carry_round(r, rq)
        self._sweep(r)
        # Two rounds of v -= (v >> s) * p handle any remaining excess
        # (the second absorbs the first's c-subtraction slack), then
        # one conditional += p fixes negatives.
        for _ in range(2):
            q2 = r[l - 1] >> self.q2_shift
            r[l - 1] -= q2 << self.q2_shift
            r[: self.nc] -= q2 * self.c_limbs
            self._sweep(r)
        neg = r[l - 1] < 0
        if np.any(neg):
            r[:, neg] += self.p_limbs.reshape(l, 1)
            self._sweep(r)
        return r

    def _sweep(self, r) -> None:
        """Exact sequential carry propagation (top limb keeps excess)."""
        for k in range(self.L - 1):
            carry = r[k] >> W
            r[k] &= MASK
            r[k + 1] += carry

    # -- NTT ---------------------------------------------------------------

    def _ntt_tables(self, n: int, omega: int):
        key = (n, omega)
        tab = self._ntt.get(key)
        if tab is None:
            from repro.algebra import fft_plan

            plan = fft_plan.plan_for(n, omega, self.p)
            perm = np.arange(n)
            for i, j in plan.swaps:
                perm[i], perm[j] = perm[j], perm[i]
            # Per stage, precompute the limbs of tw * 2^(W*i) mod p for
            # every limb shift i: the stage product then accumulates
            # directly into L+1 limb rows (sum_i hi_i * shifted_i) with
            # no high rows and no fold dgemm at all.
            stages = []
            p = self.p
            for si, ws in enumerate(plan.stages):
                if si == 0:
                    stages.append(None)  # twiddles are all 1
                    continue
                shifted = []
                cur_ws = list(ws)
                for _ in range(self.L):
                    shifted.append(self.lift(cur_ws))
                    cur_ws = [(v << W) % p for v in cur_ws]
                stages.append(shifted)
            tab = self._ntt[key] = (perm, stages)
        return tab

    def _ntt_bufs_for(self, n: int):
        cache = getattr(self._scratch, "ntt_bufs", None)
        if cache is None:
            cache = self._scratch.ntt_bufs = {}
        bufs = cache.get(n)
        if bufs is None:
            l = self.L
            bufs = cache[n] = (
                np.empty((l, n), np.int64),
                np.empty((l, n), np.int64),
                np.empty((l, n // 2), np.int64),
                np.empty(((l + 1), n // 2), np.int64),
                np.empty(((l + 1), n // 2), np.int64),
                np.empty((l, n // 2), np.int64),
            )
        return bufs

    def _twiddle_mul(self, hi, tws, c, q, t3):
        """``hi * tw mod p`` for one NTT stage via shifted twiddle tables.

        ``tws[i]`` is a broadcast-shaped view of the canonical limbs of
        ``tw * 2^(W*i) mod p``; ``hi``/``t3`` are ``(L, *S)`` views and
        ``c``/``q`` are ``(L+1, *S)`` views of shared stage scratch.
        The product accumulates straight into L limb rows plus one
        catch row; two carry passes bracket a 14-bit-split fold of the
        catch row, and a single finalize round lands every limb at
        <= 2^29 + 1 (the split keeps each fold product <= 2^42, so
        carries collapse to {0, 1} immediately).  Callers keep
        ``L * mag * MASK <= 2^62``.
        """
        l = self.L
        ones = (1,) * (hi.ndim - 1)
        np.multiply(tws[0], hi[0], out=c[:l])
        c[l] = 0
        for i in range(1, l):
            np.multiply(tws[i], hi[i], out=q[:l])
            c[:l] += q[:l]
        # pass 1 over L+1 rows; the catch row picks up row L-1's carry
        np.right_shift(c, W, out=q)
        np.bitwise_and(c, MASK, out=c)
        c[1:] += q[:-1]
        # split-fold the catch row (weight 2^(W*L)): its 28-bit excess
        # folds via fold1, its low limb in 14-bit halves via
        # fold0/fold0_14 so every product stays below 2^42
        f0 = self.fold0.reshape((l,) + ones)
        np.right_shift(c[l], W, out=q[l])
        np.bitwise_and(c[l], MASK, out=c[l])
        np.multiply(self.fold1.reshape((l,) + ones), q[l], out=t3)
        c[:l] += t3
        np.right_shift(c[l], HALF_W, out=q[l])
        np.bitwise_and(c[l], (1 << HALF_W) - 1, out=c[l])
        np.multiply(f0, c[l], out=t3)
        c[:l] += t3
        np.multiply(self.fold0_14.reshape((l,) + ones), q[l], out=t3)
        c[:l] += t3
        # pass 2; the catch row is re-used for row L-1's (tiny) carry
        c[l] = 0
        np.right_shift(c, W, out=q)
        np.bitwise_and(c, MASK, out=c)
        c[1:] += q[:-1]
        np.multiply(f0, c[l], out=t3)
        c[:l] += t3
        # one finalize round
        cl, ql = c[:l], q[:l]
        np.right_shift(cl, W, out=ql)
        np.bitwise_and(cl, MASK, out=cl)
        cl[1:] += ql[:-1]
        np.multiply(f0, ql[l - 1], out=t3)
        cl += t3
        if _DEBUG and np.any(np.abs(cl) > OUT_LIM):
            raise AssertionError(  # pragma: no cover
                "twiddle mul finalize exceeded OUT_LIM"
            )
        return cl

    def ntt(self, values: list, omega: int) -> list:
        """Cooley-Tukey NTT: butterflies as strided block ops, twiddle
        products via per-stage shifted tables (built once per
        (n, omega) and shared across threads).

        Stages with ``length <= EARLY_B`` run on a transposed
        ``(L, EARLY_B, n/EARLY_B)`` layout: the butterfly axis moves to
        the middle and every ufunc keeps a long contiguous inner
        dimension, instead of 2..32-element inner loops that are pure
        dispatch overhead.  Two transpose passes bracket the block.
        """
        n = len(values)
        l = self.L
        perm, stages = self._ntt_tables(n, omega)
        va, vb, hib, c2, q2, tb = self._ntt_bufs_for(n)
        self.lift_into(values, vb)
        np.take(vb, perm, axis=1, out=va)
        mag = float(MASK)
        cur, nxt = va, vb
        length = 2
        si = 0
        bw = EARLY_B if n >= 4 * EARLY_B else 0
        if bw:
            nb0 = n // bw
            np.copyto(
                vb.reshape(l, bw, nb0),
                va.reshape(l, nb0, bw).transpose(0, 2, 1),
            )
            cur, nxt = vb, va
        while length <= bw:
            tw = stages[si]
            half = length // 2
            g = bw // length
            if tw is not None and l * mag * MASK >= MAX_PROD:
                mag = self.normalize(cur, mag)
            v4 = cur.reshape(l, g, length, nb0)
            lo4 = v4[:, :, :half, :]
            if tw is None:
                t4 = v4[:, :, half:, :]
                t_mag = mag
            else:
                hi4 = hib.reshape(l, g, half, nb0)
                np.copyto(hi4, v4[:, :, half:, :])
                tws = [t[:, None, :, None] for t in tw]
                t4 = self._twiddle_mul(
                    hi4,
                    tws,
                    c2.reshape(l + 1, g, half, nb0),
                    q2.reshape(l + 1, g, half, nb0),
                    tb.reshape(l, g, half, nb0),
                )
                t_mag = float(OUT_LIM)
            o4 = nxt.reshape(l, g, length, nb0)
            np.add(lo4, t4, out=o4[:, :, :half, :])
            np.subtract(lo4, t4, out=o4[:, :, half:, :])
            mag = mag + t_mag
            cur, nxt = nxt, cur
            length *= 2
            si += 1
        if bw:
            # back to the natural layout for the long-stride tail stages
            np.copyto(
                nxt.reshape(l, nb0, bw),
                cur.reshape(l, bw, nb0).transpose(0, 2, 1),
            )
            cur, nxt = nxt, cur
        while si < len(stages):
            tw = stages[si]
            half = length // 2
            nb = n // length
            # hi feeds a mul against canonical twiddles: normalize the
            # whole vector first when the product certification would
            # break (before the lo/hi views split, so both halves share
            # the reduced magnitude).
            if tw is not None and l * mag * MASK >= MAX_PROD:
                mag = self.normalize(cur, mag)
            v3 = cur.reshape(l, nb, length)
            lo3 = v3[:, :, :half]
            if tw is None:
                t3 = v3[:, :, half:]
                t_mag = mag
            else:
                hi3 = hib.reshape(l, nb, half)
                np.copyto(hi3, v3[:, :, half:])
                tws = [t[:, None, :] for t in tw]
                t3 = self._twiddle_mul(
                    hi3,
                    tws,
                    c2.reshape(l + 1, nb, half),
                    q2.reshape(l + 1, nb, half),
                    tb.reshape(l, nb, half),
                )
                t_mag = float(OUT_LIM)
            o3 = nxt.reshape(l, nb, length)
            np.add(lo3, t3, out=o3[:, :, :half])
            np.subtract(lo3, t3, out=o3[:, :, half:])
            mag = mag + t_mag
            cur, nxt = nxt, cur
            length *= 2
            si += 1
        return self.lower(cur)
