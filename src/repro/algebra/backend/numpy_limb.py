"""numpy limb-vector field arithmetic (the ``numpy`` backend).

A batch of field elements is a C-contiguous ``(L, n)`` int64 array of
``W = 28``-bit limbs, limb-major: each limb row is contiguous, so the
schoolbook product accumulates with ``L`` contiguous block adds and the
carry/fold passes are whole-array ops.  The boundary representation
stays plain Python ints; :meth:`_Ctx.lift` / :meth:`_Ctx.lower` convert
whole batches at once through little-endian byte buffers.

Reduction uses the *fold dgemm* trick rather than Montgomery form: the
high product limbs are mapped back into ``L`` limbs by two exact
float64 matrix products against the fold matrix split into 14-bit
halves (every partial sum stays far below 2^53, so float64 arithmetic
is exact), followed by bulk carry rounds.  Outputs are *bounded*, not
canonical -- ``|limb| <= OUT_LIM`` -- and chain directly into further
muls/adds; :meth:`_Ctx.canon` produces canonical limbs only at the
boundary.  Because inverses and NTT outputs are unique field elements,
everything this backend returns is identical to the scalar reference
path bit for bit.

Magnitude contract: callers track a per-array bound ``mag`` on
``max |limb|`` and must keep ``L * mag_a * mag_b <= 2^62`` for every
product (``_Ctx.normalize`` restores ``mag <= OUT_LIM`` in two carry
rounds).  The engine only supports sparse primes ``p = 2^s + c``
with small ``c`` (both Pasta fields qualify); other moduli are
declined and fall back to the reference path.
"""

from __future__ import annotations

import threading

from repro.errors import BatchInversionError

try:  # the backend registers as unavailable when numpy is absent
    import numpy as np
except ImportError:  # pragma: no cover - exercised via availability flag
    np = None

#: limb width in bits; 10 limbs cover the 255-bit Pasta primes with
#: headroom for bounded (non-canonical) intermediate limbs.
W = 28
MASK = (1 << W) - 1
#: the fold matrix is split into HALF_W-bit halves so the float64
#: dgemm partial sums stay exact (< 2^53).
HALF_W = 14
#: int64 lanes per element in the conversion byte buffers.
LANES = 5
NBYTES = 8 * LANES
#: mul block width (empirically fastest on streaming cores; chunking
#: finer than this costs more in ufunc dispatch than it saves in cache).
CHUNK = 4096
#: bound on |limb| of every mul output / normalized array (the
#: three-round finalizes land at 2^29 + ~100 in the worst chains).
OUT_LIM = (1 << 29) + 128
#: product certification: L * mag_a * mag_b must stay below this.
MAX_PROD = 1 << 62
#: largest |limb| any array may reach before it must be normalized
#: (canonicalization is certified from this bound).
ADD_LIM = 1 << 31

#: NTT stages with length <= EARLY_B run on a transposed layout so
#: every ufunc keeps a long contiguous inner dimension.
EARLY_B = 64

#: product-tree level width at which inversion switches to the scalar
#: Montgomery core.
TREE_CUTOFF = 256

#: magnitude self-checks (certified unnecessary; see _mul_chunk) --
#: the limb-parity tests switch them on.
_DEBUG = False


def available() -> bool:
    return np is not None


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
    if np is None or p < 3 or p % 2 == 0:
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


class _Ws:
    """Preallocated per-width scratch for one mul chunk."""

    __slots__ = ("c", "q", "chf", "rf", "rq", "ob", "res")

    def __init__(self, l: int, n: int):
        self.c = np.zeros((2 * l + 1, n), np.int64)
        self.q = np.empty((2 * l + 1, n), np.int64)
        self.chf = np.empty((l + 1, n), np.float64)
        self.rf = np.empty((2 * l, n), np.float64)
        self.rq = np.empty((l, n), np.int64)
        self.ob = np.empty((l, n), np.int64)
        self.res = np.empty((l, n), np.int64)


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

        # Fold matrix: column t holds the limbs of 2^(W*(L+t)) mod p --
        # it maps the L+1 high product rows back into L limbs.  Split
        # into HALF_W-bit halves so each dgemm stays float64-exact.
        fold = np.array(
            [row(pow(2, W * (l + t), p)) for t in range(l + 1)], np.int64
        ).T.copy()
        fold_lo = (fold & ((1 << HALF_W) - 1)).astype(np.float64)
        fold_hi = (fold >> HALF_W).astype(np.float64)
        #: both 14-bit halves stacked so the fold is one dgemm call.
        self.fold_st = np.ascontiguousarray(np.vstack([fold_lo, fold_hi]))
        #: limbs of 2^(W*L) mod p: folds a carry out of the top limb.
        self.fold0 = np.array(row(pow(2, W * l, p)), np.int64)
        #: limbs of 2^(W*L + 14) / 2^(W*(L+1)) mod p: fold the 14-bit
        #: halves / the overflow of a catch-row split (NTT stage mul).
        self.fold0_14 = np.array(row(pow(2, W * l + HALF_W, p)), np.int64)
        self.fold1 = np.array(row(pow(2, W * (l + 1), p)), np.int64)
        #: limbs of 2^(W*(2L+1)) mod p: folds the product catch-row's
        #: pre-split carry (weight = one limb above the catch row).
        self.fold_top = np.array(row(pow(2, W * (2 * l + 1), p)), np.int64)
        self.p_limbs = np.array(row(p), np.int64)
        nc = (self.c.bit_length() + W - 1) // W
        self.c_limbs = np.array(row(self.c, nc), np.int64).reshape(nc, 1)
        self.nc = nc
        #: NTT twiddle/permutation cache keyed (n, omega); read-only
        #: after construction, so safe to share across threads.
        self._ntt: dict = {}
        #: mutable scratch (mul workspaces, NTT ping-pong buffers) is
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

    def _ws_for(self, n: int) -> _Ws:
        cache = getattr(self._scratch, "ws", None)
        if cache is None:
            cache = self._scratch.ws = {}
        ws = cache.get(n)
        if ws is None:
            ws = cache[n] = _Ws(self.L, n)
        return ws

    def mul_into(self, a, b, out) -> None:
        """``out = a * b mod p`` (value-exact; limbs bounded by OUT_LIM).

        ``a`` or ``b`` may be a broadcast ``(L, 1)`` column (a scalar
        operand).  Callers guarantee ``L * mag_a * mag_b <= 2^62``.
        Wide batches run in CHUNK-column blocks so the workspace stays
        cache-resident.
        """
        n = out.shape[1]
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            self._mul_chunk(
                a if a.shape[1] == 1 else a[:, lo:hi],
                b if b.shape[1] == 1 else b[:, lo:hi],
                out[:, lo:hi],
            )

    def mul(self, a, b):
        n = max(a.shape[1], b.shape[1])
        out = np.empty((self.L, n), np.int64)
        self.mul_into(a, b, out)
        return out

    def _mul_chunk(self, a, b, out) -> None:
        l = self.L
        n = out.shape[1]
        w = self._ws_for(n)
        c, q = w.c, w.q
        # Schoolbook product: L contiguous block-adds; the first
        # iteration writes rows 0..L-1 directly, rows L..2L start at 0.
        np.multiply(a[0], b, out=c[:l])
        c[l:] = 0
        for i in range(1, l):
            np.multiply(a[i], b, out=q[:l])
            c[i : i + l] += q[:l]
        # Two carry passes restricted to rows L-1..2L -- only the dgemm
        # input rows need limbs below 2^28; rows 0..L-2 ride along into
        # the finalize at full product magnitude (int64 stays safe:
        # every recombined limb is < 2^62).  Row 2L catches row 2L-1's
        # carry and keeps its own (re-shifted) so nothing is lost.
        cs = c[l - 1 :]
        qs = q[: l + 2]
        for _ in range(2):
            np.right_shift(cs, W, out=qs)
            np.bitwise_and(cs, MASK, out=cs)
            cs[1:] += qs[:-1]
            cs[l + 1] += qs[l + 1] << W
        # Pre-split the catch row so the dgemm input stays below 2^28.
        q_top = c[2 * l] >> W
        c[2 * l] &= MASK
        # Fold the L+1 high rows back into L limbs with one exact
        # float64 matmul against the stacked 14-bit fold halves (every
        # partial sum stays < 2^53).
        np.copyto(w.chf, c[l:], casting="unsafe")
        np.matmul(self.fold_st, w.chf, out=w.rf)
        # Finalize in contiguous scratch when `out` is a strided view
        # (a column block of a wider array) -- the dozen finalize
        # passes then run at full speed and one copy pays the stride.
        res = out if out.flags.c_contiguous else w.res
        np.copyto(res, w.rf[:l], casting="unsafe")
        np.copyto(w.rq, w.rf[l:], casting="unsafe")
        w.rq <<= HALF_W
        res += w.rq
        res += c[:l]
        np.multiply(self.fold_top.reshape(l, 1), q_top, out=w.ob)
        res += w.ob
        # Finalize: three carry+top-fold rounds bring |limb| under
        # OUT_LIM unconditionally.  Certification sketch: fold0 and
        # fold_top are canonical (< p < 2^255), so their top limb is
        # <= 4 and the fold matrix's top row is <= 4; row L-1 enters at
        # ~2^33.6, so its carry shrinks to ~2^5.6 after round 1, to
        # {0, 1} after round 2, and round 3 lands every limb at
        # <= MASK + MASK + small < OUT_LIM.
        rq = w.rq
        for _ in range(3):
            self._carry_round(res, rq, w.ob)
        if _DEBUG and np.any(np.abs(res) > OUT_LIM):
            raise AssertionError("mul finalize exceeded OUT_LIM")  # pragma: no cover
        if res is not out:
            np.copyto(out, res)

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
            w = self._ws_for(hi - lo)
            blk = r[:, lo:hi]
            self._carry_round(blk, w.rq, w.ob)
            self._carry_round(blk, w.rq, w.ob)
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

    # -- batch inversion -------------------------------------------------

    def _tree_bufs_for(self, n: int):
        """Preallocated level arrays for the up and down sweeps."""
        cache = getattr(self._scratch, "tree_bufs", None)
        if cache is None:
            cache = self._scratch.tree_bufs = {}
        bufs = cache.get(n)
        if bufs is None:
            widths = [n]
            while widths[-1] > TREE_CUTOFF:
                wd = widths[-1]
                widths.append(wd // 2 + (wd & 1))
            ups = [np.empty((self.L, w), np.int64) for w in widths[1:]]
            downs = [np.empty((self.L, w), np.int64) for w in widths[:-1]]
            bufs = cache[n] = (ups, downs)
        return bufs

    def tree_inv_arr(self, arr: "np.ndarray", scale: int = 1) -> "np.ndarray":
        """Array-resident product-tree inversion (limbs in, limbs out).

        Pairs first half against second half at every level, so both
        sweeps run on contiguous views and the down-sweep is two muls
        per level -- no gathers, scatters, or assembling copies.  The
        root level inverts with the scalar Montgomery core.  All level
        storage is preallocated per ``n``; the result lives in a
        reusable buffer (consume before the next call, or copy).
        """
        p = self.p
        ups, downs = self._tree_bufs_for(arr.shape[1])
        levels = [arr]
        cur = arr
        for nxt in ups:
            wd = cur.shape[1]
            half = wd // 2
            self.mul_into(cur[:, :half], cur[:, half : 2 * half], nxt[:, :half])
            if wd & 1:
                nxt[:, half] = cur[:, wd - 1]
            levels.append(nxt)
            cur = nxt
        root = self.lower(cur)
        m = len(root)
        prefix = [0] * m
        acc = 1
        for i, v in enumerate(root):
            prefix[i] = acc
            acc = acc * v % p
        if not acc:  # some input was zero; say which before pow() refuses
            raise BatchInversionError(
                next(i for i, v in enumerate(self.lower(arr)) if not v % p)
            )
        inv_acc = pow(acc, -1, p) * scale % p
        out = [0] * m
        for i in range(m - 1, -1, -1):
            out[i] = prefix[i] * inv_acc % p
            inv_acc = inv_acc * root[i] % p
        inv = self.lift(out)
        for lvl, nxt in zip(reversed(levels[:-1]), reversed(downs)):
            wd = lvl.shape[1]
            half = wd // 2
            # inv[i] = 1/(lvl[i] * lvl[half+i]); two muls on contiguous
            # half-views recover both children (the strided output
            # halves are absorbed by the mul's scratch finalize).
            self.mul_into(inv[:, :half], lvl[:, half : 2 * half], nxt[:, :half])
            self.mul_into(inv[:, :half], lvl[:, :half], nxt[:, half : 2 * half])
            if wd & 1:
                nxt[:, wd - 1] = inv[:, half]
            inv = nxt
        return inv

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
