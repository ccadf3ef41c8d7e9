"""Vectorized Monte Carlo samplers for large-sample statistics.

The tree-valued sampler in `grow` is exact but one replicate at a time.
For goodness-of-fit experiments with 1e5 - 1e6 replicates we instead
simulate the minimal sufficient state across all replicates at once:
the bucket-type ball counts for K and the urns, and the root degree for
b = 1.  Y given K is a Beta-Binomial draw.  All follow the exact law of
the growth process; the Beta draw and the root degree's waiting times
are floating-point inversions.

The ball-count kernel makes one vectorized integer draw below the
deterministic total per step and then only column-wise array work: the
counts are kept as b - 1 cumulative-count columns, and the type drawn is
the number of columns at or below the draw.  Each column's move is linear
in those compare bits, so a step gathers nothing: it is the compares and
a few adds and multiplies into buffers made once.  The draws are numpy's
own bounded integers, formed from the generator's raw 64-bit words by
numpy's algorithm (Lemire's multiply-shift on 32-bit halves) in one
vectorized pass per step: the same numbers as `Generator.integers` and
the same generator state after, without its per-draw loop.  Totals past
2**32 are drawn by `Generator.integers`, as numpy moves to 64-bit words
there.  Draws are held in int32 while the total is below 2**31.  The
root-degree kernel draws one exponential per root hit and jumps to the
next hit through a hazard table, so it never steps the labels that miss
the root; degrees a apart (a the growth rule's label coefficient) share
a table up to a shift, so a table is built once per class of degrees
and moved by one add in each later round.
"""

from __future__ import annotations

import numpy as np

from . import families, urns
from .families import FamilySpec
from .grow import _as_rng, _check_draw_bound, _draw_dtype
from .trees import check_count

_WORD = 2**32  # numpy draws below totals up to this from 32-bit words
# the root-degree kernel keeps one hazard table per degree class while
# they take at most this many floats (32 MiB); past that every round
# rebuilds its table in one buffer
_KEPT_TABLE_FLOATS = 2**22


def _bounded_draws(bitgen, high: int, out: np.ndarray, prod: np.ndarray, held: tuple) -> tuple:
    """Fill `out` with numpy's bounded draws below `high`, 1 <= high <= 2**32.

    This is `Generator.integers(0, high, out.size, out.dtype)` for a PCG64
    generator `bitgen`, made from its raw words.  numpy takes 32-bit words
    x, the low half of each 64-bit word first and the high half held over
    (`held` = (has_uint32, uinteger) of the state), and returns m >> 32
    for m = x * high unless m mod 2**32 < 2**32 mod high, when it rejects
    x and takes the next word; int32 and int64 draws alike, high = 1 takes
    no word, and high = 2**32 takes words as they are, which the same
    formula gives.  So ceil((out.size - has) / 2) raw words serve unless a
    word is rejected, which one `min` over the low halves shows; then the
    draws are the words kept, in order, and more are drawn for those still
    owed.  `prod` is a uint64 buffer of at least out.size + 1 entries.
    Returns the held half word as numpy would leave it: its last high
    half stays in uinteger even once used.
    """
    has, word = held
    k = out.size
    if high == 1 or not k:
        out[:] = 0
        return held
    raw = bitgen.random_raw((k - has + 1) // 2).astype("<u8", copy=False).view("<u4")
    m = prod[:has + raw.size]
    np.multiply(raw, np.uint64(high), out=m[has:])
    if has:
        m[0] = word * high
    low, draws = m.view("<u4")[0::2], m.view("<u4")[1::2]
    word = int(raw[-1]) if raw.size else word
    threshold = _WORD % high
    if low[:k].min() >= threshold:
        out[:] = draws[:k]
        return m.size - k, word
    kept = np.flatnonzero(low >= threshold)
    if kept.size >= k:
        out[:] = draws[kept[:k]]
        return int(m.size - 1 - kept[k - 1]), word
    out[:kept.size] = draws[kept]
    return _bounded_draws(bitgen, high, out[kept.size:], prod, (0, word))


def _ball_dynamics(spec: FamilySpec, n: int, size: int, rng) -> tuple:
    """Run the type dynamics to tree size n for `size` replicates.

    Returns (counts, last_type): the integer ball counts at size n and the
    0-based type drawn on the final step (or -1 when n == 1).

    The state is b - 1 columns of cumulative counts q_0 + ... + q_k; the
    last one would be the deterministic total, so it is not kept.  A draw
    u below the total sets the compare bits g_j = [u >= cum_j], and the
    type drawn is t = sum_j g_j.  Drawing type t adds row t of the
    cumulative replacement matrix to the columns, and as g_0 >= g_1 >= ...
    that move is linear in the bits: column k gains rows[0][k] plus
    g_j * (rows[j + 1][k] - rows[j][k]) for each j whose jump is nonzero,
    at most three per column.  So a step is the draw, b - 1 compares and
    a few whole-array adds and multiplies into buffers made once; the bits
    are held as 0/1 in the draw's dtype, so no operation casts.  The type
    is formed from the bits after the last step, and counts are rebuilt
    from the columns once, at the end.

    The draws below 2**32 come from `_bounded_draws`: numpy's algorithm
    run on the same words in the same order, so each step's integers and
    the generator's end state equal those of `Generator.integers`.  Only
    the held half word lives outside the generator meanwhile; it is read
    from the state at the start and written back at the end.  Larger
    totals draw 64-bit words, which leave the held half alone.
    """
    model = urns.build_urn(spec)
    _check_draw_bound(model.total(n), spec, f"at step {n}")
    dtype = _draw_dtype(model.total(n))
    gen = _as_rng(rng).generator
    bitgen = gen.bit_generator
    state = bitgen.state
    held = state["has_uint32"], state["uinteger"]
    u = np.empty(size, dtype)
    prod = np.empty(size + 1, "<u8")
    # in the columns' dtype: a coefficient past its range wraps, and the
    # wrapped sums still leave each column exact
    cum_rows = np.cumsum(model.replacement, axis=1, dtype=dtype)[:, :-1]
    cum = [np.full(size, c, dtype) for c in np.cumsum(model.initial)[:-1]]
    bits = [np.zeros(size, dtype) for _ in cum]
    move = np.empty(size, dtype)
    jumps = [[(bits[j], d) for j, d in enumerate(col) if d]
             for col in np.diff(cum_rows, axis=0).T]
    for s in range(1, n):
        total = model.total(s)
        if total <= _WORD:
            held = _bounded_draws(bitgen, total, u, prod, held)
        else:
            u[:] = gen.integers(0, total, size=size, dtype=dtype)
        for c, g in zip(cum, bits):
            np.greater_equal(u, c, out=g)
        for c, base, terms in zip(cum, cum_rows[0], jumps):
            c += base
            for g, d in terms:
                c += g if d == 1 else np.multiply(g, d, out=move)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = held
    bitgen.state = state
    drawn = sum(bits, np.zeros(size, np.int64)) if n > 1 else np.full(size, -1, np.int64)
    cum.append(np.full(size, model.total(n), dtype))
    counts = np.empty((size, spec.b), np.int64)
    counts[:, 0] = cum[0]
    for k in range(1, spec.b):  # a count lies in [0, total], so the dtype holds it
        np.subtract(cum[k], cum[k - 1], out=counts[:, k])
    return counts, drawn


def sample_K(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` independent copies of K_n (exact distribution)."""
    families.require_named(spec)
    n, size = check_count(n, "n"), check_count(size, "size", 0)
    if n == 1 or spec.b == 1:
        return np.ones(size, dtype=np.int64)
    _, last = _ball_dynamics(spec, n, size, rng)
    k = last + 2  # drawing capacity k < b makes a bucket of size k + 1
    k[last == spec.b - 1] = 1  # drawing a saturated bucket starts a new one
    return k


def sample_urn_counts(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` independent copies of the urn ball counts at tree size n."""
    n, size = check_count(n, "n"), check_count(size, "size", 0)
    counts, _ = _ball_dynamics(spec, n, size, rng)
    return counts


def sample_Y(spec: FamilySpec, n: int, j: int, size: int, rng) -> np.ndarray:
    """`size` independent copies of Y_{n,j}.

    K_j = ell is drawn first with the ball-count kernel.  Given ell, j's
    subtree grows as a two-colour Pólya urn, so Y - 1 is BetaBinomial(n - j,
    ell + kappa, j - ell): a Beta(ell + kappa, j - ell) success probability,
    then a Binomial(n - j) count.  The law is exact; only the Beta variate
    is a floating-point draw.
    """
    families.require_named(spec)
    n, size = check_count(n, "n"), check_count(size, "size", 0)
    j = check_count(j, "label j", 1, n)
    stream = _as_rng(rng)
    if j <= spec.b:
        return np.full(size, n + 1 - j, dtype=np.int64)
    kap = float(families.kappa(spec))
    ell = sample_K(spec, j, size, stream.child(0))
    gen = stream.child(1).generator
    return 1 + gen.binomial(n - j, gen.beta(ell + kap, j - ell))


def _log_window(totals: np.ndarray, width: int) -> np.ndarray:
    """The sum of log totals[s] over s in (t - width, t], at each index t > width."""
    logs = np.zeros(totals.size)
    np.log(totals[1:], out=logs[1:])  # totals[0] may be <= 0; no window reads it
    window = logs.copy()
    for m in range(1, min(width, totals.size)):
        window[m:] += logs[:-m]
    return window


def sample_root_degree(spec: FamilySpec, n: int, size: int, rng) -> np.ndarray:
    """`size` copies of the root out-degree for b = 1 families.

    With b = 1 the root is always saturated, so at degree d it weighs
    w_d = node_weight(1, d) against the deterministic total T_s, and step
    1 always hits it, since it is the only bucket.  The kernel jumps from
    one root hit to the next instead of stepping every label.  In round d
    every live copy has degree d, so one hazard table serves them all:
    H(t) = sum over s in (lo, t] of -log(1 - w_d / T_s), from the least
    step lo a live copy has reached.  A copy at step `at` draws
    E = -log U as a standard exponential and hits next at the first t with
    H(t) > H(at) + E: its waiting time inverted from the exact survival
    function exp(-(H(t) - H(at))).  A copy whose next hit falls past
    step n - 1 keeps degree d.  The rounds end when no copy is live or
    w_d <= 0 (a full `ary` root).  The law is exact; only each gap is
    inverted in double precision.

    A round's table is made once per class of degrees, not once per
    round.  As w_{d+a} = w_d + a*bdeg and T_s = a*s + total_c, degrees d
    and d + a have T_s - w_{d+a} = T_{s-bdeg} - w_d, so up to a constant
    H_{d+a}(t) = H_d(t - bdeg) + sum over s in (t - bdeg, t] of log T_s:
    the table of degree d shifted by bdeg steps plus a window of bdeg log
    totals made once per call.  A class met for the first time builds its
    table by divide, log1p, negate and a left-to-right cumsum from lo;
    each later round of it is one add of a shifted slice and one
    subtraction that sets H(lo) = 0 again, so the rounding stays that of
    one round's values: at n = 1.2e4 every entry read was within 5e-12 of
    the exact sum, over the 3,236 rounds of `port` at alpha = 1/3.
    `recursive` (a = 1, bdeg = 0) builds one table, and `port` (a and bdeg
    the numerator and denominator of alpha + 1) at alpha = 1 two.  Tables
    are kept from round a on, so a call that ends sooner keeps none.
    `ary` (bdeg < 0) and rules whose a tables would pass
    `_KEPT_TABLE_FLOATS` rebuild every round's table in one buffer.
    """
    families.require_named(spec)
    if spec.b != 1:
        raise ValueError("root-degree kernel is for b = 1 families")
    n, size = check_count(n, "n"), check_count(size, "size", 0)
    gc = families.growth_coeffs(spec)
    gen = _as_rng(rng).generator
    deg = np.zeros(size, dtype=np.int64)
    if n == 1:
        return deg
    live = np.arange(size)
    at = np.ones(size, dtype=np.int64)  # steps taken, the last one a hit
    totals = gc.a * np.arange(n, dtype=np.float64) + gc.total_c  # T_s at index s
    keep = gc.bdeg >= 0 and gc.a * n <= _KEPT_TABLE_FLOATS
    kept = {}  # d mod a -> the table of the class's last round
    spare, window = np.empty(n), None
    d = 1
    while live.size and (w := gc.node_weight(1, d)) > 0:
        lo = int(at.min())
        table = kept.get(d % gc.a)
        if table is not None:
            # every round raises lo, so it has risen by a >= bdeg since the
            # class's last round: the shifted slice lies in what that wrote
            if gc.bdeg:
                window = _log_window(totals, gc.bdeg) if window is None else window
                np.add(table[lo - gc.bdeg:n - gc.bdeg], window[lo:], out=table[lo:])
                table[lo:] -= table[lo]
        else:  # H at index t, from index lo on
            table = np.empty(n) if keep and d >= gc.a else spare
            terms = table[lo + 1:]
            table[lo] = 0.0
            np.divide(-w, totals[lo + 1:], out=terms)
            np.log1p(terms, out=terms)
            np.negative(terms, out=terms)
            np.cumsum(terms, out=terms)
            if table is not spare:
                kept[d % gc.a] = table
        hazard = table[lo:]
        target = table[at] + gen.standard_exponential(live.size)
        # sorted keys search several times faster; live follows the order
        order = np.argsort(target)
        live = live[order]
        at = lo + np.searchsorted(hazard, target[order], side="right")
        hit = at < n
        deg[live[~hit]] = d
        live, at = live[hit], at[hit]
        d += 1
    deg[live] = d
    return deg
