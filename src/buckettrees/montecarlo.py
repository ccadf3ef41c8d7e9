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
a few adds and multiplies into buffers made once.  Draws are made in
int32 while the total is below 2**31, where numpy gives the same integers
as in int64.  The root-degree kernel draws one exponential per root hit
and jumps to the next hit through a hazard table, so it never steps the
labels that miss the root; the table is rewritten in place each round.
"""

from __future__ import annotations

import numpy as np

from . import families, urns
from .families import FamilySpec
from .grow import _as_rng, _check_draw_bound, _draw_dtype
from .trees import check_count


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
    """
    model = urns.build_urn(spec)
    _check_draw_bound(model.total(n), spec, f"at step {n}")
    dtype = _draw_dtype(model.total(n))
    gen = _as_rng(rng).generator
    # in the columns' dtype: a coefficient past its range wraps, and the
    # wrapped sums still leave each column exact
    cum_rows = np.cumsum(model.replacement, axis=1, dtype=dtype)[:, :-1]
    cum = [np.full(size, c, dtype) for c in np.cumsum(model.initial)[:-1]]
    bits = [np.zeros(size, dtype) for _ in cum]
    move = np.empty(size, dtype)
    jumps = [[(bits[j], d) for j, d in enumerate(col) if d]
             for col in np.diff(cum_rows, axis=0).T]
    for s in range(1, n):
        u = gen.integers(0, model.total(s), size=size, dtype=dtype)
        for c, g in zip(cum, bits):
            np.greater_equal(u, c, out=g)
        for c, base, terms in zip(cum, cum_rows[0], jumps):
            c += base
            for g, d in terms:
                c += g if d == 1 else np.multiply(g, d, out=move)
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
    inverted in double precision.  The float totals T_s are built once
    per call, and each round writes its H into one buffer in place, by
    divide, log1p, negate and a left-to-right cumsum.
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
    table = np.empty(n)  # H at index t, from index lo on
    d = 1
    while live.size and (w := gc.node_weight(1, d)) > 0:
        lo = int(at.min())
        hazard, terms = table[lo:], table[lo + 1:]
        hazard[0] = 0.0
        np.divide(-w, totals[lo + 1:], out=terms)
        np.log1p(terms, out=terms)
        np.negative(terms, out=terms)
        np.cumsum(terms, out=terms)
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
