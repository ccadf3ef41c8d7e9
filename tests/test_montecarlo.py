"""Vectorized samplers against the exact finite-n laws."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from buckettrees import dist_desc, dist_k, families, gof, montecarlo, urns, verify
from buckettrees.rng import RngStream, _draw_dtype

LEVEL = 0.001


@pytest.mark.parametrize("spec", [families.recursive(2), families.ary(2, 3),
                                  families.port(2, 1)], ids=lambda s: s.describe())
def test_sample_K_distribution(spec):
    samples = montecarlo.sample_K(spec, 12, 30000, RngStream(1))
    report = gof.chi_square(samples, dist_k.pmf_K_exact(spec, 12))
    assert report.passed(LEVEL), str(report)


def test_sample_K_degenerate_cases():
    assert (montecarlo.sample_K(families.recursive(2), 1, 100, 0) == 1).all()
    assert (montecarlo.sample_K(families.recursive(1), 9, 100, 0) == 1).all()


def test_sample_Y_distribution():
    spec = families.recursive(2)
    samples = montecarlo.sample_Y(spec, 12, 4, 30000, RngStream(2))
    report = gof.chi_square(samples, dist_desc.pmf_Y(spec, 12, 4))
    assert report.passed(LEVEL), str(report)


def _step_sample_Y(spec, n, j, size, stream):
    """Reference sampler: step j's subtree size one label at a time.

    At size s a subtree of y + ell - 1 labels attracts the next label with
    integer weight a*(y + ell - 1) + c out of a*s + c.
    """
    gc = families.growth_coeffs(spec)
    ell = montecarlo.sample_K(spec, j, size, stream.child(0))
    gen = stream.child(1).generator
    y = np.ones(size, dtype=np.int64)
    for s in range(j, n):
        y += gen.integers(0, gc.total(s), size) < gc.a * (y + ell - 1) + gc.total_c
    return y


def _two_sample_p(x, y, cells=20):
    """Chi-square homogeneity p-value of two integer samples, cells at pooled quantiles."""
    edges = np.unique(np.quantile(np.concatenate([x, y]), np.linspace(0, 1, cells + 1)))
    table = np.array([np.histogram(x, edges)[0], np.histogram(y, edges)[0]])
    return scipy.stats.chi2_contingency(table[:, table.sum(axis=0) > 0])[1]


@pytest.mark.parametrize("spec", [families.recursive(2), families.ary(2, 3),
                                  families.port(2, Fraction(1, 2))],
                         ids=lambda s: s.describe())
def test_sample_Y_matches_step_simulator(spec):
    n, j, size = 300, 5, 20000
    fast = montecarlo.sample_Y(spec, n, j, size, RngStream(8))
    slow = _step_sample_Y(spec, n, j, size, RngStream(9))
    assert _two_sample_p(fast, slow) >= LEVEL
    exact = dist_desc.pmf_Y(spec, n, j)
    for samples in (fast, slow):
        report = gof.chi_square(samples, exact)
        assert report.passed(LEVEL), str(report)


def test_sample_Y_root_label():
    samples = montecarlo.sample_Y(families.recursive(2), 10, 2, 50, 0)
    assert (samples == 9).all()


def test_sample_urn_counts_total_is_deterministic():
    for spec in (families.recursive(2), families.ary(2, 2), families.port(2, 1)):
        gc = families.growth_coeffs(spec)
        counts = montecarlo.sample_urn_counts(spec, 30, 200, RngStream(3))
        assert (counts.sum(axis=1) == gc.total(30)).all()
        assert (counts >= 0).all()


def test_sample_urn_counts_mean():
    spec = families.recursive(2)
    from buckettrees.enumeration import expected_capacity_counts
    exact = expected_capacity_counts(spec, 7)
    model_divisors = [1, 2]  # capacity-k bucket weight under the recursive rule
    counts = montecarlo.sample_urn_counts(spec, 7, 40000, RngStream(4)).astype(float)
    for k in (1, 2):
        ok, z = gof.mean_within_sigma(counts[:, k - 1] / model_divisors[k - 1],
                                      float(exact[k]), sigmas=4.0)
        assert ok, f"N_{k} estimate off by {z:.2f} sigma"


def test_sample_root_degree_distribution():
    spec = families.recursive(1)
    samples = montecarlo.sample_root_degree(spec, 10, 30000, RngStream(5))
    report = gof.chi_square(samples, dist_desc.pmf_X(spec, 10, 1))
    assert report.passed(LEVEL), str(report)


@pytest.mark.parametrize("spec", [families.ary(1, 3), families.port(1, Fraction(1, 2))],
                         ids=lambda s: s.describe())
def test_sample_root_degree_other_kinds(spec):
    samples = montecarlo.sample_root_degree(spec, 10, 30000, RngStream(6))
    report = gof.chi_square(samples, dist_desc.pmf_X(spec, 10, 1))
    assert report.passed(LEVEL), str(report)


def test_sample_root_degree_guard():
    with pytest.raises(ValueError):
        montecarlo.sample_root_degree(families.recursive(2), 10, 10, 0)
    with pytest.raises(ValueError, match="n must be"):
        montecarlo.sample_root_degree(families.recursive(1), 0, 10, 0)
    with pytest.raises(ValueError, match="named family"):
        montecarlo.sample_root_degree(families.linear(1, 0, 1, 1), 10, 10, 0)


@pytest.mark.parametrize("n", [0, -5])
def test_sample_urn_counts_guard(n):
    with pytest.raises(ValueError, match="n must be"):
        montecarlo.sample_urn_counts(families.recursive(2), n, 10, 0)


def test_named_family_guard():
    with pytest.raises(ValueError):
        montecarlo.sample_K(families.linear(2, 1, 0, 1), 5, 10, 0)


def test_named_family_guard_before_the_forced_cases():
    with pytest.raises(ValueError, match="named family"):
        montecarlo.sample_K(families.linear(1, 0, 1, 1), 5, 10, 0)
    with pytest.raises(ValueError, match="named family"):
        montecarlo.sample_Y(families.linear(2, 1, 1, 1), 5, 2, 10, 0)


def test_determinism():
    spec = families.port(2, 1)
    a = montecarlo.sample_K(spec, 20, 50, RngStream(7))
    b = montecarlo.sample_K(spec, 20, 50, RngStream(7))
    assert np.array_equal(a, b)


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def _kernel_digests(spec) -> tuple:
    traj = urns.simulate_urn(urns.build_urn(spec), 20, 4)
    return (_digest(montecarlo.sample_K(spec, 20, 300, RngStream(1))),
            _digest(montecarlo.sample_urn_counts(spec, 20, 300, RngStream(2))),
            _digest(montecarlo.sample_Y(spec, 20, 6, 300, RngStream(3))),
            _digest(traj.draws + [c for counts in traj.counts for c in counts]))


# digests of (sample_K, sample_urn_counts, sample_Y, simulate_urn) draws; a
# change here moves a seeded stream and must be stated as such
SEEDED_KERNELS = {
    families.recursive(2): ("013170039696ac7b", "d24652f34c8bbafe",
                             "eb86d72dc145c9b9", "ebf35776eb9ed538"),
    families.recursive(3): ("4f7e6093d97fb09c", "db8456472be82e7c",
                             "bc4b658eb803d296", "b51ed1ef416297f6"),
    families.ary(2, 3): ("ad8416d4fa9aa7e0", "0a1904ac3d9a830b",
                         "cc5f33639c9c4076", "63c560839fb73a00"),
    families.port(3, 2): ("fae11c1b7b307e40", "768c2b3ecff22e49",
                          "fb0d07a81b293b31", "e7535fc922acdf4e"),
}


@pytest.mark.parametrize("spec", list(SEEDED_KERNELS), ids=lambda s: s.describe())
def test_seeded_kernels_are_stable(spec):
    assert _kernel_digests(spec) == SEEDED_KERNELS[spec]


def _digests_b1(spec) -> tuple:
    return (_digest(montecarlo.sample_root_degree(spec, 40, 300, RngStream(5))),
            _digest(montecarlo.sample_urn_counts(spec, 40, 300, RngStream(2))))


# digests of (sample_root_degree, sample_urn_counts) draws for b = 1: the urn
# counts recorded with the row-wise kernels, the root degree with the
# waiting-time kernel; the same rule as SEEDED_KERNELS holds
SEEDED_ONE_TYPE_KERNELS = {
    families.recursive(1): ("eaee55575a62ed39", "c3edd0d568462817"),
    families.ary(1, 3): ("fa7b25d7ca3143a2", "d102ed464a8b4b64"),
    families.port(1, 2): ("255d328b04657c13", "897bf130f4155592"),
    families.port(1, 1): ("a06c03264af67a7a", "5692348d6c38879d"),
}


@pytest.mark.parametrize("spec", list(SEEDED_ONE_TYPE_KERNELS), ids=lambda s: s.describe())
def test_seeded_one_type_kernels_are_stable(spec):
    assert _digests_b1(spec) == SEEDED_ONE_TYPE_KERNELS[spec]


# ---------------------------------------------------------------------------
# the column-wise kernels against the row-wise, draw-per-step ones they replace


def _row_wise_ball_dynamics(spec, n, size, stream):
    model = urns.build_urn(spec)
    rows = np.array(model.replacement, dtype=np.int64)
    counts = np.tile(np.array(model.initial, dtype=np.int64), (size, 1))
    last = np.full(size, -1, dtype=np.int64)
    for s in range(1, n):
        u = stream.generator.integers(0, model.total(s), size=size)
        drawn = (u[:, None] >= np.cumsum(counts, axis=1)).sum(axis=1)
        counts += rows[drawn]
        last = drawn
    return counts, last


def _per_step_root_degree(spec, n, size, stream):
    gc = families.growth_coeffs(spec)
    deg = np.zeros(size, dtype=np.int64)
    for s in range(1, n):
        deg += stream.generator.integers(0, gc.total(s), size) < gc.node_weight(1, deg)
    return deg


def _rebuilt_root_degree(spec, n, size, stream):
    """The waiting-time kernel with each round's hazard table summed afresh."""
    gc = families.growth_coeffs(spec)
    gen = stream.generator
    deg = np.zeros(size, dtype=np.int64)
    live, at = np.arange(size), np.ones(size, dtype=np.int64)
    totals = gc.a * np.arange(n, dtype=np.float64) + gc.total_c
    d = 1
    while live.size and (w := gc.node_weight(1, d)) > 0:
        lo = int(at.min())
        hazard = np.concatenate([[0.0], np.cumsum(-np.log1p(-w / totals[lo + 1:]))])
        target = hazard[at - lo] + gen.standard_exponential(live.size)
        order = np.argsort(target)
        live = live[order]
        at = lo + np.searchsorted(hazard, target[order], side="right")
        deg[live[at >= n]] = d
        live, at = live[at < n], at[at < n]
        d += 1
    deg[live] = d
    return deg


def _per_step_simulate_urn(model, steps, stream):
    q = list(model.initial)
    counts = [tuple(q)]
    draws = []
    for step in range(steps):
        u = stream.integers(model.total(1 + step))
        k = 0
        while u >= q[k]:
            u -= q[k]
            k += 1
        draws.append(k)
        for i, delta in enumerate(model.replacement[k]):
            q[i] += delta
        counts.append(tuple(q))
    return draws, counts


# b >= 5 reaches a fourth kernel column and a fifth urn type, which b <= 4 lacks
IDENTITY_SPECS = verify.family_grid() + [families.recursive(4), families.ary(3, 4),
                                         families.port(3, 2), families.port(2, Fraction(1, 2)),
                                         families.recursive(5), families.port(6, 2),
                                         families.ary(8, 3)]
# alpha + 1 = 10**6: the total 10**6 * n - 1 crosses 2**31 between n = 2147 and 2148
WIDE = (families.port(2, 10**6 - 1), families.port(1, 10**6 - 1))


def _same_draws(new, old, *args):
    """Run both kernels on equal seeds; return their outputs, asserting equal stream ends."""
    a, b = RngStream(11), RngStream(11)
    out_new, out_old = new(*args, a), old(*args, b)
    assert a.generator.bit_generator.state == b.generator.bit_generator.state
    return out_new, out_old


def _assert_ball_dynamics_identical(spec, n, size):
    (counts, last), (ref_counts, ref_last) = _same_draws(
        montecarlo._ball_dynamics, _row_wise_ball_dynamics, spec, n, size)
    assert counts.dtype == last.dtype == np.int64
    assert counts.shape == (size, spec.b)
    assert np.array_equal(counts, ref_counts) and np.array_equal(last, ref_last)


def _assert_simulate_urn_identical(spec, steps):
    model = urns.build_urn(spec)
    traj, (draws, counts) = _same_draws(urns.simulate_urn, _per_step_simulate_urn,
                                        model, steps)
    assert traj.draws == draws and traj.counts == counts


@pytest.mark.parametrize("spec", IDENTITY_SPECS, ids=lambda s: s.describe())
def test_kernels_match_row_wise_per_step_references(spec):
    for n in (1, 2, 17, 150):
        for size in (0, 1, 300):
            _assert_ball_dynamics_identical(spec, n, size)
        _assert_simulate_urn_identical(spec, n - 1)


@pytest.mark.parametrize("n", [2147, 2200])
def test_kernels_match_references_across_the_int32_bound(n):
    wide, wide_b1 = WIDE
    assert _draw_dtype(urns.build_urn(wide).total(n)) == (np.int32 if n == 2147 else np.int64)
    _assert_ball_dynamics_identical(wide, n, 50)
    _assert_ball_dynamics_identical(wide_b1, n, 50)
    _assert_simulate_urn_identical(wide, n - 1)


# port(b, 10**8) adds 10**8 + 1 per step: the total passes 2**32 at step 43,
# where numpy and the kernel move from 32-bit words to 64-bit ones
PAST_32_BITS = (families.port(2, 10**8), families.port(1, 10**8))


@pytest.mark.parametrize("spec", PAST_32_BITS, ids=lambda s: s.describe())
def test_kernels_match_references_past_32_bit_totals(spec):
    model = urns.build_urn(spec)
    assert model.total(42) < 2**32 < model.total(43)
    _assert_ball_dynamics_identical(spec, 60, 50)
    # a stream that holds a half word: the kernel reads it, and leaves the
    # one numpy would
    a, b = RngStream(11), RngStream(11)
    for stream in (a, b):
        stream.generator.integers(0, 7, size=3, dtype=np.int32)
    assert a.generator.bit_generator.state["has_uint32"] == 1
    (counts, last), (ref_counts, ref_last) = (montecarlo._ball_dynamics(spec, 60, 51, a),
                                              _row_wise_ball_dynamics(spec, 60, 51, b))
    assert a.generator.bit_generator.state == b.generator.bit_generator.state
    assert np.array_equal(counts, ref_counts) and np.array_equal(last, ref_last)


def _word_draws(gen, high, size, dtype):
    """montecarlo._bounded_draws as the kernel calls it: held half word in, then out."""
    bitgen = gen.bit_generator
    state = bitgen.state
    out = np.empty(size, dtype)
    held = montecarlo._bounded_draws(bitgen, high, out, np.empty(size + 1, "<u8"),
                                     (state["has_uint32"], state["uinteger"]))
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = held
    bitgen.state = state
    return out


# 3 * 2**29 and 3 * 2**30 + 1 reject a quarter of the words; 2**32 takes them as they are
WORD_HIGHS = [1, 2, 7, 3 * 2**29, 2**31 - 1, 3 * 2**30 + 1, 2**32]


@pytest.mark.parametrize("used", [0, 2, 3], ids=lambda u: f"used{u}")
@pytest.mark.parametrize("size", [0, 1, 7, 2 * 10**4])
@pytest.mark.parametrize("high", WORD_HIGHS)
def test_word_draws_are_numpys_bounded_integers(high, size, used):
    # a numpy whose bounded draws take other words, or in another order, fails here
    dtype = _draw_dtype(high)
    a, b = RngStream(17).generator, RngStream(17).generator
    for gen in (a, b):  # 3 used halves leave one held, 2 leave none but keep the last
        gen.integers(0, 7, size=used, dtype=np.int32)
    assert a.bit_generator.state["has_uint32"] == used % 2
    for _ in range(2):  # and again from the state the first call left
        draws = _word_draws(a, high, size, dtype)
        ref = b.integers(0, high, size=size, dtype=dtype)
        assert draws.dtype == ref.dtype and np.array_equal(draws, ref)
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("sampler", [montecarlo.sample_K, montecarlo.sample_urn_counts])
def test_ball_dynamics_refuse_a_total_past_int64(sampler):
    # port(2, 10^17) adds about 10^17 per step, past 2^63 - 1 at step 100
    spec = families.port(2, 10 ** 17)
    with pytest.raises(ValueError, match=r"port:b=2,alpha=100000000000000000 has total weight "
                                         r"\d+ at step 100, past the int64 draw bound 2\^63 - 1"):
        sampler(spec, 100, 10, 0)
    assert len(sampler(spec, 91, 10, 0)) == 10


# ---------------------------------------------------------------------------
# the waiting-time root-degree kernel draws a different stream from the
# per-step one, so it is held to the exact law and to the per-step kernel
# in distribution

ROOT_DEGREE_SPECS = [spec for spec in IDENTITY_SPECS if spec.b == 1] + [
    families.port(1, Fraction(1, 2))]


# at n = 500 the port rules pass root degree 70, so most rounds read a kept
# table shifted by many steps
@pytest.mark.parametrize("n", [3, 17, 150, 500])
@pytest.mark.parametrize("spec", ROOT_DEGREE_SPECS, ids=lambda s: s.describe())
def test_root_degree_matches_exact_law(spec, n):
    samples = montecarlo.sample_root_degree(spec, n, 40000, RngStream(12))
    exact = dist_desc.pmf_X(spec, n, 1)
    # each half on its own: a copy's degree must not depend on its position
    for half in (samples[:20000], samples[20000:]):
        report = gof.chi_square(half, exact)
        assert report.passed(LEVEL), str(report)


@pytest.mark.parametrize("spec", ROOT_DEGREE_SPECS, ids=lambda s: s.describe())
def test_root_degree_edge_cases(spec):
    one = montecarlo.sample_root_degree(spec, 1, 30, RngStream(13))
    two = montecarlo.sample_root_degree(spec, 2, 30, RngStream(13))
    empty = montecarlo.sample_root_degree(spec, 150, 0, RngStream(13))
    assert one.dtype == two.dtype == empty.dtype == np.int64
    assert (one == 0).all() and (two == 1).all() and empty.shape == (0,)
    a = montecarlo.sample_root_degree(spec, 150, 300, RngStream(14))
    b = montecarlo.sample_root_degree(spec, 150, 300, RngStream(14))
    assert a.dtype == np.int64 and np.array_equal(a, b)
    assert (a >= 1).all() and (a <= 149).all()
    if spec.kind == families.ARY:
        assert (a <= spec.d).all()


# degrees a apart share a table up to a shift of bdeg steps: (a, bdeg) =
# (1, 0) for recursive, (2, 1), (3, 1), (3, 2), (6, 1) and (4, 3) for the
# ports; ary (bdeg < 0) and the wide port (a = 10**6, past the kept-table
# budget) rebuild every table
@pytest.mark.parametrize("spec", ROOT_DEGREE_SPECS + [families.port(1, 5),
                                                      families.port(1, Fraction(1, 3)), WIDE[1]],
                         ids=lambda s: s.describe())
def test_root_degree_matches_a_kernel_that_rebuilds_every_table(spec):
    # the kept tables differ from rebuilt ones by rounding near 1e-12, which
    # moves no degree on these seeds
    for n in (2, 500, 2200):
        new, old = _same_draws(montecarlo.sample_root_degree, _rebuilt_root_degree,
                               spec, n, 2000)
        assert np.array_equal(new, old)


def test_root_degree_matches_per_step_kernel_across_the_int32_bound():
    wide_b1, n = WIDE[1], 2200
    assert _draw_dtype(families.growth_coeffs(wide_b1).total(n)) == np.int64
    fast = montecarlo.sample_root_degree(wide_b1, n, 20000, RngStream(15))
    slow = _per_step_root_degree(wide_b1, n, 20000, RngStream(16))
    assert _two_sample_p(fast, slow) >= LEVEL
