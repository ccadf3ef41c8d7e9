"""Vectorized samplers against the exact finite-n laws."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from buckettrees import dist_desc, dist_k, families, gof, montecarlo, urns, verify
from buckettrees.grow import RngStream, _draw_dtype

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


# digests of (sample_root_degree, sample_urn_counts) draws for b = 1, recorded
# with the row-wise kernels; the same rule as SEEDED_KERNELS holds
SEEDED_ONE_TYPE_KERNELS = {
    families.recursive(1): ("e6246d2f75b287b5", "c3edd0d568462817"),
    families.ary(1, 3): ("b1a05332b17b38f6", "d102ed464a8b4b64"),
    families.port(1, 2): ("30a09968bce69e02", "897bf130f4155592"),
}


@pytest.mark.parametrize("spec", list(SEEDED_ONE_TYPE_KERNELS), ids=lambda s: s.describe())
def test_seeded_one_type_kernels_are_stable(spec):
    assert _digests_b1(spec) == SEEDED_ONE_TYPE_KERNELS[spec]


# ---------------------------------------------------------------------------
# the column-wise kernels against the row-wise, draw-per-step ones they replace


def _row_wise_ball_dynamics(spec, n, size, stream):
    model = urns.urn_model(spec)
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


IDENTITY_SPECS = verify.family_grid() + [families.recursive(4), families.ary(3, 4),
                                         families.port(3, 2), families.port(2, Fraction(1, 2))]
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


def _assert_root_degree_identical(spec, n, size):
    deg, ref = _same_draws(montecarlo.sample_root_degree, _per_step_root_degree,
                           spec, n, size)
    assert deg.dtype == np.int64 and np.array_equal(deg, ref)


def _assert_simulate_urn_identical(spec, steps):
    model = urns.urn_model(spec)
    traj, (draws, counts) = _same_draws(urns.simulate_urn, _per_step_simulate_urn,
                                        model, steps)
    assert traj.draws == draws and traj.counts == counts


@pytest.mark.parametrize("spec", IDENTITY_SPECS, ids=lambda s: s.describe())
def test_kernels_match_row_wise_per_step_references(spec):
    for n in (1, 2, 17, 150):
        for size in (0, 1, 300):
            _assert_ball_dynamics_identical(spec, n, size)
            if spec.b == 1:
                _assert_root_degree_identical(spec, n, size)
        _assert_simulate_urn_identical(spec, n - 1)


@pytest.mark.parametrize("n", [2147, 2200])
def test_kernels_match_references_across_the_int32_bound(n):
    wide, wide_b1 = WIDE
    assert _draw_dtype(urns.urn_model(wide).total(n)) == (np.int32 if n == 2147 else np.int64)
    _assert_ball_dynamics_identical(wide, n, 50)
    _assert_ball_dynamics_identical(wide_b1, n, 50)
    _assert_root_degree_identical(wide_b1, n, 50)
    _assert_simulate_urn_identical(wide, n - 1)
