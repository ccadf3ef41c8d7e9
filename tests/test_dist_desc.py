"""Descendants Y, saturation time tau, out-degree X, and the limit regimes."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from buckettrees import families, verify
from buckettrees.dist_desc import (_climb, limit_reference, pmf_tau, pmf_X, pmf_Y,
                                   pmf_Y_conditional)
from buckettrees.dist_k import limit_K, pmf_K_exact
from buckettrees.enumeration import exact_statistic_pmf
from buckettrees.pmf import Pmf, mixture, point_mass

SPECS = [families.recursive(2), families.recursive(3), families.port(2, 1)]
CHAIN_SPECS = [families.recursive(1), families.recursive(2), families.recursive(3),
               families.ary(2, 2), families.ary(2, 3), families.ary(3, 2),
               families.port(2, 1), families.port(3, 2),
               families.port(2, Fraction(1, 2)), families.port(3, Fraction(1, 3))]
CHAIN_N = 24


def _y_chain(spec, n, ell, j):
    """Reference law of Y at sizes j..n, stepping the subtree size one label at a time.

    At size s a subtree of m + ell - 1 labels (ell of them already in j's
    bucket at time j) attracts the next label with probability
    (a*(m + ell - 1) + c) / (a*s + c).  Returns one dict m -> Fraction per
    size s, at index s - j.
    """
    gc = families.growth_coeffs(spec)
    a, c = gc.a, gc.total_c
    cur = {1: Fraction(1)}
    out = [cur]
    for s in range(j, n):
        total = a * s + c
        nxt = {}
        for m, p in cur.items():
            join = Fraction(a * (m + ell - 1) + c, total)
            stay = Fraction(a * (s + 1 - m - ell), total)
            if join:
                nxt[m + 1] = nxt.get(m + 1, Fraction(0)) + p * join
            if stay:
                nxt[m] = nxt.get(m, Fraction(0)) + p * stay
        cur = nxt
        out.append(cur)
    return out


def _tau_from_chains(spec, n, j, kj, chains):
    """Reference law of tau_{n,j}: the bucket fills from b - 1 labels, or is censored."""
    gc = families.growth_coeffs(spec)
    b = spec.b
    mass = {j: kj[b]} if kj[b] else {}
    tail = Fraction(0)
    for ell in range(1, b):
        if not kj[ell]:
            continue
        chain = chains[ell]
        for m in range(j + 1, n + 1):
            hit = chain[m - 1 - j].get(b - ell, Fraction(0))
            if hit:
                fill = Fraction(gc.node_weight(b - 1, 0), gc.total(m - 1))
                mass[m] = mass.get(m, Fraction(0)) + kj[ell] * hit * fill
        tail += kj[ell] * sum(p for y, p in chain[n - j].items() if y <= b - ell)
    if tail:
        mass[n] = mass.get(n, Fraction(0)) + tail
    return mass


def _mixed_pmf_Y(spec, n, j):
    """Reference law of Y_{n,j}: every conditional law, mixed over K_j by pmf.mixture."""
    if j <= spec.b:
        return point_mass(n + 1 - j)
    kj = pmf_K_exact(spec, j)
    return mixture([(kj[ell], pmf_Y_conditional(spec, n, ell, j))
                    for ell in kj.support]).check()


def _fraction_pmf_tau(spec, n, j):
    """Reference law of tau_{n,j}: one Fraction subtraction per step of the chain."""
    mass, done = {}, Fraction(0)
    for s, num, den in _climb(spec, n, j, spec.b - 1):
        full = Fraction(num[-1], den) if s < n else Fraction(1)
        if full != done:
            mass[s], done = full - done, full
    return Pmf(mass).check()


def _grid_cases(b):
    """(spec, n, j) over kind_grid(b), up to j = n, where no label is drawn after j."""
    for spec in verify.kind_grid(b):
        for n in sorted({b + 1, b + 2, 20, 45, 120}):
            for j in sorted({b + 1, n // 2, n - 1, n}):
                yield spec, n, j


@pytest.mark.parametrize("b", [2, 3, 4, 6, 10])
def test_pmf_Y_and_pmf_tau_equal_their_fraction_references(b):
    for spec, n, j in _grid_cases(b):
        got, want = pmf_Y(spec, n, j).mass, _mixed_pmf_Y(spec, n, j).mass
        assert got == want, (spec.describe(), n, j)
        assert all(type(p) is Fraction for p in got.values())
        got, want = pmf_tau(spec, n, j).mass, _fraction_pmf_tau(spec, n, j).mass
        assert got == want, (spec.describe(), n, j)
        assert all(type(p) is Fraction for p in got.values())


@pytest.mark.parametrize("b", [2, 3, 4, 6, 10])
def test_consecutive_conditional_laws_differ_by_the_urn_ratio(b):
    # w = a*ell + c white and v = a*(j - ell) black units, d = n - j draws:
    # P{Y - 1 = k | ell + 1} = P{Y - 1 = k | ell} (w + a k)(v - a) / (w (v + a (d - k - 1)))
    for spec, n, j in _grid_cases(b):
        if j <= b:
            continue
        gc = families.growth_coeffs(spec)
        a, d = gc.a, n - j
        for ell in range(1, b):
            w, v = a * ell + gc.total_c, a * (j - ell)
            this = pmf_Y_conditional(spec, n, ell, j).mass
            after = pmf_Y_conditional(spec, n, ell + 1, j).mass
            assert after.keys() == this.keys() == set(range(1, d + 2))
            for y, p in this.items():
                k = y - 1
                ratio = Fraction((w + a * k) * (v - a), w * (v + a * (d - k - 1)))
                assert after[y] == p * ratio, (spec.describe(), n, j, ell, y)


def test_pmf_Y_conditional_example():
    pmf = pmf_Y_conditional(families.recursive(2), 4, 1, 3)
    assert pmf.mass == {1: Fraction(2, 3), 2: Fraction(1, 3)}


def test_pmf_Y_conditional_point_mass_in_root():
    # j <= b: j sits in the root bucket whose subtree is everything
    pmf = pmf_Y_conditional(families.recursive(2), 6, 2, 2)
    assert pmf.mass == {5: Fraction(1)}
    # and K_j = j surely, so any other bucket size is impossible
    with pytest.raises(ValueError, match=r"bucket size ell must be in 2\.\.2 and an integer, "
                                         "not ell=1"):
        pmf_Y_conditional(families.recursive(2), 6, 1, 2)


def test_pmf_tau_examples():
    assert pmf_tau(families.recursive(2), 4, 3).mass == {4: Fraction(1)}
    assert pmf_tau(families.recursive(2), 5, 3).mass == {
        4: Fraction(1, 3), 5: Fraction(2, 3)}


def test_pmf_X_example():
    assert pmf_X(families.recursive(2), 5, 3).mass == {
        0: Fraction(5, 6), 1: Fraction(1, 6)}


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
def test_pmfs_match_oracle(spec):
    for n in range(1, 6):
        for j in range(1, n + 1):
            assert pmf_Y(spec, n, j).mass == exact_statistic_pmf(spec, n, f"Y:{j}").mass
            assert pmf_tau(spec, n, j).mass == exact_statistic_pmf(spec, n, f"tau:{j}").mass
            assert pmf_X(spec, n, j).mass == exact_statistic_pmf(spec, n, f"X:{j}").mass


def test_harmonic_mean_out_degree():
    # b=1 recursive: E[X_{n,1}] is the harmonic number H_{n-1}
    one = families.recursive(1)
    for n in range(2, 12):
        assert pmf_X(one, n, 1).mean() == sum(Fraction(1, s) for s in range(1, n))


@pytest.mark.parametrize("spec", CHAIN_SPECS, ids=lambda s: s.describe())
def test_closed_forms_match_the_step_chain(spec):
    b = spec.b
    for j in range(1, CHAIN_N + 1):
        kj = pmf_K_exact(spec, j)
        ells = range(1, b + 1) if j > b else [j]  # j <= b sits in the root bucket: K_j = j
        chains = {ell: _y_chain(spec, CHAIN_N, ell, j) for ell in ells}
        for n in range(j, CHAIN_N + 1):
            for ell in ells:
                assert pmf_Y_conditional(spec, n, ell, j).mass == chains[ell][n - j]
            assert pmf_tau(spec, n, j).mass == _tau_from_chains(spec, n, j, kj, chains)


@pytest.mark.parametrize("spec", [families.ary(2, 2), families.ary(2, 3),
                                  families.ary(1, 3)], ids=lambda s: s.describe())
def test_pmf_X_ary_matches_oracle(spec):
    for n in range(1, 8):
        for j in range(1, n + 1):
            assert pmf_X(spec, n, j).mass == exact_statistic_pmf(spec, n, f"X:{j}").mass


def test_argument_guards():
    spec = families.recursive(2)
    with pytest.raises(ValueError):
        pmf_Y(spec, 4, 5)
    with pytest.raises(ValueError):
        pmf_Y_conditional(spec, 4, 3, 3)  # ell > b
    with pytest.raises(ValueError):
        pmf_Y(families.linear(2, 1, 0, 1), 4, 2)
    # n and j are integers, and a bool is none
    for n, j in [(5, True), (True, 1), (5.0, 3), (5, 2.5)]:
        for law in (pmf_Y, pmf_tau, pmf_X):
            with pytest.raises(ValueError, match=r"and an integer, not [nj]="):
                law(spec, n, j)


def test_limit_reference_regimes():
    spec = families.recursive(2)
    ref = limit_reference(spec, "fixed-j", j=4)
    assert ref.cdf(1.0) == pytest.approx(1.0)
    assert ref.cdf(0.0) == pytest.approx(0.0)
    assert ref.rescale(50, 100) == pytest.approx(0.5)

    ref = limit_reference(spec, "small-j", j=10)
    assert ref.cdf(50.0) == pytest.approx(1.0, abs=1e-9)
    assert ref.rescale(30, 100) == pytest.approx(3.0)

    ref = limit_reference(spec, "central", rho=Fraction(1, 2))
    assert ref.rescale(5, 100) == 4
    assert 0 < ref.cdf(3) < 1

    ref = limit_reference(spec, "large-j")
    assert ref.cdf(0.5) == 0.0 and ref.cdf(1.0) == 1.0


def _frozen_mixture(spec, regime, j=None, rho=None):
    """The limit CDF as a mixture of frozen scipy.stats laws, the reference."""
    kap = float(families.kappa(spec))
    if regime == "fixed-j":
        kj = pmf_K_exact(spec, j)
        parts = [(float(kj[ell]), scipy.stats.beta(ell + kap, j - ell))
                 for ell in kj.support if ell < j]
    elif regime == "small-j":
        lim = limit_K(spec)
        parts = [(float(lim[ell]), scipy.stats.gamma(ell + kap)) for ell in lim.support]
    else:
        lim = limit_K(spec)
        parts = [(float(lim[ell]), scipy.stats.nbinom(ell + kap, float(rho)))
                 for ell in lim.support]
    return lambda x: sum(w * d.cdf(x) for w, d in parts)


@pytest.mark.parametrize("spec", [families.recursive(1), families.recursive(2),
                                  families.ary(2, 3), families.port(3, Fraction(1, 2))],
                         ids=lambda spec: spec.describe())
@pytest.mark.parametrize("regime, kwargs, lo, hi", [
    ("fixed-j", {"j": 4}, -0.5, 1.5),
    ("fixed-j", {"j": 7}, -0.5, 1.5),
    ("small-j", {"j": 10}, -3.0, 40.0),
    ("central", {"rho": Fraction(1, 3)}, -3.0, 40.0),
    ("central", {"rho": Fraction(4, 5)}, -3.0, 40.0),
])
def test_limit_cdfs_are_the_frozen_scipy_mixtures_bitwise(spec, regime, kwargs, lo, hi):
    # inside and outside the support, on arrays and on scalars
    new = limit_reference(spec, regime, **kwargs).cdf
    old = _frozen_mixture(spec, regime, **kwargs)
    rng = np.random.default_rng(7)
    edges = [-np.inf, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 1e5, np.inf]
    xs = np.concatenate([rng.uniform(lo, hi, 1000), edges])
    assert np.array_equal(new(xs), old(xs))
    for x in edges + [0, 1, 3, -2] + xs[:40].tolist():
        got, want = new(x), old(x)
        assert got == want and type(got) is type(want), x


def test_limit_reference_guards():
    spec = families.recursive(2)
    with pytest.raises(ValueError):
        limit_reference(spec, "fixed-j")          # needs j > b
    with pytest.raises(ValueError):
        limit_reference(spec, "fixed-j", j=2)     # j must exceed b
    with pytest.raises(ValueError):
        limit_reference(spec, "central")          # needs rho
    with pytest.raises(ValueError):
        limit_reference(spec, "nope")


def test_central_limit_matches_finite_law():
    # sanity: the negative binomial mixture tracks the exact law of Y - 1
    spec = families.recursive(2)
    n, j = 400, 200
    ref = limit_reference(spec, "central", rho=Fraction(j, n))
    exact = pmf_Y(spec, n, j)
    cdf = 0.0
    for y in exact.support[:6]:
        cdf += float(exact[y])
        assert cdf == pytest.approx(ref.cdf(ref.rescale(y, n)), abs=0.02)
