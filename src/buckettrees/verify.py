"""Cross-module verification suite.

Eight numbered checks exercise the package end to end: exact totals and
measure identities against the brute-force oracle, the spectral and urn
machinery against exact enumeration, bijection round trips on exhaustive
corpora, and calibrated stochastic checks of the samplers.  Exact claims
use rational equality or stated tolerances; stochastic claims use a 0.001
significance level (or a 3-sigma band for means) so flake rates stay
negligible.

Every check is called as `check(level, seed)` and picks its sizes from the
level where it uses them: `quick` runs all eight in seconds, `full` is the
acceptance configuration.  `run_check` runs one check by name, deriving its
seed from the suite seed and the check's index, so everything is
deterministic given the seed; `verify_suite` runs all eight in order.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import (bijections, dist_desc, dist_k, enumeration, families, gof,
               grow, montecarlo, spectral, urns)
from .enumeration import (UNORDERED_GROWTH, UNORDERED_MODEL,
                          enumerate_trees, exact_probability,
                          exact_statistic_pmf, expected_capacity_counts)
from .families import FamilySpec
from .grow import RngStream

SIGNIFICANCE = 0.001


def family_grid() -> list[FamilySpec]:
    """The standard verification grid of named families."""
    specs = [families.recursive(b) for b in (1, 2, 3)]
    specs += [families.ary(b, d) for b in (1, 2) for d in (2, 3)]
    specs += [families.port(b, a) for b in (1, 2) for a in (1, 2)]
    return specs


def kappa_grid() -> list[Fraction]:
    return sorted({families.kappa(s) for s in family_grid()})


def kind_grid(b: int) -> list[FamilySpec]:
    """One family per named kind/parameter at the given bucket size."""
    return ([families.recursive(b)]
            + [families.ary(b, d) for d in (2, 3)]
            + [families.port(b, a) for a in (1, 2)])


class CheckFailure(AssertionError):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _double_factorial_odd(n: int) -> int:
    """(2n-3)!! with the empty-product convention for n <= 2."""
    return math.prod(range(2 * n - 3, 0, -2))


# ---------------------------------------------------------------------------
# 1. total weights


def check_total_weights(level: str, seed: int) -> str:
    max_n = 6 if level == "quick" else 8
    count = 0
    for spec in family_grid():
        for n in range(1, max_n + 1):
            total = enumerate_trees(spec, n).total_weight()
            closed = families.total_weight_closed(spec, n)
            _need(total == closed,
                  f"{spec.describe()} n={n}: oracle total {total} != closed {closed}")
            count += 1
    for n in range(1, max_n + 1):
        _need(families.total_weight_closed(families.recursive(2), n)
              == math.factorial(n - 1),
              f"recursive b=2 total at n={n} is not (n-1)!")
        _need(families.total_weight_closed(families.port(2, 1), n)
              == _double_factorial_odd(n),
              f"port b=2 alpha=1 total at n={n} is not (2n-3)!!")
    return f"{count} totals equal their closed forms exactly"


# ---------------------------------------------------------------------------
# 2. measure equality


def check_measure_equality(level: str, seed: int) -> str:
    max_n = 5 if level == "quick" else 6
    count = 0
    for spec in family_grid():
        for n in range(1, max_n + 1):
            ts = enumerate_trees(spec, n)
            for tree in enumeration.distinct_unordered(ts):
                pm = exact_probability(spec, tree, UNORDERED_MODEL)
                pg = exact_probability(spec, tree, UNORDERED_GROWTH)
                _need(pm == pg,
                      f"{spec.describe()} n={n}: model {pm} != growth {pg}")
                count += 1
    return f"{count} canonical trees: model and growth measures agree exactly"


# ---------------------------------------------------------------------------
# 3. bucket-size distribution K


def check_k_distribution(level: str, seed: int) -> str:
    quick = level == "quick"
    max_n = 6 if quick else 8
    mc_n, mc_samples = (30, 30000) if quick else (50, 10 ** 6)
    limit_n = 2000 if quick else 10 ** 4
    notes = []
    for spec in family_grid():
        for n in range(1, max_n + 1):
            closed = dist_k.pmf_K(spec, n)
            oracle = exact_statistic_pmf(spec, n, "K")
            diff = closed.max_abs_diff(oracle)
            _need(diff <= 1e-10,
                  f"{spec.describe()} n={n}: closed K pmf off oracle by {diff:.3e}")
            exact = dist_k.pmf_K_exact(spec, n)
            diff = closed.max_abs_diff(exact)
            _need(diff <= 1e-10,
                  f"{spec.describe()} n={n}: closed K pmf off recursion by {diff:.3e}")
            if spec.b >= 2 and n >= 2:
                # the node-type relation: K_n from the oracle's E[N_{n-1,k}]
                related = dist_k.node_type_relation(
                    spec, n - 1, expected_capacity_counts(spec, n - 1))
                _need(related.mass == exact.mass,
                      f"{spec.describe()} n={n}: K pmf from the node-type relation "
                      f"{related.mass} != exact {exact.mass}")
    notes.append(f"closed form within 1e-10 of the oracle for n <= {max_n}, and the "
                 "node-type relation on the oracle's mean node counts exact")

    stream = RngStream(seed)
    worst = 1.0
    for i, spec in enumerate(s for s in family_grid() if s.b >= 2):
        samples = montecarlo.sample_K(spec, mc_n, mc_samples, stream.child(i))
        report = gof.chi_square(samples, dist_k.pmf_K_exact(spec, mc_n))
        _need(report.passed(SIGNIFICANCE),
              f"{spec.describe()} K chi-square failed: {report}")
        worst = min(worst, report.p_value)
    notes.append(f"chi-square at n={mc_n} with {mc_samples} samples "
                 f"(worst p={worst:.3g})")

    worst_gap = worst_route = 0.0
    for spec in family_grid():
        if spec.b < 2:
            continue
        finite = dist_k.pmf_K(spec, limit_n)
        route = finite.max_abs_diff(dist_k.pmf_K_exact(spec, limit_n))
        _need(route <= 1e-10,
              f"{spec.describe()} n={limit_n}: closed K pmf off the exact product "
              f"by {route:.3e}")
        worst_route = max(worst_route, route)
        limit = dist_k.limit_K(spec).as_float()
        gap = finite.max_abs_diff(limit)
        _need(gap <= 0.02,
              f"{spec.describe()}: K atoms at n={limit_n} off the limit by {gap:.4f}")
        worst_gap = max(worst_gap, gap)
    zipf = dist_k.limit_K(families.recursive(2))
    _need(zipf[1] == Fraction(2, 3) and zipf[2] == Fraction(1, 3),
          f"recursive b=2 limit atoms {zipf.mass} are not (2/3, 1/3)")
    notes.append(f"closed form within 1e-10 of the exact product at n={limit_n} "
                 f"(worst {worst_route:.2e})")
    notes.append(f"limit atoms at n={limit_n} within 0.02 (worst {worst_gap:.4f})")
    return "; ".join(notes)


# ---------------------------------------------------------------------------
# 4. spectral machinery


# the recursive family's phase indicator crosses 1/2 between b = 26 and 27
PHASE_BOUNDARY = 26


def check_spectral(level: str, seed: int) -> str:
    max_b = 12 if level == "quick" else 30
    worst = 0.0
    solved = {}
    for kap in kappa_grid():
        for b in range(1, max_b + 1):
            r = solved[b, kap] = spectral.indicial_roots(b, kap)
            worst = max(worst, max(r.residuals))
            _need(max(r.residuals) <= 1e-10,
                  f"b={b} kappa={kap}: residual {max(r.residuals):.3e}")
            _need(abs(r.roots[0] - complex(1 + kap)) <= 1e-12,
                  f"b={b} kappa={kap}: principal root is not 1 + kappa")
            _need(spectral.indicial_value(b, kap, 1 + kap) == 0,
                  f"b={b} kappa={kap}: 1 + kappa is not an exact root")
            # the root sum must match the second-highest coefficient
            coeffs = spectral.indicial_coeffs(b, kap)
            root_sum = sum(r.roots)
            _need(abs(root_sum - complex(-coeffs[b - 1])) <= 1e-10 * max(
                1.0, abs(coeffs[b - 1])),
                f"b={b} kappa={kap}: root sum {root_sum} != {-coeffs[b - 1]}")
    extra = ""
    if max_b > PHASE_BOUNDARY:
        lo = solved[PHASE_BOUNDARY, Fraction(0)].gap_ratio()
        hi = solved[PHASE_BOUNDARY + 1, Fraction(0)].gap_ratio()
        _need(lo < 0.5 < hi,
              f"recursive phase indicator {lo:.4f} -> {hi:.4f} does not cross "
              f"1/2 between b={PHASE_BOUNDARY} and b={PHASE_BOUNDARY + 1}")
        extra = f"; phase indicator crosses 1/2 at b={PHASE_BOUNDARY}->{PHASE_BOUNDARY + 1}"
    return (f"residuals <= {worst:.2e} for b <= {max_b} across the kappa grid"
            + extra)


# ---------------------------------------------------------------------------
# 5. bijections


def _diamond_weight(d: bijections.Diamond) -> int:
    """Weight of a diamond under the part-count weights C(k+2, k): the
    product over its composite nodes, k being the node's part count."""
    return math.prod(math.comb(k + 2, 2) for lab, k in zip(d.labels, d.degrees)
                     if len(lab) == 2)


def check_bijections(level: str, seed: int) -> str:
    quick = level == "quick"
    max_n_diamond, max_n_bundle = (6, 5) if quick else (8, 6)
    max_k = 4 if quick else 6
    notes = []
    for n in range(1, max_n_diamond + 1):
        trees = enumeration.all_trees(2, n)
        seen = set()
        total = 0
        for tree in trees:
            d = bijections.bucket_to_diamond(tree)
            _need(bijections.diamond_to_bucket(d) == tree,
                  f"diamond round trip failed at n={n}")
            _need(d.inner_count() == enumeration.tree_statistic(tree, "N:1"),
                  f"inner count != capacity-one count at n={n}")
            seen.add(bijections.encode_diamond(d))
            total += _diamond_weight(d)
        _need(len(seen) == len(trees), f"diamond map not injective at n={n}")
        _need(total == _double_factorial_odd(n),
              f"diamond count {total} != (2n-3)!! at n={n}")
    notes.append(f"diamond round trips and (2n-3)!! counts up to n={max_n_diamond}")

    three = two = 0
    for n in range(1, max_n_bundle + 1):
        plain = enumeration.all_trees(1, n)
        for tree in plain:
            bt = bijections.cluster_three_bundled(tree)
            _need(bijections.uncluster_three_bundled(bt) == tree,
                  f"three-bundled round trip failed at n={n}")
            three += 1
        for tree in enumeration.distinct_unordered(
                enumerate_trees(families.recursive(1), n)):
            bt = bijections.cluster_two_bundled(tree)
            _need(bijections.uncluster_two_bundled(bt) == tree,
                  f"two-bundled round trip failed at n={n}")
            two += 1
    notes.append(f"bundled round trips on {three}+{two} trees up to n={max_n_bundle}")

    pairs = []
    for b in (2, 3):
        pairs.append((families.recursive(1), families.recursive(b)))
        pairs += [(families.ary(1, d), families.ary(b, d)) for d in (2, 3)]
        pairs += [(families.port(1, a), families.port(b, a)) for a in (1, 2)]
    for base, target in pairs:
        phi1 = (lambda s: lambda k: families.phi(s, k))(base)
        for k in range(max_k + 1):
            got = bijections.weight_preserving_phi(phi1, target.b, k)
            want = families.phi(target, k)
            _need(got == want,
                  f"induced phi_{k} for {target.describe()} is {got}, not {want}")
    notes.append(f"induced degree weights match the closed forms for k <= {max_k}")
    return "; ".join(notes)


# ---------------------------------------------------------------------------
# 6. urns


def check_urns(level: str, seed: int) -> str:
    quick = level == "quick"
    charpoly_max_b = 10 if quick else 30
    exact_n, exact_reps = (6, 30000) if quick else (7, 10 ** 6)
    growth_n, growth_reps, urn_reps = (150, 60, 1000) if quick else (10 ** 3, 300, 4000)
    notes = []
    for b in range(1, charpoly_max_b + 1):
        for spec in kind_grid(b):
            model = urns.build_urn(spec)
            _need(urns.char_poly(model) == urns.char_poly_closed(model),
                  f"{spec.describe()}: the characteristic polynomial of R is not "
                  "the mapped indicial polynomial")
    notes.append("characteristic polynomial of R equals the indicial polynomial under "
                 f"lambda -> a*lambda - c exactly for b <= {charpoly_max_b}")

    def estimates(spec, n, size, rng):
        counts = montecarlo.sample_urn_counts(spec, n, size, rng)
        return urns.node_type_estimates(urns.build_urn(spec), counts)

    stream = RngStream(seed)
    for i, spec in enumerate(kind_grid(2) + [families.recursive(3)]):
        exact = expected_capacity_counts(spec, exact_n)
        est = estimates(spec, exact_n, exact_reps, stream.child(i))
        for k in range(1, spec.b + 1):
            target = float(exact[k])
            ok, z = gof.mean_within_sigma(est[k], target)  # within three standard errors
            _need(ok, f"sample mean {est[k].mean():.5f} is {z:.2f} sigma from {target:.5f}")
    notes.append(f"urn means match enumeration means at n={exact_n} "
                 f"({exact_reps} replicates, 3 sigma)")

    for i, spec in enumerate(kind_grid(2) + [families.recursive(3)]):
        est = estimates(spec, growth_n, urn_reps, stream.child(100 + i))
        model = urns.build_urn(spec)
        sim = np.zeros((growth_reps, spec.b))
        tree_stream = stream.child(200 + i)
        for r in range(growth_reps):
            cen = grow.sample_census(spec, growth_n, tree_stream.child(r))
            nodes = {k: cen.m.get(k, 0) for k in range(1, spec.b)}
            nodes[spec.b] = sum(cen.n_deg.values())
            # the urn-tree coupling: the census's ball counts give its nodes back
            back = urns.node_type_estimates(model, urns.census_counts(model, cen))
            _need(back == nodes, f"{spec.describe()}: census nodes {nodes} read "
                                 f"back from its ball counts as {back}")
            sim[r] = [nodes[k] for k in range(1, spec.b + 1)]
        for k in range(1, spec.b + 1):
            a, bvals = est[k], sim[:, k - 1]
            se = math.hypot(a.std(ddof=1) / math.sqrt(len(a)),
                            bvals.std(ddof=1) / math.sqrt(len(bvals)))
            z = (a.mean() - bvals.mean()) / se
            _need(abs(z) <= 3.0,
                  f"{spec.describe()} N_{k} at n={growth_n}: urn vs growth "
                  f"differ by {z:.2f} sigma")
    notes.append(f"urn means match growth-simulation means at n={growth_n} (3 sigma), "
                 "and every sampled census reads back from its ball counts exactly")
    return "; ".join(notes)


# ---------------------------------------------------------------------------
# 7. descendants, saturation, out-degree


def check_descendants(level: str, seed: int) -> str:
    quick = level == "quick"
    max_n = 6 if quick else 8
    beta_n, gamma_n = (2000, 10 ** 4) if quick else (10 ** 4, 10 ** 5)
    ks_samples = 2 * 10 ** 4 if quick else 10 ** 5
    notes = []
    for spec in (families.recursive(2), families.port(2, 1), families.ary(2, 2)):
        for n in range(1, max_n + 1):
            for j in range(1, n + 1):
                for stat, fn in (("Y", dist_desc.pmf_Y),
                                 ("tau", dist_desc.pmf_tau),
                                 ("X", dist_desc.pmf_X)):
                    got = fn(spec, n, j)
                    want = exact_statistic_pmf(spec, n, f"{stat}:{j}")
                    _need(got.mass == want.mass,
                          f"{spec.describe()} {stat}_{{{n},{j}}}: "
                          f"{got.mass} != oracle {want.mass}")
    notes.append(f"Y, tau, X pmfs equal the oracle exactly for n <= {max_n}")

    one = families.recursive(1)
    for n in range(2, 41):
        mean = dist_desc.pmf_X(one, n, 1).mean()
        harmonic = sum(Fraction(1, s) for s in range(1, n))
        _need(mean == harmonic,
              f"E[X_{{{n},1}}] = {mean} is not the harmonic number H_{n - 1}")
        _need(abs(float(mean) - float(harmonic)) <= 1e-12, "harmonic float gap")
    notes.append("E[X_n,1] equals H_(n-1) exactly for b=1 recursive, n <= 40")

    spec = families.recursive(2)
    stream = RngStream(seed)
    for i, j in enumerate((4, 6)):
        ref = dist_desc.limit_reference(spec, "fixed-j", j=j)
        y = montecarlo.sample_Y(spec, beta_n, j, ks_samples, stream.child(i))
        report = gof.kolmogorov_smirnov(ref.rescale(y, beta_n), ref.cdf)
        _need(report.passed(SIGNIFICANCE),
              f"Beta-mixture KS failed at j={j}: {report}")
    notes.append(f"KS vs the Beta mixture passes at n={beta_n}, j in (4, 6)")

    j = int(math.isqrt(gamma_n))
    ref = dist_desc.limit_reference(spec, "small-j", j=j)
    y = montecarlo.sample_Y(spec, gamma_n, j, ks_samples, stream.child(50))
    report = gof.kolmogorov_smirnov(ref.rescale(y, gamma_n), ref.cdf)
    _need(report.passed(SIGNIFICANCE), f"Gamma-mixture KS failed: {report}")
    notes.append(f"KS vs the Gamma mixture passes at n={gamma_n}, j={j}")
    return "; ".join(notes)


# ---------------------------------------------------------------------------
# 8. growth-rule conservation


def check_conservation(level: str, seed: int) -> str:
    trees_per_family, max_size = (300, 300) if level == "quick" else (10 ** 4, 10 ** 3)
    stream = RngStream(seed)
    checked = 0
    for i, spec in enumerate(family_grid()):
        gc = families.growth_coeffs(spec)
        child = stream.child(i)
        # log-uniform sizes cover the whole range without factorial cost
        u = child.child(0).generator.random(trees_per_family)
        sizes = np.minimum(np.exp(u * math.log(max_size)).astype(int) + 1, max_size)
        sizes[:3] = max_size  # always include the largest size
        tree_stream = child.child(1)
        for r, size in enumerate(sizes):
            g = grow._grown(spec, int(size), tree_stream)
            _, cap, deg = g.arrays()
            # numpy sums the counts; the coefficients multiply as Python ints
            total = gc.a * int(cap.sum()) + gc.bdeg * int(deg.sum()) + gc.c * len(cap)
            _need(total == gc.total(g.size),
                  f"{spec.describe()} size={size}: node weights sum to {total}, "
                  f"not {gc.total(g.size)}")
            if r % 100 == 0:
                probs = grow.attraction_probs(spec, g.build())
                _need(sum(p for _, _, p in probs) == 1,
                      f"{spec.describe()}: attraction probabilities do not sum to 1")
            checked += 1
    return (f"node weights sum to the closed total on {checked} random trees "
            f"(sizes up to {max_size})")


# ---------------------------------------------------------------------------
# the suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float
    traceback: str = ""  # the formatted exception of a check that raised

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.2f}s): {self.detail}"


CHECKS = {
    "1-total-weights": check_total_weights,
    "2-measure-equality": check_measure_equality,
    "3-bucket-size-distribution": check_k_distribution,
    "4-spectral": check_spectral,
    "5-bijections": check_bijections,
    "6-urns": check_urns,
    "7-descendants": check_descendants,
    "8-conservation": check_conservation,
}

LEVELS = ("quick", "full")


def run_check(name: str, level: str, seed: int) -> CheckResult:
    """Run one named check at a level, seeded from the suite seed by the
    check's index, and time it; a check that raises is a failed result."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; use 'quick' or 'full'")
    check_seed = RngStream(seed).child(list(CHECKS).index(name)).integers(2 ** 62)
    start = time.perf_counter()
    try:
        detail, passed, trace = CHECKS[name](level, check_seed), True, ""
    except Exception as exc:  # a failed check is report content, not a crash
        detail, passed, trace = f"{type(exc).__name__}: {exc}", False, traceback.format_exc()
    return CheckResult(name, passed, detail, time.perf_counter() - start, trace)


def verify_suite(level: str = "quick", seed: int = 0) -> list[CheckResult]:
    """Run the verification suite and return one result per criterion."""
    return [run_check(name, level, seed) for name in CHECKS]
