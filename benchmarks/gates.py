"""Correctness gates: every op's output is checked by one of these.

Exact gates raise GateFailure.  Stochastic gates return a p-value; the
runner fails an op whose p-value falls below `verify.SIGNIFICANCE`
divided by the number of stochastic ops in the run (Bonferroni), so a
whole run has at most that chance of a false alarm.
"""

from __future__ import annotations

import math
from fractions import Fraction

from common import need

RESIDUAL_TOL = 1e-10      # indicial roots, as in spectral.RESIDUAL_TOL
EIGEN_TOL = 1e-9          # relative residual of urn eigenvalues, as in verify
K_AGREEMENT_TOL = 1e-9    # spectral pmf_K against the exact recursion


# ---------------------------------------------------------------------------
# trees and growth


def same_tree(a, b) -> bool:
    """Structural equality of two bucket trees, walked without recursion."""
    if a.b != b.b:
        return False
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if x.labels != y.labels or len(x.children) != len(y.children):
            return False
        stack.extend(zip(x.children, y.children))
    return True


def census_consistent(spec, n: int, cen) -> None:
    """A census of a size-n tree: size, node/edge identities and total weight."""
    from buckettrees import families
    need(cen.n == n, f"census size {cen.n} != {n}")
    need(cen.node_sum_identity(), "census breaks n = sum k m_k + b sum n_k")
    need(cen.edge_sum_identity(), "census breaks 1 = sum m_k - sum (k-1) n_k")
    if spec.kind == families.LINEAR:
        for k in cen.m:
            need(families.linear_node_weight(spec, k, 0) >= 0, "negative linear weight")
        return
    gc = families.growth_coeffs(spec)
    total = (sum(c * gc.node_weight(k, 0) for k, c in cen.m.items())
             + sum(c * gc.node_weight(spec.b, d) for d, c in cen.n_deg.items()))
    need(total == gc.total(n),
         f"node weights sum to {total}, not growth total {gc.total(n)}")


def attraction_sums_to_one(probs) -> None:
    need(sum(p for _, _, p in probs) == 1, "attraction probabilities do not sum to 1")


def is_path(tree, n: int) -> None:
    """A tree of n single-label buckets in a chain 1-2-...-n."""
    node, label = tree.root, 1
    while True:
        need(node.labels == (label,), f"path node {label} holds {node.labels}")
        if not node.children:
            break
        need(len(node.children) == 1, f"path node {label} has {len(node.children)} children")
        node, label = node.children[0], label + 1
    need(label == n, f"path has {label} nodes, not {n}")


# ---------------------------------------------------------------------------
# exact laws


def exact_pmf(pmf, lo: int = None, hi: int = None) -> None:
    """An exact pmf: rational atoms summing to exactly 1, inside [lo, hi]."""
    need(pmf.exact, "pmf is not exact")
    need(sum(pmf.mass.values()) == 1, f"exact pmf sums to {sum(pmf.mass.values())}")
    need(all(p > 0 for p in pmf.mass.values()), "exact pmf has a nonpositive atom")
    if lo is not None:
        need(min(pmf.mass) >= lo and max(pmf.mass) <= hi,
             f"support {min(pmf.mass)}..{max(pmf.mass)} outside {lo}..{hi}")


def float_pmf(pmf, lo: int, hi: int, tol: float = K_AGREEMENT_TOL) -> None:
    need(abs(sum(pmf.mass.values()) - 1.0) <= tol, "float pmf does not sum to 1")
    need(all(p >= -1e-12 for p in pmf.mass.values()), "negative mass")
    need(min(pmf.mass) >= lo and max(pmf.mass) <= hi, "support out of range")


def pmfs_agree(fast, exact, tol: float = K_AGREEMENT_TOL) -> None:
    gap = fast.max_abs_diff(exact)
    need(gap <= tol, f"pmfs differ by {gap:.3e} > {tol}")


def pmfs_equal(got, want, what: str) -> None:
    need(got.mass == want.mass, f"{what}: {got.mass} != {want.mass}")


def digest_matches(op_id: str, digest: str, reference: dict) -> bool:
    """Compare with the committed digest; True when the op is in the reference."""
    want = reference.get(op_id)
    if want is None:
        return False
    need(digest == want, f"pmf digest {digest} != reference {want}")
    return True


def roots_ok(roots, b: int, kap) -> None:
    need(len(roots.roots) == b, f"{len(roots.roots)} roots for degree {b}")
    worst = max(roots.residuals)
    need(worst <= RESIDUAL_TOL, f"root residual {worst:.3e} > {RESIDUAL_TOL}")
    need(abs(roots.roots[0] - complex(1 + Fraction(kap))) <= 1e-12,
         "leading root is not 1 + kappa")


def relative_residual(coeffs, z: complex) -> float:
    """|p(z)| over the coefficient-magnitude scale at z, at 60 digits."""
    import mpmath as mp
    with mp.workdps(60):
        zz = mp.mpc(z)
        value, scale, power = mp.mpc(0), mp.mpf(0), mp.mpc(1)
        for c in coeffs:
            cc = mp.mpf(c.numerator) / mp.mpf(c.denominator)
            value += cc * power
            scale += abs(cc) * abs(power)
            power *= zz
        return float(abs(value) / max(scale, mp.mpf(1)))


def eigenvalues_are_roots(coeffs, eigenvalues, b: int) -> None:
    need(len(eigenvalues) == b, f"{len(eigenvalues)} eigenvalues for b={b}")
    worst = max(relative_residual(coeffs, z) for z in eigenvalues)
    need(worst <= EIGEN_TOL, f"eigenvalue residual {worst:.3e} > {EIGEN_TOL}")


def equal_value(got, want, what: str) -> None:
    need(got == want, f"{what}: {got} != {want}")


# ---------------------------------------------------------------------------
# urns


def urn_estimates_exact(est: dict, b: int, n: int) -> None:
    """Bucket counts recovered from one urn trajectory are exact and consistent."""
    for k, v in est.items():
        need(Fraction(v).denominator == 1 and v >= 0, f"N_{k} estimate {v} is not a count")
    need(sum(k * est[k] for k in range(1, b)) + b * est[b] == n,
         f"recovered bucket counts do not hold {n} labels")


# ---------------------------------------------------------------------------
# stochastic gates (p-values)


def mean_p(samples, exact_mean: float) -> float:
    """Two-sided p-value of the sample mean against an exact mean (t test)."""
    import numpy as np
    import scipy.stats
    x = np.asarray(samples, dtype=float)
    se = x.std(ddof=1) / math.sqrt(len(x))
    if se == 0:
        return 1.0 if x.mean() == exact_mean else 0.0
    t = (x.mean() - exact_mean) / se
    return float(2 * scipy.stats.t.sf(abs(t), len(x) - 1))


def combined_p(ps) -> float:
    """Bonferroni over the tests of one op: the smallest p times their number."""
    ps = list(ps)
    return min(1.0, min(ps) * len(ps))


def stochastic_threshold(significance: float, n_stochastic: int) -> float:
    return significance / max(1, n_stochastic)

