"""The four workloads, each a deterministic function of (seed, rounds).

Every op calls the package through module attributes (`grow.sample_tree`,
not a name imported into this file), so the traced run sees every call.

grow       growth sampler and tree codec; no Fraction or mpmath work.
exact      rational and mpmath laws: spectral roots, K, Y, tau, X, urn spectra.
replicate  vectorized Monte Carlo kernels and the urn step loop, each checked
           by a goodness-of-fit test against an exact or limit reference.
oracle     brute-force enumeration and the bijections on its trees.

Sizes are drawn log-uniformly, but stratified (see `interleaved_sizes`),
so the total work of a round moves little from seed to seed.  Ops that
hit a known defect are built as probes: run after the timed set, never
timed, and counted only in the failure ratio.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from common import Op, Outcome, interleaved_sizes, need, stream
import gates

# (b, kappa) pairs where the Newton polish misses and mp.polyroots runs
ROOT_FALLBACKS = ((28, Fraction(-1, 2)), (29, Fraction(-1, 2)),
                  (30, Fraction(-1, 2)), (30, Fraction(-1, 3)))
MAX_B = 30


def build(workload: str, seed: int, rounds: int) -> tuple[list[Op], list[Op]]:
    """Return (timed ops, known-defect probes) for one run."""
    by_name = {"grow": build_grow, "exact": build_exact,
               "replicate": build_replicate, "oracle": build_oracle}
    if workload not in by_name:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(by_name)}")
    return by_name[workload](seed, rounds)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# grow


def _grow_specs():
    from buckettrees import families
    return [families.recursive(1), families.recursive(2), families.recursive(3),
            families.ary(2, 3), families.port(2, 1), families.port(3, 2)]


def _grow_op(spec, n: int, kind: str, seed: int, key: tuple) -> Op:
    from buckettrees import grow, trees

    def run(ref, state):
        rng = grow.RngStream(seed, key)
        if kind == "census":
            cen, busy = _timed(grow.sample_census, spec, n, rng)
            return Outcome(cen, work=n, busy=busy)
        tree, busy = _timed(grow.sample_tree, spec, n, rng)
        text = trees.encode(tree)
        back = trees.decode(text, spec.b)
        cen = trees.census(trees.canonicalize(back))
        return Outcome((tree, back, cen), work=n, busy=busy)

    def check(out, ref):
        if kind == "census":
            gates.census_consistent(spec, n, out.value)
            return None
        tree, back, cen = out.value
        need(back == tree, "decode(encode(t)) != t")
        same_stream = grow.sample_census(spec, n, grow.RngStream(seed, key))
        gates.equal_value(cen, same_stream, "census(t) vs sample_census on the same stream")
        gates.census_consistent(spec, n, cen)
        if n <= 3000:
            gates.attraction_sums_to_one(grow.attraction_probs(spec, tree))
        return None

    return Op(f"grow/{kind}/{spec.describe()}/n={n}/key={'.'.join(map(str, key))}",
              "grow", run, check)


def _path_text(depth: int) -> str:
    return "".join(f"{{{i}}}(" for i in range(1, depth)) + f"{{{depth}}}" + ")" * (depth - 1)


def build_grow(seed: int, rounds: int):
    from buckettrees import families, grow, trees
    specs = _grow_specs()
    linear = families.linear(2, 1, 1, 1)  # weight (c-1) + deg + 1: O(n) scan per step
    ops = []
    for r in range(rounds):
        design = stream(seed, 1, r)
        for kind_i, kind in enumerate(("tree", "census")):
            top = 5e4 if kind == "tree" else 1e5
            for f, spec in enumerate(specs):
                for i, n in enumerate(interleaved_sizes(design, 10, top, 12, f, len(specs))):
                    ops.append(_grow_op(spec, n, kind, seed, (1, r, kind_i, f, i)))
            for i, n in enumerate(interleaved_sizes(design, 30, 1500, 8, kind_i, 2)):
                ops.append(_grow_op(linear, n, kind, seed, (1, r, kind_i, len(specs), i)))

    path_rule = families.linear(1, 0, -1, 1)  # weight 1 - deg: grows a path
    n_path = 500 + int(stream(seed, 2).integers(500))

    def run_path(ref, state):
        tree, busy = _timed(grow.sample_tree, path_rule, n_path, grow.RngStream(seed, (2,)))
        return Outcome(tree, work=n_path, busy=busy)

    depth = 3000
    text = _path_text(depth)

    def run_decode(ref, state):
        return Outcome(trees.decode(text, 1))

    probes = [
        Op(f"grow/tree/{path_rule.describe()}/n={n_path}", "grow", run_path,
           lambda out, ref: gates.is_path(out.value, n_path),
           known_defect="sample_tree on a path-shaped rule recurses once per level"),
        Op(f"trees/decode/path/depth={depth}", "trees", run_decode,
           lambda out, ref: gates.is_path(out.value, depth),
           known_defect="decode recurses once per level of a deep path"),
    ]
    return ops, probes


# ---------------------------------------------------------------------------
# exact


def _exact_specs():
    from buckettrees import families
    return [families.recursive(2), families.recursive(3), families.port(2, 1),
            families.port(3, 2), families.ary(2, 2), families.ary(2, 3)]


def _pmf_op(name: str, spec, n: int, j: int, fn, lo: int, hi: int) -> Op:
    def run(ref, state):
        pmf, busy = _timed(fn, spec, n, j)
        return Outcome(pmf, work=len(pmf.mass), busy=busy, pmfs=[pmf])

    def check(out, ref):
        gates.exact_pmf(out.value, lo, hi)
        return None

    return Op(f"exact/{name}/{spec.describe()}/n={n}/j={j}", "dist_desc", run, check)


def _roots_op(b: int, kap: Fraction) -> Op:
    from buckettrees import spectral

    def run(ref, state):
        roots, busy = _timed(spectral.indicial_roots, b, kap)
        return Outcome(roots, work=len(roots.roots), busy=busy)

    def check(out, ref):
        gates.roots_ok(out.value, b, kap)
        return None

    return Op(f"exact/indicial_roots/b={b}/kappa={kap}", "spectral", run, check)


def build_exact(seed: int, rounds: int):
    from buckettrees import dist_desc, families, verify
    specs = _exact_specs()
    kappas = verify.kappa_grid()
    ops = []
    for r in range(rounds):
        design = stream(seed, 10, r)
        # indicial roots: one kappa per b, taken along a seeded diagonal of the
        # (b, kappa) grid so every kappa is used equally often, plus the four
        # polyroots fallbacks
        offset = int(design.integers(len(kappas)))
        for b in range(1, MAX_B + 1):
            choices = [k for k in kappas if (b, k) not in ROOT_FALLBACKS]
            ops.append(_roots_op(b, choices[(b + offset) % len(choices)]))
        for b, kap in ROOT_FALLBACKS:
            ops.append(_roots_op(b, kap))

        # urn spectra across b <= 30, avoiding the fallback pairs
        for lo in range(2, MAX_B + 1, 3):
            b = min(MAX_B, lo + int(design.integers(3)))
            kinds = [s for s in verify.kind_grid(b)
                     if (b, families.kappa(s)) not in ROOT_FALLBACKS]
            ops.append(_spectrum_op(kinds[int(design.integers(len(kinds)))]))
        # Faddeev-LeVerrier characteristic polynomials (cost grows like b^4)
        for lo in range(2, 17, 2):
            b = lo + int(design.integers(2))
            kinds = verify.kind_grid(b)
            ops.append(_char_poly_op(kinds[int(design.integers(len(kinds)))]))

        for f, spec in enumerate(specs):
            for n in interleaved_sizes(design, 1e3, 2e4, 2, f, len(specs)):
                ops.append(_pmf_k_op(spec, n))
        for f, spec in enumerate(specs[:4]):
            for n in interleaved_sizes(design, 100, 1500, 2, f, 4):
                ops.append(_pmf_k_exact_op(spec, n))

        for f, spec in enumerate(specs):
            for stat_i, (name, fn) in enumerate((("pmf_Y", dist_desc.pmf_Y),
                                                 ("pmf_tau", dist_desc.pmf_tau),
                                                 ("pmf_X", dist_desc.pmf_X))):
                if name == "pmf_X" and spec.kind == families.ARY:
                    continue  # a known defect, probed below
                # the port X law costs far more per label: keep it short
                hi = 60 if (name == "pmf_X" and spec.kind == families.PORT) else 150
                sizes = interleaved_sizes(design, 15, hi, 6, f, len(specs))
                for i, n in enumerate(sizes):
                    # j/n is stratified too, paired with the size strata in rotation
                    frac = ((i + f + stat_i) % len(sizes) + design.random()) / len(sizes)
                    j = spec.b + 1 + int(frac * max(1, n // 2 - spec.b))
                    lo_hi = {"pmf_Y": (1, n - j + 1), "pmf_tau": (j, n),
                             "pmf_X": (0, n - j)}[name]
                    ops.append(_pmf_op(name, spec, n, j, fn, *lo_hi))

    probe_design = stream(seed, 11)
    probes = []
    for spec in specs:
        if spec.kind == families.ARY:
            n = 20 + int(probe_design.integers(40))
            j = spec.b + 1 + int(probe_design.integers(5))
            op = _pmf_op("pmf_X", spec, n, j, dist_desc.pmf_X, 0, n - j)
            op.known_defect = "pmf_X refuses the ary family"
            probes.append(op)
    return ops, probes


def _spectrum_op(spec) -> Op:
    from buckettrees import urns

    def run(ref, state):
        model = urns.build_urn(spec)
        sp, busy = _timed(urns.urn_spectrum, model)
        return Outcome(sp, work=len(sp.eigenvalues), busy=busy)

    def check(out, ref):
        sp = out.value
        gates.eigenvalues_are_roots(list(sp.char_coeffs), sp.eigenvalues, spec.b)
        return None

    return Op(f"exact/urn_spectrum/{spec.describe()}", "urns", run, check)


def _char_poly_op(spec) -> Op:
    from buckettrees import urns

    def run(ref, state):
        model = urns.build_urn(spec)
        coeffs, busy = _timed(urns.char_poly, model)
        return Outcome((model, coeffs), work=len(coeffs), busy=busy)

    def check(out, ref):
        model, coeffs = out.value
        gates.equal_value(coeffs, urns.char_poly_closed(model), "char_poly vs product form")
        return None

    return Op(f"exact/char_poly/{spec.describe()}", "urns", run, check)


def _pmf_k_op(spec, n: int) -> Op:
    from buckettrees import dist_k

    def run(ref, state):
        pmf, busy = _timed(dist_k.pmf_K, spec, n)
        return Outcome(pmf, work=len(pmf.mass), busy=busy)

    def check(out, ref):
        gates.float_pmf(out.value, 1, spec.b)
        return None

    return Op(f"exact/pmf_K/{spec.describe()}/n={n}", "dist_k", run, check)


def _pmf_k_exact_op(spec, n: int) -> Op:
    from buckettrees import dist_k

    def run(ref, state):
        pmf, busy = _timed(dist_k.pmf_K_exact, spec, n)
        return Outcome(pmf, work=len(pmf.mass), busy=busy, pmfs=[pmf])

    def check(out, ref):
        gates.exact_pmf(out.value, 1, spec.b)
        gates.pmfs_agree(dist_k.pmf_K(spec, n), out.value)
        return None

    return Op(f"exact/pmf_K_exact/{spec.describe()}/n={n}", "dist_k", run, check)


# ---------------------------------------------------------------------------
# replicate


def _replicate_specs():
    from buckettrees import families
    return [families.recursive(2), families.recursive(3), families.ary(2, 2),
            families.ary(2, 3), families.port(2, 1), families.port(3, 2)]


def _b1_specs():
    # not ary(1, 2): its root has degree 2 with probability 1 - O(1/n), so at
    # these sizes a mean test has nothing left to test
    from buckettrees import families
    return [families.recursive(1), families.ary(1, 3), families.ary(1, 4),
            families.port(1, 1), families.port(1, 2)]


def _root_degree_mean(spec, n: int) -> float:
    """E[root degree] at size n for b = 1: the degree mean obeys a linear recursion."""
    from buckettrees import families
    gc = families.growth_coeffs(spec)
    m = 0.0
    for s in range(1, n):
        m += (gc.a + gc.c + gc.bdeg * m) / (gc.a * s + gc.total_c)
    return m


def build_replicate(seed: int, rounds: int):
    from buckettrees import families, grow
    specs = _replicate_specs()
    ops = []
    for r in range(rounds):
        design = stream(seed, 20, r)

        def key(*k):
            return grow.RngStream(seed, (20, r) + k)

        # many replicates on short chains
        for f, spec in enumerate(specs):
            for i, n in enumerate(interleaved_sizes(design, 20, 200, 3, f, len(specs))):
                ops.append(_sample_k_op(spec, n, 20000, key(1, f, i)))
                ops.append(_urn_counts_op(spec, n, 20000, key(2, f, i)))
        # long chains: Y in the Beta (fixed j) and Gamma (j = sqrt n) regimes.
        # The Gamma limit is reached at rate j^-(l+kappa) near zero, since Y >= 1:
        # with port's shape 1/2 that bias still shows at j ~ 100, so the
        # Gamma regime uses the families whose shapes are >= 1.
        beta_specs = [families.recursive(2), families.recursive(3), families.port(2, 1),
                      families.ary(2, 2)]
        gamma_specs = [families.recursive(2), families.recursive(3), families.ary(2, 2),
                       families.ary(2, 3)]
        for f, spec in enumerate(beta_specs):
            for i, n in enumerate(interleaved_sizes(design, 2e3, 2e4, 3, f, len(beta_specs))):
                j = spec.b + 1 + int(design.integers(4))
                ops.append(_sample_y_op(spec, n, j, "fixed-j", 2000, key(3, f, i)))
        for f, spec in enumerate(gamma_specs):
            for i, n in enumerate(interleaved_sizes(design, 4e3, 1.6e4, 3, f, len(gamma_specs))):
                ops.append(_sample_y_op(spec, n, math.isqrt(n), "small-j", 2000, key(4, f, i)))
        for f, spec in enumerate(_b1_specs()):
            for i, n in enumerate(interleaved_sizes(design, 1e3, 1.2e4, 4, f, 5)):
                ops.append(_root_degree_op(spec, n, 4000, key(5, f, i)))
        urn_specs = [families.recursive(2), families.recursive(3), families.port(2, 1),
                     families.ary(2, 3)]
        for f, spec in enumerate(urn_specs):
            for i, n in enumerate(interleaved_sizes(design, 200, 2000, 6, f, len(urn_specs))):
                ops.append(_simulate_urn_op(spec, n, 20, key(6, f, i)))
    return ops, []


def _sample_k_op(spec, n: int, size: int, rng) -> Op:
    from buckettrees import dist_k, gof, montecarlo

    def run(ref, state):
        k, busy = _timed(montecarlo.sample_K, spec, n, size, rng)
        report = gof.chi_square(k, ref)
        return Outcome(report, work=size * (n - 1), busy=busy)

    return Op(f"replicate/sample_K/{spec.describe()}/n={n}/size={size}", "montecarlo",
              run, lambda out, ref: out.value.p_value,
              prepare=lambda: dist_k.pmf_K_exact(spec, n))


def _urn_counts_op(spec, n: int, size: int, rng) -> Op:
    from buckettrees import dist_k, montecarlo

    def run(ref, state):
        counts, busy = _timed(montecarlo.sample_urn_counts, spec, n, size, rng)
        return Outcome(counts, work=size * (n - 1), busy=busy)

    def check(out, ref):
        return gates.combined_p(gates.mean_p(out.value[:, k], float(ref[k]))
                                for k in range(spec.b))

    return Op(f"replicate/sample_urn_counts/{spec.describe()}/n={n}/size={size}",
              "montecarlo", run, check, prepare=lambda: dist_k.mean_type_masses(spec, n))


def _sample_y_op(spec, n: int, j: int, regime: str, size: int, rng) -> Op:
    from buckettrees import dist_desc, gof, montecarlo

    def run(ref, state):
        y, busy = _timed(montecarlo.sample_Y, spec, n, j, size, rng)
        report = gof.kolmogorov_smirnov(ref.rescale(y, n), ref.cdf)
        return Outcome(report, work=size * (n - 1), busy=busy)

    return Op(f"replicate/sample_Y/{regime}/{spec.describe()}/n={n}/j={j}/size={size}",
              "montecarlo", run, lambda out, ref: out.value.p_value,
              prepare=lambda: dist_desc.limit_reference(spec, regime, j=j))


def _root_degree_op(spec, n: int, size: int, rng) -> Op:
    from buckettrees import montecarlo

    def run(ref, state):
        deg, busy = _timed(montecarlo.sample_root_degree, spec, n, size, rng)
        return Outcome(deg, work=size * (n - 1), busy=busy)

    return Op(f"replicate/sample_root_degree/{spec.describe()}/n={n}/size={size}",
              "montecarlo", run, lambda out, ref: gates.mean_p(out.value, ref),
              prepare=lambda: _root_degree_mean(spec, n))


def _simulate_urn_op(spec, steps: int, trajectories: int, rng) -> Op:
    from buckettrees import dist_k, urns

    def run(ref, state):
        model = urns.build_urn(spec)
        finals, ests, busy = [], [], 0.0
        for t in range(trajectories):
            traj, dt = _timed(urns.simulate_urn, model, steps, rng.child(t))
            busy += dt
            finals.append(traj.final())
            ests.append(urns.node_type_estimates(model, traj.final()))
        return Outcome((finals, ests), work=trajectories * steps, busy=busy)

    def check(out, ref):
        finals, ests = out.value
        for est in ests:
            gates.urn_estimates_exact(est, spec.b, steps + 1)
        return gates.combined_p(gates.mean_p([q[k] for q in finals], float(ref[k]))
                                for k in range(spec.b))

    return Op(f"replicate/simulate_urn/{spec.describe()}/steps={steps}x{trajectories}",
              "urns", run, check, prepare=lambda: dist_k.mean_type_masses(spec, steps + 1))


# ---------------------------------------------------------------------------
# oracle

ORACLE_MAX_N = {1: 7, 2: 8, 3: 8}   # b = 1 at n = 8 alone costs ~10 s
MEASURES = ("ordered-model", "unordered-model", "unordered-growth")


def build_oracle(seed: int, rounds: int):
    from buckettrees import families, verify
    grid = verify.family_grid()
    ops = []
    for r in range(rounds):
        design = stream(seed, 30, r)
        for spec in grid:
            for n in range(1, ORACLE_MAX_N[spec.b] + 1):
                ops.append(_enumerate_op(spec, n))
        for spec in grid:
            n = ORACLE_MAX_N[spec.b]
            for stat in ("K", "Y", "X", "N", "tau"):
                arg = "" if stat == "K" else str(
                    1 + int(design.integers(spec.b if stat == "N" else n)))
                ops.append(_statistic_op(spec, n, stat + (f":{arg}" if arg else "")))
        for spec in grid:
            n = 5 if spec.b == 1 else 6
            ops.append(_probability_op(spec, n, 12, int(design.integers(2 ** 31))))
        for n in (5, 6, 7):
            for kind in ("cluster", "three-bundled", "two-bundled", "diamond"):
                ops.append(_round_trip_op(kind, n, 150, int(design.integers(2 ** 31))))

    depth = 3000

    def run_deep(ref, state):
        from buckettrees import bijections
        tree = _plain_path(depth)
        return Outcome((tree, bijections.cluster_three_bundled(tree)))

    def check_deep(out, ref):
        from buckettrees import bijections
        tree, bt = out.value
        need(gates.same_tree(bijections.uncluster_three_bundled(bt), tree),
             "three-bundled round trip on a deep path")
        return None

    probes = [Op(f"bijections/three-bundled/path/depth={depth}", "bijections",
                 run_deep, check_deep,
                 known_defect="bijection walks recurse once per level of a deep path")]
    return ops, probes


def _plain_path(depth: int):
    from buckettrees.trees import BucketNode, BucketTree
    node = BucketNode((depth,))
    for label in range(depth - 1, 0, -1):
        node = BucketNode((label,), (node,))
    return BucketTree(1, node)


def _enumerate_op(spec, n: int) -> Op:
    from buckettrees import enumeration, families

    def run(ref, state):
        ts, busy = _timed(enumeration.enumerate_trees, spec, n)
        state.setdefault("trees", {})[(spec.describe(), n)] = len(ts.items)
        return Outcome(ts, work=len(ts.items), busy=busy)

    def check(out, ref):
        gates.equal_value(out.value.total_weight(), families.total_weight_closed(spec, n),
                          "enumerated total weight vs closed form")
        return None

    return Op(f"oracle/enumerate_trees/{spec.describe()}/n={n}", "enumeration", run, check)


def _statistic_op(spec, n: int, statistic: str) -> Op:
    from buckettrees import dist_desc, dist_k, enumeration, families

    def run(ref, state):
        pmf, busy = _timed(enumeration.exact_statistic_pmf, spec, n, statistic)
        trees = state.get("trees", {}).get((spec.describe(), n), 0)
        return Outcome(pmf, work=trees, busy=busy, pmfs=[pmf])

    def check(out, ref):
        pmf = out.value
        gates.exact_pmf(pmf)
        name, _, arg = statistic.partition(":")
        if name == "K":
            gates.pmfs_equal(pmf, dist_k.pmf_K_exact(spec, n), "oracle K vs pmf_K_exact")
        elif name == "Y":
            gates.pmfs_equal(pmf, dist_desc.pmf_Y(spec, n, int(arg)), "oracle Y vs pmf_Y")
        elif name == "tau":
            gates.pmfs_equal(pmf, dist_desc.pmf_tau(spec, n, int(arg)), "oracle tau vs pmf_tau")
        elif name == "X" and spec.kind != families.ARY:
            gates.pmfs_equal(pmf, dist_desc.pmf_X(spec, n, int(arg)), "oracle X vs pmf_X")
        elif name == "N":
            gates.equal_value(pmf.mean(), _expected_nodes(spec, n, int(arg)),
                              "oracle E[N_k] vs mean type masses")
        return None

    return Op(f"oracle/exact_statistic_pmf/{spec.describe()}/n={n}/{statistic}",
              "enumeration", run, check)


def _expected_nodes(spec, n: int, k: int) -> Fraction:
    """E[N_{n,k}] from the exact mean ball masses: each capacity-k < b bucket
    carries w_k balls, and the capacities account for all n labels."""
    from buckettrees import dist_k, families
    gc = families.growth_coeffs(spec)
    q = dist_k.mean_type_masses(spec, n)
    low = {c: q[c - 1] / gc.node_weight(c, 0) for c in range(1, spec.b)}
    if k < spec.b:
        return low[k]
    return (n - sum(c * v for c, v in low.items())) / spec.b


def _probability_op(spec, n: int, count: int, pick_seed: int) -> Op:
    from buckettrees import enumeration

    def run(ref, state):
        t0 = time.perf_counter()
        ts = enumeration.enumerate_trees(spec, n)
        canon = enumeration.distinct_unordered(ts)
        picks = stream(pick_seed).choice(len(canon), size=min(count, len(canon)),
                                         replace=False)
        rows = []
        for i in sorted(int(p) for p in picks):
            rows.append(tuple(enumeration.exact_probability(spec, canon[i], m)
                              for m in MEASURES))
        return Outcome(rows, work=len(ts.items), busy=time.perf_counter() - t0)

    def check(out, ref):
        for ordered, model, growth in out.value:
            need(0 < ordered <= model <= 1, "ordered probability exceeds the unordered one")
            gates.equal_value(growth, model, "growth measure vs model measure")
        return None

    return Op(f"oracle/exact_probability/{spec.describe()}/n={n}/pick={pick_seed}",
              "enumeration", run, check)


def _round_trip_op(kind: str, n: int, count: int, pick_seed: int) -> Op:
    from buckettrees import bijections, enumeration, families

    def corpus():
        if kind == "two-bundled":
            return enumeration.distinct_unordered(
                enumeration.enumerate_trees(families.recursive(1), n))
        b = {"cluster": 2 + n % 2, "three-bundled": 1, "diamond": 2}[kind]
        return enumeration.all_trees(b, n)

    def one(tree):
        if kind == "cluster":
            return bijections.cluster(bijections.expand_chains(tree), tree.b)
        if kind == "three-bundled":
            return bijections.uncluster_three_bundled(bijections.cluster_three_bundled(tree))
        if kind == "two-bundled":
            return bijections.uncluster_two_bundled(bijections.cluster_two_bundled(tree))
        d = bijections.bucket_to_diamond(tree)
        return bijections.diamond_to_bucket(d), d, bijections.encode_diamond(d)

    def run(ref, state):
        trees = corpus()
        picks = stream(pick_seed).choice(len(trees), size=min(count, len(trees)),
                                         replace=False)
        rows = []
        for i in picks:
            got = one(trees[int(i)])
            rows.append((trees[int(i)],) + (got if kind == "diamond" else (got, None, None)))
        return Outcome(rows)

    def check(out, ref):
        for tree, back, diamond, text in out.value:
            need(back.root == tree.root, f"{kind} round trip changed a tree")
            if diamond is not None:
                need(bijections.decode_diamond(text) == diamond, "diamond codec round trip")
        return None

    return Op(f"oracle/round_trip/{kind}/n={n}/pick={pick_seed}", "bijections", run, check)
