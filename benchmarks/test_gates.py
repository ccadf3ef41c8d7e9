"""Self-tests of the benchmark: every gate trips on an injected fault, and the
op list is a deterministic function of the seed.

    python3 -m pytest -q benchmarks/test_gates.py
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest

import common

common.use_checkout_source()

import gates  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from buckettrees import (dist_desc, dist_k, families, gof, grow, montecarlo,  # noqa: E402
                         spectral, trees, verify)
from buckettrees.pmf import Pmf  # noqa: E402
from common import GateFailure, Op, Outcome  # noqa: E402

THRESHOLD = gates.stochastic_threshold(verify.SIGNIFICANCE, 100)


def _ids(workload, seed):
    ops, probes = workloads.build(workload, seed, 1)
    return [op.id for op in ops], [op.id for op in probes]


@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_op_list_is_a_function_of_the_seed(workload):
    first, again, other = _ids(workload, 3), _ids(workload, 3), _ids(workload, 4)
    assert first == again
    assert first[0] != other[0]
    assert len(first[0]) >= 100


def test_exact_roots_always_include_the_fallback_cases():
    for seed in (0, 1, 2):
        ids = _ids("exact", seed)[0]
        for b, kap in workloads.ROOT_FALLBACKS:
            assert f"exact/indicial_roots/b={b}/kappa={kap}" in ids


def test_rounds_scale_the_op_set():
    one, _ = workloads.build("oracle", 0, 1)
    two, _ = workloads.build("oracle", 0, 2)
    assert len(two) == 2 * len(one)


# ---------------------------------------------------------------------------
# exact gates


def _shifted(pmf: Pmf, eps: Fraction) -> Pmf:
    lo, hi = min(pmf.mass), max(pmf.mass)
    mass = dict(pmf.mass)
    mass[lo] -= eps
    mass[hi] += eps
    return Pmf(mass)


def test_digest_gate_trips_on_a_perturbed_pmf():
    pmf = dist_k.pmf_K_exact(families.recursive(3), 40)
    reference = {"op": common.pmf_digest(pmf)}
    assert gates.digest_matches("op", common.pmf_digest(pmf), reference)
    bad = _shifted(pmf, Fraction(1, 10 ** 30))
    gates.exact_pmf(bad)  # still sums to one: only the digest sees it
    with pytest.raises(GateFailure):
        gates.digest_matches("op", common.pmf_digest(bad), reference)


def test_exact_sum_gate_trips():
    pmf = dist_desc.pmf_Y(families.recursive(2), 20, 4)
    gates.exact_pmf(pmf, 1, 17)
    mass = dict(pmf.mass)
    mass[min(mass)] += Fraction(1, 10 ** 40)
    with pytest.raises(GateFailure):
        gates.exact_pmf(Pmf(mass))
    with pytest.raises(GateFailure):
        gates.exact_pmf(pmf, 2, 17)


def test_spectral_agreement_gate_trips():
    spec = families.port(3, 2)
    exact = dist_k.pmf_K_exact(spec, 200)
    fast = dist_k.pmf_K(spec, 200)
    gates.pmfs_agree(fast, exact)
    off = Pmf({m: p + (1e-8 if m == 1 else 0.0) for m, p in fast.mass.items()})
    with pytest.raises(GateFailure):
        gates.pmfs_agree(off, exact)


def test_root_residual_gate_trips():
    roots = spectral.indicial_roots(6, Fraction(1, 2))
    gates.roots_ok(roots, 6, Fraction(1, 2))
    bad = spectral.IndicialRoots(roots.b, roots.kappa, roots.lambda1, roots.roots,
                                 roots.roots_mp, roots.residuals[:-1] + (1e-8,))
    with pytest.raises(GateFailure):
        gates.roots_ok(bad, 6, Fraction(1, 2))
    moved = spectral.IndicialRoots(roots.b, roots.kappa, roots.lambda1,
                                   (roots.roots[0] + 1e-6,) + roots.roots[1:],
                                   roots.roots_mp, roots.residuals)
    with pytest.raises(GateFailure):
        gates.roots_ok(moved, 6, Fraction(1, 2))


def test_eigenvalue_gate_trips():
    from buckettrees import urns
    sp = urns.urn_spectrum(urns.build_urn(families.ary(4, 3)))
    gates.eigenvalues_are_roots(list(sp.char_coeffs), sp.eigenvalues, 4)
    with pytest.raises(GateFailure):
        gates.eigenvalues_are_roots(list(sp.char_coeffs),
                                    sp.eigenvalues[:-1] + (sp.eigenvalues[-1] + 1e-3,), 4)


# ---------------------------------------------------------------------------
# growth and codec gates


def _grow_outcome(kind="tree", n=300):
    spec = families.port(2, 1)
    op = workloads._grow_op(spec, n, kind, 5, (9,))
    out = op.run(None, {})
    assert op.check(out, None) is None
    return op, out


def test_round_trip_gate_trips_on_a_broken_decode():
    op, out = _grow_outcome()
    tree, back, cen = out.value
    other = grow.sample_tree(families.port(2, 1), 300, 6)
    with pytest.raises(GateFailure):
        op.check(Outcome((tree, other, cen)), None)


def test_census_gate_trips_on_a_wrong_census():
    op, out = _grow_outcome()
    tree, back, cen = out.value
    wrong = trees.NodeCensus(cen.b, cen.n, {1: cen.m[1] + 1}, dict(cen.n_deg))
    with pytest.raises(GateFailure):
        op.check(Outcome((tree, back, wrong)), None)
    op, out = _grow_outcome("census")
    with pytest.raises(GateFailure):
        op.check(Outcome(trees.NodeCensus(out.value.b, out.value.n + 1,
                                          out.value.m, out.value.n_deg)), None)


def test_oracle_round_trip_gate_trips():
    op = workloads._round_trip_op("diamond", 5, 10, 1)
    out = op.run(None, {})
    op.check(out, None)
    tree, back, diamond, text = out.value[0]
    swapped = out.value[1][0]
    with pytest.raises(GateFailure):
        op.check(Outcome([(tree, swapped, diamond, text)]), None)


def test_measure_gate_trips():
    op = workloads._probability_op(families.port(2, 1), 5, 4, 1)
    out = op.run(None, {})
    op.check(out, None)
    ordered, model, growth = out.value[0]
    with pytest.raises(GateFailure):
        op.check(Outcome([(ordered, model, growth * Fraction(1001, 1000))]), None)


def test_total_weight_gate_trips():
    op = workloads._enumerate_op(families.ary(2, 3), 6)
    out = op.run(None, {})
    op.check(out, None)
    out.value.items.pop()
    with pytest.raises(GateFailure):
        op.check(out, None)


def test_urn_estimate_gate_trips():
    est = {1: Fraction(3), 2: Fraction(2)}
    gates.urn_estimates_exact(est, 2, 7)
    with pytest.raises(GateFailure):
        gates.urn_estimates_exact({1: Fraction(5, 2), 2: Fraction(2)}, 2, 7)
    with pytest.raises(GateFailure):
        gates.urn_estimates_exact(est, 2, 8)


# ---------------------------------------------------------------------------
# stochastic gates


def test_chi_square_gate_trips_on_biased_samples():
    spec = families.recursive(3)
    ref = dist_k.pmf_K_exact(spec, 60)
    k = montecarlo.sample_K(spec, 60, 20000, 7)
    assert gof.chi_square(k, ref).p_value >= THRESHOLD
    biased = k.copy()
    biased[: len(k) // 30] = 1
    assert gof.chi_square(biased, ref).p_value < THRESHOLD


def test_ks_gate_trips_on_biased_samples():
    spec = families.recursive(2)
    ref = dist_desc.limit_reference(spec, "fixed-j", j=4)
    y = montecarlo.sample_Y(spec, 3000, 4, 2000, 8)
    assert gof.kolmogorov_smirnov(ref.rescale(y, 3000), ref.cdf).p_value >= THRESHOLD
    scaled = ref.rescale(y, 3000) * 1.1
    assert gof.kolmogorov_smirnov(scaled, ref.cdf).p_value < THRESHOLD


def test_mean_gate_trips_on_biased_samples():
    spec = families.recursive(1)
    mean = workloads._root_degree_mean(spec, 2000)
    deg = montecarlo.sample_root_degree(spec, 2000, 4000, 9)
    assert gates.mean_p(deg, mean) >= THRESHOLD
    assert gates.mean_p(deg + 1, mean) < THRESHOLD


def test_runner_fails_low_p_values_and_errors():
    def boom(ref, state):
        raise RecursionError("deep")

    ok = Op("t/ok", "gof", lambda ref, state: Outcome(None), lambda out, ref: 0.5)
    low = Op("t/low", "gof", lambda ref, state: Outcome(None), lambda out, ref: 1e-9)
    err = Op("t/err", "grow", boom, lambda out, ref: None)
    reference = {"digests": {}}
    recs = [run.execute(op, None, {}, reference) for op in (ok, low, err)]
    assert [r["status"] for r in recs] == ["ok", "ok", "error"]
    assert recs[2]["detail"].startswith("RecursionError")
    threshold = run.apply_stochastic_threshold(recs, verify.SIGNIFICANCE)
    assert threshold == verify.SIGNIFICANCE / 2
    assert [r["status"] for r in recs] == ["ok", "gate", "error"]


def test_grow_and_exact_known_defects_fail_today():
    for workload in ("grow", "exact"):
        _, probes = workloads.build(workload, 0, 1)
        for op in probes:
            rec = run.execute(op, None, {}, {"digests": {}})
            assert rec["status"] != "ok", op.id


# ---------------------------------------------------------------------------
# the benchmark's declared metrics match what run.py prints


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in bench["workloads"]] == list(common.WORKLOADS)
    assert bench["run_seconds"] == common.ROUND_SECONDS
