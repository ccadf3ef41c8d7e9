"""One rule for every count argument: an integer in lo..hi, numpy integers
included and bool excluded, refused with one message that names it."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from buckettrees import (bijections, dist_desc, dist_k, enumeration, families, grow,
                         montecarlo, spectral, trees, urns)
from buckettrees.trees import BucketNode, BucketTree

REC1, REC2, REC3 = families.recursive(1), families.recursive(2), families.recursive(3)
TREE = trees.decode("{1,2}({3},{4,5})", 2)
URN = urns.build_urn(REC2)

# (entry point and argument, call with the argument, description, lo, hi, a valid value);
# where 1 is valid it is the valid value, so a cached 1 is in place before True is tried
ROWS = [
    ("FamilySpec b", lambda v: families.recursive(v), "capacity bound b", 1, None, 1),
    ("FamilySpec d", lambda v: families.ary(2, v), "arity d", 2, None, 3),
    ("phi k", lambda v: families.phi(REC2, v), "out-degree k", 0, None, 1),
    ("psi k", lambda v: families.psi(REC3, v), "capacity k", 1, 2, 1),
    ("total_weight_closed n", lambda v: families.total_weight_closed(REC2, v), "n", 1, None, 1),
    ("sample_tree n", lambda v: grow.sample_tree(REC2, v, 0), "n", 1, None, 1),
    ("sample_census n", lambda v: grow.sample_census(REC2, v, 0), "n", 1, None, 1),
    ("sample_K n", lambda v: montecarlo.sample_K(REC2, v, 5, 0), "n", 1, None, 1),
    ("sample_K size", lambda v: montecarlo.sample_K(REC2, 5, v, 0), "size", 0, None, 1),
    ("sample_urn_counts n", lambda v: montecarlo.sample_urn_counts(REC2, v, 5, 0), "n", 1,
     None, 1),
    ("sample_urn_counts size", lambda v: montecarlo.sample_urn_counts(REC2, 5, v, 0), "size",
     0, None, 1),
    ("sample_Y n", lambda v: montecarlo.sample_Y(REC2, v, 1, 5, 0), "n", 1, None, 1),
    ("sample_Y j", lambda v: montecarlo.sample_Y(REC2, 5, v, 5, 0), "label j", 1, 5, 1),
    ("sample_Y size", lambda v: montecarlo.sample_Y(REC2, 5, 3, v, 0), "size", 0, None, 1),
    ("sample_root_degree n", lambda v: montecarlo.sample_root_degree(REC1, v, 5, 0), "n", 1,
     None, 1),
    ("sample_root_degree size", lambda v: montecarlo.sample_root_degree(REC1, 5, v, 0), "size",
     0, None, 1),
    ("simulate_urn steps", lambda v: urns.simulate_urn(URN, v, 0), "steps", 0, None, 1),
    ("pmf_K n", lambda v: dist_k.pmf_K(REC2, v), "n", 1, None, 1),
    ("pmf_K_exact n", lambda v: dist_k.pmf_K_exact(REC2, v), "n", 1, None, 1),
    ("mean_type_masses n", lambda v: dist_k.mean_type_masses(REC2, v), "n", 1, None, 1),
    ("node_type_relation n", lambda v: dist_k.node_type_relation(REC2, v, {1: 1}), "n", 1,
     None, 1),
    ("pmf_Y n", lambda v: dist_desc.pmf_Y(REC2, v, 1), "n", 1, None, 1),
    ("pmf_Y j", lambda v: dist_desc.pmf_Y(REC2, 5, v), "label j", 1, 5, 1),
    ("pmf_tau n", lambda v: dist_desc.pmf_tau(REC2, v, 1), "n", 1, None, 1),
    ("pmf_tau j", lambda v: dist_desc.pmf_tau(REC2, 5, v), "label j", 1, 5, 1),
    ("pmf_X n", lambda v: dist_desc.pmf_X(REC2, v, 1), "n", 1, None, 1),
    ("pmf_X j", lambda v: dist_desc.pmf_X(REC2, 5, v), "label j", 1, 5, 1),
    ("pmf_Y_conditional n", lambda v: dist_desc.pmf_Y_conditional(REC2, v, 1, 1), "n", 1,
     None, 1),
    ("pmf_Y_conditional ell", lambda v: dist_desc.pmf_Y_conditional(REC2, 6, v, 4),
     "bucket size ell", 1, 2, 1),
    ("pmf_Y_conditional ell, j <= b", lambda v: dist_desc.pmf_Y_conditional(REC2, 6, v, 2),
     "bucket size ell", 2, 2, 2),
    ("pmf_Y_conditional j", lambda v: dist_desc.pmf_Y_conditional(REC2, 6, 1, v), "label j",
     1, 6, 1),
    ("limit_reference fixed-j j", lambda v: dist_desc.limit_reference(REC2, "fixed-j", j=v),
     "fixed-j regime's label j", 3, None, 4),
    ("limit_reference small-j j", lambda v: dist_desc.limit_reference(REC2, "small-j", j=v),
     "small-j regime's label j", 1, None, 1),
    ("all_trees b", lambda v: enumeration.all_trees(v, 4), "capacity bound b", 1, None, 1),
    ("all_trees n", lambda v: enumeration.all_trees(2, v), "n", 1, None, 1),
    ("all_trees max_n", lambda v: enumeration.all_trees(2, 1, max_n=v), "max_n", 1, None, 1),
    ("enumerate_trees n", lambda v: enumeration.enumerate_trees(REC2, v), "n", 1, None, 1),
    ("exact_statistic_pmf n", lambda v: enumeration.exact_statistic_pmf(REC2, v, "K"), "n", 1,
     None, 1),
    ("expected_capacity_counts n", lambda v: enumeration.expected_capacity_counts(REC2, v),
     "n", 1, None, 1),
    ("rising_coeffs b", lambda v: spectral.rising_coeffs(v), "capacity bound b", 1, None, 1),
    ("indicial_roots b", lambda v: spectral.indicial_roots(v, 0), "capacity bound b", 1, None,
     1),
    ("validate b", lambda v: trees.validate(BucketTree(v, BucketNode((1,)))),
     "capacity bound b", 1, None, 1),
    ("decode b", lambda v: trees.decode("{1}", v), "capacity bound b", 1, None, 1),
    ("harmonic_diff b", lambda v: spectral.harmonic_diff(Fraction(1), v), "capacity bound b",
     1, None, 1),
    ("cluster b", lambda v: bijections.cluster(trees.decode("{1}({2})", 1), v),
     "clustering bound b", 2, None, 2),
    ("weight_preserving_phi b", lambda v: bijections.weight_preserving_phi(lambda i: 1, v, 1),
     "capacity bound b", 1, None, 1),
    ("weight_preserving_phi k", lambda v: bijections.weight_preserving_phi(lambda i: 1, 2, v),
     "out-degree k", 0, None, 1),
]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b) and a.dtype == b.dtype
    if isinstance(a, dist_desc.LimitReference):
        return repr(a) == repr(b)
    return a == b


@pytest.mark.parametrize("call, name, lo, hi, good", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_every_count_argument_follows_the_one_rule(call, name, lo, hi, good):
    # a numpy integer is a count, and gives the int's result
    assert _same(call(np.int64(good)), call(good))
    span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    symbol = name.split()[-1]
    bad = [True, 2.5, float(good), "3", lo - 1] + ([] if hi is None else [hi + 1])
    for value in bad:
        message = f"{name} must be {span} and an integer, not {symbol}={value!r}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            call(value)


@pytest.mark.parametrize("statistic, message", [
    *[(f"{name}:{j}", f"label j must be in 1..5 and an integer, not j={j}")
      for name in ("Y", "X", "tau") for j in (0, 6)],
    *[(f"N:{k}", f"capacity k must be in 1..2 and an integer, not k={k}") for k in (0, 3)],
    ("K:1", "statistic 'K:1': K takes no argument"),
    ("Z", "unknown statistic 'Z'"),
    ("Y:x", "statistic 'Y:x': Y needs an integer argument, as in Y:1"),
    *[(value, f"statistic must be a string such as 'K' or 'Y:3', not {value}")
      for value in (3, None)]])
def test_a_tree_statistic_names_its_argument_as_its_pmf_does(statistic, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        enumeration.tree_statistic(TREE, statistic)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        enumeration.exact_statistic_pmf(REC2, 5, statistic)


@pytest.mark.parametrize("sampler", [
    lambda seed: grow.sample_tree(REC2, 8, seed),
    lambda seed: montecarlo.sample_K(REC2, 5, 5, seed),
    lambda seed: urns.simulate_urn(URN, 5, seed)],
    ids=["sample_tree", "sample_K", "simulate_urn"])
@pytest.mark.parametrize("seed", [2.7, True, "7", -1])
def test_a_seed_follows_the_count_rule(sampler, seed):
    message = f"seed must be >= 0 and an integer, not seed={seed!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        sampler(seed)


@pytest.mark.parametrize("sampler", [
    lambda size: montecarlo.sample_K(REC2, 5, size, 0),
    lambda size: montecarlo.sample_urn_counts(REC2, 5, size, 0),
    lambda size: montecarlo.sample_Y(REC2, 5, 3, size, 0),
    lambda size: montecarlo.sample_Y(REC2, 5, 1, size, 0),
    lambda size: montecarlo.sample_root_degree(REC1, 5, size, 0)])
def test_a_sample_of_size_zero_is_empty(sampler):
    assert len(sampler(0)) == 0
    assert len(sampler(np.int64(0))) == 0


def test_the_count_rule():
    assert trees.check_count(np.int64(3), "n") == 3
    assert type(trees.check_count(np.int64(3), "n")) is int
    assert trees.check_count(0, "steps", 0) == 0
    assert trees.check_count(5, "label j", 1, 5) == 5
    with pytest.raises(ValueError, match=r"^label j must be in 1\.\.5 and an integer, not j=6$"):
        trees.check_count(6, "label j", 1, 5)
    with pytest.raises(ValueError, match=r"^n must be >= 1 and an integer, not n=False$"):
        trees.check_count(False, "n")
    with pytest.raises(ValueError, match=r"^n must be >= 1 and an integer, not n=None$"):
        trees.check_count(None, "n")


def test_a_numpy_bound_computes_as_an_int():
    # a spec stores its counts as ints; a numpy b made phi's product wrap around
    spec = families.ary(np.int64(20), np.int64(3))
    assert type(spec.b) is int and type(spec.d) is int
    families.phi.cache_clear()  # so the numpy spec computes its own entry
    # recursive: phi_k = T_b * b^k / k!, and T_20 = 19!
    want = Fraction(math.factorial(19) * 20 ** 30, math.factorial(30))
    assert families.phi(families.recursive(np.int64(20)), 30) == want
