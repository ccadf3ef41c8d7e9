"""Growth sampler: exact attraction probabilities and sampled distributions."""

from fractions import Fraction

import pytest

from buckettrees import families, gof
from buckettrees.enumeration import (UNORDERED_GROWTH, distinct_unordered,
                                     enumerate_trees, exact_probability)
from buckettrees.grow import (RngStream, _grown, attraction_probs, sample_census,
                              sample_tree)
from buckettrees.trees import BucketNode, BucketTree, canonicalize, decode, encode, validate


def test_attraction_probs_recursive_example():
    tree = decode("{1,2}({3})", 2)
    probs = {path: p for path, _, p in attraction_probs(families.recursive(2), tree)}
    assert probs[()] == Fraction(2, 3)
    assert probs[(0,)] == Fraction(1, 3)


def test_attraction_probs_ary_example():
    tree = decode("{1,2}({3})", 2)
    probs = {path: p for path, _, p in attraction_probs(families.ary(2, 3), tree)}
    assert probs[()] == Fraction(4, 7)
    assert probs[(0,)] == Fraction(3, 7)


def test_attraction_probs_sum_to_one():
    for spec in (families.recursive(3), families.port(2, 1), families.ary(2, 2),
                 families.linear(2, 1, 0, 1)):
        tree = sample_tree(spec, 25, 7)
        assert sum(p for _, _, p in attraction_probs(spec, tree)) == 1


def test_linear_rule_can_mimic_recursive():
    # weight (c-1) + 1 = c is exactly the recursive rule
    lin = families.linear(2, 1, 0, 1)
    rec = families.recursive(2)
    tree = sample_tree(rec, 20, 3)
    assert attraction_probs(lin, tree) == attraction_probs(rec, tree)


def test_sampling_is_deterministic_given_seed():
    spec = families.port(2, 1)
    a = sample_tree(spec, 50, RngStream(42))
    b = sample_tree(spec, 50, RngStream(42))
    assert a.root == b.root
    c = sample_tree(spec, 50, RngStream(43))
    assert a.root != c.root


# Seeded trees as the growth sampler draws them; each selection path (label
# table, slot table, weight groups) keeps its node order, so the streams
# stay fixed.
SEEDED_TREES = {
    families.recursive(2): "{1,2}({3,6}({9}),{4,5}({7},{8},{11},{13,14}),{10},{12})",
    families.ary(1, 3): "{1}({2}({3}({9}({10})),{4}({5}({11}({12})),{8})),{6}({7}),{13}({14}))",
    families.ary(2, 2): "{1,2}({3,9}({12}),{4,5}({6,11}({14}),{7,8}({10}),{13}))",
    families.port(2, 1): "{1,2}({3,12},{4,5}({8}),{6,11}({13,14}),{7},{9},{10})",
}


@pytest.mark.parametrize("spec", list(SEEDED_TREES), ids=lambda s: s.describe())
def test_seeded_stream_is_stable(spec):
    assert encode(sample_tree(spec, 14, 11)) == SEEDED_TREES[spec]


def test_rng_child_streams_are_independent():
    base = RngStream(5)
    assert base.child(0).integers(10 ** 9) != base.child(1).integers(10 ** 9)
    assert RngStream(5).child(3).integers(10 ** 9) == RngStream(5).child(3).integers(10 ** 9)


def test_small_trees_are_forced():
    spec = families.recursive(2)
    for seed in range(10):
        assert encode(sample_tree(spec, 1, seed)) == "{1}"
        assert encode(sample_tree(spec, 2, seed)) == "{1,2}"
        assert encode(sample_tree(spec, 3, seed)) == "{1,2}({3})"


def test_sampled_trees_are_valid():
    for spec in (families.recursive(3), families.ary(2, 2), families.port(3, 2),
                 families.linear(2, 1, 1, 1)):
        for seed in range(5):
            assert validate(sample_tree(spec, 30, seed)) == []


def test_sample_census_matches_tree_census():
    from buckettrees.trees import census
    spec = families.ary(2, 3)
    stream = RngStream(9)
    cen = sample_census(spec, 40, stream)
    tree_cen = census(sample_tree(spec, 40, RngStream(9)))
    assert (cen.m, cen.n_deg) == (tree_cen.m, tree_cen.n_deg)


def test_size_guard():
    with pytest.raises(ValueError):
        sample_tree(families.recursive(2), 0, 0)


# tree size per rule, so that the chi-square keeps at least 3 degrees of freedom
SHAPE_SIZES = {
    families.recursive(2): 5, families.ary(2, 2): 5, families.port(2, 1): 5,
    families.linear(2, 1, 1, 1): 5,  # slot table, live total
    families.linear(2, 1, Fraction(-2, 3), 1): 6,  # groups ending at weight 0, live total
    families.linear(3, -1, 1, 3): 6,  # groups without end, live total
    families.linear(2, 1, Fraction(-1, 2), Fraction(3, 2)): 5,  # m = a - beta: pre-drawn
}


@pytest.mark.parametrize("spec", list(SHAPE_SIZES))
def test_sampled_shape_frequencies(spec):
    """Chi-square of sampled canonical shapes against the exact growth measure.

    The shapes are every unordered tree of size n; those the rule cannot grow
    are left out, so sampling one of them fails the test.
    """
    n, samples = SHAPE_SIZES[spec], 4000
    reps = distinct_unordered(enumerate_trees(families.recursive(spec.b), n))
    exact = {encode(t): exact_probability(spec, t, UNORDERED_GROWTH) for t in reps}
    exact = {text: p for text, p in exact.items() if p}
    index = {text: i for i, text in enumerate(sorted(exact))}
    from buckettrees.pmf import Pmf
    pmf = Pmf({index[text]: p for text, p in exact.items()})
    stream = RngStream(2024)
    draws = [index[encode(canonicalize(sample_tree(spec, n, stream.child(i))))]
             for i in range(samples)]
    report = gof.chi_square(draws, pmf)
    assert report.dof >= 3 and report.passed(0.001), str(report)


PATH_RULE = families.linear(1, 0, -1, 1)  # weight 1 - deg: only the newest bucket grows


def test_path_rule_grows_a_deep_path():
    n = 1000
    tree = sample_tree(PATH_RULE, n, 4)
    assert encode(tree) == "".join(f"{{{i}}}(" for i in range(1, n)) + f"{{{n}}}" + ")" * (n - 1)
    assert sample_census(PATH_RULE, n, 4).n_deg == {0: 1, 1: n - 1}


def test_attraction_probs_on_a_deep_path():
    depth = 3000
    node = BucketNode((depth,))
    for label in range(depth - 1, 0, -1):
        node = BucketNode((label,), (node,))
    tree = BucketTree(1, node)
    path, leaf, p = attraction_probs(PATH_RULE, tree)[-1]
    assert (path, leaf, p) == ((0,) * (depth - 1), (depth,), 1)
    assert sum(p for _, _, p in attraction_probs(families.recursive(1), tree)) == 1


@pytest.mark.parametrize("sampler", [sample_tree, sample_census])
def test_negative_linear_weight_is_refused_before_sampling(sampler):
    # the root's weight 1 - 2*deg drops from 1 to -1 at its first child,
    # which a size-2 tree reaches without drawing at that state
    with pytest.raises(ValueError, match="negative"):
        sampler(families.linear(1, 0, -2, 1), 2, 0)
    with pytest.raises(ValueError, match="negative"):
        sampler(families.linear(3, -2, 0, 1), 1, 0)  # capacity 2 weighs -1


def test_linear_rules_whose_weights_stop_at_zero_sample():
    # a bucket of weight 0 is never picked again, so no negative state is reached
    for spec in (PATH_RULE, families.linear(2, 1, Fraction(-2, 3), 1)):
        assert validate(sample_tree(spec, 60, 1)) == []


@pytest.mark.parametrize("sampler", [sample_tree, sample_census])
def test_linear_rule_whose_total_weight_reaches_zero_names_the_rule(sampler):
    # the root weighs 1 - (c - 1): it takes labels 1 and 2, then weighs 0,
    # and no other bucket exists to receive label 3
    with pytest.raises(ValueError, match=r"linear:b=3,a=-1,beta=0,m=1 has total "
                                         r"weight 0 before label 3"):
        sampler(families.linear(3, -1, 0, 1), 60, 1)
    assert sample_census(families.linear(3, -1, 0, 1), 2, 1).n == 2
    # m = a - beta, so the totals 2 - n are drawn against up front
    with pytest.raises(ValueError, match=r"linear:b=2,a=-1,beta=-2,m=1 has total "
                                         r"weight 0 before label 3"):
        sampler(families.linear(2, -1, -2, 1), 5, 1)
    assert sample_census(families.linear(2, -1, -2, 1), 2, 1).n == 2


LINEAR_RULES = [
    families.linear(2, 1, 1, 1),  # slot table, live total
    families.linear(1, 0, 2, Fraction(1, 2)),  # slot table, new buckets add one unit
    families.linear(2, 2, 1, 1),  # m = a - beta: slot table, pre-drawn
    families.linear(2, 1, Fraction(-2, 3), 1),  # groups ending at weight 0, live total
    families.linear(3, -1, 1, 3),  # groups without end (a < 0 < beta), live total
    families.linear(2, -1, 0, 2),  # groups without end (a < 0, beta = 0), live total
    families.linear(2, 1, Fraction(-1, 2), Fraction(3, 2)),  # groups, pre-drawn
    families.linear(2, 1, 0, 1),  # label table, pre-drawn
]


@pytest.mark.parametrize("spec", LINEAR_RULES, ids=lambda s: s.describe())
def test_grown_linear_trees_conserve_the_total_weight(spec):
    """The node weights of a grown tree sum to gc.total(n, N), none is
    negative, and the selection table holds exactly that total."""
    gc = families.growth_coeffs(spec)
    for seed, n in enumerate((1, 2, 7, 60, 500, 4000)):
        g = _grown(spec, n, seed)
        nodes = len(g.cap)
        total = gc.a * sum(g.cap) + gc.bdeg * sum(g.deg) + gc.c * nodes
        assert total == gc.total(n, nodes)
        assert min(map(gc.node_weight, g.cap, g.deg)) >= 0
        if g.path == "slot":
            assert len(g.slots) == total
        elif g.path == "group":
            assert sum(unit * len(group) for unit, group in g.table) == total
            assert all(g.groups[c - 1 + d][g.pos[v]] == v
                       for v, (c, d) in enumerate(zip(g.cap, g.deg)))


@pytest.mark.parametrize("spec", [families.recursive(1), families.recursive(3),
                                  families.ary(1, 2), families.ary(2, 3),
                                  families.port(1, Fraction(1, 2)), families.port(3, 2)]
                         + LINEAR_RULES, ids=lambda s: s.describe())
def test_grown_trees_come_out_marked_valid_and_sized(spec):
    """build() marks its tree valid and sizes it without a walk; both are
    checked here by the full validation and a fresh size walk."""
    for seed, n in enumerate((1, 2, 3, 40, 700)):
        tree = sample_tree(spec, n, seed)
        assert tree._valid and tree.size == n
        assert validate(tree) == []
        assert BucketTree(tree.b, tree.root).size == n
