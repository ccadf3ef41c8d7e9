"""Growth sampler: exact attraction probabilities and sampled distributions."""

import hashlib
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buckettrees import dist_desc, dist_k, families, gof, grow
from buckettrees.bijections import cluster
from buckettrees.enumeration import (UNORDERED_GROWTH, distinct_unordered,
                                     enumerate_trees, exact_probability)
from buckettrees.grow import _grown, attraction_probs, sample_census, sample_tree
from buckettrees.rng import RngStream
from buckettrees.trees import (BucketNode, BucketTree, _numbered_tree, canonicalize, decode,
                               encode, validate)
from buckettrees.verify import SIGNIFICANCE


def test_attraction_probs_recursive_example():
    tree = decode("{1,2}({3})", 2)
    probs = attraction_probs(families.recursive(2), tree)
    assert probs == [(-1, (1, 2), Fraction(2, 3)), (0, (3,), Fraction(1, 3))]


def test_attraction_probs_ary_example():
    tree = decode("{1,2}({3})", 2)
    probs = attraction_probs(families.ary(2, 3), tree)
    assert probs == [(-1, (1, 2), Fraction(4, 7)), (0, (3,), Fraction(3, 7))]


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


@pytest.mark.parametrize("b", [1, 2, 3])
def test_a_rule_with_a_common_factor_grows_the_reduced_rules_trees(b):
    # linear(b, 2, -2, 4) is ary(b, 2) with every weight doubled: one rule, one sampler
    doubled, ary = families.linear(b, 2, -2, 4), families.ary(b, 2)
    assert families.growth_coeffs(doubled) == families.growth_coeffs(ary)
    for seed, n in enumerate((2, 9, 50, 500)):
        assert encode(sample_tree(doubled, n, seed)) == encode(sample_tree(ary, n, seed))
        assert sample_census(doubled, n, seed) == sample_census(ary, n, seed)


def test_sampling_is_deterministic_given_seed():
    spec = families.port(2, 1)
    a = sample_tree(spec, 50, RngStream(42))
    b = sample_tree(spec, 50, RngStream(42))
    assert a.root == b.root
    c = sample_tree(spec, 50, RngStream(43))
    assert a.root != c.root


# Seeded trees as the growth sampler draws them; each selection path (label,
# block and slot picks) keeps its node order, so the streams stay fixed.
# ary(1, 3) was recorded again when the ary rules moved from half blocks to
# slot picks, whose seeded trees differ for d >= 3.
SEEDED_TREES = {
    families.recursive(2): "{1,2}({3,6}({9}),{4,5}({7},{8},{11},{13,14}),{10},{12})",
    families.ary(1, 3): "{1}({2}({3}({4}({7}({14})),{6},{9}),{5}({8},{10}({12}({13}))),{11}))",
    families.ary(2, 2): "{1,2}({3,4}({6},{7,10}({12,13},{14}),{9}),{5,8},{11})",
    families.port(2, 1): "{1,2}({3,12},{4,5}({8}),{6,11}({13,14}),{7},{9},{10})",
}


@pytest.mark.parametrize("spec", list(SEEDED_TREES), ids=lambda s: s.describe())
def test_seeded_stream_is_stable(spec):
    assert encode(sample_tree(spec, 14, 11)) == SEEDED_TREES[spec]


# sha256 of encode(sample_tree(spec, 20000, 21)) and of repr(sample_census(spec,
# 20000, 21)), one rule per selection path: past _CHUNK (8192) labels, so the
# pre-drawn streams are read in more than one chunk.
STREAM_DIGESTS = {
    families.recursive(2): (
        "38ce607f8d9abfc67f524e719b21b5f8e63d70c91220a40e988370d8d99eafdb",
        "9c7e4125f63a6f71ec6b0a1eeacad0da900f5a9815b0262e637fbe27db753e84"),
    families.port(2, 1): (
        "47e45fdec271d7497348d25bed4117d593922b0bf4dc7ee3da4c238f799dc2df",
        "da64406cf69376a9f3e41bef4f086ca878534536a56304908355ab8d99291536"),
    families.port(3, 2): (
        "b3cfab5ee8637c030506ade308248c70985d6ab0c147885be381a127c296a7a5",
        "581c9c5fb4bcbf551a8dd96bb8206adb512a2583a7b06c5e61c3f8a104375fb0"),
    families.linear(2, 1, 1, 1): (
        "5d9eca4dee9ea75338580b15b65abe6b500e912336db1b4b49ec26c33c8e0113",
        "b6395f30822376ce94f27ec5604997f62a2a6f598c3a0fd815c73877ea84f4cb"),
    # recorded again when the ary rules moved from half blocks to slot picks
    families.ary(2, 3): (
        "6ca51d02e1390a670ee27440adf80e822ed0dfcce2a4a06104b71ccb0a5d8a33",
        "abf318737e3a76b4c59122fbb1ffce9e5c4e952a577f555ce554a7e7343ac0ce"),
    # b = 1: label, pre-drawn block and live block picks placed without the
    # clustering loop; recorded while the loop still placed them
    families.recursive(1): (
        "c30dbc6c2282e3968d8e7632ec7846dda92ee2e8f68bd44ead3bfa981c4b9e28",
        "a1e0d3a0d18ef2576fbea8cb5bddb6475817492685a191a8a6b6ab1d51042150"),
    families.port(1, 1): (
        "134865411b061e36681056ed649713aaf8c8120f9459f82b0734f3c4352f0604",
        "a70dca9a8e1d8930a9e9ab85203a14a4e2cfdd5d9a9b8bf6411e8f8c91d59ec3"),
    families.linear(1, 0, 2, Fraction(1, 2)): (
        "e873dab5645147c6d6ab627e513a0b06edb9cded5b951aa6d2da5605ee731e90",
        "989bf06e00602e1c38ec4fb1e3f0fc1984260ae35fca324c59440c11c5c1462c"),
}


@pytest.mark.parametrize("spec", list(STREAM_DIGESTS), ids=lambda s: s.describe())
def test_seeded_streams_past_one_chunk_are_stable(spec):
    tree, census = STREAM_DIGESTS[spec]
    assert hashlib.sha256(encode(sample_tree(spec, 20000, 21)).encode()).hexdigest() == tree
    assert hashlib.sha256(repr(sample_census(spec, 20000, 21)).encode()).hexdigest() == census


def test_rng_child_streams_are_independent():
    base = RngStream(5)
    assert base.child(0).integers(10 ** 9) != base.child(1).integers(10 ** 9)
    assert RngStream(5).child(3).integers(10 ** 9) == RngStream(5).child(3).integers(10 ** 9)


def test_rng_child_index_and_spawn_key_follow_the_count_rule():
    for index in (True, 1.5, -1, "1"):
        with pytest.raises(ValueError, match=r"child index must be >= 0 and an integer"):
            RngStream(1).child(index)
    for key in ((True,), (1.5,), (0, -1)):
        with pytest.raises(ValueError, match=r"spawn key entry k must be >= 0 and an integer"):
            RngStream(1, key)
    with pytest.raises(ValueError, match=r"spawn_key must be a tuple, not \[1\]"):
        RngStream(1, [1])
    # numpy integers keep their streams
    assert (RngStream(1, (np.int32(2),)).child(np.int64(3)).integers(10 ** 9)
            == RngStream(1, (2,)).child(3).integers(10 ** 9))


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
    families.linear(2, 1, 1, 1): 5,  # weight blocks, live total
    families.linear(2, 1, Fraction(-2, 3), 1): 6,  # groups ending at weight 0, live total
    families.linear(3, -1, 1, 3): 6,  # groups without end, live total
    families.linear(2, 1, Fraction(-1, 2), Fraction(3, 2)): 5,  # m = a - beta: slot picks
    families.linear(2, 1, -2, 3): 6,  # m = a - beta: groups, pre-drawn
    families.ary(3, 4): 6,
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
    for n in (1000, 10 ** 5):
        tree = sample_tree(PATH_RULE, n, 4)
        assert encode(tree) == ("".join(f"{{{i}}}(" for i in range(1, n)) + f"{{{n}}}"
                                + ")" * (n - 1))
        assert sample_census(PATH_RULE, n, 4).n_deg == {0: 1, 1: n - 1}


def test_attraction_probs_on_a_deep_path():
    depth = 10 ** 5
    node = BucketNode((depth,))
    for label in range(depth - 1, 0, -1):
        node = BucketNode((label,), (node,))
    tree = BucketTree(1, node)
    up, leaf, p = attraction_probs(PATH_RULE, tree)[-1]
    assert (up, leaf, p) == (depth - 2, (depth,), 1)
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


_PAST_INT64 = r" has total weight \d+ before label {}, past the int64 draw bound 2\^63 - 1"


@pytest.mark.parametrize("sampler", [sample_tree, sample_census])
def test_a_total_weight_past_int64_names_the_rule_and_the_label(sampler):
    # port(1, 10^17) weighs about 10^17 per label: 93 * (10^17 + 1) - 1 > 2^63 - 1
    # is the total before label 94, which the pre-drawn int64 totals would wrap
    spec = families.port(1, 10 ** 17)
    with pytest.raises(ValueError, match=r"port:b=1,alpha=100000000000000000 has total weight "
                                         r"9300000000000000092 before label 94, past the int64 "
                                         r"draw bound 2\^63 - 1"):
        sampler(spec, 94, 0)
    with pytest.raises(ValueError,
                       match=r"port:b=2,alpha=1/1000000000000000" + _PAST_INT64.format(10 ** 4)):
        sampler(families.port(2, Fraction(1, 10 ** 15)), 10 ** 4, 0)
    # weight blocks on live totals (a child adds 10^17), weight groups (a label adds 10^17 + 1)
    with pytest.raises(ValueError, match=r"beta=100000000000000000,m=1" + _PAST_INT64.format(96)):
        sampler(families.linear(2, 1, 10 ** 17, 1), 200, 0)
    with pytest.raises(ValueError, match=r"beta=-2,m=100000000000000001" + _PAST_INT64.format(94)):
        sampler(families.linear(2, 10 ** 17 + 1, -2, 10 ** 17 + 1), 200, 0)
    # a common factor 2 is divided out: a label adds 5 * 10^16, as on the slot path
    with pytest.raises(ValueError, match=r"beta=-2,m=100000000000000000" + _PAST_INT64.format(186)):
        sampler(families.linear(2, 10 ** 17, -2, 10 ** 17), 200, 0)


def test_a_total_weight_just_below_int64_grows_the_recorded_tree():
    # the total before label 93 is 92 * (10^17 + 1) - 1 < 2^63 - 1; digests recorded
    # before the draw bound was checked
    spec = families.port(1, 10 ** 17)
    text = encode(sample_tree(spec, 93, 0))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "50a5a90a2a4bf0d3"
    assert sample_census(spec, 93, 0).n_deg == {7: 1, 1: 33, 4: 6, 0: 41, 2: 8, 3: 4}


def _draws(spec, seed: int, n: int) -> np.ndarray:
    """The draws of labels 2 .. n of a pre-drawn rule: one stream's
    integers below the totals T_1 .. T_n-1."""
    gc = families.growth_coeffs(spec)
    return RngStream(seed).generator.integers(0, gc.a * np.arange(1, n, dtype=np.int64)
                                              + gc.total_c)


def _python_picks(spec, seed: int, n: int) -> list:
    """The picks of labels 2 .. n of a pre-drawn rule, resolved in Python
    ints from the same draws: u // a on the label path; on the block path
    block j of the unit u - total_c = j*a + o, or pick[j] once o passes its
    first node_weight(1, 0) units; on the slot path the last label to draw
    unit u, else the label of its block, max((u - total_c) // a, 0)."""
    gc, draws = families.growth_coeffs(spec), _draws(spec, seed, n).tolist()
    if gc.bdeg == gc.c == 0:
        return [u // gc.a for u in draws]
    if gc.bdeg == -1:
        picks, last = [], {}
        for label, u in enumerate(draws, start=1):
            picks.append(last.get(u, max(u - gc.total_c, 0) // gc.a))
            last[u] = label
        return picks
    picks, fresh = [0], gc.node_weight(1, 0)
    for u in draws:
        j, o = divmod(u - gc.total_c, gc.a)
        picks.append(j if o < fresh else picks[j])
    return picks[1:]


def _python_live_picks(spec, seed: int, n: int) -> list:
    """The picks of labels 2 .. n of a live block rule, replayed in Python
    ints from the same stream: label j + 1 draws u below T_j = gc.total(j,
    nodes) and picks block j's label, T_j <= u < T_j+1, or that label's pick
    past its first node_weight(1, 0) units; it then opens a node when its
    pick's bucket is full."""
    gc, stream, b = families.growth_coeffs(spec), RngStream(seed), spec.b
    starts, picks, cap, where = [0], [0], [1], [0]
    for size in range(1, n):
        starts.append(gc.total(size, len(cap)))
        u = stream.integers(starts[-1])
        j = bisect_right(starts, u) - 1
        picks.append(j if u - starts[j] < gc.node_weight(1, 0) else picks[j])
        v = where[picks[-1]]
        if cap[v] < b:
            cap[v] += 1
        else:
            v = len(cap)
            cap.append(1)
        where.append(v)
    return picks[1:]


def _clustered(spec, picks) -> tuple:
    """(cap, deg, parent, where) after the clustering loop places labels 2, 3,
    ... by these picks: each in its pick's bucket while that has room, else
    in a new child of it."""
    cap, deg, parent, where = [1], [0], [-1], [0]
    for i in picks:
        v = where[i]
        if cap[v] < spec.b:
            cap[v] += 1
            where.append(v)
        else:
            where.append(len(cap))
            cap.append(1)
            deg.append(0)
            parent.append(v)
            deg[v] += 1
    return cap, deg, parent, where


def _state(g) -> tuple:
    """(cap, deg, parent, where) of a grower as lists, read through its accessors."""
    parent, cap, deg = g.arrays()
    return cap.tolist(), deg.tolist(), parent.tolist(), g.label_nodes().tolist()


@pytest.mark.parametrize("spec, n, seed", [
    (families.ary(2, 10 ** 17), 93, 26),  # slot picks: u + a would pass it
    (families.linear(2, 10 ** 17, 10 ** 17 - 1, 1), 94, 59),  # blocks: u - total_c
])
def test_pre_drawn_blocks_resolve_draws_past_int64_exactly(spec, n, seed):
    # the largest total fits int64, but a unit offset or block end near it
    # does not: the resolvers must resolve the draws as Python ints do
    gc, draws = families.growth_coeffs(spec), _draws(spec, seed, n)
    g = _grown(spec, n, seed)
    picks = _python_picks(spec, seed, n)
    if g.path == "slot":
        assert max(draws.tolist()) + gc.a > 2 ** 63 - 1
        assert grow._slot_picks(gc, draws).tolist() == picks
    else:
        assert g.path == "block" and max(draws.tolist()) - gc.total_c > 2 ** 63 - 1
        assert grow._block_picks(gc, draws).tolist() == picks
    assert g.pick.tolist() == picks
    assert _state(g) == _clustered(spec, picks)


@pytest.mark.parametrize("path, spec", [
    ("label", families.recursive(1)), ("label", families.recursive(2)),
    ("block", families.port(1, 1)), ("block", families.port(2, Fraction(1, 2))),
    ("slot", families.ary(1, 3)), ("slot", families.ary(2, 3)),
], ids=lambda x: x.describe() if isinstance(x, families.FamilySpec) else x)
def test_each_pre_drawn_resolver_matches_the_python_picks(path, spec):
    """Each resolver, called on its own draws, gives the picks resolved in
    Python ints; the grower takes that path and keeps those picks."""
    gc = families.growth_coeffs(spec)
    resolve = getattr(grow, f"_{path}_picks")
    for seed, n in enumerate((1, 2, 3, 60, 3000)):
        picks = resolve(gc, _draws(spec, seed, n))
        assert picks.dtype == np.intp and picks.tolist() == _python_picks(spec, seed, n)
        g = _grown(spec, n, seed)
        assert g.path == path and g.pick.tolist() == picks.tolist()


# ary(1, 10^17): the slot sort keys u*m + k of n - 1 = m draws fit int64 up
# to n = 10 and wrap past it; digests recorded while every slot sort was stable
SLOT_KEY_DIGESTS = {
    10: "edacb2c711c956df67f621d5a04b6bfac997d56402ba4f7b0821f7a060c892dc",
    60: "a3f8df95261583309b0c8d6d7359867e50571e88878ebeda26e3ce217c02c002",
}


@pytest.mark.parametrize("n", list(SLOT_KEY_DIGESTS))
def test_slot_trees_on_each_side_of_the_sort_key_bound_are_stable(n):
    spec = families.ary(1, 10 ** 17)
    assert (families.growth_coeffs(spec).total(n - 1) * (n - 1) <= 2 ** 63) == (n == 10)
    text = encode(sample_tree(spec, n, 0))
    assert hashlib.sha256(text.encode()).hexdigest() == SLOT_KEY_DIGESTS[n]


def test_slot_picks_past_the_sort_key_bound_keep_each_units_draws_together():
    # 41 draws against totals up to about 4*10^18: the key u*41 + k of a draw
    # u = 2^63 // 41 wraps to a negative number from k = 8 on, so the draws of
    # labels 5 and 42 would sort apart; every other draw takes its own unit
    spec = families.ary(1, 10 ** 17)
    gc, m = families.growth_coeffs(spec), 41
    u = 2 ** 63 // m
    draws = list(range(m))
    draws[3] = draws[40] = u
    assert gc.total(m) * m > 2 ** 63 and u < gc.total(4)
    wrapped = np.argsort(np.array(draws) * m + np.arange(m)).tolist()
    assert abs(wrapped.index(3) - wrapped.index(40)) > 1
    picks = [max(d - gc.total_c, 0) // gc.a for d in draws]
    picks[40] = 4  # label 42 takes over the unit label 5 took
    assert grow._slot_picks(gc, np.array(draws)).tolist() == picks


LINEAR_RULES = [
    families.linear(2, 1, 1, 1),  # weight blocks, live total
    families.linear(1, 0, 2, Fraction(1, 2)),  # weight blocks, new buckets add one unit
    families.linear(2, 2, 1, 1),  # m = a - beta: weight blocks, pre-drawn
    families.linear(2, 1, Fraction(-2, 3), 1),  # groups ending at weight 0, live total
    families.linear(3, -1, 1, 3),  # groups without end (a < 0 < beta), live total
    families.linear(2, -1, 0, 2),  # groups without end (a < 0, beta = 0), live total
    families.linear(2, 1, Fraction(-1, 2), Fraction(3, 2)),  # slot picks: ary(2, 3)'s rule
    families.linear(2, 1, -2, 3),  # groups, pre-drawn (two units lost per child)
    families.linear(2, 1, 0, 1),  # label table, pre-drawn
]


def _units_owned(g) -> list:
    """How many of the weight units below the total each node owns, when
    every unit is resolved through g.pick and the label nodes.

    Placing label j + 1 adds the units [T_j, T_j+1), T_j = gc.total(j, nodes
    after j labels) and T_0 = 0; the first node_weight(1, 0) units of that
    block are the node of label j + 1's, where[j], and the rest the node of
    its pick's, where[pick[j]].
    """
    gc, where = g.gc, g.label_nodes()
    nodes = np.maximum.accumulate(where) + 1  # after labels 1 .. j
    starts = np.array([0] + [gc.total(j, int(nodes[j - 1])) for j in range(1, g.size + 1)])
    units = np.arange(starts[-1])
    block = np.searchsorted(starts, units, side="right") - 1
    picks = np.concatenate(([0], g.pick))  # the root's block is its own
    label = np.where(units - starts[block] >= gc.node_weight(1, 0), picks[block], block)
    return np.bincount(where[label], minlength=nodes[-1]).tolist()


def _units_owned_by_slot(g, draws) -> list:
    """How many of the weight units below the total each node owns, when
    every unit is resolved through the grower's draws and label nodes.

    Unit u is the last label's to draw it, else its block's label,
    max((u - total_c) // a, 0).
    """
    gc = g.gc
    owner = (np.maximum(np.arange(gc.total(g.size)) - gc.total_c, 0) // gc.a).tolist()
    for label, u in enumerate(draws.tolist(), start=1):
        owner[u] = label
    return np.bincount(g.label_nodes()[owner], minlength=len(g.arrays()[0])).tolist()


@pytest.mark.parametrize("spec", LINEAR_RULES + [families.ary(1, 2), families.ary(1, 3),
                                                 families.ary(2, 2), families.ary(3, 5),
                                                 families.port(1, 1), families.port(2, 1)],
                         ids=lambda s: s.describe())
def test_grown_linear_trees_conserve_the_total_weight(spec):
    """The node weights of a grown tree sum to gc.total(n, N), none is
    negative, and the selection state holds exactly each node's weight."""
    gc = families.growth_coeffs(spec)
    for seed, n in enumerate((1, 2, 7, 60, 500, 4000)):
        g = _grown(spec, n, seed)
        cap, deg, _, _ = _state(g)
        nodes = len(cap)
        weights = list(map(gc.node_weight, cap, deg))
        total = gc.a * sum(cap) + gc.bdeg * sum(deg) + gc.c * nodes
        assert total == gc.total(n, nodes) == sum(weights)
        assert min(weights) >= 0
        if g.path == "block":
            assert len(g.pick) == n - 1
            assert _units_owned(g) == weights
        elif g.path == "slot":
            assert len(g.pick) == n - 1
            assert _units_owned_by_slot(g, _draws(spec, seed, n)) == weights
        elif g.path == "group":
            assert not hasattr(g, "pick")
            assert sum(unit * len(group) for unit, group in g.table) == total
            assert all(g.groups[c - 1 + d][g.pos[v]] == v
                       for v, (c, d) in enumerate(zip(cap, deg)))


CLUSTERED_RULES = ([families.recursive(b) for b in (2, 3, 5)]
                   + [families.port(b, alpha) for b in (2, 3, 5)
                      for alpha in (1, 2, Fraction(1, 2), 3)]
                   + [families.ary(b, d) for b in (2, 3, 5) for d in (2, 3, 4)])


@pytest.mark.parametrize("spec", CLUSTERED_RULES, ids=lambda s: s.describe())
def test_grown_trees_are_the_clustering_of_their_b1_trees(spec):
    """The grower places each label by its pick, the label whose bucket its
    draw chose, which is its parent in the b = 1 tree grown from the same
    draws; so a grown tree is the paper's clustering of that b = 1 tree.
    """
    one = replace(spec, b=1)
    for n in (2, 3, 9, 60, 500, 3000):
        for seed in (0, 1, 2):
            assert sample_tree(spec, n, seed) == canonicalize(
                cluster(sample_tree(one, n, seed), spec.b)), (n, seed)


@pytest.mark.parametrize("spec, top", [
    (families.recursive(1), 4000),  # label picks
    (families.port(1, 1), 4000),  # pre-drawn block picks
    (families.port(1, Fraction(1, 2)), 4000),
    (families.port(1, 10 ** 17), 93),  # unit offsets past 2^63 - 1
    (families.ary(1, 3), 4000),  # slot picks
    (families.ary(1, 10 ** 17), 93),  # slot picks near 2^63 - 1
    (families.linear(1, 0, 2, Fraction(1, 2)), 4000),  # live block picks
    (families.linear(1, 1, 1, 1), 4000),
], ids=lambda x: x.describe() if isinstance(x, families.FamilySpec) else str(x))
def test_b1_trees_place_their_picks_without_the_clustering_loop(spec, top):
    """At b = 1 every label opens a bucket under its pick, so the grower
    places all picks at once; the clustering loop on the same picks gives the
    same state.  The picks, kept as parent[1:], are resolved again in Python
    ints: from the draws on a pre-drawn rule, replayed from the stream on a
    live one."""
    for seed, n in enumerate((1, 2, 7, 60, top)):
        g = _grown(spec, n, seed)
        picks = (_python_live_picks if spec.kind == "linear" else _python_picks)(spec, seed, n)
        assert g.arrays()[0][1:].tolist() == g.pick.tolist() == picks
        assert _state(g) == _clustered(spec, picks)


ACCESSOR_RULES = [
    families.recursive(1), families.recursive(2),  # label picks
    families.port(1, 1), families.port(2, 1),  # pre-drawn block picks
    families.ary(1, 3), families.ary(2, 3),  # slot picks
    families.linear(1, 0, 2, Fraction(1, 2)), families.linear(2, 1, 1, 1),  # live block picks
    families.linear(1, 1, Fraction(-1, 2), 1),  # groups, live total
    families.linear(2, 1, Fraction(-2, 3), 1),
    families.linear(1, 0, -1, 1), families.linear(2, 1, -2, 3),  # groups, pre-drawn
]


@pytest.mark.parametrize("spec", ACCESSOR_RULES, ids=lambda s: s.describe())
def test_the_accessors_hand_over_the_grown_state(spec):
    """arrays() and label_nodes() give intp arrays equal to the list
    reference: the clustering loop's state over the picks, which equal the
    picks resolved again in Python ints, or the weight groups' own lists,
    which at b = 1 the accessors do not read."""
    for n, seed in ((1, 1), (1000, 3)):
        g = _grown(spec, n, seed)
        assert [a.dtype for a in (*g.arrays(), g.label_nodes())] == [np.intp] * 4
        if g.path == "group":
            reference = g.cap, g.deg, g.parent, g.where
        else:
            picks = (_python_live_picks if g.gc.bdeg + g.gc.c else _python_picks)(spec, seed, n)
            assert g.pick.tolist() == picks
            reference = _clustered(spec, picks)
        assert _state(g) == reference, n


# one named rule per selection path: label, block and slot picks
K_LAW_RULES = [families.recursive(2), families.port(2, 1), families.ary(2, 3)]


@pytest.mark.parametrize("spec", K_LAW_RULES, ids=lambda s: s.describe())
def test_grown_K_n_follows_the_exact_law(spec):
    """Chi-square of K_n, the capacity of the bucket holding label n, read
    through the grower's accessors, against pmf_K_exact; the significance
    level is split over the rules."""
    n, trees = 1000, 1000
    stream = RngStream(1021)
    samples = []
    for i in range(trees):
        g = _grown(spec, n, stream.child(i))
        samples.append(int(g.arrays()[1][g.label_nodes()[n - 1]]))
    report = gof.chi_square(samples, dist_k.pmf_K_exact(spec, n))
    assert report.passed(SIGNIFICANCE / len(K_LAW_RULES)), str(report)


X_LAW_SIZES = {families.ary(1, 3): 60, families.ary(2, 2): 40}


@pytest.mark.parametrize("spec", list(X_LAW_SIZES), ids=lambda s: s.describe())
def test_grown_root_degree_follows_the_exact_law(spec):
    """Chi-square of X_{n,1}, the root's out-degree, read through the
    grower's accessors, against pmf_X; each child the root opens takes one
    of its slots, so a wrong slot pick shows here."""
    n, trees = X_LAW_SIZES[spec], 4000
    stream = RngStream(1031)
    samples = [int(_grown(spec, n, stream.child(i)).arrays()[2][0]) for i in range(trees)]
    report = gof.chi_square(samples, dist_desc.pmf_X(spec, n, 1))
    assert report.passed(SIGNIFICANCE / len(X_LAW_SIZES)), str(report)


@pytest.mark.parametrize("spec", [families.recursive(1), families.recursive(3),
                                  families.ary(1, 2), families.ary(2, 3),
                                  families.port(1, Fraction(1, 2)), families.port(3, 2)]
                         + LINEAR_RULES, ids=lambda s: s.describe())
def test_grown_trees_come_out_marked_valid_and_sized(spec):
    """build() marks its tree valid and sizes it without a walk; both are
    checked here by the full validation and a fresh size walk.  Its preorder
    equals the one a walk over per-bucket child lists gives, kept here as the
    reference."""
    for seed, n in enumerate((1, 2, 3, 40, 700)):
        g = _grown(spec, n, seed)
        tree = g.build()
        assert tree._valid and tree.size == n
        assert validate(tree) == []
        assert BucketTree(tree.b, tree.root).size == n
        cap, _, parent, where = _state(g)
        held = [[] for _ in cap]
        for label, v in enumerate(where, start=1):
            held[v].append(label)
        kids = [[] for _ in cap]
        for v in range(1, len(cap)):
            kids[parent[v]].append(v)
        reference = _numbered_tree(g.b, list(map(tuple, held)), kids, n)
        assert (tree.labels, tree.degrees) == (reference.labels, reference.degrees)


def _two_pass_positions(parent) -> list:
    """Each node's preorder position from its parent (-1 at the root), every
    node numbered after its parent and children visited in birth order: one
    reverse pass sums the subtree sizes, one forward pass hands each child
    the next free position of its parent."""
    up = list(parent)
    nodes = len(up)
    size = [1] * nodes
    # the iterator reads size[v] once every child of v has added its own
    for p, s in zip(islice(reversed(up), nodes - 1), reversed(size)):
        size[p] += s
    # once the pass has read v's subtree size, size[v] holds the next free
    # position in that subtree instead
    pos = [0] * nodes
    size[0] = 1
    for v, p, s in zip(range(1, nodes), islice(up, 1, None), islice(size, 1, None)):
        at = pos[v] = size[p]
        size[p] = at + s
        size[v] = at + 1
    return pos


def _check_preorder(parent) -> None:
    parent = np.asarray(parent, dtype=np.intp)
    pos = grow._preorder(parent)
    assert pos.dtype == np.intp
    assert pos.tolist() == _two_pass_positions(parent.tolist())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_preorder_positions_match_the_two_passes(data):
    parent = [-1]
    for v in range(1, data.draw(st.integers(1, 60))):
        parent.append(data.draw(st.integers(0, v - 1)))
    _check_preorder(parent)


def test_preorder_positions_of_fixed_shapes_match_the_two_passes():
    _check_preorder([-1])  # one node
    _check_preorder([-1] + [0] * 50)  # a star
    _check_preorder([-1] + [2 * ((v - 1) // 2) for v in range(1, 100)])  # a caterpillar
    _check_preorder(np.arange(-1, 10 ** 5 - 1))  # a path of 10^5 nodes: 17 rounds


@pytest.mark.parametrize("spec", [rule(b) for b in (1, 2, 3) for rule in (
    families.recursive,  # label picks
    lambda b: families.port(b, 1),  # pre-drawn block picks
    lambda b: families.ary(b, 3),  # slot picks
    lambda b: families.linear(b, 1, 1, 1),  # live block picks
    lambda b: families.linear(b, 1, Fraction(-1, 2), 1),  # groups, live total
    lambda b: families.linear(b, 0, -1, 1),  # groups, pre-drawn
)], ids=lambda s: s.describe())
def test_preorder_positions_of_grown_parents_match_the_two_passes(spec):
    for seed, n in enumerate((1, 2, 9, 500, 5000)):
        _check_preorder(_grown(spec, n, seed).arrays()[0])
