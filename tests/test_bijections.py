"""Clustering, bundled bijections, induced weights, and increasing diamonds."""

import hashlib
import json
import pickle

import pytest

from buckettrees import bijections, families, verify
from buckettrees.bijections import (Diamond, bucket_to_diamond, check_diamond,
                                    cluster, cluster_three_bundled,
                                    cluster_two_bundled,
                                    decode_diamond, diamond_to_bucket,
                                    encode_diamond, expand_chains,
                                    uncluster_three_bundled,
                                    uncluster_two_bundled,
                                    weight_preserving_phi)
from buckettrees.enumeration import (all_trees, distinct_unordered, enumerate_trees,
                                     growth_history_probability)
from buckettrees.grow import RngStream, attraction_probs, sample_tree
from buckettrees.trees import (BucketNode, BucketTree, BundledBucketTree, ParseError, _assemble,
                               canonicalize, check_valid, decode, encode, from_doc, to_doc)


def iter_nodes(node):
    """The nodes of node's subtree in preorder."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def test_cluster_path_and_star():
    path = decode("{1}({2}({3}))", 1)
    star = decode("{1}({2},{3})", 1)
    assert encode(cluster(path, 2)) == "{1,2}({3})"
    assert encode(cluster(star, 2)) == "{1,2}({3})"


def test_cluster_guards():
    with pytest.raises(ValueError):
        cluster(decode("{1}", 1), 1)
    with pytest.raises(ValueError):
        cluster(decode("{1,2}", 2), 2)


def test_expand_chains_is_right_inverse():
    for b in (2, 3):
        for n in range(1, 6):
            for tree in all_trees(b, n):
                assert cluster(expand_chains(tree), b).root == tree.root


def test_cluster_rejects_an_invalid_tree():
    # labels decrease down the path: not an increasing tree
    with pytest.raises(ValueError, match="not above parent maximum"):
        cluster(BucketTree(1, BucketNode((2,), (BucketNode((1,)),))), 2)


@pytest.mark.parametrize("clustering", [cluster_three_bundled, cluster_two_bundled])
def test_bundled_clusterings_reject_an_invalid_tree(clustering):
    with pytest.raises(ValueError, match="not above parent maximum"):
        clustering(BucketTree(1, BucketNode((2,), (BucketNode((1,)),))))


# the recursive clustering and chain expansion the walks replaced, kept as references

def _ref_cluster_node(node, b):
    nodes = sorted(_buckets(BucketTree(1, node)), key=lambda v: v.labels[0])
    merged = nodes[:min(b, len(nodes))]
    merged_set = {id(v) for v in merged}
    labels = tuple(v.labels[0] for v in merged)
    pending = [c for v in merged for c in v.children if id(c) not in merged_set]
    return BucketNode(labels, tuple(_ref_cluster_node(c, b) for c in pending))


def _ref_expand(node):
    cur = BucketNode((node.labels[-1],), tuple(_ref_expand(c) for c in node.children))
    for lab in reversed(node.labels[:-1]):
        cur = BucketNode((lab,), (cur,))
    return cur


def test_cluster_and_expand_match_the_recursive_reference():
    for n in range(1, 8):
        for tree in all_trees(1, n):
            for b in (2, 3):
                out = cluster(tree, b)
                assert out.b == b and out.size == n
                assert out.root == _ref_cluster_node(tree.root, b)
        for b in (2, 3):
            for tree in all_trees(b, n):
                out = expand_chains(tree)
                assert out.b == 1 and out.size == n
                assert out.root == _ref_expand(tree.root)


def test_cluster_and_expand_on_a_deep_path():
    node = BucketNode((5999, 6000))
    for label in range(5997, 0, -2):
        node = BucketNode((label, label + 1), (node,))
    path = BucketTree(2, node)
    chain = expand_chains(path)
    assert chain == _plain_path(6000)
    assert cluster(chain, 2) == path


def test_three_bundled_examples():
    path = decode("{1}({2}({3}))", 1)
    star = decode("{1}({2},{3})", 1)
    top = decode("{1,2}({3})", 2)
    assert cluster_three_bundled(path) == BundledBucketTree(3, top, ((1, (0, 1, 0)),))
    assert cluster_three_bundled(star) == BundledBucketTree(3, top, ((1, (0, 0, 1)),))


def test_two_bundled_example():
    star = decode("{1}({2},{3})", 1)
    top = decode("{1,2}({3})", 2)
    assert cluster_two_bundled(star) == BundledBucketTree(2, top, ((1, (1, 0)),))


def test_two_bundled_requires_canonical():
    tree = decode("{1}({3},{2})", 1)
    with pytest.raises(ValueError, match="canonical"):
        cluster_two_bundled(tree)


def _ref_three_bundled(node):
    """The recursive three-bundled map the folds replaced: (labels, bundles)."""
    if not node.children:
        return node.labels, ()
    i = min(range(len(node.children)), key=lambda k: node.children[k].labels[0])
    u = node.children[i]
    return ((node.labels[0], u.labels[0]),
            (tuple(map(_ref_three_bundled, node.children[:i])),
             tuple(map(_ref_three_bundled, u.children)),
             tuple(map(_ref_three_bundled, node.children[i + 1:]))))


def _ref_two_bundled(node):
    """The recursive two-bundled map the folds replaced, on canonical trees."""
    if not node.children:
        return node.labels, ()
    u = node.children[0]
    return ((node.labels[0], u.labels[0]),
            (tuple(map(_ref_two_bundled, node.children[1:])),
             tuple(map(_ref_two_bundled, u.children))))


def _as_bundled(root, cuts):
    """A bundled tree in the (labels, bundles) form of the references."""
    sizes = dict(cuts)
    kids = [_as_bundled(c, cuts) for c in root.children]
    if len(root.labels) == 1:
        assert not kids
        return root.labels, ()
    bundles, start = [], 0
    for size in sizes[root.labels[0]]:
        bundles.append(tuple(kids[start:start + size]))
        start += size
    return root.labels, tuple(bundles)


def test_bundled_round_trips():
    for n in range(1, 8):
        for tree in all_trees(1, n):
            bt = cluster_three_bundled(tree)
            assert uncluster_three_bundled(bt).root == tree.root
            assert _as_bundled(bt.tree.root, bt.cuts) == _ref_three_bundled(tree.root)
            check_valid(bt.tree)  # a bundled tree is a bucket tree
        for tree in distinct_unordered(enumerate_trees(families.recursive(1), n)):
            bt = cluster_two_bundled(tree)
            assert uncluster_two_bundled(bt).root == tree.root
            assert _as_bundled(bt.tree.root, bt.cuts) == _ref_two_bundled(tree.root)
            check_valid(bt.tree)


def test_uncluster_rejects_malformed_bundles():
    top = decode("{1,2}({3})", 2)
    with pytest.raises(ValueError, match="expected a 3-bundled tree"):
        uncluster_three_bundled(BundledBucketTree(2, top, ((1, (1, 0)),)))
    with pytest.raises(ValueError, match="expected a 3-bundled tree"):
        uncluster_three_bundled(BundledBucketTree(3, decode("{1}({2}({3}))", 1), ()))
    with pytest.raises(ValueError, match="do not split"):
        uncluster_two_bundled(BundledBucketTree(2, top, ((1, (1, 1)),)))
    with pytest.raises(ValueError, match="do not split"):
        uncluster_three_bundled(BundledBucketTree(3, top, ()))
    leafy = BucketTree(2, BucketNode((1,), (BucketNode((2, 3)),)))
    with pytest.raises(ValueError, match="unsaturated bucket with children"):
        uncluster_two_bundled(BundledBucketTree(2, leafy, ((2, (0, 0)),)))


def _plain_path(depth):
    node = BucketNode((depth,))
    for label in range(depth - 1, 0, -1):
        node = BucketNode((label,), (node,))
    return BucketTree(1, node)


def test_bundled_round_trips_on_a_deep_path():
    path = _plain_path(3000)
    three = cluster_three_bundled(path)
    assert uncluster_three_bundled(three).root == path.root
    two = cluster_two_bundled(path)
    assert uncluster_two_bundled(two).root == path.root
    # the bundled trees compare and hash without recursion too
    assert three == cluster_three_bundled(path)
    assert hash(three) == hash(cluster_three_bundled(path))
    # both pair up the path's labels, {1, 2} on top with {3, 4} in the
    # bundle of 2's children: only the bundle boundaries tell them apart
    assert two.tree == three.tree and two != three
    assert three.tree.labels[:2] == ((1, 2), (3, 4)) and three.tree.degrees[:2] == (1, 1)
    assert three.cuts[0] == (1, (0, 1, 0)) and two.cuts[0] == (1, (0, 1))
    assert len(three.cuts) == len(two.cuts) == 1500


def test_bundled_tree_equality_sees_bundle_boundaries():
    top = decode("{1,2}({3})", 2)

    def bundled(sizes):
        return BundledBucketTree(2, top, ((1, sizes),))

    assert bundled((1, 0)) == bundled((1, 0))
    assert bundled((1, 0)) != bundled((0, 1))
    assert len({bundled((1, 0)), bundled((1, 0)), bundled((0, 1))}) == 2


def test_weight_preserving_phi_matches_named_families():
    for base, target in ((families.recursive(1), families.recursive(2)),
                         (families.ary(1, 2), families.ary(2, 2)),
                         (families.port(1, 1), families.port(2, 1))):
        phi1 = lambda k, s=base: families.phi(s, k)
        for k in range(5):
            assert weight_preserving_phi(phi1, 2, k) == families.phi(target, k)


def _clustering_pairs():
    """Check 5's (b = 1 base, bound-b target) pairs of the same family."""
    pairs = []
    for b in (2, 3):
        pairs.append((families.recursive(1), families.recursive(b)))
        pairs += [(families.ary(1, d), families.ary(b, d)) for d in (2, 3)]
        pairs += [(families.port(1, a), families.port(b, a)) for a in (1, 2)]
    return pairs


@pytest.mark.parametrize("base, target", _clustering_pairs(),
                         ids=lambda s: s.describe())
def test_clustering_maps_the_base_measure_onto_the_target(base, target):
    # the weights of the base trees, summed per clustered image, are the
    # target's weights exactly: the ratio of the two measures is 1
    for n in range(1, 7):
        pushed = {}
        for tree, w in enumerate_trees(base, n).items:
            image = cluster(tree, target.b)
            pushed[image] = pushed.get(image, 0) + w
        assert pushed == dict(enumerate_trees(target, n).items), n


def _diamond(labels, *parts):
    """The diamond of one node: an inner label, or a (source, sink) pair and parts."""
    return Diamond((labels, *(x for p in parts for x in p.labels)),
                   (len(parts), *(k for p in parts for k in p.degrees)))


def test_diamond_codec_round_trip():
    d = _diamond((1, 6), _diamond((2,)), _diamond((3, 5), _diamond((4,))))
    check_diamond(d)
    text = encode_diamond(d)
    assert text == "<1 6>((2),<3 5>((4)))"
    assert decode_diamond(text) == d
    assert hash(decode_diamond(text)) == hash(d)
    assert d.size == 6 and d.inner_count() == 2
    # a composite without parts writes its empty part list
    d = _diamond((1, 5), _diamond((2, 3)), _diamond((4,)))
    assert encode_diamond(d) == "<1 5>(<2 3>(),(4))" and decode_diamond(encode_diamond(d)) == d


@pytest.mark.parametrize("text, pos", [
    ("(" + "1" * 5000 + ")", 1),                  # an inner node's label
    ("<" + "1" * 5000 + " 9>()", 1),              # a source
    ("<1 " + "9" * 5000 + ">()", 3),              # a sink
    ("<1 9>((" + "2" * 5000 + "))", 7),           # a part's label
])
def test_a_diamond_label_past_the_digit_limit_is_a_parse_error(text, pos):
    with pytest.raises(ParseError, match="label longer than int.s digit limit") as err:
        decode_diamond(text)
    assert err.value.pos == pos


def test_diamond_codec_takes_optional_commas_and_rejects_malformed_text():
    assert decode_diamond("<1 4>((2)(3))") == _diamond((1, 4), _diamond((2,)), _diamond((3,)))
    assert decode_diamond("<1 3>((2),)") == _diamond((1, 3), _diamond((2,)))
    assert decode_diamond("<1 2>()") == _diamond((1, 2))
    for text in ("<1 3>((2),,)", " (1)", "<1 2>((3))", "<1 3>(,(2))", "<1 3>((2)",
                 "(1)(2)", "<1 3>((2)))", "<1 3>", "", "(x)"):
        with pytest.raises(ValueError):
            decode_diamond(text)


@pytest.mark.parametrize("text", ["(\u0661)", "<\u0661 3>((2))", "<1 3>((\u0662))"])
def test_diamond_codec_takes_ascii_digits_only(text):
    with pytest.raises(ParseError):
        decode_diamond(text)


# encode_diamond writes no leading zeros, so a padded label would not round-trip
@pytest.mark.parametrize("text", ["(01)", "<01 3>((2))", "<1 03>((2))", "<1 3>((02))"])
def test_diamond_codec_refuses_zero_padded_labels(text):
    with pytest.raises(ParseError):
        decode_diamond(text)


def test_diamond_validation():
    with pytest.raises(ValueError, match="extremes"):
        check_diamond(_diamond((2, 1)))  # source must be the minimum
    with pytest.raises(ValueError, match="duplicate"):
        check_diamond(_diamond((1, 3), _diamond((3,))))
    with pytest.raises(ValueError):
        decode_diamond("<1 2>((3))")  # sink is not the maximum
    with pytest.raises(ValueError, match="inner node"):
        check_diamond(Diamond(((2,), (3,)), (1, 0)))
    with pytest.raises(ValueError, match="inner node"):
        check_diamond(Diamond(((1, 2, 3),), (0,)))


@pytest.mark.parametrize("labels, degrees", [
    (((1, 3),), (2,)),           # more parts than nodes follow
    (((1, 3), (2,)), (0, 0)),    # two trees
    (((1, 3), (2,)), (1,)),      # a node without a part count
    (((1, 3), (2,)), (-1, 0)),   # a negative part count
    ((), ()),                    # no node at all
])
def test_check_diamond_rejects_a_preorder_of_no_single_tree(labels, degrees):
    with pytest.raises(ValueError, match="do not describe one tree"):
        check_diamond(Diamond(labels, degrees))
    with pytest.raises(ValueError):
        diamond_to_bucket(Diamond(labels, degrees))


def test_diamond_bijection_round_trip():
    for n in range(1, 6):
        seen = set()
        for tree in all_trees(2, n):
            d = bucket_to_diamond(tree)
            assert diamond_to_bucket(d).root == tree.root
            assert d.inner_count() == sum(
                1 for v in _buckets(tree) if len(v.labels) == 1)
            seen.add(encode_diamond(d))
        assert len(seen) == len(all_trees(2, n))


# the recursive diamond maps the relabelling pass replaced, kept as references:
# a diamond is a raw BucketNode tree of (source, sink) and one-label nodes

def _ref_labels_sorted(node):
    return sorted(x for v in iter_nodes(node) for x in v.labels)


def _ref_apply_perm(node, perm):
    return BucketNode(tuple(sorted(perm[x] for x in node.labels)),
                      tuple(_ref_apply_perm(c, perm) for c in node.children))


def _ref_bucket_to_diamond(node):
    labs = _ref_labels_sorted(node)
    if len(labs) == 1:
        return node
    undone = BucketNode(node.labels, tuple(_ref_bucket_to_diamond(c) for c in node.children))
    perm = {labs[0]: labs[0], labs[1]: labs[-1]}
    for i in range(1, len(labs) - 1):
        perm[labs[i + 1]] = labs[i]
    return _ref_apply_perm(undone, perm)


def _ref_diamond_to_bucket(node):
    labs = _ref_labels_sorted(node)
    if len(labs) == 1:
        return node
    perm = {labs[0]: labs[0], labs[-1]: labs[1]}
    for i in range(1, len(labs) - 1):
        perm[labs[i]] = labs[i + 1]
    permuted = _ref_apply_perm(node, perm)
    return BucketNode(permuted.labels,
                      tuple(_ref_diamond_to_bucket(c) for c in permuted.children))


def _ref_encode(node):
    if len(node.labels) == 1:
        return f"({node.labels[0]})"
    inside = ",".join(_ref_encode(c) for c in node.children)
    return f"<{node.labels[0]} {node.labels[1]}>({inside})"


def test_diamond_maps_match_the_recursive_reference():
    for n in range(1, 8):
        for tree in all_trees(2, n):
            d = bucket_to_diamond(tree)
            assert encode_diamond(d) == _ref_encode(_ref_bucket_to_diamond(tree.root))
            assert diamond_to_bucket(d).root == _ref_diamond_to_bucket(
                _assemble(d.labels, d.degrees))


def _bucket_path(buckets):
    node = BucketNode((2 * buckets - 1, 2 * buckets))
    for label in range(2 * buckets - 3, 0, -2):
        node = BucketNode((label, label + 1), (node,))
    return BucketTree(2, node)


def test_diamond_round_trips_on_a_deep_path():
    path = _bucket_path(3000)
    d = bucket_to_diamond(path)
    assert d.size == 6000 and d.inner_count() == 0
    text = encode_diamond(d)
    # each bucket {2i-1, 2i} becomes the pair (i, 6001-i): source and sink
    assert text.startswith("<1 6000>(<2 5999>(<3 5998>(")
    assert text.endswith("<3000 3001>()" + ")" * 2999)
    back = decode_diamond(text)
    assert back == d and hash(back) == hash(d)
    assert diamond_to_bucket(back) == path


def test_diamond_round_trips_on_a_large_random_tree():
    tree = sample_tree(families.recursive(2), 10 ** 4, RngStream(5))
    d = bucket_to_diamond(tree)
    assert d.size == 10 ** 4
    assert d.inner_count() == sum(1 for v in _buckets(tree) if len(v.labels) == 1)
    assert diamond_to_bucket(decode_diamond(encode_diamond(d))).root == tree.root


def _buckets(tree):
    return list(iter_nodes(tree.root))


def test_weighted_diamond_count_small():
    # composite weight C(k+2, k) pulls the (2,1)-PORT totals through the map:
    # a diamond weighs the product over its (source, sink) nodes
    import math

    def weight(d):
        return math.prod(math.comb(len(v.children) + 2, 2)
                         for v in iter_nodes(_assemble(d.labels, d.degrees))
                         if len(v.labels) == 2)

    for n in range(1, 6):
        total = sum(weight(bucket_to_diamond(t)) for t in all_trees(2, n))
        assert total == math.prod(range(2 * n - 3, 0, -2))


def test_diamond_needs_b2():
    with pytest.raises(ValueError):
        bucket_to_diamond(decode("{1}", 1))


def test_deep_diamonds_and_bundled_trees_pickle_and_print():
    path = _plain_path(3000)
    for obj in (bucket_to_diamond(_bucket_path(3000)), cluster_three_bundled(path),
                cluster_two_bundled(path)):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
        assert repr(back) == repr(obj) and repr(obj).startswith(type(obj).__name__ + "(")
    assert uncluster_three_bundled(pickle.loads(pickle.dumps(cluster_three_bundled(path)))) == path


def test_the_maps_and_the_doc_codec_build_no_node(monkeypatch):
    def refuse(*args):
        raise AssertionError("a BucketNode was built")

    monkeypatch.setattr(BucketNode, "__init__", refuse)
    for spec in (families.recursive(1), families.port(1, 1)):
        plain = sample_tree(spec, 400, 3)
        assert cluster(expand_chains(cluster(plain, 3)), 3) == cluster(plain, 3)
        assert uncluster_three_bundled(cluster_three_bundled(plain)) == plain
        assert uncluster_two_bundled(cluster_two_bundled(plain)) == plain
        assert sum(p for _, _, p in attraction_probs(spec, plain)) == 1
        assert 0 < growth_history_probability(spec, plain) < 1
    for spec in (families.recursive(2), families.port(2, 1)):
        tree = sample_tree(spec, 400, 3)
        d = bucket_to_diamond(tree)
        assert decode_diamond(encode_diamond(d)) == d and diamond_to_bucket(d) == tree
        assert from_doc(to_doc(tree)) == tree
        assert sum(p for _, _, p in attraction_probs(spec, tree)) == 1
        assert 0 < growth_history_probability(spec, tree) < 1


# sha256 of the outputs below, recorded with the node-walking maps, document
# codec and attraction probabilities that the preorder loops replaced; the
# `grown` lines were recorded again from the output of the attraction
# probabilities that named each bucket by its child-index path, with each
# path replaced by the preorder index of its parent, once more when the
# ary rules moved to the half-block grower, whose seeded ary trees differ,
# and again when they moved from half blocks to slot picks, which change
# the seeded ary trees with d >= 3
RECORDED_DIGESTS = {
    "diamonds": (1338, "c03d053613f9b9c52d7001a92ecda19d2ed71ec8c248a5ddadfe1f2be9404a76"),
    "bundled": (59947, "9efa53405d6e79930a67caa1df08c7708fa911047f5584984915c9afc39d0905"),
    "grown": (432, "1fde612c0986d23dded6a6615b1ba9271d09bdf17ad180ffa82ec29b05a2a3b3"),
}


def _digest_lines():
    diamonds = []
    for n in range(1, 8):
        for tree in all_trees(2, n):
            d = bucket_to_diamond(tree)
            diamonds += [encode_diamond(d), encode(diamond_to_bucket(d))]
    bundled = []
    for n in range(1, 8):
        for tree in all_trees(1, n):
            bundled += [encode(cluster(tree, b)) for b in (2, 3)]
            maps = [(cluster_three_bundled, uncluster_three_bundled)]
            if canonicalize(tree) == tree:
                maps.append((cluster_two_bundled, uncluster_two_bundled))
            for there, back in maps:
                bt = there(tree)
                bundled += [repr(bt.cuts), encode(bt.tree), encode(back(bt))]
    grown = []
    for spec in verify.family_grid() + [families.linear(2, 1, 1, 1)]:
        for seed in range(3):
            for n in (1, 2, 7, 60):
                tree = sample_tree(spec, n, RngStream(seed))
                grown += [json.dumps(to_doc(tree)), repr(attraction_probs(spec, tree)),
                          repr(growth_history_probability(spec, tree))]
    return {"diamonds": diamonds, "bundled": bundled, "grown": grown}


def test_outputs_match_the_recorded_digests():
    got = {name: (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
           for name, lines in _digest_lines().items()}
    assert got == RECORDED_DIGESTS
