import numpy as np

from hodt import perceptron
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.perceptron import LinearModel, conjoin_grid, hash_features
from hodt.trees import strip_unaries, validate
from hodt.unary_recovery import (NULL_CLASS, _instance_indices,
                                 extract_instances, featurize_node, recover,
                                 train_unary)


def _toy(n, seed=1):
    return gen_toy_treebank(GenConfig(seed=seed), n)


def test_instance_extraction_classes():
    trees = _toy(50)
    data = extract_instances(trees)
    assert data.classes[0] == NULL_CLASS
    assert list(data.classes[1:]) == sorted(data.classes[1:])
    # the toy grammar wraps N in NP and V in VP, AV in ADVP
    assert 'NP' in data.classes
    assert any(c.startswith('VP') or c == 'VP' for c in data.classes)
    # every instance's gold class is in the inventory
    assert all(inst.gold in data.classes for inst in data.instances)


def test_allowed_map_restricts_candidates():
    trees = _toy(50)
    data = extract_instances(trees)
    # chains observed over N nodes never include VP
    for sym, chains in data.allowed.items():
        for chain in chains:
            assert chain in data.classes


def test_feature_vector_shape(english_tree):
    node = english_tree.root
    feats = featurize_node(english_tree, node, None)
    assert len(feats) == 19
    child = english_tree.root.children[0]   # the NP
    feats_np = featurize_node(english_tree, child, node)
    assert len(feats_np) == 19
    assert feats != feats_np


def test_production_above_feature(english_tree):
    # the NP under S sees the plain parent production
    np_node = english_tree.root.children[0]
    feats = featurize_node(english_tree, np_node, english_tree.root)
    assert any('S->NP VP' in f for f in feats)


def test_memorize_and_invert_strip():
    trees = _toy(120)
    data = extract_instances(trees)
    model = train_unary(data, epochs=8, seed=1)
    wrong = 0
    for t in trees:
        stripped = strip_unaries(t)
        restored = recover(stripped, model)
        assert validate(restored) == []
        if restored != t:
            wrong += 1
    assert wrong <= 1


def test_strip_of_recover_is_identity():
    trees = _toy(40, seed=3)
    data = extract_instances(trees)
    model = train_unary(data, epochs=4, seed=3)
    for t in trees[:20]:
        stripped = strip_unaries(t)
        assert strip_unaries(recover(stripped, model)) == stripped


def test_zero_epochs_predicts_null_everywhere():
    trees = _toy(20)
    data = extract_instances(trees)
    model = train_unary(data, epochs=0)
    for t in trees[:10]:
        stripped = strip_unaries(t)
        assert recover(stripped, model) == stripped


def test_recover_can_reroot():
    # a corpus whose root always wears a unary TOP gets it back on top
    from hodt.trees import CTree, preterminal, proper
    from tests.conftest import make_sentence

    trees = []
    for k in range(30):
        sent = make_sentence(('w%d' % k, 'V'), ('n%d' % k, 'N'))
        s = proper('S', 1, (preterminal('V', 1),
                            preterminal('N', 2)))
        trees.append(CTree(proper('TOP', 1, (s,)), sent))
    data = extract_instances(trees)
    model = train_unary(data, epochs=5, seed=1)
    stripped = strip_unaries(trees[0])
    assert stripped.root.label == 'S'
    restored = recover(stripped, model)
    assert restored.root.label == 'TOP'
    assert restored == trees[0]


def test_determinism():
    trees = _toy(30)
    data = extract_instances(trees)
    a = train_unary(data, epochs=3, seed=2)
    b = train_unary(data, epochs=3, seed=2)
    assert a.to_json() == b.to_json()


def test_instance_indices_match_per_instance_hashing():
    trees = _toy(20) + [gen_ctree(GenConfig(
        seed=2, discontinuity_probability=1.0, unary_probability=0.3), 12)]
    data = extract_instances(trees)
    model = LinearModel(dim_bits=20)
    K = len(data.classes)
    got = _instance_indices(model, data.instances, K)
    assert np.shape(got) == (len(data.instances), K, 19)
    for inst, rows in zip(data.instances, got):
        digests = hash_features(list(inst.features))
        keys = 2 * np.arange(K) + int(inst.preterminal)
        assert np.array_equal(rows,
                              model.indices(conjoin_grid(digests, keys)))
    assert _instance_indices(model, (), K) == []


def test_recover_hashes_each_tree_once(monkeypatch):
    trees = _toy(40)
    model = train_unary(extract_instances(trees), epochs=2, seed=1)
    calls = []
    real = perceptron.hash_features
    monkeypatch.setattr(perceptron, 'hash_features',
                        lambda texts: calls.append(list(texts))
                        or real(texts))
    for t in trees[:5]:
        recover(strip_unaries(t), model)
    assert len(calls) == 5
    assert all(len(c) == len(set(c)) for c in calls)
