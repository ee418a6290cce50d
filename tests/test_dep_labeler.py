import itertools

import numpy as np
import pytest

from hodt.baseline_parser import arc_features, tree_arc_digests
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.dep_labeler import (_chain_tables, _chains, _pair_digests,
                              featurize_pairwise, label_tree, train_labeler)
from hodt.encoding import ROOT_LABEL, encode_direct
from hodt.errors import ToolkitError
from hodt.perceptron import LinearModel, conjoin_grid
from hodt.reduction import ctree_to_dtree
from hodt.trees import strip_unaries

from conftest import make_sentence
from test_pinned_tables import BANKS


def _corpus(n, seed=1):
    trees = gen_toy_treebank(GenConfig(seed=seed), n)
    return [encode_direct(ctree_to_dtree(t)) for t in trees]


def test_pairwise_features_shape():
    sent = make_sentence(('a', 'VBZ'), ('b', 'NN'), ('c', 'RB'))
    feats = featurize_pairwise(sent, 1, 2, 3)
    assert len(feats) == 4
    # the POS triplet template carries all three tags
    assert any('VBZ' in f and 'NN' in f and 'RB' in f for f in feats)


def test_memorizes_labels_given_gold_heads():
    corpus = _corpus(40)
    model = train_labeler(corpus, epochs=8, seed=1)
    wrong = total = 0
    for enc in corpus:
        out = label_tree(enc.sentence, list(enc.heads), model,
                         tree_arc_digests(enc.sentence, enc.heads))
        for got, want in zip(out.labels, enc.labels):
            total += 1
            wrong += got != want
    assert wrong / total < 0.02


def test_root_slot_label_is_learned():
    corpus = _corpus(25)
    model = train_labeler(corpus, epochs=6, seed=1)
    enc = corpus[0]
    out = label_tree(enc.sentence, list(enc.heads), model,
                     tree_arc_digests(enc.sentence, enc.heads))
    root_slot = list(enc.heads).index(0)
    assert out.labels[root_slot] == ROOT_LABEL


def test_alphabet_sorted_and_in_meta():
    corpus = _corpus(10)
    model = train_labeler(corpus, epochs=1)
    labels = model.meta['labels']
    assert labels == sorted(labels)
    assert ROOT_LABEL in labels


def test_labeler_deterministic():
    corpus = _corpus(12)
    a = train_labeler(corpus, epochs=3, seed=4)
    b = train_labeler(corpus, epochs=3, seed=4)
    assert a.to_json() == b.to_json()


def test_empty_corpus_rejected():
    with pytest.raises(ToolkitError):
        train_labeler([], epochs=0)


def test_invalid_tree_rejected():
    sent = make_sentence(('a', 'P'), ('b', 'P'))

    class Bad:
        sentence = sent
        heads = (2, 1)  # cycle, no root
        labels = ('X#1', 'X#1')

    with pytest.raises(ToolkitError):
        train_labeler([Bad()], epochs=1)


def test_chain_decode_matches_brute_force():
    # tiny alphabets: compare the chosen labels' joint score against
    # every assignment over each head's modifier chain
    corpus = _corpus(18, seed=2)
    model = train_labeler(corpus, epochs=3, seed=2)
    K = len(model.meta['labels'])
    checked = 0
    for enc in corpus[:6]:
        out = label_tree(enc.sentence, list(enc.heads), model,
                         tree_arc_digests(enc.sentence, enc.heads))
        chosen = {i + 1: lab for i, lab in enumerate(out.labels)}
        for chain, unary, pair in _chain_tables(
                model, enc.sentence, list(enc.heads), K,
                tree_arc_digests(enc.sentence, enc.heads)):
            if not 1 <= len(chain) <= 3:
                continue
            emis = model.weights[unary].sum(axis=2)
            trans = model.weights[pair].sum(axis=2).reshape(
                len(chain), K, K)
            best = -np.inf
            for seq in itertools.product(range(K), repeat=len(chain)):
                s = sum(emis[t][k] for t, k in enumerate(seq))
                s += sum(trans[t][seq[t - 1]][seq[t]]
                         for t in range(1, len(chain)))
                best = max(best, s)
            labels = model.meta['labels']
            got = sum(emis[t][labels.index(chosen[m])]
                      for t, m in enumerate(chain))
            got += sum(
                trans[t][labels.index(chosen[chain[t - 1]])]
                [labels.index(chosen[chain[t]])]
                for t in range(1, len(chain)))
            assert got == pytest.approx(best, abs=1e-9)
            checked += 1
    assert checked >= 10


def _reference_chain_tables(model, sentence, h, chain, n_labels):
    """One chain at a time, one arc or pair at a time: unary (T, K, 34)
    from arc_features of the arc alone, pairwise (T, K*K, 4) from
    _pair_digests of the pair alone, with row 0 zero."""
    T = len(chain)
    unary = np.empty((T, n_labels, 34), dtype=np.intp)
    pair = np.zeros((T, n_labels * n_labels, 4), dtype=np.intp)
    for t, m in enumerate(chain):
        unary[t] = model.indices(conjoin_grid(
            arc_features(sentence, [h], [m])[0], range(n_labels)))
        if t:
            m0 = chain[t - 1]
            digests = np.zeros((max(m0, m), 34), dtype=np.uint64)
            digests[[m0 - 1, m - 1]] = arc_features(sentence, [h, h],
                                                    [m0, m])
            pair[t] = model.indices(conjoin_grid(
                _pair_digests(digests, np.array([m0]), np.array([m]))[0],
                range(n_labels * n_labels)))
    return unary, pair


TREES = {
    'toy': lambda: gen_toy_treebank(GenConfig(seed=6), 8),
    'long': lambda: [gen_ctree(GenConfig(seed=6), 40)],
    'disc': lambda: [gen_ctree(GenConfig(
        seed=6, discontinuity_probability=1.0), 40)],
}


@pytest.mark.parametrize('kind', sorted(TREES))
def test_chain_tables_match_per_chain_hashing(kind):
    model = LinearModel(dim_bits=20)
    for tree in TREES[kind]():
        enc = encode_direct(ctree_to_dtree(strip_unaries(tree)))
        for K in (1, 3):
            got = _chain_tables(model, enc.sentence, enc.heads, K,
                                tree_arc_digests(enc.sentence, enc.heads))
            chains = _chains(enc.sentence, enc.heads)
            assert [c for c, _, _ in got] == [c for _, c in chains]
            for (h, chain), (_, unary, pair) in zip(chains, got):
                ref_unary, ref_pair = _reference_chain_tables(
                    model, enc.sentence, h, chain, K)
                assert np.array_equal(unary, ref_unary)
                assert np.array_equal(pair, ref_pair)


def test_chain_tables_hash_no_string(hash_calls):
    enc = encode_direct(ctree_to_dtree(gen_ctree(GenConfig(seed=6), 12)))
    digests = tree_arc_digests(enc.sentence, enc.heads)
    hash_calls.clear()
    _chain_tables(LinearModel(), enc.sentence, enc.heads, 2, digests)
    # the arc digests are given, and the pairwise ones are mixed from them
    assert not hash_calls
    assert not hash_calls.arcs


@pytest.mark.parametrize('bank', sorted(BANKS))
def test_pair_digests_group_pairs_as_the_feature_strings(bank):
    # over every head h and modifiers m < m2 of a sentence, two
    # (pair, feature) cells share a digest exactly when
    # featurize_pairwise gives them the same string
    for tree in BANKS[bank]():
        sentence = tree.sentence
        n = len(sentence)
        strings, digests = [], []
        for h in range(n + 1):
            into = arc_features(sentence, [h] * n, range(1, n + 1))
            earlier, later = np.triu_indices(n + 1, 1)
            keep = (earlier > 0) & (earlier != h) & (later != h)
            earlier, later = earlier[keep], later[keep]
            strings += [f for m, m2 in zip(earlier.tolist(), later.tolist())
                        for f in featurize_pairwise(sentence, h, m, m2)]
            digests += _pair_digests(into, earlier, later).ravel().tolist()
        pairs = set(zip(strings, digests))
        assert len(pairs) == len(set(strings)) == len(set(digests))
