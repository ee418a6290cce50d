import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hodt import baseline_parser
from hodt.baseline_parser import (FEATURES_PER_ARC, NONE_TOKEN, ROOT_TOKEN,
                                  TEMPLATES, arc_features, arc_index_table,
                                  featurize_arc, parse_heads,
                                  train_unlabeled, tree_arc_digests)
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.encoding import encode_direct
from hodt.errors import ToolkitError
from hodt.perceptron import LinearModel, hash_features, mix
from hodt.reduction import ctree_to_dtree

from conftest import make_sentence
from test_pinned_tables import BANKS


def _toy_corpus(n, seed=1):
    trees = gen_toy_treebank(GenConfig(seed=seed), n)
    return [encode_direct(ctree_to_dtree(t)) for t in trees]


def test_feature_count_fixed():
    sent = make_sentence(('a', 'A'), ('b', 'B'), ('c', 'C'))
    for h in range(0, 4):
        for m in range(1, 4):
            if h == m:
                continue
            feats = featurize_arc(sent, h, m)
            assert len(feats) == FEATURES_PER_ARC == 34


def test_features_distinguish_direction_and_distance():
    sent = make_sentence(*((f'w{i}', f'P{i}') for i in range(1, 8)))
    near = set(featurize_arc(sent, 2, 3))
    far = set(featurize_arc(sent, 2, 7))
    flipped = set(featurize_arc(sent, 3, 2))
    assert near != far
    assert near != flipped


def test_root_arcs_use_sentinels():
    sent = make_sentence(('a', 'A'), ('b', 'B'))
    feats = featurize_arc(sent, 0, 1)
    assert any('<root>' in f for f in feats)


def test_memorizes_small_treebank():
    corpus = _toy_corpus(30)
    model = train_unlabeled(corpus, epochs=8, seed=1)
    wrong = 0
    for enc in corpus:
        got, _ = parse_heads(model, enc.sentence)
        wrong += sum(1 for a, b in zip(got, enc.heads) if a != b)
    total = sum(len(e.sentence) for e in corpus)
    assert wrong / total < 0.05


def test_training_is_deterministic():
    corpus = _toy_corpus(15)
    m1 = train_unlabeled(corpus, epochs=3, seed=9)
    m2 = train_unlabeled(corpus, epochs=3, seed=9)
    assert m1.to_json() == m2.to_json()
    m3 = train_unlabeled(corpus, epochs=3, seed=10)
    assert m1.to_json() != m3.to_json()


def test_zero_epochs_gives_zero_model():
    corpus = _toy_corpus(5)
    model = train_unlabeled(corpus, epochs=0)
    assert not model.weights.any()


def test_projectivity_flag_selects_decoder():
    corpus = _toy_corpus(10)
    proj = train_unlabeled(corpus, epochs=2, projective=True)
    nonproj = train_unlabeled(corpus, epochs=2, projective=False)
    assert proj.meta['projective'] is True
    assert nonproj.meta['projective'] is False
    sent = corpus[0].sentence
    assert len(parse_heads(proj, sent)[0]) == len(sent)
    assert len(parse_heads(nonproj, sent)[0]) == len(sent)


def test_length_mismatch_rejected():
    corpus = _toy_corpus(1)
    sent = corpus[0].sentence

    class Broken:
        sentence = sent
        heads = (0,) * (len(sent) + 3)

    with pytest.raises(ToolkitError):
        train_unlabeled([Broken()], epochs=1)


def _reference_arc_table(model, sentence):
    """One arc at a time: arc_features of the arc alone, the model's
    mask."""
    n = len(sentence)
    table = np.zeros((n + 1, n + 1, FEATURES_PER_ARC), dtype=np.intp)
    for m in range(1, n + 1):
        for h in range(n + 1):
            if h != m:
                table[h, m] = model.indices(
                    arc_features(sentence, [h], [m])[0])
    return table


def _all_arcs(n):
    """(heads, mods) of every candidate arc of an n-token sentence."""
    heads, mods = np.nonzero(np.arange(n + 1)[:, None]
                             != np.arange(1, n + 1))
    return heads, mods + 1


SENTENCES = {
    'toy': lambda: [t.sentence for t in
                    gen_toy_treebank(GenConfig(seed=4), 6)],
    'long': lambda: [gen_ctree(GenConfig(seed=4), 40).sentence],
    'disc': lambda: [gen_ctree(GenConfig(
        seed=4, discontinuity_probability=1.0), 40).sentence],
    'one': lambda: [make_sentence(('a', 'A'))],
    'empty': lambda: [make_sentence()],
}


@pytest.mark.parametrize('kind', sorted(SENTENCES))
def test_arc_index_table_matches_per_arc_hashing(kind):
    model = LinearModel(dim_bits=20)
    for sentence in SENTENCES[kind]():
        table, _ = arc_index_table(model, sentence)
        n = len(sentence)
        assert table.shape == (n + 1, n + 1, FEATURES_PER_ARC)
        assert table.dtype == np.intp
        assert np.array_equal(table, _reference_arc_table(model, sentence))


@pytest.mark.parametrize('bank', sorted(BANKS))
def test_atom_digests_group_cells_as_the_feature_strings(bank):
    # two (arc, template) cells of a sentence share a digest exactly
    # when featurize_arc gives them the same string
    for tree in BANKS[bank]():
        sentence = tree.sentence
        heads, mods = _all_arcs(len(sentence))
        strings = [f for h, m in zip(heads.tolist(), mods.tolist())
                   for f in featurize_arc(sentence, h, m)]
        digests = arc_features(sentence, heads, mods)
        assert digests.shape == (len(heads), FEATURES_PER_ARC)
        assert digests.dtype == np.uint64
        pairs = set(zip(strings, digests.ravel().tolist()))
        assert len(pairs) == len(set(strings)) == len({d for _, d in pairs})


def _fold(key, *parts):
    """mix(key + parts[0]), then mix(... + part) for each later part;
    mix(key) when there is no part."""
    digest = key
    for part in parts or (0,):
        digest = int(mix(np.array([(digest + part) % 2**64],
                                  dtype=np.uint64))[0])
    return digest


def _digest(text):
    return int(hash_features([text])[0])


def _reference_digests(sentence, h, m):
    """The 34 digests of arc h -> m, one template at a time, from the
    digests of its prefix and of its part strings."""

    def parts(i):
        pos = [NONE_TOKEN] + [t.pos for t in sentence] + [NONE_TOKEN]
        if i == 0:
            f = p = ROOT_TOKEN
            prev = after = NONE_TOKEN
        else:
            f, p, prev, after = (sentence.form(i), pos[i], pos[i - 1],
                                 pos[i + 1])
        return {'f': f, 'p': p, 'fp': f + ' ' + p, 'pn': p + ' ' + after,
                'vp': prev + ' ' + p}

    plain = [_fold(_digest(prefix),
                   *([_digest(parts(h)[head])] if head else []),
                   *([_digest(parts(m)[mod])] if mod else []))
             for prefix, head, mod in TEMPLATES]
    between = [sentence.pos(i) for i in range(min(h, m) + 1, max(h, m))]
    plain.append(_fold(_digest('btw:'), 0, *map(_digest, between)))
    ctx = featurize_arc(sentence, h, m)[-1].rsplit('/', 1)[1]
    return plain + [_fold(d, _digest('/' + ctx)) for d in plain]


def test_arc_digests_follow_the_atom_formula():
    sentence = make_sentence(('a', 'A'), ('b', 'B'), ('a', 'C'), ('c', 'A'))
    heads, mods = _all_arcs(4)
    digests = arc_features(sentence, heads, mods)
    for h, m, row in zip(heads.tolist(), mods.tolist(), digests.tolist()):
        assert row == _reference_digests(sentence, h, m)


def test_arc_index_table_hashes_only_the_part_strings(hash_calls):
    sentence = make_sentence(('a', 'A'), ('b', 'B'))
    arc_index_table(LinearModel(), sentence)
    # one call: the form, POS, form+POS, POS+next and previous+POS of
    # each position, root first, then the direction+distance of each
    # modifier - head from -2 to 2
    (hashed,) = hash_calls
    assert hashed == [
        '<root>', 'a', 'b', '<root>', 'A', 'B',
        '<root> <root>', 'a A', 'b B',
        '<root> <none>', 'A B', 'B <none>',
        '<none> <root>', '<none> A', 'A B',
        '/L2', '/L1', '/L0', '/R1', '/R2']
    # the digests of all candidate arcs, mixed in one block
    assert hash_calls.arcs == [([0, 0, 1, 2], [1, 2, 2, 1])]


def test_arc_index_table_blocks_give_the_same_table(hash_calls,
                                                    monkeypatch):
    model = LinearModel()
    sentence = gen_ctree(GenConfig(seed=4), 44).sentence
    table, _ = arc_index_table(model, sentence)
    # the 44 * 44 arcs are more than one block of 2**16 // 34 arcs
    assert [len(h) for h, _ in hash_calls.arcs] == [1927, 9]
    cells = baseline_parser._BLOCK_CELLS
    monkeypatch.setattr(baseline_parser, '_BLOCK_CELLS', 7 * 34)
    hash_calls.clear()
    assert np.array_equal(arc_index_table(model, sentence)[0], table)
    assert [len(h) for h, _ in hash_calls.arcs] == [7] * 276 + [4]
    # 43 * 43 arcs are one block
    monkeypatch.setattr(baseline_parser, '_BLOCK_CELLS', cells)
    hash_calls.clear()
    arc_index_table(model, gen_ctree(GenConfig(seed=4), 43).sentence)
    (arcs,) = hash_calls.arcs
    assert len(arcs[0]) == 43 * 43


# few atoms, so that parts repeat; with spaces and '/', so that parts
# could join into the same string; and the sentinels as words
ATOMS = st.sampled_from(
    ['a', 'b', 'c', 'a b', 'b c', '/', 'a/R1', '<root>', '<none>'])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(ATOMS, ATOMS), max_size=14))
def test_arc_index_table_matches_per_arc_hashing_on_random_sentences(words):
    # up to 14 tokens, so that the >10 distance bin is reached
    model = LinearModel(dim_bits=20)
    sentence = make_sentence(*words)
    table, _ = arc_index_table(model, sentence)
    assert np.array_equal(table, _reference_arc_table(model, sentence))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(ATOMS, ATOMS), min_size=1, max_size=14))
@example([('a', 'b')])
@pytest.mark.parametrize('projective', [True, False])
def test_parse_heads_returns_the_digests_of_the_chosen_arcs(projective,
                                                            words):
    # random weights, so that the decoded trees vary
    model = LinearModel(dim_bits=12, meta={'projective': projective})
    # index i gets the i-th value: the slots are handed out in a
    # separate statement, since handing them out may grow `weights`
    slots = model.indices(np.arange(1 << 12, dtype=np.uint64))
    model.weights[slots] = np.random.default_rng(len(words)).standard_normal(
        slots.size)
    sentence = make_sentence(*words)
    heads, digests = parse_heads(model, sentence)
    assert digests.shape == (len(sentence), FEATURES_PER_ARC)
    assert digests.dtype == np.uint64
    # the rows of the chosen arcs among all candidate arcs
    n = len(sentence)
    every = arc_features(sentence, *_all_arcs(n))
    mods = np.arange(1, n + 1)
    chosen = np.array(heads)
    reference = every[chosen * (n - 1) + mods - (mods > chosen)]
    assert np.array_equal(digests, reference)
    assert np.array_equal(tree_arc_digests(sentence, heads), reference)


def test_parts_that_join_two_ways_get_different_digests():
    # 'a b' + 'c' and 'a' + 'b c' are different head and modifier forms
    # that featurize_arc joins into the same 'hf,mf:a b c'; the atoms
    # keep them apart, as they keep every other pair of parts
    sentence = make_sentence(('a b', 'X'), ('c', 'Y'), ('a', 'Z'),
                             ('b c', 'W'))
    assert featurize_arc(sentence, 1, 2)[8] == 'hf,mf:a b c'
    assert featurize_arc(sentence, 3, 4)[8] == 'hf,mf:a b c'
    digests = arc_features(sentence, [1, 3], [2, 4])
    assert digests[0, 8] != digests[1, 8]
    assert digests[0, 1] != digests[1, 1]
