"""Byte-level pins of the learners' feature index tables and of `hodt
parse` output.

Each digest is the SHA-256 of the masked weight indices that a learner
builds from fixed generated banks (the parser's arc tables, the
labeler's chain tables, the unary restorer's node rows), or of the
output and summary line of `hodt parse` on bundles trained from fixed
seeds.  They must not change while the feature templates and the
digests stay the same.  The unary pins date from before the learners
moved onto one hashing pass per sentence.  The arcs and labels pins and
the parse pins were retaken when the parser and the labeler moved onto
digests mixed from per-sentence atoms (bundle format 2); toy_hn parsed
the same before and after.  The parse pins were retaken again when the
labeler and the unary restorer moved onto one update per tree: their
weights changed, while every parser weight, and the parse of a bundle
trained before, stayed the same."""

import hashlib

import numpy as np
import pytest

from hodt.baseline_parser import (arc_index_table, block_atoms,
                                  tree_arc_digests)
from hodt.cli import main
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.dep_labeler import _tree_tables
from hodt.encoding import encode_direct
from hodt.perceptron import LinearModel, conjoin_grid, hash_features
from hodt.reduction import ctree_to_dtree
from hodt.trees import PRETERMINAL, strip_unaries
from hodt.unary_recovery import (_with_parents, extract_instances,
                                 featurize_node)

BANKS = {
    'toy': lambda: gen_toy_treebank(GenConfig(seed=11), 40),
    'cont40': lambda: [gen_ctree(GenConfig(seed=12), 40, index=i)
                       for i in range(3)],
    'disc40': lambda: [gen_ctree(GenConfig(
        seed=13, discontinuity_probability=1.0, unary_probability=0.2),
        40, index=i) for i in range(3)],
}


def _corpus(bank):
    return [encode_direct(ctree_to_dtree(strip_unaries(t)))
            for t in BANKS[bank]()]


def _digest(arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array, dtype='<i8').tobytes())
    return sha.hexdigest()


def _masked(model, tables):
    """The tables of an open model with each slot read back as the
    masked index it was handed out for; slot 0, which no open model hands
    out, reads as index 0 (the zeros an arc table leaves unread)."""
    for table in tables:
        yield model._slot_keys[table]


def _arc_tables(bank):
    model = LinearModel()
    for enc in _corpus(bank):
        table, _ = arc_index_table(model, enc.sentence)
        yield from _masked(model, [table])


def _label_tables(bank):
    corpus = _corpus(bank)
    n_labels = len({label for enc in corpus for label in enc.labels})
    model = LinearModel()
    for enc in corpus:
        ((_, starts, unary, pair),) = _tree_tables(
            model, [enc.heads], n_labels,
            tree_arc_digests(block_atoms([enc.sentence]), [enc.heads]))
        for a, b in zip(starts, starts[1:]):
            yield from _masked(model, (unary[a:b], pair[a:b]))


def _unary_rows(bank):
    """The (classes, 19) weight indices of every node of each stripped
    tree, row c under key 2c + preterminal, one node at a time."""
    n_classes = len(extract_instances(BANKS[bank]()).classes)
    model = LinearModel()
    for tree in map(strip_unaries, BANKS[bank]()):
        for node, parent, slot in _with_parents(tree.root):
            digests = hash_features(featurize_node(tree, node, parent, slot))
            keys = 2 * np.arange(n_classes) + (node.kind == PRETERMINAL)
            yield from _masked(model, [model.indices(
                conjoin_grid(digests, keys))])


TABLES = {'arcs': _arc_tables, 'labels': _label_tables,
          'unary': _unary_rows}

PINNED_TABLES = {
    'arcs_cont40':
        '6f0c8864fa1a1cff5ff06f212dc6eb3edbc64768d3f6a0228dbb09ca25be299a',
    'arcs_disc40':
        '06a18e4311247a52ffde192a7434e3e92032d315834f490bc87d07af231c3b78',
    'arcs_toy':
        'dda7b062b80c010731998198797e2771ed3f453862e7ec10f42374864d522f66',
    'labels_cont40':
        'e9cb703be8d95b6a8f2126949fccf201485c9847482568b9cbbc3853faf75d6b',
    'labels_disc40':
        '2540f99586ceac13026ffddee8722702c673dfb86a6ac762717321ec3463bda2',
    'labels_toy':
        '8657236101ef36162ffb4d7c9e0effa902d82b16c264f5613577176e05a61c63',
    'unary_cont40':
        '092ec0881882cbe2145cf9563de6d0660277f2d4d3484253a938bfa696e647c2',
    'unary_disc40':
        '80b740569393b3980e39d3d61629c615945673f714f6488e7e3f01bde12b0432',
    'unary_toy':
        '5d2803b6b6a2862344bdf5a11e21df9864fb78455f59d6c23eecc63d04023a94',
}


@pytest.mark.parametrize('bank', sorted(BANKS))
@pytest.mark.parametrize('table', sorted(TABLES))
def test_index_tables_are_pinned(table, bank):
    assert _digest(TABLES[table](bank)) == PINNED_TABLES[f'{table}_{bank}']


# (gen arguments, train arguments) of each pinned bundle
BUNDLES = {
    'toy_direct': (['--kind', 'toy', '-n', '60'],
                   ['--head-rules', 'toy', '--encoding', 'direct']),
    'toy_hn': (['--kind', 'toy', '-n', '60'],
               ['--head-rules', 'toy', '--encoding', 'hn']),
    'cont40': (['--kind', 'random', '-n', '10', '--length', '40',
                '--unary-prob', '0.2'],
               ['--head-rules', 'rightmost']),
    'disc12': (['--kind', 'random', '-n', '30', '--length', '12',
                '--disc-prob', '1.0', '--unary-prob', '0.2'],
               ['--mode', 'discontinuous']),
}

PINNED_PARSES = {
    'cont40':
        '9dfe70c732c9cd62697a9dd9cd41b8000cafa0ebda34ef3fd5c89d3991a199c5',
    'disc12':
        'b9a2fcefa8b1a88141eedae2628354db792b6353cf77512e23b2810c2444d6d3',
    'toy_direct':
        '7ebaafaa01495721689fde1643ad2994418f2800bf21d3989639a590ddd5130c',
    'toy_hn':
        '59a833440723d1f3324921c6f37a518e2d4568e9a778fd8f786e48e3401b9956',
}


def _cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.err


@pytest.mark.parametrize('name', sorted(BUNDLES))
def test_parse_output_is_pinned(name, tmp_path, capsys):
    gen, train = BUNDLES[name]
    bank, held, tokens = (tmp_path / f for f in ('train', 'held', 'tokens'))
    _cli(capsys, 'gen', *gen, '--seed', 21, '-o', bank)
    _cli(capsys, 'gen', *gen, '--seed', 22, '-o', held)
    _cli(capsys, 'convert', '-i', held, '-o', tokens)
    _cli(capsys, 'train', '-i', bank, '-m', tmp_path / 'bundle',
         '--epochs', 3, '--seed', 5, *train)
    err = _cli(capsys, 'parse', '-i', tokens, '-m', tmp_path / 'bundle',
               '-o', tmp_path / 'parsed')
    sha = hashlib.sha256((tmp_path / 'parsed').read_bytes())
    sha.update(err.encode('utf-8'))
    assert sha.hexdigest() == PINNED_PARSES[name]
