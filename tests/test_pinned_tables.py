"""Byte-level pins of the learners' feature index tables and of `hodt
parse` output.

Each digest is the SHA-256 of the masked weight indices that a learner
builds from fixed generated banks (the parser's arc tables, the
labeler's chain tables, the unary restorer's instance rows), or of the
output and summary line of `hodt parse` on bundles trained from fixed
seeds.  They must not change while the feature templates and the
digests stay the same.  The unary pins date from before the learners
moved onto one hashing pass per sentence.  The arcs and labels pins and
the parse pins were retaken when the parser and the labeler moved onto
digests mixed from per-sentence atoms (bundle format 2); toy_hn parsed
the same before and after."""

import hashlib

import numpy as np
import pytest

from hodt.baseline_parser import arc_index_table, tree_arc_digests
from hodt.cli import main
from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
from hodt.dep_labeler import _chain_tables
from hodt.encoding import encode_direct
from hodt.perceptron import LinearModel
from hodt.reduction import ctree_to_dtree
from hodt.trees import strip_unaries
from hodt.unary_recovery import _instance_indices, extract_instances

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
        for _, unary, pair in _chain_tables(
                model, enc.sentence, enc.heads, n_labels,
                tree_arc_digests(enc.sentence, enc.heads)):
            yield from _masked(model, (unary, pair))


def _unary_rows(bank):
    data = extract_instances(BANKS[bank]())
    model = LinearModel()
    yield from _masked(model, _instance_indices(model, data.instances,
                                                len(data.classes)))


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
        '53ab8d780fe39a31a30be59fcbb004ee6f6b51c1a353f8064a58bb1695fc6016',
    'disc12':
        '355b2211a8c5316fa67fdf7fe819a2053e93ea284183c1f5e9bb42f0c32d7e6f',
    'toy_direct':
        'e5daccdcf3e810154f3ec5c1cfbc20f180f2947a81275c305ba457b49a41e360',
    'toy_hn':
        '838b000e1d1a09b84009f52ef2cc731e27f71912c84b891485f27c20f7e6f272',
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
