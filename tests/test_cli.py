import base64
import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from hodt import cli
from hodt.cli import main
from hodt.corpus_gen import GenConfig, gen_ctree
from hodt.encoding import ROOT_LABEL
from hodt.errors import (HeadRuleError, ModelFormatError, TreebankFormatError,
                         TreeStructureError)
from hodt.headrules import load_rules
from hodt.perceptron import LinearModel
from hodt.treebank_io import (
    MAX_DEPTH, TREE_FORMATS, read_bracketed, read_conll, read_json_corpus,
    read_sentences, write_bracketed, write_export, write_json_corpus)
from hodt.trees import (CTree, RawNode, Sentence, Token, is_continuous,
                        preterminal, proper, spine)
from tests.conftest import deep_tree


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def toy_file(tmp_path, capsys):
    path = tmp_path / 'toy.brackets'
    code = main(['gen', '--kind', 'toy', '-n', '30', '--seed', '1',
                 '-o', str(path)])
    capsys.readouterr()
    assert code == 0
    return str(path)


def test_gen_toy_deterministic(tmp_path, capsys):
    a = tmp_path / 'a.txt'
    b = tmp_path / 'b.txt'
    for path in (a, b):
        code, _, _ = _run(capsys, 'gen', '--kind', 'toy', '-n', '12',
                          '--seed', '7', '-o', str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(read_bracketed(a.read_text())) == 12


def test_gen_random_discontinuous_defaults_to_export(tmp_path, capsys):
    path = tmp_path / 'r.export'
    code, _, _ = _run(capsys, 'gen', '--kind', 'random', '-n', '6',
                      '--length', '6', '--disc-prob', '1.0',
                      '-o', str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith('#BOS 1')
    from hodt.treebank_io import read_export
    assert len(read_export(text)) == 6


def test_convert_stdout_and_stats(toy_file, capsys):
    code, out, err = _run(capsys, 'convert', '-i', toy_file,
                          '--head-rules', 'toy')
    assert code == 0
    corpus = read_conll(out)
    assert len(corpus) == 30
    assert any('#' in label for enc in corpus for label in enc.labels)
    assert '30 sentences' in err
    assert 'direct' in err


def test_convert_sniffs_format(toy_file, capsys):
    # no --format flag: bracketed input detected from the text itself
    code, out, _ = _run(capsys, 'convert', '-i', toy_file,
                        '--head-rules', 'toy', '--encoding', 'hn')
    assert code == 0
    assert read_conll(out)


def test_convert_empty_input(monkeypatch, capsys):
    monkeypatch.setattr('sys.stdin', io.TextIOWrapper(io.BytesIO(b'')))
    code, _, err = _run(capsys, 'convert')
    assert code == 1
    assert err.startswith('error:')


def test_convert_bad_rules_name(toy_file, capsys):
    code, _, err = _run(capsys, 'convert', '-i', toy_file,
                        '--head-rules', 'no-such-table')
    assert code == 1
    assert 'no-such-table' in err


@pytest.mark.parametrize('field, value, written', [
    ('form', 'a\tb', 'a\tb'), ('form', 'a\rb', 'a\rb'),
    ('label', 'S\tT', 'S\tT#1'), ('lemma', '_', '_')])
def test_convert_refuses_fields_the_conll_reader_misreads(
        tmp_path, capsys, field, value, written):
    plain = {'form': 'a', 'label': 'S', 'lemma': None}
    trees = []
    for fields in (plain, {**plain, field: value}):
        sent = Sentence((Token(1, fields['form'], 'N', fields['lemma']),
                         Token(2, 'b', 'V')))
        trees.append(CTree(proper(fields['label'], 2, (
            preterminal('N', 1), preterminal('V', 2))), sent))
    src = tmp_path / 'in.json'
    src.write_text(write_json_corpus(trees))
    out = tmp_path / 'out.conll'
    code, stdout, err = _run(capsys, 'convert', '-i', str(src),
                             '-o', str(out))
    assert (code, stdout) == (1, '')
    assert err == (f'error: {out}: sentence 2: {field} {written!r} '
                   f'cannot be written in the CoNLL format\n')
    assert not out.exists()


def _train(tmp_path, capsys, toy_file, *extra):
    bundle = tmp_path / 'bundle'
    argv = ['train', '-i', toy_file, '-m', str(bundle),
            '--head-rules', 'toy', '--epochs', '3', '--seed', '1']
    code, _, err = _run(capsys, *argv, *extra)
    assert code == 0, err
    return bundle


def test_train_writes_bundle(tmp_path, capsys, toy_file):
    bundle = _train(tmp_path, capsys, toy_file)
    names = sorted(os.listdir(bundle))
    assert names == ['labeler.json', 'manifest.json', 'parser.json',
                     'rules.txt', 'unary.json']
    manifest = json.loads((bundle / 'manifest.json').read_text())
    assert manifest['bundle'] == 3
    assert manifest['encoding'] == 'direct'
    assert manifest['mode'] == 'continuous'
    assert manifest['unaries'] is True
    assert len(manifest['head_rules_sha256']) == 64


def test_train_no_unaries(tmp_path, capsys, toy_file):
    bundle = _train(tmp_path, capsys, toy_file, '--no-unaries')
    assert not (bundle / 'unary.json').exists()
    manifest = json.loads((bundle / 'manifest.json').read_text())
    assert manifest['unaries'] is False


def test_train_rejects_delta_discontinuous(tmp_path, capsys, toy_file):
    code, _, err = _run(capsys, 'train', '-i', toy_file,
                        '-m', str(tmp_path / 'x'), '--encoding', 'delta',
                        '--mode', 'discontinuous')
    assert code == 1
    assert 'delta' in err


def test_parse_tagged_text(tmp_path, capsys, toy_file):
    bundle = _train(tmp_path, capsys, toy_file)
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D dog/N sees/V a/D cat/N\nthe/D bird/N sees/V\n')
    code, out, err = _run(capsys, 'parse', '-m', str(bundle),
                          '-i', str(sents))
    assert code == 0, err
    trees = read_bracketed(out)
    assert len(trees) == 2
    assert 'parsed 2 sentences' in err


def test_parse_conll_input(tmp_path, capsys, toy_file):
    bundle = _train(tmp_path, capsys, toy_file)
    rows = ['1\tthe\t_\tD\tD\t_\t0\t_\t_\t_',
            '2\tdog\t_\tN\tN\t_\t0\t_\t_\t_',
            '3\tsees\t_\tV\tV\t_\t0\t_\t_\t_']
    sents = tmp_path / 'in.conll'
    sents.write_text('\n'.join(rows) + '\n')
    code, out, _ = _run(capsys, 'parse', '-m', str(bundle),
                        '-i', str(sents))
    assert code == 0
    assert len(read_bracketed(out)) == 1


def test_parse_json_output(tmp_path, capsys, toy_file):
    bundle = _train(tmp_path, capsys, toy_file)
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D horse/N chases/V a/D fish/N\n')
    code, out, _ = _run(capsys, 'parse', '-m', str(bundle),
                        '-i', str(sents), '--format', 'json')
    assert code == 0
    (tree,) = read_json_corpus(out)
    assert [t.form for t in tree.sentence] == [
        'the', 'horse', 'chases', 'a', 'fish']


def test_parse_missing_bundle(tmp_path, capsys):
    code, _, err = _run(capsys, 'parse', '-m', str(tmp_path / 'nope'),
                        '-i', '-')
    assert code == 1
    assert 'manifest' in err


def test_eval_brackets_identity(toy_file, capsys):
    code, out, err = _run(capsys, 'eval', toy_file, toy_file)
    assert code == 0
    report = json.loads(out)
    assert report['kind'] == 'brackets'
    assert report['f1'] == 1.0
    assert report['exact'] == 1.0
    assert 'F1 1.0000' in err


@pytest.mark.parametrize('pred_format', ['json', 'export'])
def test_eval_sniffs_each_file(tmp_path, toy_file, capsys, pred_format):
    # the same trees as bracketed gold and a prediction in another format
    pred = tmp_path / ('pred.' + pred_format)
    code, _, _ = _run(capsys, 'gen', '--kind', 'toy', '-n', '30',
                      '--seed', '1', '--format', pred_format,
                      '-o', str(pred))
    assert code == 0
    code, out, err = _run(capsys, 'eval', toy_file, str(pred))
    assert code == 0, err
    assert json.loads(out)['f1'] == 1.0
    code, out, err = _run(capsys, 'eval', str(pred), toy_file)
    assert code == 0, err
    assert json.loads(out)['f1'] == 1.0


def test_eval_misaligned_is_a_user_error(tmp_path, toy_file, capsys):
    short = tmp_path / 'short.brackets'
    code, _, _ = _run(capsys, 'gen', '--kind', 'toy', '-n', '12',
                      '--seed', '1', '-o', str(short))
    assert code == 0
    code, out, err = _run(capsys, 'eval', toy_file, str(short))
    assert code == 1
    assert out == ''
    assert err.startswith('error:') and 'Traceback' not in err


def test_eval_rejects_trees_against_conll(tmp_path, toy_file, capsys):
    code, out, _ = _run(capsys, 'convert', '-i', toy_file,
                        '--head-rules', 'toy')
    assert code == 0
    dep = tmp_path / 'gold.conll'
    dep.write_text(out)
    code, _, err = _run(capsys, 'eval', str(dep), toy_file)
    assert code == 1
    assert err.startswith('error:')


def test_eval_conll_identity(tmp_path, toy_file, capsys):
    code, out, _ = _run(capsys, 'convert', '-i', toy_file,
                        '--head-rules', 'toy')
    assert code == 0
    dep = tmp_path / 'gold.conll'
    dep.write_text(out)
    code, out, err = _run(capsys, 'eval', str(dep), str(dep))
    assert code == 0
    report = json.loads(out)
    assert report['kind'] == 'attachment'
    assert report['uas'] == 1.0
    assert report['las'] == 1.0
    assert 'UAS 1.0000' in err


# a CoNLL row of nine columns: the first names it as CoNLL all the same
NINE_COLUMNS = '1\tx\t_\tN N\t_\t0\tL\t_\t_\n'


def test_eval_names_a_conll_row_of_nine_columns(tmp_path, capsys):
    nine = tmp_path / 'nine.conll'
    nine.write_text(NINE_COLUMNS)
    code, out, err = _run(capsys, 'eval', str(nine), str(nine))
    assert code == 1 and out == ''
    assert err == f'error: {nine}:1: expected 10 columns, got 9\n'


def test_eval_names_the_predictions_row_of_nine_columns(tmp_path, toy_file,
                                                        capsys):
    code, out, _ = _run(capsys, 'convert', '-i', toy_file,
                        '--head-rules', 'toy')
    assert code == 0
    gold = tmp_path / 'gold.conll'
    gold.write_text(out)
    pred = tmp_path / 'nine.conll'
    pred.write_text(NINE_COLUMNS)
    code, out, err = _run(capsys, 'eval', str(gold), str(pred))
    assert code == 1 and out == ''
    assert err == f'error: {pred}:1: expected 10 columns, got 9\n'


def _conll(heads, forms='abcd'):
    labels = ('A#1', ROOT_LABEL, 'B#1', 'C#1')
    return '\n'.join(f'{m}\t{form}\t_\tX\tX\t_\t{h}\t{label}\t_\t_'
                     for m, (form, h, label)
                     in enumerate(zip(forms, heads, labels), 1)) + '\n'


@pytest.mark.parametrize('pred_heads', [
    (2, 0, 0, 2),   # two roots
    (3, 0, 4, 3),   # a cycle through tokens 3 and 4
])
def test_eval_scores_conll_heads_as_written(tmp_path, capsys, pred_heads):
    gold = tmp_path / 'gold.conll'
    gold.write_text(_conll((2, 0, 2, 3)))
    pred = tmp_path / 'pred.conll'
    pred.write_text(_conll(pred_heads))
    code, out, err = _run(capsys, 'eval', str(gold), str(pred))
    assert code == 0, err
    report = json.loads(out)
    assert report['uas'] == report['las'] == 0.5
    assert 'UAS 0.5000  LAS 0.5000' in err


@pytest.mark.parametrize('gold_text, pred_text', [
    ('(S (A x) (B y))\n', '(S (A p) (B q))\n'),
    (_conll((2, 0, 2, 3), 'xyzw'), _conll((2, 0, 2, 3), 'pyzw')),
], ids=['brackets', 'conll'])
def test_eval_refuses_sentences_whose_words_differ(tmp_path, capsys,
                                                   gold_text, pred_text):
    gold = tmp_path / 'gold'
    gold.write_text(gold_text)
    pred = tmp_path / 'pred'
    pred.write_text(pred_text)
    assert _run(capsys, 'eval', str(gold), str(pred)) == (
        1, '', "error: sentence 1, token 1: 'x' vs 'p'\n")


def test_check_clean_corpus(toy_file, capsys):
    code, out, err = _run(capsys, 'check', '-i', toy_file,
                          '--head-rules', 'toy')
    assert code == 0
    summary = json.loads(out)
    assert summary['trees'] == 30
    assert summary['roundtrip_failures'] == 0
    assert summary['equivalence_failures'] == 0
    assert summary['continuous'] == 30
    assert 'no violations' in err


def test_check_discontinuous_corpus(tmp_path, capsys):
    path = tmp_path / 'disc.export'
    code, _, _ = _run(capsys, 'gen', '--kind', 'random', '-n', '8',
                      '--length', '6', '--disc-prob', '0.7',
                      '--seed', '3', '-o', str(path))
    assert code == 0
    code, out, _ = _run(capsys, 'check', '-i', str(path),
                        '--head-rules', 'leftmost')
    assert code == 0
    summary = json.loads(out)
    assert summary['trees'] == 8
    assert summary['continuous'] < 8
    assert summary['roundtrip_failures'] == 0


def test_train_parse_roundtrip_quality(tmp_path, capsys, toy_file):
    # self-parse on the training set reproduces most trees
    bundle = _train(tmp_path, capsys, toy_file)
    pred = tmp_path / 'pred.brackets'
    # re-tag the training sentences as form/POS lines
    from hodt.headrules import lexicalize, load_rules
    from hodt.corpus_gen import TOY_HEAD_RULES
    rules = load_rules(TOY_HEAD_RULES.splitlines())
    trees = [lexicalize(t, rules)
             for t in read_bracketed(open(toy_file).read())]
    tagged = '\n'.join(
        ' '.join(f'{t.form}/{t.pos}' for t in tree.sentence)
        for tree in trees) + '\n'
    inp = tmp_path / 'in.txt'
    inp.write_text(tagged)
    code, _, err = _run(capsys, 'parse', '-m', str(bundle), '-i', str(inp),
                        '-o', str(pred))
    assert code == 0, err
    code, out, _ = _run(capsys, 'eval', toy_file, str(pred))
    assert code == 0
    assert json.loads(out)['f1'] > 0.9


def _parse_own_tokens(tmp_path, capsys, toy_file, bundle, *extra):
    """Parse the tokens of toy_file with bundle; returns (pred path,
    stderr)."""
    code, out, _ = _run(capsys, 'convert', '-i', toy_file,
                        '--head-rules', 'toy')
    assert code == 0
    dep = tmp_path / 'tokens.conll'
    dep.write_text(out)
    pred = tmp_path / 'pred.brackets'
    code, _, err = _run(capsys, 'parse', '-m', str(bundle), '-i', str(dep),
                        '--format', 'bracketed', '-o', str(pred), *extra)
    assert code == 0, err
    return pred, err


def test_train_parse_roundtrip_hn(tmp_path, capsys, toy_file):
    # spine-label bundle: reconstruction compacts unary-only spine slots
    # and the restorer puts the chains back
    bundle = _train(tmp_path, capsys, toy_file, '--encoding', 'hn')
    pred, err = _parse_own_tokens(tmp_path, capsys, toy_file, bundle)
    # the summary counts only tokens that a repair changed
    repaired, tokens = map(int, re.search(
        r'(\d+) sentences repaired \((\d+) tokens\)', err).groups())
    assert (repaired == 0) == (tokens == 0)
    code, out, _ = _run(capsys, 'eval', toy_file, str(pred))
    assert code == 0
    assert json.loads(out)['f1'] > 0.9


def _unary_labels(path):
    """Labels of the unary proper nodes in a bracketed file (a Token
    leaf is a preterminal)."""
    with open(path, encoding='utf-8') as f:
        stack = read_bracketed(f.read())
    labels = []
    while stack:
        node = stack.pop()
        if isinstance(node, RawNode):
            if len(node.children) == 1:
                labels.append(node.label)
            stack.extend(node.children)
    return labels


def test_hn_spines_restore_no_unary_node(tmp_path, capsys, toy_file):
    # hn labels carry unary levels on their spines, but only the steps
    # that arcs attach at are rebuilt: without the restorer no parse has
    # a unary node, though the gold trees do
    bundle = _train(tmp_path, capsys, toy_file, '--encoding', 'hn')
    assert _unary_labels(toy_file)
    pred, _ = _parse_own_tokens(tmp_path, capsys, toy_file, bundle)
    assert _unary_labels(pred)
    pred, _ = _parse_own_tokens(tmp_path, capsys, toy_file, bundle,
                                '--no-unaries')
    assert _unary_labels(pred) == []


# --- --jobs -----------------------------------------------------------------

def _gen_bank(tmp_path, capsys, name, *extra):
    path = tmp_path / name
    code, _, _ = _run(capsys, 'gen', '--kind', 'random', '-n', '12',
                      '--length', '6', '--seed', '3', *extra,
                      '-o', str(path))
    assert code == 0
    return str(path)


def _serial_and_parallel(tmp_path, capsys, *argv):
    """(code, output bytes, stderr) of argv at --jobs 1 and --jobs 2, each
    run writing to a fresh tmp_path/out, so that an error naming the
    output reads the same; nothing goes to stdout, and the work slot of
    _pmap is empty after each call."""
    out = tmp_path / 'out'
    runs = []
    for jobs in ('1', '2'):
        out.unlink(missing_ok=True)
        code, stdout, err = _run(capsys, *argv, '--jobs', jobs,
                                 '-o', str(out))
        assert stdout == ''
        assert cli._WORK is None
        runs.append((code, out.read_bytes() if out.exists() else None,
                     err))
    return runs


@pytest.mark.parametrize('cmd', ['convert', 'check', 'parse'])
@pytest.mark.parametrize('jobs', ['0', '-3', 'two'])
def test_jobs_must_be_a_positive_integer(capsys, cmd, jobs):
    argv = [cmd, '--jobs', jobs] + (['-m', 'unused'] if cmd == 'parse'
                                    else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert '--jobs' in capsys.readouterr().err


@pytest.mark.parametrize('argv, flag', [
    (['gen', '--kind', 'random', '--length', '0'], '--length'),
    (['gen', '--kind', 'random', '--length', '-2'], '--length'),
    (['gen', '-n', '-1'], '-n'),
    (['gen', '-n', 'many'], '-n'),
    (['train', '-m', 'unused', '--epochs', '-1'], '--epochs'),
    (['gen', '--disc-prob', '1.5'], '--disc-prob'),
    (['gen', '--disc-prob', '-0.5'], '--disc-prob'),
    (['gen', '--disc-prob', 'inf'], '--disc-prob'),
    (['gen', '--disc-prob', 'nan'], '--disc-prob'),
    (['gen', '--disc-prob', 'half'], '--disc-prob'),
    (['gen', '--unary-prob', '1.5'], '--unary-prob'),
    (['gen', '--unary-prob', '-inf'], '--unary-prob'),
    (['gen', '--unary-prob', 'nan'], '--unary-prob'),
])
def test_counts_out_of_range_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize('argv, flag', [
    (['gen', '-i', 'unused'], '-i'),
    (['gen', '--length', '3'], '--length'),
    (['gen', '--disc-prob', '0.5'], '--disc-prob'),
    (['gen', '--unary-prob', '0'], '--unary-prob'),
    (['gen', '--binary'], '--binary'),
    (['gen', '--binary', '--kind', 'toy', '--length', '3'], '--length'),
])
def test_gen_takes_no_option_it_ignores(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == '' and flag in out.err


def test_probabilities_at_both_ends_are_valid(tmp_path, capsys):
    for prob in ('0', '1', '1e-3'):
        code, out, _ = _run(capsys, 'gen', '--kind', 'random', '-n', '2',
                            '--length', '5', '--disc-prob', prob,
                            '--unary-prob', prob, '--format', 'json')
        assert code == 0
        assert len(read_json_corpus(out)) == 2


# (bad bytes, offset of the byte that is not UTF-8) for each kind of file
_NOT_UTF8 = {
    'trees': (b'(S (N a\xff) (V b))\n', 7),
    'tokens': (b'the/D \xff/N\n', 6),
    'manifest': (b'{\xff}', 1),
    'model': (b'{"kind": "\xff"}', 10),
    'rules': (b'S left-to-right \xff\n', 16),
}


@pytest.mark.parametrize('case, kind', [
    ('convert', 'trees'), ('convert_stdin', 'trees'), ('check', 'trees'),
    ('train', 'trees'), ('eval_gold', 'trees'), ('eval_pred', 'trees'),
    ('parse', 'tokens'), ('parse_stdin', 'tokens'),
    ('parse_manifest.json', 'manifest'), ('parse_parser.json', 'model'),
    ('parse_labeler.json', 'model'), ('parse_unary.json', 'model'),
    ('convert_rules', 'rules'), ('train_rules', 'rules'),
])
def test_input_that_is_not_utf8_is_an_error(
        tmp_path, capsys, monkeypatch, toy_file, case, kind):
    data, offset = _NOT_UTF8[kind]
    command, _, what = case.partition('_')
    where = tmp_path / 'bad'
    if what == 'stdin':
        # as the interpreter sets up stdin in a UTF-8 or C locale
        monkeypatch.setattr('sys.stdin', io.TextIOWrapper(
            io.BytesIO(data), encoding='utf-8', errors='surrogateescape'))
        where = '-'
    if command == 'parse':
        bundle = _train(tmp_path, capsys, toy_file)
        if what.endswith('.json'):
            where = bundle / what
        tokens = tmp_path / 'tokens.txt'
        tokens.write_text('the/D horse/N chases/V\n')
        argv = ['parse', '-m', bundle,
                '-i', where if kind == 'tokens' else tokens]
    elif command == 'eval':
        argv = ['eval', *([toy_file, where] if what == 'pred'
                          else [where, toy_file])]
    elif what == 'rules':
        argv = [command, '-i', toy_file, '--head-rules', where]
    else:
        argv = [command, '-i', where]
    if command == 'train':
        argv += ['-m', tmp_path / 'm']
    if where != '-':
        where.write_bytes(data)
    code, _, err = _run(capsys, *map(str, argv))
    assert code == 1
    assert err == (f'error: {where}: not UTF-8: byte 0xff '
                   f'at offset {offset}\n')


@pytest.mark.parametrize('kind, name, read, error', [
    ('trees', 'bad', cli._read_input, TreebankFormatError),
    ('manifest', 'manifest.json',
     lambda path: cli._load_bundle(os.path.dirname(path), True),
     ModelFormatError),
    ('model', 'bad', LinearModel.load, ModelFormatError),
    ('rules', 'bad', cli._resolve_rules, HeadRuleError),
    ('rules', 'bad', load_rules, HeadRuleError),
])
def test_not_utf8_error_types(tmp_path, kind, name, read, error):
    data, offset = _NOT_UTF8[kind]
    bad = tmp_path / name
    bad.write_bytes(data)
    with pytest.raises(error, match=f'{re.escape(str(bad))}: not UTF-8: '
                                    f'byte 0xff at offset {offset}$'):
        read(str(bad))


def test_zero_sentences_and_zero_epochs_are_valid(tmp_path, capsys,
                                                  toy_file):
    empty = tmp_path / 'empty.export'
    code, _, _ = _run(capsys, 'gen', '--kind', 'random', '-n', '0',
                      '--format', 'export', '-o', str(empty))
    assert code == 0
    assert empty.read_text() == '\n'
    code, _, _ = _run(capsys, 'train', '-i', toy_file, '-m',
                      str(tmp_path / 'm'), '--epochs', '0')
    assert code == 0


@pytest.mark.parametrize('fmt, write', [
    ('bracketed', write_bracketed), ('export', write_export),
    ('json', write_json_corpus)])
def test_check_and_convert_at_the_nesting_limit(tmp_path, capsys, fmt,
                                                 write):
    for depth, want in ((MAX_DEPTH, 0), (MAX_DEPTH + 1, 1)):
        path = tmp_path / f'deep{depth}.{fmt}'
        path.write_text(write([deep_tree(depth)]))
        for cmd in ('check', 'convert'):
            code, _, err = _run(capsys, cmd, '-i', str(path),
                                '-o', str(tmp_path / 'out'))
            assert code == want, err
            if want:
                assert err.startswith(f'error: {path}:')
                assert f'nesting deeper than {MAX_DEPTH}' in err


def test_pmap_forks_no_more_workers_than_items(monkeypatch):
    import multiprocessing
    sizes = []
    real = multiprocessing.get_context

    class Spy:
        def __init__(self, method):
            self.ctx = real(method)

        def Pool(self, processes):
            sizes.append(processes)
            return self.ctx.Pool(processes)

    monkeypatch.setattr(multiprocessing, 'get_context', Spy)
    assert cli._pmap(abs, [-1, -2], 4) == [1, 2]
    assert sizes == [2]
    assert cli._pmap(abs, [-1], 4) == [1]     # one item: no pool at all
    assert sizes == [2]
    assert cli._WORK is None


def test_convert_jobs_bracketed_identical(tmp_path, toy_file, capsys):
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'convert', '-i', toy_file, '--head-rules', 'toy')
    assert serial[0] == 0
    assert parallel == serial


def test_convert_jobs_export_identical(tmp_path, capsys):
    bank = _gen_bank(tmp_path, capsys, 'half.export', '--disc-prob', '0.5')
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'convert', '-i', bank)
    assert serial[0] == 0
    assert '12 sentences' in serial[2]
    assert parallel == serial


def test_convert_jobs_names_the_failing_sentence(tmp_path, capsys):
    bank = _gen_bank(tmp_path, capsys, 'disc.export', '--disc-prob', '1.0')
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'convert', '-i', bank, '--encoding', 'delta')
    assert serial[0] == 1
    assert serial[2].startswith('error: sentence 1: ')
    assert parallel == serial


def test_jobs_name_the_first_of_two_failing_sentences(tmp_path, capsys):
    # sentences 3 and 5 are discontinuous, which delta cannot encode
    cont = GenConfig(seed=3)
    disc = GenConfig(seed=3, discontinuity_probability=1.0)
    trees = [gen_ctree(disc if i in (3, 5) else cont, 6, index=i)
             for i in range(1, 7)]
    assert [is_continuous(t) for t in trees] == [
        True, True, False, True, False, True]
    bank = tmp_path / 'two_bad.export'
    bank.write_text(write_export(trees))
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'convert', '-i', str(bank), '--encoding', 'delta')
    assert serial == (1, None, 'error: sentence 3: delta encoding needs '
                               'a projective and nested tree\n')
    assert parallel == serial


# --- convert error precedence at any --jobs ---------------------------------
# read errors first, in file order; then encoding errors; then CoNLL
# refusals; the workers read, so the order must not depend on --jobs

def _convert_at_each_jobs(tmp_path, capsys, *argv):
    """(code, stdout, stderr) of convert argv, the same at --jobs 1, 2, 4."""
    runs = [_run(capsys, 'convert', *argv, '--jobs', jobs,
                 '-o', str(tmp_path / 'out.conll'))
            for jobs in ('1', '2', '4')]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert not (tmp_path / 'out.conll').exists()
    return runs[0]


def _trees(n, discontinuous=()):
    """n six-token trees; those numbered in `discontinuous` (from 1)
    cannot be delta-encoded."""
    cont = GenConfig(seed=3)
    disc = GenConfig(seed=3, discontinuity_probability=1.0)
    return [gen_ctree(disc if i in discontinuous else cont, 6, index=i)
            for i in range(1, n + 1)]


def _with_form(trees, i, form):
    """trees with the first form of tree i (from 1) replaced."""
    tree = trees[i - 1]
    tokens = (Token(1, form, tree.sentence.tokens[0].pos),
              *tree.sentence.tokens[1:])
    return trees[:i - 1] + [CTree(tree.root, Sentence(tokens))] + trees[i:]


def test_convert_reads_a_block_fault_before_a_later_unterminated_bos(
        tmp_path, capsys):
    lines = write_export(_trees(5)).split('\n')
    bad = lines.index('#BOS 3') + 1          # block 3's first token
    lines[bad] = lines[bad].rsplit('\t', 1)[0] + '\t777'
    bank = tmp_path / 'dangling.export'
    bank.write_text('\n'.join(lines) + '#BOS 6\nw1\tX\t--\t--\t0\n')
    assert _convert_at_each_jobs(tmp_path, capsys, '-i', str(bank)) == (
        1, '', f'error: {bank}:{bad + 1}: dangling parent pointer 777\n')


def test_convert_read_fault_beats_an_earlier_encoding_error(
        tmp_path, capsys):
    lines = write_export(_trees(6, discontinuous=(2,))).split('\n')
    short = lines.index('#BOS 5') + 1
    lines.insert(short, 'short\tX')
    bank = tmp_path / 'short.export'
    bank.write_text('\n'.join(lines))
    assert _convert_at_each_jobs(
        tmp_path, capsys, '-i', str(bank), '--encoding', 'delta') == (
        1, '', f'error: {bank}:{short + 1}: short token line\n')


def test_convert_encoding_error_beats_an_earlier_conll_refusal(
        tmp_path, capsys):
    trees = _with_form(_trees(6, discontinuous=(4,)), 2, 'a\tb')
    bank = tmp_path / 'tab.json'
    bank.write_text(write_json_corpus(trees))
    assert _convert_at_each_jobs(
        tmp_path, capsys, '-i', str(bank), '--encoding', 'delta') == (
        1, '', 'error: sentence 4: delta encoding needs a projective and '
               'nested tree\n')


@pytest.mark.parametrize('fmt, write, breaks', [
    ('brackets', write_bracketed, 'unbalanced )'),
    ('json', write_json_corpus, 'bad json: '),
])
def test_convert_read_fault_on_line_9_beats_the_later_steps(
        tmp_path, capsys, fmt, write, breaks):
    trees = _trees(12)
    if fmt == 'json':
        # json can also carry a delta encoding error (tree 4) and a form
        # the CoNLL writer refuses (tree 2)
        trees = _with_form(_trees(12, discontinuous=(4,)), 2, 'a\tb')
    lines = write(trees).split('\n')
    lines[8] += ')' if fmt == 'brackets' else ']'
    bank = tmp_path / f'line9.{fmt}'
    bank.write_text('\n'.join(lines))
    code, out, err = _convert_at_each_jobs(
        tmp_path, capsys, '-i', str(bank), '--encoding', 'delta')
    assert (code, out) == (1, '')
    assert err.startswith(f'error: {bank}:9: {breaks}')


# --- check at any --jobs -----------------------------------------------------
# check splits its input like convert: read errors first, in file order,
# then the split's fault, then lexicalization errors, then round-trip
# errors, each by tree and without a "sentence N:" prefix

def _check_at_each_jobs(tmp_path, capsys, *argv):
    """(code, stdout, stderr) of check argv, the same at --jobs 1, 2, 4;
    stdout is the report's JSON."""
    runs = []
    for jobs in ('1', '2', '4'):
        out = tmp_path / 'check.json'
        code, stdout, err = _run(capsys, 'check', *argv, '--jobs', jobs,
                                 '-o', str(out))
        assert stdout == ''
        assert cli._WORK is None
        runs.append((code, out.read_text() if out.exists() else '', err))
        out.unlink(missing_ok=True)
    assert runs[1] == runs[0] and runs[2] == runs[0]
    return runs[0]


def _numbered_bank(tmp_path, n, write=write_export, name='bank.export'):
    """n six-token trees, the first form of tree i being t<i>."""
    trees = _trees(n)
    for i in range(1, n + 1):
        trees = _with_form(trees, i, f't{i}')
    bank = tmp_path / name
    bank.write_text(write(trees))
    return bank


def _tree_number(tree):
    """i of a tree of _numbered_bank, lexicalized or raw."""
    if isinstance(tree, CTree):
        return int(tree.sentence.tokens[0].form[1:])
    while not isinstance(tree, Token):
        tree = tree.children[0]
    return int(tree.form[1:])


@pytest.mark.parametrize('fmt, write', [
    ('export', write_export), ('brackets', write_bracketed),
    ('json', write_json_corpus)])
def test_check_jobs_identical_on_a_clean_bank(tmp_path, capsys, fmt, write):
    bank = _numbered_bank(tmp_path, 12, write, f'clean.{fmt}')
    code, out, err = _check_at_each_jobs(tmp_path, capsys, '-i', str(bank))
    assert code == 0
    assert json.loads(out)['trees'] == 12
    assert err == '# 12 trees checked, no violations\n'


def test_check_jobs_identical_past_ten_violations(tmp_path, capsys,
                                                  monkeypatch):
    # odd trees fail the roundtrip, every third the equivalence
    real = cli.roundtrip_check

    def flawed(tree):
        report = real(tree)
        i = _tree_number(tree)
        if i % 2:
            report.roundtrip_equal = False
        if i % 3 == 0:
            report.continuous = not report.continuous
        return report

    monkeypatch.setattr(cli, 'roundtrip_check', flawed)
    bank = _numbered_bank(tmp_path, 30)
    code, out, err = _check_at_each_jobs(tmp_path, capsys, '-i', str(bank))
    assert code == 2
    assert json.loads(out) == {
        'trees': 30, 'roundtrip_failures': 15, 'equivalence_failures': 10,
        'continuous': 20, 'projective': 30, 'nested': 30, 'binary': 3,
        'strictly_ordered': 3}
    assert err == ('# violations in sentences: '
                   '1, 3, 5, 6, 7, 9, 11, 12, 13, 15 ...\n')


def test_check_shows_ten_violations_without_a_cut(tmp_path, capsys,
                                                  monkeypatch):
    real = cli.roundtrip_check

    def flawed(tree):
        report = real(tree)
        report.roundtrip_equal = _tree_number(tree) > 10
        return report

    monkeypatch.setattr(cli, 'roundtrip_check', flawed)
    bank = _numbered_bank(tmp_path, 12)
    code, _, err = _check_at_each_jobs(tmp_path, capsys, '-i', str(bank))
    assert code == 2
    assert err == '# violations in sentences: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10\n'


def _failing_at(monkeypatch, name, bad, message):
    """cli.<name> raising TreeStructureError(message) on tree `bad`."""
    real = getattr(cli, name)

    def failing(tree, *args):
        if _tree_number(tree) == bad:
            raise TreeStructureError(message)
        return real(tree, *args)

    monkeypatch.setattr(cli, name, failing)


def test_check_errors_carry_no_sentence_prefix(tmp_path, capsys,
                                               monkeypatch):
    bank = _numbered_bank(tmp_path, 6, write_bracketed, 'bank.brackets')
    _failing_at(monkeypatch, 'roundtrip_check', 5, 'audit 5')
    _failing_at(monkeypatch, 'lexicalize', 4, 'lexicalize 4')
    # a lexicalization error beats an earlier tree's round-trip error
    assert _check_at_each_jobs(tmp_path, capsys, '-i', str(bank)) == (
        1, '', 'error: lexicalize 4\n')
    monkeypatch.undo()
    _failing_at(monkeypatch, 'roundtrip_check', 5, 'audit 5')
    _failing_at(monkeypatch, 'roundtrip_check', 3, 'audit 3')
    assert _check_at_each_jobs(tmp_path, capsys, '-i', str(bank)) == (
        1, '', 'error: audit 3\n')


def test_check_read_fault_beats_an_earlier_check_error(tmp_path, capsys,
                                                        monkeypatch):
    lines = _numbered_bank(tmp_path, 6).read_text().split('\n')
    short = lines.index('#BOS 5') + 1
    lines.insert(short, 'short\tX')
    bank = tmp_path / 'short.export'
    bank.write_text('\n'.join(lines))
    _failing_at(monkeypatch, 'lexicalize', 1, 'lexicalize 1')
    _failing_at(monkeypatch, 'roundtrip_check', 2, 'audit 2')
    assert _check_at_each_jobs(tmp_path, capsys, '-i', str(bank)) == (
        1, '', f'error: {bank}:{short + 1}: short token line\n')


def test_check_reports_the_split_fault_after_every_unit(tmp_path, capsys,
                                                        monkeypatch):
    text = _numbered_bank(tmp_path, 5).read_text()
    bank = tmp_path / 'open.export'
    bank.write_text(text + '#BOS 6\nw1\tX\t--\t--\t0\n')
    bos = text.count('\n') + 1
    _failing_at(monkeypatch, 'lexicalize', 2, 'lexicalize 2')
    # the split's fault beats every lexicalization and round-trip error
    assert _check_at_each_jobs(tmp_path, capsys, '-i', str(bank)) == (
        1, '', f'error: {bank}:{bos}: unterminated #BOS block\n')
    # but not a read error in a unit before it
    lines = text.split('\n')
    bad = lines.index('#BOS 3') + 1
    lines[bad] = lines[bad].rsplit('\t', 1)[0] + '\t777'
    bank.write_text('\n'.join(lines) + '#BOS 6\nw1\tX\t--\t--\t0\n')
    assert _check_at_each_jobs(tmp_path, capsys, '-i', str(bank)) == (
        1, '', f'error: {bank}:{bad + 1}: dangling parent pointer 777\n')


def _refuse_whole_file_reads(monkeypatch):
    """Make every whole-file reader of treebank_io fail."""
    def whole_file(*args, **kwargs):
        raise AssertionError('read the whole file at once')

    for name in ('read_bracketed', 'read_export', 'read_json_corpus',
                 'read_conll', 'read_sentences'):
        monkeypatch.setattr(f'hodt.treebank_io.{name}', whole_file)


def _spy(monkeypatch, name):
    """The list of units that the per-unit parse `name` is called on,
    where cli finds it: a tree format's parse in TREE_FORMATS, any other
    as cli.<name>."""
    calls = []
    fmt = next((fmt for fmt, entry in TREE_FORMATS.items()
                if entry.parse.__name__ == name), None)
    real = getattr(cli, name) if fmt is None else TREE_FORMATS[fmt].parse

    def spy(unit, path=None):
        calls.append(unit)
        return real(unit, path)

    if fmt is None:
        monkeypatch.setattr(cli, name, spy)
    else:
        monkeypatch.setitem(TREE_FORMATS, fmt,
                            TREE_FORMATS[fmt]._replace(parse=spy))
    return calls


@pytest.mark.parametrize('cmd', ['convert', 'check', 'train', 'eval'])
@pytest.mark.parametrize('fmt, write, parse_name', [
    ('export', write_export, 'parse_export'),
    ('brackets', write_bracketed, 'parse_bracketed'),
    ('json', write_json_corpus, 'parse_json')])
def test_commands_parse_each_unit_once_and_read_no_whole_file(
        tmp_path, capsys, monkeypatch, cmd, fmt, write, parse_name):
    _refuse_whole_file_reads(monkeypatch)
    calls = _spy(monkeypatch, parse_name)
    bank = str(_numbered_bank(tmp_path, 7, write, f'bank.{fmt}'))
    argv = {'convert': ['convert', '-i', bank, '-o', str(tmp_path / 'out')],
            'check': ['check', '-i', bank, '-o', str(tmp_path / 'out')],
            'train': ['train', '-i', bank, '-m', str(tmp_path / 'm'),
                      '--epochs', '1'],
            'eval': ['eval', bank, bank]}[cmd]
    code, _, err = _run(capsys, *argv)
    assert code == 0, err
    # eval reads the bank twice, as gold and as predictions
    assert len(calls) == 7 * (2 if cmd == 'eval' else 1)
    assert len({repr(unit) for unit in calls}) == 7


def test_parse_parses_each_sentence_once_and_reads_no_whole_file(
        tmp_path, toy_bundle, capsys, monkeypatch):
    _refuse_whole_file_reads(monkeypatch)
    calls = _spy(monkeypatch, 'parse_sentence')
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D dog/N\nsees/V\n\nthe/D cat/N\n')
    code, out, err = _run(capsys, 'parse', '-m', str(toy_bundle),
                          '-i', str(sents))
    assert code == 0, err
    assert out.count('\n') == 3
    assert calls == [(False, [(1, 'the/D dog/N')]),
                     (False, [(2, 'sees/V')]),
                     (False, [(4, 'the/D cat/N')])]


def test_check_refuses_an_inner_label_less_bracket(tmp_path, capsys):
    bank = tmp_path / 'inner.brackets'
    bank.write_text('(S (A a) (B b))\n(S (A a) ( (B b)))\n')
    assert _run(capsys, 'check', '-i', str(bank)) == (
        1, '', f'error: {bank}:2: label-less bracket inside a tree\n')


def test_parse_jobs_continuous_identical(tmp_path, toy_file, capsys):
    bundle = _train(tmp_path, capsys, toy_file)
    code, out, _ = _run(capsys, 'convert', '-i', toy_file,
                        '--head-rules', 'toy')
    assert code == 0
    tokens = tmp_path / 'tokens.conll'
    tokens.write_text(out)
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'parse', '-m', str(bundle), '-i', str(tokens))
    assert serial[0] == 0
    assert 'parsed 30 sentences' in serial[2]
    assert parallel == serial


def test_parse_jobs_discontinuous_identical(tmp_path, capsys):
    bank = _gen_bank(tmp_path, capsys, 'half.export', '--disc-prob', '0.5')
    bundle = tmp_path / 'disc.bundle'
    code, _, err = _run(capsys, 'train', '-i', bank, '-m', str(bundle),
                        '--mode', 'discontinuous', '--epochs', '2')
    assert code == 0, err
    code, out, _ = _run(capsys, 'convert', '-i', bank)
    assert code == 0
    tokens = tmp_path / 'tokens.conll'
    tokens.write_text(out)
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'parse', '-m', str(bundle), '-i', str(tokens))
    assert serial[0] == 0
    assert serial[1].startswith(b'#BOS 1')
    assert parallel == serial


def test_bracketed_output_refuses_a_discontinuous_tree(tmp_path, capsys):
    out = tmp_path / 'out'
    refusal = (f'error: {out}: tree 1 is discontinuous; write it in the '
               f'export format\n')
    assert _run(capsys, 'gen', '--kind', 'random', '--disc-prob', '1',
                '--format', 'bracketed', '-o', str(out)) == (1, '', refusal)
    assert not out.exists()
    bank = _gen_bank(tmp_path, capsys, 'disc.export', '--disc-prob', '1')
    bundle = tmp_path / 'disc.bundle'
    code, _, err = _run(capsys, 'train', '-i', bank, '-m', str(bundle),
                        '--mode', 'discontinuous', '--epochs', '2')
    assert code == 0, err
    code, out, _ = _run(capsys, 'convert', '-i', bank)
    assert code == 0
    tokens = tmp_path / 'tokens.conll'
    tokens.write_text(out)
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'parse', '-m', str(bundle), '-i', str(tokens),
        '--format', 'bracketed')
    assert serial == (1, None, refusal)
    assert parallel == serial


def test_parse_jobs_above_sentence_count(tmp_path, toy_file, capsys):
    bundle = _train(tmp_path, capsys, toy_file)
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D dog/N sees/V a/D cat/N\nthe/D bird/N sees/V\n')
    runs = []
    for jobs in ('1', '4'):
        code, out, err = _run(capsys, 'parse', '-m', str(bundle),
                              '-i', str(sents), '--jobs', jobs)
        assert code == 0, err
        runs.append((out, err))
    assert runs[0] == runs[1]


# --- readers and bundles at the boundary -----------------------------------

def test_convert_export_rejects_bracketed_text(toy_file, capsys):
    for cmd in ('convert', 'check'):
        code, out, err = _run(capsys, cmd, '--format', 'export',
                              '-i', toy_file)
        assert code == 1
        assert out == ''
        assert err.startswith(f'error: {toy_file}:1: ')


@pytest.mark.parametrize('line', [
    '{"x": 1}', '[1]',
    '{"tokens": [["a", "X", null, null]], "root": {"label": "X", "head": 2}}',
    '{"tokens": [["a", "X", null, null]], "root": '
    '{"label": "S", "head": 1, "children": []}}',
])
def test_check_json_rejects_malformed_lines(tmp_path, capsys, line):
    bank = tmp_path / 'bank.json'
    bank.write_text(line + '\n')
    code, out, err = _run(capsys, 'check', '--format', 'json',
                          '-i', str(bank))
    assert code == 1
    assert out == ''
    assert err.startswith(f'error: {bank}:1: ')
    assert 'Traceback' not in err


@pytest.fixture(scope='module')
def toy_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp('bundle')
    bank = root / 'toy.brackets'
    assert main(['gen', '--kind', 'toy', '-n', '30', '--seed', '1',
                 '-o', str(bank)]) == 0
    bundle = root / 'bundle'
    assert main(['train', '-i', str(bank), '-m', str(bundle),
                 '--head-rules', 'toy', '--epochs', '2']) == 0
    return bundle


DROP = object()


def _second_key_repeats_the_first(text):
    keys = np.frombuffer(base64.b64decode(text), dtype='<i8').copy()
    keys[1] = keys[0]
    return base64.b64encode(keys.tobytes()).decode('ascii')


# file, key path (empty: the whole file), new value or a function of the
# old one; from_json's own cases are in test_perceptron
CORRUPTIONS = {
    'manifest_list': ('manifest.json', [], []),
    'dim_bits_too_large': ('parser.json', ['dim_bits'], 40),
    'weight_value_truncated': ('parser.json', ['values'],
                               lambda text: text[:-4]),
    'weight_index_repeated': ('parser.json', ['keys'],
                              _second_key_repeats_the_first),
    'projective_missing': ('parser.json', ['meta', 'projective'], DROP),
    'projective_string': ('parser.json', ['meta', 'projective'], 'yes'),
    'meta_missing': ('unary.json', ['meta'], DROP),
    'labels_missing': ('labeler.json', ['meta', 'labels'], DROP),
    'labels_empty': ('labeler.json', ['meta', 'labels'], []),
    'labels_not_strings': ('labeler.json', ['meta', 'labels'], [1, 2]),
    'labels_string': ('labeler.json', ['meta', 'labels'], 'NP'),
    'classes_cut': ('unary.json', ['meta', 'classes'], ['NULL']),
    'classes_missing': ('unary.json', ['meta', 'classes'], DROP),
    'classes_empty': ('unary.json', ['meta', 'classes'], []),
    'classes_without_null': ('unary.json', ['meta', 'classes'],
                             ['ADVP', 'NP', 'VP', 'NULL']),
    'classes_not_strings': ('unary.json', ['meta', 'classes'],
                            ['NULL', 1, 2, 3]),
    'allowed_missing': ('unary.json', ['meta', 'allowed'], DROP),
    'allowed_list': ('unary.json', ['meta', 'allowed'], [[1]]),
    'allowed_id_too_large': ('unary.json', ['meta', 'allowed', 'N'], [4]),
    'allowed_id_negative': ('unary.json', ['meta', 'allowed', 'N'], [-1]),
    'allowed_id_string': ('unary.json', ['meta', 'allowed', 'N'], ['2']),
    'allowed_id_bool': ('unary.json', ['meta', 'allowed', 'N'], [True]),
    'allowed_ids_not_list': ('unary.json', ['meta', 'allowed', 'N'], 2),
}


@pytest.mark.parametrize('corruption', sorted(CORRUPTIONS))
def test_parse_rejects_corrupted_bundle(tmp_path, toy_bundle, capsys,
                                        corruption):
    name, keys, value = CORRUPTIONS[corruption]
    bundle = tmp_path / 'bundle'
    shutil.copytree(toy_bundle, bundle)
    obj = json.loads((bundle / name).read_text())
    target = obj
    for key in keys[:-1]:
        target = target[key]
    if not keys:
        obj = value
    elif value is DROP:
        del target[keys[-1]]
    elif callable(value):
        target[keys[-1]] = value(target[keys[-1]])
    else:
        target[keys[-1]] = value
    (bundle / name).write_text(json.dumps(obj))
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D dog/N sees/V a/D cat/N\n')
    code, out, err = _run(capsys, 'parse', '-m', str(bundle),
                          '-i', str(sents))
    assert code == 1
    assert out == ''
    assert err.startswith('error: ') and name in err
    assert 'Traceback' not in err


def test_parse_ignores_an_old_label_pruning_table(tmp_path, toy_bundle,
                                                  capsys):
    # bundles written before label pruning was removed carried a
    # meta.prune table in labeler.json; a labeler that carries one must
    # parse exactly as one without it
    bundle = tmp_path / 'bundle'
    shutil.copytree(toy_bundle, bundle)
    obj = json.loads((bundle / 'labeler.json').read_text())
    assert 'prune' not in obj['meta']
    obj['meta']['prune'] = {'<root>|R': [0], 'V|L': [1, 2]}
    (bundle / 'labeler.json').write_text(json.dumps(obj, sort_keys=True))
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D dog/N sees/V a/D cat/N\nbird/N sees/V\n')
    runs = [_run(capsys, 'parse', '-m', str(b), '-i', str(sents))
            for b in (toy_bundle, bundle)]
    assert runs[0][0] == 0 and runs[0][1].count('\n') == 2
    assert runs[0] == runs[1]


# parse input, output format, and the kind and value of the field the
# writer refuses
_ROW2 = '2\tsees\t_\tV\tV\t_\n'
UNWRITABLE = {
    'space_in_form': ('1\tNew York\t_\tN\tN\t_\n' + _ROW2, 'bracketed',
                      'form', 'New York'),
    'space_in_form_export': ('1\tNew York\t_\tN\tN\t_\n' + _ROW2,
                             'export', 'form', 'New York'),
    'space_in_tag': ('1\tdog\t_\tN N\tN N\t_\n' + _ROW2, 'bracketed',
                     'tag', 'N N'),
    'space_in_morph': ('1\tdog\t_\tN\tN\tP l\n' + _ROW2, 'export',
                       'morph', 'P l'),
    'empty_form': ('1\t\t_\tN\tN\t_\n' + _ROW2, 'export', 'form', ''),
    'paren_in_form': ('a(b/N sees/V\n', 'bracketed', 'form', 'a(b'),
    'paren_in_tag': ('dog/N) sees/V\n', 'bracketed', 'tag', 'N)'),
    'bos_form': ('#BOS/N sees/V\n', 'export', 'form', '#BOS'),
    'eos_form': ('#EOS/N sees/V\n', 'export', 'form', '#EOS'),
    'format_form': ('#FORMAT/N sees/V\n', 'export', 'form', '#FORMAT'),
    'node_id_form': ('#500/N sees/V\n', 'export', 'form', '#500'),
}


@pytest.mark.parametrize('case', sorted(UNWRITABLE))
def test_parse_refuses_trees_its_writer_cannot_round_trip(
        tmp_path, toy_bundle, capsys, case):
    text, fmt, kind, value = UNWRITABLE[case]
    # a second, writable sentence, so that --jobs 2 starts two workers
    text += '\n1\tsees\t_\tV\tV\t_\n' if '\t' in text else 'sees/V\n'
    sents = tmp_path / 'in.txt'
    sents.write_text(text)
    out = tmp_path / 'out'
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'parse', '-m', str(toy_bundle), '-i', str(sents),
        '--format', fmt)
    assert serial == (1, None, f'error: {out}: tree 1: {kind} {value!r} '
                               f'cannot be written in the {fmt} format; '
                               f'write it with --format json\n')
    assert parallel == serial
    code, _, _ = _run(capsys, 'parse', '-m', str(toy_bundle),
                      '-i', str(sents), '-o', str(out), '--format', 'json')
    assert code == 0
    tree, _ = read_json_corpus(out.read_text())
    tok = tree.sentence.token(1)
    assert value == {'form': tok.form, 'morph': tok.morph,
                     'tag': spine(tree, 1)[-1].label}[kind]


def test_parse_featurizes_each_sentence_once(toy_bundle, hash_calls):
    manifest, parser, labeler, unary = cli._load_bundle(
        str(toy_bundle), want_unaries=True)
    hash_calls.clear()
    long = ' '.join(['the/D dog/N sees/V a/D cat/N'] * 8)
    for sentence in read_sentences(long + '\nbird/N sees/V\nsees/V\n'):
        n = len(sentence)
        cli._parse_one(sentence, parser, labeler, unary,
                       manifest['encoding'], True)
        # the parser hashes the 7n + 6 part strings of the sentence
        # first; the labeler hashes none, and the unary restorer hashes
        # its node features: O(n) strings in all, where hashing each
        # distinct arc string took about 15.7k at n = 40
        assert len(hash_calls[0]) == 7 * n + 6
        assert sum(len(texts) for texts in hash_calls) <= 40 * n
        # the digests of all n^2 candidate arcs, mixed once, and those
        # of the n chosen arcs for the labeler
        candidates, chosen = hash_calls.arcs
        assert len(candidates[0]) == n * n
        assert chosen[1] == list(range(1, n + 1))
        hash_calls.clear()


def _parse_with_bundle_format(tmp_path, toy_bundle, capsys, version):
    """(exit code, stdout, stderr) of a parse with the toy bundle whose
    manifest names bundle format version; asserts that it wrote no
    output file."""
    bundle = tmp_path / 'bundle'
    shutil.copytree(toy_bundle, bundle)
    manifest = json.loads((bundle / 'manifest.json').read_text())
    manifest['bundle'] = version
    (bundle / 'manifest.json').write_text(json.dumps(manifest))
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D dog/N sees/V a/D cat/N\n')
    out = tmp_path / 'out'
    run = _run(capsys, 'parse', '-m', str(bundle), '-i', str(sents),
               '-o', str(out))
    assert not out.exists()
    return run


def test_parse_refuses_a_bundle_1_model(tmp_path, toy_bundle, capsys):
    code, stdout, err = _parse_with_bundle_format(tmp_path, toy_bundle,
                                                  capsys, 1)
    assert (code, stdout) == (1, '')
    assert err == (f'error: {tmp_path / "bundle" / "manifest.json"}: bundle '
                   f'format 1 holds string-hashed features, which this '
                   f'version no longer builds; retrain the model with hodt '
                   f'train\n')


def test_parse_refuses_a_bundle_2_model(tmp_path, toy_bundle, capsys):
    code, stdout, err = _parse_with_bundle_format(tmp_path, toy_bundle,
                                                  capsys, 2)
    assert (code, stdout) == (1, '')
    assert err == (f'error: {tmp_path / "bundle" / "manifest.json"}: bundle '
                   f'format 2 stores its weights as [index, value] lists, '
                   f'which this version no longer reads; retrain the model '
                   f'with hodt train\n')


@pytest.mark.parametrize('version', [4, True, '3', [3]])
def test_parse_refuses_an_unknown_bundle_format(tmp_path, toy_bundle, capsys,
                                                version):
    code, stdout, err = _parse_with_bundle_format(tmp_path, toy_bundle,
                                                  capsys, version)
    assert (code, stdout) == (1, '')
    assert err == (f'error: {tmp_path / "bundle" / "manifest.json"}: '
                   f'unsupported bundle format {version!r}\n')


def test_trained_bundle_files_are_utf8_text(toy_bundle):
    # the benchmark's replay compares every bundle file as UTF-8 text
    names = os.listdir(toy_bundle)
    assert 'unary.json' in names
    for name in names:
        (toy_bundle / name).read_bytes().decode('utf-8', errors='strict')


# Runs hodt with the given arguments in a fresh process and prints its
# peak resident set size in kB (VmHWM, as the benchmark reads it).
_PEAK_OF_HODT = """
import sys
from hodt.cli import main
code = main(sys.argv[1:])
with open('/proc/self/status') as status:
    print(next(line.split()[1] for line in status
               if line.startswith('VmHWM:')))
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists('/proc/self/status'),
                    reason='reads VmHWM from /proc')
def test_parsing_a_300_token_sentence_stays_under_128_mib(tmp_path,
                                                          toy_bundle):
    # the candidate arcs' table is (n+1)^2 x 34 indices, 24.6 MB here,
    # and scoring gathers their weights in blocks of head rows; hashing
    # one string per distinct arc feature took the peak to about 195 MB
    sents = tmp_path / 'in.txt'
    sents.write_text(' '.join(['the/D dog/N sees/V a/D cat/N'] * 60) + '\n')
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get('PYTHONPATH')))))
    done = subprocess.run(
        [sys.executable, '-c', _PEAK_OF_HODT, 'parse', '-m', str(toy_bundle),
         '-i', str(sents), '-o', str(tmp_path / 'out')],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 128 * 1024


def _fail_one_token_sentences(monkeypatch):
    """Make cli._parse_one fail with 'no parse' on one-token sentences."""
    real = cli._parse_one

    def failing(sentence, *args, **kwargs):
        if len(sentence) == 1:
            raise cli.ToolkitError('no parse')
        return real(sentence, *args, **kwargs)

    monkeypatch.setattr(cli, '_parse_one', failing)


def test_parse_errors_name_the_sentence(tmp_path, toy_bundle, capsys,
                                        monkeypatch):
    _fail_one_token_sentences(monkeypatch)
    sents = tmp_path / 'in.txt'
    sents.write_text('the/D dog/N\nsees/V\nthe/D cat/N\nbird/N\n')
    serial, parallel = _serial_and_parallel(
        tmp_path, capsys, 'parse', '-m', str(toy_bundle), '-i', str(sents))
    assert serial == (1, None, 'error: sentence 2: no parse\n')
    assert parallel == serial


def test_parse_error_beats_an_earlier_writer_refusal(tmp_path, toy_bundle,
                                                     capsys, monkeypatch):
    # the pipeline runs on every sentence before any is rendered, so its
    # error in sentence 3 comes before the writer's refusal of sentence 1
    _fail_one_token_sentences(monkeypatch)
    sents = tmp_path / 'in.txt'
    sents.write_text('a(b/N sees/V\nthe/D dog/N\nsees/V\nthe/D cat/N\n')
    argv = ('parse', '-m', str(toy_bundle), '-i', str(sents),
            '--format', 'bracketed')
    serial, parallel = _serial_and_parallel(tmp_path, capsys, *argv)
    assert serial == (1, None, 'error: sentence 3: no parse\n')
    assert parallel == serial
    monkeypatch.undo()
    serial, parallel = _serial_and_parallel(tmp_path, capsys, *argv)
    assert serial == (1, None, f"error: {tmp_path / 'out'}: tree 1: form "
                               f"'a(b' cannot be written in the bracketed "
                               f"format; write it with --format json\n")
    assert parallel == serial


@pytest.mark.parametrize('text,message', [
    ('1\tthe\t_\tD\tD\t_\n2\tdog\t_\tN\n',
     '2: token row needs at least 6 columns, got 4'),
    ('1\tthe\t_\tD\tD\t_\n5\tdog\t_\tN\tN\t_\n',
     "2: token id '5', expected 2"),
    ('the/D dog/N\nthe dog/N\n', "2: expected form/POS tokens, got 'the'"),
    # an empty form or POS; the token splits at its last /
    ('/NN a/DT\n', "1: expected form/POS tokens, got '/NN'"),
    ('the/D a/\n', "1: expected form/POS tokens, got 'a/'"),
    ('the/D\na/NN/ b/N\n', "2: expected form/POS tokens, got 'a/NN/'"),
    ('the/D\nb/N /\n', "2: expected form/POS tokens, got '/'"),
])
def test_parse_input_errors_name_the_line(tmp_path, toy_bundle, capsys,
                                          text, message):
    sents = tmp_path / 'in.txt'
    sents.write_text(text)
    code, out, err = _run(capsys, 'parse', '-m', str(toy_bundle),
                          '-i', str(sents))
    assert code == 1
    assert out == ''
    assert err == f'error: {sents}:{message}\n'


def test_parse_splits_a_token_at_its_last_slash(tmp_path, toy_bundle,
                                                 capsys):
    sents = tmp_path / 'in.txt'
    sents.write_text('a//N b/c/V\n')
    code, out, err = _run(capsys, 'parse', '-m', str(toy_bundle),
                          '-i', str(sents), '--format', 'json')
    assert code == 0, err
    (tree,) = read_json_corpus(out)
    assert [(t.form, t.pos) for t in tree.sentence] == [
        ('a/', 'N'), ('b/c', 'V')]


@pytest.mark.parametrize('case', [
    'convert', 'check', 'train', 'parse', 'eval_gold', 'eval_pred',
    'convert_stdin', 'parse_stdin'])
def test_empty_input_names_its_file(tmp_path, toy_bundle, toy_file, capsys,
                                    monkeypatch, case):
    command, _, side = case.partition('_')
    empty = tmp_path / 'empty.txt'
    empty.write_text('\n \n\t\n')
    if side == 'stdin':
        monkeypatch.setattr('sys.stdin', io.TextIOWrapper(
            io.BytesIO(b'\n\n')))
        empty = '-'
    argv = {'convert': ['convert', '-i', empty],
            'check': ['check', '-i', empty],
            'train': ['train', '-i', empty, '-m', tmp_path / 'm'],
            'parse': ['parse', '-m', toy_bundle, '-i', empty],
            'eval': ['eval', *((toy_file, empty) if side == 'pred'
                               else (empty, toy_file))]}[command]
    assert _run(capsys, *map(str, argv)) == (
        1, '', f'error: {empty}: empty input\n')


# --- error precedence of parse, train and eval ------------------------------
# as for convert and check: read errors in file order, then the split's
# fault, then each later stage's errors by unit

def test_parse_read_error_beats_an_earlier_parse_error(
        tmp_path, toy_bundle, capsys, monkeypatch):
    real = cli._parse_one

    def failing(sentence, *args, **kwargs):
        if sentence.tokens[0].form == 'bad':
            raise cli.ToolkitError('no parse')
        return real(sentence, *args, **kwargs)

    monkeypatch.setattr(cli, '_parse_one', failing)
    sents = tmp_path / 'in.txt'
    sents.write_text('bad/D dog/N\nsees/V\nthe cat/N\nbad/N\n')
    runs = [_run(capsys, 'parse', '-m', str(toy_bundle), '-i', str(sents),
                 '--jobs', jobs) for jobs in ('1', '2', '4')]
    assert runs == [(1, '', f"error: {sents}:3: expected form/POS tokens, "
                            f"got 'the'\n")] * 3
    sents.write_text('the/D dog/N\nsees/V\nbad/D cat/N\nbad/N\n')
    runs = [_run(capsys, 'parse', '-m', str(toy_bundle), '-i', str(sents),
                 '--jobs', jobs) for jobs in ('1', '2', '4')]
    assert runs == [(1, '', 'error: sentence 3: no parse\n')] * 3


def test_train_lexicalization_error_beats_an_earlier_encoding_error(
        tmp_path, capsys, monkeypatch):
    # tree 2 is discontinuous, which delta cannot encode
    trees = _trees(6, discontinuous=(2,))
    for i in range(1, 7):
        trees = _with_form(trees, i, f't{i}')
    bank = tmp_path / 'bank.export'
    bank.write_text(write_export(trees))
    argv = ['train', '-i', str(bank), '-m', str(tmp_path / 'm'),
            '--encoding', 'delta', '--epochs', '1']
    assert _run(capsys, *argv) == (
        1, '', 'error: sentence 2: delta encoding needs a projective and '
               'nested tree\n')
    _failing_at(monkeypatch, 'lexicalize', 4, 'lexicalize 4')
    assert _run(capsys, *argv) == (1, '', 'error: lexicalize 4\n')
    assert not (tmp_path / 'm').exists()


def test_train_read_error_beats_an_earlier_lexicalization_error(
        tmp_path, capsys, monkeypatch):
    lines = _numbered_bank(tmp_path, 6).read_text().split('\n')
    short = lines.index('#BOS 5') + 1
    lines.insert(short, 'short\tX')
    bank = tmp_path / 'short.export'
    bank.write_text('\n'.join(lines))
    _failing_at(monkeypatch, 'lexicalize', 1, 'lexicalize 1')
    assert _run(capsys, 'train', '-i', str(bank),
                '-m', str(tmp_path / 'm')) == (
        1, '', f'error: {bank}:{short + 1}: short token line\n')


def test_eval_gold_read_error_beats_a_pred_read_error(tmp_path, capsys,
                                                      monkeypatch):
    gold = _numbered_bank(tmp_path, 4, write_bracketed, 'gold.brackets')
    pred = _numbered_bank(tmp_path, 4, write_bracketed, 'pred.brackets')
    pred.write_text('(S (A a)\n' + pred.read_text())
    assert _run(capsys, 'eval', str(gold), str(pred)) == (
        1, '', f'error: {pred}:1: unbalanced (\n')
    gold.write_text(gold.read_text() + '(S (A a)))\n')
    assert _run(capsys, 'eval', str(gold), str(pred)) == (
        1, '', f'error: {gold}:5: unbalanced )\n')
    # and a gold lexicalization error beats a pred read error
    gold.write_text(gold.read_text().rsplit('\n', 2)[0] + '\n')
    _failing_at(monkeypatch, 'lexicalize', 3, 'lexicalize 3')
    assert _run(capsys, 'eval', str(gold), str(pred)) == (
        1, '', 'error: lexicalize 3\n')
