import pytest

from hodt.corpus_gen import GenConfig, gen_ctree
from hodt.encoding import ROOT_LABEL, encode_direct
from hodt.errors import TreebankFormatError
from hodt.headrules import lexicalize, load_rules
from hodt.reduction import ctree_to_dtree
from hodt.treebank_io import (
    MAX_DEPTH, read_bracketed, read_conll, read_export, read_json_corpus,
    read_sentences, write_bracketed, write_conll, write_export,
    write_json_corpus)
from hodt.trees import RawNode, Sentence, Token, unlexicalize
from tests.conftest import deep_tree

ENGLISH_LINE = ('(S (NP (DT The) (NN public)) (VP (VBZ is) (ADVP (RB still))'
                ' (ADJP (JJ cautious))) (. .))')

GERMAN_RULES = load_rules([
    'default right',
    'VROOT left-to-right S',
    'S left-to-right VVFIN',
    'NP right-to-left NN NP',
])


def _canonical(raw):
    """format-neutral shape: children ordered by leftmost position."""
    if isinstance(raw, Token):
        return ('leaf', raw.position, raw.form, raw.pos, raw.lemma, raw.morph)
    kids = sorted((_canonical(c) for c in raw.children), key=lambda t: t[1])
    return ('node', kids[0][1], raw.label, tuple(kids))


def test_read_bracketed_english_shape():
    (tree,) = read_bracketed(ENGLISH_LINE)
    assert tree == RawNode('S', (
        RawNode('NP', (Token(1, 'The', 'DT'), Token(2, 'public', 'NN'))),
        RawNode('VP', (Token(3, 'is', 'VBZ'),
                       RawNode('ADVP', (Token(4, 'still', 'RB'),)),
                       RawNode('ADJP', (Token(5, 'cautious', 'JJ'),)))),
        Token(6, '.', '.')))


def test_read_bracketed_wrapper():
    (tree,) = read_bracketed('((X (T w)))')
    assert tree == RawNode('X', (Token(1, 'w', 'T'),))


def test_read_bracketed_blank_lines_skipped():
    trees = read_bracketed('\n' + ENGLISH_LINE + '\n\n(X (T w))\n')
    assert len(trees) == 2


def test_read_bracketed_errors():
    with pytest.raises(TreebankFormatError) as err:
        read_bracketed('(S (NP')
    assert err.value.line == 1
    with pytest.raises(TreebankFormatError) as err:
        read_bracketed('(X (T w))\n(S (NP a b)) extra)')
    assert err.value.line == 2
    with pytest.raises(TreebankFormatError):
        read_bracketed('(S (NP (DT the) word))')   # word outside preterminal
    with pytest.raises(TreebankFormatError):
        read_bracketed('word')


def test_write_bracketed_english(english_tree):
    assert write_bracketed([english_tree]) == ENGLISH_LINE + '\n'


def test_write_bracketed_rejects_discontinuous(german_tree):
    with pytest.raises(TreebankFormatError) as err:
        write_bracketed([german_tree])
    assert 'export' in str(err.value)


def _two_token_tree(form='a', tag='N', label='S', lemma=None, morph=None):
    from hodt.trees import CTree, preterminal, proper
    sent = Sentence((Token(1, form, tag, lemma, morph), Token(2, 'b', 'V')))
    return CTree(proper(label, 2, (preterminal(tag, 1),
                                   preterminal('V', 2))), sent)


@pytest.mark.parametrize('fmt, field, value', [
    ('bracketed', 'form', 'New York'), ('bracketed', 'form', 'a(b'),
    ('bracketed', 'form', 'c)'), ('bracketed', 'form', ''),
    ('bracketed', 'form', 'a\u2028b'), ('bracketed', 'tag', 'N N'),
    ('bracketed', 'tag', 'N('), ('bracketed', 'label', 'S P'),
    ('bracketed', 'label', ')'),
    ('export', 'form', 'New York'), ('export', 'form', 'a\tb'),
    ('export', 'form', ''), ('export', 'form', '#BOS'),
    ('export', 'form', '#EOS9'), ('export', 'form', '#FORMAT'),
    ('export', 'form', '#500'), ('export', 'form', '#١'),
    ('export', 'tag', 'N N'), ('export', 'label', 'S P'),
    ('export', 'morph', 'Pl Sg'), ('export', 'morph', '--'),
    ('export4', 'lemma', 'a b'), ('export4', 'lemma', '--'),
    ('conll', 'form', 'a\tb'), ('conll', 'form', 'a\nb'),
    ('conll', 'form', 'a\rb'), ('conll', 'tag', 'N\tN'),
    ('conll', 'label', 'S\tT'), ('conll', 'lemma', 'a\tb'),
    ('conll', 'lemma', '_'), ('conll', 'morph', 'P\nl'),
    ('conll', 'morph', '_'),
])
def test_writers_refuse_fields_their_reader_misreads(fmt, field, value):
    tree = _two_token_tree(**{field: value})
    writer = {'bracketed': write_bracketed, 'export': write_export,
              'export4': lambda trees: write_export(trees, version=4),
              'conll': _write_encoded}[fmt]
    with pytest.raises(TreebankFormatError) as err:
        writer([_two_token_tree(), tree])
    if fmt == 'conll':
        # the arc into token 1 is labeled at step 1 of the root's spine
        written = f'{value}#1' if field == 'label' else value
        assert str(err.value) == (f'sentence 2: {field} {written!r} cannot '
                                  f'be written in the CoNLL format')
    else:
        assert f'tree 2: {field} {value!r}' in str(err.value)
        assert '--format json' in str(err.value)
    assert read_json_corpus(write_json_corpus([tree])) == [tree]


def _write_encoded(trees):
    return write_conll([encode_direct(ctree_to_dtree(t)) for t in trees])


@pytest.mark.parametrize('field, value', [
    ('form', '_'), ('form', 'a b'), ('form', ''), ('form', 'a\u2028b'),
    ('tag', 'N N'), ('lemma', '__'), ('lemma', ' _'), ('morph', '--'),
    ('morph', ''),
])
def test_conll_keeps_fields_its_reader_reads_back(field, value):
    corpus = [encode_direct(ctree_to_dtree(_two_token_tree(**{field: value})))]
    assert read_conll(write_conll(corpus)) == corpus


@pytest.mark.parametrize('form', ['#', '#x', '#5²', '%%', '#BOT', 'a/b',
                                  '--'])
def test_writers_keep_forms_their_reader_reads_back(form):
    tree = _two_token_tree(form=form, lemma='l', morph='m')
    assert read_export(write_export([tree], version=4)) == [
        unlexicalize(tree)]
    assert read_bracketed(write_bracketed([tree])) == [
        unlexicalize(_two_token_tree(form=form))]


def test_bracketed_roundtrip(english_tree):
    text = write_bracketed([english_tree])
    (raw,) = read_bracketed(text)
    assert raw == unlexicalize(english_tree)


def test_export_roundtrip_german(german_tree):
    text = write_export([german_tree])
    (raw,) = read_export(text)
    relex = lexicalize(raw, GERMAN_RULES)
    assert relex == german_tree


def test_export_v4_preserves_lemma_morph():
    sent = Sentence((Token(1, 'Hunde', 'NN', 'Hund', 'Pl'),
                     Token(2, 'bellen', 'VVFIN', 'bellen', None)))
    from hodt.trees import CTree, preterminal, proper
    tree = CTree(proper('S', 2, (preterminal('NN', 1),
                                 preterminal('VVFIN', 2))), sent)
    text = write_export([tree], version=4)
    assert text.startswith('#FORMAT 4\n')
    (raw,) = read_export(text)          # version sniffed from #FORMAT
    leaves = sorted(
        (leaf for leaf in _iter_leaves(raw)), key=lambda l: l.position)
    assert [(l.lemma, l.morph) for l in leaves] == [('Hund', 'Pl'),
                                                    ('bellen', None)]


def _iter_leaves(raw):
    if isinstance(raw, Token):
        yield raw
        return
    for c in raw.children:
        yield from _iter_leaves(c)


def test_export_vroot_synthesis():
    block = '\n'.join([
        '#BOS 1',
        'Ja\tADV\t--\t--\t0',
        'klar\tADJD\t--\t--\t500',
        '#500\tAP\t--\t--\t0',
        '#EOS 1',
    ])
    (raw,) = read_export(block)
    assert raw.label == 'VROOT'
    assert len(raw.children) == 2


def test_export_single_token_block():
    block = '#BOS 1\nJa\tADV\t--\t--\t0\n#EOS 1\n'
    (raw,) = read_export(block)
    assert raw == RawNode('VROOT', (Token(1, 'Ja', 'ADV'),))


def test_export_errors():
    dangling = '#BOS 1\nJa\tADV\t--\t--\t777\n#EOS 1\n'
    with pytest.raises(TreebankFormatError) as err:
        read_export(dangling)
    assert '777' in str(err.value)

    dup = '\n'.join([
        '#BOS 1', 'a\tX\t--\t--\t500', 'b\tX\t--\t--\t501',
        '#500\tA\t--\t--\t501', '#501\tB\t--\t--\t0',
        '#500\tA\t--\t--\t501', '#EOS 1'])
    with pytest.raises(TreebankFormatError) as err:
        read_export(dup)
    assert 'duplicate' in str(err.value)

    cycle = '\n'.join([
        '#BOS 1', 'a\tX\t--\t--\t500',
        '#500\tA\t--\t--\t501', '#501\tB\t--\t--\t500', '#EOS 1'])
    with pytest.raises(TreebankFormatError):
        read_export(cycle)

    with pytest.raises(TreebankFormatError) as err:
        read_export('#BOS 1\na\tX\t--\t--\t0\n', 'u.ex')   # unterminated
    assert str(err.value).startswith('u.ex:1: ')

    with pytest.raises(TreebankFormatError) as err:
        read_export('#BOS 1\na\tX\t--\t--\t0\n#EOS 1\n\n#BOS 2\n#EOS 2\n',
                    'e.ex')
    assert str(err.value).startswith('e.ex:5: empty sentence block')

    with pytest.raises(TreebankFormatError):
        read_export('#BOS 1\n#BOS 2\n#EOS 2\n')


def test_export_rejects_a_cycle_beside_the_top():
    # the cycle is attached to nothing, so a reader that only walks down
    # from the top used to drop it, token included, without a word
    text = '\n'.join([
        '#BOS 1', 'a\tX\t--\t--\t0', 'b\tX\t--\t--\t500',
        '#500\tA\t--\t--\t501', '#501\tB\t--\t--\t500', '#EOS 1'])
    with pytest.raises(TreebankFormatError) as err:
        read_export(text)
    assert err.value.line == 4
    assert 'cycle' in str(err.value)


@pytest.mark.parametrize('reader, text, line', [
    # '²' passes str.isdigit but not int()
    (read_conll, '²\ta\t_\tX\tX\t_\t0\tL\t_\t_', 1),
    (read_export, '#BOS 1\na\tX\t--\t--\t²\n#EOS 1', 2),
    (read_export, '#BOS 1\na\tX\t--\t--\t5²\n#5²\tA\t--\t--\t0\n#EOS 1', 2),
])
def test_readers_reject_non_ascii_digits(reader, text, line):
    with pytest.raises(TreebankFormatError) as err:
        reader(text)
    assert err.value.line == line


def test_export_rejects_lines_outside_blocks():
    with pytest.raises(TreebankFormatError) as err:
        read_export('(S (NP (N dog)) (VP (V sees)))\n', 'toy.brackets')
    assert str(err.value).startswith('toy.brackets:1: ')
    assert err.value.line == 1
    block = '#BOS 1\nJa\tADV\t--\t--\t0\n#EOS 1\n'
    for text, line in [(block + 'stray\n', 4), ('\n\nstray\n' + block, 3),
                       (block + '#EOT ORIGIN\n', 4),
                       ('#BOT ORIGIN\n0\tsomewhere\n' + block, 1)]:
        with pytest.raises(TreebankFormatError) as err:
            read_export(text)
        assert err.value.line == line


def test_export_header_lines_outside_blocks():
    block = '#BOS 1\nJa\tADV\t--\t--\t0\n#EOS 1\n'
    text = ('%% a comment\n#FORMAT 3\n#BOT ORIGIN\n0\tcorpus.txt\n'
            '#EOT ORIGIN\n\n' + block + '%% between\n' + block)
    assert read_export(text) == read_export(block + block)


def test_export_roundtrip_generated_discontinuous():
    cfg = GenConfig(seed=7, discontinuity_probability=0.5,
                    unary_probability=0.3)
    trees = [gen_ctree(cfg, 2 + i % 7, index=i) for i in range(30)]
    text = write_export(trees)
    raws = read_export(text)
    assert len(raws) == 30
    for tree, raw in zip(trees, raws):
        assert _canonical(raw) == _canonical(unlexicalize(tree))


def test_conll_english_columns(english_tree):
    enc = encode_direct(ctree_to_dtree(english_tree))
    text = write_conll([enc])
    rows = [l.split('\t') for l in text.strip().split('\n')]
    assert [r[6] for r in rows] == ['2', '3', '0', '3', '3', '3']
    assert [r[7] for r in rows] == [
        'NP#1', 'S#2', ROOT_LABEL, 'VP#1', 'VP#1', 'S#2']
    assert all(len(r) == 10 for r in rows)


def test_conll_roundtrip(english_tree, german_tree):
    corpus = [encode_direct(ctree_to_dtree(t))
              for t in (english_tree, german_tree)]
    text = write_conll(corpus)
    assert read_conll(text) == corpus


def test_conll_roundtrip_generated():
    cfg = GenConfig(seed=11, discontinuity_probability=0.25)
    corpus = [encode_direct(ctree_to_dtree(gen_ctree(cfg, 2 + i % 6, index=i)))
              for i in range(50)]
    assert read_conll(write_conll(corpus)) == corpus


def test_conll_empty_stream():
    assert read_conll('') == []
    assert read_conll('\n\n') == []


def test_conll_root_repair_multiple():
    rows = ['1\ta\t_\tX\tX\t_\t0\t%s\t_\t_' % ROOT_LABEL,
            '2\tb\t_\tX\tX\t_\t0\tA#1\t_\t_']
    stats = {}
    (enc,) = read_conll('\n'.join(rows), stats=stats)
    assert enc.heads == (0, 1)
    assert stats['root_repairs'] == 1
    with pytest.raises(TreebankFormatError):
        read_conll('\n'.join(rows), on_root_anomaly='reject')


def test_conll_root_repair_none():
    rows = ['1\ta\t_\tX\tX\t_\t2\tA#1\t_\t_',
            '2\tb\t_\tX\tX\t_\t1\tB#1\t_\t_']
    stats = {}
    (enc,) = read_conll('\n'.join(rows), stats=stats)
    assert enc.heads.count(0) == 1
    assert stats['root_repairs'] == 1
    assert enc.labels[0] == ROOT_LABEL


def test_conll_cycle_repair():
    rows = ['1\ta\t_\tX\tX\t_\t0\t%s\t_\t_' % ROOT_LABEL,
            '2\tb\t_\tX\tX\t_\t3\tA#1\t_\t_',
            '3\tc\t_\tX\tX\t_\t2\tA#1\t_\t_']
    stats = {}
    (enc,) = read_conll('\n'.join(rows), stats=stats)
    assert stats['cycle_repairs'] >= 1
    # every token now reaches the root
    for start in range(1, 4):
        seen = set()
        v = start
        while v != 0:
            assert v not in seen
            seen.add(v)
            v = enc.heads[v - 1]
    with pytest.raises(TreebankFormatError):
        read_conll('\n'.join(rows), on_root_anomaly='reject')


def test_conll_errors():
    with pytest.raises(TreebankFormatError) as err:
        read_conll('1\ta\t_\tX\tX\t_\tzz\tL\t_\t_')
    assert 'HEAD' in str(err.value)
    with pytest.raises(TreebankFormatError):
        read_conll('1\ta\t_\tX\tX\t_\t9\tL\t_\t_')   # head out of range
    with pytest.raises(TreebankFormatError):
        read_conll('5\ta\t_\tX\tX\t_\t0\tL\t_\t_')   # id mismatch
    with pytest.raises(TreebankFormatError):
        read_conll('1\ta\tX\t0\tL')                  # wrong column count


def test_read_sentences_tagged_lines():
    sents = read_sentences('the/D dog/N\n\n  a/b/X  cat/N  \n')
    assert sents == [
        Sentence((Token(1, 'the', 'D'), Token(2, 'dog', 'N'))),
        Sentence((Token(1, 'a/b', 'X'), Token(2, 'cat', 'N')))]


def test_read_sentences_token_columns():
    text = ('1\tthe\t_\tD\t_\t_\t0\t_\t_\t_\n'
            '2\tdogs\tdog\tN\tNNS\tNum=Pl\n'
            '\n\n'
            '1\tbark\t_\tV\tVB\t_\n')
    assert read_sentences(text) == [
        Sentence((Token(1, 'the', 'D'),
                  Token(2, 'dogs', 'NNS', 'dog', 'Num=Pl'))),
        Sentence((Token(1, 'bark', 'VB'),))]


@pytest.mark.parametrize('text,line,message', [
    ('1\tthe\t_\tD\tD\t_\n2\tdog\t_\tN\n', 2,
     'token row needs at least 6 columns, got 4'),
    ('1\tthe\t_\tD\tD\t_\n5\tdog\t_\tN\tN\t_\n', 2,
     "token id '5', expected 2"),
    ('1\tthe\t_\tD\tD\t_\n\n2\tdog\t_\tN\tN\t_\n', 3,
     "token id '2', expected 1"),
    ('x\tthe\t_\tD\tD\t_\n', 1, "token id 'x', expected 1"),
    ('a/D b/N\n\nthe/D dog\n', 3, "expected form/POS tokens, got 'dog'"),
])
def test_read_sentences_errors(text, line, message):
    with pytest.raises(TreebankFormatError) as err:
        read_sentences(text, path='in.txt')
    assert str(err.value) == f'in.txt:{line}: {message}'


def test_read_sentences_empty_input():
    with pytest.raises(TreebankFormatError) as err:
        read_sentences(' \n\n', path='in.txt')
    assert str(err.value) == 'in.txt: empty input'


def test_json_roundtrip(english_tree, german_tree):
    text = write_json_corpus([english_tree, german_tree])
    assert read_json_corpus(text) == [english_tree, german_tree]
    assert len(text.strip().split('\n')) == 2


def test_json_bad_input():
    with pytest.raises(TreebankFormatError) as err:
        read_json_corpus('{"tokens": [[')
    assert err.value.line == 1
    with pytest.raises(TreebankFormatError):
        read_json_corpus('{"tokens": [["a", "X", null, null]], "root": {}}')


_TOKEN = '["a", "X", null, null]'


@pytest.mark.parametrize('line', [
    '{"x": 1}',
    '[1]',
    'null',
    '{"tokens": [], "root": {"label": "S", "head": 1}}',
    '{"tokens": 3, "root": {"label": "X", "head": 1}}',
    '{"tokens": [["a", "X"]], "root": {"label": "X", "head": 1}}',
    '{"tokens": [["a", 1, null, null]], "root": {"label": "X", "head": 1}}',
    '{"tokens": [["a", "X", 2, null]], "root": {"label": "X", "head": 1}}',
    '{"tokens": [%s], "root": {"label": "X"}}' % _TOKEN,
    '{"tokens": [%s], "root": {"label": "X", "head": 2}}' % _TOKEN,
    '{"tokens": [%s], "root": {"label": "X", "head": 0}}' % _TOKEN,
    '{"tokens": [%s], "root": {"label": "X", "head": true}}' % _TOKEN,
    '{"tokens": [%s], "root": {"label": "X", "head": "1"}}' % _TOKEN,
    '{"tokens": [%s], "root": {"label": 5, "head": 1}}' % _TOKEN,
    '{"tokens": [%s], "root": [1]}' % _TOKEN,
    '{"tokens": [%s], "root": {"label": "S", "head": 1, "children": []}}'
    % _TOKEN,
    '{"tokens": [%s], "root": {"label": "S", "head": 1, "children": {}}}'
    % _TOKEN,
    '{"tokens": [%s], "root": {"label": "S", "head": 1, "children": [3]}}'
    % _TOKEN,
    # well-typed, but the root covers token 1 twice
    '{"tokens": [%s], "root": {"label": "S", "head": 1, "children": '
    '[{"label": "X", "head": 1}, {"label": "X", "head": 1}]}}' % _TOKEN,
])
def test_json_rejects_malformed_objects(line):
    text = '{"tokens": [%s], "root": {"label": "X", "head": 1}}\n\n%s\n' % (
        _TOKEN, line)
    with pytest.raises(TreebankFormatError) as err:
        read_json_corpus(text, 'bank.json')
    assert str(err.value).startswith('bank.json:3: ')


DEEP_WRITERS = {
    'bracketed': (write_bracketed, read_bracketed),
    'export': (write_export, read_export),
    'json': (write_json_corpus, read_json_corpus),
}


@pytest.mark.parametrize('fmt', sorted(DEEP_WRITERS))
def test_readers_limit_the_nesting(fmt):
    write, read = DEEP_WRITERS[fmt]
    at_limit = deep_tree(MAX_DEPTH)
    (tree,) = read(write([at_limit]))
    assert tree == (at_limit if fmt == 'json' else unlexicalize(at_limit))
    text = '\n' + write([deep_tree(MAX_DEPTH + 1)])
    with pytest.raises(TreebankFormatError) as err:
        read(text, 'deep')
    assert str(err.value).startswith('deep:')
    assert f'nesting deeper than {MAX_DEPTH}' in str(err.value)
    if fmt == 'export':     # the line of the node at the limit
        node_line = text.split('\n')[err.value.line - 1]
        assert node_line.startswith(f'#{500 + MAX_DEPTH - 1}\t')
    else:
        assert err.value.line == 2


def test_export_counts_the_synthesized_vroot():
    def with_top_level_token(depth):
        # a second unit at the top puts the tree under a VROOT
        return write_export([deep_tree(depth)]).replace(
            '#BOS 1\n', '#BOS 1\nJa\tADV\t--\t--\t0\n')

    (tree,) = read_export(with_top_level_token(MAX_DEPTH - 1))
    assert tree.label == 'VROOT'
    with pytest.raises(TreebankFormatError) as err:
        read_export(with_top_level_token(MAX_DEPTH))
    assert f'nesting deeper than {MAX_DEPTH}' in str(err.value)


def test_bracketed_wrapper_counts_toward_the_nesting():
    line = write_bracketed([deep_tree(MAX_DEPTH)]).strip()
    with pytest.raises(TreebankFormatError) as err:
        read_bracketed(f'({line})')
    assert err.value.line == 1


def test_json_nesting_past_the_parser_is_a_format_error():
    with pytest.raises(TreebankFormatError) as err:
        read_json_corpus('[' * 100_000 + ']' * 100_000, 'deep.json')
    assert str(err.value).startswith('deep.json:1: ')
