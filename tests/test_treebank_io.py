import re
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from hodt.corpus_gen import GenConfig, gen_ctree
from hodt.encoding import ROOT_LABEL, encode_direct
from hodt.errors import TreebankFormatError
from hodt.headrules import lexicalize, load_rules
from hodt.reduction import ctree_to_dtree
from hodt import treebank_io
from hodt.treebank_io import (
    MAX_DEPTH, read_bracketed, read_conll, read_export, read_json_corpus,
    read_sentences, write_bracketed, write_conll, write_export,
    write_json_corpus)
from hodt.trees import RawNode, Sentence, Token, unlexicalize, validate
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


@pytest.mark.parametrize('line', [
    '(S (A a) ( (B b)))', '(((X (T w))))', '(S (A a) ( ))'])
def test_read_bracketed_refuses_an_inner_label_less_bracket(line):
    with pytest.raises(TreebankFormatError) as err:
        read_bracketed('(X (T w))\n' + line, 'in.brackets')
    assert str(err.value) == (
        'in.brackets:2: label-less bracket inside a tree')


def test_read_bracketed_blank_lines_skipped():
    trees = read_bracketed('\n' + ENGLISH_LINE + '\n\n(X (T w))\n')
    assert len(trees) == 2


@pytest.mark.parametrize('newline', ['\n', '\r\n'])
def test_readers_split_a_long_string_as_its_lines(newline):
    # a string is split about 4 KiB at a time, each piece cut at a line
    # feed; these texts span many pieces
    trees = [gen_ctree(GenConfig(seed=4), 8, index=i) for i in range(300)]
    text = write_export(trees).replace('\n', newline)
    assert len(text) > 40_000
    assert read_export(text) == read_export(text.splitlines(keepends=True))
    lines = write_bracketed(trees).split('\n')
    lines[250] += ')'
    with pytest.raises(TreebankFormatError, match=r'^b:251: unbalanced \)$'):
        read_bracketed(newline.join(lines), path='b')


def test_sniff_format_reads_only_the_first_lines():
    # a 2.8 MB export bank after two blank lines: sniffing it splits one
    # piece of about 4 KiB into lines, not the whole text
    trees = [gen_ctree(GenConfig(seed=3, discontinuity_probability=0.5),
                       25, index=i) for i in range(200)]
    text = '\n\n' + write_export(trees) * 20
    assert len(text) > 2_000_000
    tracemalloc.start()
    try:
        assert treebank_io.sniff_format(text) == 'export'
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# one 3 MB line of each sniffed kind
_LONG_LINES = {
    'bracketed': lambda: '(S ' + '(N dog) ' * 375_000 + ')',
    'json': lambda: '{"tokens": ["' + 'a' * 3_000_000 + '"]}',
    'tagged': lambda: 'dog/N ' * 500_000,
    'conll': lambda: '1' + '\t_' * 9 + 'x' * 3_000_000,
}


@pytest.mark.parametrize('fmt', sorted(_LONG_LINES))
def test_sniff_format_copies_no_part_of_a_long_line(fmt):
    # the line after blank ones: the sniff reads its prefix and its tabs
    # where they lie, and copies none of it
    text = ' \n\t\r\n' + _LONG_LINES[fmt]() + '\n'
    assert len(text) > 3_000_000
    tracemalloc.start()
    try:
        assert treebank_io.sniff_format(text) == fmt
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize('after', ['', '\n', '\n(S (N cat))' * 1000],
                         ids=['last', 'ended', 'inside'])
def test_splitting_copies_a_long_line_once(after):
    line = '(S ' + '(N dog) ' * 375_000 + ')'
    text = '\n' * 3 + '(S (N cat))\n' * 1000 + line + after
    tracemalloc.start()
    try:
        longest = max(len(unit) for _, unit in treebank_io.split_lines(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert longest == len(line)
    assert peak < len(line) + 256 * 1024


@pytest.mark.parametrize('ends', ['\n', '\r\n', ''])
def test_lines_of_cuts_at_every_line_feed(ends):
    # lines on both sides of each 4 KiB mark, one far longer than 4 KiB
    lengths = [0, 1, 4094, 4095, 4096, 4097, 10_000, 3, 8191, 0, 2]
    text = ''.join('x' * n + ends for n in lengths)
    want = text.split('\n')
    if ends == '\r\n':
        want = [line.rstrip('\r') for line in want]
    assert list(treebank_io._lines_of(text)) == want


def _sniff_by_lines(text):
    """sniff_format as it was written over split lines: the reference
    for the offsets it reads now."""
    for line in text.split('\n'):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(('#FORMAT', '#BOS')):
            return 'export'
        if stripped.startswith('{'):
            return 'json'
        if stripped.startswith('('):
            return 'bracketed'
        cols = stripped.split('\t')
        if len(cols) >= 2 and cols[0].isdigit():
            return 'conll'
        return 'tagged'
    return None


@given(st.lists(st.one_of(
    st.sampled_from(['\t', '\n', '\r', ' ', '\x0b', '\u2028', '\x85',
                     '1', '12', '\u00b2', '٣', 'a', '#BOS', '#FORMAT',
                     '#', '{', '(', '_']),
    st.text(max_size=3)), max_size=40).map(''.join))
@example('\t1\t2\t3\t4\t5\t6\t7\t8\t9\t10\t\n')
@example('1\t2\t3\t4\t5\t6\t7\t8\t9\t\t \r\n')
@example('\u00b2\t_\t_\t_\t_\t_\t_\t_\t_\t_')
@example(' \x0b\n \n  #BOS 1')
def test_sniff_format_names_what_the_line_split_named(text):
    want = _sniff_by_lines(text)
    if want is None:
        with pytest.raises(TreebankFormatError, match='empty input'):
            treebank_io.sniff_format(text)
    else:
        assert treebank_io.sniff_format(text) == want


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


def _tokenize_brackets(line):
    i = 0
    while i < len(line):
        c = line[i]
        if c in '()':
            yield c
            i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(line) and not line[j].isspace() and line[j] not in '()':
                j += 1
            yield line[i:j]
            i = j


def _read_line(line):
    try:
        return treebank_io.parse_bracketed((1, line))
    except TreebankFormatError as err:
        return str(err)


SPACES = st.text(st.sampled_from([' ', '\t', '\x1c', '\u00a0', '\u2028']),
                 max_size=2)
# brackets over ( ) a b: well-formed lines now and then, every reader
# error otherwise
BRACKETS = st.recursive(
    st.sampled_from(['a', 'b', '(', ')']),
    lambda inner: st.tuples(
        st.sampled_from(['', 'a', 'b']),
        st.lists(st.tuples(SPACES, inner), max_size=3)).map(
            lambda t: '(' + t[0] + ''.join(s + p for s, p in t[1]) + ')'),
    max_leaves=12)


@given(BRACKETS, SPACES)
@example('(a\u2028(b\x1ca)\u00a0(b\tb))', ' ')
@example('( (a b))', '')
def test_bracket_tokens_read_as_the_character_loop(line, tail):
    line += tail
    want = _read_line(line)
    loop = SimpleNamespace(findall=lambda text: list(_tokenize_brackets(text)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treebank_io, '_BRACKET_TOKEN', loop)
        assert _read_line(line) == want


def test_regex_whitespace_is_isspace():
    # the bracket token pattern splits at \s, the reader it replaced at
    # str.isspace
    text = ''.join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r'\s', text) == [c for c in text if c.isspace()]


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


def test_export_rejects_a_format_line_inside_a_block():
    # each block is read under one version: the #FORMAT line is refused
    # where it stands, not obeyed for the lines above it
    text = '\n'.join([
        '#BOS 1', 'the\tDT\t--\t--\t500', '#FORMAT 4',
        'dog\tdog\tNN\t--\t--\t500', '#500\t--\tNP\t--\t--\t0',
        '#EOS 1'])
    with pytest.raises(TreebankFormatError) as err:
        read_export(text, 'f.ex')
    assert str(err.value) == 'f.ex:3: #FORMAT inside a #BOS block'
    assert err.value.line == 3


@pytest.mark.parametrize('line', [
    '#FORMAT4', '#FORMAT 5', '#FORMAT', '#FORMAT 4 x', '#FORMATS 4'])
def test_export_rejects_a_bad_format_line(line):
    # skipping the line would read the format-4 block after it as format
    # 3, and blame a valid token line
    text = '\n'.join([
        '%% header', line, '#BOS 1', 'dog\tdog\tNN\t--\t--\t0', '#EOS 1'])
    with pytest.raises(TreebankFormatError) as err:
        read_export(text, 'f4.ex')
    assert str(err.value) == (
        f'f4.ex:2: expected #FORMAT 3 or #FORMAT 4, got {line!r}')
    assert err.value.line == 2


def test_export_format_line_may_have_surrounding_blanks():
    block = '#BOS 1\ndog\tdog\tNN\t--\t--\t0\n#EOS 1\n'
    (raw,) = read_export(' #FORMAT  4 \n' + block)
    (token,) = raw.children
    assert (token.form, token.lemma, token.pos) == ('dog', 'dog', 'NN')


def test_export_reports_a_block_fault_before_a_later_structural_one():
    # block 1 is read before the unterminated #BOS after it is seen
    text = '#BOS 1\na\tX\t--\t--\t777\n#EOS 1\n#BOS 2\nb\tX\t--\t--\t0\n'
    with pytest.raises(TreebankFormatError) as err:
        read_export(text, 'f.ex')
    assert str(err.value) == 'f.ex:2: dangling parent pointer 777'


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


def test_split_export_yields_a_block_before_reading_on(monkeypatch):
    read = []
    lines_of = treebank_io._lines_of

    def spy(source):
        for line in lines_of(source):
            read.append(line)
            yield line

    monkeypatch.setattr(treebank_io, '_lines_of', spy)
    text = ''.join(f'#BOS {i}\nw\tT\t--\t--\t0\n\n#EOS {i}\n'
                   for i in (1, 2, 3))
    units = treebank_io.split_export(text, 'in.export')
    assert next(units) == (1, 3, ['w\tT\t--\t--\t0', ''])
    # the split stopped at the first #EOS: the rest is not read yet
    assert read == ['#BOS 1', 'w\tT\t--\t--\t0', '', '#EOS 1']
    assert [(bos, lines) for bos, _, lines in units] == [
        (5, ['w\tT\t--\t--\t0', '']), (9, ['w\tT\t--\t--\t0', ''])]
    assert len(read) == 13


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


@pytest.mark.parametrize('heads', [
    (2, 3, 1),      # no root
    (0, 0, 2),      # two roots
    (0, 3, 2),      # a cycle below the root
])
def test_conll_reads_heads_and_labels_as_written(heads):
    labels = ('A#1', ROOT_LABEL, 'B#2')
    text = '\n'.join(f'{m}\t{form}\t_\tX\tX\t_\t{h}\t{label}\t_\t_'
                     for m, form, h, label
                     in zip((1, 2, 3), 'abc', heads, labels))
    (enc,) = read_conll(text)
    assert enc.heads == heads
    assert enc.labels == labels
    assert [t.form for t in enc.sentence] == ['a', 'b', 'c']
    # not a tree, which validate names
    assert validate(enc)


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


def test_conll_splits_rows_at_tabs_only():
    # nine tab-separated fields, one of them holding a space: not a row
    # of ten whitespace-separated ones
    with pytest.raises(TreebankFormatError) as err:
        read_conll('1\tx\t_\tN N\t_\t0\tL\t_\t_', path='in.conll')
    assert str(err.value) == 'in.conll:1: expected 10 columns, got 9'
    with pytest.raises(TreebankFormatError) as err:
        read_conll('1 x _ N N _ 0 L _ _', path='in.conll')
    assert str(err.value) == 'in.conll:1: expected 10 columns, got 1'


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
