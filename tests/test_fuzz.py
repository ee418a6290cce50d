"""Fuzz the readers and the head-rule loader: any text either parses or
raises the reader's typed error, never a bare Python exception.

Texts are drawn both as arbitrary unicode and as lines assembled from
fragments of each format, so that most examples get past the first
line and reach the deeper checks.  Generated trees written by each
writer must read back as the same tree, unless the writer refuses a
field its reader would misread; trees with plain fields are never
refused."""

import json
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from hodt.corpus_gen import GenConfig, gen_ctree
from hodt.encoding import encode_direct, encode_hn
from hodt.errors import HeadRuleError, TreebankFormatError
from hodt.headrules import load_rules
from hodt.reduction import ctree_to_dtree
from hodt.treebank_io import (
    read_bracketed, read_conll, read_export, read_json_corpus,
    read_sentences, write_bracketed, write_conll, write_export,
    write_json_corpus)
from hodt.trees import (
    CTree, RawNode, Sentence, Token, is_continuous, unlexicalize)

FUZZ = settings(max_examples=300, deadline=None)

# mostly small numbers and placeholders, plus a few awkward atoms:
# digits that str.isdigit accepts and int() rejects, signs, padding
ATOMS = st.sampled_from([
    '0', '1', '2', '3', '0', '1', '2', '500', '501', '502', '_', '--',
    'x', 'NP', '-1', '+1', ' 1', '²', '١', '', '#'])


def _lines(fragment):
    """Texts of up to eight lines drawn from `fragment`, or anything."""
    assembled = st.lists(fragment, max_size=8).map('\n'.join)
    return st.one_of(assembled, st.text(max_size=200))


def _fields(n, sep='\t'):
    """Lines of n fields, sometimes one field more or less."""
    return st.lists(ATOMS, min_size=n - 1, max_size=n + 1).map(sep.join)


BRACKETED = _lines(st.lists(
    st.sampled_from(['(', ')', ' ', 'S', 'NP', 'a', '()', '(S', 'x)']),
    max_size=12).map(''.join))

EXPORT_BODY = st.one_of(
    _fields(5), _fields(6, ' '),
    st.tuples(st.sampled_from(['#500', '#501', '#502', '#5²']),
              _fields(4)).map('\t'.join))

EXPORT = st.one_of(
    _lines(st.one_of(
        st.sampled_from(['#BOS 1', '#EOS 1', '#BOT WORDTAG', '#EOT WORDTAG',
                         '#FORMAT 3', '#FORMAT 4', '%% comment', '']),
        EXPORT_BODY)),
    st.lists(EXPORT_BODY, max_size=6).map(
        lambda body: '\n'.join(['#BOS 1', *body, '#EOS 1'])))

CONLL = _lines(st.one_of(st.just(''), _fields(10), _fields(10, ' ')))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(
        ['tokens', 'root', 'label', 'head', 'children']), inner, max_size=4),
    max_leaves=12)

TOKEN_ROWS = st.lists(st.one_of(
    st.tuples(st.text(max_size=2), st.text(max_size=2),
              st.none(), st.none()).map(list),
    JSON_VALUES), max_size=4)

NODES = st.recursive(
    st.fixed_dictionaries({'label': st.sampled_from(['S', 'NP', 1]),
                           'head': st.integers(-1, 4)}),
    lambda inner: st.fixed_dictionaries({
        'label': st.sampled_from(['S', 'NP']),
        'head': st.integers(0, 4),
        'children': st.lists(inner, max_size=3)}),
    max_leaves=6)

JSON_LINES = _lines(st.one_of(
    JSON_VALUES.map(json.dumps),
    st.fixed_dictionaries({'tokens': TOKEN_ROWS, 'root': NODES}).map(
        json.dumps)))

SENTENCES = _lines(st.one_of(
    _fields(6), _fields(10),
    st.lists(st.sampled_from(['the/D', 'a/b/X', 'dog', '/', 'x/']),
             max_size=4).map(' '.join)))

RULES = _lines(st.lists(st.sampled_from(
    ['strategy', 'default', 'table', 'leftmost', 'left', 'right', 'S', 'NP',
     'left-to-right', 'right-to-left', '#']), max_size=5).map(' '.join))


def _parses_or_raises(reader, text, error=TreebankFormatError):
    try:
        reader(text)
    except error as exc:
        assert str(exc)


@FUZZ
@given(BRACKETED)
def test_read_bracketed_total(text):
    _parses_or_raises(read_bracketed, text)


@FUZZ
@given(EXPORT)
def test_read_export_total(text):
    _parses_or_raises(read_export, text)


@FUZZ
@given(CONLL)
@example('1 x _ N N _ 0 L _ _')
def test_read_conll_total(text):
    _parses_or_raises(read_conll, text)
    # a row of fields joined by spaces, not tabs, is never read
    if any(line.strip() and '\t' not in line for line in text.split('\n')):
        with pytest.raises(TreebankFormatError):
            read_conll(text)


@FUZZ
@given(JSON_LINES)
def test_read_json_corpus_total(text):
    try:
        read_json_corpus(text, path='in.json')
    except TreebankFormatError as exc:
        # every json error names the line it is on
        assert exc.path == 'in.json' and exc.line is not None


@FUZZ
@given(SENTENCES)
def test_read_sentences_total(text):
    try:
        read_sentences(text, path='in.txt')
    except TreebankFormatError as exc:
        assert exc.path == 'in.txt'


@FUZZ
@given(RULES)
def test_load_rules_total(text):
    _parses_or_raises(load_rules, text.splitlines(), HeadRuleError)


# --- writer -> reader round trips -------------------------------------------

# forms, lemmas and morphology a writer may have to refuse, and near
# misses it must write
AWKWARD = st.sampled_from([
    'New York', 'a(b', 'c)', '', '\t', 'a\rb', '\u2028', '#BOS', '#EOS',
    '#FORMAT', '#500', '#١', '#5²', '#', '#x', '%%', '#BOT', 'a/b', '--',
    '_'])
LEMMAS = (None, 'lem', 'x-y')
MORPHS = (None, 'Pl', 'Sg|3')


@st.composite
def generated_trees(draw, disc=(0.0, 0.5, 1.0)):
    """gen_ctree trees, with unary chains and some lemmas and morphology;
    in one tree of four, one token's form, lemma or morphology is
    AWKWARD."""
    cfg = GenConfig(seed=draw(st.integers(0, 2 ** 16)),
                    label_count=draw(st.integers(1, 4)),
                    discontinuity_probability=draw(st.sampled_from(disc)),
                    unary_probability=draw(st.sampled_from([0.0, 0.3, 0.7])),
                    binary_only=draw(st.booleans()))
    tree = gen_ctree(cfg, draw(st.integers(1, 12)),
                     index=draw(st.integers(0, 50)))
    extras = st.tuples(st.sampled_from(LEMMAS), st.sampled_from(MORPHS))
    tokens = [Token(t.position, t.form, t.pos, *draw(extras))
              for t in tree.sentence]
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(tokens) - 1))
        field = draw(st.sampled_from(['form', 'lemma', 'morph']))
        tokens[k] = replace(tokens[k], **{field: draw(AWKWARD)})
    return CTree(tree.root, Sentence(tuple(tokens)))


def _plain(tree):
    return all(t.form == f'w{t.position}' and t.lemma in LEMMAS
               and t.morph in MORPHS for t in tree.sentence)


def _written(write, trees, *args):
    """write(trees, *args), or None when the writer refuses them; only
    trees with a field that is not plain may be refused."""
    try:
        return write(trees, *args)
    except TreebankFormatError as exc:
        assert re.match(r'(tree|sentence) \d+: ', str(exc))
        assert not all(map(_plain, trees))
        return None


def _unlexicalized(tree, lemma=True, morph=True):
    """unlexicalize(tree), dropping what the format does not store."""
    tokens = tuple(Token(t.position, t.form, t.pos,
                         t.lemma if lemma else None,
                         t.morph if morph else None)
                   for t in tree.sentence)
    return unlexicalize(CTree(tree.root, Sentence(tokens)))


@FUZZ
@given(st.lists(generated_trees(), min_size=1, max_size=4),
       st.sampled_from([3, 4]))
def test_export_roundtrip(trees, version):
    expected = []
    for tree in trees:
        raw = _unlexicalized(tree, lemma=version == 4)
        # a bare preterminal root comes back under a synthesized VROOT
        expected.append(RawNode('VROOT', (raw,))
                        if isinstance(raw, Token) else raw)
    text = _written(write_export, trees, version)
    if text is not None:
        assert read_export(text) == expected


@FUZZ
@given(st.lists(generated_trees(disc=(0.0,)), min_size=1, max_size=4))
def test_bracketed_roundtrip(trees):
    assert all(map(is_continuous, trees))
    text = _written(write_bracketed, trees)
    if text is not None:
        assert read_bracketed(text) == [
            _unlexicalized(t, lemma=False, morph=False) for t in trees]


@FUZZ
@given(st.lists(generated_trees(), max_size=4), st.booleans())
def test_conll_roundtrip(trees, hn):
    corpus = [encode_hn(t) if hn else encode_direct(ctree_to_dtree(t))
              for t in trees]
    text = _written(write_conll, corpus)
    if text is not None:
        assert read_conll(text) == corpus


@FUZZ
@given(st.lists(generated_trees(), max_size=4))
def test_json_roundtrip(trees):
    assert read_json_corpus(write_json_corpus(trees)) == trees
