"""Treebank readers and writers.

Four formats:

* bracketed: one tree per line, ``(S (NP (DT The) ...) ...)``; an extra
  label-less outer wrapper ``( ... )`` is tolerated on input, a
  label-less bracket anywhere inside the tree is not.  Continuous
  trees only; the writer refuses discontinuous input and points to export.
* export: NEGRA/TIGER export 3 or 4.  ``#BOS n`` .. ``#EOS n`` blocks,
  terminals in order, ``#5xx`` constituent lines with parent pointers;
  parent 0 attaches at the top.  A VROOT node is synthesized when a block
  has several top-level units.  Discontinuity is fully supported.
* conll: CoNLL-X, ten tab-separated columns, for encoded dependency
  trees.  The root row carries HEAD 0 and the literal ``_root_`` (or an
  ``<spine>#0`` root label under the hn scheme).  The reader checks the
  columns, IDs and HEAD range of each row and takes HEAD and DEPREL as
  written, whether or not the heads form a tree.
* json: a canonical one-line-per-tree dump of lexicalized trees, used for
  golden files and debugging.

read_sentences (split_sentences and parse_sentence) reads the input of
``hodt parse``: ``form/POS`` lines or CoNLL token columns.

Readers take a string or an iterable of lines, tolerate CRLF, and report
malformed input as TreebankFormatError with file/line positions.
Bracketed and export readers yield unlexicalized RawNode trees over
Token leaves (feed them to headrules.lexicalize); the json reader
returns CTrees since the format stores head positions.  The three tree
readers reject a tree nested deeper than MAX_DEPTH levels.

Each reader is a split of the text into one unit per tree or sentence
(split_lines, split_export, split_conll, split_sentences), which finds
only the faults between units, and a parse of each unit (parse_*).  A
split yields the units as it goes and raises at its first fault, so an
error inside an earlier unit is reported first.  The units hold their
line numbers, so the hodt commands can parse them in their workers.
Each writer joins the LF text of one tree at a time, render(i, tree,
path) of tree i from 1: write_conll the blocks of render_conll, and
write_bracketed, write_export and write_json_corpus (join_trees) those
of render_bracketed, render_export and render_json.  Every render but
json's refuses a field that its own reader would misread (_MISREAD).
TREE_FORMATS holds the split, parse and render of each constituent
tree format, and sniff_format names the format of a text.
"""

import json
import re
from collections import namedtuple
from itertools import chain

from .errors import TreebankFormatError
from .trees import (
    PRETERMINAL, PROPER, CTree, DTree, RawNode, Sentence, Token,
    is_continuous, iter_nodes, preterminal, proper, validate)

# deepest nesting a tree reader accepts, counting the root and the
# preterminal (and, in bracketed text, a label-less wrapper).  The tree
# walkers recurse: at the default recursion limit, `hodt check` fails
# near 250 levels, so this keeps a margin of about two
MAX_DEPTH = 128


# fields a reader misreads: empty, split at whitespace or nested at '('
# or ')'; an export form read as a #BOS, #EOS, #FORMAT or node line; an
# export lemma or morphology '--', read as none; a CoNLL field split at a
# tab or a line break (file reads turn '\r' into one), and a CoNLL lemma
# or FEATS '_', read as none
_MISREAD = {
    'bracketed': dict.fromkeys(('form', 'tag', 'label'),
                               re.compile(r'[\s()]|\A\Z')),
    'export': {'form': re.compile(r'\s|\A\Z|\A#(BOS|EOS|FORMAT|\d+\Z)'),
               **dict.fromkeys(('tag', 'label'), re.compile(r'\s|\A\Z')),
               **dict.fromkeys(('lemma', 'morph'),
                               re.compile(r'\s|\A(--)?\Z'))},
    'conll': {**dict.fromkeys(('form', 'tag', 'label'),
                              re.compile('[\t\n\r]')),
              **dict.fromkeys(('lemma', 'morph'),
                              re.compile(r'[\t\n\r]|\A_\Z'))},
}


def _lines_of(source):
    """The lines of source, without their line ends."""
    pieces = _pieces(source) if isinstance(source, str) else (source,)
    for line in chain.from_iterable(pieces):
        yield line.rstrip('\r\n')


def _pieces(text):
    """The lines of text in lists of under 4 KiB, each cut at a line
    feed, so they are never all held at once; a line across a 4 KiB
    mark alone, so that it is copied once."""
    start = 0
    while True:
        end = text.find('\n', start + 4096)
        if end < 0:
            end = len(text)
        cut = text.rfind('\n', start, start + 4096)
        if cut >= 0:
            yield text[start:cut].split('\n')
            start = cut + 1
        yield (text[start:end],)
        if end == len(text):
            return
        start = end + 1


def split_lines(source, path=None):
    """The (line number, text) of each non-blank line: the units of the
    one-tree-per-line formats, which have no fault between units (path,
    which every split takes, goes unused)."""
    for lineno, line in enumerate(_lines_of(source), 1):
        if line.strip():
            yield lineno, line


# --- bracketed --------------------------------------------------------------

_BRACKET_TOKEN = re.compile(r'[()]|[^\s()]+')


def parse_bracketed(unit, path=None):
    """The tree on one (line number, text) unit; a constituent becomes a
    RawNode or a Token leaf when its ) closes it, so leaves are numbered
    left to right."""
    lineno, line = unit
    stack = []
    result = None
    leaves = 0
    for tok in _BRACKET_TOKEN.findall(line):
        if tok == '(':
            if len(stack) == MAX_DEPTH:
                raise TreebankFormatError(
                    f'nesting deeper than {MAX_DEPTH}', path, lineno)
            stack.append([None, []])
        elif tok == ')':
            if not stack:
                raise TreebankFormatError('unbalanced )', path, lineno)
            label, children = stack.pop()
            if label is None:
                # label-less wrapper: must be outermost and hold exactly
                # one subtree
                if stack:
                    raise TreebankFormatError(
                        'label-less bracket inside a tree', path, lineno)
                if len(children) != 1 or isinstance(children[0], str):
                    raise TreebankFormatError(
                        'wrapper must contain exactly one tree', path, lineno)
                node = children[0]
            elif not children:
                raise TreebankFormatError(
                    f'empty constituent {label!r}', path, lineno)
            elif len(children) == 1 and isinstance(children[0], str):
                leaves += 1
                node = Token(leaves, children[0], label)
            else:
                for child in children:
                    if isinstance(child, str):
                        raise TreebankFormatError(
                            f'word {child!r} outside a preterminal',
                            path, lineno)
                node = RawNode(label, tuple(children))
            if stack:
                stack[-1][1].append(node)
            elif result is None:
                result = node
            else:
                raise TreebankFormatError('several trees on one line', path, lineno)
        elif not stack:
            raise TreebankFormatError(f'stray token {tok!r}', path, lineno)
        elif stack[-1] == [None, []]:
            stack[-1][0] = tok      # the first token after ( is its label
        else:
            stack[-1][1].append(tok)
    if stack:
        raise TreebankFormatError('unbalanced (', path, lineno)
    if result is None:
        raise TreebankFormatError('empty tree', path, lineno)
    return result


def read_bracketed(source, path=None):
    """Parse one tree per non-blank line; returns RawNode trees."""
    return [parse_bracketed(unit, path) for unit in split_lines(source)]


def _render(node, sentence):
    if node.kind == PRETERMINAL:
        return f'({node.label} {sentence.form(node.head)})'
    inner = ' '.join(_render(c, sentence) for c in node.children)
    return f'({node.label} {inner})'


def _misread(fields, fmt):
    """The first (kind, value) of fields that the fmt reader misreads,
    or None."""
    return next(((kind, value) for kind, value in fields
                 if _MISREAD[fmt][kind].search(value)), None)


def _refuse_misread(i, tree, fmt, path=None, version=3):
    """Raise for the first field of tree i that the fmt reader misreads."""
    fields = [('form', t.form) for t in tree.sentence]
    fields += [('tag' if n.kind == PRETERMINAL else 'label', n.label)
               for n in iter_nodes(tree.root)]
    if fmt == 'export':
        fields += [(kind, value) for t in tree.sentence
                   for kind, value in (('morph', t.morph), ('lemma', t.lemma))
                   if value is not None and (kind == 'morph' or version == 4)]
    bad = _misread(fields, fmt)
    if bad is not None:
        raise TreebankFormatError(
            f'tree {i}: {bad[0]} {bad[1]!r} cannot be written in the '
            f'{fmt} format; write it with --format json', path)


def render_bracketed(i, tree, path=None):
    """The line of lexicalized tree i (counted from 1).  Continuous trees
    only."""
    if not is_continuous(tree):
        raise TreebankFormatError(
            f'tree {i} is discontinuous; write it in the export format', path)
    _refuse_misread(i, tree, 'bracketed', path)
    return _render(tree.root, tree.sentence)


def join_trees(units):
    """The file of rendered trees, one line or export block each."""
    return '\n'.join(units) + '\n'


def write_bracketed(trees, path=None):
    """One line per tree (render_bracketed)."""
    return join_trees(render_bracketed(i, tree, path)
                      for i, tree in enumerate(trees, 1))


# --- export -----------------------------------------------------------------

def parse_export(unit, path=None):
    """The tree of one (#BOS line, format version, lines) block of
    split_export."""
    bos_line, version, lines = unit
    nodes = {}
    units = []      # (parent field, token leaf or node id, line) in order
    tokens = 0
    for lineno, line in enumerate(lines, bos_line + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if line.startswith('#') and parts[0][1:].isdecimal():
            node_id = int(parts[0][1:])
            if version == 4:
                parts = parts[:1] + parts[2:]  # drop the lemma column
            if len(parts) < 5:
                raise TreebankFormatError('short node line', path, lineno)
            if node_id in nodes:
                raise TreebankFormatError(
                    f'duplicate node id {node_id}', path, lineno)
            nodes[node_id] = {
                'label': parts[1], 'children': [], 'line': lineno}
            units.append((parts[4], node_id, lineno))
        else:
            if version == 3:
                parts.insert(1, None)   # no lemma column
            if len(parts) < 6:
                raise TreebankFormatError('short token line', path, lineno)
            form, lemma, tag, morph, _, parent = parts[:6]
            tokens += 1
            units.append((parent, Token(
                tokens, form, tag, None if lemma in (None, '--') else lemma,
                None if morph == '--' else morph), lineno))
    tops = []
    for parent_field, unit, lineno in units:
        if not parent_field.isdecimal():
            raise TreebankFormatError(
                f'bad parent pointer {parent_field!r}', path, lineno)
        parent = int(parent_field)
        if parent == 0:
            tops.append(unit)
        elif parent in nodes:
            nodes[parent]['children'].append(unit)
        else:
            raise TreebankFormatError(
                f'dangling parent pointer {parent}', path, lineno)

    # several top-level units, or a bare token, go under a synthesized VROOT
    vroot = len(tops) != 1 or isinstance(tops[0], Token)
    # every unit has one parent pointer, so a node is either reached from
    # the top or sits on (or under) a parent cycle
    reached = set()

    def build(unit, depth):
        """(subtree, its smallest position), children sorted by theirs."""
        if isinstance(unit, Token):
            return unit, unit.position
        reached.add(unit)
        entry = nodes[unit]
        if not entry['children']:
            raise TreebankFormatError(
                f'node {unit} has no children', path, entry['line'])
        if depth == MAX_DEPTH:
            raise TreebankFormatError(
                f'nesting deeper than {MAX_DEPTH}', path, entry['line'])
        kids = sorted((build(c, depth + 1) for c in entry['children']),
                      key=lambda kid: kid[1])
        return RawNode(entry['label'], tuple(k for k, _ in kids)), kids[0][1]

    built = sorted((build(u, 2 if vroot else 1) for u in tops),
                   key=lambda top: top[1])
    for node_id in nodes:
        if node_id not in reached:
            raise TreebankFormatError(
                f'node {node_id} unreachable from the top (parent cycle)',
                path, nodes[node_id]['line'])
    if not built:
        raise TreebankFormatError('empty sentence block', path, bos_line)
    if vroot:
        return RawNode('VROOT', tuple(t for t, _ in built))
    return built[0][0]


def split_export(source, path=None):
    """Each #BOS..#EOS block as (#BOS line, format version, the lines
    between); raises at the first fault outside the blocks.  The version
    is 3, or 4 after a ``#FORMAT 4`` line.

    Outside the #BOS..#EOS blocks only blank lines, ``#FORMAT 3`` and
    ``#FORMAT 4`` lines, %% comments and #BOT..#EOT header tables may
    appear.  Each block's lines are collected as the split reads them,
    so the lines of the whole input are never held at once.
    """
    bos_line = None     # line of the open #BOS
    block = []          # the lines after it so far
    table = None        # line of the open #BOT
    version = 3
    for lineno, line in enumerate(_lines_of(source), 1):
        stripped = line.strip()
        # in a block, every line but these three is the block's
        if bos_line is not None and not stripped.startswith(
                ('#EOS', '#BOS', '#FORMAT')):
            block.append(line)
            continue
        if not stripped:
            continue
        if table is not None:
            if stripped.startswith('#EOT'):
                table = None
            continue
        if stripped.startswith('#FORMAT'):
            if bos_line is not None:
                raise TreebankFormatError(
                    '#FORMAT inside a #BOS block', path, lineno)
            parts = stripped.split()
            if parts not in (['#FORMAT', '3'], ['#FORMAT', '4']):
                raise TreebankFormatError(
                    f'expected #FORMAT 3 or #FORMAT 4, got {stripped[:30]!r}',
                    path, lineno)
            version = int(parts[1])
            continue
        if stripped.startswith('%%'):
            continue
        if stripped.startswith('#BOT'):
            table = lineno
            continue
        if stripped.startswith('#BOS'):
            if bos_line is not None:
                raise TreebankFormatError('#BOS inside a block', path, lineno)
            bos_line = lineno
            continue
        if stripped.startswith('#EOS'):
            if bos_line is None:
                raise TreebankFormatError('#EOS outside a block', path, lineno)
            yield bos_line, version, block
            bos_line, block = None, []
            continue
        raise TreebankFormatError(
            f'expected #BOS, got {stripped[:30]!r}', path, lineno)
    if table is not None:
        raise TreebankFormatError('unterminated #BOT table', path, table)
    if bos_line is not None:
        raise TreebankFormatError('unterminated #BOS block', path, bos_line)


def read_export(source, path=None):
    """Parse the export blocks of split_export; returns RawNode trees."""
    return [parse_export(unit, path) for unit in split_export(source, path)]


def render_export(i, tree, path=None, version=3):
    """The #BOS i..#EOS i block of lexicalized tree i; a VROOT root is
    implicit in the format, so its children attach at the top (0)."""
    _refuse_misread(i, tree, 'export', path, version)
    root = tree.root
    vroot = root.kind == PROPER and root.label == 'VROOT'
    internal = []   # (yield, -depth, node, parent), parents first
    leaf_of = {}    # position -> (preterminal label, parent)
    stack = [(top, None, 0)
             for top in reversed(root.children if vroot else (root,))]
    while stack:
        node, parent, depth = stack.pop()
        if node.kind == PRETERMINAL:
            leaf_of[node.head] = (node.label, parent)
        else:
            internal.append((sorted(node.positions), -depth, node, parent))
            stack.extend((c, node, depth + 1)
                         for c in reversed(node.children))
    # deepest-first within a yield so ids grow bottom-up
    internal.sort(key=lambda entry: entry[:2])
    ids = {id(None): 0}     # no parent: attached at the top
    ids.update((id(node), 500 + k)
               for k, (_, _, node, _) in enumerate(internal))
    # version 4 rows; version 3 has no lemma column.  A lemma or
    # morphology is never '' here: _refuse_misread refuses it
    rows = [(tok.form, tok.lemma or '--', leaf_of[tok.position][0],
             tok.morph or '--', '--', ids[id(leaf_of[tok.position][1])])
            for tok in tree.sentence]
    rows += [(f'#{ids[id(node)]}', '--', node.label, '--', '--',
              ids[id(parent)]) for _, _, node, parent in internal]
    lines = ['\t'.join(map(str, row if version == 4 else row[:1] + row[2:]))
             for row in rows]
    return '\n'.join([f'#BOS {i}', *lines, f'#EOS {i}'])


def write_export(trees, version=3, path=None):
    """The export file of the trees (render_export), after a ``#FORMAT
    4`` line in version 4."""
    blocks = (render_export(i, tree, path, version)
              for i, tree in enumerate(trees, 1))
    return join_trees(chain(['#FORMAT 4'] if version == 4 else [], blocks))


# --- conll ------------------------------------------------------------------

_CONLL_COLUMNS = 10


def _conll_token(cols, expected, path, lineno):
    """The token of a CoNLL row whose ID must be `expected`; POS falls
    back to CPOS, and `_` in LEMMA or FEATS means none."""
    ident, form, lemma, cpos, pos, feats = cols[:6]
    if not ident.isdecimal() or int(ident) != expected:
        raise TreebankFormatError(
            f'token id {ident!r}, expected {expected}', path, lineno)
    return Token(expected, form, pos if pos != '_' else cpos,
                 None if lemma == '_' else lemma,
                 None if feats == '_' else feats)


def split_conll(source, path=None):
    """The rows of each blank-line-separated sentence, as a list of
    (line number, columns split at tabs); CoNLL has no fault between
    units."""
    sentence = []
    for lineno, line in enumerate(_lines_of(source), 1):
        if not line.strip():
            if sentence:
                yield sentence
                sentence = []
            continue
        sentence.append((lineno, line.split('\t')))
    if sentence:
        yield sentence


def parse_conll(rows, path=None):
    """The encoded dependency tree of one unit of split_conll, its heads
    and labels as written: a sentence with no root, several roots or a
    head cycle reads like any other (trees.validate names what is
    wrong with it)."""
    tokens, heads, labels = [], [], []
    for expected, (lineno, cols) in enumerate(rows, 1):
        if len(cols) != _CONLL_COLUMNS:
            raise TreebankFormatError(
                f'expected {_CONLL_COLUMNS} columns, got {len(cols)}',
                path, lineno)
        tokens.append(_conll_token(cols, expected, path, lineno))
        head, deprel = cols[6:8]
        try:
            heads.append(int(head))
        except ValueError:
            raise TreebankFormatError(
                f'HEAD {head!r} is not an integer', path, lineno) from None
        labels.append(deprel)
    n = len(tokens)
    for lineno, cols in rows:
        if not 0 <= int(cols[6]) <= n:
            raise TreebankFormatError(
                f'HEAD {cols[6]} out of range', path, lineno)
    return DTree(Sentence(tuple(tokens)), tuple(heads), tuple(labels))


def read_conll(source, path=None):
    """Parse encoded dependency trees (parse_conll)."""
    return [parse_conll(rows, path) for rows in split_conll(source)]


def _conll_fields(enc):
    """(kind, value) of each field write_conll writes for enc, bar a
    missing lemma or morphology."""
    for tok, label in zip(enc.sentence, enc.labels):
        for kind, value in (('form', tok.form), ('lemma', tok.lemma),
                            ('tag', tok.pos), ('morph', tok.morph),
                            ('label', label)):
            if value is not None:
                yield kind, value


def render_conll(i, enc, path=None):
    """The CoNLL-X rows of encoded tree i (counted from 1); POS fills
    CPOS and POS, and a missing lemma or morphology is `_`."""
    rows = []
    for tok, head, label in zip(enc.sentence, enc.heads, enc.labels):
        lemma = tok.lemma if tok.lemma is not None else '_'
        feats = tok.morph if tok.morph is not None else '_'
        rows.append('\t'.join((
            str(tok.position), tok.form, lemma, tok.pos, tok.pos,
            feats, str(head), label, '_', '_')))
    block = '\n'.join(rows)
    # _MISREAD['conll'] tested on the whole block, as one search per
    # field costs about 5% of `hodt convert`: a tab or line break in
    # a field adds one to the block, and a lemma or FEATS '_' shows
    # only on the tokens
    if (block.count('\t') != 9 * len(rows) or '\r' in block
            or block.count('\n') != len(rows) - 1
            or any('_' in (t.lemma, t.morph) for t in enc.sentence)):
        kind, value = _misread(_conll_fields(enc), 'conll')
        raise TreebankFormatError(
            f'sentence {i}: {kind} {value!r} cannot be written in '
            f'the CoNLL format', path)
    return block


def join_conll(blocks):
    """The CoNLL file of the blocks of render_conll."""
    return '\n\n'.join(blocks) + '\n'


def write_conll(corpus, path=None):
    """The CoNLL-X file of encoded trees (render_conll)."""
    return join_conll(render_conll(i, enc, path)
                      for i, enc in enumerate(corpus, 1))


# --- parser input -----------------------------------------------------------

def split_sentences(source, path=None):
    """The sentences to parse, in one of two layouts picked by the first
    non-blank line: CoNLL token columns if it holds a tab (ID, FORM,
    LEMMA, CPOS, POS, FEATS and any further columns, one token per row,
    a blank line after each sentence), else one sentence per line of
    whitespace-separated ``form/POS`` tokens.  Each unit is (CoNLL or
    not, the (line number, text) of its rows); input with no unit is
    the one fault."""
    rows = []
    conll = None
    for lineno, line in enumerate(_lines_of(source), 1):
        if not line.strip():
            if rows:
                yield True, rows
                rows = []
            continue
        if conll is None:
            conll = '\t' in line
        if conll:
            rows.append((lineno, line))
        else:
            yield False, [(lineno, line)]
    if rows:
        yield True, rows
    if conll is None:
        raise TreebankFormatError('empty input', path)


def parse_sentence(unit, path=None):
    """The Sentence of one unit of split_sentences.  A form/POS token
    needs a non-empty form and POS; it splits at its last ``/``."""
    conll, rows = unit
    tokens = []
    for lineno, line in rows:
        if conll:
            cols = line.split('\t')
            if len(cols) < 6:
                raise TreebankFormatError(
                    f'token row needs at least 6 columns, got {len(cols)}',
                    path, lineno)
            tokens.append(_conll_token(cols, len(tokens) + 1, path, lineno))
            continue
        for item in line.split():
            form, _, pos = item.rpartition('/')
            if not (form and pos):
                raise TreebankFormatError(
                    f'expected form/POS tokens, got {item!r}', path, lineno)
            tokens.append(Token(len(tokens) + 1, form, pos))
    return Sentence(tuple(tokens))


def read_sentences(source, path=None):
    """Parse the sentences of split_sentences."""
    return [parse_sentence(unit, path)
            for unit in split_sentences(source, path)]


# --- canonical json ---------------------------------------------------------

def _node_to_obj(node):
    if node.kind == 'preterminal':
        return {'label': node.label, 'head': node.head}
    return {'label': node.label, 'head': node.head,
            'children': [_node_to_obj(c) for c in node.children]}


def _node_from_obj(obj, sentence, path, lineno, depth=1):
    if not isinstance(obj, dict):
        raise TreebankFormatError('node must be an object', path, lineno)
    label, head = obj.get('label'), obj.get('head')
    if not isinstance(label, str):
        raise TreebankFormatError('node label must be a string', path, lineno)
    if type(head) is not int or not 1 <= head <= len(sentence):
        raise TreebankFormatError(
            f'node head must be a position in 1..{len(sentence)}, '
            f'got {head!r}', path, lineno)
    if 'children' not in obj:
        return preterminal(label, head)
    children = obj['children']
    if not isinstance(children, list) or not children:
        raise TreebankFormatError(
            'node children must be a non-empty list', path, lineno)
    if depth == MAX_DEPTH:
        raise TreebankFormatError(
            f'nesting deeper than {MAX_DEPTH}', path, lineno)
    return proper(label, head, [
        _node_from_obj(c, sentence, path, lineno, depth + 1)
        for c in children])


def _is_token_row(row):
    return (isinstance(row, list) and len(row) == 4
            and all(isinstance(x, str) for x in row[:2])
            and all(x is None or isinstance(x, str) for x in row[2:]))


def render_json(i, tree, path=None):
    """The one-line JSON object of tree i (i and path, which every render
    takes, go unused)."""
    obj = {'tokens': [[t.form, t.pos, t.lemma, t.morph]
                      for t in tree.sentence],
           'root': _node_to_obj(tree.root)}
    return json.dumps(obj, sort_keys=True, separators=(',', ':'),
                      ensure_ascii=False)


def write_json_corpus(trees):
    """One line per tree (render_json)."""
    return join_trees(render_json(i, tree)
                      for i, tree in enumerate(trees, 1))


def parse_json(unit, path=None):
    """The CTree of one (line number, text) unit."""
    lineno, line = unit
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TreebankFormatError(f'bad json: {exc}', path, lineno) from None
    except RecursionError:
        raise TreebankFormatError(
            f'nesting deeper than {MAX_DEPTH}', path, lineno) from None
    if not isinstance(obj, dict) or not {'tokens', 'root'} <= obj.keys():
        raise TreebankFormatError(
            'expected an object with tokens and root', path, lineno)
    rows = obj['tokens']
    if not isinstance(rows, list) or not all(map(_is_token_row, rows)):
        raise TreebankFormatError(
            'tokens must be a list of [form, pos, lemma, morph] rows '
            '(lemma and morph may be null)', path, lineno)
    sentence = Sentence(tuple(
        Token(i, *row) for i, row in enumerate(rows, 1)))
    tree = CTree(_node_from_obj(obj['root'], sentence, path, lineno),
                 sentence)
    problems = validate(tree)
    if problems:
        raise TreebankFormatError(
            f'malformed tree: {problems[0]}', path, lineno)
    return tree


def read_json_corpus(source, path=None):
    """Parse one tree per non-blank line; returns CTrees."""
    return [parse_json(unit, path) for unit in split_lines(source)]


# --- the tree formats -------------------------------------------------------

TreeFormat = namedtuple('TreeFormat', 'split parse render')

# each constituent tree format: its split into one unit per tree, its
# parse of one unit and its render(i, tree, path) of tree i
TREE_FORMATS = {
    'bracketed': TreeFormat(split_lines, parse_bracketed, render_bracketed),
    'export': TreeFormat(split_export, parse_export, render_export),
    'json': TreeFormat(split_lines, parse_json, render_json),
}


# the first character of the first non-blank line: \s and str.isspace
# agree on what is blank
_NON_BLANK = re.compile(r'\S')


def sniff_format(source, path=None):
    """The format its first non-blank line gives source: a TREE_FORMATS
    name, 'conll' (CoNLL-X rows) or 'tagged' (form/POS lines).  The line
    is read by offsets into source: only the first column of a line of
    ten or more columns is copied, to be read as digits."""
    found = _NON_BLANK.search(source)
    if found is None:
        raise TreebankFormatError('empty input', path)
    start = found.start()
    if source.startswith(('#FORMAT', '#BOS'), start):
        return 'export'
    if source.startswith('{', start):
        return 'json'
    if source.startswith('(', start):
        return 'bracketed'
    # the line's columns: its tabs before its last non-blank character
    end = source.find('\n', start)
    if end < 0:
        end = len(source)
    while source[end - 1].isspace():
        end -= 1
    tab = source.find('\t', start, end)
    if (tab >= 0 and source.count('\t', tab, end) >= 9
            and source[start:tab].isdigit()):
        return 'conll'
    return 'tagged'
