"""Treebank readers and writers.

Four formats:

* bracketed: one tree per line, ``(S (NP (DT The) ...) ...)``; an extra
  label-less outer wrapper ``( ... )`` is tolerated on input.  Continuous
  trees only; the writer refuses discontinuous input and points to export.
* export: NEGRA/TIGER export 3 or 4.  ``#BOS n`` .. ``#EOS n`` blocks,
  terminals in order, ``#5xx`` constituent lines with parent pointers;
  parent 0 attaches at the top.  A VROOT node is synthesized when a block
  has several top-level units.  Discontinuity is fully supported.
* conll: CoNLL-X ten-column, for encoded dependency trees.  The root row
  carries HEAD 0 and the literal ``_root_`` (or an ``<spine>#0`` root
  label under the hn scheme).
* json: a canonical one-line-per-tree dump of lexicalized trees, used for
  golden files and debugging.

read_sentences reads the input of ``hodt parse``: ``form/POS`` lines or
CoNLL token columns.

Readers take a string or an iterable of lines, tolerate CRLF, and report
malformed input as TreebankFormatError with file/line positions; writers
render lexicalized CTrees and return LF-terminated text.  Bracketed and
export readers yield unlexicalized RawNode trees over Token leaves (feed
them to headrules.lexicalize); the json reader returns CTrees since the format
stores head positions.  The three tree readers reject a tree nested
deeper than MAX_DEPTH levels.  Every writer but json refuses a tree
with a field that its own reader would misread (_MISREAD).
"""

import json
import re

from .encoding import ROOT_LABEL
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
    if isinstance(source, str):
        source = source.split('\n')
    for line in source:
        yield line.rstrip('\r\n')


# --- bracketed --------------------------------------------------------------

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


def _parse_bracket_line(line, lineno, path):
    """The tree on one line; a constituent becomes a RawNode or a Token
    leaf when its ) closes it, so leaves are numbered left to right."""
    stack = []
    result = None
    leaves = 0
    expect_label = False
    for tok in _tokenize_brackets(line):
        if tok == '(':
            if len(stack) == MAX_DEPTH:
                raise TreebankFormatError(
                    f'nesting deeper than {MAX_DEPTH}', path, lineno)
            stack.append([None, []])
            expect_label = True
        elif tok == ')':
            if not stack:
                raise TreebankFormatError('unbalanced )', path, lineno)
            label, children = stack.pop()
            if label is None:
                # label-less wrapper: must hold exactly one subtree
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
            expect_label = False
        else:
            if expect_label and stack[-1][0] is None and not stack[-1][1]:
                stack[-1][0] = tok
            elif stack:
                stack[-1][1].append(tok)
            else:
                raise TreebankFormatError(f'stray token {tok!r}', path, lineno)
            expect_label = False
    if stack:
        raise TreebankFormatError('unbalanced (', path, lineno)
    if result is None:
        raise TreebankFormatError('empty tree', path, lineno)
    return result


def read_bracketed(source, path=None):
    """Parse one tree per non-blank line; returns RawNode trees."""
    return [_parse_bracket_line(line, lineno, path)
            for lineno, line in enumerate(_lines_of(source), 1)
            if line.strip()]


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


def write_bracketed(trees, path=None):
    """One line per tree, rendered from the lexicalized tree.  Continuous
    trees only."""
    lines = []
    for i, tree in enumerate(trees, 1):
        if not is_continuous(tree):
            raise TreebankFormatError(
                f'tree {i} is discontinuous; write it in the export format',
                path)
        _refuse_misread(i, tree, 'bracketed', path)
        lines.append(_render(tree.root, tree.sentence))
    return '\n'.join(lines) + '\n'


# --- export -----------------------------------------------------------------

def _parse_export_block(block, bos_line, version, path):
    nodes = {}
    units = []      # (parent field, token leaf or node id, line) in order
    tokens = 0
    for lineno, line in block:
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
            if version == 4:
                if len(parts) < 6:
                    raise TreebankFormatError('short token line', path, lineno)
                form, lemma, tag, morph, parent = (
                    parts[0], parts[1], parts[2], parts[3], parts[5])
            else:
                if len(parts) < 5:
                    raise TreebankFormatError('short token line', path, lineno)
                form, lemma, tag, morph, parent = (
                    parts[0], None, parts[1], parts[2], parts[4])
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


def read_export(source, path=None):
    """Parse export blocks of format 3, or 4 after a ``#FORMAT 4`` line.

    Outside the #BOS..#EOS blocks only blank lines, #FORMAT lines, %%
    comments and #BOT..#EOT header tables may appear.
    """
    trees = []
    block = None
    bos_line = None
    table = None    # line of the open #BOT
    version = 3
    for lineno, line in enumerate(_lines_of(source), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if table is not None:
            if stripped.startswith('#EOT'):
                table = None
            continue
        if stripped.startswith('#FORMAT'):
            parts = stripped.split()
            if len(parts) == 2 and parts[1] in ('3', '4'):
                version = int(parts[1])
            continue
        if block is None and stripped.startswith('%%'):
            continue
        if block is None and stripped.startswith('#BOT'):
            table = lineno
            continue
        if stripped.startswith('#BOS'):
            if block is not None:
                raise TreebankFormatError('#BOS inside a block', path, lineno)
            block = []
            bos_line = lineno
            continue
        if stripped.startswith('#EOS'):
            if block is None:
                raise TreebankFormatError('#EOS outside a block', path, lineno)
            trees.append(_parse_export_block(
                block, bos_line, version, path))
            block = None
            continue
        if block is None:
            raise TreebankFormatError(
                f'expected #BOS, got {stripped[:30]!r}', path, lineno)
        block.append((lineno, stripped))
    if table is not None:
        raise TreebankFormatError('unterminated #BOT table', path, table)
    if block is not None:
        raise TreebankFormatError('unterminated #BOS block', path, bos_line)
    return trees


def write_export(trees, version=3):
    """Export blocks rendered from the lexicalized trees; a VROOT root is
    implicit in the format, so its children attach at the top (0)."""
    lines = []
    if version == 4:
        lines.append('#FORMAT 4')
    for i, tree in enumerate(trees, 1):
        _refuse_misread(i, tree, 'export', version=version)
        lines.append(f'#BOS {i}')
        root = tree.root
        if root.kind == PROPER and root.label == 'VROOT':
            tops = root.children
        else:
            tops = (root,)
        internal = []   # (yield, -depth, node, parent), parents first
        leaf_of = {}    # position -> (preterminal label, parent)
        stack = [(top, None, 0) for top in reversed(tops)]
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
        for tok in tree.sentence:
            tag, parent = leaf_of[tok.position]
            parent = ids[id(parent)]
            morph = tok.morph if tok.morph is not None else '--'
            if version == 4:
                lemma = tok.lemma if tok.lemma is not None else '--'
                lines.append(
                    f'{tok.form}\t{lemma}\t{tag}\t{morph}\t--\t{parent}')
            else:
                lines.append(f'{tok.form}\t{tag}\t{morph}\t--\t{parent}')
        for _, _, node, parent in internal:
            parent = ids[id(parent)]
            if version == 4:
                lines.append(
                    f'#{ids[id(node)]}\t--\t{node.label}\t--\t--\t{parent}')
            else:
                lines.append(
                    f'#{ids[id(node)]}\t{node.label}\t--\t--\t{parent}')
        lines.append(f'#EOS {i}')
    return '\n'.join(lines) + '\n'


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


def _conll_rows(source):
    sentence = []
    for lineno, line in enumerate(_lines_of(source), 1):
        if not line.strip():
            if sentence:
                yield sentence
                sentence = []
            continue
        cols = line.split('\t')
        if len(cols) < _CONLL_COLUMNS:
            cols = line.split()
        sentence.append((lineno, cols))
    if sentence:
        yield sentence


def read_conll(source, path=None, on_root_anomaly='repair', stats=None):
    """Parse encoded dependency trees.  Sentences with zero or several
    HEAD-0 rows are repaired (counted in stats['root_repairs']) or
    rejected, per on_root_anomaly; cycles likewise
    (stats['cycle_repairs'])."""
    if on_root_anomaly not in ('repair', 'reject'):
        raise ValueError("on_root_anomaly must be 'repair' or 'reject'")
    corpus = []
    for rows in _conll_rows(source):
        tokens = []
        heads = []
        labels = []
        first_line = rows[0][0]
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
        roots = [i for i, h in enumerate(heads) if h == 0]
        if len(roots) != 1:
            if on_root_anomaly == 'reject':
                raise TreebankFormatError(
                    f'{len(roots)} root tokens', path, first_line)
            if stats is not None:
                stats['root_repairs'] = stats.get('root_repairs', 0) + 1
            if not roots:
                heads[0] = 0
                labels[0] = ROOT_LABEL
                roots = [0]
            else:
                keep = roots[0]
                for extra in roots[1:]:
                    heads[extra] = keep + 1
        # break any cycle left by the input or the root repair
        root_pos = roots[0] + 1
        for start in range(1, n + 1):
            seen = set()
            v = start
            while v != 0 and v not in seen:
                seen.add(v)
                v = heads[v - 1]
            if v != 0 and v == start:
                if on_root_anomaly == 'reject':
                    raise TreebankFormatError(
                        f'cycle through token {start}', path, first_line)
                if stats is not None:
                    stats['cycle_repairs'] = stats.get('cycle_repairs', 0) + 1
                heads[start - 1] = root_pos
        corpus.append(DTree(
            Sentence(tuple(tokens)), tuple(heads), tuple(labels)))
    return corpus


def _conll_fields(enc):
    """(kind, value) of each field write_conll writes for enc, bar a
    missing lemma or morphology."""
    for tok, label in zip(enc.sentence, enc.labels):
        for kind, value in (('form', tok.form), ('lemma', tok.lemma),
                            ('tag', tok.pos), ('morph', tok.morph),
                            ('label', label)):
            if value is not None:
                yield kind, value


def write_conll(corpus, path=None):
    """CoNLL-X rows of encoded trees; POS fills CPOS and POS, and a
    missing lemma or morphology is `_`."""
    blocks = []
    for i, enc in enumerate(corpus, 1):
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
        blocks.append(block)
    return '\n\n'.join(blocks) + '\n'


# --- parser input -----------------------------------------------------------

def read_sentences(source, path=None):
    """Sentences to parse, in one of two layouts picked by the first
    non-blank line: CoNLL token columns if it holds a tab (ID, FORM,
    LEMMA, CPOS, POS, FEATS and any further columns, one token per row,
    a blank line after each sentence), else one sentence per line of
    whitespace-separated ``form/POS`` tokens."""
    sentences = []
    tokens = []
    conll = None
    for lineno, line in enumerate(_lines_of(source), 1):
        if not line.strip():
            if tokens:
                sentences.append(Sentence(tuple(tokens)))
                tokens = []
            continue
        if conll is None:
            conll = '\t' in line
        if conll:
            cols = line.split('\t')
            if len(cols) < 6:
                raise TreebankFormatError(
                    f'token row needs at least 6 columns, got {len(cols)}',
                    path, lineno)
            tokens.append(_conll_token(cols, len(tokens) + 1, path, lineno))
            continue
        for item in line.split():
            if '/' not in item:
                raise TreebankFormatError(
                    f'expected form/POS tokens, got {item!r}', path, lineno)
            form, pos = item.rsplit('/', 1)
            tokens.append(Token(len(tokens) + 1, form, pos))
        sentences.append(Sentence(tuple(tokens)))
        tokens = []
    if tokens:
        sentences.append(Sentence(tuple(tokens)))
    if not sentences:
        raise TreebankFormatError('empty input', path)
    return sentences


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


def write_json_corpus(trees):
    lines = []
    for tree in trees:
        obj = {
            'tokens': [[t.form, t.pos, t.lemma, t.morph]
                       for t in tree.sentence],
            'root': _node_to_obj(tree.root)}
        lines.append(json.dumps(obj, sort_keys=True, separators=(',', ':'),
                                ensure_ascii=False))
    return '\n'.join(lines) + '\n'


def read_json_corpus(source, path=None):
    trees = []
    for lineno, line in enumerate(_lines_of(source), 1):
        if not line.strip():
            continue
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
        trees.append(tree)
    return trees
