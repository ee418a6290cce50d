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

Readers take a string or an iterable of lines, tolerate CRLF, and report
malformed input as TreebankFormatError with file/line positions; writers
return LF-terminated text.  Bracketed and export readers yield
unlexicalized RawNode/RawLeaf trees (feed them to headrules.lexicalize);
the json reader returns CTrees since the format stores head positions.
"""

import json

from .encoding import ROOT_LABEL, EncodedDTree
from .errors import TreebankFormatError
from .trees import (
    CTree, RawLeaf, RawNode, Sentence, Token, is_continuous, preterminal,
    proper, unlexicalize, validate)


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
    stack = []
    result = None
    expect_label = False
    for tok in _tokenize_brackets(line):
        if tok == '(':
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
            else:
                node = (label, children)
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


def _raw_from_parse(node, counter, lineno, path):
    label, children = node
    if not children:
        raise TreebankFormatError(f'empty constituent {label!r}', path, lineno)
    if len(children) == 1 and isinstance(children[0], str):
        counter[0] += 1
        return RawLeaf(counter[0], children[0], label)
    kids = []
    for child in children:
        if isinstance(child, str):
            raise TreebankFormatError(
                f'word {child!r} outside a preterminal', path, lineno)
        kids.append(_raw_from_parse(child, counter, lineno, path))
    return RawNode(label, tuple(kids))


def read_bracketed(source, path=None):
    """Parse one tree per non-blank line; returns RawNode/RawLeaf trees."""
    trees = []
    for lineno, line in enumerate(_lines_of(source), 1):
        if not line.strip():
            continue
        parsed = _parse_bracket_line(line, lineno, path)
        if isinstance(parsed, str):
            raise TreebankFormatError('tree has no brackets', path, lineno)
        counter = [0]
        trees.append(_raw_from_parse(parsed, counter, lineno, path))
    return trees


def _render_raw(node):
    if isinstance(node, RawLeaf):
        return f'({node.pos} {node.form})'
    inner = ' '.join(_render_raw(c) for c in node.children)
    return f'({node.label} {inner})'


def write_bracketed(trees, path=None):
    """One line per tree.  Continuous trees only."""
    lines = []
    for i, tree in enumerate(trees, 1):
        if not is_continuous(tree):
            raise TreebankFormatError(
                f'tree {i} is discontinuous; write it in the export format',
                path)
        lines.append(_render_raw(unlexicalize(tree)))
    return '\n'.join(lines) + '\n'


# --- export -----------------------------------------------------------------

def _raw_min_position(node):
    if isinstance(node, RawLeaf):
        return node.position
    return min(_raw_min_position(c) for c in node.children)


def _canonical_raw(node):
    if isinstance(node, RawLeaf):
        return node
    kids = tuple(sorted((_canonical_raw(c) for c in node.children),
                        key=_raw_min_position))
    return RawNode(node.label, kids)


def _parse_export_block(block, version, path):
    terminals = []
    nodes = {}
    order = []  # (kind, key) in encounter order, for child assembly
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
                'label': parts[1], 'morph': parts[2],
                'parent': parts[4], 'children': [], 'line': lineno}
            order.append(('node', node_id))
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
            position = len(terminals) + 1
            terminals.append({
                'leaf': RawLeaf(position, form, tag,
                                None if lemma in (None, '--') else lemma,
                                None if morph == '--' else morph),
                'parent': parent, 'line': lineno})
            order.append(('token', position - 1))
    tops = []

    def attach(parent_field, unit, lineno):
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

    for kind, key in order:
        if kind == 'token':
            t = terminals[key]
            attach(t['parent'], t['leaf'], t['line'])
        else:
            attach(nodes[key]['parent'], key, nodes[key]['line'])

    # every unit has one parent pointer, so a node is either reached from
    # the top or sits on (or under) a parent cycle
    reached = set()

    def build(unit):
        if isinstance(unit, RawLeaf):
            return unit
        reached.add(unit)
        entry = nodes[unit]
        if not entry['children']:
            raise TreebankFormatError(
                f'node {unit} has no children', path, entry['line'])
        return RawNode(entry['label'],
                       tuple(build(c) for c in entry['children']))

    built_tops = [build(u) for u in tops]
    for node_id in nodes:
        if node_id not in reached:
            raise TreebankFormatError(
                f'node {node_id} unreachable from the top (parent cycle)',
                path, nodes[node_id]['line'])
    if not built_tops:
        raise TreebankFormatError('empty sentence block', path)
    if len(built_tops) == 1 and isinstance(built_tops[0], RawNode):
        root = built_tops[0]
    else:
        # several top-level units, or a bare token: house them under VROOT
        root = RawNode('VROOT', tuple(built_tops))
    return _canonical_raw(root)


def read_export(source, path=None, version=None):
    """Parse export blocks; version 3/4 taken from a #FORMAT line when not
    given explicitly (default 3).

    Outside the #BOS..#EOS blocks only blank lines, #FORMAT lines, %%
    comments and #BOT..#EOT header tables may appear.
    """
    trees = []
    block = None
    table = None    # line of the open #BOT
    declared = None
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
                declared = int(parts[1])
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
            continue
        if stripped.startswith('#EOS'):
            if block is None:
                raise TreebankFormatError('#EOS outside a block', path, lineno)
            trees.append(_parse_export_block(
                block, version or declared or 3, path))
            block = None
            continue
        if block is None:
            raise TreebankFormatError(
                f'expected #BOS, got {stripped[:30]!r}', path, lineno)
        block.append((lineno, stripped))
    if table is not None:
        raise TreebankFormatError('unterminated #BOT table', path, table)
    if block is not None:
        raise TreebankFormatError('unterminated #BOS block', path)
    return trees


def write_export(trees, version=3):
    lines = []
    if version == 4:
        lines.append('#FORMAT 4')
    for i, tree in enumerate(trees, 1):
        lines.append(f'#BOS {i}')
        raw = unlexicalize(tree)
        if isinstance(raw, RawNode) and raw.label == 'VROOT':
            tops = raw.children
        else:
            tops = (raw,)

        def collect(node, depth, acc):
            if isinstance(node, RawNode):
                acc.append((node, depth))
                for c in node.children:
                    collect(c, depth + 1, acc)

        internal = []
        for top in tops:
            collect(top, 0, internal)
        # deepest-first within a position span so ids grow bottom-up
        internal.sort(key=lambda item: (
            tuple(sorted(_raw_positions(item[0]))), -item[1]))
        ids = {id(node): 500 + k for k, (node, _) in enumerate(internal)}
        parent_of = {}
        for node, _ in internal:
            for c in node.children:
                parent_of[id(c)] = ids[id(node)]
        leaves = sorted(
            (leaf for top in tops for leaf in _raw_leaves(top)),
            key=lambda leaf: leaf.position)
        for leaf in leaves:
            parent = parent_of.get(id(leaf), 0)
            morph = leaf.morph if leaf.morph is not None else '--'
            if version == 4:
                lemma = leaf.lemma if leaf.lemma is not None else '--'
                lines.append(
                    f'{leaf.form}\t{lemma}\t{leaf.pos}\t{morph}\t--\t{parent}')
            else:
                lines.append(f'{leaf.form}\t{leaf.pos}\t{morph}\t--\t{parent}')
        for node, _ in internal:
            parent = parent_of.get(id(node), 0)
            if version == 4:
                lines.append(
                    f'#{ids[id(node)]}\t--\t{node.label}\t--\t--\t{parent}')
            else:
                lines.append(
                    f'#{ids[id(node)]}\t{node.label}\t--\t--\t{parent}')
        lines.append(f'#EOS {i}')
    return '\n'.join(lines) + '\n'


def _raw_positions(node):
    if isinstance(node, RawLeaf):
        return (node.position,)
    out = []
    for c in node.children:
        out.extend(_raw_positions(c))
    return tuple(out)


def _raw_leaves(node):
    if isinstance(node, RawLeaf):
        yield node
        return
    for c in node.children:
        yield from _raw_leaves(c)


# --- conll ------------------------------------------------------------------

_CONLL_COLUMNS = 10


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
            ident, form, lemma, cpos, pos, feats, head, deprel = cols[:8]
            if not ident.isdecimal() or int(ident) != expected:
                raise TreebankFormatError(
                    f'token id {ident!r}, expected {expected}', path, lineno)
            try:
                head_i = int(head)
            except ValueError:
                raise TreebankFormatError(
                    f'HEAD {head!r} is not an integer', path, lineno) from None
            tokens.append(Token(
                expected, form, pos if pos != '_' else cpos,
                None if lemma == '_' else lemma,
                None if feats == '_' else feats))
            heads.append(head_i)
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
        corpus.append(EncodedDTree(
            Sentence(tuple(tokens)), tuple(heads), tuple(labels)))
    return corpus


def write_conll(corpus):
    blocks = []
    for enc in corpus:
        rows = []
        for tok, head, label in zip(enc.sentence, enc.heads, enc.labels):
            lemma = tok.lemma if tok.lemma is not None else '_'
            feats = tok.morph if tok.morph is not None else '_'
            rows.append('\t'.join((
                str(tok.position), tok.form, lemma, tok.pos, tok.pos,
                feats, str(head), label, '_', '_')))
        blocks.append('\n'.join(rows))
    return '\n\n'.join(blocks) + '\n'


# --- canonical json ---------------------------------------------------------

def _node_to_obj(node):
    if node.kind == 'preterminal':
        return {'label': node.label, 'head': node.head}
    return {'label': node.label, 'head': node.head,
            'children': [_node_to_obj(c) for c in node.children]}


def _node_from_obj(obj, sentence, path, lineno):
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
        return preterminal(label, head, sentence.form(head))
    children = obj['children']
    if not isinstance(children, list) or not children:
        raise TreebankFormatError(
            'node children must be a non-empty list', path, lineno)
    return proper(label, head, [_node_from_obj(c, sentence, path, lineno)
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
