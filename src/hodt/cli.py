"""Command-line front end.

Subcommands:
  convert   c-treebank -> encoded dependency corpus (CoNLL columns)
  train     fit the arc scorer, the label chain scorer and (optionally)
            the unary restorer; writes a model bundle directory
  parse     tagged text or CoNLL tokens -> constituent trees
  eval      bracket or attachment scoring, JSON report on stdout
  check     roundtrip / equivalence audit of a treebank, exit 2 on violations
  gen       synthetic treebanks (toy grammar or random trees)

Every code path is deterministic for a fixed seed: two runs produce
byte-identical outputs, bundles included.

convert and check share one per-unit driver (_map_units): the parent
splits the input at tree boundaries, and each tree is read, lexicalized
and encoded or audited on its own, in up to --jobs forked workers.
parse runs its per-sentence pipeline (_parse_one) in such workers too.
Output, summary lines and errors are the same for any --jobs.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
from itertools import starmap

from .baseline_parser import parse_heads, train_unlabeled
from .corpus_gen import GenConfig, TOY_HEAD_RULES, gen_ctree, gen_toy_treebank
from .dep_labeler import label_tree, train_labeler
from .encoding import decode, encode_delta, encode_direct, encode_hn
from .errors import (HeadRuleError, ModelFormatError, ToolkitError,
                     TreebankFormatError, read_utf8)
from .evaluation import EvalConfig, attachment_scores, evalb
from .headrules import LEFTMOST, RIGHTMOST, lexicalize, load_rules
from .perceptron import LinearModel
from .reduction import (RoundtripReport, ctree_to_dtree, dtree_to_ctree,
                        recover_order, roundtrip_check)
from .treebank_io import (join_conll, parse_bracketed, parse_export,
                          parse_json, read_bracketed, read_conll, read_export,
                          read_json_corpus, read_sentences, render_conll,
                          split_export, split_lines, write_bracketed,
                          write_export, write_json_corpus)
from .trees import CTree, DTree, strip_unaries, validate
from .unary_recovery import (NULL_CLASS, extract_instances, recover,
                             train_unary)

ENCODINGS = ('direct', 'delta', 'hn')
MODES = ('continuous', 'discontinuous')


# --- i/o plumbing -----------------------------------------------------------

def _read_input(path):
    return read_utf8(path, TreebankFormatError)


def _write_output(path, text):
    if path == '-':
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(path, 'w', encoding='utf-8', newline='\n') as f:
            f.write(text)


def _sniff_format(text):
    for line in text.split('\n'):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith('#FORMAT') or stripped.startswith('#BOS'):
            return 'export'
        if stripped.startswith('{'):
            return 'json'
        if stripped.startswith('('):
            return 'bracketed'
        cols = stripped.split('\t')
        if len(cols) >= 10 and cols[0].isdigit():
            return 'conll'
        return 'tagged'
    raise ToolkitError('empty input')


def _resolve_rules(spec):
    """Builtin name or file path -> (HeadRuleSet, fingerprint text)."""
    if spec == 'leftmost':
        return LEFTMOST, 'builtin:leftmost'
    if spec == 'rightmost':
        return RIGHTMOST, 'builtin:rightmost'
    if spec == 'toy':
        return load_rules(TOY_HEAD_RULES.splitlines()), TOY_HEAD_RULES
    if spec == 'collins-english':
        spec = os.path.join(os.path.dirname(__file__), 'data',
                            'collins_english.rules')
    if os.path.exists(spec):
        text = read_utf8(spec, HeadRuleError)
        return load_rules(text.splitlines()), text
    raise ToolkitError(
        f'head rules {spec!r}: not a file and not one of '
        "leftmost, rightmost, toy, collins-english")


def _tree_reader(fmt):
    """(read, split, parse) of the fmt tree reader: the whole-file
    reader, and the split and per-unit parse it is made of."""
    if fmt == 'bracketed':
        return read_bracketed, split_lines, parse_bracketed
    if fmt == 'export':
        return read_export, split_export, parse_export
    if fmt == 'json':
        return read_json_corpus, split_lines, parse_json
    raise ToolkitError(f'cannot read constituent trees from {fmt!r} input')


def _lexicalize(tree, rules):
    return tree if isinstance(tree, CTree) else lexicalize(tree, rules)


def _load_trees(text, fmt, rules, path):
    """Every tree of the fmt tree bank text, read and lexicalized."""
    read, _, _ = _tree_reader(fmt)
    return [_lexicalize(t, rules) for t in read(text, path)]


def _write_trees(trees, fmt, path):
    if fmt == 'bracketed':
        return write_bracketed(trees, path)
    if fmt == 'export':
        return write_export(trees, path=path)
    if fmt == 'json':
        return write_json_corpus(trees)
    raise ToolkitError(f'cannot write constituent trees as {fmt!r}')


def _split_csv(arg):
    return frozenset(s for s in (arg or '').split(',') if s)


def _int_at_least(low):
    """argparse type: an integer no smaller than low."""
    def parse(arg):
        try:
            value = int(arg)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f'not an integer: {arg!r}') from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f'must be at least {low}, got {value}')
        return value
    return parse


def _probability(arg):
    """argparse type: a real number in [0, 1]."""
    try:
        value = float(arg)
    except ValueError:
        raise argparse.ArgumentTypeError(f'not a number: {arg!r}') from None
    if not 0.0 <= value <= 1.0:  # false for NaN too
        raise argparse.ArgumentTypeError(
            f'must be a probability in [0, 1], got {arg}')
    return value


# (fn, items) of the running _pmap; fork-started workers inherit it
_WORK = None


def _guarded(fn, item):
    """(fn(item), None), or (None, message) when fn raises a ToolkitError."""
    try:
        return fn(item), None
    except ToolkitError as exc:
        return None, str(exc)


def _run(i):
    fn, items = _WORK
    return _guarded(fn, items[i])


def _pmap(fn, items, jobs):
    """[fn(item) for item in items] over at most `jobs` forked workers.

    The workers inherit fn and items, which may hold whole models or the
    unparsed text of each tree; only item indices are sent to them and
    only results come back, so a result should be small: rendered text
    costs the parent less to unpickle than the objects it was made from.
    A ToolkitError comes back as a value, and the first one in input
    order is raised as "sentence N: ...", so the message does not depend
    on `jobs`.
    """
    global _WORK
    workers = min(jobs, len(items))
    if workers < 2:
        results = (_guarded(fn, item) for item in items)
    else:
        from multiprocessing import get_context
        _WORK = (fn, items)
        try:
            with get_context('fork').Pool(workers) as pool:
                results = pool.map(_run, range(len(items)))
        finally:
            _WORK = None
    out = []
    for i, (value, error) in enumerate(results, 1):
        if error is not None:
            raise ToolkitError(f'sentence {i}: {error}')
        out.append(value)
    return out


# --- per-unit driver --------------------------------------------------------

# the steps of handling one tree, in the order their errors are reported:
# reading its unit, then the command's own steps
_READ = 0
_ENCODE, _WRITE = 1, 2          # convert
_LEXICALIZE, _AUDIT = 1, 2      # check


def _map_units(step, text, fmt, path, jobs):
    """[step((i, unit), parse)] over the units of the fmt tree bank text,
    at most `jobs` at a time in forked workers.

    The parent only splits the text into units (one per tree); each
    worker reads its unit with the reader's per-unit parse and does the
    command's work on it, so no tree is built in the parent.  step
    returns (None, value), or (step, message) of the ToolkitError that
    stopped it, where reading is _READ.  The error raised is the first
    by (step, unit): read errors in file order, then the split's fault,
    which ends the split and so follows every unit, then each later
    step's errors by unit.  Neither the error nor its message depends on
    `jobs`.
    """
    _, split, parse = _tree_reader(fmt)
    units, fault = [], None
    try:
        for unit in split(text, path):
            units.append(unit)
    except TreebankFormatError as exc:
        fault = exc
    worker = functools.partial(step, parse=functools.partial(parse, path=path))
    results = _pmap(worker, list(enumerate(units, 1)), jobs)
    errors = [(k, i, value)
              for i, (k, value) in enumerate(results) if k is not None]
    if fault is not None:
        errors.append((_READ, len(units), str(fault)))
    if errors:
        raise ToolkitError(min(errors)[2])
    return [value for _, value in results]


# --- conversion -------------------------------------------------------------

def _encode_tree(tree, scheme, strip):
    if scheme == 'hn':
        return encode_hn(tree)
    if strip:
        tree = strip_unaries(tree)
    dtree = ctree_to_dtree(tree)
    if scheme == 'delta':
        return encode_delta(dtree)
    return encode_direct(dtree)


def _convert_one(item, parse, rules, scheme, out):
    """(None, (CoNLL block, arc labels)) of unit i, or (step, message) of
    the ToolkitError that stopped it."""
    i, unit = item
    step = _READ
    try:
        tree = parse(unit)
        step = _ENCODE
        enc = _encode_tree(_lexicalize(tree, rules), scheme, strip=False)
        step = _WRITE
        return None, (render_conll(i, enc, out),
                      [label for _, _, label in enc.arcs()])
    except ToolkitError as exc:
        return step, f'sentence {i}: {exc}' if step == _ENCODE else str(exc)


def cmd_convert(args):
    rules, _ = _resolve_rules(args.head_rules)
    text = _read_input(args.input)
    fmt = args.format or _sniff_format(text)
    worker = functools.partial(_convert_one, rules=rules,
                               scheme=args.encoding, out=args.output)
    results = _map_units(worker, text, fmt, args.input, args.jobs)
    _write_output(args.output, join_conll(block for block, _ in results))
    labels = [arc_labels for _, arc_labels in results]
    print(f'# {len(results)} sentences, {sum(map(len, labels))} arcs, '
          f'{len(set().union(*labels))} distinct labels ({args.encoding})',
          file=sys.stderr)
    return 0


# --- training ---------------------------------------------------------------

def _rules_sha(text):
    return hashlib.sha256(text.encode('utf-8')).hexdigest()


def cmd_train(args):
    if args.encoding == 'delta' and args.mode == 'discontinuous':
        raise ToolkitError('the delta encoding requires continuous mode')
    rules, rules_text = _resolve_rules(args.head_rules)
    text = _read_input(args.input)
    fmt = args.format or _sniff_format(text)
    trees = _load_trees(text, fmt, rules, args.input)
    if not trees:
        raise ToolkitError('training input holds no trees')
    # direct/delta train on unaryless skeletons (the restorer puts the
    # chains back at parse time); hn keeps them inside the spine labels
    worker = functools.partial(_encode_tree, scheme=args.encoding,
                               strip=args.encoding != 'hn')
    corpus = _pmap(worker, trees, jobs=1)
    projective = args.mode == 'continuous'
    parser_model = train_unlabeled(corpus, args.epochs, seed=args.seed,
                                   projective=projective)
    labeler_model = train_labeler(corpus, args.epochs, seed=args.seed)
    unary_model = None
    if not args.no_unaries:
        data = extract_instances(trees)
        unary_model = train_unary(data, args.epochs, seed=args.seed)

    os.makedirs(args.model, exist_ok=True)
    parser_model.save(os.path.join(args.model, 'parser.json'))
    labeler_model.save(os.path.join(args.model, 'labeler.json'))
    if unary_model is not None:
        unary_model.save(os.path.join(args.model, 'unary.json'))
    manifest = {
        'bundle': 1,
        'encoding': args.encoding,
        'mode': args.mode,
        'epochs': args.epochs,
        'seed': args.seed,
        'unaries': unary_model is not None,
        'head_rules': args.head_rules,
        'head_rules_sha256': _rules_sha(rules_text),
    }
    with open(os.path.join(args.model, 'manifest.json'), 'w',
              encoding='utf-8', newline='\n') as f:
        f.write(json.dumps(manifest, sort_keys=True, indent=2) + '\n')
    with open(os.path.join(args.model, 'rules.txt'), 'w',
              encoding='utf-8', newline='\n') as f:
        f.write(rules_text if rules_text.endswith('\n')
                else rules_text + '\n')
    print(f'# trained on {len(trees)} trees; bundle at {args.model}',
          file=sys.stderr)
    return 0


# --- parsing ----------------------------------------------------------------

def _load_bundle(bundle_dir, want_unaries):
    manifest_path = os.path.join(bundle_dir, 'manifest.json')
    try:
        manifest = json.loads(read_utf8(manifest_path, ModelFormatError))
    except FileNotFoundError:
        raise ModelFormatError(f'{bundle_dir}: not a model bundle '
                               '(no manifest.json)') from None
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f'{manifest_path}: {exc}') from None
    if not isinstance(manifest, dict):
        raise ModelFormatError(f'{manifest_path}: not a JSON object')
    if manifest.get('bundle') != 1:
        raise ModelFormatError(f'{manifest_path}: unsupported bundle format')
    if manifest.get('encoding') not in ENCODINGS:
        raise ModelFormatError(f'{manifest_path}: unknown encoding '
                               f'{manifest.get("encoding")!r}')
    if manifest.get('mode') not in MODES:
        raise ModelFormatError(f'{manifest_path}: unknown mode '
                               f'{manifest.get("mode")!r}')
    parser_model = LinearModel.load(os.path.join(bundle_dir, 'parser.json'))
    labeler_model = LinearModel.load(os.path.join(bundle_dir, 'labeler.json'))
    if parser_model.meta.get('task') != 'arcs':
        raise ModelFormatError('parser.json: not an arc scorer')
    if not isinstance(parser_model.meta.get('projective'), bool):
        raise ModelFormatError('parser.json: projective must be a boolean')
    if labeler_model.meta.get('task') != 'labels':
        raise ModelFormatError('labeler.json: not a label scorer')
    labels = labeler_model.meta.get('labels')
    if (not isinstance(labels, list) or not labels
            or not all(isinstance(label, str) for label in labels)):
        raise ModelFormatError(
            'labeler.json: labels must be a non-empty list of strings')
    unary_model = None
    if want_unaries and manifest.get('unaries'):
        unary_model = LinearModel.load(os.path.join(bundle_dir, 'unary.json'))
        if unary_model.meta.get('task') != 'unary':
            raise ModelFormatError('unary.json: not a unary restorer')
        _check_unary_meta(unary_model.meta)
    return manifest, parser_model, labeler_model, unary_model


def _check_unary_meta(meta):
    classes = meta.get('classes')
    if (not isinstance(classes, list) or not classes
            or not all(isinstance(c, str) for c in classes)
            or classes[0] != NULL_CLASS):
        raise ModelFormatError(
            f'unary.json: classes must be a list of strings '
            f'starting with {NULL_CLASS}')
    allowed = meta.get('allowed')
    if not isinstance(allowed, dict) or not all(
            isinstance(ids, list) and all(
                type(k) is int and 0 <= k < len(classes) for k in ids)
            for ids in allowed.values()):
        raise ModelFormatError(
            f'unary.json: allowed must map symbols to lists of class ids '
            f'in 0..{len(classes) - 1}')


def _parse_one(sentence, parser_model, labeler_model, unary_model,
               scheme, continuous):
    heads, arc_digests = parse_heads(parser_model, sentence)
    enc = label_tree(sentence, heads, labeler_model, arc_digests)
    result = decode(enc, scheme)
    skeleton = DTree(sentence, tuple(enc.heads), result.pairs)
    hodt, repairs = recover_order(skeleton, continuous_mode=continuous)
    tree = dtree_to_ctree(hodt)
    if unary_model is not None:
        tree = recover(tree, unary_model)
    problems = validate(tree)
    if problems:
        raise ToolkitError(f'produced an invalid tree: {problems[0]}')
    return tree, result.warnings, repairs


def cmd_parse(args):
    manifest, parser_model, labeler_model, unary_model = _load_bundle(
        args.model, want_unaries=not args.no_unaries)
    continuous = manifest['mode'] == 'continuous'
    sentences = read_sentences(_read_input(args.input), args.input)
    worker = functools.partial(
        _parse_one, parser_model=parser_model, labeler_model=labeler_model,
        unary_model=unary_model, scheme=manifest['encoding'],
        continuous=continuous)
    results = _pmap(worker, sentences, args.jobs)
    trees = [tree for tree, _, _ in results]
    fmt = args.format or ('bracketed' if continuous else 'export')
    _write_output(args.output, _write_trees(trees, fmt, args.output))
    warnings = sum(w for _, w, _ in results)
    repaired = sum(1 for _, _, r in results if r.total())
    touched = sum(r.tokens_changed for _, _, r in results)
    print(f'# parsed {len(trees)} sentences; {warnings} label fallbacks, '
          f'{repaired} sentences repaired ({touched} tokens)',
          file=sys.stderr)
    return 0


# --- evaluation -------------------------------------------------------------

def _aligned(score, gold, pred, *args):
    """score(gold, pred, ...), with corpus misalignment as a user error."""
    try:
        return score(gold, pred, *args)
    except ValueError as exc:
        raise ToolkitError(str(exc)) from None


def cmd_eval(args):
    gold_text = _read_input(args.gold)
    pred_text = _read_input(args.pred)
    gold_fmt = args.format or _sniff_format(gold_text)
    pred_fmt = args.format or _sniff_format(pred_text)
    if (gold_fmt == 'conll') != (pred_fmt == 'conll'):
        raise ToolkitError(
            f'cannot score {pred_fmt} predictions against {gold_fmt} gold')
    punct = _split_csv(args.punct_pos)
    if gold_fmt == 'conll':
        gold = read_conll(gold_text, args.gold)
        pred = read_conll(pred_text, args.pred)
        uas, las = _aligned(attachment_scores, gold, pred, punct)
        report = {'kind': 'attachment', 'sentences': len(gold),
                  'uas': uas, 'las': las}
        print(f'# UAS {uas:.4f}  LAS {las:.4f} '
              f'over {len(gold)} sentences', file=sys.stderr)
    else:
        rules = LEFTMOST  # head choice is irrelevant to bracket scoring
        gold = _load_trees(gold_text, gold_fmt, rules, args.gold)
        pred = _load_trees(pred_text, pred_fmt, rules, args.pred)
        cfg = EvalConfig(punctuation_pos=punct,
                         ignore_root_labels=_split_csv(args.ignore_root))
        scores = _aligned(evalb, gold, pred, cfg)
        report = {'kind': 'brackets'}
        report.update(scores.to_dict())
        print(f'# P {scores.precision:.4f}  R {scores.recall:.4f}  '
              f'F1 {scores.f1:.4f}  EX {scores.exact:.4f} '
              f'over {len(gold)} sentences', file=sys.stderr)
    _write_output(args.output, json.dumps(report, sort_keys=True) + '\n')
    return 0


# --- auditing ---------------------------------------------------------------

def _check_one(item, parse, rules):
    """(None, the six flags of unit i's RoundtripReport), or (step,
    message) of the ToolkitError that stopped it."""
    _, unit = item
    step = _READ
    try:
        tree = parse(unit)
        step = _LEXICALIZE
        tree = _lexicalize(tree, rules)
        step = _AUDIT
        report = roundtrip_check(tree)
    except ToolkitError as exc:
        return step, str(exc)
    return None, tuple(vars(report).values())   # in field order


def cmd_check(args):
    rules, _ = _resolve_rules(args.head_rules)
    text = _read_input(args.input)
    fmt = args.format or _sniff_format(text)
    worker = functools.partial(_check_one, rules=rules)
    flags = _map_units(worker, text, fmt, args.input, args.jobs)
    summary = {
        'trees': len(flags), 'roundtrip_failures': 0,
        'equivalence_failures': 0, 'continuous': 0, 'projective': 0,
        'nested': 0, 'binary': 0, 'strictly_ordered': 0,
    }
    bad = []
    for i, report in enumerate(starmap(RoundtripReport, flags), 1):
        summary['continuous'] += report.continuous
        summary['projective'] += report.projective
        summary['nested'] += report.nested
        summary['binary'] += report.binary_input
        summary['strictly_ordered'] += report.strictly_ordered
        if not report.roundtrip_equal:
            summary['roundtrip_failures'] += 1
            bad.append(i)
        if not report.equivalence_ok:
            summary['equivalence_failures'] += 1
            if i not in bad:
                bad.append(i)
    _write_output(args.output, json.dumps(summary, sort_keys=True) + '\n')
    if bad:
        shown = ', '.join(str(i) for i in bad[:10])
        print(f'# violations in sentences: {shown}'
              + (' ...' if len(bad) > 10 else ''), file=sys.stderr)
        return 2
    print(f'# {len(flags)} trees checked, no violations', file=sys.stderr)
    return 0


# --- generation -------------------------------------------------------------

def cmd_gen(args):
    if args.kind == 'toy':
        trees = gen_toy_treebank(GenConfig(seed=args.seed), args.n)
    else:
        cfg = GenConfig(seed=args.seed,
                        discontinuity_probability=args.disc_prob or 0.0,
                        unary_probability=args.unary_prob or 0.0,
                        binary_only=bool(args.binary))
        trees = [gen_ctree(cfg, args.length or 8, index=i)
                 for i in range(args.n)]
    fmt = args.format or ('export' if args.disc_prob else 'bracketed')
    _write_output(args.output, _write_trees(trees, fmt, args.output))
    return 0


# --- argument wiring --------------------------------------------------------

def _add_io(sub):
    sub.add_argument('-i', '--input', default='-',
                     help="input path, '-' for stdin")
    sub.add_argument('-o', '--output', default='-',
                     help="output path, '-' for stdout")


def build_parser():
    top = argparse.ArgumentParser(
        prog='hodt',
        description='constituent parsing through head-ordered '
                    'dependency conversion')
    sub = top.add_subparsers(dest='command', required=True)

    p = sub.add_parser('convert', help='encode a c-treebank as dependencies')
    _add_io(p)
    p.add_argument('--format', choices=('bracketed', 'export', 'json'))
    p.add_argument('--encoding', choices=ENCODINGS, default='direct')
    p.add_argument('--head-rules', default='leftmost')
    p.add_argument('--jobs', type=_int_at_least(1), default=1,
                   help='worker processes that read, lexicalize, encode '
                        'and render trees (default 1)')
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser('train', help='fit the parsing pipeline')
    p.add_argument('-i', '--input', default='-')
    p.add_argument('-m', '--model', required=True,
                   help='bundle directory to write')
    p.add_argument('--format', choices=('bracketed', 'export', 'json'))
    p.add_argument('--encoding', choices=ENCODINGS, default='direct')
    p.add_argument('--mode', choices=MODES, default='continuous')
    p.add_argument('--head-rules', default='leftmost')
    p.add_argument('--seed', type=int, default=1)
    p.add_argument('--epochs', type=_int_at_least(0), default=5)
    p.add_argument('--no-unaries', action='store_true')
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser('parse', help='parse tagged text or CoNLL tokens')
    _add_io(p)
    p.add_argument('-m', '--model', required=True, help='bundle directory')
    p.add_argument('--format', choices=('bracketed', 'export', 'json'),
                   help='output tree format (default by mode)')
    p.add_argument('--no-unaries', action='store_true')
    p.add_argument('--jobs', type=_int_at_least(1), default=1,
                   help='worker processes that parse sentences (default 1)')
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser('eval', help='score predictions against gold')
    p.add_argument('gold')
    p.add_argument('pred')
    p.add_argument('-o', '--output', default='-')
    p.add_argument('--format',
                   choices=('bracketed', 'export', 'json', 'conll'))
    p.add_argument('--punct-pos', default='',
                   help='comma-separated POS tags to ignore')
    p.add_argument('--ignore-root', default='',
                   help='comma-separated root labels to skip')
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser('check', help='roundtrip audit, exit 2 on violations')
    _add_io(p)
    p.add_argument('--format', choices=('bracketed', 'export', 'json'))
    p.add_argument('--head-rules', default='leftmost')
    p.add_argument('--jobs', type=_int_at_least(1), default=1,
                   help='worker processes that read, lexicalize and '
                        'check trees (default 1)')
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser('gen', help='generate a synthetic treebank')
    p.add_argument('-o', '--output', default='-')
    p.add_argument('--kind', choices=('toy', 'random'), default='toy')
    p.add_argument('-n', type=_int_at_least(0), default=100)
    p.add_argument('--seed', type=int, default=1)
    # None unless given, so that main can refuse them with --kind toy
    p.add_argument('--length', type=_int_at_least(1),
                   help='sentence length for random trees (default 8)')
    p.add_argument('--disc-prob', type=_probability)
    p.add_argument('--unary-prob', type=_probability)
    p.add_argument('--binary', action='store_true', default=None)
    p.add_argument('--format', choices=('bracketed', 'export', 'json'))
    p.set_defaults(fn=cmd_gen)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == 'gen' and args.kind == 'toy':
        for flag in ('--length', '--disc-prob', '--unary-prob', '--binary'):
            if getattr(args, flag[2:].replace('-', '_')) is not None:
                parser.error(f'gen --kind toy takes no {flag}')
    try:
        return args.fn(args)
    except (ToolkitError, OSError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1


if __name__ == '__main__':
    sys.exit(main())
