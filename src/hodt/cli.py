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

Every command that reads trees or sentences (convert, check, train,
eval and parse) goes through one per-unit driver (_map_units): the
parent splits the input at tree or sentence boundaries, and each unit
is read and run through the command's stages (lexicalize, encode,
audit, _parse_one, render, ...) on its own, in up to --jobs forked workers.
Output, summary lines and errors are the same for any --jobs.
"""

import argparse
import functools
import hashlib
import json
import os
import sys

from .baseline_parser import parse_heads, train_unlabeled
from .corpus_gen import GenConfig, TOY_HEAD_RULES, gen_ctree, gen_toy_treebank
from .dep_labeler import label_tree, train_labeler
from .encoding import decode, encode_delta, encode_direct, encode_hn
from .errors import (HeadRuleError, ModelFormatError, ToolkitError,
                     TreebankFormatError, read_utf8)
from .evaluation import EvalConfig, attachment_scores, evalb
from .headrules import LEFTMOST, RIGHTMOST, lexicalize, load_rules
from .perceptron import LinearModel
from .reduction import (ctree_to_dtree, dtree_to_ctree, recover_order,
                        roundtrip_check)
from .treebank_io import (TREE_FORMATS, join_conll, join_trees,
                          parse_conll, parse_sentence, render_conll,
                          sniff_format, split_conll, split_sentences)
from .trees import CTree, DTree, strip_unaries, validate
from .unary_recovery import (NULL_CLASS, extract_instances, recover,
                             train_unary)

ENCODINGS = ('direct', 'delta', 'hn')
MODES = ('continuous', 'discontinuous')
# manifest.bundle: 3 since each model file stores its weights as base64
# little-endian arrays; the formats before it are refused by name
BUNDLE = 3
_REFUSED_BUNDLES = {
    1: 'bundle format 1 holds string-hashed features, which this version '
       'no longer builds',
    2: 'bundle format 2 stores its weights as [index, value] lists, which '
       'this version no longer reads',
}


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
    """The TREE_FORMATS entry of fmt, named by the user or sniff_format."""
    if fmt not in TREE_FORMATS:
        raise ToolkitError(
            f'cannot read constituent trees from {fmt!r} input')
    return TREE_FORMATS[fmt]


def _lexicalize(tree, rules):
    return tree if isinstance(tree, CTree) else lexicalize(tree, rules)


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


def _run(i):
    fn, items = _WORK
    return fn(items[i])


def _pmap(fn, items, jobs):
    """[fn(item) for item in items] over at most `jobs` forked workers;
    at jobs 1 the items are taken one at a time as fn needs them.

    The workers inherit fn and items, which may hold whole models or the
    unparsed text of each tree; only item indices are sent to them and
    only results come back, so a result should be small: rendered text
    costs the parent less to unpickle than the objects it was made from.
    """
    global _WORK
    if jobs > 1:
        items = list(items)
        jobs = min(jobs, len(items))
    if jobs < 2:
        return list(map(fn, items))
    from multiprocessing import get_context
    _WORK = (fn, items)
    try:
        with get_context('fork').Pool(jobs) as pool:
            return pool.map(_run, range(len(items)))
    finally:
        _WORK = None


# --- per-unit driver --------------------------------------------------------

def _run_unit(item, parse, stages):
    """(None, the value of unit i through parse and then stages), or
    (step, message) of the ToolkitError that stopped it, where parse is
    step 0 and stage k step k."""
    i, unit = item
    step = 0
    try:
        value = parse(unit)
        for step, (fn, _) in enumerate(stages, 1):
            value = fn(i, value)
    except ToolkitError as exc:
        numbered = step and stages[step - 1][1]
        return step, f'sentence {i}: {exc}' if numbered else str(exc)
    return None, value


def _map_units(reader, text, path, stages=(), jobs=1):
    """[the value of each unit of text through reader and stages], at
    most `jobs` units at a time in forked workers.

    reader is a (split, parse, ...) tuple.  The parent splits the text into
    units (one per tree or sentence); each unit is read with parse and
    run through stages in a worker, or at jobs 1 in the parent as the
    split yields it.  A stage is (fn, numbered): fn(i, value) of unit i
    (from 1), whose ToolkitError reads "sentence i: ..." when numbered.
    The error raised is the first by (step, unit): read errors in file
    order, then the split's fault, which ends the split and so follows
    every unit, then each stage's errors by unit.  Neither the error nor
    its message depends on `jobs`.
    """
    split, parse = reader[:2]
    faults = []

    def units():
        try:
            yield from enumerate(split(text, path), 1)
        except TreebankFormatError as exc:
            faults.append(str(exc))

    worker = functools.partial(_run_unit, stages=stages,
                               parse=functools.partial(parse, path=path))
    results = _pmap(worker, units(), jobs)
    errors = [(step, i, value)
              for i, (step, value) in enumerate(results) if step is not None]
    errors += [(0, len(results), fault) for fault in faults]
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


def cmd_convert(args):
    rules, _ = _resolve_rules(args.head_rules)
    text = _read_input(args.input)
    fmt = args.format or sniff_format(text, args.input)
    results = _map_units(_tree_reader(fmt), text, args.input, (
        (lambda i, tree: _encode_tree(_lexicalize(tree, rules),
                                      args.encoding, strip=False), True),
        (lambda i, enc: (render_conll(i, enc, args.output),
                         [label for _, _, label in enc.arcs()]), False),
    ), args.jobs)
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
    fmt = args.format or sniff_format(text, args.input)
    # direct/delta train on unaryless skeletons; hn keeps the unary steps
    # on its spines, which its labels are read off by step.  Either way
    # no unary node is rebuilt: the restorer puts the chains back
    strip = args.encoding != 'hn'
    pairs = _map_units(_tree_reader(fmt), text, args.input, (
        (lambda i, tree: _lexicalize(tree, rules), False),
        (lambda i, tree: (tree, _encode_tree(tree, args.encoding, strip)),
         True)))
    if not pairs:
        raise ToolkitError('training input holds no trees')
    trees, corpus = map(list, zip(*pairs))
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
        'bundle': BUNDLE,
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
    found = manifest.get('bundle')
    if found != BUNDLE:
        refused = _REFUSED_BUNDLES.get(found) if type(found) is int else None
        raise ModelFormatError(f'{manifest_path}: ' + (
            f'{refused}; retrain the model with hodt train' if refused
            else f'unsupported bundle format {found!r}'))
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
    return tree, result.warnings, bool(repairs.total()), repairs.tokens_changed


def cmd_parse(args):
    manifest, parser_model, labeler_model, unary_model = _load_bundle(
        args.model, want_unaries=not args.no_unaries)
    continuous = manifest['mode'] == 'continuous'
    parse_one = functools.partial(
        _parse_one, parser_model=parser_model, labeler_model=labeler_model,
        unary_model=unary_model, scheme=manifest['encoding'],
        continuous=continuous)
    render = TREE_FORMATS[args.format or ('bracketed' if continuous
                                          else 'export')].render
    results = _map_units(
        (split_sentences, parse_sentence), _read_input(args.input),
        args.input, (
            (lambda i, sentence: parse_one(sentence), True),
            (lambda i, parsed: (render(i, parsed[0], args.output),
                                *parsed[1:]), False)),
        args.jobs)
    _write_output(args.output, join_trees(text for text, *_ in results))
    warnings = sum(w for _, w, _, _ in results)
    repaired = sum(r for _, _, r, _ in results)
    touched = sum(t for _, _, _, t in results)
    print(f'# parsed {len(results)} sentences; {warnings} label fallbacks, '
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
    gold_fmt = args.format or sniff_format(gold_text, args.gold)
    pred_fmt = args.format or sniff_format(pred_text, args.pred)
    if (gold_fmt == 'conll') != (pred_fmt == 'conll'):
        raise ToolkitError(
            f'cannot score {pred_fmt} predictions against {gold_fmt} gold')
    punct = _split_csv(args.punct_pos)
    if gold_fmt == 'conll':
        reader = split_conll, parse_conll
        gold = _map_units(reader, gold_text, args.gold)
        pred = _map_units(reader, pred_text, args.pred)
        uas, las = _aligned(attachment_scores, gold, pred, punct)
        report = {'kind': 'attachment', 'sentences': len(gold),
                  'uas': uas, 'las': las}
        print(f'# UAS {uas:.4f}  LAS {las:.4f} '
              f'over {len(gold)} sentences', file=sys.stderr)
    else:
        # head choice is irrelevant to bracket scoring
        stages = ((lambda i, tree: _lexicalize(tree, LEFTMOST), False),)
        gold = _map_units(_tree_reader(gold_fmt), gold_text, args.gold,
                          stages)
        pred = _map_units(_tree_reader(pred_fmt), pred_text, args.pred,
                          stages)
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

_CHECK_COUNTS = ('roundtrip_failures', 'equivalence_failures', 'continuous',
                 'projective', 'nested', 'binary', 'strictly_ordered')


def _check_counts(tree):
    """One tree's contribution, 0 or 1, to each of _CHECK_COUNTS."""
    report = roundtrip_check(tree)
    return (not report.roundtrip_equal, not report.equivalence_ok,
            report.continuous, report.projective, report.nested,
            report.binary_input, report.strictly_ordered)


def cmd_check(args):
    rules, _ = _resolve_rules(args.head_rules)
    text = _read_input(args.input)
    fmt = args.format or sniff_format(text, args.input)
    counts = _map_units(_tree_reader(fmt), text, args.input, (
        (lambda i, tree: _lexicalize(tree, rules), False),
        (lambda i, tree: _check_counts(tree), False),
    ), args.jobs)
    totals = [sum(col) for col in zip(*counts)] or [0] * len(_CHECK_COUNTS)
    summary = {'trees': len(counts), **dict(zip(_CHECK_COUNTS, totals))}
    bad = [i for i, c in enumerate(counts, 1) if c[0] or c[1]]
    _write_output(args.output, json.dumps(summary, sort_keys=True) + '\n')
    if bad:
        shown = ', '.join(str(i) for i in bad[:10])
        print(f'# violations in sentences: {shown}'
              + (' ...' if len(bad) > 10 else ''), file=sys.stderr)
        return 2
    print(f'# {len(counts)} trees checked, no violations', file=sys.stderr)
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
    render = TREE_FORMATS[args.format or ('export' if args.disc_prob
                                          else 'bracketed')].render
    _write_output(args.output, join_trees(
        render(i, tree, args.output) for i, tree in enumerate(trees, 1)))
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
    p.add_argument('--format', choices=TREE_FORMATS)
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
    p.add_argument('--format', choices=TREE_FORMATS)
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
    p.add_argument('--format', choices=TREE_FORMATS,
                   help='output tree format (default by mode)')
    p.add_argument('--no-unaries', action='store_true')
    p.add_argument('--jobs', type=_int_at_least(1), default=1,
                   help='worker processes that parse sentences (default 1)')
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser('eval', help='score predictions against gold')
    p.add_argument('gold')
    p.add_argument('pred')
    p.add_argument('-o', '--output', default='-')
    p.add_argument('--format', choices=(*TREE_FORMATS, 'conll'))
    p.add_argument('--punct-pos', default='',
                   help='comma-separated POS tags to ignore')
    p.add_argument('--ignore-root', default='',
                   help='comma-separated root labels to skip')
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser('check', help='roundtrip audit, exit 2 on violations')
    _add_io(p)
    p.add_argument('--format', choices=TREE_FORMATS)
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
    p.add_argument('--format', choices=TREE_FORMATS)
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
