"""In-process tracer for the per-layer run.

Each traced function is replaced, at every hodt module attribute that
holds it, by a wrapper that times the call.  Patching by identity reaches
the name where callers look it up: `hodt.baseline_parser.cle_decode` is
the same object as `hodt.kernels.cle_decode` and both get the wrapper.

Every `*_s` figure is self time: time inside the function minus time
inside traced functions it called.  Self times therefore add up to the
union of the outermost spans, and `other_s` is the rest of the traced wall
time (CLI glue, file reads, the interpreter).  Functions called once per
feature vector (hashing, perceptron updates) are timed and counted but not
kept as individual spans; everything else is kept in memory as a span
(name, start, end, parent, sentence id) and written out at the end.
"""

import gzip
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, attribute, span name); a dotted attribute names a method
TARGETS = [
    ('hodt.treebank_io', 'read_bracketed', 'treebank_io.read'),
    ('hodt.treebank_io', 'read_export', 'treebank_io.read'),
    ('hodt.treebank_io', 'read_conll', 'treebank_io.read'),
    ('hodt.treebank_io', 'read_json_corpus', 'treebank_io.read'),
    ('hodt.treebank_io', 'write_bracketed', 'treebank_io.write'),
    ('hodt.treebank_io', 'write_export', 'treebank_io.write'),
    ('hodt.treebank_io', 'write_conll', 'treebank_io.write'),
    ('hodt.treebank_io', 'write_json_corpus', 'treebank_io.write'),
    ('hodt.headrules', 'lexicalize', 'headrules.lexicalize'),
    ('hodt.trees', 'strip_unaries', 'trees.strip_unaries'),
    ('hodt.trees', 'validate', 'trees.validate'),
    ('hodt.reduction', 'ctree_to_dtree', 'reduction.ctree_to_dtree'),
    ('hodt.reduction', 'dtree_to_ctree', 'reduction.dtree_to_ctree'),
    ('hodt.reduction', 'recover_order', 'reduction.recover_order'),
    ('hodt.reduction', 'roundtrip_check', 'reduction.roundtrip_check'),
    ('hodt.encoding', 'encode_direct', 'encoding.encode'),
    ('hodt.encoding', 'encode_delta', 'encoding.encode'),
    ('hodt.encoding', 'encode_hn', 'encoding.encode'),
    ('hodt.encoding', 'decode', 'encoding.decode'),
    ('hodt.baseline_parser', 'train_unlabeled', 'baseline_parser.train'),
    ('hodt.baseline_parser', 'arc_index_table', 'baseline_parser.featurize'),
    ('hodt.baseline_parser', 'score_matrix', 'baseline_parser.score'),
    ('hodt.perceptron', 'hash_features', 'perceptron.hash'),
    ('hodt.perceptron', 'AveragedTrainer.update_indices', 'perceptron.update'),
    ('hodt.perceptron', 'LinearModel.save', 'perceptron.model_save'),
    ('hodt.perceptron', 'LinearModel.load', 'perceptron.model_load'),
    ('hodt.kernels', 'eisner_decode', 'kernels.eisner'),
    ('hodt.kernels', 'cle_decode', 'kernels.cle'),
    ('hodt.kernels', 'viterbi_chain', 'kernels.viterbi'),
    ('hodt.dep_labeler', 'train_labeler', 'dep_labeler.train'),
    ('hodt.dep_labeler', 'label_tree', 'dep_labeler.label'),
    ('hodt.unary_recovery', 'extract_instances', 'unary_recovery.extract'),
    ('hodt.unary_recovery', 'train_unary', 'unary_recovery.train'),
    ('hodt.unary_recovery', 'recover', 'unary_recovery.recover'),
]

# called once per feature vector: aggregated, never kept as spans
AGGREGATE_ONLY = frozenset({'perceptron.hash', 'perceptron.update'})

# arc_index_table under train_unlabeled is the training table build
TABLE_BUILD = 'baseline_parser.table_build'

TIME_METRICS = sorted({name for _, _, name in TARGETS} | {TABLE_BUILD})

COUNT_METRICS = (
    'baseline_parser.arcs_featurized', 'perceptron.digests',
    'perceptron.updates', 'perceptron.model_bytes', 'kernels.eisner_calls',
    'kernels.eisner_cells', 'kernels.cle_calls', 'kernels.viterbi_calls',
    'unary_recovery.instances', 'reduction.repaired_sentences',
    'reduction.repairs', 'reduction.tokens_changed',
    'encoding.label_fallbacks',
)


@dataclass
class TracedPhase:
    """One traced CLI call: raw times, and the factor that rescales them
    to the reference speed (set by the caller after measuring it)."""
    name: str
    start: float
    end: float = 0.0
    self_time: dict = field(default_factory=dict)
    root_time: float = 0.0
    cle_max_s: float = 0.0
    factor: float = 1.0


class Tracer:
    """Wraps the TARGETS, accumulates self time, counts and spans."""

    def __init__(self):
        self.stack = []        # open frames: [name, child time, span]
        self.spans = []        # [name, start, end, parent, sentence id]
        self.self_time = defaultdict(float)
        self.root_time = 0.0   # summed duration of outermost spans
        self.counts = defaultdict(int)
        self.cle_max_s = 0.0
        self.phases = []       # TracedPhase of each traced CLI call
        self._patched = []     # (owner, attribute, original)
        self._sentence_ids = {}
        self._sentence_cls = None
        self.t0 = time.perf_counter()

    # --- installing -------------------------------------------------------

    def install(self):
        import hodt.cli  # noqa: F401  (loads every module callers use)
        from hodt.trees import Sentence
        self._sentence_cls = Sentence
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == 'hodt' or name.startswith('hodt.')]
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            if '.' in attr:
                cls_name, method = attr.split('.')
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                self._patch(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- phases -----------------------------------------------------------

    def phase(self, name, fn, *args):
        """Run fn(*args) as one traced phase and return its result;
        sentence ids restart."""
        self._sentence_ids = {}
        before = dict(self.self_time)
        root = self.root_time
        self.cle_max_s = 0.0
        phase = TracedPhase(name, time.perf_counter())
        try:
            return fn(*args)
        finally:
            phase.end = time.perf_counter()
            phase.self_time = {k: v - before.get(k, 0.0)
                               for k, v in self.self_time.items()}
            phase.root_time = self.root_time - root
            phase.cle_max_s = self.cle_max_s
            self.phases.append(phase)

    # --- the wrapper ------------------------------------------------------

    def _sentence_id(self, args):
        cls = self._sentence_cls
        for arg in args[:2]:
            sentence = arg if isinstance(arg, cls) else \
                getattr(arg, 'sentence', None)
            if isinstance(sentence, cls):
                key = id(sentence)
                entry = self._sentence_ids.get(key)
                if entry is None:
                    # the sentence is kept so its id() cannot be reused
                    entry = (len(self._sentence_ids), sentence)
                    self._sentence_ids[key] = entry
                return entry[0]
        return None

    def _wrap(self, fn, name):
        tracer = self
        stack = self.stack
        spans = self.spans
        self_time = self.self_time
        clock = time.perf_counter
        keep = name not in AGGREGATE_ONLY
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            label = name
            if name == 'baseline_parser.featurize' and any(
                    f[0] == 'baseline_parser.train' for f in stack):
                label = TABLE_BUILD
            span = None
            if keep:
                parent = stack[-1][2] if stack else None
                sid = tracer._sentence_id(args)
                if sid is None and parent is not None:
                    sid = spans[parent][4]
                span = len(spans)
                spans.append([label, 0.0, 0.0, parent, sid])
            frame = [label, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[label] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_time += duration
                if span is not None:
                    spans[span][1] = start
                    spans[span][2] = end
            if after is not None:
                after(tracer, args, result, duration)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- results ----------------------------------------------------------

    def wall(self):
        """Traced wall time at the reference speed."""
        return sum((p.end - p.start) * p.factor for p in self.phases)

    def metrics(self):
        """Per-layer figures: self seconds at the reference speed, counts,
        and other_s, the traced wall time outside every span."""
        out = {}
        for name in TIME_METRICS:
            seconds = sum(p.self_time.get(name, 0.0) * p.factor
                          for p in self.phases)
            out[name + '_s'] = (seconds, 's')
        for name in COUNT_METRICS:
            unit = 'bytes' if name.endswith('_bytes') else 'count'
            out[name] = (self.counts.get(name, 0), unit)
        out['kernels.cle_max_ms'] = (
            max((p.cle_max_s * p.factor for p in self.phases), default=0.0)
            * 1e3, 'ms')
        out['traced_wall_s'] = (self.wall(), 's')
        out['other_s'] = (self.wall() - sum(p.root_time * p.factor
                                            for p in self.phases), 's')
        return out

    def write_spans(self, path, header):
        """gzip JSON lines: a header object, then one span per line as
        [name, start, end, parent, sentence id]; raw times in seconds from
        the tracer's creation.  The header lists the phases as [name,
        start, end, speed factor]."""
        t0 = self.t0
        with gzip.open(path, 'wt', encoding='utf-8') as f:
            head = dict(header)
            head['fields'] = ['name', 'start', 'end', 'parent', 'sentence']
            head['phases'] = [[p.name, round(p.start - t0, 6),
                               round(p.end - t0, 6), p.factor]
                              for p in self.phases]
            f.write(json.dumps(head) + '\n')
            for name, start, end, parent, sid in self.spans:
                f.write(json.dumps([name, round(start - t0, 6),
                                    round(end - t0, 6), parent, sid]) + '\n')


# --- counters read off arguments and results --------------------------------

def _count(key, value):
    def after(tracer, args, result, duration):
        tracer.counts[key] += value(args, result)
    return after


def _featurized(tracer, args, result, duration):
    n = len(args[1])
    tracer.counts['baseline_parser.arcs_featurized'] += n * n


def _eisner(tracer, args, result, duration):
    n = args[0].shape[0] - 1
    tracer.counts['kernels.eisner_calls'] += 1
    tracer.counts['kernels.eisner_cells'] += n ** 3


def _cle(tracer, args, result, duration):
    tracer.counts['kernels.cle_calls'] += 1
    tracer.cle_max_s = max(tracer.cle_max_s, duration)


def _repairs(tracer, args, result, duration):
    stats = result[1]
    total = stats.total()
    tracer.counts['reduction.repaired_sentences'] += bool(total)
    tracer.counts['reduction.repairs'] += total
    tracer.counts['reduction.tokens_changed'] += stats.tokens_changed


def _saved(tracer, args, result, duration):
    tracer.counts['perceptron.model_bytes'] += os.path.getsize(args[1])


_AFTER = {
    'baseline_parser.featurize': _featurized,
    'perceptron.hash': _count('perceptron.digests', lambda a, r: len(a[0])),
    'perceptron.update': _count('perceptron.updates', lambda a, r: 1),
    'perceptron.model_save': _saved,
    'kernels.eisner': _eisner,
    'kernels.cle': _cle,
    'kernels.viterbi': _count('kernels.viterbi_calls', lambda a, r: 1),
    'unary_recovery.extract': _count(
        'unary_recovery.instances', lambda a, r: len(r.instances)),
    'reduction.recover_order': _repairs,
    'encoding.decode': _count(
        'encoding.label_fallbacks', lambda a, r: r.warnings),
}
