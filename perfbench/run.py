#!/usr/bin/env python3
"""hodt pipeline benchmark: train, parse, convert and check throughput.

    python3 perfbench/run.py --workload toy --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program under test is the
`hodt` package in ./src, nothing installed.  The banks are generated from
--seed with hodt.corpus_gen and written to files; every phase then runs as
its own `hodt` CLI process, one at a time, and sees only those files.
--seconds sizes the banks so that the timed phases take about that long
on a 2-core x86 container.  Timings are rescaled to a reference machine
speed sampled while each phase runs (perfbench/speed.py).

--trace 0 reports the end-to-end metrics.  --trace 1 repeats the CLI
phases, then replays train, parse, convert and check in this process with
hodt's public functions wrapped (perfbench/tracer.py), checks that the
replay writes byte-identical files, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
metadata.  perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from speed import SpeedSampler, SpeedWork

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
WORK = os.path.join(ROOT, '.bench_work')
CHILD = os.path.join(HERE, 'hodt_child.py')

HELDOUT_SEED_OFFSET = 1_000_003  # held-out banks come from another seed
TRAIN_SEED_OFFSET = 2_000_003    # so do the extra train banks
SETUP_REPEATS = 5
STARTUP_REPEATS = 3
DEADLINE_S = 120                 # a child running longer is killed
TAIL_BEYOND = 10                 # samples above the reported tail
CLE_WORST_N = 40                 # tokens in the worst-case CLE call
CLE_WORST_REPEATS = 3


# --- workloads --------------------------------------------------------------

@dataclass(frozen=True)
class Bank:
    """Arguments of `hodt gen`: the toy grammar or random trees."""
    kind: str
    length: int = 0
    disc_prob: float = 0.0
    unary_prob: float = 0.0

    @property
    def fmt(self):
        return 'export' if self.disc_prob > 0 else 'bracketed'

    @property
    def rules(self):
        return 'toy' if self.kind == 'toy' else 'leftmost'


@dataclass(frozen=True)
class Learn:
    """A train bank and a held-out bank; sizes are sentences per second
    of --seconds, with floors that keep a 1-second run meaningful.
    train_banks > 1 trains that many times, each on its own bank and in
    its own process, and pools the train metrics."""
    bank: Bank
    train_rate: float
    test_rate: float
    epochs: int
    mode: str = 'continuous'
    train_banks: int = 1

    def sizes(self, seconds):
        return (max(4, round(self.train_rate * seconds)),
                max(2 * TAIL_BEYOND + 1, round(self.test_rate * seconds)))


@dataclass(frozen=True)
class Workload:
    """learn: the train and parse phases; reduce: the bank that convert
    and check read (by default more trees of the learn bank's shape),
    reduce_rate trees per second of --seconds."""
    learn: Learn
    reduce_rate: float
    reduce_bank: Bank = None
    quality_probe: bool = False  # heldout_f1 from QUALITY_PROBE
    setup: str = 'parse'         # the one-sentence command of setup_s

    def reduce_size(self, seconds):
        return max(20, round(self.reduce_rate * seconds))


TOY = Bank('toy')
# small toy pipeline: the only learnable bank, so it supplies heldout_f1
# where the workload's own bank cannot; random-shape banks score F1
# 0.01-0.05 on held-out data
QUALITY_PROBE = Learn(TOY, 30, 30, 5)

# disc trains twice, on two banks of 24 sentences at 12 s: CLE's cost
# depends on the scores each bank's model produces, and over one such
# bank train_sent_per_s spread 0.26 across seeds.  One bank of 48 in one
# process instead gave a peak RSS of 202 or 232-235 MB for the same bank,
# from one run to the next.  batch learns on a toy bank, the cheapest,
# with toy's 720 held-out sentences so that parse_tail_ms has as many
# samples as on toy.

WORKLOADS = {
    'toy': Workload(Learn(TOY, 80, 60, 5), 270),
    'long': Workload(Learn(Bank('random', 40), 2.4, 3.2, 3), 35,
                     quality_probe=True),
    'disc': Workload(Learn(Bank('random', 40, disc_prob=1.0), 2, 3.2, 3,
                           mode='discontinuous', train_banks=2),
                     35, quality_probe=True),
    'batch': Workload(Learn(TOY, 30, 60, 5), 130,
                      reduce_bank=Bank('random', 25, disc_prob=0.3,
                                       unary_prob=0.1),
                      setup='convert'),
}


# --- running hodt -----------------------------------------------------------

class PhaseFailed(Exception):
    pass


@dataclass
class Phase:
    label: str
    argv: list
    wall: float
    speed: SpeedSampler  # see perfbench/speed.py
    rss_mb: float
    sentences: int

    @property
    def factor(self):
        return self.speed.mean()

    @property
    def ref_wall(self):
        """Wall time at the reference speed."""
        return self.wall * self.factor


class Run:
    """One benchmark run: its work directory, phases and failure count."""

    def __init__(self, name, seed, seconds, workdir):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.dir = workdir
        self.attempted = 0
        self.failed = 0
        self.phases = {}
        self.banks = {}
        self.latency = None
        self.spans_file = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[-1]  # single-process phases run here
        self.speed_work = SpeedWork()
        self.env = dict(os.environ)
        self.env['PYTHONPATH'] = os.pathsep.join(
            p for p in (SRC, os.environ.get('PYTHONPATH')) if p)

    def path(self, name):
        return os.path.join(self.dir, name)

    def fail(self, count, why):
        self.failed += count
        print(f'perfbench: FAILED {why}', file=sys.stderr)

    def hodt(self, label, argv, sentences, latency=None):
        """Run `hodt <argv>` as a child; wall time and its peak RSS (of
        the main process, not of --jobs pool workers).
        A one-process phase is pinned to self.cpu; with --jobs the
        speed of every CPU is sampled."""
        argv = [str(a) for a in argv]
        cmd = [sys.executable, CHILD]
        cpus = self.cpus
        if '--jobs' not in argv:
            cmd += ['--cpu', str(self.cpu)]
            cpus = [self.cpu]
        if latency:
            cmd += ['--latency', latency]
        rss = self.path(label + '.rss')
        cmd += ['--rss', rss] + argv
        self.attempted += sentences
        log = self.path(label + '.log')
        code, wall, speed = timed_child(
            cmd, self.dir, self.env, log, cpus, self.speed_work)
        if code != 0:
            sys.stderr.write(read_text(log, errors='replace')[-2000:])
            self.fail(sentences, f'{label}: hodt exited with {code}')
            raise PhaseFailed(label)
        phase = Phase(label, argv, wall, speed, int(read_text(rss)) / 1024,
                      sentences)
        self.phases[label] = phase
        return phase

    def bank(self, name, bank, n, seed):
        path = self.path(f'{name}.{bank.fmt}')
        info = write_bank(path, bank, n, seed)
        info['seed'] = seed
        self.banks[name] = info
        return path


def timed_child(cmd, cwd, env, log_path, cpus, speed_work):
    """Run cmd to its end, its output to log_path, sampling the speed of
    cpus; (exit code, wall time, SpeedSampler)."""
    with open(log_path, 'wb') as log, SpeedSampler(speed_work, cpus) as speed:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=cwd, env=env, start_new_session=True)
        code = _wait(proc, time.monotonic() + DEADLINE_S)
        wall = time.perf_counter() - start
    return code, wall, speed


def _wait(proc, deadline):
    """Reap proc; kill its process group at the deadline,
    or when this process is stopped while waiting."""
    def on_alarm(signum, frame):
        _killpg(proc.pid)

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL,
                     max(deadline - time.monotonic(), 0.001))
    try:
        _, status = os.waitpid(proc.pid, 0)
    except BaseException:
        _killpg(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _killpg(proc.pid)  # pool workers left behind by a crash, if any
    return proc.returncode


def _killpg(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# --- banks and outputs ------------------------------------------------------

def write_bank(path, bank, n, seed):
    """What `hodt gen` writes for these arguments."""
    from hodt.corpus_gen import GenConfig, gen_ctree, gen_toy_treebank
    from hodt.treebank_io import write_bracketed, write_export
    if bank.kind == 'toy':
        trees = gen_toy_treebank(GenConfig(seed=seed), n)
    else:
        cfg = GenConfig(seed=seed, discontinuity_probability=bank.disc_prob,
                        unary_probability=bank.unary_prob)
        trees = [gen_ctree(cfg, bank.length, index=i) for i in range(n)]
    text = (write_export(trees) if bank.fmt == 'export'
            else write_bracketed(trees, path))
    with open(path, 'w', encoding='utf-8', newline='\n') as f:
        f.write(text)
    return {'format': bank.fmt, 'sentences': n,
            'mean_length': statistics.fmean(len(t.sentence) for t in trees)}


def units(text, fmt):
    """Split a hodt output file into one string per sentence."""
    if fmt == 'bracketed':
        return [line for line in text.split('\n') if line.strip()]
    if fmt == 'export':
        return ['#BOS' + b for b in text.split('#BOS')[1:]]
    return [b for b in text.split('\n\n') if b.strip()]  # conll


def read_text(path, errors='strict'):
    with open(path, encoding='utf-8', errors=errors) as f:
        return f.read()


def compare_outputs(run, label, expected_path, got_path, fmt):
    """Count sentences whose output differs between two runs."""
    want = units(read_text(expected_path), fmt)
    got = units(read_text(got_path), fmt)
    bad = sum(a != b for a, b in zip(want, got)) + abs(len(want) - len(got))
    if bad:
        run.fail(bad, f'{label}: {bad} sentences differ from {expected_path}')


def check_trees(run, label, path, fmt, expected):
    """Parsed trees: the right count, each one valid."""
    from hodt.headrules import LEFTMOST, lexicalize
    from hodt.treebank_io import read_bracketed, read_export
    from hodt.trees import validate
    text = read_text(path)
    raw = read_bracketed(text) if fmt == 'bracketed' else read_export(text)
    if len(raw) != expected:
        run.fail(abs(len(raw) - expected),
                 f'{label}: {len(raw)} trees for {expected} sentences')
    invalid = sum(1 for t in raw if validate(lexicalize(t, LEFTMOST)))
    if invalid:
        run.fail(invalid, f'{label}: {invalid} invalid trees')


def first_unit(src, dst, fmt):
    with open(dst, 'w', encoding='utf-8', newline='\n') as f:
        f.write(units(read_text(src), fmt)[0].rstrip('\n') + '\n\n')


# --- the two sections of a workload ----------------------------------------

def reduction_section(run, bank_path, bank, n, m):
    """convert at --jobs 1 and 2, then check."""
    conll = run.path('reduce.conll')
    c1 = run.hodt('convert', ['convert', '-i', bank_path, '--head-rules',
                              bank.rules, '-o', conll], n)
    c2 = run.hodt('convert_j2', ['convert', '-i', bank_path, '--head-rules',
                                 bank.rules, '--jobs', 2,
                                 '-o', run.path('reduce_j2.conll')], n)
    compare_outputs(run, 'convert_j2', conll, run.path('reduce_j2.conll'),
                    'conll')
    if len(units(read_text(conll), 'conll')) != n:
        run.fail(n, 'convert: wrong sentence count')
    report = run.path('check.json')
    ck = run.hodt('check', ['check', '-i', bank_path, '--head-rules',
                            bank.rules, '-o', report], n)
    summary = json.loads(read_text(report))
    violations = (summary['roundtrip_failures']
                  + summary['equivalence_failures']
                  + abs(summary['trees'] - n))
    if violations:
        run.fail(violations, f'check: {violations} violations')
    m['convert_sent_per_s'] = (n / c1.ref_wall, '1/s')
    m['convert_j2_sent_per_s'] = (n / c2.ref_wall, '1/s')
    m['check_sent_per_s'] = (n / ck.ref_wall, '1/s')


def learning_section(run, learn, tag, m=None, full=True):
    """train, then parse the held-out bank at --jobs 1 and 2.  With m set,
    writes the learning metrics into it; returns held-out F1 when full."""
    n_train, n_test = learn.sizes(run.seconds)
    bank = learn.bank
    train = run.bank(tag + 'train', bank, n_train, run.seed)
    test = run.bank(tag + 'test', bank, n_test,
                    run.seed + HELDOUT_SEED_OFFSET)
    # the parse input: the held-out sentences as CoNLL token columns
    conll = run.path(tag + 'test.conll')
    run.hodt(tag + 'prep_convert', ['convert', '-i', test, '--head-rules',
                                    bank.rules, '-o', conll], n_test)
    model = run.path(tag + 'model')
    trains = []
    for k in range(learn.train_banks):
        suffix = str(k + 1) if k else ''
        if k:
            train = run.bank(tag + 'train' + suffix, bank, n_train,
                             run.seed + k * TRAIN_SEED_OFFSET)
        trains.append(run.hodt(tag + 'train' + suffix, [
            'train', '-i', train, '-m', model + suffix,
            '--head-rules', bank.rules, '--mode', learn.mode,
            '--epochs', learn.epochs, '--seed', run.seed], n_train))
    out_fmt = 'bracketed' if learn.mode == 'continuous' else 'export'
    pred = run.path(tag + 'pred.' + out_fmt)
    latency = run.path(tag + 'latency.json') if m is not None else None
    p1 = run.hodt(tag + 'parse', ['parse', '-i', conll, '-m', model,
                                  '-o', pred], n_test, latency=latency)
    check_trees(run, tag + 'parse', pred, out_fmt, n_test)
    if m is not None:
        p2 = run.hodt(tag + 'parse_j2', [
            'parse', '-i', conll, '-m', model, '--jobs', 2,
            '-o', run.path(tag + 'pred_j2.' + out_fmt)], n_test)
        compare_outputs(run, tag + 'parse_j2', pred,
                        run.path(tag + 'pred_j2.' + out_fmt), out_fmt)
        samples = sorted((end - start) * p1.speed.mean(start, end)
                         for start, end in json.loads(read_text(latency)))
        if len(samples) != n_test:
            run.fail(n_test, f'parse: {len(samples)} latency samples')
        m['train_sent_per_s'] = (n_train * learn.epochs * len(trains)
                                 / sum(t.ref_wall for t in trains), '1/s')
        m['train_peak_rss_mb'] = (max(t.rss_mb for t in trains), 'MB')
        m['parse_sent_per_s'] = (n_test / p1.ref_wall, '1/s')
        m['parse_j2_sent_per_s'] = (n_test / p2.ref_wall, '1/s')
        m['parse_p50_ms'] = (statistics.median(samples) * 1e3, 'ms')
        m['parse_tail_ms'] = (samples[-TAIL_BEYOND - 1] * 1e3, 'ms')
        m['parse_peak_rss_mb'] = (p1.rss_mb, 'MB')
        run.latency = {'samples': len(samples), 'tail_percentile':
                       round(100 * (len(samples) - TAIL_BEYOND)
                             / len(samples), 2)}
    if not full:
        return None
    if m is not None and run.workload.setup == 'parse':
        one = run.path(tag + 'one.conll')
        first_unit(conll, one, 'conll')
        m['setup_s'] = (setup_time(run, [
            'parse', '-i', one, '-m', model, '-o', run.path('one.out')]),
            's')
    report = run.path(tag + 'eval.json')
    run.hodt(tag + 'eval', ['eval', test, pred, '-o', report], n_test)
    return json.loads(read_text(report))['f1']


def setup_time(run, argv):
    """Median wall time of SETUP_REPEATS one-sentence `hodt` processes."""
    walls = [run.hodt(f'setup{i}', argv, 1).ref_wall
             for i in range(SETUP_REPEATS)]
    return statistics.median(walls)


def run_workload(run, trace):
    w = run.workload
    m = {}
    bank = w.reduce_bank or w.learn.bank
    n = w.reduce_size(run.seconds)
    reduce = run.bank('reduce', bank, n, run.seed)
    reduction_section(run, reduce, bank, n, m)
    if w.setup == 'convert' and not trace:
        one = run.path('one.' + bank.fmt)
        first_unit(reduce, one, bank.fmt)
        m['setup_s'] = (setup_time(run, [
            'convert', '-i', one, '--head-rules', bank.rules,
            '-o', run.path('one.out')]), 's')
    f1 = learning_section(run, w.learn, '', m=m, full=not trace)
    if trace:
        return traced_metrics(run)
    if w.quality_probe:
        f1 = learning_section(run, QUALITY_PROBE, 'quality_')
    m['heldout_f1'] = (f1, 'ratio')
    return m


# --- the traced run ---------------------------------------------------------

# replay order matters: parse reads the bundle replayed before it
REPLAYED = ('convert', 'check', 'train', 'parse')
OUTPUT_FLAG = {'convert': '-o', 'check': '-o', 'train': '-m', 'parse': '-o'}


def traced_metrics(run):
    """Replay the REPLAYED phases in this process under the tracer."""
    from tracer import Tracer
    import hodt.cli

    startup = statistics.median(
        run.hodt(f'startup{i}', ['gen', '-n', 0, '-o', run.path('empty')],
                 1).ref_wall for i in range(STARTUP_REPEATS))
    traced_dir = run.path('traced')
    os.makedirs(traced_dir)
    renames = {}
    for label in REPLAYED:
        argv = run.phases[label].argv
        old = argv[argv.index(OUTPUT_FLAG[label]) + 1]
        renames[old] = os.path.join(traced_dir, os.path.basename(old))
    tracer = Tracer()
    tracer.install()
    os.sched_setaffinity(0, {run.cpu})
    try:
        for label in REPLAYED:
            argv = [renames.get(a, a) for a in run.phases[label].argv]
            run.attempted += run.phases[label].sentences
            with SpeedSampler(run.speed_work, [run.cpu]) as speed:
                code = tracer.phase(label, hodt.cli.main, argv)
            tracer.phases[-1].factor = speed.mean()
            if code != 0:
                run.fail(run.phases[label].sentences,
                         f'traced {label}: exit {code}')
    finally:
        os.sched_setaffinity(0, run.cpus)
        tracer.uninstall()
    for old, new in renames.items():
        pairs = [(old, new)]
        if os.path.isdir(old):
            pairs = [(os.path.join(old, f), os.path.join(new, f))
                     for f in sorted(os.listdir(old))]
        for a, b in pairs:
            if not os.path.exists(b) or read_text(a) != read_text(b):
                run.fail(1, f'traced output {b} differs from {a}')

    out = tracer.metrics()
    out['kernels.cle_equal_ms'] = (cle_worst_case(run), 'ms')
    untraced = sum(run.phases[p].ref_wall - startup for p in REPLAYED)
    out['trace_overhead_ratio'] = (tracer.wall() / untraced, 'ratio')
    out['cli.startup_s'] = (startup, 's')
    out['cli.pmap_speedup'] = (
        run.phases['parse'].ref_wall / run.phases['parse_j2'].ref_wall,
        'ratio')
    out['cli.convert_pmap_speedup'] = (
        run.phases['convert'].ref_wall / run.phases['convert_j2'].ref_wall,
        'ratio')
    os.makedirs(WORK, exist_ok=True)
    spans = os.path.join(
        WORK, f'spans-{run.name}-s{run.seed}.jsonl.gz')
    tracer.write_spans(spans, {'workload': run.name, 'seed': run.seed,
                               'seconds': run.seconds})
    run.spans_file = os.path.relpath(spans, ROOT)
    return out


def cle_worst_case(run):
    """Median ms, at the reference speed, of cle_decode on all-equal
    scores: what the arc scorer gives in the first training epoch (all
    weights zero), where CLE reruns its contraction for every candidate
    root.  Each result must be a single-rooted tree."""
    import numpy
    from hodt.kernels import cle_decode
    scores = numpy.zeros((CLE_WORST_N + 1, CLE_WORST_N + 1))
    times = []
    os.sched_setaffinity(0, {run.cpu})
    try:
        with SpeedSampler(run.speed_work, [run.cpu]) as speed:
            for _ in range(CLE_WORST_REPEATS):
                start = time.perf_counter()
                heads, _ = cle_decode(scores)
                times.append((start, time.perf_counter()))
                run.attempted += 1
                if not is_tree(heads):
                    run.fail(1, f'cle_decode: not a tree: {heads}')
    finally:
        os.sched_setaffinity(0, run.cpus)
    return statistics.median(
        (end - start) * speed.mean(start, end) for start, end in times) * 1e3


def is_tree(heads):
    """heads[i-1] is the head of token i, 0 the root: one root, no cycle."""
    if sum(h == 0 for h in heads) != 1:
        return False
    for token in range(1, len(heads) + 1):
        seen = set()
        while token != 0:
            if token in seen or not 0 <= heads[token - 1] <= len(heads):
                return False
            seen.add(token)
            token = heads[token - 1]
    return True


# --- metadata and main ------------------------------------------------------

def git_commit():
    """HEAD of ROOT when it is a git checkout, read without running git."""
    git = os.path.join(ROOT, '.git')
    try:
        head = read_text(os.path.join(git, 'HEAD')).strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            return read_text(path).strip()
        for line in read_text(os.path.join(git, 'packed-refs')).split('\n'):
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(run, trace):
    import numpy
    import hodt.kernels
    meta = {
        'workload': run.name, 'seed': run.seed, 'seconds': run.seconds,
        'trace': trace, 'backend': hodt.kernels.BACKEND,
        'python': platform.python_version(), 'numpy': numpy.__version__,
        'nproc': len(os.sched_getaffinity(0)), 'commit': git_commit(),
        'banks': run.banks,
        'phases': {p.label: {'wall_s': round(p.wall, 4),
                             'speed_factor': round(p.factor, 4),
                             'peak_rss_mb': round(p.rss_mb, 1),
                             'sentences': p.sentences}
                   for p in run.phases.values()},
    }
    if run.latency:
        meta['parse_latency'] = run.latency
    if run.workload.quality_probe and not trace:
        meta['heldout_f1_from'] = 'quality probe (toy bank)'
    if run.spans_file:
        meta['spans_file'] = run.spans_file
    return meta


def preflight():
    """The checkout must hold the hodt sources, and they must be the
    ones that get imported."""
    if not os.path.isfile(os.path.join(SRC, 'hodt', 'cli.py')):
        sys.exit(f'perfbench: no hodt sources under {SRC}; run from the '
                 'root of a hodt checkout')
    sys.path.insert(0, SRC)
    import hodt
    where = os.path.realpath(os.path.dirname(hodt.__file__))
    if where != os.path.realpath(os.path.join(SRC, 'hodt')):
        sys.exit(f'perfbench: imported hodt from {where}, not from {SRC}')


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    preflight()
    # SIGTERM unwinds like an exit, so the running child is killed and
    # reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    workdir = os.path.join(
        WORK, f'{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}')
    os.makedirs(workdir)
    run = Run(args.workload, args.seed, args.seconds, workdir)
    metrics = {}
    try:
        metrics = run_workload(run, bool(args.trace))
    except PhaseFailed:
        pass
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({'meta': metadata(run, args.trace)}, sort_keys=True))
    correct = run.failed == 0
    print(json.dumps({
        'correct': correct,
        'attempted': run.attempted,
        'failed': run.failed,
        'metrics': {k: {'value': v, 'unit': u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == '__main__':
    sys.exit(main())
