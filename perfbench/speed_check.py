#!/usr/bin/env python3
"""Check that the speed factor does not depend on the program measured.

    python3 perfbench/speed_check.py [--rounds 10] [--seed 1]

Every timing of the benchmark is a wall time multiplied by the speed
factor that speed.py samples on the child's own CPU while the child runs
(see run.timed_child).  The sampler shares that CPU with the child, so a
program that fills the caches could in principle lower the factor and
hide part of its own cost.  This script tests for that.  It runs, in
turn and exactly as the benchmark runs its phases, a fixed control child
(a pure-Python loop of known cost) and one of:

- `thrash`: the same loop interleaved with random gathers from a 64 MB
  array, the most cache-hostile child here;
- `convert`, `check`, `train`: hodt on a bank of 40-token random trees.

For each of those it prints the factor measured during it divided by the
mean factor of the two controls around it: about 1 when the factor is a
property of the machine only.  It also prints, for the control, the
spread (IQR over median) of its raw and of its rescaled wall time, which
shows what the rescaling removes.  Run from the root of a source
checkout; it writes only under .bench_work/ and takes about two minutes.
"""

import argparse
import os
import shutil
import statistics
import sys
import time

import run as bench

CONTROL_LOOPS = 6_000_000
THRASH_WORDS = 1 << 23  # 64 MB of float64
LONG = bench.Bank('random', 40)


def control(kind):
    """The control child: CONTROL_LOOPS steps of a Python loop; `thrash`
    adds a random gather from THRASH_WORDS floats every 500 steps."""
    acc = 0
    if kind == 'thrash':
        import numpy
        words = numpy.ones(THRASH_WORDS)
        index = numpy.random.default_rng(0).integers(0, THRASH_WORDS, 4000)
    for i in range(CONTROL_LOOPS):
        acc += i * i % 7
        if kind == 'thrash' and i % 500 == 0:
            acc += int(words[index].sum())
    return acc


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def check(rounds, seed):
    workdir = os.path.join(bench.WORK, f'speed_check-{os.getpid()}')
    os.makedirs(workdir)
    try:
        run = bench.Run('long', seed, 1, workdir)
        reduce = run.bank('reduce', LONG, 300, seed)
        train = run.bank('train', LONG, 12, seed)
        hodt_argv = {
            'convert': ['convert', '-i', reduce, '--head-rules', 'leftmost',
                        '-o', run.path('out.conll')],
            'check': ['check', '-i', reduce, '--head-rules', 'leftmost',
                      '-o', run.path('check.json')],
            'train': ['train', '-i', train, '-m', run.path('model'),
                      '--head-rules', 'leftmost', '--epochs', 1],
        }
        kinds = ['thrash'] + list(hodt_argv)
        sequence = ['control']
        for _ in range(rounds):
            for kind in kinds:
                sequence += [kind, 'control']
        measured = []  # (kind, wall, factor)
        for i, kind in enumerate(sequence):
            if kind in hodt_argv:
                phase = run.hodt(f'{kind}{i}', hodt_argv[kind], 1)
                measured.append((kind, phase.wall, phase.factor))
                continue
            cmd = [sys.executable, os.path.abspath(__file__),
                   '--control', kind, '--cpu', str(run.cpu)]
            code, wall, speed = bench.timed_child(
                cmd, workdir, run.env, run.path(f'{kind}{i}.log'),
                [run.cpu], run.speed_work)
            if code != 0:
                sys.exit(f'speed_check: control child exited with {code}')
            measured.append((kind, wall, speed.mean()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratios = {kind: [] for kind in kinds}
    for i in range(1, len(measured) - 1, 2):
        kind, _, factor = measured[i]
        around = (measured[i - 1][2] + measured[i + 1][2]) / 2
        ratios[kind].append(factor / around)
    print(f'factor during each child / mean factor of the controls around'
          f' it, {rounds} rounds: median [quartiles]')
    for kind, values in ratios.items():
        q = statistics.quantiles(values, n=4)
        print(f'  {kind:8s} {statistics.median(values):.3f}'
              f' [{q[0]:.3f}, {q[2]:.3f}]')
    walls = [wall for kind, wall, _ in measured if kind == 'control']
    rescaled = [wall * factor for kind, wall, factor in measured
                if kind == 'control']
    factors = [factor for kind, _, factor in measured if kind == 'control']
    print(f'control, {len(walls)} runs: factor {min(factors):.3f}'
          f'-{max(factors):.3f}; spread of raw wall {spread(walls):.3f},'
          f' of rescaled wall {spread(rescaled):.3f}')


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--rounds', type=int, default=10)
    ap.add_argument('--seed', type=int, default=1)
    ap.add_argument('--control', choices=('control', 'thrash'))
    ap.add_argument('--cpu', type=int)
    args = ap.parse_args(argv)
    if args.control:
        os.sched_setaffinity(0, {args.cpu})
        control(args.control)
        return 0
    bench.preflight()
    started = time.perf_counter()
    check(args.rounds, args.seed)
    print(f'took {time.perf_counter() - started:.0f} s')
    return 0


if __name__ == '__main__':
    sys.exit(main())
