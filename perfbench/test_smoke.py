"""Smoke test of the benchmark: every workload at a tiny size.

Each run must pass its own correctness checks and report exactly the
metrics BENCHMARK.json names, each with its unit: the end-to-end set with
--trace 0 and the per-layer set with --trace 1.  A directory holding only
the benchmark, without the hodt sources, must make it fail cleanly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, 'BENCHMARK.json'), encoding='utf-8') as _f:
    SPEC = json.load(_f)


def _bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join('perfbench', 'run.py'),
         '--workload', workload, '--seed', '3', '--seconds', '1',
         '--trace', str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize('trace,kind', [(0, 'end_to_end'), (1, 'per_layer')])
@pytest.mark.parametrize('workload', [w['name'] for w in SPEC['workloads']])
def test_reports_every_metric(workload, trace, kind):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().split('\n')[-1])
    assert sorted(result) == ['attempted', 'correct', 'failed', 'metrics']
    assert result['correct'] is True
    assert result['failed'] == 0 and result['attempted'] >= 1
    units = {name: m['unit'] for name, m in result['metrics'].items()}
    assert units == {m['name']: m['unit'] for m in SPEC[kind]}
    if kind == 'end_to_end':
        assert all(m['value'] > 0 for m in result['metrics'].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, 'BENCHMARK.json'), tmp_path)
    shutil.copytree(HERE, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    proc = _bench(tmp_path, 'toy', 0)
    assert proc.returncode != 0
    assert proc.stdout == ''
