"""Run one `hodt` command in this process, as the `hodt` console script does.

    python3 perfbench/hodt_child.py [--cpu N] [--latency FILE] [--rss FILE]
                                    <hodt arguments>

The benchmark starts every CLI phase through this file so that each phase
is its own process with the same start-up path.  --cpu pins the process
to one CPU, the one the benchmark samples the speed of.  With --latency
FILE the start and end (time.perf_counter, which all processes of the
machine share) of each call to hodt.cli._parse_one, the CLI's
per-sentence parse step, are written to FILE as a JSON list of pairs
after the command returns.  Only `parse --jobs 1` runs that step in this
process.  With --rss FILE this process's peak resident set size in kB
(VmHWM) is written to FILE.  That is the peak of the hodt program alone:
the rusage of a child started by vfork, as subprocess does, also holds the
parent's peak.
"""

import json
import os
import sys
import time


def main(argv):
    latency_path = rss_path = None
    while argv[:1] in (['--cpu'], ['--latency'], ['--rss']):
        if argv[0] == '--cpu':
            os.sched_setaffinity(0, {int(argv[1])})
        elif argv[0] == '--latency':
            latency_path = argv[1]
        else:
            rss_path = argv[1]
        argv = argv[2:]
    import hodt.cli as cli

    spans = []
    if latency_path is not None:
        inner = cli._parse_one
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            out = inner(*args, **kwargs)
            spans.append((start, clock()))
            return out

        cli._parse_one = timed
    code = cli.main(argv)
    if latency_path is not None:
        with open(latency_path, 'w', encoding='utf-8') as f:
            json.dump(spans, f)
    if rss_path is not None:
        with open('/proc/self/status', encoding='ascii') as f:
            peak = next(line.split()[1] for line in f
                        if line.startswith('VmHWM:'))
        with open(rss_path, 'w', encoding='ascii') as f:
            f.write(peak)
    return code


if __name__ == '__main__':
    sys.exit(main(sys.argv[1:]))
