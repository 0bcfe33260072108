"""Run one workload on several seeds and print each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py WORKLOAD SECONDS TRACE SEED [SEED ...]

For every metric on the result line it prints the median over the runs and
the distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), the measure the benchmark's bounds are
set against. A run that fails or reports an incorrect verdict is listed
with its output tail.
"""

import json
import statistics
import subprocess
import sys
import time


def main(argv):
    if len(argv) < 5:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    workload, seconds, trace, seeds = argv[1], argv[2], argv[3], argv[4:]
    values = {}
    for seed in seeds:
        t0 = time.time()
        proc = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", workload, "--seed", seed,
             "--seconds", seconds, "--trace", trace],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            continue
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={time.time() - t0:.1f}s", flush=True)
        if not result["correct"]:
            print("\n".join(l for l in lines if l.startswith("# check")))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in sorted(values.items()):
        if len(vs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:34s} median {med:12.5g}  spread {spread:6.3f}  min {min(vs):11.5g}  max {max(vs):11.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
