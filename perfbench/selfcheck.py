#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py [--seconds S] [--seeds A B]

Runs every workload on two seeds (default 1 and 7): untraced twice on the
first seed and once on the second, traced once on each. It checks that

  * every run passes its output checks and exits 0;
  * the flow digest and the ECO transcript hashes repeat for a seed;
  * the traced replay reproduces the untraced run (flow digest; ECO client 0
    transcript), which the traced run itself checks against its recompose
    answers;
  * the second seed changes the inputs (a different digest or transcript),
    so no check or expected value is tied to one seed.

Exits non-zero on the first broken expectation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    WORKLOADS = [w["name"] for w in json.load(f)["workloads"]]


def run(workload, seed, seconds, trace):
    """Runs one workload; returns (detail line, result line) as dicts."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(int(trace))], cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    label = f"{workload} seed {seed} trace {int(trace)}"
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr[-4000:])
        sys.exit(f"FAIL {label}: exit code {out.returncode}\n" +
                 "\n".join(lines[-2:]))
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    print(f"ok   {label}: attempted {result['attempted']}", flush=True)
    return detail["details"], result


def fingerprint(details):
    """The seed-determined outputs of a run: digests and transcripts."""
    return {k: v for k, v in details.items()
            if k in ("flow_digest", "transcript_c0", "transcript_c1")}


def expect(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")
    print(f"ok   {message}", flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 7))
    args = parser.parse_args()
    first, second = args.seeds

    for workload in WORKLOADS:
        a, _ = run(workload, first, args.seconds, False)
        b, _ = run(workload, first, args.seconds, False)
        c, _ = run(workload, second, args.seconds, False)
        ta, _ = run(workload, first, args.seconds, True)
        tc, _ = run(workload, second, args.seconds, True)
        expect(fingerprint(a) and fingerprint(a) == fingerprint(b),
               f"{workload}: outputs repeat for seed {first}")
        expect(fingerprint(a) != fingerprint(c),
               f"{workload}: seed {second} changes the inputs")
        for untraced, traced, seed in ((a, ta, first), (c, tc, second)):
            shared = set(fingerprint(untraced)) & set(fingerprint(traced))
            expect(shared and all(untraced[k] == traced[k] for k in shared),
                   f"{workload}: traced run reproduces seed {seed}")
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
