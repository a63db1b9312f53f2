#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark; takes about a minute with the
harness already built.

    python3 perfbench/selfcheck.py

Runs every workload at the tiny size, end-to-end and traced, through
perfbench/run.py and asserts that each run passes its checks and emits
exactly the metrics BENCHMARK.json names, each with its unit. Then asserts
that a corrupted store hash or reference, and a failed scrape, each make a
run fail (non-zero exit, "correct": false). Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_dblp", "batch_recruitment", "stream_ingest"]


def run(workload, trace, inject=None):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--size", "tiny"]
    if inject:
        command += ["--inject", inject]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, out.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, stderr = run(workload, trace)
            label = "%s --trace %s" % (workload, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0,
                   label + " passes its checks" +
                   ("" if code == 0 else ": " + stderr.strip()[-300:]))
            if result is None:
                continue
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(got == wanted, label + " emits every %s metric with its "
                   "unit" % key)
            if trace == "0":
                expect(all(m["value"] != 0 for m in result["metrics"].values()),
                       label + " reports no end-to-end metric as 0")

    for workload, inject in (("stream_ingest", "corrupt-hash"),
                             ("batch_dblp", "corrupt-hash"),
                             ("stream_ingest", "fail-scrape"),
                             ("batch_recruitment", "fail-scrape")):
        code, result, _ = run(workload, "0", inject)
        expect(code != 0 and result is not None and not result["correct"],
               "%s --inject %s fails the run" % (workload, inject))

    print("self-check %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
