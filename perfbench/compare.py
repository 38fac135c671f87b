#!/usr/bin/env python3
"""Compares result documents of two builds against BENCHMARK.json's bounds.

    python3 perfbench/compare.py --base A1.json A2.json ... --head B1.json ...

Each document is one run's .bench_build/results/*.json, all of one workload
and trace mode; base and head must cover the same seeds. The model's own
answers (sim_cycles, replication_ability, unrecoverable_loads) must match
exactly, seed by seed. Every other metric is compared by median, and a
change worse than its bound is a regression. Exit codes: 0 ok; 1 a
regression, a changed answer, or a document with failed output checks; 2
documents that cannot be compared (mixed workloads or modes, different
seeds); 3 documents from different hosts or toolchains (CPU model, nproc,
compiler, build type), which are flagged and never gated.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_model", "nproc", "compiler", "build_type")
# The modelled design's answers: a pure function of the seed, so any change
# at all means the simulated numbers changed.
EXACT = ("sim_cycles", "replication_ability", "unrecoverable_loads")


def load(paths):
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    return docs


def by_seed(docs):
    seeds = {}
    for doc in docs:
        if doc["seed"] in seeds:
            return None
        seeds[doc["seed"]] = doc
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base, head = load(args.base), load(args.head)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)

    kinds = {(d["workload"], d["trace"]) for d in base + head}
    if len(kinds) != 1:
        print("compare: documents mix workloads or trace modes: %s" % sorted(kinds))
        return 2
    hosts = {tuple(d["fingerprint"][k] for k in HOST_KEYS) for d in base + head}
    if len(hosts) != 1:
        print("compare: HOST FINGERPRINTS DIFFER (%s); not gating:" %
              ", ".join(HOST_KEYS))
        for host in sorted(hosts, key=str):
            print("  %s" % (host,))
        return 3
    base_seeds, head_seeds = by_seed(base), by_seed(head)
    if base_seeds is None or head_seeds is None:
        print("compare: a side holds two documents of one seed")
        return 2
    if set(base_seeds) != set(head_seeds):
        print("compare: base seeds %s, head seeds %s" %
              (sorted(base_seeds), sorted(head_seeds)))
        return 2
    failed = ["%s seed %d" % (side, d["seed"])
              for side, docs in (("base", base), ("head", head))
              for d in docs if d["failed"]]
    if failed:
        print("compare: output checks failed in: %s" % ", ".join(failed))
        return 1

    bad = False
    print("%-24s %14s %14s %9s %7s  verdict" % ("metric", "base", "head",
                                               "change", "bound"))
    for name in EXACT:
        changed = [s for s in sorted(base_seeds)
                   if base_seeds[s]["metrics"][name]["value"] !=
                   head_seeds[s]["metrics"][name]["value"]]
        bad = bad or bool(changed)
        b = statistics.median(d["metrics"][name]["value"] for d in base)
        h = statistics.median(d["metrics"][name]["value"] for d in head)
        print("%-24s %14.6g %14.6g %9s %7s  %s" % (
            name, b, h, "", "exact",
            "CHANGED at seeds %s" % changed if changed else "ok"))
    metrics = spec["per_layer"] if base[0]["trace"] else spec["end_to_end"]
    for entry in metrics:
        name = entry["name"]
        if name in EXACT:
            continue
        b = statistics.median(d["metrics"][name]["value"] for d in base)
        h = statistics.median(d["metrics"][name]["value"] for d in head)
        change = (h - b) / b if b else 0.0
        worse = -change if entry["better"] == "higher" else change
        bound = entry.get("bound")
        if bound is None:
            verdict = "-"
        elif worse > bound:
            verdict = "REGRESSION"
            bad = True
        else:
            verdict = "ok"
        print("%-24s %14.6g %14.6g %+8.2f%% %7s  %s" % (
            name, b, h, 100 * change, "-" if bound is None else bound, verdict))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
