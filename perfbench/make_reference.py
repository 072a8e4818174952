#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the library as it stands.

    python3 perfbench/make_reference.py [--norm-seeds N]

For every block of blocks_cold it stores the linkage class (the members
the seed chooses from) and the digest of the block's JSON without its
``representative`` field, after checking that every member of the class
gives that same digest.  For norms it stores the digest of all norm
values for seeds 0..N-1 at the full size and for seed 0 at the tiny size.

Run it only on library code whose answers are trusted: the stored values
are what later runs are checked against.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from oracles import block_digest, block_problems, norm_digest  # noqa: E402
from run import import_library, run_round  # noqa: E402
from workloads import BLOCKS, Norms, run_block  # noqa: E402


def block_reference(lib):
    out = {}
    for key in BLOCKS:
        label, weight = key.split(":")
        rs = lib.rootdata.cached_root_system(label)
        members = [",".join(str(c) for c in lib.jsonio.weight_to_json(w))
                   for w in rs.dot_orbit(lib.jsonio.parse_weight(weight))]
        reports = {}
        for member in members:
            code, text, err = run_block(lib, label, member)
            if code != 0:
                raise SystemExit(f"{key} at {member} failed: {err}")
            reports[member] = json.loads(text)
        digests = {block_digest(r) for r in reports.values()}
        if len(digests) != 1:
            raise SystemExit(f"{key}: class members disagree")
        regular = len(members) == len(rs.weyl_group())
        out[key] = {"class": members, "digest": digests.pop(),
                    "bruhat": rs.rank == 2 and regular}
        for member, report in reports.items():
            problems = block_problems(lib, key, label, member, report, out[key])
            if problems:
                raise SystemExit(f"{key} at {member}: {problems}")
        print(key, len(members), "members", file=sys.stderr)
    return out


def norm_reference(lib, size, seed):
    workload = Norms(seed, size, {"norms_digest": {}})
    workload.setup(lib)
    _, _, outputs = run_round(workload.ops())
    problems = [p for p in workload.check(outputs, lib) if p]
    if problems:
        raise SystemExit(f"norms {size}:{seed}: {problems[:3]}")
    return norm_digest(rows for _, rows in outputs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--norm-seeds", type=int, default=100)
    args = parser.parse_args()
    lib = import_library()
    reference = {"blocks": block_reference(lib), "norms_digest": {}}
    seeds = [("tiny", 0)] + [("full", s) for s in range(args.norm_seeds)]
    for size, seed in seeds:
        reference["norms_digest"][f"{size}:{seed}"] = norm_reference(lib, size, seed)
        print("norms", size, seed, file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
