#!/usr/bin/env python3
"""Record the reference verdicts that run.py checks at its reference seed.

    python3 perfbench/record_references.py

Writes perfbench/references.json: per workload, size and input instance of
the reference seed, the satisfied-location count and the digest of each
formula's minimized verdict signal.
Record once, at a commit whose verdicts are trusted; a later change that
alters a verdict then fails the benchmark's check.
"""

import json
import shutil

import run


def main() -> None:
    run._import_engine()
    from workloads import WORKLOADS

    refs = {}
    workbase = run.ROOT / ".perfbench_work"
    workbase.mkdir(exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            for size, params in workload.sizes.items():
                instances = []
                for k in range(run.INSTANCES):
                    seed = run.instance_seed(run.REFERENCE_SEED, k)
                    *_, verdicts = run.run_repetition(workload, params, seed, workbase, None)
                    instances.append({
                        "seed": seed,
                        "verdicts": [
                            {"formula": text, "count": count, "digest": digest}
                            for text, count, digest in verdicts
                        ],
                    })
                    print(name, size, seed, [count for _, count, _ in verdicts], flush=True)
                refs[f"{name}/{size}"] = {"params": params, "instances": instances}
    finally:
        shutil.rmtree(workbase, ignore_errors=True)
    with open(run.HERE / "references.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
