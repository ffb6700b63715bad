"""Record the golden outputs the benchmark's gates compare against.

Run on the commit whose outputs are the reference, from the checkout root:

    python3 perfbench/make_golden.py

It runs every workload once per lift seed of the seed pool (and the smoke
sizes for lift seed 1), untimed, and rewrites ``perfbench/golden.json``.
Each run is repeated and must agree with itself before it is recorded.
"""

import json
import os
import sys

import run


def golden_of(workload: str, output: dict) -> dict:
    if workload == "grow-sweep":
        return {"sha256": output["sha256"], "bytes": output["bytes"]}
    if workload == "simulate-churn":
        if output["digest"] != output["content_digest"]:
            raise SystemExit("report digest disagrees with its content")
        return {"digest": output["digest"], "events": output["events"]}
    return {"payload": output["payload"]}


def record(workload: str, lift: int, size: str) -> dict:
    found = []
    for attempt in range(2):
        rec, err = run.run_child(workload, lift, size, False,
                                 f"golden-{workload}-{lift}-{attempt}", 600)
        if rec is None:
            raise SystemExit(err)
        found.append(golden_of(workload, rec["output"]))
    if found[0] != found[1]:
        raise SystemExit(f"{workload} lift seed {lift}: outputs differ between runs")
    print(workload, size, lift, json.dumps(found[0])[:100], file=sys.stderr)
    return found[0]


def main() -> int:
    golden = {"full": {}, "smoke": {}}
    for workload in sorted(run.child.SETUPS):
        golden["full"][workload] = {
            str(lift): record(workload, lift, "full")
            for lift in range(1, run.SEED_POOL + 1)
        }
        golden["smoke"][workload] = {"1": record(workload, 1, "smoke")}
    with open(os.path.join(run.HERE, "golden.json"), "w") as fp:
        json.dump(golden, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
