"""Record the reference outcomes that `run.py` checks each item against.

    python3 bench/record_reference.py --workload solve_cap --seeds 0-39

For every seed, runs each item of the workload once and stores what
`Item.check` records: optimum and witness digest for `solve_cap`, exit code
for `verify_chains`, and the sha256 of every written file for `reduce_scale`.
Run it only on a commit whose outcomes are known to be right; an item whose
own checks fail is not recorded and the script exits non-zero.
"""

import argparse
import json
import shutil
import sys

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="one seed or a range, e.g. 0-39")
    args = parser.parse_args()
    run.import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    path = run.REFERENCES / f"{args.workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    status = 0
    for seed in parse_seeds(args.seeds):
        workdir = run.WORK / f"record-{args.workload}-{seed}"
        records = {}
        try:
            for item in workloads.build(args.workload, seed, workdir):
                item.prepare()
                ok, record, _ = item.check(item.run(), None)
                if not ok:
                    print(f"seed {seed}: {item.name} fails its own checks: {record}", file=sys.stderr)
                    status = 1
                    break
                records[item.name] = record
            else:
                table[str(seed)] = records
                print(f"seed {seed}: recorded {len(records)} items", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    path.parent.mkdir(exist_ok=True)
    ordered = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
