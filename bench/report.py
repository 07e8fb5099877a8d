"""End-to-end metrics of every workload in one table.

    python3 bench/report.py [--seed N] [--seconds S]

Runs `bench/run.py --trace 0` once per workload of BENCHMARK.json and prints
`setup_s`, `wall_s`, `peak_rss_mib` and `fail_ratio` with their units.
Exits 1 if a run fails or any operation fails its check.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    header = ["workload"] + [f"{n} ({u})" for n, u in units.items()]
    print("  ".join(f"{h:>18s}" for h in header + ["fail_ratio (ratio)"]))
    ok = True
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload",
             w["name"], "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{w['name']:>18s}  run failed (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        cells = [f"{result['metrics'][n]['value']:.4g}" for n in units]
        cells.append(f"{result['failed'] / result['attempted']:.4g}")
        print("  ".join(f"{c:>18s}" for c in [w["name"]] + cells))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
