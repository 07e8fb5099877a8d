"""The ksbench benchmark.

    python3 bench/run.py --workload {search,scale,concentration} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout.  Each pass runs in a fresh process
(`worker.py`), so its peak resident memory is its own and nothing carries
over between passes.  A new pass starts while less than `--seconds` have
passed, so there is always at least one.

With `--trace 0` the result holds the end-to-end metrics: `setup_s` (median
over at least five set-ups), `wall_s` and `peak_rss_mib` (medians over the
passes).  With `--trace 1` each untraced pass is followed by a traced one,
a pair starting only if it should end within `--seconds` (the first always
runs), and the result holds the per-layer metrics (medians over the traced
passes) together with the tracing overhead, traced minus untraced `wall_s`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; every operation of every pass counts
as attempted, and as failed when it raised or its output check failed.
The lines before it name every metric with its unit, `fail_ratio`
(failed / attempted) included, and the environment.  A record of the run,
with every pass and check, is written under `bench/out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREADS = 1            # BLAS/OpenMP threads of every pass
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0    # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "KS_THREADS")


class PassError(RuntimeError):
    pass


def git_commit():
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "ksbench").glob("*.py")))


def run_pass(workload, seed, deadline, traced=False, setup_only=False):
    """Run worker.py once; its parsed result plus the spans file, if any."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    spans = OUT / f"spans-{workload}.json"
    if traced:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **{var: str(THREADS) for var in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("no time left for another pass")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"worker exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise PassError(f"unreadable worker output: {lines[-1][:200]}"
                        ) from exc
    result["spans_file"] = str(spans) if traced else None
    return result


def measure(workload, seed, seconds, trace):
    """Untraced passes while `seconds` last; with `trace`, each is followed
    by a traced one, and a pair starts only if it should end in time."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced, longest = [], [], 0.0
    while True:
        t = time.monotonic()
        plain.append(run_pass(workload, seed, deadline))
        if trace:
            traced.append(run_pass(workload, seed, deadline, traced=True))
            traced[-1]["layers"] = tracing.summarize(
                tracing.load(traced[-1]["spans_file"]))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + (longest if trace else 0.0) >= seconds:
            break
    setups = [p["setup_s"] for p in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(workload, seed, deadline,
                               setup_only=True)["setup_s"])
    return plain, traced, setups


def metric_values(plain, traced, setups):
    if not traced:
        return {"setup_s": statistics.median(setups),
                "wall_s": statistics.median(p["wall_s"] for p in plain),
                "peak_rss_mib": statistics.median(p["peak_rss_mib"]
                                                  for p in plain)}
    values = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    values["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    values["trace.overhead_s"] = (values["trace.wall_s"] - statistics.median(
        p["wall_s"] for p in plain))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ksbench" / "__init__.py").is_file():
        sys.exit(f"error: no ksbench sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"error: unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)

    try:
        plain, traced, setups = measure(args.workload, args.seed,
                                        args.seconds, args.trace)
    except PassError as exc:
        sys.exit(f"error: {args.workload}: {exc}")
    values = metric_values(plain, traced, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"error: metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    checks = [c for p in plain + traced for c in p["checks"]]
    failed = sum(1 for c in checks if not c[1])
    env = dict(plain[0]["env"], nproc=len(os.sched_getaffinity(0)),
               blas_threads_pinned=THREADS, commit=git_commit(),
               src_lines=source_lines())

    print(f"env: {json.dumps(env)}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced "
          f"passes, {len(traced)} traced, {len(setups)} set-ups")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':36s} {failed / len(checks):.6g} ratio "
          f"({failed} failed / {len(checks)} attempted)")
    first = len(plain[0]["checks"])
    for i, (name, ok, detail) in enumerate(checks):
        if i < first or not ok:
            print(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "setups": setups, "passes": plain, "traced_passes": traced,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
