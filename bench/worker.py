"""One pass of one workload, in a process of its own.

    python3 bench/worker.py --workload NAME --seed N [--spans FILE] \
        [--setup-only]

Times the set-up (imports plus the inputs' builds) and the pass over the
workload's operations, checks every result, and prints one JSON line.  With
`--spans` the ksbench layers are traced and the spans are written to FILE
when the pass ends.  Run it from the root of a checkout: the ksbench under
`src/` there is the one imported.
"""
import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _threads():
    """Threads of this process as the kernel counts them (Linux only)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import ksbench
    if Path(ksbench.__file__).resolve().parent != SRC / "ksbench":
        sys.exit(f"error: imported ksbench from {ksbench.__file__}, "
                 f"not from {SRC}")
    import workloads
    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    setup, operations = workloads.WORKLOADS[args.workload]
    state = setup(args.seed)
    setup_s = time.perf_counter() - START
    out = {"setup_s": setup_s}
    if not args.setup_only:
        errors, op_s = {}, {}
        t0 = time.perf_counter()
        for name, op, _ in operations:
            t = time.perf_counter()
            try:
                state[name] = op(state)
            except Exception:
                errors[name] = traceback.format_exc()
            op_s[name] = time.perf_counter() - t
        wall_s = time.perf_counter() - t0
        span_count = len(tracer.spans) if tracer else 0

        checks = []
        for name, _, check in operations:
            if name in errors:
                ok, detail = False, errors[name].strip().splitlines()[-1]
                sys.stderr.write(f"{args.workload}: {name} raised\n"
                                 f"{errors[name]}")
            else:
                try:
                    ok, detail = check(state, state[name])
                except Exception:
                    ok, detail = False, ("check raised: "
                                         + traceback.format_exc())
            checks.append([name, bool(ok), detail])
        if tracer:
            tracer.dump(args.spans, span_count)
        out.update(
            wall_s=wall_s,
            op_s=op_s,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            checks=checks)
    out["env"] = {"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "threads": _threads()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
