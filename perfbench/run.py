"""frobtrace benchmark: one command, four workloads, end-to-end and
per-layer metrics, a correctness gate.

    python3 perfbench/run.py --workload fermat_cubic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --trace 1
    python3 perfbench/run.py --smoke

Run it from the repository root.  Each workload runs in its own fresh
child process (perfbench/worker.py), one at a time.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json from untraced passes;
``--trace 1`` reports its per-layer metrics from a separate traced run,
whose spans go to perfbench/out/.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Any
wrong answer is printed to stderr with workload, input and seed, and the
exit code is then 1.  Lines before the last record the machine and the
full detail of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fermat_cubic", "p2_extension", "pn_grid", "small_stream")
SETUP_PROBES = 5
CHILD_GRACE_S = 120  # a worker may overrun --seconds by this much, then it is stopped


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the small_stream inputs and the field probes")
    parser.add_argument("--seconds", type=float, default=10,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass, both modes, in seconds")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json",
                        help="recorded answers of the matrix cases")
    return parser.parse_args(argv)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "cpu": model,
            "loadavg": list(os.getloadavg())}


class ChildError(RuntimeError):
    pass


def child(mode, workload, args, stdin="", spans_path=None):
    """Run perfbench/worker.py in a fresh interpreter; its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(args.seed),
           str(args.seconds), "1" if args.smoke else "0"]
    if spans_path:
        cmd.append(str(spans_path))
    # No bytecode cache: every process compiles the package from source, so
    # setup_s means the same whatever the environment, and nothing is
    # written next to the sources.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload}: worker '{mode}' ran past the deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise ChildError(f"{workload}: worker '{mode}' exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Inclusive quantile, q in (0, 1); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def _summary(values):
    if len(values) < 2:
        return {"n": len(values), "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3,
            "max": max(values)}


def measure(workload, trace, args, expected, spec):
    """One workload in one mode: (metrics, attempted, failures, detail)."""
    stdin = json.dumps(expected)
    if trace == 0:
        probes = 1 if args.smoke else SETUP_PROBES + 1
        setups = [child("setup", workload, args)
                  for _ in range(probes)]
        if not args.smoke:
            setups = setups[1:]  # the first probe warms the file cache
        res = child("run", workload, args, stdin)
        case_ms = [t * 1e3 for t in res["case_s"]]
        values = {
            "wall_s": statistics.median(res["walls"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "case_p50_ms": quantile(case_ms, 0.50),
            "case_p99_ms": quantile(case_ms, 0.99),
        }
        names = spec["end_to_end"]
        detail = {"passes": len(res["walls"]), "walls_s": res["walls"],
                  "elapsed_s": res["elapsed"], "speed": _summary(res["speeds"]),
                  "setup_probes": setups, "cases_timed": len(case_ms),
                  "matrices": res["matrices"]}
        extra = {}
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{args.seed}.json"
        res = child("trace", workload, args, stdin, spans_path)
        values = res["metrics"]
        names = spec["per_layer"]
        detail = {"traced_walls_s": res["traced_walls"],
                  "untraced_walls_s": res["untraced_walls"],
                  "spans": res["spans"], "spans_file": str(spans_path.relative_to(ROOT))}
        declared = {m["name"] for m in names}
        extra = {k: v for k, v in values.items() if k not in declared}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    detail["other_metrics"] = extra
    return metrics, res["attempted"], res["failures"], detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "frobtrace" / "__init__.py").is_file():
        print(f"error: no frobtrace sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(args.expected.read_text())
    info = machine()
    print(json.dumps({"machine": info, "seed": args.seed, "seconds": args.seconds}))

    if args.workload == "all":
        # Rotate the order with the seed, so that drift in machine speed
        # does not always land on the same workload.
        shift = args.seed % len(WORKLOADS)
        order = WORKLOADS[shift:] + WORKLOADS[:shift]
    else:
        order = (args.workload,)
    modes = (0, 1) if args.smoke else (args.trace,)

    merged, attempted, failures = {}, 0, []
    for workload in order:
        for trace in modes:
            try:
                metrics, n, failed, detail = measure(workload, trace, args, expected, spec)
            except ChildError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            attempted += n
            failures += [f"workload={workload} seed={args.seed} trace={trace}: {f}"
                         for f in failed]
            rate = len(failed) / n
            print(json.dumps({"workload": workload, "trace": trace, "error_rate": rate,
                              "attempted": n, "failed": len(failed), **detail}))
            for name, m in metrics.items():
                print(f"# {workload} {name} = {m['value']:.6g} {m['unit']}")
            single = len(order) == 1 and len(modes) == 1
            merged.update(metrics if single else
                          {f"{workload}/{k}": v for k, v in metrics.items()})
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": merged}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
