"""One workload in one fresh process; prints a JSON result as its last line.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SMOKE [SPANS_PATH]

run.py starts it with ``src`` on PYTHONPATH.  MODE is one of:

  setup  import frobtrace and build the inputs, report the time taken;
  run    untraced passes in a closed loop for SECONDS, with per-case times;
  trace  alternating untraced and traced passes for SECONDS, field
         microbenchmarks, and the spans written to SPANS_PATH.

The gate runs here, on every pass; run.py turns the results into metrics.

Times of the end-to-end metrics are corrected for machine speed; see
speed.py.  Per-case times leave out the speed probe's own time.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports and inputs

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads as wl  # noqa: E402  (imports frobtrace)
from speed import SpeedProbe, calibrate  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def _run_case(inputs, case, tr=wl.NULL):
    if inputs.workload == "small_stream":
        return wl.run_small(case, tr)
    if tr is wl.NULL:
        return wl.run_matrix(case)
    return wl.replay_matrix(case, tr)


def _label(inputs, case):
    return case.label() if inputs.workload == "small_stream" else case.name


def _check(inputs, case, out, expected):
    if inputs.workload == "small_stream":
        return wl.check_small(case, out)
    return wl.check_matrix(inputs.workload, case, out, expected)


def one_pass(inputs, probe, tr=wl.NULL):
    """Run every case once under a running SpeedProbe; returns (wall
    seconds, per-case seconds, outputs, failures).  A case that raises is
    a failure, not a crash.

    Time spent in the probe's handler is left out, and each case's time
    is corrected by the mean of the speeds sampled during the case and
    the nearest sample on either side; the wall time is the sum of the
    corrected case times."""
    outs, times, windows, failures = [], [], [], []
    for case in inputs.cases:
        first = len(probe.speeds)
        t0 = probe.clock()
        try:
            out = _run_case(inputs, case, tr)
        except Exception as exc:  # counted in error_rate, named below
            out = None
            failures.append(f"{_label(inputs, case)}: raised "
                            f"{type(exc).__name__}: {exc}")
        times.append(probe.clock() - t0)
        windows.append((max(first - 1, 0), len(probe.speeds) + 1))
        outs.append(out)
    if not probe.speeds:
        probe.speeds.append(calibrate())
    times = [t * statistics.fmean(probe.speeds[lo:hi] or probe.speeds[-1:])
             for t, (lo, hi) in zip(times, windows)]
    return sum(times), times, outs, failures


def gate(inputs, outs, expected, reference=None):
    """Failures of one pass's outputs.  With ``reference`` (the outputs of
    an earlier pass) the outputs are compared with it instead of being
    re-derived from the slow paths."""
    failures = []
    for i, (case, out) in enumerate(zip(inputs.cases, outs)):
        if out is None:
            continue  # already counted when it raised
        if reference is not None and reference[i] is not None:
            if _same(out, reference[i]):
                continue
            reason = "differs from the first pass"
        else:
            try:
                reason = _check(inputs, case, out, expected)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures.append(f"{_label(inputs, case)}: {reason}")
    return failures


def _same(a, b):
    if isinstance(a, wl.MatrixOut):
        return a == b
    return str(a) == str(b)


def matrix_summaries(inputs, outs):
    return {case.name: out.summary() for case, out in zip(inputs.cases, outs)
            if isinstance(out, wl.MatrixOut) and inputs.workload != "small_stream"}


def mode_setup(args):
    wl.build_inputs(args["workload"], args["seed"], args["smoke"])
    raw = time.perf_counter() - _T0
    speed = statistics.fmean(calibrate() for _ in range(5))
    return {"setup_s": raw * speed, "raw_setup_s": raw, "speed": speed}


def mode_run(args, expected):
    inputs = wl.build_inputs(args["workload"], args["seed"], args["smoke"])
    walls, elapsed, per_case, failures, first = [], [], [], [], None
    attempted = 0
    deadline = time.perf_counter() + args["seconds"]
    with SpeedProbe() as probe:
        while True:
            start = time.perf_counter()
            wall, times, outs, raised = one_pass(inputs, probe)
            elapsed.append(time.perf_counter() - start)
            walls.append(wall)
            per_case.append(times)
            attempted += len(outs)
            failures += raised + gate(inputs, outs, expected, first)
            if first is None:
                first = outs
            # Closed loop: start another pass only if it should end in time.
            if args["smoke"] or time.perf_counter() + elapsed[-1] > deadline:
                break
    return {
        "walls": walls,
        "elapsed": elapsed,
        "speeds": probe.speeds,
        # Each case's median over the passes: the case's latency.
        "case_s": [statistics.median(ts) for ts in zip(*per_case)],
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "matrices": matrix_summaries(inputs, first),
    }


def mode_trace(args, expected):
    """Spans and per-pass walls use the probe's clock, which leaves out the
    time spent sampling speed; the walls are also speed-corrected, so that
    trace.overhead_s compares like with like."""
    probe = SpeedProbe()
    tr = Tracer(args["workload"], probe.clock)
    untraced, traced, pass_starts, failures = [], [], [], []
    attempted = 0
    first = None
    deadline = time.perf_counter() + args["seconds"]
    with probe:
        with tr.span("setup"):
            inputs = wl.build_inputs(args["workload"], args["seed"], args["smoke"], tr)
        setup_end = len(tr)
        while True:
            start = time.perf_counter()
            wall, _, outs, raised = one_pass(inputs, probe)
            untraced.append(wall)
            attempted += len(outs)
            failures += raised + gate(inputs, outs, expected, first)
            first = first or outs
            pass_starts.append(len(tr))
            with tr.span("pass"):
                wall, _, outs, raised = one_pass(inputs, probe, tr)
            traced.append(wall)
            attempted += len(outs)
            failures += raised + gate(inputs, outs, expected, first)
            pair_s = time.perf_counter() - start
            if args["smoke"] or time.perf_counter() + pair_s > deadline:
                break
        rng = random.Random(args["seed"])
        mul_ns = field_ns(inputs.probes, rng, "mul", probe.clock)
        inv_frob_ns = field_ns(inputs.probes, rng, "inv_frob", probe.clock)
    layers = [layer_metrics(tr, start, end)
              for start, end in zip(pass_starts, pass_starts[1:] + [len(tr)])]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["parsing.parse_s"] = summarize(tr, 0, setup_end).get(
        "parse", {"total_s": 0.0})["total_s"]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["field.mul_ns"] = mul_ns
    metrics["field.inv_frob_ns"] = inv_frob_ns
    tr.write(args["spans_path"], pass_starts)
    return {
        "metrics": metrics,
        "untraced_walls": untraced,
        "traced_walls": traced,
        "attempted": attempted,
        "failures": failures,
        "spans": len(tr),
    }


# Per-layer metric -> (span name, statistic).  Counts are recorded by
# tr.count at the same call boundaries as the spans.
SPAN_METRICS = {
    "poly.den_pow_s": ("den_pow", "total_s"),
    "poly.exact_divide_s": ("exact_divide", "total_s"),
    "cartier.trace_s": ("trace_rational_top", "total_s"),
    "cartier.trace_p50_ms": ("trace_rational_top", "p50_ms"),
    "cartier.columns": ("trace_rational_top", "calls"),
    "cartier.iterated_s": ("trace_iterated", "total_s"),
    "cartier.oracle_s": ("trace_by_decomposition", "total_s"),
    "cartier.inverse_cartier_s": ("inverse_cartier_top", "total_s"),
    "projective.section_space_s": ("section_space", "total_s"),
    "projective.trace_matrix_s": ("trace_matrix", "total_s"),
    "projective.self_s": ("trace_matrix", "self_s"),
    "linalg.rank_s": ("map_verdict", "total_s"),
    "linalg.solve_s": ("solve", "total_s"),
    "forms.d_s": ("exterior_derivative", "total_s"),
    "fsplit.fedder_s": ("fedder_hypersurface", "total_s"),
    "fsplit.verify_s": ("verify_witness", "total_s"),
    "cli.json_s": ("to_json", "total_s"),
}
COUNT_METRICS = {
    "poly.den_pow_terms": "den_pow_terms",
    "projective.src_dim": "src_dim",
    "projective.tgt_dim": "tgt_dim",
    "linalg.cells": "cells",
    "linalg.rank": "rank",
}


def layer_metrics(tr, start, end):
    """Per-layer numbers of one traced pass (spans start..end)."""
    summary = summarize(tr, start, end)
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        entry = summary.get(span)
        if entry is None:
            out[metric] = 0
        elif stat == "p50_ms":
            out[metric] = statistics.median(entry["durations"]) * 1e3
        else:
            out[metric] = entry[stat]
    span_ids = range(start, end)
    for metric, name in COUNT_METRICS.items():
        values = [v for sid, n, v in zip(tr.count_spans, tr.count_names, tr.count_values)
                  if n == name and sid in span_ids]
        out[metric] = max(values, default=0)
    return out


def field_ns(probes, rng, op, clock, per_batch=4000, batches=5):
    """Median ns per operation over seeded elements of each probed field,
    averaged over the probes."""
    results = []
    for field, e in probes:
        elems = [field.scalar([rng.randrange(field.p) for _ in range(field.s)])
                 for _ in range(200)]
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        reps = per_batch // len(pairs)
        samples = []
        for _ in range(batches):
            t0 = clock()
            if op == "mul":
                for _ in range(reps):
                    for a, b in pairs:
                        a * b
            else:
                for _ in range(reps):
                    for a, _b in pairs:
                        a.inverse_frobenius(e)
            samples.append((clock() - t0) / (reps * len(pairs)) * 1e9)
        results.append(statistics.median(samples))
    return statistics.fmean(results)


def main(argv):
    mode, workload, seed, seconds, smoke = argv[:5]
    args = {"workload": workload, "seed": int(seed), "seconds": float(seconds),
            "smoke": smoke == "1", "spans_path": argv[5] if len(argv) > 5 else None}
    if mode == "setup":
        result = mode_setup(args)
    else:
        expected = json.loads(sys.stdin.read())
        result = (mode_run if mode == "run" else mode_trace)(args, expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:
        traceback.print_exc()
        sys.exit(3)
