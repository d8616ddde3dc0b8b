"""Benchmark for hgfq: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload values --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Every pass runs the workload's whole list
of operations in a fresh interpreter (perfbench/worker.py), one after
another.  After two passes (one plain and one traced with ``--trace 1``),
a run starts another pass only while one more pass, as long as the last,
would still end within ``--seconds``; a pass is never cut short.  The
first pass of a run checks every output; later passes must return the same
outputs (compared by digest).

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead.  An operation's time is the median of its faster half of
the run's passes; set-up, memory and per-layer values are medians over the
passes.  A readable summary goes to stderr, and the raw per-pass data to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from speed import PROBE_REF_S, at_ref_speed  # noqa: E402
from tracer import PER_LAYER_KEYS, layer_metrics  # noqa: E402

WORKLOADS = ("values", "phi-symmetry", "counts-iso", "cli")
WORKER_TIMEOUT_S = 170
MIN_PASSES = 2

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
PASS_FIELDS = ("wall_s", "wall_ref_s", "setup_raw_s", "setup_s", "setup_probe_s", "peak_rss_mb")
LAYER_UNITS = {"cyclo.mul_m_mean": "conductor", "sums.cache_hit_ratio": "ratio",
               "cli.output_bytes": "B", "trace.overhead_s": "s"}


class BenchError(Exception):
    pass


def run_worker(task):
    """One pass in a fresh interpreter; returns its result and set-up time."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(json.dumps(task), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{task['workload']} pass exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{task['workload']} worker exited {proc.returncode}:\n{stderr[-2000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    if "t_ready" in result:
        result["setup_raw_s"] = result["t_ready"] - t_spawn
        result["setup_s"] = at_ref_speed(result["setup_raw_s"], result["setup_probe_s"])
        result["wall_ref_s"] = sum(result["op_ref_s"])
    return result


def check_layout():
    if not (ROOT / "src" / "hgfq" / "__init__.py").is_file():
        raise BenchError(f"no hgfq sources under {ROOT / 'src'}; run from a checkout of the repository")


def quantile(values, q):
    """The q-quantile of operation times (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def timing_metrics(workload, results):
    """End-to-end metrics of a run.

    Every time is scaled to the reference host speed (speed.py).  Each
    operation's time is the median of the faster half of its times over the
    run's passes (the faster one of two), taken before the percentiles:
    other tenants only ever slow an operation down, and the scaling does not
    follow every such slow-down, above all for the short cli commands, whose
    time is mostly process start.  wall_s is the sum of those times, i.e.
    the time of an undisturbed pass.  Set-up and peak memory are medians over
    passes."""
    per_op = [statistics.median(sorted(times)[:(len(times) + 1) // 2])
              for times in zip(*(r["op_ref_s"] for r in results))]
    if workload == "cli":
        setup = statistics.median(t for r in results for t in r["import_s"])
    else:
        setup = statistics.median(r["setup_s"] for r in results)
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": 1000 * quantile(per_op, 0.5),
        "op_p90_ms": 1000 * quantile(per_op, 0.9),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def run_workload(workload, seed, seconds, trace, smoke=False):
    check_layout()
    OUT.mkdir(exist_ok=True)
    run_worker({"warmup": True, "root": str(ROOT)})
    base = {"workload": workload, "seed": seed, "root": str(ROOT), "smoke": smoke,
            "trace_dir": str(OUT)}
    plain, traced, problems = [], [], []
    t0 = time.monotonic()
    while True:
        t_pass = time.monotonic()
        res = run_worker(dict(base, trace=False, check=not plain))
        plain.append(res)
        if trace:
            traced.append(run_worker(dict(base, trace=True, check=False)))
        # After two passes (one of each kind when traced), start another only
        # if one more, as long as the last one without its checks, still ends
        # within the run's time.
        now = time.monotonic()
        last = now - t_pass - res.get("check_s", 0.0)
        if smoke or (len(plain) >= (1 if trace else MIN_PASSES) and now + last - t0 > seconds):
            break

    problems += plain[0].get("check_failures", [])
    digests = {r["digest"] for r in plain + traced if not r["failed"]}
    if len(digests) > 1:
        problems.append("passes returned different outputs")
    for r in plain + traced:
        problems += [f"operation failed: {e}" for e in r["errors"]]
    runs = plain + traced
    summary = {
        "correct": not [p for p in problems if not p.startswith("operation failed")],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }

    if not trace:
        timing = timing_metrics(workload, plain)
        metrics = {k: {"value": timing[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        layers = [layer_metrics(r["raw"]) for r in traced]
        metrics = {k: {"value": statistics.median(m[k] for m in layers),
                       "unit": LAYER_UNITS.get(k, "s" if k.endswith("_s") else "count")}
                   for k in PER_LAYER_KEYS}
        overhead = (statistics.median(r["wall_ref_s"] for r in traced)
                    - statistics.median(r["wall_ref_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        write_json(OUT / f"trace-{workload}-seed{seed}.json",
                   {"workload": workload, "seed": seed, "metrics": metrics,
                    "raw": [r["raw"] for r in traced],
                    "spans": traced[0]["spans"],
                    "span_fields": ["id", "parent", "name", "start_s", "end_s"]})
    write_json(OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json",
               {"workload": workload, "seed": seed, "seconds": seconds, "summary": summary,
                "problems": problems, "metrics": metrics,
                "passes": [{k: r[k] for k in PASS_FIELDS} for r in plain],
                "op_s": [r["op_s"] for r in plain],
                "op_ref_s": [r["op_ref_s"] for r in plain]})
    for p in problems[:20]:
        print(f"[{workload}] {p}", file=sys.stderr)
    print(f"[{workload}] unscaled median pass {statistics.median(r['wall_s'] for r in plain):.4g} s, "
          f"median op probe {1000 * statistics.median(p for r in plain for p in r['probe_s']):.4g} ms "
          f"(reference {1000 * PROBE_REF_S:g} ms)", file=sys.stderr)
    return dict(summary, metrics=metrics), len(plain)


def write_json(path, data):
    path.write_text(json.dumps(data))


def describe(workload, result, passes):
    lines = [f"{workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} passes={passes}"]
    for k, m in result["metrics"].items():
        lines.append(f"  {k:26s} {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one reduced pass of every workload, with its checks")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    names = WORKLOADS if args.smoke or args.workload == "all" else (args.workload,)
    try:
        results = {}
        for name in names:
            result, passes = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          smoke=args.smoke)
            print(describe(name, result, passes), file=sys.stderr)
            results[name] = result
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name in names:
        print(json.dumps(dict(results[name], workload=name)))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
