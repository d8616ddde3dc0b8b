"""One pass of one workload, in a fresh interpreter.

Reads its task as JSON on stdin and writes its result as one JSON line on
stdout.  The parent (run.py) starts one worker per pass, so hgfq's caches and
field tables start empty in every pass, as they do for every CLI call.

Timeline of a pass: interpreter start -> the speed probe -> import hgfq and
build the base fields -> the speed probe (set-up: the parent measures it
from the moment it started this process, less the first probe, and scales
it by the mean of the probes) -> prepare the inputs (not timed) -> the
operations (timed one by one and scaled by the speed probes taken around
and, for the cli, during each; see speed.py) -> peak memory is read -> the
checks (not timed).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_hgfq(root: Path):
    """Import hgfq from the checkout's src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hgfq
    import hgfq.varieties  # noqa: F401  (imports every library layer)

    if not Path(hgfq.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hgfq imported from {hgfq.__file__}, not from {src}")


def run_pass(task):
    t_probe = time.monotonic()
    speed.sample()
    probe_cost = time.monotonic() - t_probe
    root = Path(task["root"])
    name = task["workload"]
    trace = task["trace"]
    tr = tracing.Tracer()
    if name == "cli":
        trace_dir = task["trace_dir"] if trace else None
        wl = workloads.Cli(task["seed"], task["smoke"], root, trace_dir)
        wl.setup()
        t_ready = time.monotonic()
    else:
        import_hgfq(root)
        if trace:
            tr.install()
            tr.on = True
        wl = workloads.WORKLOADS[name](task["seed"], task["smoke"])
        wl.setup()
        t_ready = time.monotonic()
    tr.on = False
    speed.sample()
    setup_probe = sum(speed.SAMPLES) / len(speed.SAMPLES)
    ops = wl.prepare()
    tr.on = trace and name != "cli"
    times, ref_times = [], []
    first = speed.sample()
    for op in ops:
        t0 = time.perf_counter()
        try:
            op.result = tr.run_op(op.kind, op.run)
        except Exception as err:  # an operation the program fails counts as failed
            op.error = f"{type(err).__name__}: {err}"
        times.append(time.perf_counter() - t0)
        last = speed.sample()
        ref_times.append(speed.scaled_since(times[-1], first))
        first = last
    tr.on = False
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    plain = [workloads.to_plain(op.result) for op in ops]
    digest = hashlib.sha256(json.dumps(plain, sort_keys=True).encode()).hexdigest()
    out = {
        "t_ready": t_ready - probe_cost,
        "setup_probe_s": setup_probe,
        "wall_s": sum(times),
        "op_s": times,
        "op_ref_s": ref_times,
        "probe_s": speed.SAMPLES,
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "errors": sorted({op.error for op in ops if op.error})[:5],
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
    }
    if name == "cli":
        out["import_s"] = wl.import_times
        out["output_bytes"] = wl.outputs_bytes
    if trace:
        if name == "cli":
            raw, spans = merge_cli_dumps(Path(task["trace_dir"]), len(ops))
        else:
            raw, spans = tr.raw(), tr.spans
            raw["spans_dropped"] = tr.spans_dropped
        raw["cli.output_bytes"] = wl.outputs_bytes if name == "cli" else 0
        out["raw"] = raw
        out["spans"] = spans
    if task["check"]:
        t_check = time.monotonic()
        if name == "cli":
            import_hgfq(root)
        out["check_failures"] = wl.check()
        out["check_s"] = time.monotonic() - t_check
    return out


def merge_cli_dumps(trace_dir: Path, n_ops: int):
    """Sum the counters the traced CLI processes wrote; keep their spans."""
    raw, spans, imports = {}, [], []
    for k in range(n_ops):
        path = trace_dir / f"cli-{os.getpid()}-{k}.json"
        if not path.exists():
            continue
        dump = json.loads(path.read_text())
        path.unlink()
        imports.append(dump["import_s"])
        offset = 1_000_000 * (k + 1)
        spans += [[s + offset, p + offset if p else 0, name, a, b]
                  for s, p, name, a, b in dump["spans"]]
        for key, value in dump["raw"].items():
            raw[key] = raw.get(key, 0) + value
    imports.sort()
    raw["cli.import_s"] = imports[len(imports) // 2] if imports else 0.0
    return raw, spans


def main():
    task = json.loads(sys.stdin.read())
    if task.get("warmup"):
        import_hgfq(Path(task["root"]))
        import hgfq.cli  # noqa: F401
        print(json.dumps({"warmup": True}))
        return
    result = run_pass(task)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
