"""Run one hgfq command with per-layer tracing; used by the traced cli pass.

Usage: python cli_traced.py DUMP_PATH hgfq-arguments...

Imports hgfq.cli (timed, as cli.import_s), installs the tracer, runs the
command as one crossing into the ``cli`` layer, and writes the counters and
spans to DUMP_PATH when the command ends.  The exit status is the command's.
The worker processes of ``verify --jobs`` run untraced; the time the
command waits for them counts as ``cli`` self time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main():
    dump, args = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import hgfq.cli

    import_s = time.perf_counter() - t0
    tr = tracing.Tracer()
    tr.install()
    # pool workers of `verify --jobs` are forked from here; they run untraced
    os.register_at_fork(after_in_child=lambda: setattr(tr, "on", False))
    tr.on = True
    code = 0
    try:
        tr.call_layer("cli", hgfq.cli.main.main, args=args, prog_name="hgfq")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tr.on = False
        sys.stdout.flush()
        raw = tr.raw()
        raw["spans_dropped"] = tr.spans_dropped
        dump.write_text(json.dumps({"import_s": import_s, "raw": raw, "spans": tr.spans}))
    sys.exit(code)


if __name__ == "__main__":
    main()
