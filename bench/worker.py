"""Run one relaxbench command in this fresh process and write what it cost.

    python3 worker.py SRC RESULT [--trace] [-- CLI ARGS...]

Times `import relaxbench.cli` (the set-up every CLI user pays), then the
`relaxbench.cli.main(CLI ARGS)` call, and records the process's peak RSS.
Without CLI ARGS only the import is timed.  With --trace the layers are
instrumented first and their metrics and span table go into RESULT as well.
Nothing but the standard library is imported before the timed import.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv):
    src, result_path, rest = Path(argv[0]).resolve(), Path(argv[1]), argv[2:]
    trace = rest[:1] == ["--trace"]
    cli_args = rest[rest.index("--") + 1:] if "--" in rest else []

    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import relaxbench.cli as cli
    result = {"setup_s": time.perf_counter() - t0}
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"relaxbench was imported from {cli.__file__}, not from {src}")

    if cli_args:
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
        t1 = time.perf_counter()
        rc = cli.main(cli_args)
        result.update(rc=rc, wall_s=time.perf_counter() - t1,
                      peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["spans"] = tracing.span_table(tracer.spans)
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
