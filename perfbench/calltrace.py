"""One lgroup CLI call with spans around the library's public functions.

    python3 perfbench/calltrace.py SPANS_OUT CALL_ID COMMAND [ARGS...]

Imports ``lgroup.cli`` (timed as the CLI start-up), binds the span wrappers,
runs the command as ``python -m lgroup COMMAND ARGS`` would, and writes the
spans, the start-up time and the cache counters to SPANS_OUT as JSON when
the command ends, whatever its exit code.
"""

import json
import sys
import time


def main():
    out_path, call_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import lgroup.cli

    startup = time.perf_counter() - start
    import spans

    tracer = spans.Tracer()
    tracer.call_id = call_id
    spans.install(tracer)
    before = tracer.cache_counts()
    try:
        lgroup.cli.main(args=args, prog_name="lgroup")
    finally:
        record = {
            "startup_s": startup,
            "spans": tracer.spans,
            "cache_before": before,
            "cache_after": tracer.cache_counts(),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    main()
