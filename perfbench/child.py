"""One replay in a fresh process: ``roadwork_mapper.cli.main`` with timers.

Usage: child.py ROOT RESULT_JSON SPANS_FILE|- -- CLI_ARGS...

Imports the program from ROOT/src, wraps ``ReplayEngine.run`` to take
its entry and exit times on the system-wide monotonic clock, and, when a
span file is named, installs the span tracer first.  Writes the exit
code, times, per-cycle latencies and peak RSS to RESULT_JSON.
"""
import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    root, result_path, spans_path = sys.argv[1:4]
    cli_args = sys.argv[5:]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from roadwork_mapper import cli, engine

    imported = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"roadwork_mapper imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 1

    tracer = None
    if spans_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    record = {"started": STARTED, "import_s": imported - STARTED}
    run = engine.ReplayEngine.run

    def timed_run(self, *args, **kwargs):
        record["run_enter"] = time.monotonic()
        result = run(self, *args, **kwargs)
        record["run_exit"] = time.monotonic()
        record["cycles"] = result.cycles
        record["skipped_cycles"] = result.skipped_cycles
        record["latencies"] = result.latencies
        record["active_sites"] = len(self.registry.active)
        return result

    engine.ReplayEngine.run = timed_run
    record["exit_code"] = cli.main(cli_args)
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w") as handle:
        json.dump(record, handle)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
