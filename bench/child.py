"""One `langirl` CLI invocation, run exactly as `python -m langirl.cli ARGS` runs it.

Usage: python3 bench/child.py MARK_FILE TRACE_FILE|- ARGS...

Set-up ends when `langirl.cli` is imported and the config is loaded and
resolved, which is the moment `run_experiment` (or `compare_runs`) is entered.
The child writes its `time.perf_counter()` reading at that moment to
MARK_FILE; the clock is CLOCK_MONOTONIC, shared with the parent that timed
the spawn. With a TRACE_FILE in place of `-`, the layers are wrapped by
`tracer.install` and the spans are written to TRACE_FILE at exit.
"""

import sys
import time


def _mark_setup_end(cli, mark_path):
    def marked(fn):
        def call(*args, **kwargs):
            now = time.perf_counter()
            with open(mark_path, "w") as fh:
                fh.write(repr(now))
            return fn(*args, **kwargs)
        return call

    cli.run_experiment = marked(cli.run_experiment)
    cli.compare_runs = marked(cli.compare_runs)


def main():
    mark_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if trace_path == "-":
        import langirl.cli as cli
        _mark_setup_end(cli, mark_path)
        return cli.main(argv)

    import importlib

    import tracer

    rec = tracer.Recorder()
    cli = rec.wrap("cli.import", importlib.import_module)("langirl.cli")
    tracer.install(rec, cli)
    _mark_setup_end(cli, mark_path)
    try:
        return cli.main(argv)
    finally:
        rec.calibrate()
        rec.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main())
