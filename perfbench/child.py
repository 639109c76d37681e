"""One kpwaves CLI process of the benchmark.

    python3 child.py SIDECAR MODE -- KPWAVES-ARGS...

MODE is ``run`` (plain CLI run), ``trace`` (CLI run with layer spans) or
``setup`` (stop on entering the command handler).  The process behaves
like the ``kpwaves`` console script and, before exiting with the CLI's
exit code, writes SIDECAR: the monotonic time the command handler was
entered, the CPU time the process had used by then, the imported package
path and, when traced, the spans.  The
parent sets PYTHONPATH to the checkout's ``src`` directory.
"""

import json
import os
import sys
import time


class _StopAtHandler(BaseException):
    """Ends a set-up-only run; not caught by the CLI's error handler."""


def main() -> int:
    sidecar, mode = sys.argv[1], sys.argv[2]
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    import kpwaves.cli as cli

    info = {"kpwaves_file": os.path.abspath(cli.__file__)}
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.install(f"{os.getpid()}-{time.time_ns()}")

    def entered(handler):
        def handle(cfg):
            info["handler_ns"] = time.monotonic_ns()
            info["handler_cpu_s"] = time.process_time()
            if mode == "setup":
                raise _StopAtHandler
            return handler(cfg)
        return handle

    for name, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[name] = entered(handler)
    try:
        rc = cli.main(cli_args)
    except _StopAtHandler:
        rc = 0
    if tracer is not None:
        info["trace"] = tracer.dump()
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(info, fh, separators=(",", ":"))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
