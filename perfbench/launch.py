"""Child process of the benchmark: set up, mark ready, run one divflow command.

Usage:
    python3 launch.py --report FILE [--trace FILE] [--setup-only] -- DIVFLOW_ARGS...

Set-up is interpreter start, `import divflow` and parsing the command's
config file.  The report records the monotonic clock when set-up ended, the
command's exit code and this program's peak resident memory; the parent,
which started this process, takes the set-up time from its own start
timestamp and the command's wall time from the moment this process ended.
With --trace the layer spans of the command are written to FILE after it
returns.
"""
import argparse
import json
import sys
import time


def peak_rss_kb():
    """High-water resident memory since exec (VmHWM).

    The rusage maximum of a child also counts the parent's pages it shared
    between fork and exec, so it would report the benchmark's own memory.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("divflow_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.divflow_args[1:] if args.divflow_args[:1] == ["--"] else args.divflow_args

    import divflow
    from divflow import cli

    cli.parse_config(argv[argv.index("--config") + 1])

    tracer = None
    if args.trace:
        from divflow import control, engine, estimator, model, norms, sde, variational

        import tracing

        modules = {
            "divflow": divflow,
            "model": model,
            "engine": engine,
            "sde": sde,
            "variational": variational,
            "control": control,
            "estimator": estimator,
            "norms": norms,
            "cli": cli,
        }
        tracer = tracing.Tracer()
        tracing.install(tracer, modules)

    report = {"ready": time.monotonic(), "divflow_file": divflow.__file__}
    code = 0
    if not args.setup_only:
        code = cli.main(argv)
        report["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            tracer.dump(args.trace)
    report["code"] = code
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
