"""Cold first report: import rieszlab.cli in this fresh process, then run
one request and print ``{"first_report_s": ...}``, the request's wall time.

Usage: python3 perfbench/cold.py COMMAND [OPTION ...]

The caller puts the checkout's ``src`` on PYTHONPATH; the report itself
is discarded.
"""
import contextlib
import io
import json
import sys
import time


def main(argv):
    from rieszlab import cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    done = time.perf_counter()
    if status != 0:
        print(f"cold request exited with status {status}", file=sys.stderr)
        return 1
    print(json.dumps({"first_report_s": done - start}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
