"""Run one `mjls-stab` call with the span recorder installed.

Usage: python3 traced_cli.py SPANS_JSON SUBCOMMAND [ARGS...]

Imports the CLI from PYTHONPATH, wraps its layers (see spans.py), runs the
call, writes the spans to SPANS_JSON and exits with the call's exit code.
"""

import sys

import mjlstab.cli

import spans

if __name__ == "__main__":
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        code = mjlstab.cli.main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1])
    sys.exit(code)
