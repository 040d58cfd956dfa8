"""Run the synvec CLI with spans recorded around each layer's public functions.

Usage: python3 launch.py SPANS_JSON RUN_ID -- SYNVEC_ARGS...

Installs the wrappers of :mod:`tracing` before calling ``synvec.cli.main``
and writes the spans to SPANS_JSON when the command returns. The exit code
is the command's.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, run_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        sys.stderr.write(__doc__)
        return 64
    import synvec.cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return synvec.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
