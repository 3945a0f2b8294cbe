"""``repro serve`` with the layer wrappers installed (the traced serve run).

``PERFBENCH_SPANS=<dir> python traced_serve.py serve ...`` installs the
service and engine wrappers, then runs the CLI.  Pool workers are forked
from this process, so they inherit the wrappers; the server writes its
spans at exit and each worker at its own exit.
"""

import os
import sys

import spans


def main() -> int:
    recorder = spans.Recorder("server", os.environ["PERFBENCH_SPANS"])
    recorder.install(spans.SERVER + spans.IN_PROCESS)
    recorder.write_at_exit()
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
