"""Set-up probe: prints the seconds a fresh process needs to be ready for work.

    python3 bench/probe.py <inputs dir>

Set-up is ``import kypcert``, loading every input of the manifest through
``Realization.load`` and one warm-up job. Interpreter start-up and reading
the manifest are not counted. Nothing else is imported before the clock
starts, and the reference code is never loaded here.
"""

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(indir):
    with open(os.path.join(indir, "manifest.json")) as fh:
        manifest = json.load(fh)
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import kypcert
    import workloads

    _, warm = workloads.build(kypcert, manifest, indir)
    warm.run()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
