"""Run the topicmodels CLI in a fresh interpreter, noting when set-up ends.

    python3 perfbench/child.py MARKER_FILE CLI_ARG...

This is the ``topicmodels`` console script plus one hook: when the first
sampler object has been constructed, the ``time.perf_counter()`` reading
(CLOCK_MONOTONIC, comparable across processes) is written to MARKER_FILE.
Samplers are found as the package's classes with ``sweep`` and
``estimate`` methods, so no class name is assumed.
"""

import sys
import time

from spans import package_modules, sampler_classes


def main() -> int:
    marker, argv = sys.argv[1], sys.argv[2:]
    from topicmodels import cli
    done = []

    def hook(cls):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if not done:
                done.append(time.perf_counter())
        cls.__init__ = __init__

    for cls in sampler_classes(package_modules()):
        hook(cls)
    code = cli.main(argv)
    with open(marker, "w") as f:
        f.write(repr(done[0]) if done else "")
    return code


if __name__ == "__main__":
    sys.exit(main())
