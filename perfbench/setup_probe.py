"""Set-up probe, run in a fresh interpreter: import hilbertkunz, parse the
problem texts read from stdin (NUL separated), and print the two times and
the peak resident set size as one JSON line.

Only sys, time and resource are imported before the clock starts, so the
import time covers everything hilbertkunz itself pulls in.
"""

import resource
import sys
import time


def main() -> None:
    src = sys.argv[1]
    texts = sys.stdin.read().split("\0")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import hilbertkunz.cli  # noqa: F401  (the CLI is the entry point users start)
    from hilbertkunz.problemfile import parse_problem

    t1 = time.perf_counter()
    for text in texts:
        parse_problem(text)
    t2 = time.perf_counter()
    import json

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "import_s": t1 - t0,
        "parse_s": t2 - t1,
        "peak_rss_mb": rss_kb / 1024,
        "module": hilbertkunz.cli.__file__,
    }))


if __name__ == "__main__":
    main()
