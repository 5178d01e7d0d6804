"""Time one cold set-up in a fresh interpreter: import darbocert, then load
and validate each config.  Prints the seconds taken on its last line.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG [CONFIG ...]
"""

import sys
import time


def main() -> None:
    src, *configs = sys.argv[1:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from darbocert import cli

    for path in configs:
        cli.load_config(path)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
