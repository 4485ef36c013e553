"""`python -m dqslam`: the command-line harness, as `dqslam`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
