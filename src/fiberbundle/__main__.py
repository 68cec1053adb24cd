"""``python -m fiberbundle``: the command line of :func:`fiberbundle.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
