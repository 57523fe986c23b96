"""``python -m weakgal CONFIG.json [--out DIR] [--seed-override N] [--quiet]``,
the same command line as the ``weakgal`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
