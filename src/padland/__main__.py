"""``python -m padland``: the same command line as the ``padland`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
