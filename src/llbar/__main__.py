"""``python -m llbar``: the command-line front end of :mod:`llbar.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
