"""``python -m mvortho``: the command-line front end of :mod:`mvortho.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
