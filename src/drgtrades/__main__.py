"""Entry point for `python -m drgtrades`; see drgtrades.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
