"""python -m modhadamard: the command-line interface of modhadamard.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
