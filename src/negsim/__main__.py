"""python -m negsim: the negsim command line (see negsim.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
