"""``python -m spinband``: the ``spinband`` command; numpy loads after --threads."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
