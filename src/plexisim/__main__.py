"""``python -m plexisim``: the same command line as the ``plexisim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
