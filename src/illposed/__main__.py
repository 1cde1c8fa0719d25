"""``python -m illposed``: the same command line as the ``illposed`` script."""

import sys

from .cli import main

sys.exit(main())
