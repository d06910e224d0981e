"""``python -m zetalab``: the command-line interface of :mod:`zetalab.cli`."""

import sys

from .cli import main

sys.exit(main())
