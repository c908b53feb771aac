"""``python -m rollsym``: the command-line front end (see rollsym.cli)."""

import sys

from .cli import main

sys.exit(main())
