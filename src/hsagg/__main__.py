"""``python -m hsagg``: the ``hsagg`` command, with the same exit codes."""

import sys

from .cli import main

sys.exit(main())
