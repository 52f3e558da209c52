"""``python -m medial``: the command line front end."""

import sys

from . import cli

sys.exit(cli.main())
