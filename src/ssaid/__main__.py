import sys

from .harness import cli

sys.exit(cli())
