"""Run the command line front end: python -m coframes ..."""

import sys

from .cli import main

sys.exit(main())
