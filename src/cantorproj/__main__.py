"""Entry point for ``python -m cantorproj``."""

import sys

from .cli import main

sys.exit(main())
