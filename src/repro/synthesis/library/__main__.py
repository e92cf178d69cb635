"""``python -m repro.synthesis.library --write | --check``."""

import sys

from repro.synthesis.library import main

sys.exit(main())
