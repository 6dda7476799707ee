"""`python -m psu38 ...`: the psu38 command line."""

import sys

from .harness import main

sys.exit(main())
