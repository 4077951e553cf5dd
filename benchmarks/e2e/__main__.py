"""``PYTHONPATH=src python -m benchmarks.e2e --workload <name> --seed <n> [--traced]``."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
