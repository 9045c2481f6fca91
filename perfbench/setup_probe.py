"""Set-up probe: import walshlab.cli in a fresh interpreter and run the warm-up.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>

The benchmark times this script from outside (``setup_s``).  Run it in a
work directory: the warm-up commands write their outputs there.
"""

import sys

from walshlab.cli import run_command
from workloads import warm_up

warm_up(run_command, sys.argv[1])
