"""Write references.json: the outputs of pass 0 of every workload at the stored seed.

    python3 perfbench/make_references.py

Run it only when the reference outputs must change on purpose (a new
workload or command); the benchmark judges later code against this file.
"""

import json
import os
import shutil
import sys

from checks import REFERENCE_FILE
from run import SRC, WORK, run_pass
from workloads import WORKLOADS, reference_key

SEED = 0
STORED = {"exact-csv": "output", "estimate-csv": "output", "sign-csv": "output", "verify-rows": "stdout"}


def main() -> None:
    sys.path.insert(0, str(SRC))
    from walshlab import cli

    outputs = {}
    workdir = WORK / f"references-{os.getpid()}"
    workdir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(workdir)
    try:
        for build in WORKLOADS.values():
            commands = build(SEED, 0)
            for cmd, (outcome, _, _) in zip(commands, run_pass(cli, commands)):
                if outcome.rc != 0:
                    sys.exit(f"command failed: {' '.join(cmd.argv)}")
                if cmd.check in STORED:
                    outputs[reference_key(cmd.argv)] = getattr(outcome, STORED[cmd.check])
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"seed": SEED, "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
