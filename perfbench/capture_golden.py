"""Write the golden report bytes for the cli-cold workload.

    PYTHONPATH=src python3 perfbench/capture_golden.py

Run from the repository root at the commit whose reports are the
reference.  Each README command (and the oracle on every generated
problem file) runs once; its stdout goes to golden/<name>.out.  Exits 1
if a command's exit code is not the one the workload expects.
"""

import os
import shutil
import subprocess
import sys

from workloads import GOLDEN, ORACLE_VARIANTS, WORK_DIR, child_env, cli_items, write_oracle_problems


def main():
    write_oracle_problems()
    seen, bad = set(), 0
    try:
        for variant in range(ORACLE_VARIANTS):
            for name, argv, code in cli_items(variant):
                if name in seen:
                    continue
                seen.add(name)
                proc = subprocess.run([sys.executable, "-m", "diampart.cli", *argv],
                                      env=child_env(), capture_output=True)
                if proc.returncode != code:
                    print("%s: exit %d, expected %d" % (name, proc.returncode, code))
                    bad += 1
                with open(os.path.join(GOLDEN, name + ".out"), "wb") as fh:
                    fh.write(proc.stdout)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print("wrote %d golden reports" % len(seen))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
