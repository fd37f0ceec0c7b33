"""Set-up probe: ``python3 bench/probe.py WORKLOAD SEED``.

Imports the library, generates the workload's inputs and runs one warm-up
op, then prints ``ready``. ``run.py`` times several of these from spawn to
``ready``, each between two reference spawns (see pace.py), and reports the
median at nominal pace as ``setup_s``.
"""

import sys

from harness import remove_work_dir, setup, work_dir

if __name__ == "__main__":
    workdir = work_dir()
    try:
        setup(sys.argv[1], int(sys.argv[2]), workdir)
        print("ready", flush=True)
    finally:
        remove_work_dir(workdir)
