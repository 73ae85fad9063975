"""``python -m repro.evaluation [args]`` runs ``python -m repro.experiments run [args]``."""

import sys

from repro.experiments.__main__ import main

if __name__ == "__main__":
    raise SystemExit(main(["run", *sys.argv[1:]]))
