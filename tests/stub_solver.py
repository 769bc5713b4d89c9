"""A stand-in SMT solver for driver tests that need no real solver.

    python stub_solver.py ANSWERS LOG

Reads one SMT-LIB script on stdin, appends one line to LOG and prints
the next answer from the comma-separated ANSWERS: the n-th launch prints
the n-th answer, and the last one repeats. An answer other than `sat`,
`unsat` or `unknown` (say `garbage`) is a verdict the client cannot read.
"""

import sys
from pathlib import Path

answers, log = sys.argv[1].split(","), Path(sys.argv[2])
sys.stdin.read()
launches = len(log.read_text().splitlines()) if log.exists() else 0
with log.open("a") as f:
    f.write("launch\n")
print(answers[min(launches, len(answers) - 1)])
