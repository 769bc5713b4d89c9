"""A stand-in SMT solver for driver tests that need no real solver.

    python stub_solver.py ANSWERS LOG

Reads one SMT-LIB script on stdin, appends one line to LOG and prints
the next answer from the comma-separated ANSWERS: the n-th launch prints
the n-th answer, and the last one repeats. The answer `model` prints
`sat` and a model that sets every `declare-const` of sort Int to 0 and
of sort Bool to false. An answer other than `sat`, `unsat`, `unknown`
or `model` (say `garbage`) is a verdict the client cannot read.
"""

import re
import sys
from pathlib import Path

answers, log = sys.argv[1].split(","), Path(sys.argv[2])
script = sys.stdin.read()
launches = len(log.read_text().splitlines()) if log.exists() else 0
with log.open("a") as f:
    f.write("launch\n")
answer = answers[min(launches, len(answers) - 1)]
if answer == "model":
    values = {"Int": "0", "Bool": "false"}
    consts = re.findall(r"\(declare-const (\S+) (Int|Bool)\)", script)
    answer = "sat\n(model" + "".join(f"\n  (define-fun {n} () {s} {values[s]})" for n, s in consts) + ")"
print(answer)
