"""A stand-in SMT solver for driver tests that need no real solver.

    python stub_solver.py ANSWERS LOG

Reads one SMT-LIB script on stdin, appends one line to LOG and prints
the next answer from the comma-separated ANSWERS: the n-th launch prints
the n-th answer, and the last one repeats. The answer `model` prints
`sat` and a model that sets every `declare-const` of sort Int to 0 and
of sort Bool to false. The answer `sleep` prints nothing and sleeps for
a minute, past any timeout a test sets. An answer other than `sat`,
`unsat`, `unknown`, `model` or `sleep` (say `garbage`) is a verdict the
client cannot read. Tests name the stub by `command` and count its
launches by `launches`.
"""

import re
import shlex
import sys
import time
from pathlib import Path


def command(answers: str, log: Path) -> str:
    """The `SOLMEM_SOLVER` line that runs this stub with `answers` and `log`."""
    return shlex.join([sys.executable, __file__, answers, str(log)])


def launches(log: Path) -> int:
    """How often the stub logging to `log` has started."""
    return len(log.read_text().splitlines()) if log.exists() else 0


if __name__ == "__main__":
    answers, log = sys.argv[1].split(","), Path(sys.argv[2])
    script = sys.stdin.read()
    answer = answers[min(launches(log), len(answers) - 1)]
    with log.open("a") as f:
        f.write("launch\n")
    if answer == "model":
        values = {"Int": "0", "Bool": "false"}
        consts = re.findall(r"\(declare-const (\S+) (Int|Bool)\)", script)
        answer = "sat\n(model" + "".join(f"\n  (define-fun {n} () {s} {values[s]})" for n, s in consts) + ")"
    elif answer == "sleep":
        time.sleep(60)
        answer = ""
    print(answer)
