"""Client for an external SMT-LIB v2 solver process.

Each query launches one solver process, writes the script on stdin, and
parses the verdict from stdout. The command comes from an explicit
argument or the `SOLMEM_SOLVER` environment variable; by default a `z3`
or `cvc5` binary on PATH is used. `query`, which the verifier uses,
first sends each command one smoke query per process.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import signal
import subprocess
import threading
from .errors import SolverFailure
from .records import Record


class SolverVerdict(Record):
    __slots__ = ("kind", "model", "detail")

    def __init__(self, kind: str, model: dict[str, str] | None = None, detail: str = ""):
        self.kind = kind  # "unsat" | "sat" | "unknown" | "timeout" | "error"
        self.model = {} if model is None else model
        self.detail = detail


def default_solver_command() -> list[str]:
    """Resolve the solver command: $SOLMEM_SOLVER, else a z3 or cvc5
    binary on PATH."""
    env = os.environ.get("SOLMEM_SOLVER")
    if env:
        return _split(env)
    if shutil.which("z3"):
        return ["z3", "-in"]
    if shutil.which("cvc5"):
        return ["cvc5", "--lang", "smt2"]
    raise SolverFailure("no SMT solver found: install z3 or cvc5, or set SOLMEM_SOLVER / --solver-cmd")


def _split(command: str) -> list[str]:
    """The words of a solver command line, which must name a program."""
    try:
        words = shlex.split(command)
        if not words:
            raise ValueError("no program")
    except ValueError as e:
        raise SolverFailure(f"malformed solver command {command!r}: {e}") from None
    return words


def _command(solver_cmd: str | None) -> list[str]:
    return default_solver_command() if solver_cmd is None else _split(solver_cmd)


def check(script: str, timeout_seconds: float = 60.0, solver_cmd: str | None = None) -> SolverVerdict:
    """Run one SMT-LIB session and classify the outcome. A solver that
    cannot be found or launched gives an `error` verdict."""
    try:
        cmd = _command(solver_cmd)
    except SolverFailure as e:
        return SolverVerdict("error", detail=str(e))
    return _run(cmd, script, timeout_seconds)


# The query the test suite's `solver_available` fixture sends.
SMOKE_QUERY = "(set-logic ALL)(assert false)(check-sat)\n"
SMOKE_TIMEOUT_SECONDS = 30.0

_smoke_lock = threading.Lock()
_smoke_failures: dict[tuple[str, ...], str] = {}  # command -> reason, "" once it answered


def query(script: str, timeout_seconds: float = 60.0, solver_cmd: str | None = None) -> SolverVerdict:
    """`check`, once the solver command has answered the smoke query.

    The smoke query runs once per command per process. After it fails,
    every query gets an `error` verdict with the reason and no solver
    process is launched again.
    """
    try:
        cmd = _command(solver_cmd)
    except SolverFailure as e:
        return SolverVerdict("error", detail=str(e))
    with _smoke_lock:
        reason = _smoke_failures.get(tuple(cmd))
        if reason is None:
            smoke = _run(cmd, SMOKE_QUERY, SMOKE_TIMEOUT_SECONDS)
            failure = f"solver smoke test failed: {smoke.kind} {smoke.detail}"
            reason = "" if smoke.kind == "unsat" else " ".join(failure.split())
            _smoke_failures[tuple(cmd)] = reason
    if reason:
        return SolverVerdict("error", detail=reason)
    return _run(cmd, script, timeout_seconds)


def _run(cmd: list[str], script: str, timeout_seconds: float) -> SolverVerdict:
    """Launch `cmd`, write the script on stdin and parse the verdict.

    The solver runs in a session of its own. Past the timeout its whole
    process group is killed and the solver reaped; an interrupted wait
    (Ctrl-C no longer reaches the solver) kills the group as well.
    """
    try:
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
    except OSError as e:
        return SolverVerdict("error", detail=f"failed to launch solver {cmd[0]}: {e}")
    try:
        out, err = proc.communicate(script, timeout=timeout_seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        size = len(script.encode())
        return SolverVerdict("timeout", detail=f"no answer within {timeout_seconds:g} s ({size:,} B query)")
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
    lines = (line.strip() for line in out.splitlines())
    verdict = next((t for t in lines if t in ("sat", "unsat", "unknown")), None)
    if verdict is None:
        return SolverVerdict(
            "error",
            detail=f"solver produced no verdict (exit {proc.returncode}): "
            f"{out.strip()[:500]} {err.strip()[:500]}".strip(),
        )
    if verdict == "sat":
        return SolverVerdict("sat", model=parse_model(out))
    if verdict == "unknown":
        return SolverVerdict("unknown", detail=out.strip()[:500])
    return SolverVerdict("unsat")


# ---------------------------------------------------------------------------
# Model parsing


_SEXPR_TOKEN = re.compile(r'\s+|;[^\n]*|([()]|"[^"]*"?|\|[^|]*\|?|[^\s();]+)')


def _tokenize_sexpr(text: str) -> list[str]:
    return [m.group(1) for m in _SEXPR_TOKEN.finditer(text) if m.group(1)]


def _parse_sexprs(tokens: list[str]) -> list:
    """The s-expressions in `tokens` as nested lists of atoms, built on an
    explicit stack so that nesting costs no Python frames. A list still
    open at the end ends there; a stray `)` at the top is an atom."""
    stack: list[list] = [[]]
    for token in tokens:
        if token == "(":
            stack[-1].append([])
            stack.append(stack[-1][-1])
        elif token == ")" and len(stack) > 1:
            stack.pop()
        else:
            stack[-1].append(token)
    return stack[0]


_CLOSE = object()  # marks where `_render` closes a list


def _render(node) -> str:
    """SMT-LIB text of a parsed s-expression, one space between items."""
    out: list[str] = []
    stack = [node]
    while stack:
        item = stack.pop()
        if item is _CLOSE:
            out.append(")")
            continue
        if out and out[-1] != "(":
            out.append(" ")
        if isinstance(item, str):
            out.append(item)
        else:
            out.append("(")
            stack.append(_CLOSE)
            stack.extend(reversed(item))
    return "".join(out)


def parse_model(text: str) -> dict[str, str]:
    """Best-effort name -> value extraction from get-model output.

    Integers and booleans become plain text ("3", "-4", "true"); values
    of other sorts (datatypes, arrays) are preserved as raw s-expression
    text. No step recurses, so a value of any depth parses.
    """
    start = text.find("(")
    if start < 0:
        return {}
    model: dict[str, str] = {}
    # every list, outermost first and in text order, but not inside a definition
    stack = list(reversed(_parse_sexprs(_tokenize_sexpr(text[start:]))))
    while stack:
        node = stack.pop()
        if not isinstance(node, list):
            continue
        if len(node) == 5 and node[0] == "define-fun" and node[2] == []:
            name, value = node[1], node[4]
            if isinstance(name, list):
                continue  # not a name: skip the entry
            if isinstance(value, list) and len(value) == 2 and value[0] == "-":
                model[name] = f"-{value[1]}"
            elif isinstance(value, str):
                model[name] = value
            else:
                model[name] = _render(value)
        else:
            stack.extend(reversed(node))
    return model
