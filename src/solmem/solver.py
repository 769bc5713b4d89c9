"""Client for an external SMT-LIB v2 solver process.

Each query launches one solver process, writes the script on stdin, and
parses the verdict from stdout. The command is configurable via the
`SOLMEM_SOLVER` environment variable or an explicit argument; by default
a `z3` or `cvc5` binary on PATH is used, falling back to the bundled
Node.js shim around the z3-solver WASM distribution. `query`, which the
verifier uses, first sends each command one smoke query per process.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SolverFailure

KILL_GRACE_SECONDS = 2.0


@dataclass
class SolverVerdict:
    kind: str  # "unsat" | "sat" | "unknown" | "timeout" | "error"
    model: dict[str, str] = field(default_factory=dict)
    detail: str = ""


def _bundled_shim() -> Path:
    return Path(__file__).parent / "backends" / "z3smt2.cjs"


def default_solver_command() -> list[str]:
    """Resolve the solver command: $SOLMEM_SOLVER, a z3/cvc5 binary on
    PATH, or the bundled Node.js shim."""
    env = os.environ.get("SOLMEM_SOLVER")
    if env:
        return _split(env)
    if shutil.which("z3"):
        return ["z3", "-in"]
    if shutil.which("cvc5"):
        return ["cvc5", "--lang", "smt2"]
    if shutil.which("node") and _bundled_shim().exists():
        return ["node", str(_bundled_shim())]
    raise SolverFailure(
        "no SMT solver found: install z3 or cvc5, run "
        "`npm install -g z3-solver` for the bundled backend, or set "
        "SOLMEM_SOLVER / --solver-cmd"
    )


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
    return _split(solver_cmd) if solver_cmd else default_solver_command()


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

    The child process is killed (and reaped) if it exceeds the timeout.
    """
    try:
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    except OSError as e:
        return SolverVerdict("error", detail=f"failed to launch solver {cmd[0]}: {e}")
    try:
        out, err = proc.communicate(script, timeout=timeout_seconds)
    except subprocess.TimeoutExpired:
        proc.kill()
        try:
            proc.communicate(timeout=KILL_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            pass
        return SolverVerdict("timeout")
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
