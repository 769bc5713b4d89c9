"""Source printer for the Solidity fragment.

`to_source` emits canonical text that reparses to a tree it prints the
same way again, so a round trip compares printed texts.
"""

from solmem.sol_ast import (
    AssertStmt,
    AssignStmt,
    Contract,
    DeclStmt,
    DeleteStmt,
    Function,
    PopStmt,
    PushStmt,
    Stmt,
    expr_to_source,
)


def stmt_to_source(s: Stmt, indent: str = "        ") -> str:
    if isinstance(s, DeclStmt):
        loc = f" {s.data_loc}" if s.data_loc else ""
        init = f" = {expr_to_source(s.init)}" if s.init is not None else ""
        return f"{indent}{s.var_type}{loc} {s.name}{init};"
    if isinstance(s, AssignStmt):
        if s.tuple_form:
            lhs = ", ".join(expr_to_source(e) for e in s.lhs)
            rhs = ", ".join(expr_to_source(e) for e in s.rhs)
            return f"{indent}({lhs}) = ({rhs});"
        return f"{indent}{expr_to_source(s.lhs[0])} = {expr_to_source(s.rhs[0])};"
    if isinstance(s, PushStmt):
        return f"{indent}{expr_to_source(s.target)}.push({expr_to_source(s.value)});"
    if isinstance(s, PopStmt):
        return f"{indent}{expr_to_source(s.target)}.pop();"
    if isinstance(s, DeleteStmt):
        return f"{indent}delete {expr_to_source(s.target)};"
    if isinstance(s, AssertStmt):
        return f"{indent}assert({expr_to_source(s.cond)});"
    raise TypeError(f"unknown statement {s!r}")


def _params_to_source(params) -> str:
    parts = []
    for p in params:
        loc = f" {p.data_loc}" if p.data_loc else ""
        parts.append(f"{p.ty}{loc} {p.name}".rstrip())
    return ", ".join(parts)


def function_to_source(fn: Function) -> list[str]:
    head = (
        "    constructor(" + _params_to_source(fn.params) + ")"
        if fn.is_constructor
        else f"    function {fn.name}({_params_to_source(fn.params)})"
    )
    if fn.returns:
        head += f" returns ({_params_to_source(fn.returns)})"
    lines = [head + " {"]
    lines.extend(stmt_to_source(s) for s in fn.body)
    lines.append("    }")
    return lines


def to_source(c: Contract) -> str:
    lines = [f"contract {c.name} {{"]
    for s in c.structs:
        lines.append(f"    struct {s.name} {{")
        for m in s.members:
            lines.append(f"        {m.ty} {m.name};")
        lines.append("    }")
    for v in c.state_vars:
        lines.append(f"    {v.ty} {v.name};")
    for fn in c.all_functions():
        lines.extend(function_to_source(fn))
    lines.append("}")
    return "\n".join(lines) + "\n"
