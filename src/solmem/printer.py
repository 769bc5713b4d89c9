"""Solidity-fragment source printer and structural tree signatures.

`to_source` emits canonical text that reparses to an identical tree;
`signature` reduces a tree to nested tuples (dropping positions and
annotations) so round-trips can be compared structurally.
"""

from __future__ import annotations

from .sol_ast import (
    AssertStmt,
    AssignStmt,
    BinExpr,
    BoolLitExpr,
    CondExpr,
    Contract,
    DeclStmt,
    DeleteStmt,
    Expr,
    Function,
    IdentExpr,
    IndexExpr,
    IntLitExpr,
    MemberExpr,
    NewArrayExpr,
    PopStmt,
    PushStmt,
    Stmt,
    StructCtorExpr,
    UnExpr,
)


def expr_to_source(e: Expr) -> str:
    if isinstance(e, IdentExpr):
        return e.name
    if isinstance(e, IntLitExpr):
        return str(e.value)
    if isinstance(e, BoolLitExpr):
        return "true" if e.value else "false"
    if isinstance(e, MemberExpr):
        return f"{expr_to_source(e.base)}.{e.member}"
    if isinstance(e, IndexExpr):
        return f"{expr_to_source(e.base)}[{expr_to_source(e.index)}]"
    if isinstance(e, CondExpr):
        return f"({expr_to_source(e.cond)} ? {expr_to_source(e.then)} : {expr_to_source(e.other)})"
    if isinstance(e, NewArrayExpr):
        return f"new {e.elem_type}[]({expr_to_source(e.length)})"
    if isinstance(e, StructCtorExpr):
        return f"{e.name}({', '.join(expr_to_source(a) for a in e.args)})"
    if isinstance(e, BinExpr):
        return f"({expr_to_source(e.left)} {e.op} {expr_to_source(e.right)})"
    if isinstance(e, UnExpr):
        return f"({e.op}{expr_to_source(e.operand)})"
    raise TypeError(f"unknown expression {e!r}")


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


def signature(node) -> object:
    """Structural signature: nested tuples over node kinds and fields,
    ignoring source positions and resolver annotations."""
    if isinstance(node, Contract):
        return (
            "contract",
            node.name,
            tuple(
                (s.name, tuple((m.name, str(m.ty)) for m in s.members))
                for s in node.structs
            ),
            tuple((v.name, str(v.ty)) for v in node.state_vars),
            tuple(signature(f) for f in node.all_functions()),
        )
    if isinstance(node, Function):
        return (
            "function",
            node.name,
            node.is_constructor,
            tuple((p.name, p.data_loc, str(p.ty)) for p in node.params),
            tuple((p.name, p.data_loc, str(p.ty)) for p in node.returns),
            tuple(signature(s) for s in node.body),
        )
    if isinstance(node, DeclStmt):
        return (
            "decl",
            str(node.var_type),
            node.data_loc,
            node.name,
            signature(node.init) if node.init is not None else None,
        )
    if isinstance(node, AssignStmt):
        return (
            "assign",
            node.tuple_form,
            tuple(signature(e) for e in node.lhs),
            tuple(signature(e) for e in node.rhs),
        )
    if isinstance(node, PushStmt):
        return ("push", signature(node.target), signature(node.value))
    if isinstance(node, PopStmt):
        return ("pop", signature(node.target))
    if isinstance(node, DeleteStmt):
        return ("delete", signature(node.target))
    if isinstance(node, AssertStmt):
        return ("assert", signature(node.cond))
    if isinstance(node, IdentExpr):
        return ("id", node.name)
    if isinstance(node, IntLitExpr):
        return ("int", node.value)
    if isinstance(node, BoolLitExpr):
        return ("bool", node.value)
    if isinstance(node, MemberExpr):
        return ("member", signature(node.base), node.member)
    if isinstance(node, IndexExpr):
        return ("index", signature(node.base), signature(node.index))
    if isinstance(node, CondExpr):
        return ("cond", signature(node.cond), signature(node.then), signature(node.other))
    if isinstance(node, NewArrayExpr):
        return ("new", str(node.elem_type), signature(node.length))
    if isinstance(node, StructCtorExpr):
        return ("ctor", node.name, tuple(signature(a) for a in node.args))
    if isinstance(node, BinExpr):
        return ("bin", node.op, signature(node.left), signature(node.right))
    if isinstance(node, UnExpr):
        return ("un", node.op, signature(node.operand))
    raise TypeError(f"unknown node {node!r}")
