"""Recursive-descent parser for the Solidity fragment.

Grammar: a single contract holding struct definitions, state variables,
an optional constructor, and functions. Statements are local variable
declarations, (tuple) assignments, push/pop, delete, and assert.
Constructs from full Solidity outside the fragment (loops, if, returns,
inheritance, ...) are reported as unsupported, never skipped. Leading
`pragma` directives and function-header visibility/mutability modifiers
are ignored with a warning.

The parser holds the current token in `tok` and reads it directly;
`peek(offset)` looks further ahead only to tell a declaration from an
expression statement. Binary operators are parsed by one
precedence-climbing loop over `_BINARY_PREC`, all left-associative:

    1  ||
    2  &&
    3  ==  !=
    4  <  <=  >  >=
    5  +  -

Prefix `!` and `-` bind tighter, and postfix `.member` and `[index]`
tighter still. `c ? x : y` is the loosest form and nests to the right.
"""

from __future__ import annotations

from .errors import ParseError, UnsupportedError
from .gcpause import gc_paused
from .lexer import IGNORED_MODIFIERS, UNSUPPORTED_KEYWORDS, Token, tokenize
from .sol_ast import (
    ADDRESS,
    BOOL,
    INT,
    UINT,
    AssertStmt,
    AssignStmt,
    BinExpr,
    BoolLitExpr,
    CondExpr,
    Contract,
    DeclStmt,
    DeleteStmt,
    DynArrayType,
    Expr,
    FixArrayType,
    Function,
    IdentExpr,
    IndexExpr,
    IntLitExpr,
    MappingType,
    MemberExpr,
    NewArrayExpr,
    Param,
    PopStmt,
    PushStmt,
    SolType,
    StateVar,
    Stmt,
    StructCtorExpr,
    StructDef,
    StructMember,
    StructType,
    UnExpr,
)

_VALUE_TYPES = {"address": ADDRESS, "int": INT, "uint": UINT, "bool": BOOL}

# Binding power of the binary operators, all left-associative. `*`, `/`
# and `%` are outside the fragment: absent here, they end an expression.
_BINARY_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5}


class Parser:
    def __init__(self, text: str, line: int = 1, col: int = 1):
        self.tokens = tokenize(text, line, col)
        self.pos = 0
        self.last = len(self.tokens) - 1  # the eof token
        self.tok = self.tokens[0]
        self.warnings: list[str] = []

    # -- token plumbing -------------------------------------------------

    def peek(self, offset: int) -> Token:
        return self.tokens[min(self.pos + offset, self.last)]

    def next(self) -> Token:
        tok = self.tok
        if self.pos < self.last:
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return tok

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.tok
        return tok.kind == kind and (value is None or tok.value == value)

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        if not self.at(kind, value):
            self._reject(expected=value or kind)
        return self.next()

    def _reject(self, expected: str) -> None:
        self._check_unsupported()
        tok = self.tok
        shown = tok.value or "end of input"
        raise ParseError(f"expected {expected}, found {shown!r}", tok.line, tok.col)

    def _check_unsupported(self) -> None:
        tok = self.tok
        if tok.kind == "ident" and tok.value in UNSUPPORTED_KEYWORDS:
            raise UnsupportedError(
                f"unsupported: {UNSUPPORTED_KEYWORDS[tok.value]}", tok.line, tok.col
            )

    # -- types -----------------------------------------------------------

    def parse_type(self) -> SolType:
        tok = self.tok
        if tok.kind == "keyword" and tok.value in _VALUE_TYPES:
            self.next()
            base: SolType = _VALUE_TYPES[tok.value]
        elif tok.kind == "keyword" and tok.value == "mapping":
            self.next()
            self.expect("symbol", "(")
            key = self.parse_type()
            self.expect("symbol", "=>")
            value = self.parse_type()
            self.expect("symbol", ")")
            base = MappingType(key, value)
        elif tok.kind == "ident":
            self._check_unsupported()
            self.next()
            base = StructType(tok.value)
        else:
            self._reject(expected="type")
        while self.at("symbol", "["):
            self.next()
            if self.accept("symbol", "]"):
                base = DynArrayType(base)
            else:
                size_tok = self.expect("number")
                self.expect("symbol", "]")
                base = FixArrayType(base, int(size_tok.value))
        return base

    def _looks_like_type(self) -> bool:
        tok = self.tok
        if tok.kind == "keyword" and (tok.value in _VALUE_TYPES or tok.value == "mapping"):
            return True
        if tok.kind != "ident":
            return False
        # `Name x`, `Name storage x`, `Name[...]` start declarations;
        # `Name.`, `Name =`, `Name[` could also start an expression, so a
        # bracket requires a closing look: `Name[` followed by `]` or a
        # number-then-`]` is a type.
        nxt = self.peek(1)
        if nxt.kind == "ident" or (nxt.kind == "keyword" and nxt.value in ("storage", "memory")):
            return True
        if nxt.kind == "symbol" and nxt.value == "[":
            if self.peek(2).kind == "symbol" and self.peek(2).value == "]":
                return True
            if self.peek(2).kind == "number" and self.peek(3).value == "]":
                # `a[3] = ...` is an assignment; `T[3] x ...` a declaration
                after = self.peek(4)
                return after.kind == "ident" or (
                    after.kind == "keyword" and after.value in ("storage", "memory")
                ) or (after.kind == "symbol" and after.value == "[")
        return False

    # -- contract structure ----------------------------------------------

    def parse_contract(self) -> Contract:
        while self.at("keyword", "pragma"):
            tok = self.next()
            while not self.at("symbol", ";") and not self.at("eof"):
                self.next()
            self.expect("symbol", ";")
            self.warnings.append(f"{tok.line}: pragma directive ignored")
        self.expect("keyword", "contract")
        name = self.expect("ident").value
        self.expect("symbol", "{")
        structs: list[StructDef] = []
        while self.at("keyword", "struct"):
            structs.append(self.parse_struct())
        state_vars: list[StateVar] = []
        while not self.at("keyword", "constructor") and not self.at("keyword", "function") and not self.at("symbol", "}"):
            state_vars.append(self.parse_state_var())
        constructor = None
        if self.at("keyword", "constructor"):
            constructor = self.parse_function(is_constructor=True)
        functions: list[Function] = []
        while self.at("keyword", "function"):
            functions.append(self.parse_function(is_constructor=False))
        self.expect("symbol", "}")
        self.expect("eof")
        return Contract(name, structs, state_vars, constructor, functions, self.warnings)

    def parse_struct(self) -> StructDef:
        tok = self.expect("keyword", "struct")
        name = self.expect("ident").value
        self.expect("symbol", "{")
        members: list[StructMember] = []
        while not self.at("symbol", "}"):
            ty = self.parse_type()
            mname = self.expect("ident")
            self.expect("symbol", ";")
            members.append(StructMember(mname.value, ty, mname.line))
        self.expect("symbol", "}")
        if not members:
            raise ParseError(f"struct {name} has no members", tok.line, tok.col)
        return StructDef(name, members, tok.line)

    def parse_state_var(self) -> StateVar:
        ty = self.parse_type()
        tok = self.expect("ident")
        self.expect("symbol", ";")
        return StateVar(tok.value, ty, tok.line)

    def parse_function(self, is_constructor: bool) -> Function:
        if is_constructor:
            tok = self.expect("keyword", "constructor")
            name = "constructor"
        else:
            tok = self.expect("keyword", "function")
            name = self.expect("ident").value
        params = self.parse_params()
        self._skip_modifiers()
        returns: list[Param] = []
        if self.accept("keyword", "returns"):
            returns = self.parse_params()
            for r in returns:
                if not r.name:
                    raise ParseError(
                        "return values must be named in this fragment", tok.line, tok.col
                    )
        self._skip_modifiers()
        self.expect("symbol", "{")
        body: list[Stmt] = []
        while not self.at("symbol", "}"):
            body.append(self.parse_stmt())
        self.expect("symbol", "}")
        return Function(name, params, returns, body, is_constructor, tok.line)

    def _skip_modifiers(self) -> None:
        while self.tok.kind == "ident" and self.tok.value in IGNORED_MODIFIERS:
            tok = self.next()
            self.warnings.append(f"{tok.line}: ignoring modifier '{tok.value}'")

    def parse_params(self) -> list[Param]:
        self.expect("symbol", "(")
        params: list[Param] = []
        while not self.at("symbol", ")"):
            if params:
                self.expect("symbol", ",")
            ty = self.parse_type()
            data_loc = None
            if self.at("keyword", "storage") or self.at("keyword", "memory"):
                data_loc = self.next().value
            name_tok = self.accept("ident")
            params.append(
                Param(ty, data_loc, name_tok.value if name_tok else "", name_tok.line if name_tok else 0)
            )
        self.expect("symbol", ")")
        return params

    # -- statements --------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        tok = self.tok
        if self.at("keyword", "delete"):
            self.next()
            target = self.parse_expr()
            self.expect("symbol", ";")
            return DeleteStmt(target, line=tok.line)
        if self.at("keyword", "assert"):
            self.next()
            self.expect("symbol", "(")
            cond = self.parse_expr()
            self.expect("symbol", ")")
            self.expect("symbol", ";")
            return AssertStmt(cond, line=tok.line)
        if self.at("symbol", "("):
            return self.parse_tuple_assign()
        if self._looks_like_type():
            return self.parse_decl()
        # expression statement: single assignment or push/pop
        expr = self.parse_expr()
        if isinstance(expr, MemberExpr) and expr.member in ("push", "pop") and self.at("symbol", "("):
            self.next()
            if expr.member == "push":
                value = self.parse_expr()
                self.expect("symbol", ")")
                self.expect("symbol", ";")
                return PushStmt(expr.base, value, line=tok.line)
            self.expect("symbol", ")")
            self.expect("symbol", ";")
            return PopStmt(expr.base, line=tok.line)
        if self.at("symbol", "="):
            self.next()
            rhs = self.parse_expr()
            self.expect("symbol", ";")
            return AssignStmt([expr], [rhs], tuple_form=False, line=tok.line)
        self._reject(expected="'=' or ';'")
        raise AssertionError("unreachable")

    def parse_tuple_assign(self) -> Stmt:
        tok = self.expect("symbol", "(")
        lhs = [self.parse_expr()]
        while self.accept("symbol", ","):
            lhs.append(self.parse_expr())
        self.expect("symbol", ")")
        self.expect("symbol", "=")
        self.expect("symbol", "(")
        rhs = [self.parse_expr()]
        while self.accept("symbol", ","):
            rhs.append(self.parse_expr())
        self.expect("symbol", ")")
        self.expect("symbol", ";")
        return AssignStmt(lhs, rhs, tuple_form=True, line=tok.line)

    def parse_decl(self) -> Stmt:
        tok = self.tok
        ty = self.parse_type()
        data_loc = None
        if self.at("keyword", "storage") or self.at("keyword", "memory"):
            data_loc = self.next().value
        name = self.expect("ident").value
        init = None
        if self.accept("symbol", "="):
            init = self.parse_expr()
        self.expect("symbol", ";")
        return DeclStmt(ty, data_loc, name, init, line=tok.line)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        cond = self.parse_binary(1)
        if self.accept("symbol", "?"):
            then = self.parse_expr()
            self.expect("symbol", ":")
            other = self.parse_expr()
            return CondExpr(cond, then, other, line=cond.line, col=cond.col)
        return cond

    def parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing: a unary operand, then every operator that
        binds at least `min_prec`. Its right operand takes only tighter
        operators, so equal levels group to the left."""
        left = self.parse_unary()
        while True:
            op = self.tok
            prec = _BINARY_PREC.get(op.value, 0)  # only symbols spell operators
            if prec < min_prec:
                return left
            self.next()
            right = self.parse_binary(prec + 1)
            left = BinExpr(op.value, left, right, line=op.line, col=op.col)

    def parse_unary(self) -> Expr:
        tok = self.tok
        if tok.kind == "symbol":
            if tok.value == "!" or tok.value == "-":
                self.next()
                return UnExpr(tok.value, self.parse_unary(), line=tok.line, col=tok.col)
            if tok.value in ("*", "/", "%"):
                raise UnsupportedError(f"unsupported: operator {tok.value}", tok.line, tok.col)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while True:
            value = self.tok.value  # only symbols spell "." and "["
            if value == ".":
                self.next()
                member = self.expect("ident").value
                expr = MemberExpr(expr, member, line=expr.line, col=expr.col)
            elif value == "[":
                self.next()
                index = self.parse_expr()
                self.expect("symbol", "]")
                expr = IndexExpr(expr, index, line=expr.line, col=expr.col)
            else:
                return expr

    def parse_primary(self) -> Expr:
        tok = self.tok
        if tok.kind == "number":
            self.next()
            return IntLitExpr(int(tok.value), line=tok.line, col=tok.col)
        if tok.kind == "keyword" and (tok.value == "true" or tok.value == "false"):
            self.next()
            return BoolLitExpr(tok.value == "true", line=tok.line, col=tok.col)
        if tok.kind == "keyword" and tok.value == "new":
            self.next()
            elem = self.parse_type()
            if not isinstance(elem, DynArrayType):
                raise ParseError(
                    "new is only supported for dynamic arrays: new T[](n)",
                    tok.line,
                    tok.col,
                )
            self.expect("symbol", "(")
            length = self.parse_expr()
            self.expect("symbol", ")")
            return NewArrayExpr(elem.base, length, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            self._check_unsupported()
            self.next()
            if self.at("symbol", "("):
                self.next()
                args: list[Expr] = []
                while not self.at("symbol", ")"):
                    if args:
                        self.expect("symbol", ",")
                    args.append(self.parse_expr())
                self.expect("symbol", ")")
                return StructCtorExpr(tok.value, args, line=tok.line, col=tok.col)
            return IdentExpr(tok.value, line=tok.line, col=tok.col)
        if self.at("symbol", "("):
            self.next()
            inner = self.parse_expr()
            self.expect("symbol", ")")
            return inner
        self._reject(expected="expression")
        raise AssertionError("unreachable")


@gc_paused
def parse_source(text: str) -> Contract:
    """Parse a source file into an unresolved contract tree."""
    return Parser(text).parse_contract()


def parse_statement(text: str, line: int = 1, col: int = 1) -> Stmt:
    """Parse exactly one statement followed by end of input. `line` and
    `col` give the statement's position in its file, so the positions in
    the tree and in errors are the file's."""
    parser = Parser(text, line, col)
    stmt = parser.parse_stmt()
    parser.expect("eof")
    return stmt
