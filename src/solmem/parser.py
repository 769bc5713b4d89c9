"""Recursive-descent parser for the Solidity fragment.

Grammar: a single contract holding struct definitions, state variables,
an optional constructor, and functions. Statements are local variable
declarations, (tuple) assignments, push/pop, delete, and assert.
Constructs from full Solidity outside the fragment (loops, if, returns,
inheritance, ...) are reported as unsupported, never skipped. Leading
`pragma` directives and function-header visibility/mutability modifiers
are ignored with a warning.

Tokens are the lexer's `(kind, value, line, col)` tuples. The parser
holds the current one in `tok` and reads its fields in place; it looks
further ahead, by index, only to tell a declaration from an expression
statement. Binary operators are parsed by one precedence-climbing loop
over `_BINARY_PREC`, all left-associative:

    1  ||
    2  &&
    3  ==  !=
    4  <  <=  >  >=
    5  +  -

Prefix `!` and `-` bind tighter, and postfix `.member` and `[index]`
tighter still. `c ? x : y` is the loosest form and nests to the right.
"""

from __future__ import annotations

from typing import NoReturn

from .errors import ParseError, UnsupportedError
from .gcpause import gc_paused
from .lexer import IGNORED_MODIFIERS, UNSUPPORTED_KEYWORDS, tokenize
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

# Binding power of the binary operators, all left-associative. `*`, `/`,
# `%` and `^` are outside the fragment: absent here, they end an expression.
_BINARY_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4, "+": 5, "-": 5}

# Symbols that start an operand as a prefix: `!` and `-` are in the
# fragment, the rest are operators outside it and are reported as such.
_PREFIX = {"!", "-", "*", "/", "%", "^", "~"}


class Parser:
    """The current token is `tok`, a `(kind, value, line, col)` tuple at
    `tokens[pos]`. Only symbols spell punctuation and operators and only
    keywords spell keywords, so most tests read the value alone. The hot
    paths (operands, their suffixes, the binary loop and expression
    statements) advance in place; the rest go through `next`, `accept`
    and `expect`. Nodes are built with positional arguments only: on
    Python 3.11 a construction with keywords costs about twice as much."""

    def __init__(self, text: str, line: int = 1, col: int = 1):
        self.tokens = tokenize(text, line, col)
        # `_looks_like_type` reads up to four tokens ahead; past the end
        # it reads the eof token again
        self.tokens += [self.tokens[-1]] * 4
        self.pos = 0
        self.tok = self.tokens[0]
        self.warnings: list[str] = []

    # -- token plumbing -------------------------------------------------

    def next(self) -> tuple:
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def accept(self, value: str) -> tuple | None:
        if self.tok[1] == value:
            return self.next()
        return None

    def expect(self, kind: str, value: str | None = None) -> tuple:
        tok = self.tok
        if tok[0] != kind or (value is not None and tok[1] != value):
            self._reject(expected=value or kind)
        return self.next()

    def _reject(self, expected: str) -> NoReturn:
        self._check_unsupported()
        _, value, line, col = self.tok
        shown = value or "end of input"
        raise ParseError(f"expected {expected}, found {shown!r}", line, col)

    def _check_unsupported(self) -> None:
        kind, value, line, col = self.tok
        if kind == "ident" and value in UNSUPPORTED_KEYWORDS:
            raise UnsupportedError(f"unsupported: {UNSUPPORTED_KEYWORDS[value]}", line, col)

    # -- types -----------------------------------------------------------

    def parse_type(self) -> SolType:
        kind, value, _, _ = self.tok
        if kind == "keyword" and value in _VALUE_TYPES:
            self.next()
            base: SolType = _VALUE_TYPES[value]
        elif value == "mapping":
            self.next()
            self.expect("symbol", "(")
            key = self.parse_type()
            self.expect("symbol", "=>")
            mapped = self.parse_type()
            self.expect("symbol", ")")
            base = MappingType(key, mapped)
        elif kind == "ident":
            self._check_unsupported()
            self.next()
            base = StructType(value)
        else:
            self._reject(expected="type")
        while self.accept("["):
            if self.accept("]"):
                base = DynArrayType(base)
            else:
                size = self.expect("number")[1]
                self.expect("symbol", "]")
                base = FixArrayType(base, int(size))
        return base

    def parse_located_type(self) -> tuple[SolType, str | None]:
        """A parameter's or local's type and its data location, if any."""
        ty = self.parse_type()
        return ty, self.next()[1] if self.tok[1] in ("storage", "memory") else None

    def _looks_like_type(self) -> bool:
        kind, value, _, _ = self.tok
        if kind == "keyword":
            return value in _VALUE_TYPES or value == "mapping"
        if kind != "ident":
            return False
        # `Name x`, `Name storage x`, `Name[...]` start declarations;
        # `Name.`, `Name =`, `Name[` could also start an expression, so a
        # bracket requires a closing look: `Name[` followed by `]` or a
        # number-then-`]` is a type.
        toks, pos = self.tokens, self.pos
        kind, value = toks[pos + 1][:2]
        if kind == "ident" or value == "storage" or value == "memory":
            return True
        if value == "[":
            kind, value = toks[pos + 2][:2]
            if value == "]":
                return True
            if kind == "number" and toks[pos + 3][1] == "]":
                # `a[3] = ...` is an assignment; `T[3] x ...` a declaration
                kind, value = toks[pos + 4][:2]
                return kind == "ident" or value in ("storage", "memory", "[")
        return False

    # -- contract structure ----------------------------------------------

    def parse_contract(self) -> Contract:
        while self.tok[1] == "pragma":
            line = self.next()[2]
            while self.tok[1] != ";" and self.tok[0] != "eof":
                self.next()
            self.expect("symbol", ";")
            self.warnings.append(f"{line}: pragma directive ignored")
        self.expect("keyword", "contract")
        name = self.expect("ident")[1]
        self.expect("symbol", "{")
        structs: list[StructDef] = []
        while self.tok[1] == "struct":
            structs.append(self.parse_struct())
        state_vars: list[StateVar] = []
        while self.tok[1] not in ("constructor", "function", "}"):
            state_vars.append(self.parse_field(StateVar))
        constructor = None
        if self.tok[1] == "constructor":
            constructor = self.parse_function(is_constructor=True)
        functions: list[Function] = []
        while self.tok[1] == "function":
            functions.append(self.parse_function(is_constructor=False))
        self.expect("symbol", "}")
        self.expect("eof")
        return Contract(name, structs, state_vars, constructor, functions, self.warnings)

    def parse_struct(self) -> StructDef:
        _, _, line, col = self.expect("keyword", "struct")
        name = self.expect("ident")[1]
        self.expect("symbol", "{")
        members: list[StructMember] = []
        while self.tok[1] != "}":
            members.append(self.parse_field(StructMember))
        self.next()
        if not members:
            raise ParseError(f"struct {name} has no members", line, col)
        return StructDef(name, members, line)

    def parse_field(self, record: type[StateVar] | type[StructMember]) -> StateVar | StructMember:
        """`T name;`, a state variable or a struct member, as a `record`."""
        ty = self.parse_type()
        _, name, line, _ = self.expect("ident")
        self.expect("symbol", ";")
        return record(name, ty, line)

    def parse_function(self, is_constructor: bool) -> Function:
        if is_constructor:
            _, _, line, _ = self.expect("keyword", "constructor")
            name = "constructor"
        else:
            _, _, line, _ = self.expect("keyword", "function")
            name = self.expect("ident")[1]
        params = self.parse_params("parameters")
        self._skip_modifiers()
        returns: list[Param] = []
        if self.accept("returns"):
            returns = self.parse_params("return values")
        self._skip_modifiers()
        self.expect("symbol", "{")
        body: list[Stmt] = []
        while self.tok[1] != "}":
            body.append(self.parse_stmt())
        self.next()
        return Function(name, params, returns, body, is_constructor, line)

    def _skip_modifiers(self) -> None:
        while self.tok[0] == "ident" and self.tok[1] in IGNORED_MODIFIERS:
            _, value, line, _ = self.next()
            self.warnings.append(f"{line}: ignoring modifier '{value}'")

    def parse_params(self, what: str) -> list[Param]:
        """A parenthesized list of named parameters or return values;
        `what` names them in the error for an unnamed one."""
        self.expect("symbol", "(")
        params: list[Param] = []
        while self.tok[1] != ")":
            if params:
                self.expect("symbol", ",")
            _, _, line, col = self.tok
            ty, data_loc = self.parse_located_type()
            if self.tok[0] != "ident":
                raise ParseError(f"{what} must be named in this fragment", line, col)
            _, name, line, _ = self.next()
            params.append(Param(ty, data_loc, name, line))
        self.next()
        return params

    # -- statements --------------------------------------------------------

    def parse_stmt(self) -> Stmt:
        kind, value, line, _ = self.tok
        if kind == "keyword":
            if value == "delete":
                self.next()
                target = self.parse_expr()
                self.expect("symbol", ";")
                return DeleteStmt(target, line)
            if value == "assert":
                self.next()
                self.expect("symbol", "(")
                cond = self.parse_expr()
                self.expect("symbol", ")")
                self.expect("symbol", ";")
                return AssertStmt(cond, "", line)
        elif value == "(":
            stmt = self.parse_tuple_assign()
            if stmt is not None:
                return stmt
        if self._looks_like_type():
            return self.parse_decl()
        # expression statement: single assignment or push/pop
        expr = self.parse_expr()
        if self.tok[1] == "=":
            self.pos += 1
            self.tok = self.tokens[self.pos]
            rhs = self.parse_expr()
            if self.tok[1] != ";":
                self._reject(expected=";")
            self.pos += 1
            self.tok = self.tokens[self.pos]
            return AssignStmt([expr], [rhs], False, line)
        if isinstance(expr, MemberExpr) and expr.member in ("push", "pop") and self.tok[1] == "(":
            self.next()
            if expr.member == "push":
                pushed = self.parse_expr()
                self.expect("symbol", ")")
                self.expect("symbol", ";")
                return PushStmt(expr.base, pushed, line)
            self.expect("symbol", ")")
            self.expect("symbol", ";")
            return PopStmt(expr.base, line)
        self._reject(expected="'=' or ';'")

    def parse_tuple_assign(self) -> Stmt | None:
        """`(a, b) = (c, d);`, or None and no token taken for a statement
        such as `(p).xs.push(1);`."""
        start = self.pos
        line = self.next()[2]
        lhs = [self.parse_expr()]
        while self.accept(","):
            lhs.append(self.parse_expr())
        self.expect("symbol", ")")
        if len(lhs) == 1 and self.tok[1] in (".", "["):
            self.pos = start
            self.tok = self.tokens[start]
            return None
        self.expect("symbol", "=")
        self.expect("symbol", "(")
        rhs = [self.parse_expr()]
        while self.accept(","):
            rhs.append(self.parse_expr())
        self.expect("symbol", ")")
        self.expect("symbol", ";")
        return AssignStmt(lhs, rhs, True, line)

    def parse_decl(self) -> Stmt:
        line = self.tok[2]
        ty, data_loc = self.parse_located_type()
        name = self.expect("ident")[1]
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect("symbol", ";")
        return DeclStmt(ty, data_loc, name, init, line)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Expr:
        cond = self.parse_binary(1)
        if self.tok[1] == "?":
            self.next()
            then = self.parse_expr()
            self.expect("symbol", ":")
            other = self.parse_expr()
            return CondExpr(cond, then, other, cond.line, cond.col)
        return cond

    def parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing: an operand, then every operator that binds
        at least `min_prec`. Its right operand takes only tighter
        operators, so equal levels group to the left."""
        left = self.parse_operand()
        while True:
            _, op, line, col = self.tok
            if op not in _BINARY_PREC or _BINARY_PREC[op] < min_prec:
                return left
            self.pos += 1
            self.tok = self.tokens[self.pos]
            right = self.parse_binary(_BINARY_PREC[op] + 1)
            left = BinExpr(op, left, right, line, col)

    def parse_operand(self) -> Expr:
        """Prefix `!` and `-`, a primary, then its `.member` and `[index]`
        suffixes. Identifiers and numbers, the common primaries, are read
        here; the rest in `parse_primary`."""
        kind, value, line, col = self.tok
        if kind == "ident":
            if value in UNSUPPORTED_KEYWORDS:
                self._check_unsupported()
            self.pos += 1
            self.tok = self.tokens[self.pos]
            if self.tok[1] == "(":
                expr: Expr = self.parse_struct_ctor(value, line, col)
            else:
                expr = IdentExpr(value, None, line, col)
        elif kind == "number":
            self.pos += 1
            self.tok = self.tokens[self.pos]
            expr = IntLitExpr(int(value), line, col)
        elif value in _PREFIX:
            if value == "!" or value == "-":
                self.pos += 1
                self.tok = self.tokens[self.pos]
                return UnExpr(value, self.parse_operand(), line, col)
            raise UnsupportedError(f"unsupported: operator {value}", line, col)
        else:
            expr = self.parse_primary()
        while True:
            value = self.tok[1]
            if value == ".":
                self.pos += 1
                tok = self.tok = self.tokens[self.pos]
                if tok[0] != "ident":
                    self._reject(expected="ident")
                self.pos += 1
                self.tok = self.tokens[self.pos]
                expr = MemberExpr(expr, tok[1], expr.line, expr.col)
            elif value == "[":
                self.pos += 1
                self.tok = self.tokens[self.pos]
                index = self.parse_expr()
                if self.tok[1] != "]":
                    self._reject(expected="]")
                self.pos += 1
                self.tok = self.tokens[self.pos]
                expr = IndexExpr(expr, index, expr.line, expr.col)
            else:
                return expr

    def parse_struct_ctor(self, name: str, line: int, col: int) -> Expr:
        self.next()
        args: list[Expr] = []
        while self.tok[1] != ")":
            if args:
                self.expect("symbol", ",")
            args.append(self.parse_expr())
        self.next()
        return StructCtorExpr(name, args, line, col)

    def parse_primary(self) -> Expr:
        """A primary other than an identifier or a number."""
        _, value, line, col = self.tok
        if value == "true" or value == "false":
            self.next()
            return BoolLitExpr(value == "true", line, col)
        if value == "new":
            self.next()
            elem = self.parse_type()
            if not isinstance(elem, DynArrayType):
                raise ParseError("new is only supported for dynamic arrays: new T[](n)", line, col)
            self.expect("symbol", "(")
            length = self.parse_expr()
            self.expect("symbol", ")")
            return NewArrayExpr(elem.base, length, line, col)
        if value == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("symbol", ")")
            return inner
        self._reject(expected="expression")


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
