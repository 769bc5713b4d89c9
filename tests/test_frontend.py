"""Lexer, parser, resolver: fragment coverage, annotations, round-trips."""

import shlex
import subprocess
import sys

import pytest
from pathlib import Path

from sources import DATA_STORAGE, POINTER_CONTRACT, TUPLE_SWAP
from solmem import verify
from solmem.errors import ParseError, ResolveError, UnsupportedError
from solmem.generator import random_program
from solmem.lexer import tokenize
from solmem.parser import parse_source, parse_statement
from solmem.printer import expr_to_source, signature, to_source
from solmem.resolver import resolve_and_check
from solmem.sol_ast import (
    BOOL,
    INT,
    DeclStmt,
    DynArrayType,
    Loc,
    MappingType,
    StructType,
    type_of,
)

ROOT = Path(__file__).resolve().parent.parent


def compile_source(text):
    return resolve_and_check(parse_source(text))


# ---------------------------------------------------------------------------
# lexer


def test_tokenize_symbols_and_keywords():
    toks = tokenize("mapping(address => int) m; a[1] >= b != !c")
    kinds = [(t.kind, t.value) for t in toks]
    assert ("keyword", "mapping") in kinds
    assert ("symbol", "=>") in kinds
    assert ("symbol", ">=") in kinds
    assert ("symbol", "!=") in kinds
    assert kinds[-1] == ("eof", "")


def test_tokenize_positions_and_comments():
    toks = tokenize("// comment\n  x /* multi\nline */ y")
    assert [(t.value, t.line) for t in toks[:2]] == [("x", 2), ("y", 3)]


def test_tokenize_rejects_garbage():
    with pytest.raises(ParseError):
        tokenize("int x = `3`;")


# ---------------------------------------------------------------------------
# parser


def test_minimal_contract():
    c = parse_source("contract C { int x; }")
    assert c.name == "C"
    assert len(c.state_vars) == 1
    assert c.state_vars[0].name == "x" and c.state_vars[0].ty == INT


def test_data_storage_shape():
    c = parse_source(DATA_STORAGE)
    assert len(c.structs) == 1
    assert len(c.state_vars) == 1
    assert [f.name for f in c.functions] == ["append", "isset", "get"]
    assert c.constructor is None


def test_missing_data_location_is_an_error():
    src = "contract C { int[] x; function f() { int[] y; } }"
    with pytest.raises(ResolveError, match="data location required"):
        compile_source(src)


def test_unsupported_constructs_are_reported_not_skipped():
    for snippet, what in [
        ("contract C { function f() { for (;;) {} } }", "loops"),
        ("contract C { function f() { while (true) {} } }", "loops"),
        ("contract C { function f() { if (true) {} } }", "if statement"),
        ("contract C { function f() returns (int r) { return 1; } }", "return"),
        ("contract C is B { }", "inheritance"),
    ]:
        with pytest.raises(UnsupportedError, match=what):
            compile_source(snippet)


def test_pragma_ignored_with_warning():
    c = parse_source("pragma solidity >=0.5.0;\ncontract C { int x; }")
    assert any("pragma" in w for w in c.warnings)


def test_modifiers_ignored_with_warning():
    c = parse_source("contract C { function f() public view returns (int r) { r = 1; } }")
    assert len(c.warnings) == 2


def test_tuple_and_push_pop_statements():
    c = parse_source(TUPLE_SWAP)
    fn = c.functions[0]
    assert any(getattr(s, "tuple_form", False) for s in fn.body)
    c2 = parse_source("contract C { int[] a; function f() { a.push(1); a.pop(); } }")
    names = [type(s).__name__ for s in c2.functions[0].body]
    assert names == ["PushStmt", "PopStmt"]


def test_parse_statement_takes_exactly_one_at_its_file_position():
    stmt = parse_statement("a[1] = b + 2;", line=12, col=9)
    assert type(stmt).__name__ == "AssignStmt"
    assert stmt.line == 12 and (stmt.rhs[0].line, stmt.rhs[0].col) == (12, 18)
    with pytest.raises(ParseError, match="12:16: expected eof"):
        parse_statement("x = 1; y = 2;", line=12, col=9)
    with pytest.raises(ParseError, match="3:6: expected ;"):
        parse_statement("x = 1", line=3)


@pytest.mark.parametrize("expr, grouped, col", [
    ("a - b - c", "((a - b) - c)", 11),
    ("a - b + c", "((a - b) + c)", 11),
    ("a || b && c", "(a || (b && c))", 7),
    ("a == b < c", "(a == (b < c))", 7),
    ("!a == b", "((!a) == b)", 8),
    ("-a + b", "((-a) + b)", 8),
    ("x ? y : z ? w : v", "(x ? y : (z ? w : v))", 5),
])
def test_operator_precedence_and_associativity(expr, grouped, col):
    rhs = parse_statement(f"x = {expr};").rhs[0]
    assert expr_to_source(rhs) == grouped
    assert (rhs.line, rhs.col) == (1, col)  # the loosest operator's token


def test_multiplicative_operators_are_rejected_where_they_stand():
    with pytest.raises(ParseError, match=r"^1:3: expected '=' or ';', found '\*'$"):
        parse_statement("a * b;")
    with pytest.raises(ParseError, match=r"^1:7: expected ;, found '%'$"):
        parse_statement("x = a % b;")
    with pytest.raises(UnsupportedError, match=r"^1:1: unsupported: operator \*$"):
        parse_statement("* a;")
    with pytest.raises(UnsupportedError, match=r"^1:5: unsupported: operator /$"):
        parse_statement("x = / a;")


def _verify_nested(tmp_path, depth):
    """`solmem verify` on a constructor assigning `1` inside `depth`
    parentheses, with a stub solver that answers unsat; the process and
    the stub's launch log."""
    path, log = tmp_path / "deep.sol", tmp_path / "launches.log"
    path.write_text(
        "contract C {\n    int x;\n    constructor() {\n"
        f"        x = {'(' * depth}1{')' * depth};\n        assert(x == 1);\n    }}\n}}\n"
    )
    stub = shlex.join([sys.executable, str(ROOT / "tests" / "stub_solver.py"), "unsat", str(log)])
    proc = subprocess.run(
        [sys.executable, "-m", "solmem.cli", "verify", str(path), "--solver-cmd", stub],
        cwd=ROOT, env={"PATH": "", "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    return proc, log


def test_expression_150_parentheses_deep_reaches_the_solver(tmp_path):
    proc, log = _verify_nested(tmp_path, 150)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "assert((x == 1)): verified" in proc.stdout
    assert log.exists()


def test_expression_too_deep_to_parse_is_an_error(tmp_path):
    proc, log = _verify_nested(tmp_path, 400)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout.endswith(": error: source nested too deeply to parse and resolve (RecursionError)\n")
    assert proc.stdout.count("\n") == 1
    assert not log.exists()


def test_translation_too_deep_is_an_error(monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(verify, "translate_function", too_deep)
    report = verify.verify_source("contract C { int x; constructor() { x = 1; assert(x == 1); } }")
    assert report.error == "constructor: expression nested too deeply to translate (RecursionError)"
    assert report.exit_code() == 2


def test_new_array_only_dynamic():
    with pytest.raises(ParseError):
        parse_source("contract C { function f() { int[3] memory m = new int[3](); } }")


# round-trip: printing a parse tree and reparsing yields the same tree
@pytest.mark.parametrize("src", [DATA_STORAGE, POINTER_CONTRACT, TUPLE_SWAP])
def test_print_parse_roundtrip(src):
    tree = parse_source(src)
    printed = to_source(tree)
    assert signature(parse_source(printed)) == signature(tree)


@pytest.mark.parametrize("seed", range(25))
def test_roundtrip_generated_corpus(seed):
    src = random_program(seed, 8)
    tree = parse_source(src)
    printed = to_source(tree)
    assert signature(parse_source(printed)) == signature(tree)


# ---------------------------------------------------------------------------
# resolver annotations


def test_data_storage_annotations():
    c = compile_source(DATA_STORAGE)
    append = c.function("append")
    r_decl = append.body[0]
    assert isinstance(r_decl, DeclStmt)
    assert r_decl.data_loc == "storage"
    # the pointer target is a storage entity
    assert type_of(r_decl.init) == (StructType("Record"), Loc.STORAGE)
    # records[at] base mapping annotation
    get = c.function("get")
    rhs = get.body[0].rhs[0]
    assert type_of(rhs) == (DynArrayType(INT), Loc.STORAGE)
    assert type_of(rhs.base.base)[0] == MappingType(
        c.state_vars[0].ty.key, StructType("Record")
    )
    ret = get.returns[0]
    assert ret.loc == Loc.MEMORY


def test_pointer_variable_is_storptr_and_member_is_storage():
    c = compile_source(
        POINTER_CONTRACT.replace(
            "S[] ss;",
            "S[] ss;\n    function f() { S storage p = s1; T storage q = p.t; p.x = 1; }",
        )
    )
    f = c.function("f")
    p_init = f.body[0].init
    assert type_of(p_init) == (StructType("S"), Loc.STORAGE)
    q_init = f.body[1].init
    # member access on a pointer denotes a storage entity
    assert type_of(q_init) == (StructType("T"), Loc.STORAGE)
    assert type_of(q_init.base) == (StructType("S"), Loc.STORPTR)
    lhs = f.body[2].lhs[0]
    assert type_of(lhs) == (INT, Loc.VALUE)


def test_literals_and_value_categories():
    c = compile_source("contract C { function f() { bool b = true; int x = -3; } }")
    f = c.function("f")
    assert type_of(f.body[0].init) == (BOOL, Loc.VALUE)


def test_conditional_common_location():
    src = POINTER_CONTRACT.replace(
        "S[] ss;",
        "S[] ss;\n    function f(bool c) { T storage p = c ? t1 : s1.t; }",
    )
    c = compile_source(src)
    cond = c.function("f").body[0].init
    assert type_of(cond) == (StructType("T"), Loc.STORPTR)

    src2 = POINTER_CONTRACT.replace(
        "S[] ss;",
        "S[] ss;\n    function f(bool c, T memory m) { T memory p = c ? m : t1; }",
    )
    cond2 = compile_source(src2).function("f").body[0].init
    assert type_of(cond2) == (StructType("T"), Loc.MEMORY)


def test_alpha_renaming_is_injective():
    src = """
contract C {
    int x;
    function f(int y) { int x = 1; int z = x + y; }
    function g(int y) { int x = 2; int z = x; }
}
"""
    c = compile_source(src)
    names = []
    for fn in c.functions:
        names.extend(p.name for p in fn.params)
        names.extend(s.name for s in fn.body if isinstance(s, DeclStmt))
    assert len(names) == len(set(names))
    # locals shadowing the state variable were renamed away from it
    assert names.count("x") == 0
    # state variable reads keep the original name
    g = c.function("g")
    assert g.body[1].init.name != "x"


def test_resolver_errors():
    cases = [
        ("contract C { struct S { S s; } S v; }", "recursive struct"),
        ("contract C { mapping(int[] => int) m; }", "mapping keys"),
        ("contract C { int x; int x; }", "duplicate state variable"),
        ("contract C { function f() { S storage p = s; } }", "unknown"),
        ("contract C { struct S { int x; } function f() { S storage p; } }", "initialized"),
        ("contract C { struct S { mapping(int => int) m; } function f() { S memory v; } }", "memory"),
        ("contract C { int[] a; function f() { a.length = 3; } }", "read-only"),
        ("contract C { int[3] a; function f() { a.push(1); } }", "fixed-size"),
        ("contract C { int[] a; function f() { (a[0], a[1]) = (1, 2, 3); } }", "arity"),
        ("contract C { mapping(int => int) m; mapping(int => int) n; function f() { m = n; } }", "assigned"),
        ("contract C { struct S { int x; } S s; function f(S memory v) { S storage p = s; p = v; } }", "storage pointer"),
        ("contract C { struct S { int x; } S s; function f() { S storage p = s; delete p; } }", "storage pointer"),
        ("contract C { struct S { int x; } S s; function f() returns (S storage r) { r = s; } }", "unsupported"),
        ("contract C { function f() { assert(1); } }", "boolean"),
        ("contract C { int refcnt; }", "reserved"),
    ]
    for src, match in cases:
        with pytest.raises(ResolveError, match=match):
            compile_source(src)


def test_type_of_requires_resolution():
    c = parse_source("contract C { function f() { int x = 1; } }")
    with pytest.raises(ValueError):
        type_of(c.functions[0].body[0].init)


CORPUS = ROOT / "corpus"


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.sol")), ids=lambda p: p.parent.name + "/" + p.name)
def test_roundtrip_corpus_files(path):
    tree = parse_source(path.read_text())
    assert signature(parse_source(to_source(tree))) == signature(tree)


def _walk_exprs(node):
    from solmem import sol_ast as sa

    if isinstance(node, sa.Expr):
        yield node
    for field_name in getattr(node, "__dataclass_fields__", {}):
        value = getattr(node, field_name)
        items = value if isinstance(value, list) else [value]
        for item in items:
            if hasattr(item, "__dataclass_fields__"):
                yield from _walk_exprs(item)


@pytest.mark.parametrize("seed", range(10))
def test_every_expression_annotated_and_categories_consistent(seed):
    from solmem.sol_ast import is_value_type

    c = compile_source(random_program(seed, 8))
    count = 0
    for fn in c.all_functions():
        for stmt in fn.body:
            for e in _walk_exprs(stmt):
                assert e.ty is not None and e.loc is not None, e
                if is_value_type(e.ty):
                    assert e.loc == Loc.VALUE
                else:
                    assert e.loc != Loc.VALUE
                count += 1
    assert count > 0
