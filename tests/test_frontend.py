"""Lexer, parser, resolver: fragment coverage, annotations, round-trips."""

import shlex
import subprocess
import sys

import pytest
from pathlib import Path

from sources import DATA_STORAGE, POINTER_CONTRACT, TUPLE_SWAP
from srcprint import to_source
from solmem import verify
from solmem.errors import ParseError, ResolveError, UnsupportedError
from solmem.generator import random_program
from solmem.ireval import eval_ir
from solmem.lexer import tokenize
from solmem.oracle import run_constructor
from solmem.parser import parse_source, parse_statement
from solmem.records import Record
from solmem.resolver import resolve_and_check
from solmem.sol_ast import (
    BOOL,
    INT,
    BinExpr,
    DeclStmt,
    DynArrayType,
    Loc,
    MappingType,
    StructType,
    expr_to_source,
)
from solmem.translate import translate_function

ROOT = Path(__file__).resolve().parent.parent


def compile_source(text):
    return resolve_and_check(parse_source(text))


# ---------------------------------------------------------------------------
# lexer


def test_tokenize_symbols_and_keywords():
    toks = tokenize("mapping(address => int) m; a[1] >= b != !c")
    kinds = [t[:2] for t in toks]
    assert ("keyword", "mapping") in kinds
    assert ("symbol", "=>") in kinds
    assert ("symbol", ">=") in kinds
    assert ("symbol", "!=") in kinds
    assert kinds[-1] == ("eof", "")


def test_tokenize_positions_and_comments():
    toks = tokenize("// comment\n  x /* multi\nline */ y")
    assert [t[1:3] for t in toks[:2]] == [("x", 2), ("y", 3)]


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


@pytest.mark.parametrize("header, what, unnamed", [
    ("f(int)", "parameters", "int)"),
    ("f(int, int)", "parameters", "int, int"),
    ("f(int x, int[] memory) returns (int y)", "parameters", "int[] memory"),
    ("f() returns (int)", "return values", "int)"),
])
def test_unnamed_parameters_are_rejected_at_their_type(header, what, unnamed):
    src = f"contract C {{ int x; function {header} {{ assert(x == 1); }} }}"
    with pytest.raises(ParseError) as e:
        parse_source(src)
    assert (e.value.message, e.value.line, e.value.col) == (
        f"{what} must be named in this fragment", 1, src.index(unnamed) + 1)


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


@pytest.mark.parametrize("version", ["^0.5.0", "~0.4.24", ">=0.4.22 <0.6.0", ">=0.4.22 <0.6.0 || ^0.7.0"])
def test_version_pragma_forms_are_ignored(version):
    c = parse_source(f"pragma solidity {version};\ncontract C {{ int x; }}")
    assert c.warnings == ["1: pragma directive ignored"]


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


def test_statements_that_start_with_a_parenthesized_expression():
    """`(e).m ...` and `(e)[i] ...` are expression statements, not tuple
    assignments; a write through a conditional is reported unsupported."""
    assert type(parse_statement("(u).push(4);")).__name__ == "PushStmt"
    assert type(parse_statement("(p).ys[0] = 1;")).__name__ == "AssignStmt"
    assert type(parse_statement("(a, b) = (b, a);")).__name__ == "AssignStmt"
    head = "contract C { struct S { int x; int[] ys; } S a; S b; int[] u; int[] v; constructor() { bool t = true; "
    for stmt in ["(t ? a : b).ys.push(1);", "(t ? a : b).x = 1;", "(t ? u : v)[0] = 1;", "(t ? a : b).ys.pop();",
                 "delete (t ? a : b).x;"]:
        with pytest.raises(UnsupportedError, match="unsupported: writing through a conditional expression"):
            compile_source(head + stmt + " } }")


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


def test_caret_and_tilde_are_operators_outside_the_fragment():
    """They lex, for version pragmas, but no expression takes them."""
    with pytest.raises(ParseError, match=r"^1:7: expected ;, found '\^'$"):
        parse_statement("x = a ^ b;")
    with pytest.raises(UnsupportedError, match=r"^1:5: unsupported: operator \^$"):
        parse_statement("x = ^ a;")
    with pytest.raises(UnsupportedError, match=r"^1:5: unsupported: operator ~$"):
        parse_statement("x = ~a;")


def _deep_source(rhs: str) -> str:
    """A constructor assigning `rhs` to `x`, then asserting `x == 1`."""
    return f"contract C {{\n    int x;\n    constructor() {{\n        x = {rhs};\n        assert(x == 1);\n    }}\n}}\n"


def _verify_nested(tmp_path, rhs):
    """`solmem verify` on `_deep_source(rhs)`, with a stub solver that
    answers unsat; the process and the stub's launch log."""
    path, log = tmp_path / "deep.sol", tmp_path / "launches.log"
    path.write_text(_deep_source(rhs))
    stub = shlex.join([sys.executable, str(ROOT / "tests" / "stub_solver.py"), "unsat", str(log)])
    proc = subprocess.run(
        [sys.executable, "-m", "solmem.cli", "verify", str(path), "--solver-cmd", stub],
        cwd=ROOT, env={"PATH": "", "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    return proc, log


def _parenthesized(depth: int) -> str:
    return "(" * depth + "1" + ")" * depth


# A left-nested chain `1 + x + … + x` of 700 terms: the parser and the
# resolver walk its left spine with a loop, so it needs no frame per term.
LONG_SUM = " + ".join(["1"] + ["x"] * 699)


def _assert_reaches_the_solver(tmp_path, rhs):
    proc, log = _verify_nested(tmp_path, rhs)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "assert((x == 1)): verified" in proc.stdout
    assert log.exists()


def test_expression_150_parentheses_deep_reaches_the_solver(tmp_path):
    _assert_reaches_the_solver(tmp_path, _parenthesized(150))


def test_700_term_sum_reaches_the_solver(tmp_path):
    _assert_reaches_the_solver(tmp_path, LONG_SUM)


def test_700_term_sum_resolves():
    contract = resolve_and_check(parse_source(_deep_source(LONG_SUM)))
    e, terms = contract.constructor.body[0].rhs[0], 1
    while isinstance(e, BinExpr):
        assert e.ty == INT and e.right.ty == INT and e.right.name == "x"
        e, terms = e.left, terms + 1
    assert terms == 700 and e.ty == INT


def test_700_term_sum_runs_in_both_interpreters(tmp_path):
    """The ground truths evaluate what the verifier verifies: the oracle
    walks the chain's left spine with a loop, and `eval_ir` takes one
    frame per IR level."""
    source = _deep_source(LONG_SUM)
    contract = compile_source(source)
    assert [a.passed for a in run_constructor(contract).asserts] == [True]
    assert eval_ir(translate_function(contract, contract.constructor).program).status == "ok"
    path = tmp_path / "deep.sol"
    path.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "solmem.cli", "run", str(path)],
        cwd=ROOT, env={"PATH": "", "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"passed": true' in proc.stdout


def test_expression_too_deep_to_parse_is_an_error(tmp_path):
    proc, log = _verify_nested(tmp_path, _parenthesized(400))
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


def _tokens_without_parens(text):
    return [t[:2] for t in tokenize(text) if t[1] not in ("(", ")")]


def assert_print_roundtrip(src):
    """Printing the parse of `src`, reparsing and printing again gives the
    same text, so the reparse is the same tree; and the print has the
    source's tokens up to parentheses, which the printer puts around
    every operator application, so neither parse dropped a token."""
    printed = to_source(parse_source(src))
    assert to_source(parse_source(printed)) == printed
    assert _tokens_without_parens(printed) == _tokens_without_parens(src)


@pytest.mark.parametrize("src", [DATA_STORAGE, POINTER_CONTRACT, TUPLE_SWAP])
def test_print_parse_roundtrip(src):
    assert_print_roundtrip(src)


@pytest.mark.parametrize("seed", range(25))
def test_roundtrip_generated_corpus(seed):
    assert_print_roundtrip(random_program(seed, 8))


# ---------------------------------------------------------------------------
# resolver annotations


def test_data_storage_annotations():
    c = compile_source(DATA_STORAGE)
    append = c.function("append")
    r_decl = append.body[0]
    assert isinstance(r_decl, DeclStmt)
    assert r_decl.data_loc == "storage"
    # the pointer target is a storage entity
    assert (r_decl.init.ty, r_decl.init.loc) == (StructType("Record"), Loc.STORAGE)
    # records[at] base mapping annotation
    get = c.function("get")
    rhs = get.body[0].rhs[0]
    assert (rhs.ty, rhs.loc) == (DynArrayType(INT), Loc.STORAGE)
    assert rhs.base.base.ty == MappingType(
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
    assert (p_init.ty, p_init.loc) == (StructType("S"), Loc.STORAGE)
    q_init = f.body[1].init
    # member access on a pointer denotes a storage entity
    assert (q_init.ty, q_init.loc) == (StructType("T"), Loc.STORAGE)
    assert (q_init.base.ty, q_init.base.loc) == (StructType("S"), Loc.STORPTR)
    lhs = f.body[2].lhs[0]
    assert (lhs.ty, lhs.loc) == (INT, Loc.VALUE)


def test_literals_and_value_categories():
    c = compile_source("contract C { function f() { bool b = true; int x = -3; } }")
    f = c.function("f")
    assert (f.body[0].init.ty, f.body[0].init.loc) == (BOOL, Loc.VALUE)


def test_conditional_common_location():
    src = POINTER_CONTRACT.replace(
        "S[] ss;",
        "S[] ss;\n    function f(bool c) { T storage p = c ? t1 : s1.t; }",
    )
    c = compile_source(src)
    cond = c.function("f").body[0].init
    assert (cond.ty, cond.loc) == (StructType("T"), Loc.STORPTR)

    src2 = POINTER_CONTRACT.replace(
        "S[] ss;",
        "S[] ss;\n    function f(bool c, T memory m) { T memory p = c ? m : t1; }",
    )
    cond2 = compile_source(src2).function("f").body[0].init
    assert (cond2.ty, cond2.loc) == (StructType("T"), Loc.MEMORY)


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


def test_former_reserved_names_are_ordinary_identifiers():
    """Names like the translator's allocation counter, heaps and default
    contexts once were reserved. The translator's own names contain `$`
    now, so these stay as written, and the allocation below changes none
    of them."""
    src = """
contract C {
    int refcnt;
    constructor() {
        refcnt = 1;
        uint arrHeap_x = 2;
        int defaultctx_int = 3;
        int[] memory m = new int[](1);
        assert(refcnt == 1 && arrHeap_x == 2 && defaultctx_int == 3);
    }
}
"""
    c = compile_source(src)
    assert c.state_vars[0].name == "refcnt"
    assert [s.name for s in c.constructor.body[1:3]] == ["arrHeap_x", "defaultctx_int"]
    assert [a.passed for a in run_constructor(c).asserts] == [True]
    assert eval_ir(translate_function(c, c.constructor).program).status == "ok"


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
        ("contract C { function f() { } function f() { } }", "duplicate function f"),
        ("contract C { struct S { int x; } struct S { int y; } }", "duplicate struct S"),
        ("contract C { struct S { int x; int x; } }", "duplicate member S.x"),
        ("contract C { struct S { int length; } }", "member name length is reserved"),
        ("contract C { constructor() returns (int r) { } }", "constructors cannot have return values"),
        ("contract C { function f(int a, int a) { } }", "duplicate parameter a"),
        ("contract C { function f(int memory a) { } }", "data location not allowed"),
        ("contract C { mapping(int => int)[] ms; function f() { ms.push(1); } }", "mappings cannot be pushed"),
        ("contract C { int x; function f() { x.push(1); } }", "push requires a dynamic array"),
        ("contract C { function f() { int[] memory a = new int[](1); a.pop(); } }", "pop is not allowed on memory arrays"),
        ("contract C { mapping(int => int) m; function f() { delete m; } }", "delete cannot be applied to mappings"),
        ("contract C { int x; function f() { delete 1; } }", "not assignable"),
        ("contract C { int x; function f() { x = true; } }", "cannot assign bool to int"),
        ("contract C { int[] a; int[2] b; function f() { a = b; } }", r"cannot assign int\[2\] to int\[\]"),
        ("contract C { function f() { x = 1; } }", "unknown identifier x"),
        ("contract C { struct S { mapping(int => int) m; } S[] a; function f() { a = new S[](1); } }", "mappings cannot be in memory"),
        ("contract C { function f() { int[] memory a = new int[](true); } }", "array length must be an integer"),
        ("contract C { function f() { int x = S(1); } }", "unknown struct S"),
        ("contract C { struct S { mapping(int => int) m; } S s; function f() { s = S(1); } }", "mappings cannot be in memory"),
        ("contract C { struct S { int x; } function f() { S memory s = S(1, 2); } }", "S constructor takes 1 arguments, got 2"),
        ("contract C { function f() { bool b = !1; } }", "! requires a boolean operand"),
        ("contract C { function f() { int x = -true; } }", "unary - requires an integer operand"),
        ("contract C { int[] a; function f() { int x = a.size; } }", "arrays have no member size"),
        ("contract C { int x; function f() { int y = x.z; } }", "member access on non-struct type int"),
        ("contract C { struct S { int x; } S s; function f() { int y = s.z; } }", "struct S has no member z"),
        ("contract C { mapping(int => int) m; function f() { int y = m[true]; } }", "mapping key must be int"),
        ("contract C { int[] a; function f() { int y = a[true]; } }", "array index must be an integer"),
        ("contract C { int x; function f() { int y = x[0]; } }", "indexing into non-array type int"),
        ("contract C { function f() { int y = 1 ? 2 : 3; } }", "conditional guard must be boolean"),
        ("contract C { function f(bool c) { int y = c ? 1 : true; } }", "incompatible branches int / bool"),
        ("contract C { int[] a; int[2] b; function f(bool c) { int[] storage p = c ? a : b; } }", r"incompatible branches int\[\] / int\[2\]"),
        ("contract C { function f() { bool b = 1 && true; } }", "&& requires boolean operands"),
        ("contract C { function f() { int x = true + 1; } }", r"\+ requires integer operands"),
        ("contract C { function f() { bool b = true < 1; } }", "< requires integer operands"),
        ("contract C { int[] a; function f() { bool b = a == a; } }", "comparison requires compatible value types"),
    ]
    for src, match in cases:
        with pytest.raises(ResolveError, match=match):
            compile_source(src)


CORPUS = ROOT / "corpus"


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*/*.sol")), ids=lambda p: p.parent.name + "/" + p.name)
def test_roundtrip_corpus_files(path):
    assert_print_roundtrip(path.read_text())


def _walk_exprs(node):
    from solmem import sol_ast as sa

    if isinstance(node, sa.Expr):
        yield node
    for field_name in node._fields:
        value = getattr(node, field_name)
        items = value if isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, Record):
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
