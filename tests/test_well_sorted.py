"""Every translated SSA program is well-sorted, checked without a solver
by the sort inference of `irsorts`: the pinned programs of `sources`
without and with `unroll=2`, and a pointer re-packed through a
`mapping(bool => ...)`."""

import pytest

import sources
from irsorts import SortError, check_program
from solmem import ir
from solmem.ir import (
    ArrayRead,
    ArrayType,
    ArrayWrite,
    Assert,
    Assign,
    BinOp,
    BoolLit,
    Construct,
    DatatypeDef,
    DatatypeType,
    Ident,
    IntLit,
    Ite,
    Select,
    SmtProgram,
    UnOp,
)

# the re-packed path of `p.t` copies the key element of `p`, which is
# already 0/1-encoded, so it must not be encoded again
BOOL_KEY_REPACK = """
contract C {
    struct T { int z; }
    struct S { int x; T t; }
    mapping(bool => S) m;
    constructor() {
        S storage p = m[true];
        T storage q = p.t;
        q.z = 3;
        assert(m[true].t.z == 3);
        assert(m[false].t.z == 0);
    }
}
"""


def test_golden_inputs_are_well_sorted():
    checked = 0
    for name, source in sources.pinned():
        for unroll in (None, 2):
            for _, fn, program in sources.translated(source, unroll):
                try:
                    check_program(program)
                except SortError as e:
                    pytest.fail(f"{name} {fn.name} unroll={unroll}: {e}")
                checked += 1
    assert checked == 200


def test_bool_key_repack_is_well_sorted():
    [(_, _, program)] = sources.translated(BOOL_KEY_REPACK)
    check_program(program)


def _program() -> SmtProgram:
    p = SmtProgram(decls={"i": ir.INT, "b": ir.BOOL, "a": ArrayType(ir.INT, ir.INT), "s": DatatypeType("S")})
    p.add_datatype(DatatypeDef("S", (("x", ir.INT),)))
    p.add_datatype(DatatypeDef("R", (("x", ir.INT),)))
    return p


# keyed by test id: fixed labels, not printed terms, so that a change to
# how terms print renames no test
ILL_SORTED = {
    "ite(i, 1, 0)": Ite(Ident("i"), IntLit(1), IntLit(0)),
    "ite(b, 1, false)": Ite(Ident("b"), IntLit(1), BoolLit(False)),
    "a[b]": ArrayRead(Ident("a"), Ident("b")),
    "i[0]": ArrayRead(Ident("i"), IntLit(0)),
    "a[0 <- b]": ArrayWrite(Ident("a"), IntLit(0), Ident("b")),
    "(i == b)": BinOp("==", Ident("i"), Ident("b")),
    "(i + b)": BinOp("+", Ident("i"), Ident("b")),
    "(s < i)": BinOp("<", Ident("s"), Ident("i")),
    "(-b)": UnOp("neg", Ident("b")),
    "(b and i)": BinOp("and", Ident("b"), Ident("i")),
    "(!i)": UnOp("not", Ident("i")),
    "s.x": Select(Ident("s"), "x", "R"),
    "s.y": Select(Ident("s"), "y", "S"),
    "S(b)": Construct("S", (Ident("b"),)),
    "undeclared": Ident("undeclared"),
}


@pytest.mark.parametrize("term", ILL_SORTED.values(), ids=ILL_SORTED)
def test_sort_check_rejects_ill_sorted_terms(term):
    p = _program()
    p.stmts = [Assert(BinOp("==", term, term))]
    with pytest.raises(SortError):
        check_program(p)


def test_sort_check_accepts_and_checks_statements():
    p = _program()
    p.stmts = [
        Assign(Ident("i"), Select(Construct("S", (IntLit(1),)), "x", "S")),
        Assert(Ite(Ident("b"), BinOp(">=", ArrayRead(Ident("a"), Ident("i")), IntLit(0)), BoolLit(True))),
    ]
    check_program(p)
    p.stmts.append(Assign(Ident("b"), Ident("i")))
    with pytest.raises(SortError):
        check_program(p)
    p.stmts[-1] = Assert(Ident("i"))
    with pytest.raises(SortError):
        check_program(p)


def test_sort_errors_print_terms_and_sorts_in_smtlib():
    p = _program()
    p.stmts = [Assign(Ident("i"), ArrayWrite(Ident("a"), IntLit(0), Ident("b")))]
    with pytest.raises(SortError, match=r"^stored value of \(store a 0 b\) is Bool, expected Int$"):
        check_program(p)
    p.stmts = [Assign(Ident("i"), ArrayRead(Ident("s"), IntLit(0)))]
    with pytest.raises(SortError, match=r"^array of \(select s 0\) has sort S$"):
        check_program(p)
    p.stmts = [Assign(Ident("a"), Ident("i"))]
    with pytest.raises(SortError, match=r"^assigned value of i is Int, expected \(Array Int Int\)$"):
        check_program(p)
