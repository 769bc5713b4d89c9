"""Per-assert SMT-LIB scripts assembled from text printed once per program.

`vc_gen` builds a program's conjuncts once and `emit_smtlib` prints each
conjunct once, keeping the text on the program. The scripts must not
depend on the order or the number of emissions, must follow changes to
the program's statements, and must stay within the interpreter's frame
budget on long programs. A VC too deep to print is an `error`, exit 2.
The header of datatypes and declarations is kept the same way and must
follow `declare` and `add_datatype`. Every VC of a program extends one
shared prefix chain of conjunctions and prints as if built from scratch.
"""

import subprocess
import sys
from pathlib import Path

from solmem import ir
from solmem.ir import Assert, Assign, Assume, Ident, IntLit, SmtProgram
from solmem.normalize import normalize_lhs
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.smtlib import emit_smtlib
from solmem.ssa import to_ssa
from solmem.translate import translate_function
from solmem.vcgen import frame_formula, vc_gen

SRC = Path(__file__).parent.parent / "src"


def stress_source(size: int, assert_every: int) -> str:
    """Straight-line constructor `a[i%7] = a[(i+1)%7] + i;` that asserts
    the cell just written every `assert_every` statements and once more at
    the end, the shape of the benchmark's stress workload."""
    cells = [0] * 7
    body = []
    for i in range(size):
        cells[i % 7] = cells[(i + 1) % 7] + i
        body.append(f"a[{i % 7}] = a[{(i + 1) % 7}] + {i};")
        if assert_every and (i + 1) % assert_every == 0:
            body.append(f"assert(a[{i % 7}] == {cells[i % 7]});")
    body.append(f"assert(a[{(size - 1) % 7}] == {cells[(size - 1) % 7]});")
    return "contract Stress { int[7] a; constructor() {\n" + "\n".join(body) + "\n} }\n"


def _constructor(source: str) -> tuple[SmtProgram, int]:
    """The constructor's SSA program and its number of asserts."""
    contract = resolve_and_check(parse_source(source))
    tf = translate_function(contract, contract.constructor)
    return to_ssa(normalize_lhs(tf.program)).program, len(tf.asserts)


def _fresh(program: SmtProgram) -> SmtProgram:
    """The same program with nothing built or printed yet."""
    return SmtProgram(dict(program.datatypes), dict(program.decls), list(program.stmts))


def _script(program: SmtProgram, index: int) -> str:
    return emit_smtlib(program, vc_gen(program, index))


def test_scripts_do_not_depend_on_emission_order_or_repeats():
    program, count = _constructor(stress_source(300, 25))
    assert count == 13
    alone = [_script(_fresh(program), i) for i in range(count)]
    forward = [_script(program, i) for i in range(count)]
    again = [_script(program, i) for i in range(count)]
    backward_program = _fresh(program)
    backward = [_script(backward_program, i) for i in reversed(range(count))][::-1]
    assert forward == again == backward == alone


def test_scripts_follow_new_and_replaced_statements():
    program, count = _constructor(stress_source(60, 20))
    for i in range(count):
        _script(program, i)
    program.stmts.append(Assert(ir.eq(Ident("x"), IntLit(2))))
    program.declare("x", ir.INT)
    assert [_script(program, i) for i in range(count + 1)] == [
        _script(_fresh(program), i) for i in range(count + 1)
    ]
    first = next(k for k, s in enumerate(program.stmts) if isinstance(s, Assign))
    program.stmts[first] = Assign(program.stmts[first].lhs, ir.ConstArray(ir.INT, ir.INT, IntLit(7)))
    assert [_script(program, i) for i in range(count + 1)] == [
        _script(_fresh(program), i) for i in range(count + 1)
    ]


def test_header_follows_new_declarations_and_datatypes():
    program, count = _constructor(stress_source(60, 20))
    first = _script(program, 0)
    assert "(declare-const fresh_var Int)" not in first
    program.declare("fresh_var", ir.INT)
    assert "(declare-const fresh_var Int)\n" in _script(program, 0)
    program.add_datatype(ir.DatatypeDef("Fresh_T", (("m", ir.INT),)))
    script = _script(program, 0)
    assert "(Fresh_T 0)" in script and "(Fresh_T.m Int)" in script
    assert script == _script(_fresh(program), 0)
    assert _fresh(program).header is None and program.copy_shell().header is None


def test_700_statement_constructor_prints_every_script():
    program, count = _constructor(stress_source(700, 25))
    scripts = [_script(program, i) for i in range(count)]
    assert len(scripts) == 29
    assert all(s.endswith("(check-sat)\n(get-model)\n") for s in scripts)


def _reference_vc(program: SmtProgram, index: int) -> ir.IrExpr:
    """The VC built from scratch: every definition, assumption and assert
    condition before the target, conjoined left-nested, and the negated
    target."""
    parts, positions = [], []
    for s in program.stmts:
        if isinstance(s, Assign):
            parts.append(ir.eq(s.lhs, s.rhs))
        else:
            if isinstance(s, Assert):
                positions.append(len(parts))
            parts.append(s.cond)
    pos = positions[index]
    return ir.conjoin(parts[:pos] + [ir.not_(parts[pos])])


def _left_spine(e: ir.IrExpr):
    while isinstance(e, ir.BinOp) and e.op == "and":
        yield e
        e = e.left
    yield e


def test_vcs_share_one_prefix_chain(monkeypatch):
    program, count = _constructor(stress_source(700, 25))
    assert count == 29
    vcs = [vc_gen(program, i) for i in range(count)]
    for vc, later in zip(vcs, vcs[1:]):
        assert any(node is vc.left for node in _left_spine(later.left))
    reference = _fresh(program)
    assert [emit_smtlib(program, vc) for vc in vcs] == [
        emit_smtlib(reference, _reference_vc(reference, i)) for i in range(count)
    ]

    built = []

    class CountedBinOp(ir.BinOp):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    class CountedUnOp(ir.UnOp):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(ir, "BinOp", CountedBinOp)
    monkeypatch.setattr(ir, "UnOp", CountedUnOp)
    counted = _fresh(program)
    for i in range(count):
        vc_gen(counted, i)
    parts = {id(part) for part in counted.conjuncts[1]}
    # besides the definitional equalities, which are the conjuncts themselves
    assert len([n for n in built if id(n) not in parts]) <= len(parts) + 2 * count


def test_frame_formula_keeps_definitions_and_assumptions_in_order():
    p = SmtProgram(decls={"x": ir.INT, "y": ir.INT})
    define, assume = Assign(Ident("x"), IntLit(1)), Assume(ir.lt(Ident("y"), IntLit(3)))
    p.stmts = [define, Assert(ir.eq(Ident("x"), IntLit(1))), assume]
    expected = ir.conjoin([
        ir.eq(Ident("x"), IntLit(1)),
        assume.cond,
        ir.not_(ir.eq(Ident("x"), Ident("y"))),
    ])
    assert frame_formula(p, "x", "y") == expected
    assert vc_gen(p, 0) == ir.and_(ir.eq(Ident("x"), IntLit(1)), ir.not_(p.stmts[1].cond))


def test_verify_reports_a_vc_too_deep_to_print_as_error(tmp_path):
    path = tmp_path / "deep.sol"
    path.write_text(stress_source(1000, 0))
    env = {"PATH": "", "PYTHONPATH": str(SRC)}  # no solver: the one assert fails before any query
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", "verify", str(path)], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count(": error ") == 1
    assert "RecursionError" in proc.stdout
