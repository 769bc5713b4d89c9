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

from irgen import conjoin, frame_formula
from sources import checked_stress_source, compile_source
from solmem import ir, vcgen
from solmem.ir import Assert, Assign, Assume, Ident, IntLit, SmtProgram
from solmem.smtlib import emit_smtlib
from solmem.translate import translate_function
from solmem.vcgen import vc_gen
from solmem.verify import ssa_form, vc_script

SRC = Path(__file__).parent.parent / "src"


def _constructor(source: str) -> tuple[SmtProgram, int]:
    """The constructor's SSA program and its number of asserts."""
    contract = compile_source(source)
    tf = translate_function(contract, contract.constructor)
    return ssa_form(tf.program).program, len(tf.asserts)


def _fresh(program: SmtProgram) -> SmtProgram:
    """The same program with nothing built or printed yet."""
    return SmtProgram(dict(program.datatypes), dict(program.decls), list(program.stmts))


def test_scripts_do_not_depend_on_emission_order_or_repeats():
    program, count = _constructor(checked_stress_source(300, 25))
    assert count == 13
    alone = [vc_script(_fresh(program), i) for i in range(count)]
    forward = [vc_script(program, i) for i in range(count)]
    again = [vc_script(program, i) for i in range(count)]
    backward_program = _fresh(program)
    backward = [vc_script(backward_program, i) for i in reversed(range(count))][::-1]
    assert forward == again == backward == alone


def test_scripts_follow_new_and_replaced_statements():
    program, count = _constructor(checked_stress_source(60, 20))
    for i in range(count):
        vc_script(program, i)
    program.stmts.append(Assert(ir.BinOp("==", Ident("x"), IntLit(2))))
    program.declare("x", ir.INT)
    assert [vc_script(program, i) for i in range(count + 1)] == [
        vc_script(_fresh(program), i) for i in range(count + 1)
    ]
    first = next(k for k, s in enumerate(program.stmts) if isinstance(s, Assign))
    program.stmts[first] = Assign(program.stmts[first].lhs, ir.ConstArray(ir.INT, ir.INT, IntLit(7)))
    assert [vc_script(program, i) for i in range(count + 1)] == [
        vc_script(_fresh(program), i) for i in range(count + 1)
    ]


def test_header_follows_new_declarations_and_datatypes():
    program, count = _constructor(checked_stress_source(60, 20))
    first = vc_script(program, 0)
    assert "(declare-const fresh_var Int)" not in first
    program.declare("fresh_var", ir.INT)
    assert "(declare-const fresh_var Int)\n" in vc_script(program, 0)
    program.add_datatype(ir.DatatypeDef("Fresh_T", (("m", ir.INT),)))
    script = vc_script(program, 0)
    assert "(Fresh_T 0)" in script and "(Fresh_T.m Int)" in script
    assert script == vc_script(_fresh(program), 0)
    assert _fresh(program).header is None and program.copy_shell().header is None


def test_700_statement_constructor_prints_every_script():
    program, count = _constructor(checked_stress_source(700, 25))
    scripts = [vc_script(program, i) for i in range(count)]
    assert len(scripts) == 29
    assert all(s.endswith("(check-sat)\n(get-model)\n") for s in scripts)


def _reference_vc(program: SmtProgram, index: int) -> ir.IrExpr:
    """The VC built from scratch: every definition, assumption and assert
    condition before the target, conjoined left-nested, and the negated
    target."""
    parts, positions = [], []
    for s in program.stmts:
        if isinstance(s, Assign):
            parts.append(ir.BinOp("==", s.lhs, s.rhs))
        else:
            if isinstance(s, Assert):
                positions.append(len(parts))
            parts.append(s.cond)
    pos = positions[index]
    return conjoin(parts[:pos] + [ir.UnOp("not", parts[pos])])


def _left_spine(e: ir.IrExpr):
    while isinstance(e, ir.BinOp) and e.op == "and":
        yield e
        e = e.left
    yield e


def test_vcs_share_one_prefix_chain(monkeypatch):
    program, count = _constructor(checked_stress_source(700, 25))
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

    monkeypatch.setattr(vcgen, "BinOp", CountedBinOp)
    monkeypatch.setattr(vcgen, "UnOp", CountedUnOp)
    counted = _fresh(program)
    for i in range(count):
        vc_gen(counted, i)
    assert built
    parts = {id(part) for part in counted.conjuncts[1]}
    # besides the definitional equalities, which are the conjuncts themselves
    assert len([n for n in built if id(n) not in parts]) <= len(parts) + 2 * count


def test_frame_formula_keeps_definitions_and_assumptions_in_order():
    p = SmtProgram(decls={"x": ir.INT, "y": ir.INT})
    define, assume = Assign(Ident("x"), IntLit(1)), Assume(ir.BinOp("<", Ident("y"), IntLit(3)))
    p.stmts = [define, Assert(ir.BinOp("==", Ident("x"), IntLit(1))), assume]
    expected = conjoin([
        ir.BinOp("==", Ident("x"), IntLit(1)),
        assume.cond,
        ir.UnOp("not", ir.BinOp("==", Ident("x"), Ident("y"))),
    ])
    assert frame_formula(p, "x", "y") == expected
    assert vc_gen(p, 0) == ir.BinOp("and", ir.BinOp("==", Ident("x"), IntLit(1)), ir.UnOp("not", p.stmts[1].cond))


def test_verify_reports_a_vc_too_deep_to_print_as_error(tmp_path):
    path = tmp_path / "deep.sol"
    path.write_text(checked_stress_source(1000, 0))
    env = {"PATH": "", "PYTHONPATH": str(SRC)}  # no solver: the one assert fails before any query
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", "verify", str(path)], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count(": error ") == 1
    assert "RecursionError" in proc.stdout
    # 3000 statements with an assert every 25: parse, translate, SSA and
    # vcgen get through, and each VC is either too deep to print or sent
    # to the missing solver
    path.write_text(checked_stress_source(3000, 25))
    proc = subprocess.run([sys.executable, "-m", "solmem.cli", "verify", str(path)], cwd=SRC.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 121 and all(line.startswith("constructor:") for line in lines), proc.stdout
    too_deep = [line for line in lines if "RecursionError" in line]
    assert too_deep and lines[-1] in too_deep
    assert all(line.endswith(": error verification condition nested too deeply to print (RecursionError)")
               for line in too_deep)
