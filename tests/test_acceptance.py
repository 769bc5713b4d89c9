"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: ... PASS` line on success; a
failure raises with the offending details. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete.
"""

import time
from pathlib import Path


from irgen import random_env, random_ir_program
from irserialize import serialize_ir
from sources import DANGLING_POINTER, POINTER_CONTRACT, tuple_swap_with
from test_invariants import FRAME_CONTRACTS, MEMORY_ZOO, ZOO_TYPES, _zoo_contract, frame_verdict
from solmem import ir
from solmem.harness import run_corpus, run_fuzz
from solmem.ir import Assign, Ident
from solmem.ireval import VArray, eval_ir, values_equal
from solmem.normalize import normalize_lhs
from solmem.oracle import Machine, serialize
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.smtlib import emit_smtlib, expr_to_sexpr
from solmem.sol_ast import Loc, StructType, is_reference_type
from solmem.ssa import to_ssa
from solmem.translate import Translator, translate_function
from solmem.vcgen import vc_gen
from solmem.verify import verify_source

CORPUS_DIR = Path(__file__).parent.parent / "corpus"


def compile_source(text):
    return resolve_and_check(parse_source(text))


def _report(n: int, label: str):
    print(f"ACCEPTANCE {n}: {label} PASS")


# ---------------------------------------------------------------------------
# 1. pack/unpack golden values


def test_criterion_1_pack_unpack_goldens():
    start = time.monotonic()
    src = POINTER_CONTRACT.replace(
        "S[] ss;",
        "S[] ss;\n    function probe() {"
        " T storage a = t1; T storage b = s1.t; T storage d = ss[8].ts[5]; }",
    )
    c = compile_source(src)
    tr = Translator(c)

    def packed_values(expr, depth):
        prog = tr.program.copy_shell()
        prog.stmts = list(tr.stmts) + [Assign(Ident("out~"), tr.pack(expr))]
        prog.declare("out~", ir.PTR)
        arr = eval_ir(prog).env["out~"]
        assert isinstance(arr, VArray)
        return [arr.read(i) for i in range(depth)]

    decls = c.function("probe").body
    assert packed_values(decls[0].init, 1) == [0]
    assert packed_values(decls[1].init, 2) == [1, 0]
    assert packed_values(decls[2].init, 4) == [2, 8, 1, 5]

    unpacked = expr_to_sexpr(tr.unpack(Ident("ptr"), StructType("T")))
    s1_ts = "(select (StorArr$T.arr (StorStruct$S.ts s1)) (select ptr 2))"
    ss_i = "(select (StorArr$S.arr ss) (select ptr 1))"
    ss_i_ts = f"(select (StorArr$T.arr (StorStruct$S.ts {ss_i})) (select ptr 3))"
    expected = (
        "(ite (= (select ptr 0) 0) t1 "
        "(ite (= (select ptr 0) 1) "
        f"(ite (= (select ptr 1) 0) (StorStruct$S.t s1) {s1_ts}) "
        f"(ite (= (select ptr 2) 0) (StorStruct$S.t {ss_i}) {ss_i_ts})))"
    )
    assert unpacked == expected
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"pack [0] [1,0] [2,8,1,5] and unpack conditional in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. tuple-order semantics


def test_criterion_2_tuple_order(solver_available):
    positive = tuple_swap_with(
        "s1.x == 3 && s2.x == 1 && s3.x == 2", "s1.x == 1 && s2.x == 1 && s3.x == 1"
    )
    report = verify_source(positive, timeout=10.0)
    verdicts = [(f.name, a.verdict, a.time_seconds) for f in report.functions for a in f.asserts]
    assert all(v == "verified" for _, v, _ in verdicts), verdicts
    assert all(t < 10.0 for _, _, t in verdicts), verdicts

    negative = tuple_swap_with(
        "!(s1.x == 3 && s2.x == 1 && s3.x == 2)", "!(s1.x == 1 && s2.x == 1 && s3.x == 1)"
    )
    report = verify_source(negative, timeout=10.0)
    for f in report.functions:
        for a in f.asserts:
            assert a.verdict == "counterexample", (f.name, a.verdict)
            assert a.model, "counterexample must carry a model"
            assert a.time_seconds < 10.0
    _report(2, "tuple swaps verified, negations refuted with models")


# ---------------------------------------------------------------------------
# 3. dangling-pointer semantics


def test_criterion_3_dangling_pointer(solver_available):
    report = verify_source(DANGLING_POINTER, timeout=10.0)
    (ctor,) = report.functions
    assert ctor.unsupported is None
    first, second = ctor.asserts
    assert first.verdict == "verified", first
    assert second.verdict == "counterexample", second
    assert first.time_seconds < 10.0 and second.time_seconds < 10.0
    _report(3, "pop keeps the slot for pointers, indexing sees the default")


# ---------------------------------------------------------------------------
# 4. five-class corpus


def test_criterion_4_corpus(solver_available):
    classes = run_corpus(CORPUS_DIR, timeout=60.0, jobs=8)
    assert set(classes) == {"assignment", "delete", "init", "storage", "storageptr"}
    total = sum(s.total for s in classes.values())
    unsupported = sum(s.counts["unsupported"] for s in classes.values())
    for name, s in classes.items():
        assert s.total >= 5, f"{name} has only {s.total} tests"
        assert s.counts["incorrect"] == 0, [t.detail for t in s.tests if t.observed == "incorrect"]
        assert s.counts["timeout"] == 0
        assert s.counts["invalid"] == 0, [t.detail for t in s.tests if t.observed == "invalid"]
    assert unsupported <= total * 0.10, f"{unsupported}/{total} unsupported"
    counts = ", ".join(f"{n}={classes[n].counts['correct']}/{classes[n].total}" for n in sorted(classes))
    _report(4, f"corpus all correct ({counts}, unsupported {unsupported}/{total})")


# ---------------------------------------------------------------------------
# 5. differential fuzzing, 500 seeds


def test_criterion_5_differential_fuzzing(solver_available):
    start = time.monotonic()
    outcomes = run_fuzz(range(500), size_budget=8, timeout=60.0, jobs=8)
    elapsed = time.monotonic() - start
    disagreements = [o for o in outcomes if not o.agreed]
    compared = sum(o.compared for o in outcomes)
    assert not disagreements, [(o.seed, o.detail) for o in disagreements[:5]]
    assert compared > 500, "expected more than one assert per seed on average"
    assert elapsed < 1800, f"fuzzing took {elapsed:.0f}s"
    _report(5, f"500 seeds, {compared} asserts, 100% agreement in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. invariant suites


def test_criterion_6a_transformation_equivalence():
    for seed in range(200):
        program = random_ir_program(seed, size=8)
        env = random_env(seed)
        normalized = normalize_lhs(program)
        ssa = to_ssa(normalized)
        r0 = eval_ir(program, dict(env))
        r1 = eval_ir(normalized, dict(env))
        r2 = eval_ir(ssa.program, dict(env))
        assert (r0.status, r0.failed_index) == (r1.status, r1.failed_index) == (
            r2.status,
            r2.failed_index,
        ), f"seed {seed}"
        if r0.status == "ok":
            for name in program.decls:
                assert values_equal(r0.env.get(name), r1.env.get(name)), (seed, name)
                final = ssa.final_versions[name]
                if final in r2.env or name in r0.env:
                    assert values_equal(r0.env.get(name), r2.env.get(final)), (seed, name)
    _report(6, "(a) normalize/SSA preserve evaluation on 200 random programs")


def test_criterion_6b_non_aliasing_and_deep_copy(solver_available):
    assert len(FRAME_CONTRACTS) == 20
    checked = 0
    for src, framed_vars in FRAME_CONTRACTS:
        for framed in framed_vars:
            verdict, _, _ = frame_verdict(src, "f", framed)
            assert verdict.kind == "unsat", (src, framed, verdict.kind)
            checked += 1
    deep_copy = """
contract C {
    struct S { int x; int[] data; }
    S s;
    function f() {
        S memory m = s;
        m.x = 77;
        m.data[0] = 5;
    }
}
"""
    verdict, _, _ = frame_verdict(deep_copy, "f", "s")
    assert verdict.kind == "unsat"
    _report(6, f"(b) {checked} frame checks + deep-copy validity proven unsat")


def test_criterion_6c_quantifier_free_corpus():
    scripts: list[str] = []
    for path in sorted(CORPUS_DIR.glob("*/*.sol")):
        contract = compile_source(path.read_text())
        for fn in contract.all_functions():
            try:
                tf = translate_function(contract, fn)
            except Exception:
                continue
            ssa = to_ssa(normalize_lhs(tf.program))
            for i in range(len(tf.asserts)):
                scripts.append(emit_smtlib(ssa.program, vc_gen(ssa.program, i)))
    assert scripts, "corpus produced no scripts"
    for script in scripts:
        assert "forall" not in script and "exists" not in script
    _report(6, f"(c) {len(scripts)} emitted scripts contain no quantifiers")


# ---------------------------------------------------------------------------
# 7. default-value conformance


def test_criterion_7_default_conformance():
    checked = 0
    for type_src in ZOO_TYPES:
        c = compile_source(_zoo_contract(type_src))
        ty = c.state_vars[0].ty
        locs = [Loc.STORAGE if is_reference_type(ty) else Loc.VALUE]
        if type_src in MEMORY_ZOO:
            locs.append(Loc.MEMORY)
        for loc in locs:
            machine = Machine(c)
            oracle_json = serialize(machine, ty, machine.default(ty, loc))
            tr = Translator(c)
            expr = tr.default_value(ty, loc)
            prog = tr.program.copy_shell()
            prog.stmts = list(tr.stmts) + [Assign(Ident("out~"), expr)]
            prog.declare("out~", tr.map_type(ty, loc))
            env = eval_ir(prog).env
            assert serialize_ir(c, ty, loc, env["out~"], env) == oracle_json, (type_src, loc)
            checked += 1
    _report(7, f"defaults agree between translator and interpreter on {checked} type/location pairs")
