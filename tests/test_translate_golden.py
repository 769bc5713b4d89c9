"""Translation, SSA and SMT-LIB emission pinned by two pairs of digests.

For every function of the programs `sources.pinned()` lists (the
corpus, the shared test contracts, a contract covering the assignment
matrix, generated programs of seeds 0-49 and two long straight-line
constructors), the IR digest covers the translated
program's text (`program_text`), and the SMT digest every per-assert
SMT-LIB script and the text of every `SolmemError` raised on the way.
`IR_DIGEST` and `SMT_DIGEST` pin the translation without `--unroll`,
`IR_DIGEST_UNROLL` and `SMT_DIGEST_UNROLL` the same records at
`unroll=2`, so a change to the bound's assumptions moves only the second
pair. A refactoring of the translator or the IR registries must leave
all four unchanged; a change to how IR is printed moves the IR digests
only.
"""

import hashlib

import sources
from solmem import solver
from solmem.errors import SolmemError
from solmem.ir import Assert, Assign, Assume, IfStmt
from solmem.normalize import normalize_lhs
from solmem.smtlib import expr_to_sexpr, program_text
from solmem.translate import translate_function
from solmem.verify import ssa_form, vc_script

IR_DIGEST = "3de2d3cba1a442124ffdbd86bd21d3d0432ec15ea662e9d070492d4a75bd0fd3"
SMT_DIGEST = "3e4783a5d6230fb702de305c8a431448cd8de697cbbd3e075e67f3e976efcc8a"
IR_DIGEST_UNROLL = "ec9793937d6e558d0dd5b6f92d1776e097b97012695ccd6f2c71ff654ab42b50"
SMT_DIGEST_UNROLL = "1701ff17fc439b7a54c1ecc05c5c007de6c396b681d587192e35fa1b146b43ff"


def records(source: str, unroll: int | None):
    """(digests, text) in pipeline order: each function's name goes into
    both digests, its IR text into "ir", and its SMT-LIB scripts and
    every error text into "smt"."""
    try:
        contract = sources.compile_source(source)
    except SolmemError as e:
        yield ("smt",), f"error {type(e).__name__}: {e}"
        return
    for fn in contract.all_functions():
        yield ("ir", "smt"), f"function {fn.name}"
        try:
            tf = translate_function(contract, fn, unroll)
            yield ("ir",), program_text(tf.program)
            ssa = ssa_form(tf.program).program
            for info in tf.asserts:
                yield ("smt",), vc_script(ssa, info.ordinal)
        except SolmemError as e:
            yield ("smt",), f"error {type(e).__name__}: {e}"


def golden_digests(unroll: int | None) -> tuple[str, str]:
    """(IR digest, SMT digest) of every pinned program at `unroll`."""
    digests = {"ir": hashlib.sha256(), "smt": hashlib.sha256()}
    for name, source in sources.pinned():
        for digest in digests.values():
            digest.update(f"{name} unroll={unroll}\0".encode())
        for keys, record in records(source, unroll):
            for key in keys:
                digests[key].update(record.encode() + b"\0")
    return digests["ir"].hexdigest(), digests["smt"].hexdigest()


def test_translation_and_emission_digest():
    assert golden_digests(None) == (IR_DIGEST, SMT_DIGEST)


def test_translation_and_emission_digest_unrolled():
    assert golden_digests(2) == (IR_DIGEST_UNROLL, SMT_DIGEST_UNROLL)


STATEMENT_HEADS = {Assign: "assign", Assume: "assume", Assert: "check", IfStmt: "if"}


def _check_read_back(stmt, parsed) -> None:
    """`parsed`, read back from the text of `stmt`, has its head and
    renders each of its terms as `expr_to_sexpr` prints the node."""
    assert parsed[0] == STATEMENT_HEADS[type(stmt)]
    if isinstance(stmt, Assign):
        assert [solver._render(t) for t in parsed[1:]] == [expr_to_sexpr(stmt.lhs), expr_to_sexpr(stmt.rhs)]
    elif isinstance(stmt, IfStmt):
        _, cond, [then, *then_parsed], [other, *other_parsed] = parsed
        assert (then, other) == ("then", "else")
        assert solver._render(cond) == expr_to_sexpr(stmt.cond)
        assert len(then_parsed) == len(stmt.then) and len(other_parsed) == len(stmt.other)
        for s, p in zip(stmt.then + stmt.other, then_parsed + other_parsed):
            _check_read_back(s, p)
    else:
        assert [solver._render(t) for t in parsed[1:]] == [expr_to_sexpr(stmt.cond)]


def test_program_text_reads_back():
    """Every corpus function's IR text, before and after `normalize_lhs`,
    reads back as one s-expression per header command and per statement,
    each term as `expr_to_sexpr` printed it."""
    checked = 0
    for name, text in sources.corpus().items():
        contract = sources.compile_source(text)
        for fn in contract.all_functions():
            try:
                program = translate_function(contract, fn).program
            except SolmemError:
                continue
            for p in (program, normalize_lhs(program)):
                parsed = solver._parse_sexprs(solver._tokenize_sexpr(program_text(p)))
                header = ["set-logic"] + ["declare-datatypes"] * bool(p.datatypes) + ["declare-const"] * len(p.decls)
                assert [c[0] for c in parsed[: len(header)]] == header
                assert len(parsed) == len(header) + len(p.stmts), f"{name} {fn.name}"
                for stmt, item in zip(p.stmts, parsed[len(header) :]):
                    _check_read_back(stmt, item)
                checked += 1
    assert checked > 0
