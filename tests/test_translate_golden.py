"""Translation, SSA and SMT-LIB emission pinned by one digest.

For every function of the corpus, the shared test contracts, a contract
covering the assignment matrix, generated programs (seeds 0-49) and two
long straight-line constructors, each translated without and with
`unroll=2`, the digest covers the IR text (`format_program`), every
per-assert SMT-LIB script, and the text of every `SolmemError` raised
on the way. A refactoring of the translator
or the IR registries must leave it unchanged.
"""

import hashlib
from pathlib import Path

import sources
from solmem.errors import SolmemError
from solmem.generator import random_program
from solmem.ir import format_program
from solmem.normalize import normalize_lhs
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.smtlib import emit_smtlib
from solmem.ssa import to_ssa
from solmem.translate import translate_function
from solmem.vcgen import vc_gen

ROOT = Path(__file__).resolve().parent.parent

DIGEST = "2cf7fef06498282866bea4fa2fcc1bbc879f93dde8c2f5308853ffe77565926f"


# every location pair of the assignment matrix, for arrays, structs and
# mappings, with deep copies that need --unroll
MATRIX = """
contract Matrix {
    struct T { int z; int[] zs; }
    struct S { int x; T t; T[] ts; int[3] f; }
    S s1;
    S[] ss;
    int[] xs;
    T[2] tf;
    mapping(int => S) m;
    constructor() {
        S memory a = s1;
        a.ts = new T[](2);
        s1 = a;
        assert(s1.ts.length == 2);
    }
    function arrays(int[] memory ys, bool c) {
        int[] storage p = xs;
        xs = p;
        int[] memory q = p;
        int[] memory r = xs;
        xs = ys;
        (q, p, r) = (r, p, q);
        (p, xs) = (xs, p);
        int[] memory k = c ? p : ys;
        int[] storage j = c ? p : xs;
        delete q;
        delete xs;
        T[2] memory tm = tf;
        tf = tm;
        T[2] storage tp = tf;
        tm = tp;
        assert(k.length == j.length);
    }
    function structs(S memory sm, T memory tmem) {
        S storage sp = ss[0];
        s1 = sp;
        S memory a = sp;
        s1 = sm;
        ss[1] = s1;
        T[] memory tm = s1.ts;
        s1.ts = tm;
        m[3] = sm;
        S storage mp = m[4];
        mp.t = tmem;
        delete sm;
        delete a.t;
        delete mp.ts;
        ss.push(sm);
        tm[1] = T(1, tm[0].zs);
        assert(s1.x == a.x);
    }
    function mappings() {
        mapping(int => S) storage mp = m;
        mapping(int => S) storage mq = mp;
        mq[1].x = 2;
        delete mq[1];
        assert(m[1].x == 0);
    }
}
"""


def stress_source(size: int, assert_every: int) -> str:
    body = []
    for i in range(size):
        body.append(f"        a[{i % 7}] = a[{(i + 1) % 7}] + {i};")
        if assert_every and (i + 1) % assert_every == 0:
            body.append(f"        assert(a[{i % 7}] == {i});")
    return "contract Stress {\n    int[7] a;\n    constructor() {\n" + "\n".join(body) + "\n    }\n}\n"


def inputs():
    """(name, source) for every pinned program."""
    for path in sorted((ROOT / "corpus").glob("*/*.sol")):
        yield f"corpus/{path.parent.name}/{path.name}", path.read_text()
    for name in ("DATA_STORAGE", "POINTER_CONTRACT", "TUPLE_SWAP", "DANGLING_POINTER"):
        yield f"sources/{name}", getattr(sources, name)
    yield "sources/tuple_swap_with", sources.tuple_swap_with("s1.x == 3", "s1.x == 3")
    yield "matrix", MATRIX
    for seed in range(50):
        yield f"fuzz/{seed}", random_program(seed, 10)
    yield "stress/300/0", stress_source(300, 0)
    yield "stress/250/25", stress_source(250, 25)


def records(source: str, unroll: int | None):
    """IR text, SMT-LIB scripts and error texts, in pipeline order."""
    try:
        contract = resolve_and_check(parse_source(source))
    except SolmemError as e:
        yield f"error {type(e).__name__}: {e}"
        return
    for fn in contract.all_functions():
        yield f"function {fn.name}"
        try:
            tf = translate_function(contract, fn, unroll)
            yield format_program(tf.program)
            ssa = to_ssa(normalize_lhs(tf.program)).program
            for info in tf.asserts:
                yield emit_smtlib(ssa, vc_gen(ssa, info.ordinal))
        except SolmemError as e:
            yield f"error {type(e).__name__}: {e}"


def golden_digest() -> str:
    digest = hashlib.sha256()
    for name, source in inputs():
        for unroll in (None, 2):
            digest.update(f"{name} unroll={unroll}\0".encode())
            for record in records(source, unroll):
                digest.update(record.encode() + b"\0")
    return digest.hexdigest()


def test_translation_and_emission_digest():
    assert golden_digest() == DIGEST
