"""The one catalogue of test programs, and the helpers that write, compile
and translate them.

Every test input is listed here, and a test module composes its inputs
from these lists: the corpus, generated fuzz programs (each seed and
budget generated once per session), long straight-line stress programs,
the shared example contracts, the pointer-parameter cases and the list
the golden digests pin. No other module of `tests/` globs or names the
corpus directory, and no test module imports another.
"""

import functools
import random
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

from perfbench.workloads import stress_source as workload_stress_source
from solmem.errors import SolmemError
from solmem.generator import DEFAULT_BUDGET, random_program
from solmem.parser import parse_source
from solmem.resolver import resolve_and_check
from solmem.translate import translate_function
from solmem.verify import ssa_form

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
# one program per (seed, budget) and session: `fuzz` passes both
_generated = functools.cache(random_program)


@functools.cache
def corpus() -> Mapping[str, str]:
    """`<class>/<name>.sol` -> text of every corpus file, in path order:
    the layout `solmem corpus` reads."""
    return MappingProxyType(
        {f"{p.parent.name}/{p.name}": p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*/*.sol"))}
    )


def write_test(root: Path, cls: str, name: str, text: str) -> Path:
    """Write `text` to `root/<cls>/<name>`, the layout `solmem corpus` reads."""
    path = root / cls / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def compile_source(text):
    return resolve_and_check(parse_source(text))


def translated(source: str, unroll: int | None = None):
    """(contract, function, SSA program) of each function of `source`
    that translates at `unroll`; nothing where `source` is rejected."""
    try:
        contract = compile_source(source)
    except SolmemError:
        return
    for fn in contract.all_functions():
        try:
            program = translate_function(contract, fn, unroll).program
        except SolmemError:
            continue
        yield contract, fn, ssa_form(program).program


def fuzz(seed: int, budget: int = DEFAULT_BUDGET) -> str:
    """`random_program(seed, budget)`, generated once per session."""
    return _generated(seed, budget)


DATA_STORAGE = """
contract DataStorage {
    struct Record { bool set; int[] data; }
    mapping(address => Record) records;

    function append(address at, int d) {
        Record storage r = records[at];
        r.set = true;
        r.data.push(d);
    }
    function isset(Record storage r) returns (bool s) {
        s = r.set;
    }
    function get(address at) returns (int[] memory ret) {
        ret = records[at].data;
    }
}
"""

# the storage-tree example: two structs, pointers of type T can reach
# five distinct leaves
POINTER_CONTRACT = """
contract C {
    struct T { int z; }
    struct S { int x; T t; T[] ts; }
    T t1;
    S s1;
    S[] ss;
}
"""

TUPLE_SWAP = """
contract C {
    struct S { int x; }
    S s1;
    S s2;
    S s3;
    function primitiveAssign() {
        s1.x = 1; s2.x = 2; s3.x = 3;
        (s1.x, s3.x, s2.x) = (s3.x, s2.x, s1.x);
    }
    function storageAssign() {
        s1.x = 1; s2.x = 2; s3.x = 3;
        (s1, s3, s2) = (s3, s2, s1);
    }
}
"""

DANGLING_POINTER = """
contract C {
    struct S { int x; }
    S[] a;
    constructor() {
        a.push(S(1));
        S storage s = a[0];
        a.pop();
        assert(s.x == 1);
        assert(a[0].x == 1);
    }
}
"""


def tuple_swap_with(assert_primitive: str, assert_storage: str) -> str:
    src = TUPLE_SWAP
    src = src.replace(
        "(s1.x, s3.x, s2.x) = (s3.x, s2.x, s1.x);",
        f"(s1.x, s3.x, s2.x) = (s3.x, s2.x, s1.x);\n        assert({assert_primitive});",
    )
    src = src.replace(
        "(s1, s3, s2) = (s3, s2, s1);",
        f"(s1, s3, s2) = (s3, s2, s1);\n        assert({assert_storage});",
    )
    return src


# the shared contracts under the names the goldens record them by
EXAMPLES = (
    ("sources/DATA_STORAGE", DATA_STORAGE),
    ("sources/POINTER_CONTRACT", POINTER_CONTRACT),
    ("sources/TUPLE_SWAP", TUPLE_SWAP),
    ("sources/DANGLING_POINTER", DANGLING_POINTER),
    ("sources/tuple_swap_with", tuple_swap_with("s1.x == 3", "s1.x == 3")),
)


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
    """Straight-line constructor `a[i%7] = a[(i+1)%7] + i;` asserting
    `a[i%7] == i` every `assert_every` statements, an assert that need
    not hold; the long programs the goldens pin."""
    body = []
    for i in range(size):
        body.append(f"        a[{i % 7}] = a[{(i + 1) % 7}] + {i};")
        if assert_every and (i + 1) % assert_every == 0:
            body.append(f"        assert(a[{i % 7}] == {i});")
    return "contract Stress {\n    int[7] a;\n    constructor() {\n" + "\n".join(body) + "\n    }\n}\n"


def checked_stress_source(size: int, assert_every: int) -> str:
    """Straight-line constructor `a[i%7] = a[(i+1)%7] + i;` that asserts
    the cell just written every `assert_every` statements and once more at
    the end, the shape of the benchmark's stress workload. Every assert
    holds."""
    cells = [0] * 7
    body = []
    for i in range(size):
        cells[i % 7] = cells[(i + 1) % 7] + i
        body.append(f"a[{i % 7}] = a[{(i + 1) % 7}] + {i};")
        if assert_every and (i + 1) % assert_every == 0:
            body.append(f"assert(a[{i % 7}] == {cells[i % 7]});")
    body.append(f"assert(a[{(size - 1) % 7}] == {cells[(size - 1) % 7]});")
    return "contract Stress { int[7] a; constructor() {\n" + "\n".join(body) + "\n} }\n"


def workload_stress() -> str:
    """The benchmark's 300-statement stress constructor, seed 0."""
    return workload_stress_source(300, 25, random.Random(0))


def deep_source(rhs: str) -> str:
    """A constructor assigning `rhs` to `x`, then asserting `x == 1`."""
    return f"contract C {{\n    int x;\n    constructor() {{\n        x = {rhs};\n        assert(x == 1);\n    }}\n}}\n"


def parenthesized(depth: int) -> str:
    return "(" * depth + "1" + ")" * depth


# `q` re-points into the entity `p` reaches; `r` is a packed path to one
# of the leaves, which must see the push exactly when `p` reaches it
REPACK_BODY = """
    function f(T storage p) {
        int[] storage q = p.ys;
        q.push(5);
        assert(p.ys.length == q.length);
        T storage r = %s;
        assert(r.ys.length == 0);
    }
}
"""

NESTED_STRUCTS = """
contract C {
    struct T { int x; int[] ys; }
    struct S { T a; T b; }
    S s1;
    S s2;
""" + REPACK_BODY % "s2.a"

ARRAY_THEN_STRUCT = """
contract C {
    struct T { int x; int[] ys; }
    struct S { T a; T b; }
    T t0;
    S[] ss;
""" + REPACK_BODY % "ss[1].b"

BOOL_MAPPING = """
contract C {
    struct T { int x; int[] ys; }
    T t0;
    mapping(bool => T) m;
""" + REPACK_BODY % "m[true]"

# no storage of type T: both pointers index the default context, and
# alias when `p` takes the index 1 that `r` is given
DEFAULT_CONTEXT = """
contract C {
    struct T { int x; int[] ys; }
    int n;
    function f(T storage p, T storage r) {
        r.x = 7;
        p.ys.push(5);
        p.x = p.x + 1;
        n = p.x + p.ys.length;
        assert(p.ys.length == 1);
        assert(n == 2);
    }
}
"""

# no storage of S: `p.t` re-packs into the tree of T, whose root has an
# edge into the default context of S next to `ts`
DEFAULT_CONTEXT_REPACK = """
contract C {
    struct T { int z; }
    struct S { int x; T t; }
    T[] ts;
    function f(S storage p) {
        T storage q = p.t;
        q.z = 2;
        assert(p.t.z == 2);
        assert(q.z == 2);
    }
}
"""

# no storage of U or S, and only U is a parameter type: `s` points into
# the default context of U, and re-packs from there into the tree of T
NESTED_DEFAULT_CONTEXT = """
contract C {
    struct T { int z; }
    struct S { int x; T t; }
    struct U { S s; S[] ss; }
    T[] ts;
    function f(U storage u) {
        S storage s = u.ss[1];
        T storage q = s.t;
        q.z = 3;
        s.x = q.z + 1;
        assert(s.t.z == 3);
        assert(u.ss[1].x == 4);
        ts.push(q);
        assert(ts[0].z == 3);
    }
}
"""

# no storage of U or S: `u` points into the default context of U, and `r`
# into that of S or, aliasing `u.s`, into that of U
ALIASING_PARAMETERS = """
contract C {
    struct S { int x; }
    struct U { S s; }
    int n;
    function f(U storage u, S storage r) {
        r.x = 5;
        assert(u.s.x == 0);
    }
}
"""

# name -> (source, the pointer arguments of `f` given an access path of its
# first parameter); the parametrized ids of the pointer-parameter test
POINTER_PARAMETERS = {
    "nested_structs": (NESTED_STRUCTS, lambda path: [path]),
    "array_then_struct": (ARRAY_THEN_STRUCT, lambda path: [path]),
    "bool_mapping": (BOOL_MAPPING, lambda path: [path]),
    "default_context": (DEFAULT_CONTEXT, lambda path: [path, path[:1] + [1]]),
    "default_context_repack": (DEFAULT_CONTEXT_REPACK, lambda path: [path]),
    "nested_default_context": (NESTED_DEFAULT_CONTEXT, lambda path: [path]),
    "aliasing_parameters": (ALIASING_PARAMETERS, lambda path: [path, path + ["s"]]),
    "separate_parameters": (ALIASING_PARAMETERS, lambda path: [path, ["defaultctx$S", path[1]]]),
}


def pinned() -> list[tuple[str, str]]:
    """(name, source) of every program the translate, oracle,
    well-sortedness, name and storage-tree checks pin: the corpus, the
    shared contracts, the assignment matrix, fuzz seeds 0-49 and two
    stress constructors. The parser golden pins all but the matrix."""
    return [
        *((f"corpus/{name}", text) for name, text in corpus().items()),
        *EXAMPLES,
        ("matrix", MATRIX),
        *((f"fuzz/{seed}", fuzz(seed)) for seed in range(50)),
        ("stress/300/0", stress_source(300, 0)),
        ("stress/250/25", stress_source(250, 25)),
    ]
