"""Hand-picked adversarial programs where oracle and verifier must agree:
pointer/pop interactions, bool mapping keys, nested mappings, memory
aliasing graphs, deletes observed through watching pointers, integer
operators, reads past the end of a memory array of references, reads
at the length of a popped storage array and of a memory array, a
memory copy out of a member of a storage-pointer conditional, storage
pointers packed through a conditional base, writes and pointers at
negative indexes, copies of a fixed-size array of structs between
storage and memory, statements that start with a parenthesized
expression, and a closure over storage-pointer sources."""

import pytest

from irserialize import differential
from sources import compile_source
from solmem.harness import judge_by_oracle
from solmem.verify import verify_source

CASES = {
    "bool_keyed_mapping_pointer": """
contract C {
    mapping(bool => int) flags;
    constructor() {
        mapping(bool => int) storage p = flags;
        p[true] = 7;
        p[false] = 3;
        assert(flags[true] == 7);
        assert(flags[false] == 3);
    }
}
""",
    "pop_then_push_reexposes_slot": """
contract C {
    int[] a;
    constructor() {
        a.push(1);
        a.push(2);
        a.pop();
        a.push(9);
        assert(a[1] == 9);
        assert(a.length == 2);
    }
}
""",
    "dangling_pointer_sees_overwrite": """
contract C {
    struct S { int x; }
    S[] a;
    constructor() {
        a.push(S(5));
        S storage p = a[0];
        a.pop();
        assert(p.x == 5);
        a.push(S(6));
        assert(p.x == 6);
        assert(a[0].x == 6);
    }
}
""",
    "nested_mapping_through_pointer": """
contract C {
    mapping(int => mapping(int => int)) grid;
    constructor() {
        mapping(int => int) storage row = grid[3];
        row[4] = 34;
        assert(grid[3][4] == 34);
        assert(grid[4][3] == 0);
    }
}
""",
    "memory_alias_graph": """
contract C {
    struct T { int z; }
    struct S { int x; T t; }
    int probe;
    constructor() {
        T memory shared = T(1);
        S memory a = S(10, shared);
        S memory b = S(20, shared);
        a.t.z = 5;
        probe = b.t.z;
        assert(probe == 5);
    }
}
""",
    "delete_watched_by_second_pointer": """
contract C {
    struct S { int x; int[] data; }
    S s;
    constructor() {
        s.data.push(8);
        S storage p = s;
        int[] storage d = p.data;
        delete p.data;
        assert(d.length == 0);
        assert(d[0] == 0);
    }
}
""",
    "tuple_swap_of_pointers_then_write": """
contract C {
    struct S { int x; }
    S s1;
    S s2;
    constructor() {
        S storage p = s1;
        S storage q = s2;
        (p, q) = (q, p);
        p.x = 1;
        q.x = 2;
        assert(s2.x == 1);
        assert(s1.x == 2);
    }
}
""",
    # every operator at a boundary where a wrong one flips an assert;
    # the last assert fails
    "integer_operators_at_boundaries": """
contract C {
    int[] a;
    int d;
    constructor() {
        a.push(3);
        a.push(-a[0]);
        d = a[0] - a[1];
        assert(d >= 6);
        assert(!(d > 6));
        assert(d - 7 == -1);
        assert(false || d == 6);
        assert(-d > -7);
        assert(d > 6 || a.length >= 3);
    }
}
""",
    "failing_assert_matches": """
contract C {
    int[] a;
    constructor() {
        a.push(4);
        assert(a[0] == 5);
    }
}
""",
}


# Checked without a solver only: each out-of-range read yields a fresh
# default struct, as in the oracle, so a write through one read leaves
# the next one at zero.
OUT_OF_RANGE_MEMORY_STRUCT_READ = """
contract C {
    struct S { int a; }
    constructor() {
        S[] memory arr = new S[](1);
        S memory x = arr[5];
        x.a = 3;
        assert(arr[5].a == 0);
    }
}
"""

# Checked without a solver only: a memory copy out of a member of a
# storage-pointer conditional copies the taken branch, and a write to the
# copy leaves storage alone; the last assert fails.
CONDITIONAL_BASE_MEMORY_COPY = """
contract C {
    struct S { int[] ys; }
    S a;
    S b;
    constructor() {
        a.ys.push(1);
        b.ys.push(2);
        b.ys.push(3);
        bool t = false;
        int[] memory w = (t ? a : b).ys;
        w[0] = 9;
        assert(w.length == 2);
        assert(b.ys[0] == 2);
        assert(w[0] == 9);
        assert(w[1] == 2);
    }
}
"""

# Checked without a solver only: a storage pointer packed through a
# conditional base is a path into the taken branch, fixed when it is
# packed; each last assert fails.
CONDITIONAL_BASE_MEMBER_POINTER = """
contract C {
    struct S { int[] ys; }
    S a;
    S b;
    constructor() {
        a.ys.push(1);
        b.ys.push(2);
        bool t = false;
        int[] storage q = (t ? a : b).ys;
        q.push(3);
        t = true;
        q[0] = 4;
        assert(a.ys.length == 1);
        assert(b.ys.length == 2);
        assert(b.ys[0] == 4);
        assert(a.ys[0] == 4);
    }
}
"""

CONDITIONAL_POINTER_BASE_ELEMENT_POINTER = """
contract C {
    struct T { int z; }
    struct S { T[] zs; }
    S a;
    S c;
    constructor() {
        a.zs.push(T(1));
        c.zs.push(T(2));
        S storage p = c;
        bool t = true;
        T storage q = (t ? p : a).zs[0];
        q.z = 5;
        assert(c.zs[0].z == 5);
        assert(a.zs[0].z == 1);
        p = a;
        assert(q.z == 1);
    }
}
"""

CONDITIONAL_BASE_ELEMENT_POINTER = """
contract C {
    struct T { int z; }
    T[2] g;
    T[2] h;
    constructor() {
        bool t = false;
        T storage q = (t ? g : h)[0];
        q.z = 6;
        assert(h[0].z == 6);
        assert(g[0].z == 6);
    }
}
"""

# Checked without a solver only: arrays are total maps over raw Int
# indexes, so a write at a negative index lands in its own slot, which a
# length-guarded read never sees and a pointer reads back.
NEGATIVE_MEMORY_INDEX_WRITE = """
contract C {
    constructor() {
        int[] memory m = new int[](2);
        m[1] = 7;
        m[0 - 1] = 5;
        assert(m[1] == 7);
        assert(m[0 - 1] == 0);
    }
}
"""

NEGATIVE_STORAGE_INDEX_WRITE = """
contract C {
    int[] xs;
    constructor() {
        xs.push(1);
        xs[0 - 1] = 5;
        assert(xs[0 - 1] == 0);
        assert(xs[0] == 1);
        assert(xs.length == 1);
    }
}
"""

NEGATIVE_INDEX_STRUCT_POINTER = """
contract C {
    struct T { int z; }
    T[] ts;
    constructor() {
        T storage p = ts[0 - 1];
        p.z = 3;
        T storage q = ts[0 - 1];
        assert(q.z == 3);
        assert(ts.length == 0);
    }
}
"""

NEGATIVE_INDEX_ARRAY_POINTER = """
contract C {
    int[][] rows;
    constructor() {
        int[] storage r = rows[0 - 2];
        r.push(4);
        int[] storage s = rows[0 - 2];
        assert(s[0] == 4);
        assert(s.length == 1);
        assert(rows.length == 0);
    }
}
"""

# Checked without a solver only: a copy between storage and memory of a
# fixed-size array of structs copies every element, the last one too.
STORAGE_TO_MEMORY_STRUCT_ARRAY_COPY = """
contract C {
    struct T { int z; }
    T[2] pairs;
    constructor() {
        pairs[1].z = 5;
        T[2] memory m = pairs;
        assert(m[1].z == 5);
    }
}
"""

MEMORY_TO_STORAGE_STRUCT_ARRAY_COPY = """
contract C {
    struct T { int z; }
    T[2] pairs;
    constructor() {
        T[2] memory m;
        m[1].z = 7;
        pairs = m;
        assert(pairs[1].z == 7);
    }
}
"""

# Checked without a solver only: statements that start with a
# parenthesized expression write where the expression denotes; the last
# assert fails in both.
PARENTHESIZED_STATEMENT_START = """
contract C {
    struct S { int x; int[] ys; }
    S s;
    int[] u;
    int[2] w;
    constructor() {
        S storage p = s;
        (u).push(4);
        (u)[0] = 7;
        (w)[1] = 8;
        (s).x = 3;
        (p).ys.push(5);
        (s.ys)[0] = 6;
        S memory m = S(1, new int[](2));
        (m).ys[1] = 9;
        assert(u.length == 1 && u[0] == 7);
        assert(w[1] == 8 && p.x == 3);
        assert(s.ys[0] == 6 && m.ys[1] == 9);
        assert(s.ys.length == 2);
    }
}
"""

# Checked without a solver only: an index at or past the length reads
# the element default, whether the slot was popped from a storage array
# or lies past a memory array's end, where the write went nowhere.
POPPED_STORAGE_SLOT_READ = """
contract C {
    int[] a;
    constructor() {
        a.push(5);
        a.pop();
        assert(a[0] == 0);
    }
}
"""

MEMORY_READ_AT_LENGTH = """
contract C {
    constructor() {
        int[] memory m = new int[](2);
        m[2] = 7;
        assert(m[2] == 0);
    }
}
"""

# A pop below zero leaves the length at -1; the next push writes the raw
# slot -1 and brings the length back to 0, so slot 0 still reads as the
# default and slot -1 holds the pushed element.
PUSH_AFTER_POP_BELOW_ZERO = """
contract C {
    struct S { int x; }
    S[] ss;
    constructor() {
        ss.pop();
        ss.push(S(5));
        S storage p = ss[0];
        assert(p.x == 0);
        S storage q = ss[0 - 1];
        assert(q.x == 5);
    }
}
"""

SOLVER_FREE = {
    "negative_memory_index_write": NEGATIVE_MEMORY_INDEX_WRITE,
    "negative_storage_index_write": NEGATIVE_STORAGE_INDEX_WRITE,
    "negative_index_struct_pointer": NEGATIVE_INDEX_STRUCT_POINTER,
    "negative_index_array_pointer": NEGATIVE_INDEX_ARRAY_POINTER,
    "out_of_range_memory_struct_read": OUT_OF_RANGE_MEMORY_STRUCT_READ,
    "conditional_base_memory_copy": CONDITIONAL_BASE_MEMORY_COPY,
    "conditional_base_member_pointer": CONDITIONAL_BASE_MEMBER_POINTER,
    "conditional_pointer_base_element_pointer": CONDITIONAL_POINTER_BASE_ELEMENT_POINTER,
    "conditional_base_element_pointer": CONDITIONAL_BASE_ELEMENT_POINTER,
    "storage_to_memory_struct_array_copy": STORAGE_TO_MEMORY_STRUCT_ARRAY_COPY,
    "memory_to_storage_struct_array_copy": MEMORY_TO_STORAGE_STRUCT_ARRAY_COPY,
    "parenthesized_statement_start": PARENTHESIZED_STATEMENT_START,
    "popped_storage_slot_read": POPPED_STORAGE_SLOT_READ,
    "memory_read_at_length": MEMORY_READ_AT_LENGTH,
    "push_after_pop_below_zero": PUSH_AFTER_POP_BELOW_ZERO,
}


@pytest.mark.parametrize("name", [*CASES, *SOLVER_FREE])
def test_ireval_fails_where_the_oracle_fails(name):
    differential(compile_source(CASES.get(name) or SOLVER_FREE[name]))


@pytest.mark.parametrize("name", CASES)
def test_differential_agreement(name, solver_available):
    observed, detail, compared = judge_by_oracle(verify_source(CASES[name], timeout=30))
    assert observed == "correct", detail
    assert compared >= 1


# Closure over storage-pointer sources: every base (a state variable, a
# mapping entry, a fixed-array element, a pointer and conditionals of
# these) in every shape (as is, `.ys`, `.zs[0]`), under both conditions.
# Each root starts with distinct values; a write through the new pointer
# must land in exactly the root the taken branch names, so every assert
# passes in the oracle and the IR evaluator agrees with it, storage too.
CLOSURE_ROOTS = {"a": 1, "m[1]": 2, "g[0]": 3, "g[1]": 4}
CLOSURE_BASES = {
    "a": ("a", "a"),
    "m[1]": ("m[1]", "m[1]"),
    "g[0]": ("g[0]", "g[0]"),
    "p": ("g[1]", "g[1]"),
    "(t ? a : m[1])": ("a", "m[1]"),
    "(t ? g[0] : p)": ("g[0]", "g[1]"),
    "(t ? p : a)": ("g[1]", "a"),
    "(t ? m[1] : g[0])": ("m[1]", "g[0]"),
}
CLOSURE_SHAPES = {
    "": ("S", "q.ys[0] = 9; q.zs[0].z = 9;"),
    ".ys": ("int[]", "q[0] = 9;"),
    ".zs[0]": ("T", "q.z = 9;"),
}


def closure_source(base: str, shape: str, cond: bool) -> str:
    ty, write = CLOSURE_SHAPES[shape]
    taken = CLOSURE_BASES[base][0 if cond else 1]
    setup = "".join(f"{r}.ys.push({v}); {r}.zs.push(T({10 * v})); " for r, v in CLOSURE_ROOTS.items())
    checks = []
    for root, v in CLOSURE_ROOTS.items():
        hit = root == taken
        checks.append(f"assert({root}.ys[0] == {9 if hit and shape != '.zs[0]' else v});")
        checks.append(f"assert({root}.zs[0].z == {9 if hit and shape != '.ys' else 10 * v});")
    return f"""
contract C {{
    struct T {{ int z; }}
    struct S {{ int[] ys; T[] zs; }}
    S a;
    mapping(int => S) m;
    S[2] g;
    constructor() {{
        {setup}
        S storage p = g[1];
        bool t = {'true' if cond else 'false'};
        {ty} storage q = {base}{shape};
        {write}
        {' '.join(checks)}
    }}
}}
"""


@pytest.mark.parametrize("cond", [True, False])
@pytest.mark.parametrize("shape", CLOSURE_SHAPES)
@pytest.mark.parametrize("base", CLOSURE_BASES)
def test_storage_pointer_source_closure(base, shape, cond):
    oracle, _, _ = differential(compile_source(closure_source(base, shape, cond)))
    assert oracle.failed is None and len(oracle.asserts) == 2 * len(CLOSURE_ROOTS)
