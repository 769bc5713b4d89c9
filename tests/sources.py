"""Shared example contracts used across the test suite, and the one
helper that compiles them."""

from solmem.parser import parse_source
from solmem.resolver import resolve_and_check


def compile_source(text):
    return resolve_and_check(parse_source(text))


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
