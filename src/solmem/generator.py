"""Random well-typed fragment programs for differential testing.

Generation is oracle-guided: every candidate statement is run through
the reference interpreter after the statements kept so far, so array
indexes stay in bounds, and an assert compares a read with the value
sampled for it from actual state rather than a guess. Programs are
constructor-only (fully concrete), biased toward reference-type
assignments across data locations, storage pointer creation and
re-pointing, push/pop/delete, and tuple swaps, and never use constructs
the translator reports as unsupported. Output is deterministic per seed.

Checking is incremental. The skeleton (structs, state variables, an
empty constructor) is parsed, resolved and run once; a candidate line is
then lexed and parsed on its own as one statement, resolved against the
constructor's scope and taken names, which change only once it
resolves, and kept: it runs alone, in place, on the interpreter state
after the kept statements (the pristine state). The locals are the
scope's. Sampling reads the pristine state itself, since interpreter
reads never change state: one walk samples the storage, pointer and
memory roots, each value once. Rejected candidates are counted by
reason.
"""

from __future__ import annotations

import operator
import random
from collections import Counter

from .errors import SourceError
from .gcpause import gc_paused
from .oracle import (
    MemArray, MemRef, MemStruct, OracleError, StorArray, StorMapping, StorPath, StorStruct, run_constructor,
)
from .parser import parse_source, parse_statement
from .resolver import function_scope, resolve_and_check, resolve_statement, struct_refs
from .sol_ast import (
    BOOL,
    INT,
    UINT,
    DynArrayType,
    FixArrayType,
    Loc,
    MappingType,
    SolType,
    StructType,
    ValueType,
    is_reference_type,
    is_value_type,
    value_compatible,
)

_KEY_POOL = [0, 1, 2, 7]
_INDENT = " " * 8  # of a constructor statement in the generated source

_STRUCTS = {
    "T": [("z", INT)],
    "S": [("x", INT), ("f", BOOL), ("t", StructType("T")), ("data", DynArrayType(INT))],
    "P": [("a", UINT), ("ts", FixArrayType(StructType("T"), 2))],
}

_STATE_POOLS = [
    ("t1", StructType("T")),
    ("s1", StructType("S")),
    ("nums", DynArrayType(INT)),
    ("grid", FixArrayType(INT, 3)),
    ("balances", MappingType(ValueType("address"), INT)),
    ("flags", MappingType(BOOL, INT)),
    ("recs", MappingType(ValueType("address"), StructType("S"))),
    ("ss", DynArrayType(StructType("S"))),
    ("ps", DynArrayType(StructType("P"))),
    ("pairs", FixArrayType(StructType("T"), 2)),
    ("table", MappingType(INT, DynArrayType(INT))),
    ("counter", INT),
    ("ok", BOOL),
]


def _literal_text(value) -> str:
    """Source literal of a sampled bool or integer."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _memory_safe(ty: SolType, structs: dict) -> bool:
    """True when the type can live in memory without unbounded copies:
    no mapping and no dynamic array of reference base anywhere."""
    if is_value_type(ty):
        return True
    if isinstance(ty, MappingType):
        return False
    if isinstance(ty, DynArrayType):
        return is_value_type(ty.base)
    if isinstance(ty, FixArrayType):
        return _memory_safe(ty.base, structs)
    if isinstance(ty, StructType):
        return all(_memory_safe(mty, structs) for _, mty in structs[ty.name])
    return False


class ProgramBuilder:
    def __init__(self, seed: int, size_budget: int):
        self.rng = random.Random(seed)
        self.size_budget = size_budget
        used_structs = ["T", "S"] + (["P"] if self.rng.random() < 0.5 else [])
        self.structs = {name: _STRUCTS[name] for name in used_structs}
        pool = [
            (n, t)
            for n, t in _STATE_POOLS
            if all(name in self.structs for name in struct_refs(t))
        ]
        count = self.rng.randint(3, min(6, len(pool)))
        self.state_vars = self.rng.sample(pool, count)
        self.lines: list[str] = []  # source lines of the constructor body
        self.counter = 0
        self.rejections: Counter[str] = Counter()  # rejected candidates by reason
        # the skeleton, parsed and resolved once; its constructor body
        # collects the resolved statements kept so far
        self.contract = resolve_and_check(parse_source(self.source()))
        self.scope = function_scope(self.contract, self.contract.constructor)
        # the constructor has no parameters and no statements yet, so
        # resolution has taken only the state variables' names
        self.used_names = {v.name for v in self.contract.state_vars}
        # the state after the kept statements
        self.pristine = run_constructor(self.contract).state

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # ----- source assembly -------------------------------------------

    def source(self) -> str:
        lines = ["contract Fuzz {"]
        for name, members in self.structs.items():
            lines.append(f"    struct {name} {{")
            for mname, mty in members:
                lines.append(f"        {mty} {mname};")
            lines.append("    }")
        for name, ty in self.state_vars:
            lines.append(f"    {ty} {name};")
        lines.append("    constructor() {")
        for line in self.lines:
            lines.append(f"{_INDENT}{line}")
        lines.append("    }")
        lines.append("}")
        return "\n".join(lines) + "\n"

    # ----- incremental checking ----------------------------------------

    def commit(self, line: str) -> bool:
        """Keep `line` as the next statement and run it on the pristine
        state; False, with the reason counted, if it does not parse or
        resolve. An assert compares a read with the value sampled for
        it, so a failing one is a sampler bug: it raises OracleError, and
        an interpreter error propagates too."""
        ctor = self.contract.constructor
        try:
            stmt = parse_statement(line, ctor.line + 1 + len(ctor.body), len(_INDENT) + 1)
            resolve_statement(self.contract, ctor, stmt, self.scope, self.used_names)
        except SourceError as e:
            self.rejections[type(e).__name__] += 1
            return False
        if not self.pristine.exec_stmt(stmt):
            raise OracleError(f"sampled assert fails: {line}")
        ctor.body.append(stmt)
        self.lines.append(line)
        return True

    def _locals(self, loc: Loc) -> list[tuple[str, SolType]]:
        """(name, type) of the constructor's locals at `loc`, in declaration order."""
        return [(name, ty) for name, (_, ty, at, kind) in self.scope.items() if kind == "local" and at == loc]

    # ----- state sampling ---------------------------------------------

    def _walk(self, out: list, text: str, ty: SolType, value, levels: int, elems: int, keys: int) -> None:
        """Append (source-text, type, value) of `text` and, `levels`
        levels down, of its members, its first `elems` in-range elements
        and its parts at `keys` randomly drawn mapping keys. A memory
        reference is followed to its heap object."""
        out.append((text, ty, value))
        if levels == 0:
            return
        obj = self.pristine.heap[value.addr] if isinstance(value, MemRef) else value
        if isinstance(ty, StructType):
            assert isinstance(obj, (StorStruct, MemStruct))
            for mname, mty in self.structs[ty.name]:
                self._walk(out, f"{text}.{mname}", mty, obj.members[mname], levels - 1, elems, keys)
        elif isinstance(ty, (DynArrayType, FixArrayType)):
            assert isinstance(obj, (StorArray, MemArray))
            for i in range(min(max(obj.length, 0), elems)):
                self._walk(out, f"{text}[{i}]", ty.base, self.pristine.part(obj, i), levels - 1, elems, keys)
        elif isinstance(ty, MappingType):
            assert isinstance(obj, StorMapping)
            pool = [True, False] if ty.key == BOOL else _KEY_POOL
            for key in self.rng.sample(pool, min(keys, len(pool))):
                part = self.pristine.part(obj, key)
                self._walk(out, f"{text}[{_literal_text(key)}]", ty.value, part, levels - 1, elems, keys)

    def _storage_paths(self):
        """Every reachable storage lvalue with its concrete value, as
        (source-text, type, value), staying in bounds."""
        out = []
        for name, ty in self.state_vars:
            self._walk(out, name, ty, self.pristine.storage[name], 4, 3, 2)
        return out

    def _pointer_paths(self):
        """Storage lvalues reachable through live storage pointers."""
        out = []
        for name, ty in self._locals(Loc.STORPTR):
            pointer = self.pristine.locals.get(name)
            if isinstance(pointer, StorPath):
                self._walk(out, name, ty, self.pristine.deref_path(pointer), 1, 2, 1)
        return out

    def _memory_values(self):
        """Memory locals (as references) and their members and elements."""
        out = []
        for name, ty in self._locals(Loc.MEMORY):
            ref = self.pristine.locals.get(name)
            if isinstance(ref, MemRef):
                self._walk(out, name, ty, ref, 1, 2, 0)
        return out

    def _value_reads(self):
        """Readable value-typed expressions with their current values."""
        reads = []
        for text, ty, value in self._storage_paths() + self._pointer_paths() + self._memory_values():
            if is_value_type(ty):
                reads.append((text, ty, value))
            elif isinstance(value, StorArray):
                reads.append((f"{text}.length", UINT, value.length))
        for name, ty in self._locals(Loc.VALUE):
            if name in self.pristine.locals:
                reads.append((name, ty, self.pristine.locals[name]))
        return reads

    def _literal(self, ty: SolType) -> str:
        if ty == BOOL:
            return self.rng.choice(["true", "false"])
        return str(self.rng.choice([0, 1, 2, 3, 5, 8, 42]))

    # ----- statement generators -----------------------------------------

    def _op_value_write(self) -> bool:
        targets = [
            (t, ty) for t, ty, _ in self._storage_paths() + self._pointer_paths() + self._memory_values()
            if is_value_type(ty)
        ]
        targets += self._locals(Loc.VALUE)
        if not targets:
            return False
        text, ty = self.rng.choice(targets)
        reads = [r for r in self._value_reads() if value_compatible(r[1], ty)]
        if reads and self.rng.random() < 0.5:
            src, _, _ = self.rng.choice(reads)
            if ty != BOOL and self.rng.random() < 0.4:
                src = f"{src} + {self._literal(INT)}"
        else:
            src = self._literal(ty)
        return self.commit(f"{text} = {src};")

    def _op_local_value(self) -> bool:
        ty = self.rng.choice([INT, UINT, BOOL])
        name = self.fresh("v")
        init = f" = {self._literal(ty)}" if self.rng.random() < 0.8 else ""
        return self.commit(f"{ty} {name}{init};")

    def _dyn_arrays(self):
        """Dynamic storage arrays reached directly or through pointers."""
        return [
            (t, ty, v)
            for t, ty, v in self._storage_paths() + self._pointer_paths()
            if isinstance(ty, DynArrayType) and isinstance(v, StorArray)
        ]

    def _op_push(self) -> bool:
        arrays = [a for a in self._dyn_arrays() if a[2].length < 4]
        if not arrays:
            return False
        text, ty, _ = self.rng.choice(arrays)
        elem = ty.base
        if is_value_type(elem):
            value = self._literal(elem)
        else:
            # the dynamic arrays of _STRUCTS and _STATE_POOLS hold values
            # or memory-safe structs
            value = self._struct_ctor_src(elem)
            if not value:
                return False
        return self.commit(f"{text}.push({value});")

    def _struct_ctor_src(self, ty: StructType) -> str:
        args = []
        for _, mty in self.structs[ty.name]:
            if is_value_type(mty):
                args.append(self._literal(mty))
            elif isinstance(mty, DynArrayType) and is_value_type(mty.base):
                n = self.rng.randint(0, 2)
                args.append(f"new {mty.base}[]({n})")
            else:
                mems = [t for t, t2, _ in self._memory_values() if t2 == mty]
                stos = [t for t, t2, _ in self._storage_paths() if t2 == mty]
                if mems:
                    args.append(self.rng.choice(mems))
                elif stos:
                    args.append(self.rng.choice(stos))
                else:
                    return ""  # caller treats as failure
        return f"{ty.name}({', '.join(args)})"

    def _op_pop(self) -> bool:
        arrays = [a for a in self._dyn_arrays() if a[2].length > 0]
        if not arrays:
            return False
        text, _, _ = self.rng.choice(arrays)
        return self.commit(f"{text}.pop();")

    def _op_delete(self) -> bool:
        targets = [
            (t, ty)
            for t, ty, v in self._storage_paths()
            if not isinstance(ty, MappingType) and not isinstance(v, MemRef)
        ]
        if not targets:
            return False
        text, _ = self.rng.choice(targets)
        return self.commit(f"delete {text};")

    def _op_storptr_decl(self) -> bool:
        refs = [
            (t, ty)
            for t, ty, _ in self._storage_paths()
            if is_reference_type(ty)
        ]
        if not refs:
            return False
        text, ty = self.rng.choice(refs)
        name = self.fresh("p")
        return self.commit(f"{ty} storage {name} = {text};")

    def _op_repoint(self) -> bool:
        pointers = self._locals(Loc.STORPTR)
        if not pointers:
            return False
        name, ty = self.rng.choice(pointers)
        candidates = [t for t, t2, _ in self._storage_paths() if t2 == ty]
        candidates += [n for n, t2 in pointers if t2 == ty and n != name]
        if not candidates:
            return False
        return self.commit(f"{name} = {self.rng.choice(candidates)};")

    def _op_memory_decl(self) -> bool:
        choice = self.rng.random()
        name = self.fresh("m")
        if choice < 0.4:
            base = self.rng.choice([INT, UINT, BOOL])
            n = self.rng.randint(0, 3)
            ty: SolType = DynArrayType(base)
            line = f"{base}[] memory {name} = new {base}[]({n});"
        elif choice < 0.7:
            structs = [
                StructType(s) for s in self.structs if _memory_safe(StructType(s), self.structs)
            ]
            if not structs:
                return False
            ty = self.rng.choice(structs)
            ctor = self._struct_ctor_src(ty)
            if not ctor:
                return False
            line = f"{ty} memory {name} = {ctor};"
        else:
            # deep copy out of storage
            refs = [
                (t, t2)
                for t, t2, _ in self._storage_paths()
                if is_reference_type(t2) and _memory_safe(t2, self.structs)
            ]
            if not refs:
                return False
            text, ty = self.rng.choice(refs)
            line = f"{ty} memory {name} = {text};"
        return self.commit(line)

    def _op_copy_into_storage(self) -> bool:
        mems = [
            (t, ty)
            for t, ty, v in self._memory_values()
            if is_reference_type(ty) and isinstance(v, MemRef)
        ]
        if not mems:
            return False
        return self._copy_to_storage(*self.rng.choice(mems))

    def _op_storage_copy(self) -> bool:
        refs = [(t, ty) for t, ty, _ in self._storage_paths() if is_reference_type(ty) and not isinstance(ty, MappingType)]
        if not refs:
            return False
        return self._copy_to_storage(*self.rng.choice(refs))

    def _copy_to_storage(self, src: str, ty: SolType) -> bool:
        """`target = src;` for a storage lvalue of type `ty` other than
        `src`, reached directly or through a pointer."""
        targets = [t for t, t2, _ in self._storage_paths() + self._pointer_paths() if t2 == ty and t != src]
        if not targets:
            return False
        return self.commit(f"{self.rng.choice(targets)} = {src};")

    def _op_tuple_swap(self) -> bool:
        if self.rng.random() < 0.5:
            parts = [(t, ty) for t, ty, _ in self._storage_paths() + self._pointer_paths() if is_value_type(ty)]
            swappable = value_compatible
        else:
            parts = [(t, ty) for t, ty, _ in self._storage_paths() if isinstance(ty, StructType)]
            swappable = operator.eq
        pairs = [(a, b) for a, aty in parts for b, bty in parts if a != b and swappable(aty, bty)]
        if not pairs:
            return False
        a, b = self.rng.choice(pairs)
        return self.commit(f"({a}, {b}) = ({b}, {a});")

    def _op_cond_value(self) -> bool:
        reads = self._value_reads()
        ints = [r for r in reads if r[1] != BOOL]
        bools = [r for r in reads if r[1] == BOOL]
        if not ints:
            return False
        cond = self.rng.choice(bools)[0] if bools and self.rng.random() < 0.5 else (
            f"{self.rng.choice(ints)[0]} {self.rng.choice(['<', '<=', '==', '!='])} {self._literal(INT)}"
        )
        a = self.rng.choice(ints)[0]
        b = self.rng.choice(ints)[0]
        name = self.fresh("v")
        return self.commit(f"int {name} = {cond} ? {a} : {b};")

    # ----- asserts -------------------------------------------------------

    def make_asserts(self):
        """Up to three passing asserts, each comparing a value read with
        the value sampled for it, then, with probability 0.3, one failing
        assert."""
        reads = [r for r in self._value_reads() if r[1] != BOOL]
        bools = [r for r in self._value_reads() if r[1] == BOOL]
        for _ in range(self.rng.randint(1, 3)):
            pool = reads if reads and (not bools or self.rng.random() < 0.8) else bools
            text, _, value = self.rng.choice(pool)
            self.commit(f"assert({text} == {_literal_text(value)});")
        # at most one failing assert, placed last so every earlier assert
        # is reached by the oracle
        if reads and self.rng.random() < 0.3:
            text, _, value = self.rng.choice(reads)
            # source only: the interpreter would stop at this assert
            self.lines.append(f"assert({text} == {value + 1});")

    # ----- driver ---------------------------------------------------------

    _OPS = [
        ("_op_value_write", 3.0),
        ("_op_local_value", 1.0),
        ("_op_push", 2.5),
        ("_op_pop", 1.2),
        ("_op_delete", 1.0),
        ("_op_storptr_decl", 2.5),
        ("_op_repoint", 1.2),
        ("_op_memory_decl", 2.0),
        ("_op_copy_into_storage", 1.5),
        ("_op_storage_copy", 1.5),
        ("_op_tuple_swap", 1.2),
        ("_op_cond_value", 0.8),
    ]

    def build(self) -> str:
        emitted = 0
        attempts = 0
        names = [n for n, _ in self._OPS]
        weights = [w for _, w in self._OPS]
        while emitted < self.size_budget and attempts < self.size_budget * 10:
            attempts += 1
            op = self.rng.choices(names, weights)[0]
            if getattr(self, op)():
                emitted += 1
        self.make_asserts()
        return self.source()


@gc_paused
def random_program(seed: int, size_budget: int = 10) -> str:
    """Deterministic, well-typed, in-bounds fragment program."""
    return ProgramBuilder(seed, size_budget).build()
