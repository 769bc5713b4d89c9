"""The record contract: what every solmem record class promises its users.

For each record class this pins the order of its fields, which of them
take part in `==`, the `repr` of one instance (and of one built from
defaults, where a class has defaults), whether instances hash and
whether they can be changed. It reads no implementation detail, only
constructors, attributes, `==`, `hash`, `repr`, copies and pickles, so
the same test holds however the classes are written.

There are three kinds of record:

  * Types (`sol_ast` and `ir`) are interned: immutable, compared and
    hashed by identity, and copied or unpickled as the canonical object.
  * `oracle.MemRef` and `oracle.StorPath` are immutable values, hashable
    by value.
  * Every other record (IR and syntax-tree nodes, programs, interpreter
    values, reports) is mutable, compares by value and is unhashable.
"""

import copy
import pickle

import pytest

from solmem import harness, ir, ireval, oracle, solver, ssa, storage_tree, translate, verify
from solmem import sol_ast as sa

X, ONE = ir.Ident("x"), ir.IntLit(1)
T = ir.BoolLit(True)
DT = ir.DatatypeDef("D", (("m", ir.INT),))
SX, S1 = sa.IdentExpr("x"), sa.IntLitExpr(1)
AT = {"line": 1, "col": 2, "ty": sa.INT, "loc": sa.Loc.VALUE}
LEAF = storage_tree.TreeNode(sa.INT, [])

# class -> its fields in order. `~` marks a field that `==` ignores, `!`
# one that `repr` leaves out.
FIELDS = {
    # types
    sa.SolType: "",
    sa.ValueType: "kind",
    sa.MappingType: "key value",
    sa.DynArrayType: "base",
    sa.FixArrayType: "base size",
    sa.StructType: "name",
    ir.IrType: "",
    ir.IntType: "",
    ir.BoolType: "",
    ir.ArrayType: "index elem",
    ir.DatatypeType: "name",
    ir.DatatypeDef: "name members",
    # immutable values
    oracle.MemRef: "addr",
    oracle.StorPath: "keys",
    # syntax tree
    sa.Expr: "line col ty~ loc~",
    sa.IdentExpr: "line col ty~ loc~ name decl_kind~",
    sa.IntLitExpr: "line col ty~ loc~ value",
    sa.BoolLitExpr: "line col ty~ loc~ value",
    sa.MemberExpr: "line col ty~ loc~ base member",
    sa.IndexExpr: "line col ty~ loc~ base index",
    sa.CondExpr: "line col ty~ loc~ cond then other",
    sa.NewArrayExpr: "line col ty~ loc~ elem_type length",
    sa.StructCtorExpr: "line col ty~ loc~ name args",
    sa.BinExpr: "line col ty~ loc~ op left right",
    sa.UnExpr: "line col ty~ loc~ op operand",
    sa.Stmt: "line",
    sa.DeclStmt: "line var_type data_loc name init",
    sa.AssignStmt: "line lhs rhs tuple_form",
    sa.PushStmt: "line target value",
    sa.PopStmt: "line target",
    sa.DeleteStmt: "line target",
    sa.AssertStmt: "line cond text~!",
    sa.StructMember: "name ty line",
    sa.StructDef: "name members line",
    sa.StateVar: "name ty line",
    sa.Param: "ty data_loc name line name_source",
    sa.Function: "name params returns body is_constructor line",
    sa.Contract: "name structs state_vars constructor functions warnings resolved",
    # IR
    ir.IrExpr: "",
    ir.Ident: "name",
    ir.IntLit: "value",
    ir.BoolLit: "value",
    ir.ArrayRead: "array index",
    ir.ArrayWrite: "array index value",
    ir.ConstArray: "index elem value",
    ir.Construct: "datatype args",
    ir.Select: "base member datatype",
    ir.Ite: "cond then other",
    ir.BinOp: "op left right",
    ir.UnOp: "op operand",
    ir.IrStmt: "",
    ir.Assign: "lhs rhs",
    ir.IfStmt: "cond then other",
    ir.Assume: "cond",
    ir.Assert: "cond",
    ir.SmtProgram: "datatypes decls stmts conjuncts~! printed~! header~!",
    # stages, interpreters and reports
    storage_tree.TreeNode: "ty edges",
    storage_tree.TreeEdge: "label ordinal target",
    translate.AssertInfo: "ordinal line text bound",
    translate.TranslatedFunction: "name program asserts entry is_constructor",
    ssa.SsaResult: "program final_versions",
    ireval.VArray: "default entries",
    ireval.VData: "datatype members",
    ireval.EvalResult: "status env failed_index",
    oracle.Struct: "struct members",
    oracle.Array: "elem slots length",
    oracle.Mapping: "key value slots",
    oracle.AssertOutcome: "ordinal line passed",
    oracle.ExecResult: "returns asserts state",
    solver.SolverVerdict: "kind model detail",
    verify.AssertResult: "line text verdict model detail time_seconds",
    verify.FunctionReport: "name asserts unsupported smt_scripts program",
    verify.VerifyReport: "functions error unsupported warnings contract",
    harness.TestOutcome: "test_id expected observed wall_time_seconds detail",
    harness.ClassSummary: "name tests",
    harness.FuzzOutcome: "seed observed compared detail wall_time_seconds rejections",
}

TYPES = [c for c in FIELDS if issubclass(c, (sa.SolType, ir.IrType, ir.DatatypeDef))]
VALUES = [oracle.MemRef, oracle.StorPath]

# (build, repr): one instance of every class with every field given, the
# first of its class; then instances built from defaults.
INSTANCES = [
    (lambda: sa.SolType(), "SolType()"),
    (lambda: sa.ValueType("int"), "ValueType(kind='int')"),
    (lambda: sa.MappingType(sa.INT, sa.BOOL), "MappingType(key=ValueType(kind='int'), value=ValueType(kind='bool'))"),
    (lambda: sa.DynArrayType(sa.INT), "DynArrayType(base=ValueType(kind='int'))"),
    (lambda: sa.FixArrayType(sa.INT, 2), "FixArrayType(base=ValueType(kind='int'), size=2)"),
    (lambda: sa.StructType("S"), "StructType(name='S')"),
    (lambda: ir.IrType(), "IrType()"),
    (lambda: ir.IntType(), "IntType()"),
    (lambda: ir.BoolType(), "BoolType()"),
    (lambda: ir.ArrayType(ir.INT, ir.BOOL), "ArrayType(index=IntType(), elem=BoolType())"),
    (lambda: ir.DatatypeType("D"), "DatatypeType(name='D')"),
    (lambda: ir.DatatypeDef("D", (("m", ir.INT),)), "DatatypeDef(name='D', members=(('m', IntType()),))"),
    (lambda: oracle.MemRef(3), "MemRef(addr=3)"),
    (lambda: oracle.StorPath(("s", "x", 1)), "StorPath(keys=('s', 'x', 1))"),
    (lambda: sa.Expr(**AT), "Expr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>)"),
    (
        lambda: sa.IdentExpr("x", "local", **AT),
        "IdentExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, name='x', decl_kind='local')",
    ),
    (
        lambda: sa.IntLitExpr(7, **AT),
        "IntLitExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, value=7)",
    ),
    (
        lambda: sa.BoolLitExpr(True, **AT),
        "BoolLitExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, value=True)",
    ),
    (
        lambda: sa.MemberExpr(SX, "m", **AT),
        "MemberExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, "
        "base=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None), member='m')",
    ),
    (
        lambda: sa.IndexExpr(SX, S1, **AT),
        "IndexExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, "
        "base=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None), "
        "index=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1))",
    ),
    (
        lambda: sa.CondExpr(SX, S1, SX, **AT),
        "CondExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, "
        "cond=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None), "
        "then=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1), "
        "other=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None))",
    ),
    (
        lambda: sa.NewArrayExpr(sa.INT, S1, **AT),
        "NewArrayExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, "
        "elem_type=ValueType(kind='int'), length=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1))",
    ),
    (
        lambda: sa.StructCtorExpr("S", [S1], **AT),
        "StructCtorExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, "
        "name='S', args=[IntLitExpr(line=0, col=0, ty=None, loc=None, value=1)])",
    ),
    (
        lambda: sa.BinExpr("+", SX, S1, **AT),
        "BinExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, op='+', "
        "left=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None), "
        "right=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1))",
    ),
    (
        lambda: sa.UnExpr("-", S1, **AT),
        "UnExpr(line=1, col=2, ty=ValueType(kind='int'), loc=<Loc.VALUE: 'value'>, op='-', "
        "operand=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1))",
    ),
    (lambda: sa.Stmt(line=3), "Stmt(line=3)"),
    (
        lambda: sa.DeclStmt(sa.INT, "memory", "x", S1, line=3),
        "DeclStmt(line=3, var_type=ValueType(kind='int'), data_loc='memory', name='x', "
        "init=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1))",
    ),
    (
        lambda: sa.AssignStmt([SX], [S1], True, line=3),
        "AssignStmt(line=3, lhs=[IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None)], "
        "rhs=[IntLitExpr(line=0, col=0, ty=None, loc=None, value=1)], tuple_form=True)",
    ),
    (
        lambda: sa.PushStmt(SX, S1, line=3),
        "PushStmt(line=3, target=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None), "
        "value=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1))",
    ),
    (
        lambda: sa.PopStmt(SX, line=3),
        "PopStmt(line=3, target=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None))",
    ),
    (
        lambda: sa.DeleteStmt(SX, line=3),
        "DeleteStmt(line=3, target=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None))",
    ),
    (
        lambda: sa.AssertStmt(S1, "1", line=3),
        "AssertStmt(line=3, cond=IntLitExpr(line=0, col=0, ty=None, loc=None, value=1))",
    ),
    (lambda: sa.StructMember("m", sa.INT, 2), "StructMember(name='m', ty=ValueType(kind='int'), line=2)"),
    (
        lambda: sa.StructDef("S", [sa.StructMember("m", sa.INT)], 1),
        "StructDef(name='S', members=[StructMember(name='m', ty=ValueType(kind='int'), line=0)], line=1)",
    ),
    (lambda: sa.StateVar("s", sa.INT, 2), "StateVar(name='s', ty=ValueType(kind='int'), line=2)"),
    (
        lambda: sa.Param(sa.INT, None, "x!1", 2, "x"),
        "Param(ty=ValueType(kind='int'), data_loc=None, name='x!1', line=2, name_source='x')",
    ),
    (
        lambda: sa.Function("f", [], [], [sa.PopStmt(SX)], True, 5),
        "Function(name='f', params=[], returns=[], body=[PopStmt(line=0, "
        "target=IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None))], is_constructor=True, line=5)",
    ),
    (
        lambda: sa.Contract("C", [], [sa.StateVar("s", sa.INT)], None, [], ["w"], True),
        "Contract(name='C', structs=[], state_vars=[StateVar(name='s', ty=ValueType(kind='int'), line=0)], "
        "constructor=None, functions=[], warnings=['w'], resolved=True)",
    ),
    (lambda: ir.IrExpr(), "IrExpr()"),
    (lambda: ir.Ident("x"), "Ident(name='x')"),
    (lambda: ir.IntLit(1), "IntLit(value=1)"),
    (lambda: ir.BoolLit(True), "BoolLit(value=True)"),
    (lambda: ir.ArrayRead(X, ONE), "ArrayRead(array=Ident(name='x'), index=IntLit(value=1))"),
    (
        lambda: ir.ArrayWrite(X, ONE, T),
        "ArrayWrite(array=Ident(name='x'), index=IntLit(value=1), value=BoolLit(value=True))",
    ),
    (
        lambda: ir.ConstArray(ir.INT, ir.BOOL, T),
        "ConstArray(index=IntType(), elem=BoolType(), value=BoolLit(value=True))",
    ),
    (lambda: ir.Construct("D", (ONE,)), "Construct(datatype='D', args=(IntLit(value=1),))"),
    (lambda: ir.Select(X, "m", "D"), "Select(base=Ident(name='x'), member='m', datatype='D')"),
    (lambda: ir.Ite(T, X, ONE), "Ite(cond=BoolLit(value=True), then=Ident(name='x'), other=IntLit(value=1))"),
    (lambda: ir.BinOp("+", X, ONE), "BinOp(op='+', left=Ident(name='x'), right=IntLit(value=1))"),
    (lambda: ir.UnOp("not", T), "UnOp(op='not', operand=BoolLit(value=True))"),
    (lambda: ir.IrStmt(), "IrStmt()"),
    (lambda: ir.Assign(X, ONE), "Assign(lhs=Ident(name='x'), rhs=IntLit(value=1))"),
    (
        lambda: ir.IfStmt(T, (ir.Assume(T),), ()),
        "IfStmt(cond=BoolLit(value=True), then=(Assume(cond=BoolLit(value=True)),), other=())",
    ),
    (lambda: ir.Assume(T), "Assume(cond=BoolLit(value=True))"),
    (lambda: ir.Assert(T), "Assert(cond=BoolLit(value=True))"),
    (
        lambda: ir.SmtProgram({"D": DT}, {"x": ir.INT}, [ir.Assert(T)]),
        "SmtProgram(datatypes={'D': DatatypeDef(name='D', members=(('m', IntType()),))}, "
        "decls={'x': IntType()}, stmts=[Assert(cond=BoolLit(value=True))])",
    ),
    (
        lambda: storage_tree.TreeNode(sa.StructType("S"), [storage_tree.TreeEdge("m", 0, LEAF)]),
        "TreeNode(ty=StructType(name='S'), edges=[TreeEdge(label='m', ordinal=0, "
        "target=TreeNode(ty=ValueType(kind='int'), edges=[]))])",
    ),
    (
        lambda: storage_tree.TreeEdge(None, 1, LEAF),
        "TreeEdge(label=None, ordinal=1, target=TreeNode(ty=ValueType(kind='int'), edges=[]))",
    ),
    (lambda: translate.AssertInfo(0, 4, "x == 1", 2), "AssertInfo(ordinal=0, line=4, text='x == 1', bound=2)"),
    (
        lambda: translate.TranslatedFunction("f", "p", [], {"x!1": "x"}, True),
        "TranslatedFunction(name='f', program='p', asserts=[], entry={'x!1': 'x'}, is_constructor=True)",
    ),
    (lambda: ssa.SsaResult("p", {"x": "x!1"}), "SsaResult(program='p', final_versions={'x': 'x!1'})"),
    (lambda: ireval.VArray(0, {1: 2}), "VArray(default=0, entries={1: 2})"),
    (lambda: ireval.VData("D", (1,)), "VData(datatype='D', members=(1,))"),
    (
        lambda: ireval.EvalResult("assert-failed", {"x": 1}, 0),
        "EvalResult(status='assert-failed', env={'x': 1}, failed_index=0)",
    ),
    (lambda: oracle.Struct("S", {"m": 1}), "Struct(struct='S', members={'m': 1})"),
    (lambda: oracle.Array(sa.INT, {0: 5}, 1), "Array(elem=ValueType(kind='int'), slots={0: 5}, length=1)"),
    (
        lambda: oracle.Mapping(sa.INT, sa.BOOL, {1: True}),
        "Mapping(key=ValueType(kind='int'), value=ValueType(kind='bool'), slots={1: True})",
    ),
    (lambda: oracle.AssertOutcome(0, 4, True), "AssertOutcome(ordinal=0, line=4, passed=True)"),
    (
        lambda: oracle.ExecResult({"r": 1}, [oracle.AssertOutcome(0, 4, False)], "m"),
        "ExecResult(returns={'r': 1}, asserts=[AssertOutcome(ordinal=0, line=4, passed=False)], state='m')",
    ),
    (lambda: solver.SolverVerdict("sat", {"x": "1"}, "d"), "SolverVerdict(kind='sat', model={'x': '1'}, detail='d')"),
    (
        lambda: verify.AssertResult(4, "x == 1", "verified", {"x": "1"}, "d", 0.5),
        "AssertResult(line=4, text='x == 1', verdict='verified', model={'x': '1'}, detail='d', time_seconds=0.5)",
    ),
    (
        lambda: verify.FunctionReport("f", [], "u", ["s"], "p"),
        "FunctionReport(name='f', asserts=[], unsupported='u', smt_scripts=['s'], program='p')",
    ),
    (
        lambda: verify.VerifyReport([], "e", "u", ["w"], "c"),
        "VerifyReport(functions=[], error='e', unsupported='u', warnings=['w'], contract='c')",
    ),
    (
        lambda: harness.TestOutcome("t.sol", ["holds"], "correct", 0.5, "d"),
        "TestOutcome(test_id='t.sol', expected=['holds'], observed='correct', wall_time_seconds=0.5, detail='d')",
    ),
    (
        lambda: harness.ClassSummary("c", [harness.TestOutcome("t.sol", [], "error", 0.0)]),
        "ClassSummary(name='c', tests=[TestOutcome(test_id='t.sol', expected=[], observed='error', "
        "wall_time_seconds=0.0, detail='')])",
    ),
    (
        lambda: harness.FuzzOutcome(3, "correct", 2, "d", 0.5, {"ParseError": 1}),
        "FuzzOutcome(seed=3, observed='correct', compared=2, detail='d', wall_time_seconds=0.5, "
        "rejections={'ParseError': 1})",
    ),
    # defaults
    (lambda: sa.IdentExpr("x"), "IdentExpr(line=0, col=0, ty=None, loc=None, name='x', decl_kind=None)"),
    (lambda: sa.Expr(), "Expr(line=0, col=0, ty=None, loc=None)"),
    (lambda: sa.Stmt(), "Stmt(line=0)"),
    (
        lambda: sa.AssignStmt([], []),
        "AssignStmt(line=0, lhs=[], rhs=[], tuple_form=False)",
    ),
    (lambda: sa.StructMember("m", sa.INT), "StructMember(name='m', ty=ValueType(kind='int'), line=0)"),
    (lambda: sa.StructDef("S", []), "StructDef(name='S', members=[], line=0)"),
    (
        lambda: sa.Param(sa.INT, None, "x"),
        "Param(ty=ValueType(kind='int'), data_loc=None, name='x', line=0, name_source='')",
    ),
    (
        lambda: sa.Function("f", [], [], []),
        "Function(name='f', params=[], returns=[], body=[], is_constructor=False, line=0)",
    ),
    (
        lambda: sa.Contract("C", [], [], None, []),
        "Contract(name='C', structs=[], state_vars=[], constructor=None, functions=[], warnings=[], resolved=False)",
    ),
    (lambda: ir.SmtProgram(), "SmtProgram(datatypes={}, decls={}, stmts=[])"),
    (lambda: storage_tree.TreeNode(None), "TreeNode(ty=None, edges=[])"),
    (
        lambda: storage_tree.default_context_tree(sa.INT),
        "TreeNode(ty=None, edges=[TreeEdge(label='defaultctx$int', ordinal=0, target=TreeNode("
        "ty=MappingType(key=ValueType(kind='int'), value=ValueType(kind='int')), edges=[TreeEdge(label=None, "
        "ordinal=0, target=TreeNode(ty=ValueType(kind='int'), edges=[]))]))])",
    ),
    (
        lambda: translate.TranslatedFunction("f", "p", [], {}),
        "TranslatedFunction(name='f', program='p', asserts=[], entry={}, is_constructor=False)",
    ),
    (lambda: ireval.VArray(0), "VArray(default=0, entries={})"),
    (lambda: ireval.EvalResult("ok", {}), "EvalResult(status='ok', env={}, failed_index=None)"),
    (lambda: oracle.Array(sa.INT), "Array(elem=ValueType(kind='int'), slots={}, length=0)"),
    (
        lambda: oracle.Mapping(sa.INT, sa.INT),
        "Mapping(key=ValueType(kind='int'), value=ValueType(kind='int'), slots={})",
    ),
    (lambda: solver.SolverVerdict("unsat"), "SolverVerdict(kind='unsat', model={}, detail='')"),
    (
        lambda: verify.AssertResult(4, "x", "error"),
        "AssertResult(line=4, text='x', verdict='error', model={}, detail='', time_seconds=0.0)",
    ),
    (
        lambda: verify.FunctionReport("f"),
        "FunctionReport(name='f', asserts=[], unsupported=None, smt_scripts=[], program=None)",
    ),
    (
        lambda: verify.VerifyReport(),
        "VerifyReport(functions=[], error=None, unsupported=None, warnings=[], contract=None)",
    ),
    (lambda: harness.ClassSummary("c"), "ClassSummary(name='c', tests=[])"),
    (
        lambda: harness.FuzzOutcome(3, "error", 0),
        "FuzzOutcome(seed=3, observed='error', compared=0, detail='', wall_time_seconds=0.0, rejections={})",
    ),
]


def first_instance(cls):
    return next(build() for build, _ in INSTANCES if type(build()) is cls)


def spec(cls) -> list[tuple[str, bool, bool]]:
    """(name, compared, printed) of each field of `cls`, in order."""
    return [(f.strip("~!"), "~" not in f, "!" not in f) for f in FIELDS[cls].split()]


class Other:
    """A value equal to nothing else."""

    def __eq__(self, other):
        return other is self

    __hash__ = object.__hash__


def test_every_class_has_one_full_instance():
    assert [type(build()) for build, _ in INSTANCES[: len(FIELDS)]] == list(FIELDS)


@pytest.mark.parametrize("build, text", INSTANCES, ids=[text.split("(")[0] for _, text in INSTANCES])
def test_repr(build, text):
    assert repr(build()) == text


def test_loc_members_are_singletons_that_read_as_an_enum():
    """`sol_ast.Loc` is a plain class of four members: they print as an
    enum's do, compare and hash by identity, and come back as themselves
    from copies and pickles."""
    members = [sa.Loc.VALUE, sa.Loc.STORAGE, sa.Loc.STORPTR, sa.Loc.MEMORY]
    assert len({id(m) for m in members}) == 4
    assert [repr(m) for m in members] == [
        "<Loc.VALUE: 'value'>", "<Loc.STORAGE: 'storage'>", "<Loc.STORPTR: 'storptr'>", "<Loc.MEMORY: 'memory'>",
    ]
    assert [str(m) for m in members] == ["Loc.VALUE", "Loc.STORAGE", "Loc.STORPTR", "Loc.MEMORY"]
    assert type(sa.Loc.VALUE).__eq__ is object.__eq__ and type(sa.Loc.VALUE).__hash__ is object.__hash__
    # the translator keys its type table by (type, location)
    table = {(sa.INT, m): n for n, m in enumerate(members)}
    assert [table[sa.INT, m] for m in members] == [0, 1, 2, 3]
    for m in members:
        assert copy.copy(m) is m and copy.deepcopy(m) is m and copy.deepcopy([m, (m,)])[1][0] is m
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) is m


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_print_in_order(cls):
    """The repr lists the printed fields in the declared order; every
    field is an attribute."""
    obj = first_instance(cls)
    printed = ", ".join(f"{name}={getattr(obj, name)!r}" for name, _, shown in spec(cls) if shown)
    assert repr(obj) == f"{cls.__name__}({printed})"


@pytest.mark.parametrize("cls", [c for c in FIELDS if c not in TYPES], ids=lambda c: c.__name__)
def test_equality_reads_the_compared_fields(cls):
    obj = first_instance(cls)
    assert obj == first_instance(cls) and obj == copy.copy(obj) and not obj != copy.copy(obj)
    for name, compared, _ in spec(cls):
        changed = copy.copy(obj)
        object.__setattr__(changed, name, Other())
        assert (obj == changed) is not compared, name
        assert (obj != changed) is compared, name
    # same fields, other class: not equal
    assert all(obj != build() for build, _ in INSTANCES if type(build()) is not cls)


@pytest.mark.parametrize("cls", [c for c in FIELDS if c not in TYPES + VALUES], ids=lambda c: c.__name__)
def test_mutable_records_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(first_instance(cls))


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_memrefs_and_paths_are_immutable_values(cls):
    obj = first_instance(cls)
    (name, _, _), = spec(cls)
    twin = cls(getattr(obj, name))
    assert twin == obj and twin is not obj and hash(twin) == hash(obj)
    assert {obj: 1}[twin] == 1
    with pytest.raises(AttributeError):
        setattr(obj, name, 4)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert obj == twin
    assert copy.deepcopy(obj) == obj and pickle.loads(pickle.dumps(obj)) == obj


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
def test_types_are_immutable_identity_values(cls):
    t = first_instance(cls)
    assert first_instance(cls) is t
    assert type(t).__eq__ is object.__eq__ and type(t).__hash__ is object.__hash__
    assert copy.copy(t) is t and copy.deepcopy(t) is t and pickle.loads(pickle.dumps(t)) is t
    for name, _, _ in spec(cls) or [("anything", True, True)]:
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert first_instance(cls) is t and repr(t) == repr(first_instance(cls))
