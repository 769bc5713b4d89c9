"""Random program generator: determinism, validity, coverage."""

import hashlib
from collections import Counter
from pathlib import Path

import pytest

from solmem import generator, oracle
from solmem.generator import ProgramBuilder, random_program
from solmem.harness import run_fuzz
from solmem.oracle import Array, ExecResult, OracleError, run_constructor, serialize_storage
from solmem.parser import parse_source, parse_statement
from solmem.resolver import resolve_and_check, resolve_statement
from solmem.sol_ast import BOOL, INT, DynArrayType, FixArrayType, MappingType, is_value_type
from solmem.translate import translate_function

GOLDEN = Path(__file__).parent / "data" / "gen_seed0.sol"
# SHA-256 of random_program(s, 10) for s in 0..199, concatenated; the
# fuzz benchmark pins the same value
SEEDS_0_199_SHA256 = "44f3049e74541e374f340113124c4cd820e87b84779723aa64976cc2a84a15bc"
# the same over s in 0..999, so a sampler change that shows only past
# seed 199 is caught too
SEEDS_0_999_SHA256 = "cb2c6d43e58395612c3fa12740556d2e13412559f275b5b14203d431afe495c4"


def test_deterministic_per_seed():
    assert random_program(123, 10) == random_program(123, 10)
    assert random_program(123, 10) != random_program(124, 10)


def test_golden_snapshot_seed0():
    src = random_program(0, 10)
    assert src == GOLDEN.read_text()


@pytest.mark.parametrize("seed", range(60))
def test_generated_programs_compile_run_translate(seed):
    src = random_program(seed, 8)
    contract = resolve_and_check(parse_source(src))
    assert contract.constructor is not None
    run_constructor(contract)  # oracle accepts it
    for fn in contract.all_functions():
        translate_function(contract, fn)  # never unsupported


def test_coverage_across_seeds():
    """The operation mix must actually exercise the memory model."""
    corpus = "\n".join(random_program(seed, 10) for seed in range(40))
    assert " storage " in corpus  # local storage pointers
    assert " memory " in corpus
    assert ".push(" in corpus
    assert ".pop();" in corpus
    assert "delete " in corpus
    assert ") = (" in corpus  # tuple assignment
    assert "new " in corpus
    assert "mapping(" in corpus
    assert "assert(" in corpus


def test_golden_digest_and_rejections_seeds_0_199():
    digest, digest_200 = hashlib.sha256(), None
    rejections, rejections_200 = Counter(), None
    for seed in range(1000):
        if seed == 200:
            digest_200, rejections_200 = digest.hexdigest(), Counter(rejections)
        builder = ProgramBuilder(seed, 10)
        digest.update(builder.build().encode())
        rejections += builder.rejections
    assert digest_200 == SEEDS_0_199_SHA256
    # no self-inflicted rejects such as an empty `x.push();`
    assert rejections_200 == {"ParseError": 3, "ResolveError": 3}
    assert digest.hexdigest() == SEEDS_0_999_SHA256
    assert rejections == {"ParseError": 15, "ResolveError": 16}


def _checked_samples(seeds):
    """Build each seed's program, then require that every value-typed part
    the sampler lists, and every storage array's length, is what the
    interpreter reads on the kept state, of the same Python type (`False`
    is not 0). Each read is an `assert(E == E);` resolved against copies
    of the scope and taken names. Returns the sampled values."""
    values = []
    for seed in seeds:
        builder = ProgramBuilder(seed, 10)
        builder.build()
        ctor = builder.contract.constructor
        for text, ty, value in builder._storage_paths() + builder._pointer_paths() + builder._memory_values():
            if type(value) is Array:
                text, value = f"{text}.length", value.length
            elif not is_value_type(ty):
                continue
            stmt = parse_statement(f"assert({text} == {text});")
            resolve_statement(builder.contract, ctor, stmt, builder.scope.copy(), set(builder.used_names))
            read = builder.pristine.eval(stmt.cond.left)
            assert (read, type(read)) == (value, type(value)), (seed, text)
            values.append(value)
    return values


def test_every_sampled_value_is_what_the_interpreter_reads():
    assert len(_checked_samples(range(60))) > 600


def test_unwritten_storage_bools_sample_as_false(monkeypatch):
    """No storage slot of the generator's own types holds a bool that can
    be left unwritten, so these state variables supply some."""
    monkeypatch.setattr(generator, "_STATE_POOLS", [
        ("bits", FixArrayType(BOOL, 3)),
        ("marks", MappingType(INT, BOOL)),
        ("flags", DynArrayType(BOOL)),
    ])
    assert sum(value is False for value in _checked_samples(range(10))) > 10


def _state(machine):
    """Storage (array slots past `length` and mapping insertion order
    included), heap, next address and locals, as text."""
    return repr((machine.storage, machine.heap, machine.next_addr, machine.locals))


class _CheckedBuilder(ProgramBuilder):
    """Compares the pristine state with a full re-run after every
    accepted line, checks that a rejected line and the sampler's reads
    of the pristine state change nothing, and that every sampled read
    evaluates to the value sampled for it."""

    def _snapshot(self):
        """State, scope, taken names, body and lines, as compared values."""
        body = list(self.contract.constructor.body)
        return _state(self.pristine), dict(self.scope), set(self.used_names), body, list(self.lines)

    def commit(self, line: str) -> bool:
        before = self._snapshot()
        if not super().commit(line):
            assert self._snapshot() == before, line
            return False
        full = resolve_and_check(parse_source(self.source()))
        result = run_constructor(full)
        assert result.failed is None
        assert self.contract.constructor.body == full.constructor.body
        kept = _state(result.state)
        assert _state(self.pristine) == kept
        incremental = ExecResult({}, [], self.pristine)
        assert serialize_storage(incremental) == serialize_storage(result)
        # sample as the operations do, leaving the random stream as it was
        rng_state = self.rng.getstate()
        self._storage_paths()
        reads = self._value_reads()
        self.rng.setstate(rng_state)
        assert _state(self.pristine) == kept
        ctor = self.contract.constructor
        for text, ty, value in reads:
            # a declaration of the read, resolved against copies of the
            # scope and taken names; its initializer read on the kept state
            decl = parse_statement(f"{ty} sampled = {text};")
            resolve_statement(self.contract, ctor, decl, self.scope.copy(), set(self.used_names))
            assert self.pristine.eval(decl.init) == value, text
        assert _state(self.pristine) == kept
        return True


@pytest.mark.parametrize("seed", range(20))
def test_incremental_state_matches_full_rerun(seed):
    builder = _CheckedBuilder(seed, 10)
    assert builder.build() == random_program(seed, 10)
    assert builder.lines  # some lines were accepted and checked
    # these seeds reject no candidate, so reject a parse error, an
    # unknown name and a declaration whose initializer does not type
    for line in ("counter = ;", "undeclared = 1;", "bool v0 = 1;"):
        assert not builder.commit(line)
    assert builder.rejections == {"ParseError": 1, "ResolveError": 2}


def test_each_candidate_runs_once_on_the_kept_state(monkeypatch):
    """Checking a candidate runs that one statement, not the kept
    statements again; the interpreter runs a whole constructor only for
    each program's skeleton."""
    calls = Counter()
    real_exec, real_run, real_resolve = oracle.Machine.exec_stmt, generator.run_constructor, generator.resolve_statement

    def exec_stmt(machine, stmt):
        calls["exec_stmt"] += 1
        return real_exec(machine, stmt)

    def run_constructor(contract):
        calls["run_constructor"] += 1
        return real_run(contract)

    def resolve_statement(*args):
        real_resolve(*args)
        calls["resolved"] += 1

    monkeypatch.setattr(oracle.Machine, "exec_stmt", exec_stmt)
    monkeypatch.setattr(generator, "run_constructor", run_constructor)
    monkeypatch.setattr(generator, "resolve_statement", resolve_statement)
    for seed in range(200):
        ProgramBuilder(seed, 10).build()
    assert calls == {"exec_stmt": 2400, "resolved": 2400, "run_constructor": 200}


def test_interpreter_errors_are_not_rejected_candidates(monkeypatch):
    """An OracleError while checking a candidate line is a bug in the
    ground truth: it reaches the fuzz loop as an invalid seed instead of
    being counted as a rejection."""

    def broken(machine, stmt):
        raise OracleError("interpreter bug")

    # candidates run statement by statement on the kept state
    monkeypatch.setattr(oracle.Machine, "exec_stmt", broken)
    with pytest.raises(OracleError, match="interpreter bug"):
        ProgramBuilder(0, 10).build()
    [outcome] = run_fuzz(range(1))
    assert (outcome.observed, outcome.detail) == ("invalid", "pipeline error: interpreter bug")
    assert outcome.rejections == {}


def test_failing_sampled_assert_is_an_error(monkeypatch):
    """Each assert compares a read with the value sampled for it, so one
    that fails shows a wrong sampler: it raises, naming the line, and the
    fuzz loop reports the seed as invalid instead of dropping the
    assert."""
    real_reads = ProgramBuilder._value_reads

    def off_by_one(self):
        return [(text, ty, v if isinstance(v, bool) else v + 1) for text, ty, v in real_reads(self)]

    monkeypatch.setattr(ProgramBuilder, "_value_reads", off_by_one)
    with pytest.raises(OracleError, match=r"^sampled assert fails: assert\(.+ == -?\d+\);$"):
        ProgramBuilder(0, 10).build()
    [outcome] = run_fuzz(range(1))
    assert outcome.observed == "invalid"
    assert outcome.detail.startswith("pipeline error: sampled assert fails: assert(")
