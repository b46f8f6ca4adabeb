"""Unit tests for the superblock trace compiler itself.

The differential suite (``test_sim_backends.py``) establishes semantic
equivalence; these tests pin the compiler's mechanics: the per-image
code cache, lazy materialization, exact fuel accounting across compiled
regions, and the interpreter fallback for off-trace program counters.
"""

import pytest

from repro.asm.assembler import assemble
from repro.sim import FuelExhausted, Simulator
from repro.sim.compile import (
    FALLBACK_STEP,
    MAX_FN_INSTRUCTIONS,
    SuperblockExecutor,
    compile_program,
    compiled_table,
)

LOOP_SOURCE = """
main:
    li x5, 0
    li x6, 400
loop:
    addi x5, x5, 1
    bne x5, x6, loop
    halt
"""


def test_compiled_table_is_cached_per_image_and_mode():
    program = assemble(LOOP_SOURCE)
    again = assemble(LOOP_SOURCE)
    assert compiled_table(program, "none") is compiled_table(again, "none")
    assert compiled_table(program, "none") is not compiled_table(
        program, "hook"
    )
    other = assemble(LOOP_SOURCE.replace("400", "401"))
    assert compiled_table(other, "none") is not compiled_table(
        program, "none"
    )


def test_entries_materialize_lazily():
    table = compile_program(assemble(LOOP_SOURCE), "none")
    assert table  # the loop compiles
    for entry in table.values():
        function, worst, source, name = entry
        assert function is None  # nothing compiled until first execution
        assert 0 < worst <= MAX_FN_INSTRUCTIONS
        assert f"def {name}(" in source


def test_worst_case_never_overshoots_budget():
    # drive the loop in many tiny budget slices; each slice must retire
    # exactly its budget (FuelExhausted) or halt, never overshoot
    program = assemble(LOOP_SOURCE)
    sim = Simulator(program, backend="superblock")
    retired = 0
    for _ in range(10_000):
        before = sim.executor.instruction_count
        try:
            sim.run(max_instructions=7, allow_truncation=False)
        except FuelExhausted:
            assert sim.executor.instruction_count - before == 7
            retired += 7
        else:
            break
    assert sim.state.halted

    reference = Simulator(program, backend="interp")
    reference.run(allow_truncation=False)
    assert (
        sim.executor.instruction_count == reference.executor.instruction_count
    )
    assert list(sim.state.regs) == list(reference.state.regs)


def test_off_trace_pc_falls_back_to_interpreter():
    # point the resumed PC into the middle of a compiled trace: the
    # dispatcher has no entry there and must interpret its way out
    program = assemble(LOOP_SOURCE)
    table = compiled_table(program, "none")
    sim = Simulator(program, backend="superblock")
    sim.run(max_instructions=10, allow_truncation=True)
    assert isinstance(sim.executor, SuperblockExecutor)
    off_trace = sim.state.pc + 4
    assert off_trace not in table or sim.state.pc in table
    sim.state.pc = off_trace
    sim.run(max_instructions=FALLBACK_STEP, allow_truncation=True)
    # forward progress happened despite the off-trace entry point
    assert sim.executor.instruction_count > 10


def test_unanalyzable_program_runs_on_fallback():
    # an indirect jump straight at entry defeats trace formation for
    # the entry region; execution must still be exact
    source = """
main:
    li x5, 12
    la x6, target
    jalr x0, x6, 0
target:
    addi x5, x5, 30
    halt
"""
    program = assemble(source)
    sim = Simulator(program, backend="superblock")
    sim.run(allow_truncation=False)
    assert sim.state.read(5) == 42
    assert sim.state.halted


def test_compile_program_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown specialization mode"):
        compile_program(assemble(LOOP_SOURCE), "jit")


def test_compiled_loop_drains_chunks_at_back_edges():
    # the 400-iteration loop retires in one compiled call; its events
    # must be cut into chunks as the loop runs, not only after the call
    from repro.pipeline.bus import BranchEventBus

    staged_at_dispatch = []

    class Probe:
        name = "probe"

        def on_chunk(self, chunk):
            staged_at_dispatch.append(len(bus._pcs))

        def finish(self):
            return None

    bus = BranchEventBus([Probe()], chunk_events=16)
    sim = Simulator(assemble(LOOP_SOURCE), branch_hook=bus,
                    backend="superblock")
    sim.run(allow_truncation=False)
    assert len(bus._pcs) < 16  # the caller never sees a full chunk staged
    bus.finish()
    assert bus.stats.chunk_flushes == 25 and bus.stats.delivered == 400
    assert max(staged_at_dispatch[:-1]) == 16


def test_restored_snapshot_feeds_the_compiled_memory_path():
    # a restore replaces every page; compiled loads and stores index the
    # pages' int32 views, which must be the restored ones
    from repro.checkpoint.snapshot import restore_simulator, snapshot_simulator
    from repro.isa.program import DATA_BASE

    program = assemble("""
main:
    la x5, cell
    lw x6, 0(x5)
    addi x6, x6, 1
    sw x6, 4(x5)
    halt
.data
cell: .word 7, 0
""")
    snap = snapshot_simulator(Simulator(program, backend="superblock"))
    page_number = DATA_BASE >> 12
    page = bytearray(snap["pages"][page_number])
    page[0:4] = (41).to_bytes(4, "little")
    snap["pages"] = {**snap["pages"], page_number: bytes(page)}

    sim = Simulator(program, backend="superblock")
    sim.run(allow_truncation=False)  # compiled code ran on the old pages
    assert sim.state.read(6) == 8
    restore_simulator(sim, snap)
    sim.run(allow_truncation=False)
    assert isinstance(sim.executor, SuperblockExecutor)
    assert sim.state.read(6) == 42
    assert sim.state.memory.load_word(DATA_BASE + 4) == 42
    restored = sim.state.memory.export_pages()[page_number]
    assert restored[4:8] == (42).to_bytes(4, "little")
