"""The superblock backend must be indistinguishable from the interpreter.

Three layers of evidence:

* a suite sweep — every benchmark analog runs under both backends
  through a full event pipeline (profiler + chunked trace builder) and
  must produce byte-identical trace columns, profiles, pipeline stats
  and run results;
* hypothesis — random branchy looping programs, where the compiled
  self-loop and trace-inlining paths must match the interpreter's final
  architectural state and event stream exactly, and random programs of
  loads, stores and environment calls, where the inline page-view
  accesses must also leave every page byte-identical;
* the :mod:`repro.sim.api` resolution rules themselves.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm.assembler import assemble
from repro.pipeline.bus import BranchEventBus
from repro.pipeline.consumers import InterleaveConsumer, TraceBuilder
from repro.sim import (
    BACKENDS,
    DEFAULT_BACKEND,
    InterpBackend,
    Simulator,
    SimulatorBackend,
    SuperblockBackend,
    backend_names,
    get_backend,
)
from repro.workloads import ALL_BENCHMARKS, build_workload, get_benchmark

#: Small scale + a fuel cap keep the sweep fast; truncation is
#: deterministic, so identity on the truncated prefix is just as strong.
SCALE = 0.02
FUEL_CAP = 150_000

#: Two cheap kernels for CI smoke (mirrored by the workflow's
#: backend-differential job).
SMOKE_KERNELS = ("plot", "pgp")


def _pipeline_run(built, backend, chunk_events=None):
    """Run *built* under *backend* with the full fused pipeline."""
    profiler = InterleaveConsumer(label="diff")
    builder = TraceBuilder(label="diff")
    kwargs = {} if chunk_events is None else {"chunk_events": chunk_events}
    bus = BranchEventBus([profiler, builder], **kwargs)
    sim = Simulator(
        built.program,
        input_data=built.input_data,
        branch_hook=bus,
        random_seed=built.spec.random_seed,
        backend=backend,
    )
    result = sim.run(max_instructions=FUEL_CAP)
    bus.finish()
    trace = builder.result
    profile = profiler.result
    profile_doc = json.dumps(
        {
            "branches": {
                pc: [s.executions, s.taken]
                for pc, s in sorted(profile.branches.items())
            },
            "pairs": {
                f"{a}:{b}": count
                for (a, b), count in sorted(profile.pairs.items())
            },
        },
        sort_keys=True,
    )
    stats = bus.stats
    return (
        trace.pcs.tobytes(),
        trace.targets.tobytes(),
        trace.taken.tobytes(),
        trace.timestamps.tobytes(),
        profile_doc,
        (stats.events, stats.delivered, stats.chunk_flushes),
        (
            result.instructions,
            result.conditional_branches,
            result.taken_branches,
            result.halted,
            result.exit_code,
            result.output,
        ),
    )


@pytest.mark.parametrize("kernel", ALL_BENCHMARKS)
def test_suite_kernel_is_byte_identical(kernel):
    built = build_workload(get_benchmark(kernel, scale=SCALE))
    assert _pipeline_run(built, "interp") == _pipeline_run(
        built, "superblock"
    )


@pytest.mark.parametrize("kernel", SMOKE_KERNELS)
def test_smoke_kernels_with_tiny_chunks(kernel):
    # a 64-event chunk forces thousands of mid-run flushes: the compiled
    # bus mode must hit exactly the interpreter's chunk boundaries
    built = build_workload(get_benchmark(kernel, scale=SCALE))
    assert _pipeline_run(built, "interp", chunk_events=64) == _pipeline_run(
        built, "superblock", chunk_events=64
    )


# -- hypothesis: random branchy looping programs --------------------------

_REGS = list(range(5, 13))
_BRANCH_OPS = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]
_ALU_OPS = ["add", "sub", "mul", "and", "or", "xor", "sll", "srl", "sra"]

_block = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from(_ALU_OPS),
            st.sampled_from(_REGS),
            st.sampled_from(_REGS),
            st.sampled_from(_REGS),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from(_BRANCH_OPS),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
)


def _events(sim_cls, program, backend):
    events = []

    class Recorder:
        def on_branch(self, pc, target, taken, timestamp):
            events.append((pc, target, taken, timestamp))

    sim = sim_cls(program, branch_hook=Recorder(), backend=backend)
    sim.run(max_instructions=200_000)
    return events, list(sim.state.regs), sim.state.pc, sim.state.halted


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(
        st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        min_size=len(_REGS),
        max_size=len(_REGS),
    ),
    blocks=st.lists(_block, min_size=1, max_size=6),
    trip=st.integers(min_value=1, max_value=9),
)
def test_random_branchy_loop_matches_interpreter(seeds, blocks, trip):
    # an outer counted loop (exercising the compiled self-loop path)
    # around blocks of ALU work, each ending in a forward conditional
    # branch that skips the next block
    lines = ["main:"]
    for reg, value in zip(_REGS, seeds):
        lines.append(f"    li x{reg}, {value}")
    lines.append(f"    li x13, {trip}")
    lines.append("loop:")
    for i, (alu, branch, rs1, rs2) in enumerate(blocks):
        lines.append(f"block{i}:")
        for op, rd, a, b in alu:
            lines.append(f"    {op} x{rd}, x{a}, x{b}")
        lines.append(f"    {branch} x{rs1}, x{rs2}, block{i + 1}")
        lines.append(f"    addi x{rs1}, x{rs1}, 1")
    lines.append(f"block{len(blocks)}:")
    lines.append("    addi x13, x13, -1")
    lines.append("    bne x13, x0, loop")
    lines.append("    halt")
    program = assemble("\n".join(lines))

    interp = _events(Simulator, program, "interp")
    superblock = _events(Simulator, program, "superblock")
    assert interp == superblock


# -- hypothesis: loads and stores ----------------------------------------

#: Base addresses that hit each memory path: the data pages (resident at
#: load), page offsets 4092-4095 (with small immediates, words cross the
#: page), a page nothing touches before, and int32 values whose sum with
#: an immediate wraps past 2**32 or below zero.
_BASES = [
    0x0010_0000, 0x0010_0002, 0x0020_0FFC, 0x0020_0FFD, 0x0030_0000,
    -4, -2, 6, 0x7FFF_FFFC, -(1 << 31),
]
_IMMS = [0, 1, 2, 3, 4, 5, 8, -1, -3, -4, -8, -16, 4092, 4093, 4095, -4096]
_BASE_REGS = list(range(20, 24))

_mem_item = st.one_of(
    st.tuples(
        st.sampled_from(["lw", "sw", "lb", "sb"]),
        st.sampled_from(_REGS),
        st.sampled_from(_BASE_REGS),
        st.sampled_from(_IMMS),
    ),
    st.tuples(
        st.sampled_from(_ALU_OPS),
        st.sampled_from(_REGS),
        st.sampled_from(_REGS),
        st.sampled_from(_REGS),
    ),
    # an environment call inside the region: print a1, input size, or
    # the seeded random stream (the syscall number goes in a0 = x10)
    st.tuples(st.just("ecall"), st.sampled_from([1, 4, 6])),
)

_mem_block = st.tuples(
    st.lists(_mem_item, min_size=1, max_size=6),
    st.sampled_from(_BRANCH_OPS),
    st.sampled_from(_REGS),
    st.sampled_from(_REGS),
)


def _machine(program, backend):
    events = []

    class Recorder:
        def on_branch(self, pc, target, taken, timestamp):
            events.append((pc, target, taken, timestamp))

    sim = Simulator(program, branch_hook=Recorder(), backend=backend,
                    input_data=b"abc")
    sim.run(max_instructions=200_000)
    state = sim.state
    return (
        events, list(state.regs), state.pc, state.halted,
        bytes(sim.environment.output),
        sorted(state.memory.export_pages().items()),
    )


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(
        st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        min_size=len(_REGS),
        max_size=len(_REGS),
    ),
    bases=st.lists(
        st.one_of(
            st.sampled_from(_BASES),
            st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
        ),
        min_size=len(_BASE_REGS),
        max_size=len(_BASE_REGS),
    ),
    blocks=st.lists(_mem_block, min_size=1, max_size=5),
    trip=st.integers(min_value=1, max_value=6),
)
def test_random_memory_program_matches_interpreter(seeds, bases, blocks,
                                                   trip):
    # the loop (a compiled self-loop) stores to a fresh page on every
    # iteration and reads it back, so pages are created mid-region; the
    # blocks mix ALU work with loads and stores at aligned, unaligned,
    # page-crossing, untouched and wrapping addresses and with ecalls
    lines = ["main:"]
    for reg, value in zip(_REGS, seeds):
        lines.append(f"    li x{reg}, {value}")
    for reg, value in zip(_BASE_REGS, bases):
        lines.append(f"    li x{reg}, {value}")
    lines.append("    li x24, 0x400000")
    lines.append("    li x25, 4096")
    lines.append(f"    li x13, {trip}")
    lines.append("loop:")
    lines.append("    sw x5, 4(x24)")
    lines.append("    lw x6, 4(x24)")
    lines.append("    lb x7, 5(x24)")
    lines.append("    add x24, x24, x25")
    for i, (items, branch, rs1, rs2) in enumerate(blocks):
        lines.append(f"block{i}:")
        for item in items:
            if item[0] == "ecall":
                lines.append(f"    li x10, {item[1]}")
                lines.append("    ecall")
            else:
                op, a, b, c = item
                if op in _ALU_OPS:
                    lines.append(f"    {op} x{a}, x{b}, x{c}")
                else:
                    lines.append(f"    {op} x{a}, {c}(x{b})")
        lines.append(f"    {branch} x{rs1}, x{rs2}, block{i + 1}")
        lines.append(f"    addi x{rs1}, x{rs1}, 1")
    lines.append(f"block{len(blocks)}:")
    lines.append("    addi x13, x13, -1")
    lines.append("    bne x13, x0, loop")
    lines.append("    halt")
    lines.append(".data")
    lines.append("buf: .word 1, -2, 0x7FFFFFFF, -2147483648")
    # neighbouring resident pages, so a lookup of the wrong page hits
    lines.append("    .space 8192")
    program = assemble("\n".join(lines))

    assert _machine(program, "interp") == _machine(program, "superblock")


# -- backend resolution ----------------------------------------------------


def test_backend_registry():
    assert backend_names() == ["interp", "superblock"]
    assert DEFAULT_BACKEND == "superblock"
    assert isinstance(BACKENDS["interp"], InterpBackend)
    assert isinstance(BACKENDS["superblock"], SuperblockBackend)


def test_get_backend_resolution():
    assert get_backend(None).name == "superblock"
    assert get_backend("superblock").name == "superblock"
    instance = SuperblockBackend()
    assert get_backend(instance) is instance
    assert isinstance(instance, SimulatorBackend)
    with pytest.raises(ValueError, match="unknown simulation backend"):
        get_backend("jit")
    with pytest.raises(ValueError, match="unknown simulation backend"):
        get_backend(42)


def test_simulator_accepts_backend_instance():
    program = assemble("main:\n    li x5, 7\n    halt")
    sim = Simulator(program, backend=SuperblockBackend())
    sim.run(allow_truncation=False)
    assert sim.state.read(5) == 7
    assert sim.backend.name == "superblock"
