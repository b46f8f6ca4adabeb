"""Workload program builder.

Turns a declarative :class:`WorkloadSpec` — phases of kernel calls, possibly
with replicated kernel instances — into an assembled
:class:`~repro.isa.program.Program` plus its input bytes.

Replication is the mechanism for reaching realistic *static* branch counts:
``KernelCall(kernel="fsm", instance=7)`` instantiates a 7th textual copy of
the FSM kernel at a distinct address, the way a large program has many
distinct functions with similar structure (the paper's gcc has >16k static
conditional branches; analogs approximate scale with copies).

Driver structure (generated assembly)::

    main:
        for round in rounds:            # outer loop in s1
            for each phase:
                for i in phase.iterations:   # loop in s0
                    call <kernel><suffix> with its arguments
                    s2 += a0                 # result checksum
        print s2; exit 0

Scratch regions are assigned per (kernel, instance) pair from a fixed arena
so instances never share state.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..asm import assemble
from ..isa.program import Program
from .inputs import make_input
from .kernels import get_kernel

SCRATCH_BASE = 0x0040_0000
SCRATCH_ALIGN = 0x1000  # 4 KiB granularity


@dataclass(frozen=True)
class KernelCall:
    """One call in a phase.

    Attributes:
        kernel: registry name.
        instance: which textual copy of the kernel to call.
        args: integer arguments.  For kernels with scratch, the scratch
            address is passed in ``a0`` and *args* fill ``a1``/``a2``; for
            scratch-free kernels *args* start at ``a0``.
    """

    kernel: str
    instance: int = 0
    args: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.instance < 0:
            raise ValueError("instance must be non-negative")
        if len(self.args) > 3:
            raise ValueError("at most three integer arguments are supported")


@dataclass(frozen=True)
class PhaseSpec:
    """A phase: a call sequence repeated *iterations* times."""

    calls: Tuple[KernelCall, ...]
    iterations: int = 1

    def __post_init__(self) -> None:
        if not self.calls:
            raise ValueError("phase must contain at least one call")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


@dataclass(frozen=True)
class InputSpec:
    """Input-set description: generator kind, size and seed."""

    kind: str = "text"
    size: int = 4096
    seed: int = 0


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete benchmark analog.

    Attributes:
        name: benchmark label (e.g. ``"compress"``).
        phases: phase list, executed in order each round.
        rounds: whole-phase-list repetitions (phase *revisits* are what
            create cross-phase temporal separation in the trace).
        input: input-set description.
        random_seed: seed for the in-simulator RANDOM syscall.
        description: one-line summary of what the analog models.
        fuel: recommended instruction budget when simulating (the paper's
            "first 500 million instructions" cap, downscaled).
    """

    name: str
    phases: Tuple[PhaseSpec, ...]
    rounds: int = 1
    input: InputSpec = field(default_factory=InputSpec)
    random_seed: int = 0x2545F491
    description: str = ""
    fuel: int = 5_000_000
    #: (min, max) filler words inserted before each kernel instance,
    #: scattering the functions across a realistically large text segment
    #: so PC-indexed tables alias the way they do for real binaries.
    #: None disables scattering (functions packed contiguously).
    text_scatter: Optional[Tuple[int, int]] = (256, 2048)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("workload must have at least one phase")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass(frozen=True)
class BuiltWorkload:
    """Assembly output: the program, its input bytes, and metadata."""

    spec: WorkloadSpec
    program: Program
    input_data: bytes
    scratch_map: Dict[Tuple[str, int], int]

    @property
    def static_conditional_branches(self) -> int:
        """Static conditional branch count of the built program."""
        return len(self.program.static_conditional_branches())

    def kernel_extents(self) -> Dict[Tuple[str, int], Tuple[int, int]]:
        """Text-segment extent per kernel instance: key -> (start, end).

        Derived from the instances' entry symbols; the driver occupies
        [text_base, first entry).  Used by the branch-alignment transform
        to attribute static branches to the kernel instance that owns
        them.
        """
        entries: List[Tuple[int, Tuple[str, int]]] = []
        for symbol, address in self.program.symbols.items():
            key = _entry_symbol_key(symbol)
            if key is not None:
                entries.append((address, key))
        entries.sort()
        text_end = self.program.text_base + 4 * len(self.program)
        extents: Dict[Tuple[str, int], Tuple[int, int]] = {}
        for i, (start, key) in enumerate(entries):
            end = entries[i + 1][0] if i + 1 < len(entries) else text_end
            extents[key] = (start, end)
        return extents


def _entry_symbol_key(symbol: str) -> Optional[Tuple[str, int]]:
    """Map an entry label like ``fsm_3`` back to its instance key."""
    from .kernels import kernel_registry

    registry = kernel_registry()
    if symbol in registry:
        return (symbol, 0)
    if "_" in symbol:
        base, _, tail = symbol.rpartition("_")
        if base in registry and tail.isdigit():
            return (base, int(tail))
    return None


def _suffix(kernel: str, instance: int) -> str:
    return "" if instance == 0 else f"_{instance}"


def workload_source(
    spec: WorkloadSpec,
    explicit_pads: Optional[Dict[Tuple[str, int], int]] = None,
) -> Tuple[str, Dict[Tuple[str, int], int]]:
    """Generate the assembly text for *spec*: driver + kernel instances.

    Returns ``(source, scratch_map)``.  The text alone determines the
    assembled program, so it is what artifact digests hash; generating
    it costs a fraction of a millisecond, assembling it far more.

    Args and raises as for :func:`build_workload`.
    """
    # collect the distinct kernel instances used
    instances: List[Tuple[str, int]] = []
    seen = set()
    for phase in spec.phases:
        for call in phase.calls:
            get_kernel(call.kernel)  # raises KeyError early for bad names
            key = (call.kernel, call.instance)
            if key not in seen:
                seen.add(key)
                instances.append(key)

    # assign scratch regions
    scratch_map: Dict[Tuple[str, int], int] = {}
    cursor = SCRATCH_BASE
    for key in instances:
        kernel = get_kernel(key[0])
        if kernel.scratch_bytes > 0:
            scratch_map[key] = cursor
            size = (
                (kernel.scratch_bytes + SCRATCH_ALIGN - 1)
                // SCRATCH_ALIGN
                * SCRATCH_ALIGN
            )
            cursor += size

    driver = _emit_driver(spec, scratch_map)
    if explicit_pads is not None:
        pads = [explicit_pads.get(key, 0) for key in instances]
    else:
        pads = _scatter_pads(spec, len(instances))
    bodies: List[str] = []
    for (kernel, instance), pad in zip(instances, pads):
        if pad:
            bodies.append(f".skip {pad}")
        bodies.append(get_kernel(kernel).emit(_suffix(kernel, instance)))
    return "\n".join([driver] + bodies), scratch_map


def workload_input(spec: WorkloadSpec) -> bytes:
    """The input bytes the simulated program reads for *spec*."""
    return make_input(spec.input.kind, spec.input.size, spec.input.seed)


def build_workload(
    spec: WorkloadSpec,
    explicit_pads: Optional[Dict[Tuple[str, int], int]] = None,
) -> BuiltWorkload:
    """Assemble the driver + kernel instances for *spec*.

    Args:
        spec: the workload description.
        explicit_pads: optional filler words preceding each kernel instance
            (key -> words), overriding the spec's pseudo-random text
            scatter.  The branch-alignment transform uses this to realise
            a computed placement; instances absent from the map get no
            pad.

    Raises:
        KeyError: if a call names an unknown kernel.
        ValueError: on malformed specs (propagated from the dataclasses).
    """
    source, scratch_map = workload_source(spec, explicit_pads)
    return BuiltWorkload(
        spec=spec,
        program=assemble(source, name=spec.name),
        input_data=workload_input(spec),
        scratch_map=scratch_map,
    )


def _scatter_pads(spec: WorkloadSpec, count: int) -> List[int]:
    """Deterministic filler sizes (words) preceding each kernel instance."""
    if spec.text_scatter is None or count == 0:
        return [0] * count
    low, high = spec.text_scatter
    if not 0 <= low <= high:
        raise ValueError(f"bad text_scatter range {spec.text_scatter}")
    # xorshift-based, seeded by a stable hash of the workload name
    # (Python's hash() is salted per process and would not reproduce)
    state = (
        zlib.crc32(spec.name.encode("utf-8")) ^ 0x9E3779B9
    ) & 0xFFFFFFFF or 1
    pads: List[int] = []
    span = high - low + 1
    for _ in range(count):
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        pads.append(low + state % span)
    return pads


def _emit_driver(
    spec: WorkloadSpec, scratch_map: Dict[Tuple[str, int], int]
) -> str:
    lines: List[str] = [".text", "main:", "    li s1, 0", "    li s2, 0"]
    lines.append("main_round:")
    for phase_index, phase in enumerate(spec.phases):
        label = f"main_phase{phase_index}"
        lines.append(f"    li s0, 0")
        lines.append(f"{label}:")
        for call in phase.calls:
            lines.extend(_emit_call(call, scratch_map))
        lines.append("    addi s0, s0, 1")
        lines.append(f"    li t0, {phase.iterations}")
        lines.append(f"    blt s0, t0, {label}")
    lines.append("    addi s1, s1, 1")
    lines.append(f"    li t0, {spec.rounds}")
    lines.append("    blt s1, t0, main_round")
    lines.append("    mv a1, s2")
    lines.append("    li a0, 1")       # print the accumulated checksum
    lines.append("    ecall")
    lines.append("    li a0, 0")
    lines.append("    li a1, 0")
    lines.append("    ecall")
    return "\n".join(lines)


def _emit_call(
    call: KernelCall, scratch_map: Dict[Tuple[str, int], int]
) -> List[str]:
    kernel = get_kernel(call.kernel)
    suffix = _suffix(call.kernel, call.instance)
    lines: List[str] = []
    arg_regs = ["a0", "a1", "a2", "a3"]
    next_reg = 0
    scratch = scratch_map.get((call.kernel, call.instance))
    if scratch is not None:
        lines.append(f"    li a0, {scratch}")
        next_reg = 1
    for value in call.args:
        lines.append(f"    li {arg_regs[next_reg]}, {value}")
        next_reg += 1
    lines.append(f"    call {call.kernel}{suffix}")
    lines.append("    add s2, s2, a0")
    return lines


def run_workload(
    built: BuiltWorkload,
    max_instructions: int = 0,
    branch_hook: Optional[object] = None,
    backend: Optional[object] = None,
):
    """Simulate a built workload; returns the simulator's RunResult.

    Args:
        built: output of :func:`build_workload`.
        max_instructions: fuel limit; 0 uses the spec's recommended budget.
        branch_hook: optional branch observer (trace capture / analyzer).
        backend: simulation backend name or instance (default interpreter).
    """
    from ..sim.machine import Simulator

    simulator = Simulator(
        built.program,
        input_data=built.input_data,
        branch_hook=branch_hook,  # type: ignore[arg-type]
        random_seed=built.spec.random_seed,
        backend=backend,  # type: ignore[arg-type]
    )
    fuel = max_instructions or built.spec.fuel
    return simulator.run(max_instructions=fuel)


def replicated_calls(
    kernel: str,
    instances: int,
    args: Sequence[int] = (),
) -> Tuple[KernelCall, ...]:
    """Convenience: one call per instance 0..instances-1 with shared args."""
    if instances < 1:
        raise ValueError("instances must be >= 1")
    return tuple(
        KernelCall(kernel=kernel, instance=i, args=tuple(args))
        for i in range(instances)
    )
