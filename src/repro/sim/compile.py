"""Superblock trace specialization: the compiled simulation core.

The interpreter in :mod:`.executor` dispatches one instruction at a
time through a Python ``elif`` chain — fine for correctness, but the
profiling sweeps retire hundreds of millions of instructions and the
dispatch overhead dominates.  This module removes it for the common
case: at program load, the CFG is partitioned into single-entry traces
(:func:`~repro.static_analysis.superblocks.form_superblocks`), and each
trace is specialized into one generated Python function.  Registers
live in locals, immediates and branch targets are baked in as
constants, and the signed 32-bit wrap is inlined only where an
operation can actually leave the range.

Two region-growing steps make the compiled units large enough that the
per-call overhead stops mattering:

* **self-looping** — when a trace exit targets the trace's own head,
  the generated function loops in place (a ``while True`` with an exact
  fuel guard) instead of returning to the dispatcher, so a hot inner
  loop retires arbitrarily many iterations per call;
* **trace inlining** — a statically-known exit target is always another
  trace head (interior blocks have exactly one predecessor, verified by
  ``verify_cover``), so the successor trace's body is inlined at the
  exit site, up to a per-function size and nesting budget.

Every dynamic control transfer lands either on a trace head or on a
call-return point (``call + 4``); both get compiled entry points, so
the dispatch loop is one dict lookup per compiled region, not per
instruction.  The interpreter remains the fallback — and the semantic
ground truth — for three cases:

* a PC that is not a compiled entry (only possible after restoring a
  checkpoint taken mid-slice, or at a quarantined trace);
* a remaining fuel budget smaller than a region's worst case (a
  compiled region never retires a partial body, so entering it could
  overshoot the budget);
* any program whose CFG or cover cannot be formed.

Inside a region registers live in locals.  The body runs in a
``while True`` (once, unless the region loops), every exit stores its
``(next pc, retired, conditional, taken)`` tuple and ``break``s, and a
single epilogue writes back the registers the region can assign.
Loads and stores are inline too: an aligned word on a resident page is
read or written through the page's native int32 view, a byte through
the page itself (:meth:`~repro.sim.memory.Memory.page_tables`).  That is
exact because registers always hold wrapped int32 values and an aligned
word never crosses a page.  Everything else (unaligned or page-crossing
words, untouched pages, stores that create a page) calls the
:class:`~repro.sim.memory.Memory` methods the interpreter uses.  The
views are native-endian, so the word fast path is emitted only on
little-endian hosts (:data:`NATIVE_WORDS`); elsewhere every word access
calls the methods.

Branch observation is preserved exactly.  Three specializations of each
region exist, selected by the hook attached to the run:

* ``bus`` — the hook is a plain :class:`~repro.pipeline.bus.BranchEventBus`
  with no event limit: events are appended straight onto the bus's
  staged columns.  Full chunks are cut at region boundaries — at loop
  back-edges and after every compiled call — by
  :meth:`~repro.pipeline.bus.BranchEventBus.drain`, which slices the
  staged events into exact ``chunk_events`` chunks, so chunk boundaries
  — and therefore checkpoint bytes — are identical to the
  interpreter's.  ``stats.events`` is reconciled once per ``run`` call.
* ``hook`` — any other hook (or a bus with a limit): the generated code
  calls ``on_branch`` per event, exactly like the interpreter.
* ``none`` — no hook: no event code is emitted at all.

Compiled tables are cached per ``(program, mode)`` in a small
module-level LRU keyed by the program's content (instructions, entry
point, text base and data, compared by value, nothing encoded), so
engine workers and repeated runs of the same workload compile once.

Deliberate non-goal, matching the interpreter's behaviour: an exception
escaping mid-region (memory fault, syscall error) leaves the executor's
counters at the last completed unit of work, exactly as the interpreter
leaves them at the last completed ``run`` slice; both states are
unrecoverable and no artifact is persisted from them.
"""

from __future__ import annotations

import struct
import sys
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instructions import Instruction, Opcode
from ..isa.program import Program
from ..pipeline.bus import BranchEventBus
from ..static_analysis.cfg import build_cfg
from ..static_analysis.superblocks import form_superblocks
from .executor import Executor, FuelExhausted
from .hooks import BranchHook
from .state import MachineState, wrap32
from .syscalls import Environment

#: Instructions the interpreter fallback retires per dispatch attempt
#: before control returns to the region table.  Small enough that a
#: restored mid-trace PC reaches the next compiled entry quickly; large
#: enough that the retry loop is not itself a hot path.
FALLBACK_STEP = 64

#: Upper bound on instructions emitted into one generated function
#: (the entry trace plus everything inlined into it).  Also the
#: conservative per-call worst case charged against the fuel budget, so
#: it must stay below MIN_SLICE_INSTRUCTIONS (1024) or finely sliced
#: checkpoint runs would never enter compiled code.
MAX_FN_INSTRUCTIONS = 512

#: Nesting guard for inlining inside side-exit branches (CPython caps
#: block nesting around 100).
MAX_INDENT = 40

#: Compiled program tables kept alive across executors (per mode).
_CACHE_CAPACITY = 32

O = Opcode

#: ``taken`` predicate per conditional branch opcode, over the local
#: register expressions (registers always hold wrapped int32 values).
_BRANCH_PREDICATES = {
    O.BEQ: "{a} == {b}",
    O.BNE: "{a} != {b}",
    O.BLT: "{a} < {b}",
    O.BGE: "{a} >= {b}",
    O.BLTU: "({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF)",
    O.BGEU: "({a} & 0xFFFFFFFF) >= ({b} & 0xFFFFFFFF)",
}


#: Loads and stores, emitted inline by :meth:`_FnEmitter.memory_access`.
_MEMORY_OPS = frozenset((O.LW, O.SW, O.LB, O.SB))

#: Aligned words are read and written through native int32 views of the
#: pages, which match the simulated machine's little-endian words only
#: on a little-endian host with a 4-byte C int; elsewhere every word
#: access goes through the :class:`~repro.sim.memory.Memory` methods.
NATIVE_WORDS = sys.byteorder == "little" and struct.calcsize("i") == 4


class _NeedLoop(Exception):
    """First emission pass found an exit back to the entry head."""


def _wrap(expr: str) -> str:
    """Inline signed 32-bit two's-complement wrap of *expr*."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


class _FnEmitter:
    """Generates one compiled entry function (a trace suffix plus
    whatever neighbouring traces fit the inline budget).

    The body sits in a ``while True`` (run once unless the function
    loops back to its entry).  Every exit stores its result tuple in
    ``_x`` and ``break``s to the single epilogue, which writes back
    every register the function can assign and returns ``_x``.  Every
    register the function reads or assigns is loaded at entry, so
    registers a path never assigns write back their unchanged value.
    """

    def __init__(
        self,
        program: Program,
        positions_of: Dict[int, List[Tuple[int, Instruction]]],
        head_of: Dict[int, int],
        name: str,
        region_index: int,
        offset: int,
        mode: str,
        looping: bool,
    ) -> None:
        self.program = program
        self.positions_of = positions_of
        self.head_of = head_of
        self.name = name
        self.region_index = region_index
        self.offset = offset
        self.mode = mode
        self.looping = looping
        entry_index = positions_of[region_index][offset][0]
        self.entry_address = program.address_of(entry_index)
        self.body: List[str] = []
        #: (body position, indent, kind) of lines known only once the
        #: whole function is emitted: "writeback" (an ecall's) and
        #: "drain" (a loop back-edge's chunk check, bus mode only)
        self.pending: List[Tuple[int, int, str]] = []
        self.loads: Set[int] = set()
        self.assigned: Set[int] = set()
        self.helpers: Set[Opcode] = set()
        self.emitted = 0
        self.events = 0
        self.degenerate = False

    # -- low-level helpers -----------------------------------------------

    def emit(self, line: str, indent: int) -> None:
        self.body.append("    " * indent + line)

    def reg(self, number: int) -> str:
        if number == 0:
            return "0"
        self.loads.add(number)
        return f"r{number}"

    def assign(self, number: int) -> None:
        self.loads.add(number)
        self.assigned.add(number)

    def raw_exit(self, target: str, k: int, c: int, t: int,
                 indent: int) -> None:
        """Leave for the epilogue, which writes back and returns."""
        if self.looping:
            counts = f"_n + {k}, _c + {c}, _k + {t}"
        else:
            taken = f"{t} + _tkc" if self.degenerate else str(t)
            counts = f"{k}, {c}, {taken}"
        self.emit(f"_x = ({target}, {counts})", indent)
        self.emit("break", indent)

    def event(self, pc: int, target: int, k: int, indent: int) -> None:
        """Emit one branch event (outcome in ``_t``) at position *k*."""
        self.events += 1
        stamp = f"n0 + _n + {k}" if self.looping else f"n0 + {k}"
        if self.mode == "hook":
            self.emit(f"aux({pc}, {target}, _t, {stamp})", indent)
        elif self.mode == "bus":
            # staged only: full chunks are cut at loop back-edges and
            # after each compiled call (BranchEventBus.drain)
            self.emit(f"_pcs.append({pc})", indent)
            self.emit(f"_tgl.append({target})", indent)
            self.emit("_tkl.append(_t)", indent)
            self.emit(f"_tsl.append({stamp})", indent)

    # -- exits -----------------------------------------------------------

    def static_exit(self, target: int, k: int, c: int, t: int,
                    indent: int, path: Tuple[int, ...]) -> None:
        """Leave for a statically-known address: loop back to the entry,
        inline the successor trace, or return to the dispatcher."""
        if target == self.entry_address:
            if not self.looping:
                raise _NeedLoop
            self.emit(f"_n += {k}", indent)
            if c:
                self.emit(f"_c += {c}", indent)
            if t:
                self.emit(f"_k += {t}", indent)
            self.emit("if _b - _n >= __WORST__:", indent)
            self.pending.append((len(self.body), indent + 1, "drain"))
            self.emit("continue", indent + 1)
            self.raw_exit(str(target), 0, 0, 0, indent)
            return
        region = self.head_of.get(target)
        if (
            region is not None
            and target not in path
            and indent < MAX_INDENT
            and self.emitted + len(self.positions_of[region])
            <= MAX_FN_INSTRUCTIONS
        ):
            self.emit_region(region, 0, k, c, t, indent, path + (target,))
            return
        self.raw_exit(str(target), k, c, t, indent)

    # -- per-region emission ---------------------------------------------

    def emit_region(self, region_index: int, offset: int, k: int, c: int,
                    t: int, indent: int, path: Tuple[int, ...]) -> None:
        """Emit a trace suffix; every control path ends in an exit."""
        positions = self.positions_of[region_index]
        program = self.program
        last = len(positions) - 1
        for position in range(offset, len(positions)):
            index, ins = positions[position]
            pc = program.address_of(index)
            op = ins.opcode
            following: Optional[int] = None
            if position < last:
                following = program.address_of(positions[position + 1][0])
            self.emitted += 1
            k += 1

            if op in _BRANCH_PREDICATES:
                predicate = _BRANCH_PREDICATES[op].format(
                    a=self.reg(ins.rs1), b=self.reg(ins.rs2)
                )
                target = pc + ins.imm
                self.emit(f"_t = {predicate}", indent)
                self.event(pc, target, k - 1, indent)
                c += 1
                if target == pc + 4:
                    # degenerate branch: both directions continue; only
                    # the taken count depends on the outcome
                    self.emit("if _t:", indent)
                    if self.looping:
                        self.emit("_k += 1", indent + 1)
                    else:
                        self.degenerate = True
                        self.emit("_tkc += 1", indent + 1)
                    if following is None:
                        self.static_exit(pc + 4, k, c, t, indent, path)
                        return
                elif following is None:  # tail: both directions exit
                    self.emit("if _t:", indent)
                    self.static_exit(target, k, c, t + 1, indent + 1, path)
                    self.static_exit(pc + 4, k, c, t, indent, path)
                    return
                elif following == target:  # continue on the taken path
                    self.emit("if not _t:", indent)
                    self.static_exit(pc + 4, k, c, t, indent + 1, path)
                    t += 1
                else:  # continue on fallthrough; taken is the side exit
                    self.emit("if _t:", indent)
                    self.static_exit(target, k, c, t + 1, indent + 1, path)
            elif op is O.JAL:
                if ins.rd:
                    self.emit(f"r{ins.rd} = {pc + 4}", indent)
                    self.assign(ins.rd)
                target = pc + ins.imm
                if following != target:
                    # a call's CFG successor is its *return point* —
                    # dynamically, control always goes to the target
                    self.static_exit(target, k, c, t, indent, path)
                    return
            elif op is O.JALR:
                # destination before the link write, exactly like the
                # interpreter (matters when rd == rs1)
                self.emit(f"_d = ({self.reg(ins.rs1)} + {ins.imm}) & -4",
                          indent)
                if ins.rd:
                    self.emit(f"r{ins.rd} = {pc + 4}", indent)
                    self.assign(ins.rd)
                if following is None:
                    self.raw_exit("_d", k, c, t, indent)
                    return
                self.emit(f"if _d != {following}:", indent)
                self.raw_exit("_d", k, c, t, indent + 1)
            elif op is O.ECALL:
                # the environment sees the real machine state: write
                # every register back, point state.pc at the faulting
                # instruction, re-read a0 (the only register a syscall
                # may write)
                self.pending.append((len(self.body), indent, "writeback"))
                self.emit(f"state.pc = {pc}", indent)
                self.emit("env.handle(state)", indent)
                self.emit("r10 = regs[10]", indent)
                self.assign(10)
                self.emit("if state.halted:", indent)
                self.raw_exit(str(pc + 4), k, c, t, indent + 1)
            elif op is O.HALT:
                self.emit("state.halted = True", indent)
                self.raw_exit(str(pc + 4), k, c, t, indent)
                return
            elif op in _MEMORY_OPS:
                self.memory_access(ins, indent)
            else:
                self.straight_line(ins, indent)
        # the tail fell through: continue at the next address
        index, _ = positions[last]
        self.static_exit(program.address_of(index) + 4, k, c, t, indent,
                         path)

    def memory_access(self, ins: Instruction, indent: int) -> None:
        """Inline load/store: index the page (bytes) or its int32 view
        (aligned words) when the page is resident, else call the
        :class:`~repro.sim.memory.Memory` method, which also covers
        unaligned and page-crossing words and creates pages on store."""
        op = ins.opcode
        if op in (O.LW, O.LB) and not ins.rd:
            return  # x0 loads are skipped entirely, like the interpreter
        self.helpers.add(op)
        # The address is left unwrapped: a page lookup only hits for
        # 0 <= a < 2**32 (page numbers are wrapped addresses >> 12), where
        # the wrap is the identity; any other value misses and the
        # method, which wraps, does the access.
        a = self.reg(ins.rs1)
        if ins.imm:
            self.emit(f"_a = {a} + {ins.imm}", indent)
            a = "_a"
        if op is O.LW or op is O.SW:
            if not NATIVE_WORDS:
                # the int32 views would be byte-swapped on this host
                if op is O.LW:
                    self.emit(f"r{ins.rd} = _lw({a})", indent)
                    self.assign(ins.rd)
                else:
                    self.emit(f"_sw({a}, {self.reg(ins.rs2)})", indent)
                return
            self.emit(f"_w = _wg({a} >> 12)", indent)
            fast = f"_w is not None and not {a} & 3"
            word = f"_w[({a} & 4095) >> 2]"
            if op is O.LW:
                self.emit(f"r{ins.rd} = {word} if {fast} else _lw({a})",
                          indent)
                self.assign(ins.rd)
            else:
                value = self.reg(ins.rs2)
                self.emit(f"if {fast}: {word} = {value}", indent)
                self.emit(f"else: _sw({a}, {value})", indent)
            return
        self.emit(f"_p = _pg({a} >> 12)", indent)
        if op is O.LB:
            self.emit(
                f"r{ins.rd} = _p[{a} & 4095] if _p is not None else _lb({a})",
                indent,
            )
            self.assign(ins.rd)
        else:
            value = self.reg(ins.rs2)
            self.emit(f"if _p is not None: _p[{a} & 4095] = {value} & 255",
                      indent)
            self.emit(f"else: _sb({a}, {value})", indent)

    def straight_line(self, ins: Instruction, indent: int) -> None:
        op = ins.opcode
        rd, imm = ins.rd, ins.imm
        if not rd:
            return  # x0 writes are skipped entirely
        a = self.reg(ins.rs1)
        d = f"r{rd}"
        if op is O.ADDI:
            if a == "0":  # li
                line = f"{d} = {wrap32(imm)}"
            elif not imm:  # mv: the source already holds an int32
                line = f"{d} = {a}"
            else:  # the bias of the wrap absorbs the immediate
                line = (
                    f"{d} = (({a} + {imm + 0x80000000}) & 0xFFFFFFFF) "
                    f"- 0x80000000"
                )
        elif op in (O.ADD, O.SUB, O.MUL, O.AND, O.OR, O.XOR, O.SLL, O.SRL,
                    O.SRA, O.SLT, O.SLTU):
            b = self.reg(ins.rs2)
            if op is O.ADD:
                line = f"{d} = {_wrap(f'{a} + {b}')}"
            elif op is O.SUB:
                line = f"{d} = {_wrap(f'{a} - {b}')}"
            elif op is O.MUL:
                line = f"{d} = {_wrap(f'{a} * {b}')}"
            elif op is O.AND:
                line = f"{d} = {a} & {b}"
            elif op is O.OR:
                line = f"{d} = {a} | {b}"
            elif op is O.XOR:
                line = f"{d} = {a} ^ {b}"
            elif op is O.SLL:
                line = f"{d} = {_wrap(f'{a} << ({b} & 31)')}"
            elif op is O.SRL:
                line = f"{d} = {_wrap(f'({a} & 0xFFFFFFFF) >> ({b} & 31)')}"
            elif op is O.SRA:
                line = f"{d} = {a} >> ({b} & 31)"
            elif op is O.SLT:
                line = f"{d} = 1 if {a} < {b} else 0"
            else:  # SLTU
                line = (
                    f"{d} = 1 if ({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF) "
                    f"else 0"
                )
        elif op is O.ANDI:
            line = f"{d} = {a} & {imm}"
        elif op is O.ORI:
            # or/xor of in-range int32 values stays in range: the
            # interpreter's wrap32 is the identity here
            line = f"{d} = {a} | {imm}"
        elif op is O.XORI:
            line = f"{d} = {a} ^ {imm}"
        elif op is O.SLLI:
            line = f"{d} = {_wrap(f'{a} << {imm & 31}')}"
        elif op is O.SRLI:
            if imm & 31:
                # a 32-bit value shifted right by >= 1 is already in
                # signed range; the wrap would be the identity
                line = f"{d} = ({a} & 0xFFFFFFFF) >> {imm & 31}"
            else:
                line = f"{d} = {a}"
        elif op is O.SRAI:
            line = f"{d} = {a} >> {imm & 31}"
        elif op is O.SLTI:
            line = f"{d} = 1 if {a} < {imm} else 0"
        elif op is O.LUI:
            line = f"{d} = {wrap32(imm << 13)}"
        elif op in (O.DIV, O.REM):
            b = self.reg(ins.rs2)
            self.emit(f"_v = {b}", indent)
            self.emit("if _v == 0:", indent)
            if op is O.DIV:
                self.emit(f"{d} = -1", indent + 1)
                self.emit("else:", indent)
                self.emit(f"_q = abs({a}) // abs(_v)", indent + 1)
                self.emit(f"if ({a} < 0) != (_v < 0):", indent + 1)
                self.emit("_q = -_q", indent + 2)
                self.emit(f"{d} = {_wrap('_q')}", indent + 1)
            else:
                self.emit(f"{d} = {a}", indent + 1)
                self.emit("else:", indent)
                # |remainder| < |divisor| <= 2**31: always in range
                self.emit(f"_q = abs({a}) % abs(_v)", indent + 1)
                self.emit(f"if {a} < 0:", indent + 1)
                self.emit("_q = -_q", indent + 2)
                self.emit(f"{d} = _q", indent + 1)
            self.assign(rd)
            return
        else:  # pragma: no cover - every opcode is handled above
            raise NotImplementedError(f"no specialization for {op!r}")
        self.emit(line, indent)
        self.assign(rd)

    # -- assembly --------------------------------------------------------

    def source(self) -> str:
        self.emit_region(
            self.region_index, self.offset, 0, 0, 0, 2, (self.entry_address,)
        )
        lines = [
            f"def {self.name}(regs, memory, _pg, _wg, env, state, aux, n0, "
            f"_b):"
        ]
        for number in sorted(self.loads):
            lines.append(f"    r{number} = regs[{number}]")
        helper_names = {
            O.LW: "_lw = memory.load_word", O.SW: "_sw = memory.store_word",
            O.LB: "_lb = memory.load_byte", O.SB: "_sb = memory.store_byte",
        }
        for op in (O.LW, O.SW, O.LB, O.SB):
            if op in self.helpers:
                lines.append(f"    {helper_names[op]}")
        bus = self.mode == "bus" and self.events
        if bus:
            lines.append("    _pcs = aux._pcs")
            lines.append("    _tgl = aux._targets")
            lines.append("    _tkl = aux._taken")
            lines.append("    _tsl = aux._timestamps")
            lines.append("    _ce = aux.chunk_events")
        if self.degenerate:
            lines.append("    _tkc = 0")
        if self.looping:
            lines.append("    _n = 0")
            lines.append("    _c = 0")
            lines.append("    _k = 0")
        lines.append("    while True:")
        writeback = [f"regs[{n}] = r{n}" for n in sorted(self.assigned)]
        fill = {
            "writeback": writeback,
            "drain": ["if len(_pcs) >= _ce: aux.drain()"] if bus else [],
        }
        start = 0
        for position, indent, kind in self.pending:
            lines.extend(self.body[start:position])
            lines.extend("    " * indent + line for line in fill[kind])
            start = position
        lines.extend(self.body[start:])
        lines.extend("    " + store for store in writeback)
        lines.append("    return _x")
        return "\n".join(lines).replace("__WORST__", str(self.emitted))


def _emit_entry(program, positions_of, head_of, name, region_index, offset,
                mode) -> Tuple[str, int]:
    """Source and worst-case length of one compiled entry point."""
    try:
        emitter = _FnEmitter(program, positions_of, head_of, name,
                             region_index, offset, mode, looping=False)
        return emitter.source(), emitter.emitted
    except _NeedLoop:
        emitter = _FnEmitter(program, positions_of, head_of, name,
                             region_index, offset, mode, looping=True)
        return emitter.source(), emitter.emitted


#: entry byte address -> [function or None, worst-case instructions,
#: source text, function name] — the function slot is filled lazily by
#: :func:`_materialize` the first time the entry executes
TraceTable = Dict[int, List]


def compile_program(program: Program, mode: str) -> TraceTable:
    """Specialize every superblock of *program* for hook *mode*.

    Returns an empty table when the CFG or cover cannot be formed; the
    executor then runs entirely on the interpreter fallback.
    """
    if mode not in ("bus", "hook", "none"):
        raise ValueError(f"unknown specialization mode {mode!r}")
    try:
        cfg = build_cfg(program)
        cover = form_superblocks(cfg)
    except Exception:
        return {}
    positions_of: Dict[int, List[Tuple[int, Instruction]]] = {}
    head_of: Dict[int, int] = {}
    for region in cover.superblocks:
        positions = [
            (i, program.instructions[i])
            for block_id in region.blocks
            for i in range(
                cfg.blocks[block_id].start, cfg.blocks[block_id].end
            )
        ]
        if not positions:
            continue
        positions_of[region.index] = positions
        head_of[program.address_of(positions[0][0])] = region.index

    entries: List[Tuple[int, str, int, str]] = []
    for region_index, positions in positions_of.items():
        # dynamic entry offsets: the trace head, plus every post-call
        # point — a call's return lands at call+4, which is mid-trace
        # whenever formation absorbed the return block
        offsets = [0] + [
            p for p in range(1, len(positions))
            if positions[p - 1][1].is_call
        ]
        for offset in offsets:
            name = f"_trace_{region_index}_{offset}"
            source, worst = _emit_entry(
                program, positions_of, head_of, name, region_index, offset,
                mode,
            )
            entries.append(
                (program.address_of(positions[offset][0]), name, worst,
                 source)
            )
    # entries hold source only; bytecode is materialized on first hit
    # (most entries are never executed, and compiling them all up front
    # costs seconds on large programs)
    return {
        address: [None, worst, source, name]
        for address, name, worst, source in entries
    }


def _materialize(entry: List, mode: str):
    """Compile one entry's source on its first execution."""
    namespace: Dict[str, object] = {}
    code = compile(entry[2], f"<superblock:{mode}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    fn = entry[0] = namespace[entry[3]]
    return fn


_code_cache: "OrderedDict[Tuple[tuple, str], TraceTable]" = OrderedDict()


def _program_key(program: Program) -> tuple:
    """Everything the compiled table depends on, compared by value.

    Instructions are frozen dataclasses, so the tuple hashes and compares
    them field by field; no image encoding is needed to tell programs
    apart.
    """
    return (
        tuple(program.instructions),
        program.entry_point,
        program.text_base,
        program.data,
    )


def compiled_table(program: Program, mode: str) -> TraceTable:
    """The (cached) specialized trace table for *program* and *mode*."""
    key = (_program_key(program), mode)
    table = _code_cache.get(key)
    if table is None:
        table = compile_program(program, mode)
        _code_cache[key] = table
        while len(_code_cache) > _CACHE_CAPACITY:
            _code_cache.popitem(last=False)
    else:
        _code_cache.move_to_end(key)
    return table


class SuperblockExecutor(Executor):
    """Drop-in :class:`Executor` running compiled superblock traces.

    Counter attributes, hook contract, exception behaviour and the
    ``run`` return value all match the interpreter; ``run`` merely
    dispatches whole compiled regions when the PC sits on a compiled
    entry and the remaining budget covers the region's worst case, and
    single-steps the inherited interpreter otherwise.
    """

    def __init__(
        self,
        program: Program,
        state: MachineState,
        environment: Environment,
        branch_hook: Optional[BranchHook] = None,
    ) -> None:
        super().__init__(program, state, environment, branch_hook)
        self._tables: Dict[str, TraceTable] = {}

    def _table(self, mode: str) -> TraceTable:
        table = self._tables.get(mode)
        if table is None:
            table = self._tables[mode] = compiled_table(self.program, mode)
        return table

    def run(self, max_instructions: int = 10_000_000) -> int:
        state = self.state
        hook = self.branch_hook
        if hook is None:
            mode, aux = "none", None
        elif type(hook) is BranchEventBus and hook.limit is None:
            mode, aux = "bus", hook
        else:
            mode, aux = "hook", hook.on_branch
        table = self._table(mode)
        regs = state.regs
        memory = state.memory
        pages, words = memory.page_tables()
        page_get, word_get = pages.get, words.get
        env = self.environment
        get = table.get
        # compiled bus-mode regions stage events without cutting chunks
        # (loops drain at their back-edges): drain after every call, so
        # fewer than chunk_events stay staged whenever the interpreter
        # or the caller sees the bus
        chunk_events = aux.chunk_events if mode == "bus" else None

        budget = max_instructions
        count = self.instruction_count
        start_count = count
        cond = self.conditional_branch_count
        taken = self.taken_branch_count
        fast_events = 0
        pc = state.pc
        try:
            while not state.halted and budget > 0:
                entry = get(pc)
                if entry is not None and budget >= entry[1]:
                    fn = entry[0]
                    if fn is None:
                        fn = _materialize(entry, mode)
                    pc, executed, dcond, dtaken = fn(
                        regs, memory, page_get, word_get, env, state, aux,
                        count, budget,
                    )
                    if chunk_events and len(aux._pcs) >= chunk_events:
                        aux.drain()
                    count += executed
                    cond += dcond
                    taken += dtaken
                    fast_events += dcond
                    budget -= executed
                else:
                    # off-trace PC (e.g. a mid-trace checkpoint restore)
                    # or a budget smaller than the region's worst case:
                    # let the interpreter make exact forward progress
                    state.pc = pc
                    self.instruction_count = count
                    self.conditional_branch_count = cond
                    self.taken_branch_count = taken
                    try:
                        Executor.run(self, min(budget, FALLBACK_STEP))
                    except FuelExhausted:
                        pass
                    finally:
                        budget -= self.instruction_count - count
                        count = self.instruction_count
                        cond = self.conditional_branch_count
                        taken = self.taken_branch_count
                        pc = state.pc
        finally:
            state.pc = pc
            self.instruction_count = count
            self.conditional_branch_count = cond
            self.taken_branch_count = taken
            if fast_events and mode == "bus":
                # compiled regions append events without touching the
                # bus counter; the interpreter fallback counts its own
                aux.stats.events += fast_events
        if not state.halted and budget == 0:
            raise FuelExhausted(
                f"budget of {max_instructions} instructions exhausted"
            )
        return count - start_count


__all__ = [
    "FALLBACK_STEP",
    "MAX_FN_INSTRUCTIONS",
    "SuperblockExecutor",
    "compile_program",
    "compiled_table",
]
