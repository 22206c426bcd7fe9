"""Static basic-block discovery over a program image.

A *fusable block* is a maximal straight-line run of instructions that

* contains no instruction that can block, trap to the kernel, consult
  the sync manager, or touch another thread's state,
* transfers control only at its end: the run may close with one JMP or
  conditional branch (:data:`BRANCH_OPS`), and every op before it
  advances the pc by one, and
* is never entered except at its head by any *static* control edge.

Such a run is the unit the superinstruction compiler
(:mod:`repro.exec.superblock`) fuses into a single Python-level handler:
every logged or ordered event — syscall completions, sync grants, signal
deliveries, atomic turns, spawns — happens at a block boundary, so
executing the block in one frame cannot reorder anything the recorder
logs. A block whose closing branch targets its own head is a *self-loop*
(a bottom-tested loop body); its handler keeps iterating inside the same
frame while the caller's bounds leave room for a whole iteration.
Mid-block *dynamic* entry (a thread resuming at an interior pc after a
preemption or an epoch boundary) is always allowed: the engine simply
executes generically until it next lands on a block head, so the
partition affects performance only, never semantics.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.instructions import Instruction, Op

#: Ops a fused handler can execute: pure register/memory work whose only
#: failure mode is a :class:`~repro.errors.GuestFault` (caught and
#: re-raised at the exact op by the fused handler). Everything else —
#: calls, atomics, sync, threads, syscalls — is a block boundary; a
#: branch (:data:`BRANCH_OPS`) may only close a block.
FUSABLE_OPS = frozenset(
    {
        Op.LI,
        Op.MOV,
        Op.ADD,
        Op.SUB,
        Op.MUL,
        Op.DIV,
        Op.MOD,
        Op.AND,
        Op.OR,
        Op.XOR,
        Op.ADDI,
        Op.MULI,
        Op.SHLI,
        Op.SHRI,
        Op.SLT,
        Op.SLTI,
        Op.SEQ,
        Op.SEQI,
        Op.TID,
        Op.NOP,
        Op.WORK,
        Op.WORKR,
        Op.LOAD,
        Op.LOADG,
        Op.STORE,
        Op.STOREG,
    }
)

#: Minimum run length worth fusing (closing branch included): a one-op
#: "block" would just add a guard on top of the generic dispatch it
#: replaces.
MIN_BLOCK_LEN = 2

#: ops whose ``c`` operand is a branch target
_TARGET_C = frozenset(
    {Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BEQI, Op.BNEI, Op.BLTI, Op.BGEI}
)

#: Control transfers that may close a fusable block: besides retiring,
#: their only effect is choosing the next pc.
BRANCH_OPS = _TARGET_C | {Op.JMP}


def branch_target(instr: Instruction) -> int:
    """The code index a JMP or a taken conditional branch transfers to."""
    return instr.a if instr.op is Op.JMP else instr.c


def _static_targets(pc: int, instr: Instruction) -> Tuple[int, ...]:
    """Code indices this instruction can transfer control to (statically)."""
    op = instr.op
    if op is Op.JMP or op is Op.CALL:
        return (instr.a,)
    if op in _TARGET_C:
        return (instr.c, pc + 1)
    if op is Op.SPAWN:
        # A child thread starts at ``b`` — an entry point, hence a leader.
        return (instr.b, pc + 1)
    return ()


def block_leaders(code: Tuple[Instruction, ...]) -> List[int]:
    """Sorted code indices where a fusable run may begin.

    Leaders are the classic basic-block leaders — the entry index, every
    static branch/call/spawn target, and every instruction following a
    control transfer or non-fusable op. Branch targets must break runs:
    a backward edge into the middle of a run would otherwise let the
    same pc be both "op 3 of block A" and "op 1 of block B".
    """
    leaders = {0}
    for pc, instr in enumerate(code):
        targets = _static_targets(pc, instr)
        for target in targets:
            if 0 <= target < len(code):
                leaders.add(target)
        if targets or instr.op not in FUSABLE_OPS:
            if pc + 1 < len(code):
                leaders.add(pc + 1)
    return sorted(leaders)


def discover_blocks(
    code: Tuple[Instruction, ...], min_len: int = MIN_BLOCK_LEN
) -> Dict[int, Tuple[Instruction, ...]]:
    """``head pc → instruction run`` for every fusable block of ``code``.

    Runs extend from a leader over consecutive fusable instructions and
    stop at the next leader or the first non-fusable op; a JMP or
    conditional branch that is not itself a leader and targets a pc in
    ``[0, len(code)]`` closes the run as its last op (a branch out of the
    code stays unfused, so the next op faults on the generic path). Runs
    shorter than ``min_len`` are dropped.
    """
    leaders = set(block_leaders(code))
    blocks: Dict[int, Tuple[Instruction, ...]] = {}
    pc = 0
    n = len(code)
    while pc < n:
        if pc not in leaders or code[pc].op not in FUSABLE_OPS:
            pc += 1
            continue
        end = pc + 1
        while end < n and end not in leaders and code[end].op in FUSABLE_OPS:
            end += 1
        if (
            end < n
            and end not in leaders
            and code[end].op in BRANCH_OPS
            and 0 <= branch_target(code[end]) <= n
        ):
            end += 1
        if end - pc >= min_len:
            blocks[pc] = tuple(code[pc:end])
        pc = end
    return blocks
