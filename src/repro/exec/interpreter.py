"""The guest instruction interpreter.

``step(engine, ctx)`` executes exactly one instruction of ``ctx`` against
the engine's memory/sync/syscall services and returns its cycle cost. Both
execution engines call this same function, so guest semantics cannot drift
between the thread-parallel execution, the epoch-parallel execution and
replay — the property DoublePlay's correctness argument rests on.

Retirement discipline (the invariant everything else depends on):

* An instruction *retires* when all its effects are applied; ``ctx.retired``
  then increments. Epoch boundaries are retired-op counts, so effects must
  never leak out of an unretired op.
* A blocking op that cannot complete leaves ``pc`` and ``retired``
  untouched and parks the thread with a :class:`BlockedReason`.
* When another thread's action completes the op (lock grant, kernel
  wakeup, exit-for-join), the completion is stored in
  ``ctx.pending_grant`` and the op retires the next time the owning thread
  is scheduled — inside its own timeslice, which keeps uniprocessor
  schedule logs exact.

Dispatch is a per-:class:`Op` handler table (see DESIGN.md "Host
performance layer"): ``decode_program`` caches a ``(handler, instr)`` pair
per code index on the program image, so the engines' fetch+decode is one
tuple index. Every handler applies exactly the effects the historical
if/elif chain applied, in the same order — simulated costs, trace events
and fault messages are bit-identical.
"""

from __future__ import annotations

from repro.errors import AssemblerError, GuestFault, SimulationError
from repro.isa.blocks import BRANCH_OPS, FUSABLE_OPS, branch_target
from repro.isa.context import BlockedReason, ThreadContext, ThreadStatus
from repro.isa.instructions import Instruction, Op
from repro.oskernel.syscalls import SyscallDone, SyscallKind

_MASK = (1 << 64) - 1
_SIGN = 1 << 63
_WRAP = 1 << 64


def decode_program(program) -> tuple:
    """The program's code as a ``(handler, instr)`` tuple, cached on the image.

    ``ProgramImage`` is a frozen dataclass shared by every engine that runs
    the program, so the decode happens once per image, not once per engine.
    """
    table = program.__dict__.get("_decoded")
    if table is None:
        handlers = _HANDLERS
        table = tuple(
            (handlers.get(instr.op, _op_unknown), instr) for instr in program.code
        )
        object.__setattr__(program, "_decoded", table)
    return table


#: Ops whose effects stay inside their own thread and memory: they cannot
#: block, wake or spawn a thread, reach the kernel or the sync manager,
#: or end their thread, so they cannot change scheduling.
PURE_OPS = FUSABLE_OPS | BRANCH_OPS | {Op.CALL, Op.RET}


def pure_table(program) -> tuple:
    """Per pc, may the multicore turn run this op without leaving?

    True for a :data:`PURE_OPS` op whose static successors are in
    ``[0, len(code)]``, so a pure op never leads the turn to an index
    outside this table; one extra False entry covers a thread that ran
    off the end of its code. Cached on the image like ``_decoded``: a
    pure function of ``code``, stripped by ``ProgramImage.__getstate__``
    and rebuilt by a worker.
    """
    table = program.__dict__.get("_pure")
    if table is None:
        end = len(program.code)
        pure = []
        for instr in program.code:
            target = 0
            if instr.op is Op.CALL:
                target = instr.a
            elif instr.op in BRANCH_OPS:
                target = branch_target(instr)
            pure.append(instr.op in PURE_OPS and 0 <= target <= end)
        table = tuple(pure) + (False,)
        object.__setattr__(program, "_pure", table)
    return table


def step(engine, ctx: ThreadContext) -> int:
    """Execute one instruction (or consume a pending grant); returns cycles."""
    if ctx.blocked is None:
        # Asynchronous signal delivery happens at a clean op boundary:
        # delivery (push return pc, jump to handler) plus the handler's
        # first instruction form one step, so the thread's retired count
        # uniquely identifies the delivery point for record and replay.
        # Delivery is checked before grant consumption — a signal that
        # fired while the grant was in flight interposes its handler
        # first, as it did in the recorded execution.
        if engine.injected_signals or ctx.pending_signals:
            handler_pc = engine.next_signal(ctx)
            if handler_pc is not None:
                ctx.call_stack.append(ctx.pc)
                ctx.pc = handler_pc
                engine.trace("signal", ctx.tid, handler_pc)
                table = engine.decoded
                pc = ctx.pc
                if 0 <= pc < len(table):
                    pair = table[pc]
                    return pair[0](engine, ctx, pair[1])
                raise AssemblerError(
                    f"pc {pc} outside program of {len(table)} instructions"
                )
        if ctx.pending_grant is not None:
            return _consume_grant(engine, ctx)
        table = engine.decoded
        pc = ctx.pc
        if 0 <= pc < len(table):
            pair = table[pc]
            return pair[0](engine, ctx, pair[1])
        raise AssemblerError(f"pc {pc} outside program of {len(table)} instructions")
    if ctx.pending_grant is not None:
        return _consume_grant(engine, ctx)
    return _resume_blocked(engine, ctx)


def _dispatch(engine, ctx: ThreadContext, instr: Instruction) -> int:
    """Execute exactly the instruction ``instr`` for ``ctx``."""
    return _HANDLERS.get(instr.op, _op_unknown)(engine, ctx, instr)


# ----------------------------------------------------------------------
# ALU
# ----------------------------------------------------------------------
def _op_li(engine, ctx, instr):
    value = instr.b & _MASK
    ctx.registers[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_mov(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = regs[instr.b]
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_add(engine, ctx, instr):
    regs = ctx.registers
    value = (regs[instr.b] + regs[instr.c]) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_sub(engine, ctx, instr):
    regs = ctx.registers
    value = (regs[instr.b] - regs[instr.c]) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_mul(engine, ctx, instr):
    regs = ctx.registers
    value = (regs[instr.b] * regs[instr.c]) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_div(engine, ctx, instr):
    regs = ctx.registers
    divisor = regs[instr.c]
    if divisor == 0:
        raise GuestFault(f"division by zero at pc {ctx.pc}", ctx.tid, ctx.pc)
    value = (regs[instr.b] // divisor) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_mod(engine, ctx, instr):
    regs = ctx.registers
    divisor = regs[instr.c]
    if divisor == 0:
        raise GuestFault(f"division by zero at pc {ctx.pc}", ctx.tid, ctx.pc)
    value = (regs[instr.b] % divisor) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_and(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = regs[instr.b] & regs[instr.c]
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_or(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = regs[instr.b] | regs[instr.c]
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_xor(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = regs[instr.b] ^ regs[instr.c]
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_addi(engine, ctx, instr):
    regs = ctx.registers
    value = (regs[instr.b] + instr.c) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_muli(engine, ctx, instr):
    regs = ctx.registers
    value = (regs[instr.b] * instr.c) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_shli(engine, ctx, instr):
    regs = ctx.registers
    value = (regs[instr.b] << instr.c) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_shri(engine, ctx, instr):
    regs = ctx.registers
    value = (regs[instr.b] >> instr.c) & _MASK
    regs[instr.a] = value - _WRAP if value & _SIGN else value
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_slt(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = 1 if regs[instr.b] < regs[instr.c] else 0
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_slti(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = 1 if regs[instr.b] < instr.c else 0
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_seq(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = 1 if regs[instr.b] == regs[instr.c] else 0
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_seqi(engine, ctx, instr):
    regs = ctx.registers
    regs[instr.a] = 1 if regs[instr.b] == instr.c else 0
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_tid(engine, ctx, instr):
    ctx.registers[instr.a] = ctx.tid
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_nop(engine, ctx, instr):
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.alu


def _op_work(engine, ctx, instr):
    ctx.pc += 1
    ctx.retired += 1
    return instr.a


def _op_workr(engine, ctx, instr):
    cost = ctx.registers[instr.a]
    ctx.pc += 1
    ctx.retired += 1
    return cost if cost > 1 else 1


# ----------------------------------------------------------------------
# Control flow
# ----------------------------------------------------------------------
def _op_jmp(engine, ctx, instr):
    ctx.pc = instr.a
    ctx.retired += 1
    return engine.costs.branch


def _op_beq(engine, ctx, instr):
    regs = ctx.registers
    if regs[instr.a] == regs[instr.b]:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_bne(engine, ctx, instr):
    regs = ctx.registers
    if regs[instr.a] != regs[instr.b]:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_blt(engine, ctx, instr):
    regs = ctx.registers
    if regs[instr.a] < regs[instr.b]:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_bge(engine, ctx, instr):
    regs = ctx.registers
    if regs[instr.a] >= regs[instr.b]:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_beqi(engine, ctx, instr):
    if ctx.registers[instr.a] == instr.b:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_bnei(engine, ctx, instr):
    if ctx.registers[instr.a] != instr.b:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_blti(engine, ctx, instr):
    if ctx.registers[instr.a] < instr.b:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_bgei(engine, ctx, instr):
    if ctx.registers[instr.a] >= instr.b:
        ctx.pc = instr.c
    else:
        ctx.pc += 1
    ctx.retired += 1
    return engine.costs.branch


def _op_call(engine, ctx, instr):
    ctx.call_stack.append(ctx.pc + 1)
    ctx.pc = instr.a
    ctx.retired += 1
    return engine.costs.branch


def _op_ret(engine, ctx, instr):
    if not ctx.call_stack:
        raise GuestFault(f"ret with empty call stack at pc {ctx.pc}", ctx.tid, ctx.pc)
    ctx.pc = ctx.call_stack.pop()
    ctx.retired += 1
    return engine.costs.branch


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _op_load(engine, ctx, instr):
    regs = ctx.registers
    addr = regs[instr.b] + instr.c
    interceptor = engine.access_interceptor
    extra = 0 if interceptor is None else interceptor(ctx.tid, addr, False)
    regs[instr.a] = engine.mem.read(addr)
    if engine.observers:
        engine.trace("read", ctx.tid, addr)
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.mem + extra


def _op_loadg(engine, ctx, instr):
    addr = instr.b
    interceptor = engine.access_interceptor
    extra = 0 if interceptor is None else interceptor(ctx.tid, addr, False)
    ctx.registers[instr.a] = engine.mem.read(addr)
    if engine.observers:
        engine.trace("read", ctx.tid, addr)
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.mem + extra


def _op_store(engine, ctx, instr):
    regs = ctx.registers
    addr = regs[instr.b] + instr.c
    interceptor = engine.access_interceptor
    extra = 0 if interceptor is None else interceptor(ctx.tid, addr, True)
    mem = engine.mem
    cow_before = mem.cow_copies
    mem.write(addr, regs[instr.a])
    if mem.cow_copies != cow_before:
        extra += (mem.cow_copies - cow_before) * engine.costs.page_cow_copy
    if engine.observers:
        engine.trace("write", ctx.tid, addr)
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.mem + extra


def _op_storeg(engine, ctx, instr):
    addr = instr.b
    interceptor = engine.access_interceptor
    extra = 0 if interceptor is None else interceptor(ctx.tid, addr, True)
    mem = engine.mem
    cow_before = mem.cow_copies
    mem.write(addr, ctx.registers[instr.a])
    if mem.cow_copies != cow_before:
        extra += (mem.cow_copies - cow_before) * engine.costs.page_cow_copy
    if engine.observers:
        engine.trace("write", ctx.tid, addr)
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.mem + extra


# ----------------------------------------------------------------------
# Atomics (per-address order recorded and oracle-enforced; the race
# detector sees each as an acquire/release pair, like seq_cst atomics)
# ----------------------------------------------------------------------
def _op_fetchadd(engine, ctx, instr):
    regs = ctx.registers
    addr = regs[instr.b] + instr.c
    costs = engine.costs
    if not engine.sync.atomic_enter(ctx.tid, addr):
        engine.block(ctx, BlockedReason("atomic", (addr,)))
        return costs.atomic
    for tid in engine.sync.atomic_done(ctx.tid, addr):
        engine.wake_deferred(tid)
    extra = engine.access_extra(ctx.tid, addr, True)
    mem = engine.mem
    cow_before = mem.cow_copies
    old = mem.read(addr)
    value = (old + regs[instr.d]) & _MASK
    mem.write(addr, value - _WRAP if value & _SIGN else value)
    extra += (mem.cow_copies - cow_before) * costs.page_cow_copy
    regs[instr.a] = old
    if engine.observers:
        engine.trace("read", ctx.tid, addr)
        engine.trace("write", ctx.tid, addr)
        engine.trace("release", ctx.tid, addr)
    ctx.pc += 1
    ctx.retired += 1
    return costs.atomic + extra


def _op_cas(engine, ctx, instr):
    regs = ctx.registers
    addr = regs[instr.b] + instr.c
    costs = engine.costs
    if not engine.sync.atomic_enter(ctx.tid, addr):
        engine.block(ctx, BlockedReason("atomic", (addr,)))
        return costs.atomic
    for tid in engine.sync.atomic_done(ctx.tid, addr):
        engine.wake_deferred(tid)
    extra = engine.access_extra(ctx.tid, addr, True)
    expect_reg, new_reg = instr.d
    mem = engine.mem
    cow_before = mem.cow_copies
    old = mem.read(addr)
    engine.trace("read", ctx.tid, addr)
    if old == regs[expect_reg]:
        mem.write(addr, regs[new_reg])
        engine.trace("write", ctx.tid, addr)
        regs[instr.a] = 1
    else:
        regs[instr.a] = 0
    extra += (mem.cow_copies - cow_before) * costs.page_cow_copy
    engine.trace("release", ctx.tid, addr)
    ctx.pc += 1
    ctx.retired += 1
    return costs.atomic + extra


def _op_xchg(engine, ctx, instr):
    regs = ctx.registers
    addr = regs[instr.b] + instr.c
    costs = engine.costs
    if not engine.sync.atomic_enter(ctx.tid, addr):
        engine.block(ctx, BlockedReason("atomic", (addr,)))
        return costs.atomic
    for tid in engine.sync.atomic_done(ctx.tid, addr):
        engine.wake_deferred(tid)
    extra = engine.access_extra(ctx.tid, addr, True)
    mem = engine.mem
    cow_before = mem.cow_copies
    old = mem.read(addr)
    mem.write(addr, regs[instr.d])
    extra += (mem.cow_copies - cow_before) * costs.page_cow_copy
    regs[instr.a] = old
    if engine.observers:
        engine.trace("read", ctx.tid, addr)
        engine.trace("write", ctx.tid, addr)
        engine.trace("release", ctx.tid, addr)
    ctx.pc += 1
    ctx.retired += 1
    return costs.atomic + extra


# ----------------------------------------------------------------------
# Synchronisation
# ----------------------------------------------------------------------
def _op_lock(engine, ctx, instr):
    addr = ctx.registers[instr.a]
    if engine.sync.acquire(ctx.tid, addr):
        ctx.pc += 1
        ctx.retired += 1
        return engine.costs.sync
    engine.block(ctx, BlockedReason("lock", (addr,)))
    return engine.costs.sync


def _op_unlock(engine, ctx, instr):
    addr = ctx.registers[instr.a]
    engine.trace("release", ctx.tid, addr)
    for granted in engine.sync.release(ctx.tid, addr):
        engine.grant(granted, ("sync",))
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.sync


def _op_barrier(engine, ctx, instr):
    regs = ctx.registers
    addr = regs[instr.a]
    count = regs[instr.b]
    released = engine.sync.barrier_arrive(ctx.tid, addr, count)
    # Every participant — the completing arriver included — retires its
    # arrival via a grant on its next scheduling. If the completer
    # retired instantly, per-thread retired counts would depend on
    # arrival order, which epoch-boundary targets cannot express.
    engine.block(ctx, BlockedReason("barrier", (addr,)))
    if released:
        for tid in released:
            engine.trace("barrier", tid, addr)
        for tid in released:
            engine.grant(tid, ("sync",))
    return engine.costs.sync


def _op_condwait(engine, ctx, instr):
    regs = ctx.registers
    cond_addr = regs[instr.a]
    mutex_addr = regs[instr.b]
    engine.trace("release", ctx.tid, mutex_addr)
    grants = engine.sync.cond_wait(ctx.tid, cond_addr, mutex_addr)
    for granted in grants:
        engine.grant(granted, ("sync",))
    engine.block(ctx, BlockedReason("cond", (cond_addr, mutex_addr)))
    return engine.costs.sync


def _op_condsignal(engine, ctx, instr):
    cond_addr = ctx.registers[instr.a]
    engine.trace("release", ctx.tid, cond_addr)
    for granted in engine.sync.cond_signal(cond_addr):
        engine.grant(granted, ("sync",))
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.sync


def _op_condbcast(engine, ctx, instr):
    cond_addr = ctx.registers[instr.a]
    engine.trace("release", ctx.tid, cond_addr)
    for granted in engine.sync.cond_broadcast(cond_addr):
        engine.grant(granted, ("sync",))
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.sync


def _op_seminit(engine, ctx, instr):
    regs = ctx.registers
    engine.sync.sem_init(regs[instr.a], regs[instr.b])
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.sync


def _op_semwait(engine, ctx, instr):
    addr = ctx.registers[instr.a]
    if engine.sync.sem_wait(ctx.tid, addr):
        for granted in engine.sync.sem_drain(addr):
            engine.grant(granted, ("sync",))
        ctx.pc += 1
        ctx.retired += 1
        return engine.costs.sync
    engine.block(ctx, BlockedReason("sem", (addr,)))
    return engine.costs.sync


def _op_sempost(engine, ctx, instr):
    addr = ctx.registers[instr.a]
    engine.trace("release", ctx.tid, addr)
    for granted in engine.sync.sem_post(addr):
        engine.grant(granted, ("sync",))
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.sync


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
def _op_spawn(engine, ctx, instr):
    regs = ctx.registers
    args = tuple(regs[r] for r in instr.c)
    child = engine.spawn_thread(ctx, instr.b, args)
    regs[instr.a] = child
    engine.trace("spawn", ctx.tid, child)
    ctx.pc += 1
    ctx.retired += 1
    return engine.costs.spawn


def _op_join(engine, ctx, instr):
    target = ctx.registers[instr.a]
    target_ctx = engine.contexts.get(target)
    if target_ctx is None:
        raise GuestFault(f"join on unknown thread {target}", ctx.tid, ctx.pc)
    if target_ctx.status == ThreadStatus.EXITED:
        engine.trace("join", ctx.tid, target)
        ctx.pc += 1
        ctx.retired += 1
        return engine.costs.sync
    engine.block(ctx, BlockedReason("join", (target,)))
    return engine.costs.sync


def _op_exit(engine, ctx, instr):
    ctx.status = ThreadStatus.EXITED
    ctx.retired += 1
    engine.trace("exit", ctx.tid, 0)
    engine.on_exit(ctx)
    return engine.costs.alu


# ----------------------------------------------------------------------
# Operating system
# ----------------------------------------------------------------------
def _op_syscall(engine, ctx, instr):
    regs = ctx.registers
    args = tuple(regs[r] for r in instr.c)
    return _issue_syscall(engine, ctx, instr, instr.b, args)


def _op_unknown(engine, ctx, instr):
    raise SimulationError(f"interpreter cannot execute opcode {instr.op!r}")


_HANDLERS = {
    Op.LI: _op_li,
    Op.MOV: _op_mov,
    Op.ADD: _op_add,
    Op.SUB: _op_sub,
    Op.MUL: _op_mul,
    Op.DIV: _op_div,
    Op.MOD: _op_mod,
    Op.AND: _op_and,
    Op.OR: _op_or,
    Op.XOR: _op_xor,
    Op.ADDI: _op_addi,
    Op.MULI: _op_muli,
    Op.SHLI: _op_shli,
    Op.SHRI: _op_shri,
    Op.SLT: _op_slt,
    Op.SLTI: _op_slti,
    Op.SEQ: _op_seq,
    Op.SEQI: _op_seqi,
    Op.TID: _op_tid,
    Op.NOP: _op_nop,
    Op.WORK: _op_work,
    Op.WORKR: _op_workr,
    Op.JMP: _op_jmp,
    Op.BEQ: _op_beq,
    Op.BNE: _op_bne,
    Op.BLT: _op_blt,
    Op.BGE: _op_bge,
    Op.BEQI: _op_beqi,
    Op.BNEI: _op_bnei,
    Op.BLTI: _op_blti,
    Op.BGEI: _op_bgei,
    Op.CALL: _op_call,
    Op.RET: _op_ret,
    Op.LOAD: _op_load,
    Op.LOADG: _op_loadg,
    Op.STORE: _op_store,
    Op.STOREG: _op_storeg,
    Op.FETCHADD: _op_fetchadd,
    Op.CAS: _op_cas,
    Op.XCHG: _op_xchg,
    Op.LOCK: _op_lock,
    Op.UNLOCK: _op_unlock,
    Op.BARRIER: _op_barrier,
    Op.CONDWAIT: _op_condwait,
    Op.CONDSIGNAL: _op_condsignal,
    Op.CONDBCAST: _op_condbcast,
    Op.SEMINIT: _op_seminit,
    Op.SEMWAIT: _op_semwait,
    Op.SEMPOST: _op_sempost,
    Op.SPAWN: _op_spawn,
    Op.JOIN: _op_join,
    Op.EXIT: _op_exit,
    Op.SYSCALL: _op_syscall,
}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _retire(ctx: ThreadContext, cost: int) -> int:
    ctx.pc += 1
    ctx.retired += 1
    return cost


def _retire_to(ctx: ThreadContext, target_pc: int, cost: int) -> int:
    ctx.pc = target_pc
    ctx.retired += 1
    return cost


def _issue_syscall(engine, ctx, instr, kind, args) -> int:
    costs = engine.costs
    extra = 0
    # Buffer-consuming calls read guest memory on the caller's behalf;
    # surface that to tracing and to access interceptors (CREW treats
    # kernel copies as accesses by the calling thread). When neither is
    # installed the per-word loop has no observable effect and is skipped.
    track = engine.observers or engine.access_interceptor is not None
    if track and kind in (SyscallKind.WRITE, SyscallKind.SEND):
        base = args[1]
        for offset in range(args[2]):
            engine.trace("read", ctx.tid, base + offset)
            extra += engine.access_extra(ctx.tid, base + offset, False)
    mem = engine.mem
    cow_before = mem.cow_copies
    outcome = engine.services.invoke(ctx, kind, args, mem, engine.now)
    if isinstance(outcome, SyscallDone):
        if track:
            for base, words in outcome.writes:
                for offset in range(len(words)):
                    engine.trace("write", ctx.tid, base + offset)
                    extra += engine.access_extra(ctx.tid, base + offset, True)
        ctx.registers[instr.a] = outcome.retval
        ctx.syscall_count += 1
        engine.trace("syscall", ctx.tid, 0)
        ctx.pc += 1
        ctx.retired += 1
        return (
            costs.syscall_base
            + outcome.transferred * costs.io_word
            + (mem.cow_copies - cow_before) * costs.page_cow_copy
            + extra
        )
    engine.block(ctx, BlockedReason("syscall", (kind, args)))
    return costs.syscall_base


def _consume_grant(engine, ctx: ThreadContext) -> int:
    """Retire an op whose completion was granted while the thread was off-core."""
    grant = ctx.pending_grant
    costs = engine.costs
    instr = engine.program.fetch(ctx.pc)
    cost = costs.grant
    if grant[0] == "syscall":
        _, retval, writes, transferred = grant
        mem = engine.mem
        cow_before = mem.cow_copies
        track = engine.observers or engine.access_interceptor is not None
        for base, words in writes:
            mem.write_block(base, words)
            if track:
                for offset in range(len(words)):
                    engine.trace("write", ctx.tid, base + offset)
                    cost += engine.access_extra(ctx.tid, base + offset, True)
        cost += (mem.cow_copies - cow_before) * costs.page_cow_copy
        ctx.registers[instr.a] = retval
        engine.services_log_wakeup(ctx, instr.b, grant)
        ctx.syscall_count += 1
        engine.trace("syscall", ctx.tid, 0)
        cost += transferred * costs.io_word
    elif grant[0] == "join":
        engine.trace("join", ctx.tid, ctx.registers[instr.a])
    elif grant[0] == "sync" and ctx.tid in engine.inherited_grants:
        # Ownership was transferred by the execution this engine was
        # restored from; credit the acquisition to this run's log.
        engine.inherited_grants.discard(ctx.tid)
        engine.synthetic_acquisition(ctx, instr)
    # other "sync" grants have no effects here; the sync manager already
    # transferred ownership (and recorded the acquisition) when it granted.
    ctx.pending_grant = None
    ctx.blocked = None
    return _retire(ctx, cost)


def _resume_blocked(engine, ctx: ThreadContext) -> int:
    """Re-issue an op that was mid-block when its execution was checkpointed.

    Only engines that *inject* syscalls schedule threads in this state
    (see ``UniprocessorEngine.from_checkpoint``): a thread that was blocked
    in the kernel during the thread-parallel run completes here from the
    log. Join waits are also re-checked because join wakeups are driven by
    exit events, which may already have happened before the checkpoint.
    """
    reason = ctx.blocked
    if reason.kind == "atomic":
        # The thread's turn at this address has come: re-dispatch the op.
        ctx.blocked = None
        ctx.status = ThreadStatus.RUNNING
        return step(engine, ctx)
    if reason.kind == "syscall":
        kind, args = reason.detail
        instr = engine.program.fetch(ctx.pc)
        ctx.blocked = None
        ctx.status = ThreadStatus.RUNNING
        return _issue_syscall(engine, ctx, instr, kind, args)
    if reason.kind == "join":
        (target,) = reason.detail
        target_ctx = engine.contexts.get(target)
        if target_ctx is not None and target_ctx.status == ThreadStatus.EXITED:
            ctx.blocked = None
            engine.trace("join", ctx.tid, target)
            return _retire(ctx, engine.costs.sync)
        engine.block(ctx, reason)
        return engine.costs.sync
    raise SimulationError(
        f"thread {ctx.tid} scheduled while blocked on {reason.kind!r}"
    )
