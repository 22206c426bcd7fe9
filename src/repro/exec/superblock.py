"""Trace-level superinstructions: fused handlers for hot basic blocks.

Table dispatch made fetch+decode one tuple index, but every guest
instruction still costs one Python frame (the handler call) plus generic
loop bookkeeping. This module collapses a whole block (see
:mod:`repro.isa.blocks`) — straight-line ops plus the JMP or conditional
branch that closes it — into ONE specialised Python function compiled
at runtime: operands, immediates, literal cycle costs and even fault
messages are baked in as constants, so a fused block costs one frame
regardless of length. A *self-loop* block (its branch targets its own
head: a bottom-tested loop body) iterates inside that same frame.

Correctness contract (what keeps logged event ordering untouched):

* Only event-free ops are fusable — anything that can block, trap,
  consult the sync manager, or deliver to another thread ends a block
  statically (:data:`~repro.isa.blocks.FUSABLE_OPS`); a branch can only
  be a block's last op.
* A fused handler is *only* entered when the engine proves the next op
  would execute generically with no interposed event: no pending
  signals/grants, no observers or access interceptors. Every op at
  which the generic loop would stop (op target, epoch boundary, quantum
  expiry, budget/max-ops guard, timer event, the runner-up core) is one
  of two bounds the caller folds into the handler's arguments: a cycle
  bound ``max_cost`` (stop before an op once ``cum >= max_cost``) and an
  op bound ``max_n`` (stop once ``n == max_n``).
* ``fused(engine, ctx, max_cost, max_n)`` returns ``(n, cum, fault)``
  with ``ctx.pc``/``ctx.retired`` advanced by exactly ``n`` completed
  ops of total cost ``cum``. The *caller* gates entry on the block's
  body (the ops before its closing branch): ``max_n >= site.length``
  and ``max_cost >= site.min_cost`` (the body's static minimum cost, at
  least 1), so the body is straight-line code: the only interior bound
  checks are after *dynamic-cost* ops (``WORKR``, copy-on-write stores),
  where ``cum`` can outrun the static minimum. The closing branch runs
  only while ``cum < max_cost`` and ``n < max_n``. A self-loop starts
  its next iteration only when the whole body fits again —
  ``max_n - n >= length`` and ``max_cost - cum >= min_cost`` — and
  otherwise returns at its head; so the generic loop takes over at the
  very op it would have stopped at without fusion.
  Whole-block-or-nothing is a measured decision, not a shortcut: a
  per-op-checked variant that fused bounded *prefixes* whenever the
  scheduling window held at least one op ran 10-20% *slower* on every
  engine — the thread-parallel run's same-core runs are mostly a single
  op (fft: 191 965 of 228 342 runs; apache and racy-counter average 4.1
  and 1.9 ops), so the per-entry gate+call overhead outweighed the
  dispatch it saved, and the interior compares taxed the full-block
  runs that were already winning. A :class:`~repro.errors.GuestFault`
  (division by zero, unmapped address) is caught *inside* the handler
  and returned with the pre-fault op count, so the faulting op applies
  no effects and the caller handles it exactly like a generic-path
  fault.

The fused table is cached on ``ProgramImage.__dict__`` beside the
``_decoded`` table, keyed by the (frozen, hashable) cost model; like
``_decoded`` it is stripped by ``ProgramImage.__getstate__`` and rebuilt
lazily in worker processes. The ``superblocks`` runtime option
(:mod:`repro.options`) disables fusion entirely; a block is compiled
the fourth time its head is reached (cold blocks never pay compilation).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import options
from repro.errors import GuestFault
from repro.isa.blocks import BRANCH_OPS, branch_target, discover_blocks
from repro.isa.instructions import Instruction, Op
from repro.memory.layout import PAGE_OFFSET_MASK, PAGE_SHIFT
from repro.obs import metrics as obs_metrics

_MASK = (1 << 64) - 1
_SIGN = 1 << 63
_WRAP = 1 << 64


#: block-head executions before a block is compiled
_COMPILE_THRESHOLD = 4


class BlockSite:
    """One fusable block's lazy compilation state.

    ``count`` starts at the compile threshold and counts down on every
    head entry; :meth:`compile` runs when it reaches zero. Sites are
    shared by every engine on the same (program, cost model) pair in a
    process — double compilation is idempotent and harmless.
    """

    __slots__ = (
        "start", "instrs", "costs", "count", "handler", "length", "min_cost", "span"
    )

    def __init__(self, start: int, instrs: Tuple[Instruction, ...], costs, count: int):
        self.start = start
        self.instrs = instrs
        self.costs = costs
        self.count = count
        self.handler = None
        body = instrs[:-1] if instrs[-1].op in BRANCH_OPS else instrs
        #: ops of the body (the block without its closing branch): the op
        #: headroom the caller's entry gate requires
        self.length = len(body)
        #: static lower bound on the body's cycle cost (at least 1);
        #: entering the handler with ``max_cost >= min_cost`` guarantees
        #: every body op whose running cost is still static gets to execute.
        self.min_cost = max(1, sum(_op_min_cost(i, costs) for i in body))
        #: ops of one whole pass, closing branch included
        self.span = len(instrs)

    def compile(self):
        """Build and install this block's fused handler."""
        self.handler = _compile_block(self.start, self.instrs, self.costs, self.min_cost)
        obs_metrics.process_stats().add("superblock.blocks_compiled")
        return self.handler

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "compiled" if self.handler else f"cold({self.count})"
        return f"BlockSite(pc={self.start}, len={len(self.instrs)}, {state})"


def table_for(program, costs) -> Optional[list]:
    """The program's fused-block table for ``costs`` (None when disabled).

    The table is a per-pc list: ``table[pc]`` is the :class:`BlockSite`
    headed at ``pc`` or None. It lives in ``program.__dict__`` beside
    the ``_decoded`` cache, keyed by cost model (costs are baked into
    the generated code as literals), and is excluded from pickling.
    """
    if not options.current().superblocks:
        return None
    cache: Dict[object, list] = program.__dict__.get("_superblocks")
    if cache is None:
        cache = {}
        object.__setattr__(program, "_superblocks", cache)
    table = cache.get(costs)
    if table is None:
        table = _build_table(program, costs)
        cache[costs] = table
    return table


def _build_table(program, costs) -> list:
    table: list = [None] * len(program.code)
    for start, instrs in discover_blocks(program.code).items():
        table[start] = BlockSite(start, instrs, costs, _COMPILE_THRESHOLD)
    return table


# ----------------------------------------------------------------------
# Code generation.
#
# The generated function is flat, unrolled straight-line code: per op
# the op's effects with literal operands and a literal-cost ``cum``
# update, then the closing branch choosing ``ctx.pc``. Because the
# caller pre-checks op headroom and the static minimum cost, a
# ``cum >= max_cost`` bound check is only emitted for ops *after* a
# dynamic-cost op (WORKR, stores that may copy-on-write) — purely static
# blocks have no interior checks at all. A self-loop wraps that body in
# ``while True`` and re-applies the entry gate at its back edge.
# Deferred pc/retired: no fused op reads ``ctx.pc``, so the handler
# advances both once per exit (``n`` counts the ops of completed passes;
# ``_k`` is the faultable op's index within the current pass).
# Loads and stores hit the address space's software TLB inline and call
# ``mem.read`` / ``mem.write`` only on a miss; the TLB fields are read at
# every op, never held in locals, so a miss or a copy-on-write earlier in
# the pass is seen. A write-TLB hit costs ``mem`` alone: its page is
# private (the write-entry invariant), so it cannot copy on write.
# ----------------------------------------------------------------------

#: ops whose cycle cost is not a compile-time constant
_DYNAMIC_COST_OPS = frozenset({Op.WORKR, Op.STORE, Op.STOREG})

#: ops that can raise GuestFault (div by zero, unmapped address); ``_k``
#: only needs to be accurate when one of these is about to execute
_FAULTABLE_OPS = frozenset(
    {Op.DIV, Op.MOD, Op.LOAD, Op.LOADG, Op.STORE, Op.STOREG}
)

#: taken-condition of each conditional branch over its ``a``/``b``
_BRANCH_TAKEN = {
    Op.BEQ: "regs[{a}] == regs[{b}]",
    Op.BNE: "regs[{a}] != regs[{b}]",
    Op.BLT: "regs[{a}] < regs[{b}]",
    Op.BGE: "regs[{a}] >= regs[{b}]",
    Op.BEQI: "regs[{a}] == {b}",
    Op.BNEI: "regs[{a}] != {b}",
    Op.BLTI: "regs[{a}] < {b}",
    Op.BGEI: "regs[{a}] >= {b}",
}


def _op_min_cost(instr: Instruction, costs) -> int:
    """Static lower bound on one op's cycle cost."""
    op = instr.op
    if op is Op.WORK:
        return int(instr.a)
    if op is Op.WORKR:
        return 1
    if op in (Op.LOAD, Op.LOADG, Op.STORE, Op.STOREG):
        return int(costs.mem)
    if op in BRANCH_OPS:
        return int(costs.branch)
    return int(costs.alu)


def _wrap_store(dest: str, expr: str) -> List[str]:
    return [
        f"_v = ({expr}) & {_MASK}",
        f"{dest} = _v - {_WRAP} if _v & {_SIGN} else _v",
    ]


def _gen_addr(indexed: bool, lines: List[str], b, c) -> Tuple[str, str, str]:
    """A memory op's page number, page offset and address expressions.

    An indexed address (``regs[b] + c``) is computed once into ``_a``; a
    global one (the literal ``b``) folds its page and offset to literals.
    """
    if not indexed:
        return f"{b >> PAGE_SHIFT}", f"{b & PAGE_OFFSET_MASK}", f"{b}"
    lines.append(f"_a = regs[{b}] + {c}" if c else f"_a = regs[{b}]")
    return f"_a >> {PAGE_SHIFT}", f"_a & {PAGE_OFFSET_MASK}", "_a"


def _gen_op(pc: int, instr: Instruction, costs) -> Tuple[List[str], bool]:
    """Source lines for one op (effects + ``cum`` update), mem-use flag."""
    op = instr.op
    a, b, c = instr.a, instr.b, instr.c
    alu = int(costs.alu)
    lines: List[str] = []
    uses_mem = False
    if op is Op.LI:
        value = b & _MASK
        lines.append(f"regs[{a}] = {value - _WRAP if value & _SIGN else value}")
        lines.append(f"cum += {alu}")
    elif op is Op.MOV:
        lines.append(f"regs[{a}] = regs[{b}]")
        lines.append(f"cum += {alu}")
    elif op in (Op.ADD, Op.SUB, Op.MUL):
        sym = {Op.ADD: "+", Op.SUB: "-", Op.MUL: "*"}[op]
        lines += _wrap_store(f"regs[{a}]", f"regs[{b}] {sym} regs[{c}]")
        lines.append(f"cum += {alu}")
    elif op in (Op.DIV, Op.MOD):
        sym = "//" if op is Op.DIV else "%"
        lines.append(f"_d = regs[{c}]")
        lines.append("if _d == 0:")
        lines.append(
            f"    raise GuestFault('division by zero at pc {pc}', ctx.tid, {pc})"
        )
        lines += _wrap_store(f"regs[{a}]", f"regs[{b}] {sym} _d")
        lines.append(f"cum += {alu}")
    elif op in (Op.AND, Op.OR, Op.XOR):
        sym = {Op.AND: "&", Op.OR: "|", Op.XOR: "^"}[op]
        lines.append(f"regs[{a}] = regs[{b}] {sym} regs[{c}]")
        lines.append(f"cum += {alu}")
    elif op in (Op.ADDI, Op.MULI, Op.SHLI, Op.SHRI):
        sym = {Op.ADDI: "+", Op.MULI: "*", Op.SHLI: "<<", Op.SHRI: ">>"}[op]
        lines += _wrap_store(f"regs[{a}]", f"regs[{b}] {sym} {c}")
        lines.append(f"cum += {alu}")
    elif op is Op.SLT:
        lines.append(f"regs[{a}] = 1 if regs[{b}] < regs[{c}] else 0")
        lines.append(f"cum += {alu}")
    elif op is Op.SLTI:
        lines.append(f"regs[{a}] = 1 if regs[{b}] < {c} else 0")
        lines.append(f"cum += {alu}")
    elif op is Op.SEQ:
        lines.append(f"regs[{a}] = 1 if regs[{b}] == regs[{c}] else 0")
        lines.append(f"cum += {alu}")
    elif op is Op.SEQI:
        lines.append(f"regs[{a}] = 1 if regs[{b}] == {c} else 0")
        lines.append(f"cum += {alu}")
    elif op is Op.TID:
        lines.append(f"regs[{a}] = ctx.tid")
        lines.append(f"cum += {alu}")
    elif op is Op.NOP:
        lines.append(f"cum += {alu}")
    elif op is Op.WORK:
        lines.append(f"cum += {int(a)}")
    elif op is Op.WORKR:
        lines.append(f"_d = regs[{a}]")
        lines.append("cum += _d if _d > 1 else 1")
    elif op in (Op.LOAD, Op.LOADG):
        uses_mem = True
        page, offset, addr = _gen_addr(op is Op.LOAD, lines, b, c)
        lines.append(f"if {page} == mem._rtlb_no:")
        lines.append(f"    regs[{a}] = mem._rtlb_words[{offset}]")
        lines.append("else:")
        lines.append(f"    regs[{a}] = rd({addr})")
        lines.append(f"cum += {int(costs.mem)}")
    elif op in (Op.STORE, Op.STOREG):
        uses_mem = True
        page, offset, addr = _gen_addr(op is Op.STORE, lines, b, c)
        lines.append(f"if {page} == mem._wtlb_no:")
        lines.append(f"    mem._wtlb_words[{offset}] = regs[{a}]")
        lines.append(f"    cum += {int(costs.mem)}")
        lines.append("else:")
        lines.append("    _cb = mem.cow_copies")
        lines.append(f"    wr({addr}, regs[{a}])")
        lines.append(
            f"    cum += {int(costs.mem)} + "
            f"(mem.cow_copies - _cb) * {int(costs.page_cow_copy)}"
        )
    else:  # pragma: no cover - discover_blocks only emits fusable ops
        raise ValueError(f"op {op!r} is not fusable")
    return lines, uses_mem


def _gen_exit(start: int, instrs: Tuple[Instruction, ...], costs, loops: bool) -> List[str]:
    """Source lines that end one pass: the closing branch, then return.

    The branch runs only while ``cum < max_cost`` and an op is left
    (``n < n_last``, the pass's body having completed); otherwise the
    handler returns with ``ctx.pc`` at the branch. A self-loop re-enters
    its head only while ``n``/``cum`` leave room for another whole body
    (``n_last``/``cost_last``); otherwise it returns with ``ctx.pc`` at
    the head. Either way the generic loop takes over at that op.
    """
    span = len(instrs)
    last = instrs[-1]
    if last.op not in BRANCH_OPS:
        return [
            f"ctx.pc = {start + span}",
            f"ctx.retired += {span}",
            f"return {span}, cum, None",
        ]
    body = span - 1
    lines = [
        "if cum >= max_cost or n >= n_last:",
        f"    ctx.pc = {start + body}",
        f"    n += {body}",
        "    ctx.retired += n",
        "    return n, cum, None",
        f"cum += {int(costs.branch)}",
        f"n += {span}",
    ]
    fallthrough = start + span
    taken = (
        None if last.op is Op.JMP
        else _BRANCH_TAKEN[last.op].format(a=last.a, b=last.b)
    )
    if not loops:
        target = branch_target(last)
        if taken is None:
            lines.append(f"ctx.pc = {target}")
        else:
            lines.append(f"ctx.pc = {target} if {taken} else {fallthrough}")
        return lines + ["ctx.retired += n", "return n, cum, None"]
    again = [
        "if n <= n_last and cum <= cost_last:",
        "    continue",
        f"ctx.pc = {start}",
    ]
    if taken is None:
        lines += again
    else:
        lines.append(f"if {taken}:")
        lines += ["    " + line for line in again]
        lines.append("else:")
        lines.append(f"    ctx.pc = {fallthrough}")
    return lines + ["ctx.retired += n", "return n, cum, None"]


def _compile_block(start: int, instrs: Tuple[Instruction, ...], costs, min_cost: int):
    """Compile one block into its fused handler function."""
    last = instrs[-1]
    branch = last.op in BRANCH_OPS
    loops = branch and branch_target(last) == start
    body_ops = instrs[:-1] if branch else instrs
    body: List[str] = []
    uses_mem = False
    dynamic = False
    faults = False
    # ``max_cost >= min_cost`` only proves ``cum`` stays strictly below
    # ``max_cost`` before op k while the suffix k.. still contributes at
    # least one cycle to the minimum; a zero-cost tail (WORK 0) voids
    # that proof, so such ops get an explicit check too.
    suffix = [0] * (len(body_ops) + 1)
    for k in range(len(body_ops) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + _op_min_cost(body_ops[k], costs)
    for k, instr in enumerate(body_ops):
        if k and (dynamic or suffix[k] == 0):
            # ``cum`` may have reached ``max_cost``; re-check before
            # each subsequent op, exactly like the generic loop.
            body.append("if cum >= max_cost:")
            body.append(f"    ctx.pc = {start + k}")
            body.append(f"    n += {k}")
            body.append("    ctx.retired += n")
            body.append("    return n, cum, None")
        if instr.op in _FAULTABLE_OPS:
            faults = True
            body.append(f"_k = {k}")
        lines, op_mem = _gen_op(start + k, instr, costs)
        body += lines
        uses_mem = uses_mem or op_mem
        dynamic = dynamic or instr.op in _DYNAMIC_COST_OPS
    body += _gen_exit(start, instrs, costs, loops)
    header = [
        f"def _fused_{start}(engine, ctx, max_cost, max_n):",
        "    regs = ctx.registers",
    ]
    if uses_mem:
        header.append("    mem = engine.mem")
        header.append("    rd = mem.read")
        header.append("    wr = mem.write")
    header.append("    n = 0")
    header.append("    cum = 0")
    if branch:
        header.append(f"    n_last = max_n - {len(body_ops)}")
    if loops:
        header.append(f"    cost_last = max_cost - {min_cost}")
    indent = "    "
    if faults:
        header.append("    try:")
        indent += "    "
    if loops:
        header.append(indent + "while True:")
        indent += "    "
    source = "\n".join(header + [indent + line for line in body]) + "\n"
    if faults:
        source += (
            "    except GuestFault as fault:\n"
            "        n += _k\n"
            f"        ctx.pc = {start} + _k\n"
            "        ctx.retired += n\n"
            "        return n, cum, fault\n"
        )
    namespace = {"GuestFault": GuestFault}
    exec(compile(source, f"<superblock pc={start}>", "exec"), namespace)
    return namespace[f"_fused_{start}"]
