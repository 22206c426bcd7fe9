"""Trace-level superinstructions: fused handlers for hot basic blocks.

PR 1's table dispatch made fetch+decode one tuple index, but every guest
instruction still costs one Python frame (the handler call) plus generic
loop bookkeeping. This module collapses a whole straight-line block (see
:mod:`repro.isa.blocks`) into ONE specialised Python function compiled at
runtime: operands, immediates, literal cycle costs and even fault
messages are baked in as constants, so a fused block costs one frame
regardless of length.

Correctness contract (what keeps logged event ordering untouched):

* Only event-free ops are fusable — anything that can block, trap,
  consult the sync manager, or deliver to another thread ends a block
  statically (:data:`~repro.isa.blocks.FUSABLE_OPS`).
* A fused handler is *only* entered when the engine proves the next op
  would execute generically with no interposed event: no pending
  signals/grants, no observers or access interceptors, and the caller
  bounds the run so that any op at which the generic loop would stop
  (op target, epoch boundary, quantum expiry, budget/max-ops guard,
  timer event) is excluded from the fused run and falls back to the
  generic ``decode_program`` table.
* ``fused(engine, ctx, max_cost)`` returns ``(n, cum, fault)`` with
  ``ctx.pc``/``ctx.retired`` advanced by exactly ``n`` completed ops of
  total cost ``cum``. The *caller* guarantees op headroom for the whole
  block and ``max_cost >= site.min_cost`` (the block's static minimum
  cost) before entering, so the handler is straight-line code: the only
  interior bound checks are after *dynamic-cost* ops (``WORKR``,
  copy-on-write stores), where ``cum`` can outrun the static minimum.
  Whole-block-or-nothing is a measured decision, not a shortcut: a
  per-op-checked variant that fused bounded *prefixes* whenever the
  scheduling window held at least one op ran 10-20% *slower* on every
  engine — lock-step multicore windows are only 2-3 ops wide, so the
  per-entry gate+call overhead outweighed the dispatch it saved, and
  the interior compares taxed the full-block runs that were already
  winning. A :class:`~repro.errors.GuestFault` (division by zero,
  unmapped address) is caught *inside* the handler and returned with
  the pre-fault op count, so the faulting op applies no effects and the
  caller handles it exactly like a generic-path fault.

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
from repro.isa.blocks import discover_blocks
from repro.isa.instructions import Instruction, Op
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

    __slots__ = ("start", "instrs", "costs", "count", "handler", "length", "min_cost")

    def __init__(self, start: int, instrs: Tuple[Instruction, ...], costs, count: int):
        self.start = start
        self.instrs = instrs
        self.costs = costs
        self.count = count
        self.handler = None
        self.length = len(instrs)
        #: static lower bound on the block's total cycle cost; entering
        #: the handler with ``max_cost >= min_cost`` guarantees every op
        #: whose running cost is still static gets to execute.
        self.min_cost = sum(_op_min_cost(i, costs) for i in instrs)

    def compile(self):
        """Build and install this block's fused handler."""
        self.handler = _compile_block(self.start, self.instrs, self.costs)
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
# update. Because the caller pre-checks op headroom and the static
# minimum cost, a ``cum >= max_cost`` bound check is only emitted for
# ops *after* a dynamic-cost op (WORKR, stores that may copy-on-write)
# — purely static blocks have no interior checks at all. Deferred
# pc/retired: no fused op reads ``ctx.pc``, so the handler advances
# both once per exit with a literal (or ``n`` on the fault path), not
# once per op.
# ----------------------------------------------------------------------

#: ops whose cycle cost is not a compile-time constant
_DYNAMIC_COST_OPS = frozenset({Op.WORKR, Op.STORE, Op.STOREG})

#: ops that can raise GuestFault (div by zero, unmapped address); ``n``
#: only needs to be accurate when one of these is about to execute
_FAULTABLE_OPS = frozenset(
    {Op.DIV, Op.MOD, Op.LOAD, Op.LOADG, Op.STORE, Op.STOREG}
)


def _op_min_cost(instr: Instruction, costs) -> int:
    """Static lower bound on one op's cycle cost."""
    op = instr.op
    if op is Op.WORK:
        return int(instr.a)
    if op is Op.WORKR:
        return 1
    if op in (Op.LOAD, Op.LOADG, Op.STORE, Op.STOREG):
        return int(costs.mem)
    return int(costs.alu)


def _wrap_store(dest: str, expr: str) -> List[str]:
    return [
        f"_v = ({expr}) & {_MASK}",
        f"{dest} = _v - {_WRAP} if _v & {_SIGN} else _v",
    ]


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
    elif op is Op.LOAD:
        uses_mem = True
        addr = f"regs[{b}] + {c}" if c else f"regs[{b}]"
        lines.append(f"regs[{a}] = rd({addr})")
        lines.append(f"cum += {int(costs.mem)}")
    elif op is Op.LOADG:
        uses_mem = True
        lines.append(f"regs[{a}] = rd({b})")
        lines.append(f"cum += {int(costs.mem)}")
    elif op in (Op.STORE, Op.STOREG):
        uses_mem = True
        addr = (f"regs[{b}] + {c}" if c else f"regs[{b}]") if op is Op.STORE else f"{b}"
        lines.append("_cb = mem.cow_copies")
        lines.append(f"wr({addr}, regs[{a}])")
        lines.append(
            f"cum += {int(costs.mem)} + "
            f"(mem.cow_copies - _cb) * {int(costs.page_cow_copy)}"
        )
    else:  # pragma: no cover - discover_blocks only emits fusable ops
        raise ValueError(f"op {op!r} is not fusable")
    return lines, uses_mem


def _compile_block(start: int, instrs: Tuple[Instruction, ...], costs):
    """Compile one block into its fused handler function."""
    body: List[str] = []
    uses_mem = False
    dynamic = False
    # ``max_cost >= min_cost`` only proves ``cum`` stays strictly below
    # ``max_cost`` before op k while the suffix k.. still contributes at
    # least one cycle to the minimum; a zero-cost tail (WORK 0) voids
    # that proof, so such ops get an explicit check too.
    suffix = [0] * (len(instrs) + 1)
    for k in range(len(instrs) - 1, -1, -1):
        suffix[k] = suffix[k + 1] + _op_min_cost(instrs[k], costs)
    for k, instr in enumerate(instrs):
        if k and (dynamic or suffix[k] == 0):
            # ``cum`` may have reached ``max_cost``; re-check before
            # each subsequent op, exactly like the generic loop.
            body.append("if cum >= max_cost:")
            body.append(f"    ctx.pc += {k}")
            body.append(f"    ctx.retired += {k}")
            body.append(f"    return {k}, cum, None")
        if instr.op in _FAULTABLE_OPS:
            body.append(f"n = {k}")
        lines, op_mem = _gen_op(start + k, instr, costs)
        body += lines
        uses_mem = uses_mem or op_mem
        dynamic = dynamic or instr.op in _DYNAMIC_COST_OPS
    length = len(instrs)
    header = [
        f"def _fused_{start}(engine, ctx, max_cost):",
        "    regs = ctx.registers",
    ]
    if uses_mem:
        header.append("    mem = engine.mem")
        header.append("    rd = mem.read")
        header.append("    wr = mem.write")
    header.append("    n = 0")
    header.append("    cum = 0")
    header.append("    try:")
    source = (
        "\n".join(header)
        + "\n"
        + "\n".join("        " + line for line in body)
        + "\n"
        + "    except GuestFault as fault:\n"
        + "        ctx.pc += n\n"
        + "        ctx.retired += n\n"
        + "        return n, cum, fault\n"
        + f"    ctx.pc += {length}\n"
        + f"    ctx.retired += {length}\n"
        + f"    return {length}, cum, None\n"
    )
    namespace = {"GuestFault": GuestFault}
    exec(compile(source, f"<superblock pc={start}>", "exec"), namespace)
    return namespace[f"_fused_{start}"]
