"""Program images — assembled, immutable guest programs.

A :class:`ProgramImage` is everything the execution engine needs to run a
guest: the decoded instruction list, the entry point, the initial data
segment, and the symbol tables the assembler produced. Images are shared
(never copied) between all executions of a recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import AssemblerError
from repro.isa.instructions import Instruction


@dataclass(frozen=True)
class ProgramImage:
    """An assembled guest program.

    Attributes:
        code: decoded instructions; branch targets are absolute indices.
        entry: code index where the initial thread starts.
        data: initial contents of guest memory, ``{word address: value}``.
        symbols: global data symbol → word address.
        functions: function name → code index.
        register_count: registers per thread context.
        heap_base: first word address available to the ALLOC syscall.
        name: human-readable program name (used in reports).
    """

    code: tuple
    entry: int
    data: Dict[int, int] = field(default_factory=dict)
    symbols: Dict[str, int] = field(default_factory=dict)
    functions: Dict[str, int] = field(default_factory=dict)
    register_count: int = 32
    heap_base: int = 0
    name: str = "guest"

    def __getstate__(self):
        # Host-wire form: the declared fields only. The interpreter caches
        # its decoded ``(handler, instr)`` table and its pure-op table in
        # ``__dict__`` (see ``repro.exec.interpreter.decode_program`` and
        # ``pure_table``), the superblock compiler its fused table;
        # handlers are host-process function objects, so the caches are
        # stripped here and rebuilt on first use in the receiving process —
        # each is a pure function of ``code``, so the rebuilt table is
        # identical.
        return {
            "code": self.code,
            "entry": self.entry,
            "data": self.data,
            "symbols": self.symbols,
            "functions": self.functions,
            "register_count": self.register_count,
            "heap_base": self.heap_base,
            "name": self.name,
        }

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, value)

    def fetch(self, pc: int) -> Instruction:
        """Instruction at ``pc``; faults on out-of-range pc."""
        if 0 <= pc < len(self.code):
            return self.code[pc]
        raise AssemblerError(f"pc {pc} outside program of {len(self.code)} instructions")

    def address_of(self, symbol: str) -> int:
        """Word address of a global data symbol."""
        try:
            return self.symbols[symbol]
        except KeyError:
            raise AssemblerError(f"unknown data symbol {symbol!r}") from None

    def __len__(self) -> int:
        return len(self.code)
