"""Host-parallelism layer: process-parallel epoch execution and replay.

DoublePlay's epoch-parallel executions are deterministic functions of
their start checkpoints and logs, so they are independent not just in
simulated time but on real host cores. This package ships self-contained
epoch work units (:mod:`repro.host.wire`) to a spawn-safe process pool
(:mod:`repro.host.pool` owns its lifecycle), runs each in a worker
through one routine (:mod:`repro.host.worker`), and dispatches, contains
and merges them in order on the coordinator
(:mod:`repro.host.executor`). ``jobs=1`` everywhere means "don't import
any of this" — the serial code paths in :mod:`repro.core` are untouched.

The wire is content-addressed (:mod:`repro.memory.blob`): units are
skeletons referencing shared blobs by digest, and a unit names digests
and a pack — whoever lacks a digest reads it. The coordinator appends a
unit's new blobs to one scratch pack before submitting it, workers keep
a constant-budget LRU of decoded blobs and read what they lack from the
pack (:mod:`repro.host.blobs`) — in steady state a unit costs its
skeleton on the pipe and the epoch's dirty pages in the pack.

Worker failures (crashes, hangs, task exceptions) are first-class,
recoverable events: the executor contains them per unit (retry once on a
fresh pool, then in-coordinator serial fallback), so recordings and
replay verdicts stay bit-identical at any jobs count even on an
imperfect host. :mod:`repro.host.faults` makes those paths
deterministically testable via ``REPRO_FAULT``; a digest a worker
cannot read from the pack is a task error like any other.
"""
