"""The verdict schedule alone, enumerated.

``VerdictSchedule`` decides, for one segment, which unit is cut at each
boundary and whose verdict is judged there, and what a judged verdict
does. It holds no engine, pool or sink, so every case can be driven
here the way ``DoublePlayRecorder`` drives it: for lags 2–5, pooled and
not, armed and not, a thread-parallel run that ends at every boundary
1–6, and every sequence of judged outcomes (final pass, final fail, not
final and passing, not final and failing) — including where each
judged verdict runs (``here``: on the coordinator, or awaited from the
pool). The real runs that follow the same table are in
``tests/test_core_early_cut.py``.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.recorder import VerdictSchedule

#: (final, ok) of one judged verdict
OUTCOMES = ((True, True), (True, False), (False, True), (False, False))


class _NeedMore(Exception):
    """The segment judged more verdicts than the outcome prefix holds."""


def drive(lag, end, armed, pooled, outcomes):
    """One segment under its schedule, as the recorder's stage 1 runs it.

    The thread-parallel run reaches boundaries 1, 2, ... and ends at
    boundary ``end`` (program exit or a crash) unless a squash ends it
    first; the *i*-th judged verdict is ``outcomes[i]``. A unit's marks
    are the boundary it was cut at. Returns the schedule, the judgements
    ``(boundary, position, final, ok, consumed before, armed before,
    action)``, ``{position: [boundaries it was cut at]}``, the segment's
    positions, the last boundary that cut mid-run and, per judgement,
    ``(first cut at its judging boundary, ran here)``.
    """
    schedule = VerdictSchedule(lag, armed, pooled)
    judgements, cut_at, placed = [], {}, []
    positions, last_step = end, end - 1

    def take(position, boundary):
        if schedule.take(position, boundary):
            cut_at.setdefault(position, []).append(boundary)

    for boundary in range(1, end):
        judged, cut = schedule.due(boundary)
        if judged is not None:
            fresh = judged not in schedule.cuts
            placed.append((fresh, schedule.here(judged, boundary)))
            if fresh:
                cut_at.setdefault(judged, []).append(boundary)
            assert schedule.cuts[judged] <= boundary, "judged before its cut"
            if len(judgements) == len(outcomes):
                raise _NeedMore
            final, ok = outcomes[len(judgements)]
            before = (schedule.consumed, schedule.armed)
            action = schedule.judge(boundary, judged, final, ok)
            judgements.append((boundary, judged, final, ok, *before, action))
            if action == "squash":
                positions, last_step = judged + 1, boundary - 1
                break
        for position in cut:
            take(position, boundary)
    _, tail = schedule.due(positions, ended=True)
    for position in tail:
        take(position, positions)
    return schedule, judgements, cut_at, positions, last_step, placed


def every_segment(lag, end, armed, pooled):
    """``drive`` under every outcome sequence, each exactly once."""
    pending = [()]
    while pending:
        prefix = pending.pop()
        try:
            yield prefix, drive(lag, end, armed, pooled, prefix)
        except _NeedMore:
            pending.extend(prefix + (outcome,) for outcome in OUTCOMES)


CASES = list(itertools.product((2, 3, 4, 5), range(1, 7), (False, True), (False, True)))


def check(
    lag, end, armed, pooled, schedule, judgements, cut_at, positions, last_step,
    placed,
):
    """The schedule's rules, over one driven segment."""
    # Judged only while armed; every judgement at position 0's early
    # boundary 1 or at the position's usual boundary q + lag.
    assert armed or not judgements
    for boundary, position, *_ in judgements:
        assert (boundary, position) == (1, 0) or boundary == position + lag
    if armed and end > 1:
        assert judgements[0][:2] == (1, 0)

    # A final verdict is consumed at most once; ``consumed`` only grows
    # and counts the final passes, in order.
    finals = [position for _, position, final, *_ in judgements if final]
    assert len(finals) == len(set(finals))
    passed = []
    for boundary, position, final, ok, consumed, was_armed, action in judgements:
        assert was_armed and consumed == len(passed) == position
        if final and ok:
            assert action == "consume"
            passed.append(position)
        elif final:
            # Nothing behind the squashed position is left unjudged.
            assert action == "squash" and passed == list(range(position))
        else:
            assert action == ("recut" if boundary < position + lag else "disarm")
    squashed = bool(judgements) and judgements[-1][-1] == "squash"
    assert schedule.squashed == squashed
    assert schedule.consumed == len(passed) + squashed

    # A squash or a disarm is the last judgement.
    for row in judgements[:-1]:
        assert row[-1] in ("consume", "recut")
    if judgements and judgements[-1][-1] == "disarm":
        assert not schedule.armed

    # An early verdict that is not final is cut again at boundary 2 and
    # judged at boundary ``lag``, if the run gets that far.
    if judgements and judgements[0][-1] == "recut":
        if end > 2:
            assert cut_at[0] == [1, 2]
        if lag < end:
            assert (lag, 0) in [row[:2] for row in judgements]

    # Every unit is cut once (position 0 again after a recut, unless the
    # run ended before a cut) and, in a pooled segment, at boundary q + 2
    # at the latest; a pooled segment ends with every position cut (a
    # squashed future's may be cut too), an unarmed unpooled one cuts
    # nothing.
    recut = any(row[-1] == "recut" for row in judgements)
    for position, boundaries in cut_at.items():
        assert position < end
        again = recut and position == 0 and position in schedule.cuts
        assert len(boundaries) == 1 + again
    if pooled:
        assert set(schedule.cuts) >= set(range(positions))
        for position in range(positions):
            if position + 2 <= last_step:
                assert cut_at[position][0] <= position + 2
    elif not armed:
        assert not cut_at

    # Where a verdict runs: without a pool on the coordinator; pooled,
    # there exactly when the boundary that judges it first cuts it — a
    # unit pushed then would be awaited at once. Only a unit cut at an
    # earlier boundary is awaited from the pool.
    assert len(placed) == len(judgements)
    for fresh, here in placed:
        assert here == (fresh or not pooled)


@pytest.mark.parametrize("lag,end,armed,pooled", CASES)
def test_every_outcome_sequence_follows_the_table(lag, end, armed, pooled):
    runs = 0
    for _, driven in every_segment(lag, end, armed, pooled):
        check(lag, end, armed, pooled, *driven)
        runs += 1
    assert runs == 1 or armed


def test_the_table_on_one_restarted_segment():
    """Lag 3, pooled, armed, the run exits at boundary 6: position 0's
    early verdict is not final, its usual one passes, position 1 fails."""
    outcomes = ((False, False), (True, True), (True, False))
    schedule, judgements, cut_at, positions, _, placed = drive(
        3, 6, True, True, outcomes
    )
    assert [row[:2] + row[-1:] for row in judgements] == [
        (1, 0, "recut"), (3, 0, "consume"), (4, 1, "squash"),
    ]
    assert positions == 2 and schedule.squashed
    assert cut_at == {0: [1, 2], 1: [3]}
    # Only the early verdict runs on the coordinator; the re-cut unit is
    # pushed at boundary 2 and awaited at 3.
    assert [here for _, here in placed] == [True, False, False]


@pytest.mark.parametrize("lag", (2, 3, 4, 5))
def test_a_verdict_runs_here_exactly_where_its_boundary_first_cuts_it(lag):
    """Over every end, arming, pooling and outcome sequence, a verdict
    judged at the boundary that first cuts it is exactly an armed
    segment's position 0 at boundary 1 — so a re-cut position 0, judged
    again at boundary ``lag``, is awaited from the pool. At lag 2 the
    usual row coincides with it: boundary *q* + 2 both cuts position *q*
    and judges it, so there every verdict is first cut where it is
    judged, and runs on the coordinator.
    """
    pooled_here = set()
    for end, armed, pooled in itertools.product(
        range(1, 7), (False, True), (False, True)
    ):
        for _, driven in every_segment(lag, end, armed, pooled):
            judgements, placed = driven[1], driven[-1]
            for (boundary, position, *_), (fresh, here) in zip(judgements, placed):
                assert fresh == (lag == 2 or (boundary, position) == (1, 0))
                if pooled and here:
                    pooled_here.add((boundary, position))
    if lag > 2:
        assert pooled_here == {(1, 0)}
