"""A run's streams as the items in order.

A run appends items to a stream one at a time, and a replay adds a piece
that repeats the stream's last stretch some number of times; the native
pass's piece repeats a lap that it ran earlier.  A piece is folded into
the ones before it where it goes on repeating what they repeat.  Whatever
pieces a stream keeps, it must read as the plain list that the same appends
and copies make.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dime.executor import CHUNK, Stream, _Growing

ITEMS = st.lists(st.sampled_from("abc"), min_size=1, max_size=3)


@st.composite
def growths(draw):
    """Appends and copies, each ("add", items) or ("repeat", back, length,
    copies): `length` items from `back` items before the end.  The steps
    come from a few drawn segments, each some appends and then a copy,
    which come round again as a loop's periods do.  A segment's copy mostly
    ends the stream, as a replay's does, and may reach before the segment's
    appends; some copies stop short of the end, as the native pass's do."""
    segment = st.tuples(st.lists(ITEMS, max_size=3), st.integers(1, 6), st.integers(1, 4),
                        st.integers(1, 4), st.booleans())
    segments = draw(st.lists(segment, min_size=1, max_size=3))
    steps = []
    for index in draw(st.lists(st.integers(0, len(segments) - 1), max_size=12)):
        adds, back, length, copies, to_end = segments[index]
        steps += [("add", items) for items in adds]
        steps.append(("repeat", back, back if to_end else min(back, length), copies))
    return steps


def grow(steps):
    """The stream and the list that `steps` make; a copy that would reach
    before the start takes what there is."""
    growing, model = _Growing(), []
    for step in steps:
        if step[0] == "add":
            growing.items.extend(step[1])
            model.extend(step[1])
        else:
            _, back, length, copies = step
            start = max(0, len(model) - back)
            stop = min(len(model), start + length)
            growing.repeat(start, stop, copies)
            model.extend(model[start:stop] * copies)
        assert len(growing.items) + growing.added == len(model)
    return growing.stream(), tuple(model)


def reads_as(stream, expected):
    assert len(stream) == len(expected)
    assert tuple(stream) == expected
    assert [stream[i] for i in range(len(expected))] == list(expected)
    assert [stream[i] for i in range(-len(expected), 0)] == list(expected)
    assert stream[::2] == expected[::2] and stream[-3:] == expected[-3:]
    assert stream == expected and expected == stream and stream == Stream(expected)
    assert stream != expected + ("a",) and stream != list(expected)
    if expected:
        assert stream != expected[:-1] and stream != ("d",) + expected[1:]
    assert hash(stream) == hash(expected)
    assert bool(stream) == bool(expected)
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            stream[index]
    for item in "abcd":
        assert (item in stream) == (item in expected)
        assert stream.count(item) == expected.count(item)


@settings(max_examples=400, deadline=None)
@given(steps=growths())
def test_a_stream_reads_as_its_appends_and_copies(steps):
    stream, expected = grow(steps)
    reads_as(stream, expected)


def test_a_loop_replayed_period_after_period_keeps_a_fixed_number_of_pieces():
    # A charged loop's commits in one period: the entry of the trace that
    # the switch back enters, two laps run, and the laps replayed, as
    # run()'s replays lay them down.  Every period after the second is one
    # more copy of the first two pieces.
    for periods in (3, 300):
        growing, model = _Growing(), []
        for _ in range(periods):
            for item in ("switch", "lap", "lap"):
                growing.items.append(item)
                model.append(item)
            growing.repeat(len(model) - 1, len(model), 7)
            model += ["lap"] * 7
        stream = growing.stream()
        assert len(growing.pieces) == 2 and len(growing.items) == 3
        reads_as(stream, tuple(model))


def test_copies_of_a_short_stretch_are_read_in_long_tuples():
    growing = _Growing()
    growing.items += ["x", "y"]
    growing.repeat(0, 2, 10 * CHUNK)
    stream = growing.stream()
    assert len(stream) == 2 + 20 * CHUNK
    assert max(map(len, stream._chunks(0, len(stream), True))) >= CHUNK
    reads_as(stream, ("x", "y") * (10 * CHUNK + 1))


def test_copies_of_a_long_stretch_are_read_one_by_one():
    growing = _Growing()
    growing.items += "abcd" * CHUNK
    growing.repeat(CHUNK, 4 * CHUNK, 3)
    growing.items.append("x")
    items = tuple("abcd" * CHUNK)
    reads_as(growing.stream(), items + items[CHUNK:] * 3 + ("x",))


def test_an_empty_stream_is_the_empty_tuple():
    reads_as(Stream(), ())
    assert Stream() == () and hash(Stream()) == hash(())
    assert repr(Stream()) == "Stream(0 items: )"
