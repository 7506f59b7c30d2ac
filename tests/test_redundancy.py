import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from dime import LogEntry, LogFormatError, LogStore, load, redundancy


def store_with(strategy, *entries):
    store = LogStore(strategy)
    for image, rel, length in entries:
        store.commit(LogEntry(image, rel, length))
    return store


# -- permit: the worked examples ---------------------------------------------

def test_hash_permit_ignores_length_false_positive():
    store = store_with("hash", ("m", 100, 80))
    assert store.permit("m", 150, 20) is True


def test_hash_reject_same_start_false_negative():
    store = store_with("hash", ("m", 100, 20))
    assert store.permit("m", 100, 80) is False


def test_bst_rejects_start_inside_entry():
    store = store_with("bst", ("m", 50, 80))
    assert store.permit("m", 100, 200) is False


def test_merger_permits_partially_overlapping():
    store = store_with("merger", ("m", 50, 80))
    assert store.permit("m", 100, 200) is True


def test_merger_rejects_only_strict_containment():
    store = store_with("merger", ("m", 50, 80))
    assert store.permit("m", 60, 20) is False        # strictly inside
    assert store.permit("m", 50, 80) is True         # equal interval: not strict
    assert store.permit("m", 60, 70) is True         # same right end: not strict
    assert store.permit("m", 40, 10) is True


@pytest.mark.parametrize("strategy", ["hash", "bst", "merger", "none"])
def test_empty_log_permits_anything(strategy):
    store = LogStore(strategy)
    assert store.permit("m", 12345, 7) is True


def test_none_strategy_always_permits():
    store = store_with("none", ("m", 5, 5))
    assert store.permit("m", 5, 5) is True
    assert len(store) == 0


def test_permit_is_per_image():
    store = store_with("bst", ("a", 100, 50))
    assert store.permit("b", 100, 50) is True
    assert store.permit("a", 100, 50) is False


def test_bst_rejects_via_non_adjacent_older_entry():
    # Overlapping bst entries: the predecessor alone would answer wrongly.
    store = store_with("bst", ("m", 100, 50), ("m", 120, 10))
    assert store.permit("m", 131, 5) is False   # inside [100,150) but after [120,130)
    assert store.permit("m", 150, 5) is True


# -- commit -------------------------------------------------------------------

def test_merger_commit_merges_overlap_to_one_entry():
    store = store_with("merger", ("m", 50, 80))
    store.commit(LogEntry("m", 100, 200))
    assert list(store.entries()) == [LogEntry("m", 50, 250)]


def test_merger_commit_merges_adjacent():
    store = store_with("merger", ("m", 50, 50))
    store.commit(LogEntry("m", 100, 10))
    assert list(store.entries()) == [LogEntry("m", 50, 60)]


def test_merger_commit_swallows_multiple_neighbours():
    store = store_with("merger", ("m", 10, 5), ("m", 20, 5), ("m", 30, 5))
    store.commit(LogEntry("m", 14, 17))
    assert list(store.entries()) == [LogEntry("m", 10, 25)]


def test_hash_commit_idempotent():
    store = store_with("hash", ("m", 100, 20), ("m", 100, 20))
    assert [e.rel_addr for e in store.entries()] == [100]


def test_bst_duplicate_key_keeps_max_length():
    store = store_with("bst", ("m", 100, 20))
    store.commit(LogEntry("m", 100, 80))
    assert list(store.entries()) == [LogEntry("m", 100, 80)]
    store.commit(LogEntry("m", 100, 30))
    assert list(store.entries()) == [LogEntry("m", 100, 80)]


def test_zero_length_commit_rejected():
    store = LogStore("bst")
    with pytest.raises(ValueError, match="^committed length must be >= 1$"):
        store.commit(LogEntry("m", 100, 0))
    # and so is a zero-length candidate
    with pytest.raises(ValueError, match="^candidate length must be >= 1$"):
        store.permit("m", 100, 0)


# -- finalize and persistence --------------------------------------------------

def test_bst_finalize_merges_directly_consecutive(tmp_path):
    store = store_with("bst", ("m", 100, 50), ("m", 150, 50))
    store.finalize_and_save(tmp_path / "log")
    assert list(store.entries()) == [LogEntry("m", 100, 100)]


def test_bst_finalize_leaves_gap_alone():
    store = store_with("bst", ("m", 100, 50), ("m", 151, 50))
    store.finalize()
    assert list(store.entries()) == [LogEntry("m", 100, 50), LogEntry("m", 151, 50)]


def test_bst_finalize_chains():
    store = store_with("bst", ("m", 0, 5), ("m", 5, 5), ("m", 10, 2), ("m", 13, 1))
    store.finalize()
    assert list(store.entries()) == [LogEntry("m", 0, 12), LogEntry("m", 13, 1)]


def test_hash_save_is_sorted_without_lengths(tmp_path):
    store = store_with("hash", ("m", 150, 10), ("m", 100, 10), ("a", 7, 3))
    path = tmp_path / "log"
    store.finalize_and_save(path)
    assert path.read_text() == ("# dime-log v1 strategy=hash\n"
                                "a,7\nm,100\nm,150\n")


def test_bst_save_format(tmp_path):
    store = store_with("bst", ("m", 100, 50))
    path = tmp_path / "log"
    store.save(path)
    assert path.read_text() == "# dime-log v1 strategy=bst\nm,100,50\n"


@pytest.mark.parametrize("strategy", ["hash", "bst", "merger"])
def test_save_load_roundtrip(strategy, tmp_path):
    rng = random.Random(5)
    store = LogStore(strategy)
    for _ in range(60):
        store.commit(LogEntry(rng.choice("abc"), rng.randrange(500), rng.randrange(1, 40)))
    path = tmp_path / "log"
    store.finalize_and_save(path)
    loaded = load(path)
    assert loaded == store
    loaded.save(tmp_path / "log2")
    assert (tmp_path / "log2").read_text() == path.read_text()


def test_load_rejects_hash_file_with_lengths(tmp_path):
    path = tmp_path / "log"
    path.write_text("# dime-log v1 strategy=hash\nmain,100,20\n")
    with pytest.raises(LogFormatError, match="expected 2 fields"):
        load(path)


@pytest.mark.parametrize("strategy, ends", [
    ("hash", {"a": 31, "b": 8}), ("bst", {"a": 34, "b": 10}), ("merger", {"a": 34, "b": 10}),
    ("none", {})])
def test_ends_is_the_first_address_past_every_entry(strategy, ends):
    store = store_with(strategy, LogEntry("a", 30, 4), LogEntry("a", 10, 2),
                       LogEntry("b", 7, 3), LogEntry("a", 30, 1))
    assert store.permit("c", 0, 1)  # a query about an image adds no end for it
    assert store.ends() == ends


@pytest.mark.parametrize("field", [" 1", "1 ", "+1", "01", "00", "-0", "1_0"])
def test_load_rejects_numbers_that_save_never_writes(tmp_path, field):
    path = tmp_path / "log"
    for text in (f"hash\nmain,{field}\n", f"bst\nmain,{field},2\n",
                 f"merger\nmain,3,{field}\n"):
        path.write_text("# dime-log v1 strategy=" + text)
        with pytest.raises(LogFormatError, match=":2: "):
            load(path)


def test_load_reads_the_numbers_that_save_writes(tmp_path):
    path = tmp_path / "log"
    big = 10**29
    path.write_text(f"# dime-log v1 strategy=bst\nmain,0,{big}\nmain,{big},10\n")
    store = load(path)
    assert list(store.entries()) == [("main", 0, big), ("main", big, 10)]
    store.save(tmp_path / "again")
    assert (tmp_path / "again").read_bytes() == path.read_bytes()


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "log"
    path.write_text("main,100,20\n")
    with pytest.raises(LogFormatError, match="header"):
        load(path)


def test_load_rejects_corrupt_line(tmp_path):
    path = tmp_path / "log"
    path.write_text("# dime-log v1 strategy=bst\nmain,xx,20\n")
    with pytest.raises(LogFormatError, match="non-numeric"):
        load(path)


@pytest.mark.parametrize("text,message", [
    ("# dime-log v1 strategy=none\n", ": unknown strategy 'none'$"),
    ("# dime-log v1 strategy=bst\nmain,-1,2\n", ":2: bad interval$"),
    ("# dime-log v1 strategy=bst\nmain,0,0\n", ":2: bad interval$"),
    # save writes no blank line, so load reads none
    ("# dime-log v1 strategy=hash\nmain,1\n\nmain,2\n", ":3: expected 2 fields, got 1$"),
    ("# dime-log v1 strategy=merger\n\n", ":2: expected 3 fields, got 1$"),
    # save ends each line with a line feed only, so load splits at nothing else
    ("# dime-log v1 strategy=bst\r\nmain,0,5\x0cmain,7,2\r", r": unknown strategy 'bst\\r'$"),
    ("# dime-log v1 strategy=bst\nmain,0,5\r", ":2: number not in the form save writes$"),
], ids=["none-strategy", "negative-start", "zero-length", "blank-line", "blank-last-line",
        "crlf-header", "cr-line-end"])
def test_load_rejects_a_log_that_save_never_writes(tmp_path, text, message):
    path = tmp_path / "log"
    path.write_text(text)
    with pytest.raises(LogFormatError, match=message):
        load(path)


@pytest.mark.parametrize("body", [b"main,1\xff00,20\n", "m\u00e9,100,20\n".encode()])
def test_load_rejects_non_ascii_bytes(tmp_path, body):
    path = tmp_path / "log"
    path.write_bytes(b"# dime-log v1 strategy=bst\n" + body)
    with pytest.raises(LogFormatError, match="not an ASCII") as info:
        load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("name", ["", "9lib", "ma-in", "a b"])
def test_load_rejects_image_name_outside_program_grammar(tmp_path, name):
    path = tmp_path / "log"
    path.write_text(f"# dime-log v1 strategy=bst\nmain,1,2\n{name},100,20\n")
    with pytest.raises(LogFormatError, match=":3: bad image name"):
        load(path)


def torn_write(monkeypatch):
    """`open` inside redundancy gives a file whose write stores half the
    text, then fails."""

    class TornWrite:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:len(text) // 2])
            self.fh.flush()
            raise OSError("disk full")

    monkeypatch.setattr(redundancy, "open",
                        lambda *args, **kwargs: TornWrite(open(*args, **kwargs)),
                        raising=False)
    return "disk full"


def failed_rename(monkeypatch):
    """The rename of the written temporary file over the log fails."""
    def replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(redundancy.os, "replace", replace)
    return "rename failed"


@pytest.mark.parametrize("fault", [torn_write, failed_rename], ids=["write", "rename"])
def test_failed_save_keeps_old_log_and_leaves_no_temp_file(tmp_path, monkeypatch, fault):
    path = tmp_path / "log"
    store_with("bst", ("m", 100, 50)).save(path)
    old = path.read_bytes()
    message = fault(monkeypatch)
    with pytest.raises(OSError, match=message):
        store_with("bst", ("m", 7, 3), ("n", 1, 9)).save(path)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["log"]


def test_save_never_writes_a_file_that_was_there_before_it(tmp_path):
    # The temporary file is created exclusively.  A file that already has
    # its name, such as one left by a killed save of an earlier process with
    # the same pid, makes the save try the next name; it is neither written
    # nor removed, and the save succeeds.
    path = tmp_path / "log"
    store_with("hash", ("m", 1, 1)).save(path)
    squatters = [tmp_path / f"log.{os.getpid()}.tmp", tmp_path / f"log.{os.getpid()}.1.tmp"]
    for squatter in squatters:
        squatter.write_bytes(b"someone else's\n")
    store_with("hash", ("m", 2, 1)).save(path)
    assert path.read_text() == "# dime-log v1 strategy=hash\nm,2\n"
    assert all(squatter.read_bytes() == b"someone else's\n" for squatter in squatters)
    assert sorted(os.listdir(tmp_path)) == sorted(["log", *(s.name for s in squatters)])


def test_none_strategy_has_no_file_form(tmp_path):
    with pytest.raises(ValueError):
        LogStore("none").save(tmp_path / "log")


# -- properties ----------------------------------------------------------------

intervals = st.tuples(st.integers(min_value=0, max_value=300),
                      st.integers(min_value=1, max_value=40))
# Short ranges in a small address space as well, so that commits often
# touch: a union's `add` then inserts, widens one interval and merges
# several, ranges that only meet end to start included.
packed = st.one_of(intervals, st.tuples(st.integers(min_value=0, max_value=12),
                                        st.integers(min_value=1, max_value=4)))


@given(logged=st.lists(intervals, max_size=40), candidate=intervals,
       other_length=st.integers(min_value=1, max_value=200))
def test_hash_permit_depends_only_on_start(logged, candidate, other_length):
    store = LogStore("hash")
    for rel, length in logged:
        store.commit(LogEntry("m", rel, length))
    rel, length = candidate
    assert store.permit("m", rel, length) == store.permit("m", rel, other_length)


@settings(max_examples=200)
@given(logged=st.lists(intervals, max_size=60), candidate=intervals)
def test_bst_permit_matches_linear_scan(logged, candidate):
    store = LogStore("bst")
    for rel, length in logged:
        store.commit(LogEntry("m", rel, length))
    rel, length = candidate
    contained = any(b_rel <= rel < b_rel + b_len
                    for b_rel, b_len in {e.rel_addr: e.length
                                         for e in store.entries()}.items())
    assert store.permit("m", rel, length) == (not contained)


@settings(max_examples=200)
@given(logged=st.lists(intervals, max_size=60), candidate=intervals)
def test_merger_permit_matches_strict_containment_scan(logged, candidate):
    store = LogStore("merger")
    for rel, length in logged:
        store.commit(LogEntry("m", rel, length))
    rel, length = candidate
    strictly_inside = any(e.rel_addr <= rel and rel + length < e.rel_addr + e.length
                          for e in store.entries())
    assert store.permit("m", rel, length) == (not strictly_inside)


@given(logged=st.lists(intervals, max_size=60))
def test_bst_finalize_changes_no_permit_answer(logged):
    store = LogStore("bst")
    for rel, length in logged:
        store.commit(LogEntry("m", rel, length))
    before = [store.permit("m", a, 1) for a in range(350)]
    store.finalize()
    assert [store.permit("m", a, 1) for a in range(350)] == before


@given(commits=st.lists(packed, min_size=1, max_size=60))
def test_merger_entries_disjoint_and_union_preserved(commits):
    store = LogStore("merger")
    expected: set[int] = set()
    for rel, length in commits:
        store.commit(LogEntry("m", rel, length))
        expected |= set(range(rel, rel + length))
    entries = list(store.entries())
    got: set[int] = set()
    for e in entries:
        span = set(range(e.rel_addr, e.rel_addr + e.length))
        assert not (span & got)
        got |= span
    assert got == expected
    # non-adjacent as well: merging restores minimality
    for a, b in zip(entries, entries[1:]):
        assert a.rel_addr + a.length < b.rel_addr


@given(commits=st.lists(packed, min_size=1, max_size=40),
       strategy=st.sampled_from(["bst", "merger"]))
def test_covered_addresses_never_shrink(commits, strategy):
    store = LogStore(strategy)
    covered: set[int] = set()
    for rel, length in commits:
        store.commit(LogEntry("m", rel, length))
        now = {a for e in store.entries()
               for a in range(e.rel_addr, e.rel_addr + e.length)}
        assert covered <= now
        covered = now
    store.finalize()
    after = {a for e in store.entries()
             for a in range(e.rel_addr, e.rel_addr + e.length)}
    assert covered <= after


@settings(max_examples=200)
@given(strategy=st.sampled_from(redundancy.STRATEGIES),
       events=st.lists(st.one_of(st.tuples(st.booleans(), st.sampled_from("abc"), intervals),
                                 st.none()), max_size=50))
def test_ends_is_one_past_the_last_address_an_entry_covers(strategy, events):
    # An event commits (True) or asks a permit (False) about an interval, or
    # (None) finalizes the log.
    store = LogStore(strategy)
    for event in events:
        if event is None:
            store.finalize()
            continue
        commit, image, (rel, length) = event
        if commit:
            store.commit(LogEntry(image, rel, length))
        else:
            store.permit(image, rel, length)
    covered: dict[str, set[int]] = {}
    for e in store.entries():
        covered.setdefault(e.image, set()).update(range(e.rel_addr,
                                                        e.rel_addr + max(e.length, 1)))
        assert (e.length == 0) == (strategy == "hash")
    assert store.ends() == {image: max(addrs) + 1 for image, addrs in covered.items()}


def test_merger_rejects_only_fully_covered_candidates():
    # Rejection implies every candidate address was committed before.
    rng = random.Random(11)
    store = LogStore("merger")
    committed: set[int] = set()
    for _ in range(300):
        rel, length = rng.randrange(200), rng.randrange(1, 30)
        if store.permit("m", rel, length):
            store.commit(LogEntry("m", rel, length))
            committed |= set(range(rel, rel + length))
        else:
            assert set(range(rel, rel + length)) <= committed
