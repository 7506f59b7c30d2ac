import gc
import hashlib
import json
import re

import pytest

from dime import (ParseError, Program, RunConfig, parse_program, run_campaign,
                  serialize_program)
from dime.corpus import random_program

import random


def test_parse_p1(p1):
    assert len(p1.images) == 1
    img = p1.images[0]
    assert img.name == "main" and img.base == 1000
    assert len(img.instructions) == 6
    kinds = [i.kind for i in img.instructions]
    assert kinds == ["op", "op", "ndbr", "op", "jmp", "halt"]
    assert img.instructions[2].target == 1005
    assert img.instructions[2].prob == 0.5
    assert img.instructions[4].target == 1000


def test_empty_document_rejected():
    with pytest.raises(ParseError, match="no images"):
        parse_program("")
    with pytest.raises(ParseError, match="no images"):
        parse_program("; just a comment\n")
    with pytest.raises(ParseError, match="^no images$"):
        Program(())


def test_overlapping_images_rejected():
    text = "image a 1000\n    halt\nimage b 1000\n    halt\n"
    with pytest.raises(ParseError, match="overlapping"):
        parse_program(text)


def test_adjacent_images_allowed():
    text = "image a 1000\n    halt\nimage b 1001\n    halt\n"
    p = parse_program(text)
    assert {img.name: img.base for img in p.images} == {"a": 1000, "b": 1001}


def test_image_of_with_images_out_of_base_order():
    # Declared order differs from address order; b and c are adjacent.
    p = parse_program("image c 1003\n    halt\nimage a 10\n    op 1\n    halt\n"
                      "image b 1000\n    op 1\n    op 1\n    halt\n")
    owner = {addr: None for addr in range(0, 1010)}
    owner.update({10: "a", 11: "a", 1000: "b", 1001: "b", 1002: "b", 1003: "c"})
    for addr, name in owner.items():
        img = p.image_of(addr)
        assert (img.name if img is not None else None) == name, addr


def test_resolve_p1(p1):
    img, ins = p1.image_of(1002), p1.instruction_at(1002)
    assert (ins.addr, ins.kind, img.name, 1002 - img.base) == (1002, "ndbr", "main", 2)
    for outside in (999, 1006):
        assert p1.image_of(outside) is None
        assert p1.instruction_at(outside) is None


def test_resolve_two_images():
    text = ("image a 1000\n    op 1\n    op 1\n    halt\n"
            "image b 2000\n    op 1\n    op 1\n    op 1\n    op 1\n    halt\n")
    p = parse_program(text)
    img, ins = p.image_of(2003), p.instruction_at(2003)
    assert (img.name, 2003 - img.base) == ("b", 3)
    assert (ins.addr, ins.kind) == (2003, "op")
    assert p.image_of(1003) is None and p.instruction_at(1003) is None


def test_resolve_roundtrip(p1):
    for addr in range(1000, 1006):
        img = p1.image_of(addr)
        rel = addr - img.base
        named, = (i for i in p1.images if i.name == img.name)
        assert named.base + rel == addr
        assert p1.instruction_at(addr) is img.instructions[rel]
        assert p1.instruction_at(addr).addr == addr


@pytest.mark.parametrize("text,match", [
    ("image m 1000\n    jmp NOPE\n", "unresolved label"),
    ("image m 1000\n    op x\n", "bad cost"),
    ("image m 1000\n    op -1\n", ">= 0"),
    ("image m 1000\n    br L0 TX\nL0: halt\n", "bad pattern"),
    ("image m 1000\n    ndbr L0 1.5\nL0: halt\n", "probability"),
    ("image m 1000\nL0: op 1\nL0: halt\n", "duplicate label"),
    ("    op 1\n", "before any image"),
    ("image m 1000\n    flibber 3\n", "unknown instruction"),
    ("image m 1000\n    halt\nL9:\n", "dangling label"),
    ("image m 1000\n", "no instructions"),
    ("image m 1000\n    ret 4\n", "no arguments"),
    ("image m\n", "expected: image"),
])
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_program(text)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_program("image m 1000\n    op 1\n    jmp NOWHERE\n")
    assert excinfo.value.line == 3
    assert "line 3" in str(excinfo.value)


def test_label_only_line_binds_to_next_instruction():
    p = parse_program("image m 1000\nA:\nB: op 1\n    jmp A\n")
    assert p.images[0].instructions[1].target == 1000


def test_cross_image_call():
    text = ("image main 10\n    call F\n    halt\n"
            "image lib 50\nF:  op 1\n    ret\n")
    p = parse_program(text)
    assert p.images[0].instructions[0].target == 50


def test_comments_and_blanks_ignored(p1):
    noisy = "; header\n\nimage main 1000\nL0: op 1 ; trailing\n    op 1\n" \
            "    ndbr L5 0.5\n    op 1\n    jmp L0\nL5: halt\n"
    assert parse_program(noisy).images == p1.images


def test_serialize_parse_idempotent(p1):
    once = parse_program(serialize_program(p1))
    assert once.images == p1.images
    twice = parse_program(serialize_program(once))
    assert twice.images == once.images


def test_serialize_parse_idempotent_on_random_corpus():
    rng = random.Random(7)
    for _ in range(25):
        p = parse_program(random_program(rng, max_instructions=80))
        assert parse_program(serialize_program(p)).images == p.images


def test_instruction_addresses_dense(p1):
    img = p1.images[0]
    assert [i.addr for i in img.instructions] == list(range(1000, 1006))


# -- golden parse corpus -----------------------------------------------------------
#
# Seeded one- and two-line mutations of generated programs.  One digest pins
# every text's outcome: the first ParseError's message and line when the parse
# fails, the canonical text when it succeeds.  It pins the accepted language
# (the numerals int() and float() take, tabs, CRLF and other line breaks,
# comments) and which error wins when a text holds several.

CORPUS_DIGEST = "b0bea4fad6816abb1f95aa8d40c7dad88d2e8a5ecf85365195473ef6a15f9ad5"

_LABEL_LINE = re.compile(r"^\s*([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:")
_COSTS = ("x", "-1", "-0", "+1", "1_000", "1.5", "", "1 2", "0x10", "٣", "007",
          "1__0", "_1", "+0", " 3 ")
_PROBS = ("1e-3", "+.5", "nan", "inf", "-0.0", "1_0", "0.5x", "1.0000001", "1", "0",
          ".", "1E0", "0.1_5", "")
_PATTERNS = ("TX", "tn", "T N", "", "NNNNT", "T;x", "T:N")
_OPS = ("nop", "OP 1", "image", "Halt", "ret x", "halt 1", "jmp", "call A B", "br L1",
        "ndbr L1", "op", "jmp L1 L2")
_IMAGE_LINES = ("image main", "image 9main 1000", "image main 10x", "image main +1_000",
                "image main 1000 extra", "image m.$_ 0", "image\tmain\t1000", "image main -5")


def _lines_matching(lines, pattern):
    return [i for i, line in enumerate(lines) if re.search(pattern, line)]


def _mutate(rng, lines):
    """Change one or two lines of `lines` (in place) in one of many ways."""
    kind = rng.randrange(19)
    labels = [i for i, line in enumerate(lines) if _LABEL_LINE.match(line)]
    anywhere = rng.randrange(len(lines) + 1)
    if kind == 0 and labels:  # delete a label
        i = rng.choice(labels)
        rest = lines[i].split(":", 1)[1]
        if rest.strip():
            lines[i] = "    " + rest.strip()
        else:
            del lines[i]
    elif kind == 1 and labels:  # duplicate a label
        lines.insert(anywhere, _LABEL_LINE.match(lines[rng.choice(labels)]).group(0))
    elif kind == 2:  # a stray colon
        i = rng.randrange(len(lines))
        at = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:at] + ":" + lines[i][at:]
    elif kind == 3 and _lines_matching(lines, r"\bop \d"):
        i = rng.choice(_lines_matching(lines, r"\bop \d"))
        lines[i] = re.sub(r"\bop \d+", "op " + rng.choice(_COSTS), lines[i])
    elif kind == 4:
        found = _lines_matching(lines, r"\bndbr ")
        prob = rng.choice(_PROBS)
        if found:
            i = rng.choice(found)
            lines[i] = re.sub(r"\S+$", prob, lines[i]) if prob else lines[i].rsplit(" ", 1)[0]
        elif labels:
            name = _LABEL_LINE.match(lines[rng.choice(labels)]).group(1)
            lines.insert(max(1, anywhere), f"    ndbr {name} {prob}")
    elif kind == 5 and _lines_matching(lines, r"\bbr "):
        i = rng.choice(_lines_matching(lines, r"\bbr "))
        lines[i] = re.sub(r"[TN]+$", rng.choice(_PATTERNS), lines[i])
    elif kind == 6:  # a second image: duplicate, overlapping, adjacent or far away
        name, base = rng.choice((("main", 5), ("other", 1001), ("other", 999),
                                 ("lib", 9000), ("far", 70000), ("low", 0)))
        lines[anywhere:anywhere] = [f"image {name} {base}", "    op 1", "    halt"]
    elif kind == 7:
        lines.insert(max(1, anywhere), "    " + rng.choice(_OPS))
    elif kind == 8:  # tabs and other whitespace
        i = rng.randrange(len(lines))
        lines[i] = lines[i].replace("    ", "\t").replace(" ", rng.choice(("\t", " \t", " ")))
    elif kind == 9:  # comments
        i = rng.randrange(len(lines))
        lines[i] += rng.choice((" ; note: x", ";", " ;; op 1", "; L1: jmp L1"))
        lines.insert(anywhere, rng.choice(("; comment", ";", "   ; image x 1")))
    elif kind == 10:  # a label where no instruction follows it
        lines.insert(rng.choice((0, len(lines))), "X9:")
    elif kind == 11:
        lines.insert(0, rng.choice(("    op 1", "X9: halt")))
    elif kind == 12:  # an image with no instructions
        lines.insert(rng.choice((len(lines), anywhere)), "image empty 50000")
    elif kind == 13:
        lines[0] = rng.choice(_IMAGE_LINES)
    elif kind == 14 and labels:  # other label spellings
        i = rng.choice(labels)
        name = _LABEL_LINE.match(lines[i]).group(1)
        lines[i] = lines[i].replace(f"{name}:", rng.choice(
            (f"{name} :", f"{name}:X{i}:", f" {name}:op 1\n", f"{name}: : ", f"{name}::")))
    elif kind == 15:  # line breaks that splitlines() knows
        i = rng.randrange(len(lines))
        lines[i] += rng.choice(("\x0c", " ", "\x85", "\r", "\x1c"))
    elif kind == 16:
        if len(lines) > 1:
            del lines[rng.randrange(1, len(lines))]
    elif kind == 17:
        i = rng.randrange(len(lines))
        lines.insert(i, lines[i])
    else:  # numerals in image bases
        i = rng.randrange(len(lines))
        lines[i] = re.sub(r"^image (\S+) (\d+)$",
                          lambda m: f"image {m.group(1)} {rng.choice(('+', '0', ''))}"
                                    f"{m.group(2)[:1]}_{m.group(2)[1:] or '0'}",
                          lines[i])


def parse_corpus():
    rng = random.Random(2024)
    texts = []
    for _ in range(300):
        lines = random_program(rng, max_instructions=rng.choice((30, 60))).splitlines()
        for _ in range(rng.choice((1, 1, 2))):
            _mutate(rng, lines)
        texts.append(rng.choice(("\n", "\n", "\r\n")).join(lines) + rng.choice(("\n", "")))
    return texts


def parse_outcome(text):
    try:
        program = parse_program(text)
    except ParseError as err:
        return [str(err), err.line]
    return serialize_program(program)


def test_parse_corpus_outcomes_are_pinned():
    outcomes = [parse_outcome(text) for text in parse_corpus()]
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == CORPUS_DIGEST


@pytest.mark.parametrize("text,kind,base,numbers", [
    ("image m +10\n    op +1\n    op 1_000\n    op 007\n    halt\n", "op", 10, [1, 1000, 7]),
    ("image m 1_0\nL: ndbr L 1e-3\n    ndbr L .5\n    ndbr L 1_0e-1\n    halt\n", "ndbr", 10,
     [0.001, 0.5, 1.0]),
])
def test_numerals_are_read_by_int_and_float(text, kind, base, numbers):
    img = parse_program(text).images[0]
    assert img.base == base
    assert [i.cost if kind == "op" else i.prob
            for i in img.instructions if i.kind == kind] == numbers


# -- columns and the collector -------------------------------------------------------

def wide_program(functions, images=8, seed=5):
    """A main image that calls `functions` small functions once each, spread
    over `images` library images; each has a short loop and a forward skip."""
    rng = random.Random(seed)
    main = ["image main 1000"]
    libs = [[f"image lib{i} {100_000 * (i + 1)}"] for i in range(images)]
    for f in range(functions):
        main.append(f"    call F{f}")
        lines = libs[rng.randrange(images)]
        lines.append(f"F{f}: op {rng.randint(1, 3)}")
        lines.append(f"F{f}_l: op 1")
        lines.append(f"    br F{f}_l {'T' * rng.randint(1, 3)}N")
        lines.append(f"    br F{f}_s {rng.choice(('T', 'N', 'TN', 'NT'))}")
        lines.extend(f"    op {rng.randint(1, 2)}" for _ in range(rng.randint(1, 3)))
        lines.append(f"F{f}_s: op 1")
        lines.append("    ret")
    main.append("    halt")
    return "\n".join(main + [line for lib in libs if len(lib) > 1 for line in lib]) + "\n"


def test_parsed_program_leaves_the_collector_little_to_track():
    # Each image's columns are plain tuples of strings, numbers and None,
    # which a collection stops tracking, so what the collector still
    # tracks grows with the images and not with the lines.
    text = wide_program(3000)
    parse_program(wide_program(2))
    gc.collect()
    before = len(gc.get_objects())
    program = parse_program(text)
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(text.splitlines()) > 25_000 and len(program.images) == 9
    assert added <= 8 + 4 * len(program.images)


@pytest.mark.parametrize("granularity", ["ctrl", "all"])
def test_campaign_builds_no_instruction_objects(granularity, tmp_path):
    program = parse_program(wide_program(150))
    config = RunConfig(program=program, granularity=granularity, period=100, budget=10,
                       log_strategy="bst", log_path=str(tmp_path / "wide.log"))
    result = run_campaign(config, 2)
    assert result.reports[-1].coverage > 0
    assert not any("instructions" in vars(img) for img in program.images)
    # They are still there for whoever asks.
    assert program.images[1].instructions[0] == program.instruction_at(program.images[1].base)
    assert "instructions" in vars(program.images[1])
