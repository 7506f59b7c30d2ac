import pytest

from dime import AddressError, ParseError, parse_program, resolve, serialize_program
from dime.corpus import random_program
from conftest import P1

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


def test_overlapping_images_rejected():
    text = "image a 1000\n    halt\nimage b 1000\n    halt\n"
    with pytest.raises(ParseError, match="overlapping"):
        parse_program(text)


def test_adjacent_images_allowed():
    text = "image a 1000\n    halt\nimage b 1001\n    halt\n"
    p = parse_program(text)
    assert p.image("b").base == 1001


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
    ins, image, rel = p1.resolve(1002)
    assert (ins.kind, image, rel) == ("ndbr", "main", 2)
    with pytest.raises(AddressError):
        p1.resolve(999)
    with pytest.raises(AddressError):
        p1.resolve(1006)


def test_resolve_two_images():
    text = ("image a 1000\n    op 1\n    op 1\n    halt\n"
            "image b 2000\n    op 1\n    op 1\n    op 1\n    op 1\n    halt\n")
    p = parse_program(text)
    ins, image, rel = resolve(p, 2003)
    assert (image, rel) == ("b", 3)
    assert ins.kind == "op"


def test_resolve_roundtrip(p1):
    for addr in range(1000, 1006):
        _, image, rel = p1.resolve(addr)
        assert p1.image(image).base + rel == addr


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
