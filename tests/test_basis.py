import math

import pytest

from adicergo.basis import Basis, parse_basis


def test_parse_const():
    b = parse_basis("const:2")
    assert b.kind == "const" and b.params == (2,) and b.offset == 0
    assert b.a(0) == b.a(17) == 2
    assert b.modulus(2) == 8


def test_parse_cycle_and_list():
    b = parse_basis("cycle:2,3,5")
    assert [b.a(i) for i in range(6)] == [2, 3, 5, 2, 3, 5]
    assert b.modulus(2) == 30
    bl = parse_basis("list:3,2,7,2")
    assert [bl.a(i) for i in range(4)] == [3, 2, 7, 2]
    assert bl.modulus(3) == 84
    with pytest.raises(IndexError):
        bl.a(4)


def test_list_modulus_past_its_entries():
    # a precision past the entries is bad input, as one below the offset is
    with pytest.raises(ValueError, match="beyond the entries of basis list:3,2,7,2"):
        parse_basis("list:3,2,7,2").modulus(4)
    w = parse_basis("list:3,2,7@offset:-1")
    assert w.modulus(1) == 42
    with pytest.raises(ValueError, match="beyond"):
        w.modulus(2)


def test_parse_offset_window():
    b = parse_basis("cycle:2,3,5@offset:-2")
    assert b.offset == -2
    assert b.a(-2) == 3 and b.a(-1) == 5 and b.a(0) == 2
    assert b.modulus(0) == 3 * 5 * 2
    assert b.window_factor() == 15


def test_modulus_recursion():
    b = parse_basis("list:2,3,5")
    for r in range(1, 3):
        assert b.modulus(r) == b.modulus(r - 1) * b.a(r)


def test_entries_must_be_at_least_two():
    with pytest.raises(ValueError, match="must be >= 2"):
        parse_basis("const:1")
    with pytest.raises(ValueError, match="must be >= 2"):
        Basis("list", (3, 1, 5), 0)


def test_bad_specs_rejected():
    for bad in ("const:", "foo:2", "const:2@off:-1", "list:2,x"):
        with pytest.raises(ValueError):
            parse_basis(bad)


@pytest.mark.parametrize("text", [
    "const:2", "const:3@offset:-4", "cycle:2,3,5", "cycle:2,3,5@offset:-1",
    "cycle:2,3,5@offset:-5", "cycle:7,2@offset:-3", "cycle:4", "list:3,2,7,2@offset:-2",
])
def test_modulus_matches_product_loop(text):
    # the closed form against the product of the entries, level by level
    b = parse_basis(text)
    top = b.offset + len(b.params) if b.kind == "list" else 40
    for r in range(b.offset, top):
        assert b.modulus(r) == math.prod(b.a(i) for i in range(b.offset, r + 1))


def test_nonnegative_part():
    b = parse_basis("list:3,2,7,2@offset:-2")
    b0 = b.nonnegative_part()
    assert b0.offset == 0 and b0.params == (7, 2)
    assert parse_basis("cycle:2,3,5@offset:-1").nonnegative_part() == parse_basis("cycle:2,3,5")


def test_spec_string_roundtrip():
    for text in ("const:2", "cycle:2,3,5", "list:3,2,7,2@offset:-2"):
        assert parse_basis(parse_basis(text).spec_string()) == parse_basis(text)
