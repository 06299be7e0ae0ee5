"""Datapath helper tests: barrel shifts, priority encoder, divider."""

from hypothesis import given, strategies as st

from repro.designs.dputils import (
    msb_index,
    signed_lt,
    unsigned_divide,
    var_shift_left,
    var_shift_right,
)
from repro.rtl import Module, elaborate
from repro.sim import Simulator


def _eval(build):
    """Build a module around ``build(m) -> dict of named nodes`` and step it."""
    m = Module("t")
    for name, node in build(m).items():
        m.name_signal(name, node)
    sim = Simulator(elaborate(m))
    return sim.step({})


@given(value=st.integers(0, 255), amount=st.integers(0, 7))
def test_var_shift_left(value, amount):
    obs = _eval(
        lambda m: {"out": var_shift_left(m.const(value, 8), m.const(amount, 3))}
    )
    assert obs["out"] == (value << amount) & 0xFF


@given(value=st.integers(0, 255), amount=st.integers(0, 7))
def test_var_shift_right(value, amount):
    obs = _eval(
        lambda m: {"out": var_shift_right(m.const(value, 8), m.const(amount, 3))}
    )
    assert obs["out"] == value >> amount


def test_var_shift_saturates_past_width():
    obs = _eval(
        lambda m: {"out": var_shift_left(m.const(0xFF, 4), m.const(5, 3))}
    )
    assert obs["out"] == 0


@given(value=st.integers(0, 255))
def test_msb_index(value):
    obs = _eval(lambda m: {"out": msb_index(m.const(value, 8))})
    expected = value.bit_length() - 1 if value else 0
    assert obs["out"] == expected


@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_unsigned_divide(a, b):
    def build(m):
        q, r = unsigned_divide(m.const(a, 8), m.const(b, 8))
        return {"q": q, "r": r}

    obs = _eval(build)
    if b == 0:
        # RISC-V semantics: quotient all-ones, remainder = dividend
        assert obs["q"] == 0xFF and obs["r"] == a
    else:
        assert obs["q"] == a // b
        assert obs["r"] == a % b


@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_signed_lt(a, b):
    obs = _eval(lambda m: {"out": signed_lt(m.const(a, 8), m.const(b, 8))})
    signed = lambda x: x - 256 if x >= 128 else x
    assert obs["out"] == int(signed(a) < signed(b))
