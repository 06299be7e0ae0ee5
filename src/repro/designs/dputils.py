"""Datapath helper circuits shared by the case-study designs."""

from __future__ import annotations

from typing import Tuple

from ..rtl.nodes import Node, cat, mux, zext

__all__ = [
    "var_shift_left",
    "var_shift_right",
    "msb_index",
    "unsigned_divide",
    "signed_lt",
]


def var_shift_left(value: Node, amount: Node) -> Node:
    """Barrel shifter: ``value << amount`` with a variable shift amount."""
    out = value
    for bit in range(amount.width):
        if (1 << bit) >= value.width:
            out = mux(amount[bit], value._mod().const(0, value.width), out)
        else:
            out = mux(amount[bit], out << (1 << bit), out)
    return out


def var_shift_right(value: Node, amount: Node) -> Node:
    """Barrel shifter: ``value >> amount`` (logical)."""
    out = value
    for bit in range(amount.width):
        if (1 << bit) >= value.width:
            out = mux(amount[bit], value._mod().const(0, value.width), out)
        else:
            out = mux(amount[bit], out >> (1 << bit), out)
    return out


def msb_index(value: Node) -> Node:
    """Index of the most-significant set bit (0 when value is 0 or bit0)."""
    module = value._mod()
    width = value.width
    index_width = max(1, (width - 1).bit_length())
    out = module.const(0, index_width)
    for i in range(width):  # highest set bit wins
        out = mux(value[i], module.const(i, index_width), out)
    return out


def unsigned_divide(dividend: Node, divisor: Node) -> Tuple[Node, Node]:
    """Combinational restoring divider: returns (quotient, remainder).

    Division by zero follows the RISC-V convention: quotient = all-ones,
    remainder = dividend.
    """
    module = dividend._mod()
    width = dividend.width
    rem = module.const(0, width + 1)
    divisor_wide = zext(divisor, width + 1)
    quotient_bits = []
    for i in reversed(range(width)):
        rem = cat(rem[0:width], dividend[i])  # shift in next dividend bit
        ge = ~rem.ult(divisor_wide)
        rem = mux(ge, rem - divisor_wide, rem)
        quotient_bits.append(ge)  # MSB first
    quotient = cat(*quotient_bits)
    remainder = rem[0:width]
    div_zero = divisor.eq(0)
    quotient = mux(div_zero, module.const((1 << width) - 1, width), quotient)
    remainder = mux(div_zero, dividend, remainder)
    return quotient, remainder


def signed_lt(a: Node, b: Node) -> Node:
    """Signed less-than via the bias trick: (a ^ msb) <u (b ^ msb)."""
    module = a._mod()
    bias = module.const(1 << (a.width - 1), a.width)
    return (a ^ bias).ult(b ^ bias)
