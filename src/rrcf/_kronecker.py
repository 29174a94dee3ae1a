"""Products of polynomial term maps by Kronecker substitution.

A term map is a dict ``{(eq, el, eb): c}`` of nonzero int coefficients, as
``rrcf.poly.Polynomial`` keeps one.  ``product(a, b, box)`` forms a*b with one
CPython int multiply (Kronecker 1882; Harvey, arXiv:0712.4046):

* each operand is packed into one int, its term (eq, el, eb) at slot
  ``eq + dq*(el + dl*eb)`` counted from its lowest exponents, where dq and
  dl are the degree ranges of the product, so no slot of the product wraps
  into another;
* a slot is W bits wide: the bit length of
  ``min(len_a, len_b) * max|a| * max|b|`` plus a sign bit, rounded up to
  whole bytes.  Each coefficient of the product is a sum of at most
  min(len_a, len_b) products of two coefficients, so none reaches the sign
  bit; the bound comes from the ints, never from a packed value;
* the two ints are multiplied once, 2**(W-1) is added to every slot, which
  lifts each into [0, 2**W) so that no slot borrows from the next, and the
  slots are read back by byte slicing.

``Polynomial.__mul__`` in :mod:`rrcf.poly` decides which products take
this path, and the ``poly`` module docstring gives the measurements behind
that gate.
"""

from __future__ import annotations

from typing import Mapping


def product_box(a: Mapping[tuple, int], b: Mapping[tuple, int]) -> tuple[int, ...]:
    """(low_q, low_l, low_b, dq, dl, db): the lowest exponents of a*b and its degree ranges."""
    lows, sizes = [], []
    for xa, xb in zip(zip(*a), zip(*b)):
        la, lb = min(xa), min(xb)
        lows.append(la + lb)
        sizes.append(max(xa) - la + max(xb) - lb + 1)
    return (*lows, *sizes)


def slot_bytes(bound: int) -> int:
    """Bytes of a slot that holds any value of absolute value at most bound, with its sign bit."""
    return bound.bit_length() // 8 + 1


def _pack(terms: Mapping[tuple, int], dq: int, dl: int, width: int) -> int:
    """sum c * 2**(8*width*slot), slot = eq + dq*(el + dl*eb) counted from the operand's lowest exponents."""
    eqs, els, ebs = zip(*terms)
    lq, ll, lb = min(eqs), min(els), min(ebs)
    size = (max(eqs) - lq + dq * (max(els) - ll + dl * (max(ebs) - lb)) + 1) * width
    pos = bytearray(size)
    neg = None  # only an operand with a negative coefficient needs a second buffer
    for (eq, el, eb), c in terms.items():
        at = (eq - lq + dq * (el - ll + dl * (eb - lb))) * width
        if c > 0:
            pos[at:at + width] = c.to_bytes(width, "little")
        else:
            if neg is None:
                neg = bytearray(size)
            neg[at:at + width] = (-c).to_bytes(width, "little")
    packed = int.from_bytes(pos, "little")
    return packed if neg is None else packed - int.from_bytes(neg, "little")


def product(a: Mapping[tuple, int], b: Mapping[tuple, int], box: tuple[int, ...]) -> dict[tuple, int]:
    """The term map of a*b, zeros dropped, for the box product_box(a, b) gives."""
    low_q, low_l, low_b, dq, dl, db = box
    width = slot_bytes(min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values())))
    # the operand ints are temporaries, dropped once multiplied
    packed = _pack(a, dq, dl, width) * _pack(b, dq, dl, width)
    # flipping each slot's top bit back after the lift leaves the slot's two's
    # complement, so a zero coefficient reads as zero bytes
    slots, row, zero = dq * dl * db, dq * width, bytes(width)
    half = int.from_bytes((zero[1:] + b"\x80") * slots, "little")
    packed = (packed + half) ^ half
    del half
    data = packed.to_bytes(slots * width, "little")
    del packed
    out: dict[tuple, int] = {}
    at = 0
    for eb in range(low_b, low_b + db):
        for el in range(low_l, low_l + dl):
            line = data[at:at + row]
            at += row
            # only the slots between the row's first and last nonzero byte are read
            first = (row - len(line.lstrip(b"\0"))) // width
            end = -(-len(line.rstrip(b"\0")) // width)
            for i in range(first, end):
                chunk = line[i * width:(i + 1) * width]
                if chunk != zero:
                    out[(low_q + i, el, eb)] = int.from_bytes(chunk, "little", signed=True)
    return out
