"""Functional-unit opcodes, including the paper's low-precision additions.

Figure 6(b) adds four opcodes to the PCU functional units:

1. ``MUL_4x8``   — element-wise multiply of 4 packed 8-bit floats,
2. ``SPLIT_8_16`` — rearrange 8-bit products into two registers padded
   to 16-bit,
3. ``ADD_2x16``  — element-wise add of 2 packed 16-bit floats,
4. ``SPLIT_16_32`` — rearrange 16-bit sums padded to 32-bit,

after which the existing ``ADD_32`` completes the in-lane reduction.
Figure 6(d) fuses 1+2 and 3+4 into single-stage operations.
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """PCU FU operations with their datapath width semantics."""

    # Original full-precision ops.
    ADD_32 = "add32"
    MUL_32 = "mul32"
    SUB_32 = "sub32"
    MAX_32 = "max32"
    MIN_32 = "min32"
    # Low-precision additions (Figure 6b).
    MUL_4x8 = "mul4x8"
    SPLIT_8_16 = "split8to16"
    ADD_2x16 = "add2x16"
    SPLIT_16_32 = "split16to32"
    # Fused forms (Figure 6d).
    FUSED_MUL_4x8_SPLIT = "mul4x8+split"
    FUSED_ADD_2x16_SPLIT = "add2x16+split"


def low_precision_map_reduce_schedule(fused: bool) -> list[Opcode]:
    """The in-lane schedule reducing 4 packed 8-bit products to one 32-bit
    value, before the cross-lane tree.

    Figure 6(b): five stages unfused; Figure 6(d): two fused stages plus
    the existing 32-bit add.
    """
    if fused:
        return [
            Opcode.FUSED_MUL_4x8_SPLIT,
            Opcode.FUSED_ADD_2x16_SPLIT,
            Opcode.ADD_32,
        ]
    return [
        Opcode.MUL_4x8,
        Opcode.SPLIT_8_16,
        Opcode.ADD_2x16,
        Opcode.SPLIT_16_32,
        Opcode.ADD_32,
    ]
