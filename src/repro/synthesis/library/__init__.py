"""The committed resynthesis library: every function of at most four inputs.

Like ABC's ``rewrite``, ``rewrite`` and the branching cost read ≤4-input
answers from a library computed in advance: per ``(nvars, table)`` key the
program of :func:`~repro.synthesis.resynth.compile_structure` and the
branching complexity.  ``library4.bin`` is ``KEYS + 1`` little-endian uint32
record offsets, ``KEYS`` branching bytes, then the records (output operand,
then the steps' operand pairs); it is read on first use and kept as bytes.  ``python -m repro.synthesis.library --write`` rebuilds it (about ten
seconds); ``--check`` exits 1 when it is stale.
"""

from __future__ import annotations

import argparse
import struct
import sys
from importlib import resources
from pathlib import Path

MAX_INPUTS = 4
FIRST_KEY = (0, 2, 6, 22, 278)  # key index of (nvars, 0)
KEYS = 65_814
FILE_NAME = "library4.bin"
_BRANCHING = 4 * KEYS + 4
_RECORDS = _BRANCHING + KEYS
_raw = b""


def read() -> bytes:
    """The committed library's bytes."""
    return resources.files(__name__).joinpath(FILE_NAME).read_bytes()


def _library() -> bytes:
    global _raw
    _raw = _raw or read()
    return _raw


def program(table: int, nvars: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The ``(steps, output)`` of the structure for a ≤4-input ``table``."""
    raw = _library()
    start, end = struct.unpack_from("<2I", raw, 4 * (FIRST_KEY[nvars] + table))
    record = raw[_RECORDS + start:_RECORDS + end]
    return tuple(zip(record[1::2], record[2::2])), record[0]


def branching(table: int, nvars: int) -> int:
    """The branching complexity of a ≤4-input ``table``."""
    return _library()[_BRANCHING + FIRST_KEY[nvars] + table]


def build() -> bytes:
    """The library's bytes, computed from scratch."""
    # Imported here: resynth reads its ≤4-input programs from this module.
    from repro.logic.isop import isop_cube_count
    from repro.synthesis.resynth import compile_structure

    offsets, costs, records = [0], bytearray(), bytearray()
    for nvars in range(MAX_INPUTS + 1):
        mask = (1 << (1 << nvars)) - 1
        for table in range(mask + 1):
            structure = compile_structure(table, nvars)
            records += bytes([structure.output, *sum(structure.steps, ())])
            offsets.append(len(records))
            costs.append(isop_cube_count(table, nvars)
                         + isop_cube_count(table ^ mask, nvars))
    return struct.pack(f"<{len(offsets)}I", *offsets) + costs + records


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.synthesis.library --write | --check``."""
    parser = argparse.ArgumentParser(prog="python -m repro.synthesis.library")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rebuild the file")
    mode.add_argument("--check", action="store_true", help="exit 1 if it is stale")
    write = parser.parse_args(argv).write
    fresh = build()
    if write:
        Path(__file__).with_name(FILE_NAME).write_bytes(fresh)
    elif read() != fresh:
        print(f"{FILE_NAME} is stale: run python -m repro.synthesis.library "
              "--write", file=sys.stderr)
        return 1
    print(f"{FILE_NAME} is current")
    return 0
