"""The committed resynthesis library against the code that generates it.

Every entry must equal what :func:`compile_structure` and the ISOP sizes
give today, so a change to ISOP or factoring that forgets to regenerate
``library4.bin`` fails here (on a seeded sample) and in the fuzz-marked
full rebuild.
"""

import random
import struct
from importlib import resources

import pytest

from repro.logic.isop import isop_cube_count
from repro.logic.truthtable import tt_mask
from repro.mapping.cost import branching_complexity, lut_cost_table
from repro.synthesis import library
from repro.synthesis.library import main
from repro.synthesis.resynth import AndProgram, compile_structure, resynthesis_program


def _sample(count=2000, seed=16):
    """Every key of at most three inputs plus seeded 4-input tables."""
    keys = [(table, nvars) for nvars in range(4) for table in range(1 << (1 << nvars))]
    rng = random.Random(seed)
    return keys + [(rng.getrandbits(16), 4) for _ in range(count - len(keys))]


def test_file_ships_as_package_data():
    resource = resources.files("repro.synthesis.library").joinpath(library.FILE_NAME)
    assert resource.is_file()
    assert resource.read_bytes() == library.read()
    assert library.KEYS == sum(1 << (1 << nvars) for nvars in range(5))
    raw = library.read()
    (records,) = struct.unpack_from("<I", raw, 4 * library.KEYS)
    assert len(raw) == 4 * (library.KEYS + 1) + library.KEYS + records


def test_sampled_programs_regenerate():
    for table, nvars in _sample():
        structure = compile_structure(table, nvars)
        assert library.program(table, nvars) == (structure.steps, structure.output)


def test_branching_bytes_are_isop_sizes():
    for table, nvars in _sample():
        expected = (isop_cube_count(table, nvars)
                    + isop_cube_count(table ^ tt_mask(nvars), nvars))
        assert library.branching(table, nvars) == expected
        assert branching_complexity(table, nvars) == expected


def test_wider_functions_are_computed():
    rng = random.Random(5)
    for nvars in (5, 6, 7):
        table = rng.getrandbits(1 << nvars)
        expected = (isop_cube_count(table, nvars)
                    + isop_cube_count(table ^ tt_mask(nvars), nvars))
        assert branching_complexity(table, nvars) == expected
        assert resynthesis_program({}, table, nvars) == compile_structure(table, nvars)


def test_lookups_fill_the_callers_cache():
    cache: dict[tuple[int, int], AndProgram] = {}
    program = resynthesis_program(cache, 0x6996, 4)
    assert cache == {(4, 0x6996): program}
    assert resynthesis_program(cache, 0x6996, 4) is program


def test_four_input_cost_table_is_complete():
    table = lut_cost_table(4)
    assert len(table) == 1 << 16
    assert max(table.values()) == table[0x6996] == 16.0


def test_arguments_are_required():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.fuzz
def test_whole_library_regenerates():
    # --check rebuilds every entry and compares the bytes.
    assert main(["--check"]) == 0
