"""The interval primitive's cells: built once per decided state, shared, read-only.

A relaxation manager's cells are built on each state's first decision and
kept with the compiled manager, so every later run, a session clone and the
delegating wrappers (dvfs, multitask) over the same compiled controllers
read the one cell object instead of building their own.
"""

from __future__ import annotations

import numpy as np

from repro.api import Session


def _cells(manager):
    return manager.lower().tables["cells"]


def _decided(run) -> set[int]:
    """The states at which any cycle of a materialised run decided."""
    return set(np.flatnonzero(run.outcomes.invoked.any(axis=1)).tolist())


def test_runs_clones_and_wrappers_read_one_cell_object():
    session = Session().system("small").seed(0).manager("relaxation")
    cells = _cells(session.build())
    assert cells.built == ()

    # a 1-cycle run builds exactly the states it decided at
    decided = _decided(session.run(cycles=1))
    assert 0 < len(decided) < session.resolved_system().n_actions
    assert set(cells.built) == decided

    # every later run grows the same object by its own decided states only
    decided |= _decided(session.run(cycles=3, seed=1))
    assert set(cells.built) == decided
    clone = session.clone()
    assert _cells(clone.build()) is cells
    decided |= _decided(clone.run(cycles=2, seed=2))
    assert set(cells.built) == decided
    for wrapper in ("dvfs", "multitask"):
        run_session = session.clone().manager(wrapper)
        assert _cells(run_session.build()) is cells
        decided |= _decided(run_session.run(cycles=2, seed=3))
        assert set(cells.built) == decided


def test_cell_arrays_are_read_only():
    session = Session().system("small").seed(0)
    for key in ("relaxation", "region", "linear-approx"):
        cells = _cells(session.build(key))
        for state in (0, 5):
            for array in cells[state]:
                assert not array.flags.writeable, key
