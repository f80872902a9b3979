#!/usr/bin/env python3
"""A guided tour of speed diagrams (Figures 3–6 of the paper).

Builds a small encoder cycle, then walks through the geometric objects the
paper defines: virtual time, ideal and optimal speeds, Proposition 1, quality
regions and control relaxation regions — printing the numbers and an ASCII
rendering of the diagram.

Run with ``python examples/speed_diagram_tour.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import render_speed_diagram
from repro.api import Session
from repro.core import SpeedDiagram


def main() -> None:
    session = Session().system("small").seed(2)
    system = session.resolved_system()
    deadlines = session.resolved_deadlines()
    controllers = session.compile()
    diagram = SpeedDiagram(system, deadlines, td_table=controllers.td_table)
    deadline = deadlines.final_deadline

    print(f"cycle: {system.n_actions} actions, deadline D = {deadline:.1f} s\n")

    # 1. ideal speeds: one constant slope per quality level
    print("ideal speeds v_idl(q) = D / C^av(a_1..a_n, q):")
    for q in system.qualities:
        print(f"  q={q}: v_idl = {diagram.ideal_speed(q):.3f}")

    # 2. optimal speed and Proposition 1 at a mid-cycle state
    state = system.n_actions // 2
    time = deadline * 0.45
    print(f"\nat state s_{state} with actual time t = {time:.2f} s:")
    for q in system.qualities:
        a = diagram.assess(state, time, q)
        verdict = "admissible" if a.constraint_admissible else "too slow  "
        print(
            f"  q={q}: v_idl={a.ideal_speed:6.3f}  v_opt={a.optimal_speed:6.3f}  "
            f"{verdict}  (Proposition 1 agrees: {a.proposition1_agrees})"
        )
    print(f"  chosen quality (max admissible): {diagram.choose_quality(state, time)}")

    # 3. quality regions at that state (Proposition 2)
    print(f"\nquality regions at state s_{state} (intervals of actual time):")
    regions = controllers.region.regions
    for q in system.qualities:
        lower, upper = regions.bounds(state, q)
        lower_text = "-inf" if not np.isfinite(lower) else f"{lower:7.2f}"
        print(f"  R_{q}: ( {lower_text} , {upper:7.2f} ]")

    # 4. control relaxation regions (Proposition 3)
    relaxation = controllers.relaxation.relaxation
    q = diagram.choose_quality(state, time)
    print(f"\ncontrol relaxation regions R^r_{q} at state s_{state}:")
    for r in relaxation.steps:
        lower, upper = relaxation.bounds(state, q, r)
        if not np.isfinite(upper):
            print(f"  r={r:3d}: empty (fewer than r actions remain)")
            continue
        inside = "  <-- current state inside" if lower < time <= upper else ""
        lower_text = "-inf" if not np.isfinite(lower) else f"{lower:7.2f}"
        print(f"  r={r:3d}: ( {lower_text} , {upper:7.2f} ]{inside}")
    print(
        f"  => the manager can be switched off for "
        f"{relaxation.max_relaxation(state, time, q)} step(s) from here"
    )

    # 5. the full diagram with an executed trajectory
    outcome = next(session.manager("relaxation").oracle(1, seed=1))
    print("\nspeed diagram of one executed cycle:\n")
    print(render_speed_diagram(diagram, outcome, qualities_to_show=[0, 3, 6], width=70, height=20))


if __name__ == "__main__":
    main()
