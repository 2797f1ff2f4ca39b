#!/usr/bin/env python3
"""Quickstart: find a universal occupancy vector and map storage with it.

Walks the paper's Figure 1 example end to end:

1. write the loop as an IR program;
2. run value-based dependence analysis to get the stencil;
3. check the UOV technique applies;
4. search for the optimal UOV (branch and bound, Section 3.2);
5. build the storage mapping (Section 4) and compare allocations;
6. execute natural / OV-mapped / storage-optimized versions and confirm
   they compute identical results — with the OV version also correct
   under a *tiled* schedule, which the storage-optimized one cannot be.

Run:  python examples/quickstart.py
"""

from repro import Polytope, Stencil, find_optimal_uov
from repro.analysis import check_uov_applicability, extract_stencil
from repro.codes import make_simple2d
from repro.execution import execute, verify_versions
from repro.mapping import OVMapping


def main() -> None:
    versions = make_simple2d()
    program = versions["natural"].code.program
    print("The loop (Figure 1 of the paper):")
    print(f"  {program}")
    print()

    # -- analysis ----------------------------------------------------------
    stencil = extract_stencil(program)
    print(f"value-dependence stencil: {list(stencil.vectors)}")
    report = check_uov_applicability(program, {"n": 16, "m": 16})
    print(f"applicability: {report}")
    print()

    # -- the UOV search ------------------------------------------------------
    result = find_optimal_uov(stencil)
    print(f"initial UOV (sum of dependences): {stencil.initial_uov}")
    print(f"optimal UOV found: {result}")
    print()

    # -- storage mapping ---------------------------------------------------
    n, m = 100, 150
    isg = Polytope.from_box((1, 1), (n, m))
    mapping = OVMapping(result.ov, isg)
    expr = mapping.expression(["i", "j"])
    print(f"storage mapping: SM(i, j) = {expr.to_python()}")
    print(f"  allocation: {mapping.size} locations (natural: {n * m})")
    print(f"  address ops: {expr.op_counts()}")
    print()

    # -- execution: all versions agree, and the OV version tiles --------------
    sizes = {"n": 12, "m": 17}
    outputs = verify_versions(versions.values(), sizes)
    print(
        f"all {len(versions)} versions produced identical outputs "
        f"(first values: {outputs[:3].round(6)})"
    )
    tiled = execute(versions["ov-tiled"], sizes, check_legality=True)
    print(
        "the OV-mapped version runs under a tiled schedule with "
        f"{tiled.storage.size} storage locations — "
        f"{versions['storage-optimized'].storage(sizes)} would be the "
        "untilable minimum"
    )


if __name__ == "__main__":
    main()
