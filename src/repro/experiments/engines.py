"""Engine comparison — the paper's `gcc -O2` tier, measured for real.

Not a figure from the paper, but the reproduction's own evaluation of
its three execution engines: the scalar interpreter (oracle), the
vectorized NumPy engine, and the compiled native tier (generated C →
shared object → ctypes).  The experiment wall-clocks all three on the
5-point stencil's OV version and checks the two properties the engine
stack promises:

- **bit-identity** — all engines that ran produced byte-identical
  live-out values (the differential guarantee the native tests enforce
  per version, demonstrated here end to end);
- **graceful availability** — on a machine without a C compiler the
  native run still completes, reporting the vectorized engine and a
  structured degradation instead of crashing or lying.

Speed claims are deliberately lenient (native faster than the scalar
interpreter when a toolchain exists) so CI machines with noisy clocks
or tiny containers never flake; the quantitative ≥5x-over-vectorized
evidence is the warm-cache benchmark test
``benchmarks/test_bench_native.py::test_native_speedup_5x_at_n512``.
"""

from __future__ import annotations

import time

from repro.codes import make_stencil5
from repro.execution.engines import ENGINES, run_engine
from repro.experiments.harness import ExperimentResult

TITLE = "Execution engines: interpreter vs vectorized vs native"


def run(mode: str = "quick") -> ExperimentResult:
    sizes_list = (
        [{"T": 128, "L": 128}, {"T": 512, "L": 512}]
        if mode == "full"
        else [{"T": 48, "L": 48}]
    )
    version = make_stencil5()["ov"]
    result = ExperimentResult("engines", TITLE, mode)

    from repro.codegen.build import discover_toolchain

    toolchain = discover_toolchain()
    result.notes.append(
        f"toolchain: {toolchain.describe() if toolchain else 'none'}"
    )

    rows = [["sizes", *ENGINES, "native engine_used"]]
    identical = True
    native_used: list[str] = []
    native_wall: dict[str, float] = {}
    interp_wall: dict[str, float] = {}
    for sizes in sizes_list:
        key = str(sorted(sizes.items()))
        # Warm the shared-object cache so the native column times the
        # run, not the one-off compile.
        warm = run_engine("native", version, sizes)
        native_used.append(warm.engine_used)
        outputs = None
        cells = []
        for engine in ENGINES:
            t0 = time.perf_counter()
            r = run_engine(engine, version, sizes)
            wall = time.perf_counter() - t0
            if engine == "native":
                native_wall[key] = wall
            if engine == "interpreter":
                interp_wall[key] = wall
            out = r.output_values()
            if outputs is None:
                outputs = out
            elif out.shape != outputs.shape or (out != outputs).any():
                identical = False
            cells.append(f"{wall * 1e3:.1f} ms")
        rows.append([str(dict(sizes)), *cells, warm.engine_used])
    result.tables["wall clock per engine"] = rows

    result.claim(
        "all engines produce bit-identical live-out values",
        lambda: identical,
    )
    result.claim(
        "the native engine runs everywhere: compiled when a toolchain "
        "exists, degraded to vectorized (never crashed) otherwise",
        lambda: all(
            used == ("native" if toolchain else "vectorized")
            for used in native_used
        ),
    )
    result.claim(
        "with a toolchain, native beats the scalar interpreter",
        lambda: toolchain is None
        or all(native_wall[k] < interp_wall[k] for k in native_wall),
    )
    return result
