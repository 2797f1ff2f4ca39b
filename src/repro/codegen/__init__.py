"""Source-code generation for mapped loops.

The compiler the paper sketches ends by *generating code*: the original
loop with every reference to the temporary array rewritten through the
storage mapping (Figure 1(b)), possibly restructured by tiling, with the
modterm of non-prime OVs removed by unrolling the inner loop.

- :mod:`repro.codegen.python_gen` — emits runnable Python for any code
  version; the test suite ``exec``'s the result and checks it against the
  interpreter, so the generator is verified end to end.
- :mod:`repro.codegen.c_gen` — emits self-contained, compilable C (the
  form the paper's experiments compiled with gcc); the native execution
  tier compiles and runs it, and the differential suite holds it
  bit-identical to the interpreter.
- :mod:`repro.codegen.build` — toolchain discovery and the content-hash
  shared-object compilation cache behind the native tier.
- :mod:`repro.codegen.unroll` — mod-removal by unrolling (Section 4.2).
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "generate_python",
    "build_runner",
    "generate_c",
    "halo_geometry",
    "Toolchain",
    "discover_toolchain",
    "toolchain_fingerprint",
    "compile_so",
    "unrollable_modulus",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.codegen.build": (
            "Toolchain",
            "compile_so",
            "discover_toolchain",
            "toolchain_fingerprint",
        ),
        "repro.codegen.c_gen": ("generate_c",),
        "repro.codegen.python_gen": ("build_runner", "generate_python"),
        "repro.codegen.unroll": ("unrollable_modulus",),
        "repro.execution.gather": ("halo_geometry",),
    },
)
