"""The spec-driven frontend: declarative stencils in, full ``Code`` out.

Write a :class:`StencilSpec` (JSON file, dict, or :class:`SpecBuilder`
chain) naming dimensions, bounds, source distances, the combine
expression, and a boundary/input rule; :func:`validate_spec` checks it
into canonical form with structured diagnostics, and
:func:`synthesize_code` turns it into the same ``Code`` object a
hand-written ``codes/*.py`` module would construct — IR program,
stencil, executable scalar and batched semantics, costs.  The four
built-in codes are themselves expressed this way, and the compilation
pipeline (:mod:`repro.pipeline`) consumes specs directly.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "COMBINE_HOOKS",
    "CompiledCombine",
    "INPUT_RULES",
    "InputBindings",
    "SemanticsHook",
    "SpecBuilder",
    "SpecError",
    "StencilSpec",
    "build_input_rule",
    "build_version",
    "code_to_spec",
    "compile_combine",
    "make_versions",
    "resolve_uov",
    "spec_version",
    "synthesize_code",
    "validate_spec",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.frontend.combine": (
            "COMBINE_HOOKS",
            "CompiledCombine",
            "SemanticsHook",
            "compile_combine",
        ),
        "repro.frontend.inputs": (
            "INPUT_RULES",
            "InputBindings",
            "build_input_rule",
        ),
        "repro.frontend.spec": (
            "SpecBuilder",
            "SpecError",
            "StencilSpec",
            "validate_spec",
        ),
        "repro.frontend.synth": (
            "build_version",
            "code_to_spec",
            "make_versions",
            "resolve_uov",
            "spec_version",
            "synthesize_code",
        ),
    },
)
