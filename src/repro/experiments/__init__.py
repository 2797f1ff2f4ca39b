"""The paper's evaluation, experiment by experiment.

Every table and figure of Section 5 (plus the worked examples of
Figures 1, 3 and 5) has a module here that regenerates it:

=============  ====================================================
module         reproduces
=============  ====================================================
``table1``     Table 1 — 5-point stencil storage requirements
``table2``     Table 2 — protein string matching storage
``fig1``       Figure 1 — natural / OV / optimized worked example
``fig3``       Figure 3 — known-bounds search: longer OV, less storage
``fig5``       Figure 5 — non-prime UOV, interleaved storage mapping
``fig7``       Figure 7 — 5-point stencil overhead (in-cache)
``fig8``       Figure 8 — PSM overhead (in-cache)
``fig9_11``    Figures 9-11 — 5-point stencil scaling, 3 machines
``fig12_14``   Figures 12-14 — PSM scaling, 3 machines
``npc``        Section 3.1 — NP-completeness reduction sanity
``overview``   the whole pipeline applied to every benchmark code
``engines``    interpreter vs vectorized vs compiled-native wall clock
=============  ====================================================

Each module exposes ``run(mode)`` returning
:class:`~repro.experiments.harness.ExperimentResult` (``mode`` is
``"quick"`` for CI-sized sweeps or ``"full"`` for the figure-quality
sweep) and a ``check(result)`` that evaluates the paper's qualitative
claims against the fresh numbers.  ``repro.experiments.report`` runs
everything and rewrites EXPERIMENTS.md.
"""

#: Registry of experiment module names, in presentation order.
ALL_EXPERIMENTS = (
    "overview",
    "engines",
    "fig1",
    "fig3",
    "fig5",
    "table1",
    "table2",
    "fig7",
    "fig8",
    "fig9_11",
    "fig12_14",
    "npc",
)
