"""Property: the symbolic verdict equals the enumerative verdict.

The symbolic engine decides UOV safety once, for all box sizes; the
enumerative certifier decides it per-stencil (its cone search is also
size-independent).  Hypothesis drives randomized stencils and candidate
vectors through both and additionally replays universal verdicts through
the dynamic checker at several concrete box sizes, including
non-power-of-two ones.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.certify import UOVCertificate, certify
from repro.analysis.liveness import find_mapping_violation
from repro.analysis.symcert import symbolic_certify, SymbolicCertificate
from repro.core.stencil import Stencil
from repro.mapping import OVMapping
from repro.schedule.random_legal import sample_legal_orders
from repro.util.fm import FMBudgetExceeded
from repro.util.polyhedron import Polytope

# Box extents the universal verdict is spot-checked at: at least three,
# including non-powers-of-two.
EXTENTS = (3, 5, 7)


def vectors_strategy(dim):
    coord = st.integers(min_value=-2, max_value=2)
    vec = st.tuples(*[coord] * dim)
    # A stencil needs at least one lexicographically positive vector;
    # filter rather than construct so shrinking stays simple.
    return st.lists(vec, min_size=1, max_size=4).filter(
        lambda vs: any(v > (0,) * dim for v in vs)
    )


def build_stencil(vectors, dim):
    kept = sorted({v for v in vectors if v > (0,) * dim})
    return Stencil(kept)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=2, max_value=3),
    data=st.data(),
)
def test_symbolic_matches_enumerative(dim, data):
    vectors = data.draw(vectors_strategy(dim), label="stencil vectors")
    stencil = build_stencil(vectors, dim)
    coord = st.integers(min_value=-2, max_value=3)
    ov = data.draw(st.tuples(*[coord] * dim), label="candidate ov")
    if all(c == 0 for c in ov):
        ov = stencil.initial_uov

    try:
        symbolic = symbolic_certify(ov, stencil)
    except FMBudgetExceeded:
        return  # budget exhaustion is an allowed, visible outcome
    enumerative = certify(ov, stencil)

    sym_universal = isinstance(symbolic, SymbolicCertificate)
    enum_universal = isinstance(enumerative, UOVCertificate)
    assert sym_universal == enum_universal, (
        f"disagreement for ov={ov} stencil={stencil.vectors}: "
        f"symbolic={type(symbolic).__name__} "
        f"enumerative={type(enumerative).__name__}"
    )

    if not sym_universal:
        # A rejection must be backed by a replayed clobber whenever the
        # enumerative counterexample is replayable at all (degenerate
        # geometries — e.g. backwards OVs — legitimately are not).
        if enumerative.replayable:
            assert symbolic.confirmed, (
                f"unconfirmed symbolic rejection for ov={ov} "
                f"stencil={stencil.vectors}"
            )
        return

    # Universal claims are cheap to check dynamically: no legal execution
    # order at any spot-checked size may clobber a pending value.
    assert symbolic.verify()
    for extent in EXTENTS:
        box = tuple((0, extent - 1) for _ in range(dim))
        mapping = OVMapping(ov, Polytope.from_loop_bounds(box))
        for order in sample_legal_orders(stencil, box, samples=2, seed=extent):
            assert (
                find_mapping_violation(mapping, stencil, order) is None
            ), f"dynamic violation at extent {extent} for ov={ov}"
