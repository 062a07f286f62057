"""Exact verification toolkit for a glued torus-and-cylinder metric space.

The space joins a flat 2-torus to a cylinder over it with a cross-component
offset R and a capped line gap M.  The package verifies, with exact
arithmetic over Q(sqrt(d)) wherever the inputs allow it, that the gluing is
a metric exactly when 2R >= M, that its isometries split into torus and
line parts, and that restricting to a dense winding line produces isometry
orbits on the torus that are dense yet not closed.

Each of those questions has its own layer (`gluing`, `isometry`, `orbit`),
and a layer loads on first use (PEP 562): `import torusglue` imports no
submodule, and the first lookup of a name imports its home module and
caches the name here, so later lookups are plain global reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it exports here
_EXPORTS = {
    "gluing": """
        AxiomReport AxiomViolation Distance GluedPoint GluingParams TriangleWitness
        WindingPoint check_metric_axioms glued_distance grid_nearest_in_compact
        grid_nearest_on_line nearest_in_compact nearest_line_set nearest_on_line
        triangle_counterexample winding_distance
    """,
    "isometry": """
        ComponentSwapError DecompositionError LiftedIsometry LineActionError LineIsometry
        ProductFormError ProductIsometry SubtorusElement TorusActionError TorusIsometry
        VerificationReport decompose_isometry lift_line_isometry line_transitivity_witness
        subtorus_isometries verify_isometry
    """,
    "numerics": """
        EXACT FLOAT CertificationError ExactnessError FieldMismatchError QuadScalar
        ScalarMode format_scalar parse_scalar
    """,
    "orbit": """
        CircleHit CircleMembership CircleNonMembership Convergent DensityHit DensityReport
        LocalIsometryRecord NonClosureReport NonMembershipCertificate OrbitMembership
        ValidityRadiusError cf_convergents cf_expansion circle_density_hit
        circle_orbit_membership density_report local_isometry_check non_closure_report
        orbit_membership torus_density_hit
    """,
    "report": "canonical_json density_csv scalar_json",
    "torus": """
        GramMatrix Length OneParamSubgroup Subtorus TangentVector TorusPoint
        naive_torus_distance_sq systole systole_sq torus_distance torus_distance_sq
    """,
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli", "sampling"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
