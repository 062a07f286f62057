"""The package namespace loads a layer on first use.

`torusglue` resolves each public name from its home module when it is first
looked up (PEP 562), and `orbit` and the CLI import the layers they call
where they call them.  The in-process tests pin the namespace: the same 75
names, each the very object of its home module.  The subprocess tests run a
fresh interpreter per call and read `sys.modules` after it, so they see
which layers a call really loads.
"""

import importlib
import json

import pytest

import torusglue

from test_numpy_free import _python

# home module -> the names the package exports from it
HOMES = {
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
HOME = {name: module for module, names in HOMES.items() for name in names.split()}

# prints the package's loaded submodules, as a JSON list, after the code before it
LOADED = """
import json, sys
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("torusglue."))))
"""


def _loaded_after(code: str) -> set:
    proc = _python(code + LOADED)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_all_lists_the_same_75_names():
    assert len(HOME) == 75
    assert len(torusglue.__all__) == 75
    assert set(torusglue.__all__) == set(HOME)


def test_every_name_is_its_home_modules_object():
    for name, module in HOME.items():
        home = importlib.import_module(f"torusglue.{module}")
        assert getattr(torusglue, name) is getattr(home, name), name


def test_dir_lists_every_name():
    assert set(dir(torusglue)) >= set(HOME) | {"__version__"}


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        torusglue.no_such_name
    assert not hasattr(torusglue, "_validity_radius_sq")  # private names stay in their modules


def test_star_import_binds_every_name():
    namespace = {}
    exec("from torusglue import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(HOME)


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import torusglue") == set()


def test_submodule_attribute_resolves_on_first_access():
    code = """
import torusglue
assert torusglue.torus.batch_torus_distance_sq.__module__ == "torusglue.torus"
"""
    assert _loaded_after(code) == {"numerics", "report", "torus"}


def test_float_axiom_check_loads_no_orbit_or_isometry():
    code = """
from fractions import Fraction
import torusglue as tg
rep = tg.check_metric_axioms(200, tg.GluingParams(Fraction(1), Fraction(3, 2)),
                             tg.GramMatrix(2, 1, 3), tg.FLOAT, seed=4)
assert rep.passed and rep.checks == 1600
tg.canonical_json(rep.describe())
"""
    loaded = _loaded_after(code)
    assert "gluing" in loaded
    assert not loaded & {"orbit", "isometry"}


def test_density_and_membership_load_no_gluing_sampling_or_isometry():
    code = """
from fractions import Fraction
import torusglue as tg
line = tg.OneParamSubgroup.canonical(tg.QuadScalar(0, 1, 2))
rep = tg.non_closure_report(tg.TorusPoint(Fraction(1, 3), Fraction(1, 5)), line,
                            [Fraction(1, 100)], gram=tg.GramMatrix.identity())
assert rep.passed
theta = (1 / line.alpha).frac()
hit = tg.circle_density_hit(Fraction(1, 3), theta, Fraction(0), Fraction(1, 10**6))
tg.canonical_json({"report": rep.describe(), "hit": hit.describe()})
"""
    loaded = _loaded_after(code)
    assert "orbit" in loaded
    assert not loaded & {"gluing", "sampling", "isometry"}


def test_local_isometry_check_imports_gluing_where_it_needs_it():
    code = """
from fractions import Fraction
import torusglue as tg
line = tg.OneParamSubgroup.canonical(tg.QuadScalar(0, 1, 2))
params = tg.GluingParams(Fraction(1), Fraction(2))
rec = tg.local_isometry_check(Fraction(1, 3), Fraction(1, 4), line, params)
assert rec.passed
assert isinstance(rec.distance, tg.Distance)
"""
    assert _loaded_after(code) >= {"orbit", "gluing"}


@pytest.mark.parametrize("argv", [
    ["verify-metric", "--samples", "200"],
    ["verify-metric", "--mode", "exact", "--samples", "5"],
    ["counterexample", "--R", "1/2", "--M", "2", "--allow-invalid-metric", "--samples", "5"],
    ["nearest", "--instances", "1"],
], ids=["verify-metric-float", "verify-metric-exact", "counterexample", "nearest"])
def test_metric_commands_load_no_orbit_or_isometry(argv):
    code = f"""
import io
from contextlib import redirect_stdout
from torusglue.cli import main
with redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code in (0, 1), code
"""
    loaded = _loaded_after(code)
    assert "gluing" in loaded
    assert not loaded & {"orbit", "isometry"}


@pytest.mark.parametrize("command", ["density", "non-closure"])
def test_density_commands_load_no_gluing_or_sampling(command):
    code = f"""
import io
from contextlib import redirect_stdout
from torusglue.cli import main
with redirect_stdout(io.StringIO()):
    code = main([{command!r}])
assert code == 0, code
"""
    loaded = _loaded_after(code)
    assert "orbit" in loaded
    assert not loaded & {"gluing", "sampling", "isometry"}
