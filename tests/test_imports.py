"""Import-graph guard: each entry point loads only the posikit submodules it
runs. Every check starts a fresh interpreter and reads ``sys.modules``, so
what an earlier test imported cannot hide a regrown cold start."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posikit

ROOT = Path(__file__).resolve().parents[1]

# The package's public names, by defining submodule.
EXPORTS = {
    "constants": [
        "BOUND", "CLOSED_FORM", "MONTE_CARLO", "ConstantEstimate", "ErrorModel",
        "asymptotic_cap_constant", "cap_bonferroni_bound", "max_abs_t_draws",
        "orth_constant", "posi1_constant", "posi_constant", "scheffe_constant",
    ],
    "design": ["CanonicalDesign", "DesignMatrix", "canonicalize", "load_design"],
    "errors": ["DataError", "InfeasibleError"],
    "families": [
        "exchangeable_cosine", "exchangeable_design", "exchangeable_direction_formula",
        "exchangeable_inverse_param", "exchangeable_ratio_table",
        "exhaustive_worst_posi1_stat", "fast_worst_posi1_stat", "rate_function",
        "rate_function_max", "worst_posi1_design", "worst_posi1_table",
    ],
    "geometry": [
        "CensusReport", "DualityReport", "PolytopeSpec", "directions_match_up_to_sign",
        "dual_design", "orthogonality_census", "polytope_contains", "verify_duality",
    ],
    "inference": [
        "CoverageResult", "FitResult", "IntervalReport", "IntervalRow", "TargetSpec",
        "coverage_experiment", "fit_submodel", "make_best_r2_selector",
        "make_spar1_selector", "make_spar_selector", "make_stepwise_selector",
        "posi_intervals", "spar1_select", "spar_select", "submodel_target", "t_ratio",
    ],
    "lattice": [
        "Direction", "DirectionSet", "ModelId", "ModelUniverse", "adjusted_predictor",
        "direction_stream", "enumerate_models", "vif",
    ],
}
# Names posikit.design forwards to posikit.lattice, which once lived in design.
FORWARDED = [*EXPORTS["lattice"], "LevelBatch"]


def fresh(code: str) -> str:
    """Run code in a new interpreter with the checkout's src first on the
    path; return its stdout."""
    pythonpath = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ else [])
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'posikit')"


@pytest.fixture()
def design_file(tmp_path):
    path = tmp_path / "g6.csv"
    np.savetxt(path, np.random.default_rng(4).standard_normal((10, 6)), delimiter=",")
    return str(path)


def test_load_and_canonicalize_load_only_design(design_file):
    # Set-up compiles ingestion alone: no lattice module, and no dataclasses.
    loaded, dataclasses = json.loads(fresh(
        "import json, sys, posikit; "
        f"posikit.canonicalize(posikit.load_design({design_file!r})); "
        f"print(json.dumps([{LOADED}, 'dataclasses' in sys.modules]))"
    ))
    assert loaded == ["posikit", "posikit.design", "posikit.errors"]
    assert not dataclasses


def test_k_command_loads_no_inference_geometry_or_families(design_file):
    loaded = json.loads(fresh(
        "import json, sys; from posikit import cli; "
        f"assert cli.run(['k', '--design', {design_file!r}, '--mc-samples', '200', "
        "'--output', 'text']) == 0; "
        f"print(json.dumps({LOADED}))"
    ).splitlines()[-1])
    assert "posikit.constants" in loaded
    assert not {"posikit.inference", "posikit.geometry", "posikit.families"} & set(loaded)


PUBLIC_NAMES = f"""
import importlib, json, posikit
same = {{}}
for module, names in {EXPORTS!r}.items():
    lazy = getattr(posikit, module)
    defining = importlib.import_module("posikit." + module)
    same[module] = lazy is defining
    same.update((name, getattr(posikit, name) is getattr(defining, name))
                for name in names)
import posikit.design, posikit.lattice
forwarded = {{name: getattr(posikit.design, name) is getattr(posikit.lattice, name)
             for name in {FORWARDED!r}}}
star = {{}}
exec("from posikit import *", star)
del star["__builtins__"]
print(json.dumps({{
    "all": posikit.__all__,
    "same": same,
    "star": sorted(star),
    "star_same": all(value is getattr(posikit, name) for name, value in star.items()),
    "missing_from_dir": sorted(set(posikit.__all__) - set(dir(posikit))),
    "forwarded": forwarded,
}}))
"""


def test_every_public_name_is_its_submodules_object():
    # Each name, first looked up lazily in a fresh interpreter and then bound
    # by a star import, is the object its defining submodule holds.
    report = json.loads(fresh(PUBLIC_NAMES))
    expected = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])
    assert len(expected) == 68
    assert sorted(report["all"]) == expected
    assert sorted(report["same"]) == expected
    assert all(report["same"].values())
    assert report["star"] == expected and report["star_same"]
    assert report["missing_from_dir"] == []
    assert report["forwarded"] == dict.fromkeys(FORWARDED, True)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        posikit.no_such_name
    assert not hasattr(posikit, "_private")
    assert "no_such_name" not in vars(posikit)


def test_design_forwards_only_the_lattice_public_names():
    # posikit.design loads the lattice on the first forwarded lookup, not
    # when it loads. Private lattice names are not forwarded, so a patch of
    # posikit.design._walk_factors fails instead of shadowing the walker.
    before, after = json.loads(fresh(
        "import json, sys, posikit.design; "
        "before = 'posikit.lattice' in sys.modules; "
        "posikit.design.ModelUniverse; "
        "print(json.dumps([before, 'posikit.lattice' in sys.modules]))"
    ))
    assert (before, after) == (False, True)
    import posikit.design

    for name in ("_walk_factors", "_level_batches", "no_such_name"):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(posikit.design, name)
