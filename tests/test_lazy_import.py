"""numpy stays out of the process until a Monte-Carlo name is used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdpcal

SRC = str(Path(__file__).resolve().parents[1] / "src")

MC_NAMES = ("ExponentFit", "McConfig", "McRiskResult", "McRun", "PriorSpec",
            "estimate_prior_exponent", "fit_power_law", "load_mc_config",
            "load_exponent_config", "mc_bayes_risk", "substream")


def _fresh_modules(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; return the modules it left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.splitlines()[-1].split())


@pytest.mark.parametrize("code", [
    "import mdpcal",
    "import mdpcal.cli",
    "from mdpcal.cli import main; main(['plugin', '--kappa-hat', '2', '--rho', '1', "
    "'--n', '10000'])",
    "from mdpcal.cli import main; main(['calibrate', 'ks', '--kappa', '2', '--n', '10000'])",
])
def test_closed_form_paths_do_not_load_numpy(code):
    modules = _fresh_modules(code)
    assert "mdpcal" in modules
    assert "numpy" not in modules
    assert "mdpcal.mc_engine" not in modules


def test_mc_name_loads_engine_on_first_use():
    modules = _fresh_modules("import mdpcal; mdpcal.PriorSpec")
    assert "numpy" in modules
    assert "mdpcal.mc_engine" in modules


def test_lazy_names_are_the_engine_objects():
    import mdpcal.mc_engine
    for name in MC_NAMES:
        assert getattr(mdpcal, name) is getattr(mdpcal.mc_engine, name)
    from mdpcal import PriorSpec
    assert PriorSpec is mdpcal.mc_engine.PriorSpec


def test_dir_lists_mc_names():
    assert set(MC_NAMES) <= set(dir(mdpcal))
    assert "calibrate_ks" in dir(mdpcal)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        mdpcal.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from mdpcal import no_such_name  # noqa: F401
