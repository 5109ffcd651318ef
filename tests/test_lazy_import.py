"""numpy stays out of the process until a Monte-Carlo name or a sample kernel is used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdpcal
from mdpcal import cli

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
    "import mdpcal.gof_stats as g; from mdpcal import evidence_bundle; "
    "c = g.CountVector((7, 3)); g.pearson_chi2(c, (0.5, 0.5)); evidence_bundle(c, (0.5, 0.5))",
])
def test_closed_form_paths_do_not_load_numpy(code):
    modules = _fresh_modules(code)
    assert "mdpcal" in modules
    assert "numpy" not in modules
    assert "mdpcal.mc_engine" not in modules
    # The type rule loads numbers only for a value that is neither float nor int.
    assert "numbers" not in modules


# One succeeding argv per closed-form subcommand: every cli._COMMANDS entry but
# the Monte-Carlo ones.  {tmp} stands for a per-test directory.
MC_COMMANDS = {"mc", "prior-exponent"}
CLOSED_FORM_ARGV = {
    "calibrate": "calibrate ks --kappa 2 --n 10000",
    "risk-curve": "risk-curve --rho 1 --kappa 2 --n 10000",
    "regimes": "regimes --rho 1 --kappa 2 --alpha 0.05 --n-list 100,10000",
    "tables": "tables --out-dir {tmp}/tables",
    "sanov": "sanov --input {tmp}/sanov.json",
    "truncation": "truncation --kappa 2 --n 10000",
    "radius": "radius --rho 1 --poly 1 --n 10000",
    "slopes": "slopes --theta-list 0.5,1",
    "triangulate": "triangulate --counts 7,3 --theta0 0.5,0.5",
    "plugin": "plugin --kappa-hat 2 --rho 1 --n 10000",
}


def test_every_closed_form_command_has_an_argv():
    assert set(CLOSED_FORM_ARGV) == set(cli._COMMANDS) - MC_COMMANDS


@pytest.mark.parametrize("command", sorted(CLOSED_FORM_ARGV))
def test_closed_form_command_does_not_load_numpy(command, tmp_path):
    (tmp_path / "sanov.json").write_text(
        '{"support": [0, 1], "probs": [0.5, 0.5], "phi": [-1, 1]}')
    argv = [token.format(tmp=tmp_path) for token in CLOSED_FORM_ARGV[command].split()]
    modules = _fresh_modules(f"from mdpcal.cli import main; assert main({argv!r}) == 0")
    assert "numpy" not in modules
    assert "mdpcal.mc_engine" not in modules
    assert "numbers" not in modules


def test_data_kernels_load_numpy_but_not_the_engine():
    modules = _fresh_modules("import mdpcal as g; b = g.SampleBatch((-1.0, 0.5)); "
                             "g.sign_count(b); g.ks_statistic(b, lambda x: 0.5)")
    assert "numpy" in modules
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
