"""Every preset's defaults and initial flows, pinned row by row."""

import pytest

from varimcf.presets import PRESET_NAMES, make_preset

# name -> (eps, dt, end_time, atoms per flow, total mass per flow,
#          whether the flows carry boundary meshes)
EXPECTED = {
    "circle": (0.1, 2e-3, 0.3, [200], [6.282926924728271], True),
    "sphere": (0.2, 2.5e-3, 0.05, [320], [12.329848595234669], True),
    "two-concentric-circles": (0.05, 2e-3, 0.12, [100, 200],
                               [3.1410759078128296, 6.282926924728271], True),
    "square-partition": (0.1, 2e-3, 0.1, [12], [8.0], True),
    "two-region": (0.1, 2e-3, 0.1, [64, 128],
                   [3.140331156954753, 6.282554501865544], True),
    "enlaced-circles": (0.1, 6e-3, 0.36, [80, 80],
                        [6.281570521450977, 6.281570521450977], False),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_defaults_and_flows(name):
    eps, dt, end_time, atoms, masses, meshed = EXPECTED[name]
    sc = make_preset(name)
    assert sc.name == name and sc.description
    cfg = sc.config
    assert (cfg.eps, cfg.dt, cfg.end_time) == (eps, dt, end_time)
    assert cfg.refinement == 2
    if len(atoms) == 1:
        assert sc.pair is None and sc.pair_meshes is None
        flows, meshes = (sc.varifold,), (sc.mesh,)
    else:
        assert sc.varifold is None and sc.mesh is None
        flows, meshes = sc.pair, sc.pair_meshes or (None, None)
    assert [len(V) for V in flows] == atoms
    assert [V.total_mass() for V in flows] == pytest.approx(masses, abs=1e-12)
    assert all((m is not None) == meshed for m in meshes)

