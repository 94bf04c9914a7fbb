"""The layer boundaries that perfbench/tracing.py wraps stay where it looks.

The tracer replaces module and class attributes for the duration of a traced
run.  A boundary that moved, was renamed or was bound to a local name would
silently drop out of the per-layer metrics, so this pins each one down.
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from varimcf import cli, flow, geometry, metrics, mollifier, presets
from varimcf.flow import FlowConfig
from varimcf.geometry import mesh_to_varifold, regular_polygon_mesh

WRAPPED = [
    (presets, "make_preset"),
    (flow, "run"),
    (flow, "curvature_with_jacobian"),
    (flow, "dissipation"),
    (mollifier.SpatialHash, "neighbor_pairs"),
    (mollifier.Mollifier, "_profile01"),
    (cli, "load_manifest"),
    (geometry, "volume_change_series"),
    (geometry, "contains"),
    (metrics, "bounded_lipschitz"),
]

CERTIFICATE_NAMES = (
    "mass-decay", "dissipation-budget", "technical-lemma", "barrier-defect",
    "eps-sphere-barrier", "external-sphere", "internal-sphere", "convex-hull",
    "avoidance", "lsc", "volume-change", "nontriviality")


def test_wrapped_names_are_their_owners_own_attributes():
    for owner, attr in WRAPPED:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(vars(owner)[attr])
    # flow calls the mollifier's evaluators through its own module globals
    assert vars(flow)["curvature_with_jacobian"] is \
        mollifier.curvature_with_jacobian
    assert vars(flow)["dissipation"] is mollifier.dissipation
    # registration order is the order of `all` and of check's verdicts
    assert tuple(cli.CERTIFICATES) == CERTIFICATE_NAMES


def test_attributes_the_benchmark_reads_exist():
    fields = {f.name for f in dataclasses.fields(presets.Scenario)}
    assert {"pair", "pair_meshes", "varifold", "mesh", "config"} <= fields
    # workloads.prepare builds the kernel and the stencil from the preset's
    # config and counts the steps of its subdivision
    cfg = presets.make_preset("circle").config
    assert isinstance(cfg.eps, float) and isinstance(cfg.cutoff, float)
    assert isinstance(cfg.refinement, int)
    assert cfg.cutoff == 4.0 and cfg.refinement == 2
    assert len(cfg.times()) - 1 == 150
    kernel = mollifier.Mollifier(0.1, 2)
    grid = mollifier.QuadratureGrid.for_kernel(kernel, 2)
    assert grid.offsets.shape[1] == 2


def test_the_frame_columns_the_benchmark_reads_stay_put():
    # perfbench/workloads._frame_columns reads an atom's position from a
    # frame's first n columns and its mass from column n + n^2
    for n in (2, 3):
        header = cli._frame_header(n)
        assert header[:n] == [f"x{i + 1}" for i in range(n)]
        assert header[n + n * n] == "m"


def test_the_benchmark_grade_file_still_loads():
    # an INI key deleted from the settings while perfbench/grade.ini still
    # sets it would make every benchmark check a usage error
    grade = Path(__file__).resolve().parents[1] / "perfbench" / "grade.ini"
    st = cli.load_settings(str(grade), argparse.Namespace())
    assert st.ball_radius == 0.3
    assert st.certificate_step_constant == 1e-10


def test_run_calls_each_field_layer_once_per_step(monkeypatch):
    layers = [(flow, "curvature_with_jacobian"), (flow, "dissipation"),
              (mollifier, "_field_sums")]
    calls = {name: 0 for _, name in layers}

    def counting(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for owner, name in layers:
        monkeypatch.setattr(owner, name, counting(owner, name))
    mesh = regular_polygon_mesh(32)
    cfg = FlowConfig(eps=0.15, dt=2e-3, end_time=4e-3)
    tr = flow.run(mesh_to_varifold(mesh), cfg, mesh_vertices=mesh.vertices,
                  mesh_simplices=mesh.simplices)
    assert len(tr.snapshots) == 3
    # one smoothed-field pass per step serves the curvature and dissipation
    assert calls == {"curvature_with_jacobian": 2, "dissipation": 2,
                     "_field_sums": 2}
    assert np.all(np.isfinite(tr.snapshots[-1].mesh_vertices))


def test_the_traced_pair_search_is_the_one_both_kernel_sums_use(monkeypatch):
    # a wrapper installed on the class, as the tracer installs it, must see
    # every candidate pair that reaches the kernel profile
    assert mollifier.SpatialHash is mollifier._Lattice
    searches, candidates, profiled = [0], [0], [0]
    search = vars(mollifier._Lattice)["neighbor_pairs"]
    profile = vars(mollifier.Mollifier)["_profile01"]

    def counted_search(self, points):
        rows, idx = search(self, points)
        searches[0] += 1
        candidates[0] += len(rows)
        return rows, idx

    def counted_profile(self, rho):
        profiled[0] += rho.size
        return profile(self, rho)

    monkeypatch.setattr(mollifier._Lattice, "neighbor_pairs", counted_search)
    monkeypatch.setattr(mollifier.Mollifier, "_profile01", counted_profile)
    mesh = regular_polygon_mesh(32)
    cfg = FlowConfig(eps=0.15, dt=2e-3, end_time=2e-3)
    tr = flow.run(mesh_to_varifold(mesh), cfg, mesh_vertices=mesh.vertices,
                  mesh_simplices=mesh.simplices)
    assert len(tr.snapshots) == 2
    # the atoms scattered onto the nodes, then the points gathering them
    assert searches[0] >= 2
    assert candidates[0] > 0 and candidates[0] == profiled[0]
