"""The benchmark's workloads, their set-up and the checks on their outputs.

Each workload names a preset of varimcf and how one repetition exercises the
three subcommands.  `prepare` is the set-up a user pays before the first
operation: imports, the preset build and the kernel normalisation.  It runs
once in the benchmark process and again in fresh interpreters to time it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    end_time: float | None      # None keeps the preset's horizon
    record_in_setup: bool       # record once, then only grade the recording
    certificates: str | None    # None runs check's default certificate
    config: str | None          # INI file beside this module
    verdicts: int               # verdicts check must return, all passing
    check_calls: int            # check calls per repetition
    distance_rounds: int        # distance rounds per repetition
    radius_tolerance: float     # bound on radius_law_rel_err


WORKLOADS = {wl.name: wl for wl in (
    # the only 3-D path (27-cell hash, 2-planes, 2,103 stencil nodes per
    # point) and the only workload near the machine's memory limit
    Workload(
        name="sphere-3d",
        preset="sphere", end_time=0.0025, record_in_setup=False,
        certificates=None, config=None, verdicts=1,
        check_calls=45, distance_rounds=6, radius_tolerance=0.01),
    # grading a recorded two-flow run: all 21 verdicts evaluated, frame
    # reads and two bounded-Lipschitz LPs.  The recording in set-up is the
    # 2-D step path (193 stencil nodes per point, 60 steps of each flow).
    Workload(
        name="grade-concentric",
        preset="two-concentric-circles", end_time=None, record_in_setup=True,
        certificates="all", config="grade.ini", verdicts=21,
        check_calls=5, distance_rounds=6, radius_tolerance=0.5),
)}


@dataclass(frozen=True)
class Prepared:
    atoms: int
    tracked_vertices: int
    steps: int
    stencil_nodes: int          # outer-mollification nodes per query point


def prepare(name: str) -> Prepared:
    """Imports, preset build and kernel normalisation for one workload."""
    import numpy as np

    from varimcf import barriers, cli, geometry  # noqa: F401
    from varimcf.metrics import DiscreteMeasure, bounded_lipschitz
    from varimcf.mollifier import Mollifier, QuadratureGrid
    from varimcf.presets import make_preset

    wl = WORKLOADS[name]
    sc = make_preset(wl.preset, end_time=wl.end_time)
    flows = sc.pair if sc.pair is not None else (sc.varifold,)
    meshes = sc.pair_meshes if sc.pair is not None else (sc.mesh,)
    cfg = sc.config
    kernel = Mollifier(cfg.eps, flows[0].n, cfg.cutoff)
    grid = QuadratureGrid.for_kernel(kernel, cfg.refinement)
    inside = np.einsum("pi,pi->p", grid.offsets, grid.offsets) \
        < kernel.support_radius**2
    # the LP solver loads lazily on its first call
    bounded_lipschitz(DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0]),
                      DiscreteMeasure([[0.0, 1.0]], [1.0]))
    return Prepared(
        atoms=sum(len(V) for V in flows),
        tracked_vertices=sum(0 if m is None else len(m.vertices)
                             for m in meshes),
        steps=len(cfg.times()) - 1,
        stencil_nodes=int(np.count_nonzero(inside)),
    )


# ---------------------------------------------------------------------------
# recorded runs


def frame_files(manifest: dict) -> list[str]:
    """Every frame, mesh-frame and simplex file a manifest lists."""
    names = []
    for rec in manifest["traces"]:
        names += rec["frames"] + (rec["mesh_frames"] or [])
        if rec["simplices"]:
            names.append(rec["simplices"])
    return names


def frame_digest(run_dir: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        h.update((run_dir / name).read_bytes())
    return h.hexdigest()


def frame_bytes(run_dir: Path, names: list[str]) -> int:
    return sum((run_dir / name).stat().st_size for name in names)


def _frame_columns(path: Path, n: int) -> tuple[list[list[str]], list[str]]:
    """Position strings and mass strings of every atom in one frame."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [row for row in reader if row]
    return [row[:n] for row in rows], [row[n + n * n] for row in rows]


def _mean_radius(path: Path, n: int) -> float:
    pos, _ = _frame_columns(path, n)
    return sum(math.hypot(*map(float, p)) for p in pos) / len(pos)


def radius_law_error(run_dir: Path, manifest: dict) -> float:
    """Worst relative error of the final mean radius against the closed form.

    A d-sphere about the origin shrinks as r^2 = r0^2 - 2 d t.
    """
    worst = 0.0
    for rec in manifest["traces"]:
        n, d = rec["ambient_dimension"], rec["surface_dimension"]
        r0 = _mean_radius(run_dir / rec["frames"][0], n)
        r1 = _mean_radius(run_dir / rec["frames"][-1], n)
        predicted = math.sqrt(r0 * r0 - 2.0 * d * rec["times"][-1])
        worst = max(worst, abs(r1 - predicted) / predicted)
    return worst


def write_measures(run_dir: Path, manifest: dict,
                   out_dir: Path) -> list[tuple[Path, Path]]:
    """Measure files of the first and final frame of each flow, for distance."""
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = []
    for rec in manifest["traces"]:
        n = rec["ambient_dimension"]
        ends = []
        for tag, frame in (("first", rec["frames"][0]),
                           ("final", rec["frames"][-1])):
            pos, mass = _frame_columns(run_dir / frame, n)
            path = out_dir / f"{rec['name']}_{tag}.csv"
            with path.open("w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow([f"x{i + 1}" for i in range(n)] + ["w"])
                w.writerows(p + [m] for p, m in zip(pos, mass))
            ends.append(path)
        pairs.append((ends[0], ends[1]))
    return pairs


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity extensions."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)
