"""Command-line front end: reproducible runs, recorded frames, certificates.

Three subcommands: `simulate` (run a preset and write one CSV per snapshot
plus a manifest), `check` (grade named certificates against a recorded run)
and `distance` (compare two measure files).  Exit codes: 0 all requested
checks pass, 1 any check fails or a run aborts, 2 usage or configuration
error.

All numerical work is deterministic for a fixed configuration and seed; each
random sweep draws from its own stream, keyed by the seed and the
certificate's name, so its samples do not depend on which other
certificates are graded.  The only environment knob is VARIMCF_THREADS,
which caps the linear-algebra thread pools and never changes results.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

from .config import (BUDGET_RTOL, DEFECT_SAMPLES, SUPPORT_SLACK,
                     TECHNICAL_SAMPLES)
from .errors import ConfigError, PreconditionViolated, VarimcfError

THREAD_ENV = "VARIMCF_THREADS"
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _apply_thread_env() -> None:
    """Propagate VARIMCF_THREADS to the math libraries before numpy loads."""
    raw = os.environ.get(THREAD_ENV)
    if raw is None:
        return
    try:
        k = int(raw)
        if k < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"{THREAD_ENV} must be a positive integer, got {raw!r}")
    for var in _THREAD_VARS:
        os.environ[var] = str(k)


def _keep_freed_heap() -> None:
    """Raise glibc's mmap and trim thresholds for the whole process.

    Each step allocates and frees arrays of a few MiB; at glibc's default
    thresholds they are mapped and unmapped, or the freed heap top is handed
    back to the OS, and every step pays for it again in page faults.  A libc
    without mallopt is left alone.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is not None:
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD, from glibc's malloc.h
        mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


# ---------------------------------------------------------------------------
# settings


def _parse_vector(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.replace(",", " ").split())


def _parse_cert_list(raw: str) -> tuple[str, ...]:
    names = [p.strip() for p in raw.replace(",", " ").split() if p.strip()]
    if not names:
        raise ConfigError("empty certificate list: name at least one "
                          f"certificate, or 'all'; known: {', '.join(CERTIFICATES)}")
    if names == ["all"]:    # expanded by `_grade`, which knows the run
        return ("all",)
    for nm in names:
        if nm not in CERTIFICATES:
            raise ConfigError(
                f"unknown certificate {nm!r}; known: {', '.join(CERTIFICATES)}")
    return tuple(names)


def _setting(section: str, default, parse, flag: str | None = None,
             key: str | None = None):
    """A field of Settings: the INI `key` (the field's name unless given) of
    `section`, read by `parse`.  With `flag` help it is also a flag, named
    after the field, of the subcommand that reads the section."""
    return dataclasses.field(default=default, metadata={
        "section": section, "key": key, "parse": parse, "flag": flag})


@dataclasses.dataclass
class Settings:
    """Everything configurable, with package defaults: the one table that
    `load_settings` reads INI keys by and `_build_parser` makes flags from.

    Values come from an INI file (sections [run], [constants],
    [certificates]) overridden by command-line flags.
    """

    preset: str = _setting("run", "circle", str, "scenario name")
    out: str = _setting("run", "runs/run", str, "output directory")
    seed: int = _setting("run", 0, int, "seed echoed into the manifest")
    eps: float | None = _setting("run", None, float, "smoothing scale")
    dt: float | None = _setting("run", None, float, "time step")
    end_time: float | None = _setting(
        "run", None, float, "final time (0 records a single snapshot)")
    # admissibility constant in the smoothing-scale certificate
    certificate_step_constant: float = _setting("constants", 1e-9, float)
    certificates: tuple[str, ...] = _setting(
        "certificates", ("mass-decay",), _parse_cert_list,
        "comma-separated certificate names, or 'all'", key="list")
    # the centre of every ball, the barrier and the lsc weight; None is the
    # origin of the run's R^n
    ball_center: tuple[float, ...] | None = _setting("certificates", None,
                                                     _parse_vector)
    ball_radius: float = _setting("certificates", 0.8, float)
    enclosing_radius: float = _setting("certificates", 1.05, float)
    barrier_radius: float = _setting("certificates", 0.3, float)
    barrier_exponent: float = _setting("certificates", 4.0, float)
    weight_width: float = _setting("certificates", 2.0, float)


def load_settings(config_path: str | None, args: argparse.Namespace) -> Settings:
    st = Settings()
    rows = {(f.metadata["section"], f.metadata["key"] or f.name): f
            for f in dataclasses.fields(Settings)}
    if config_path is not None:
        # values are taken literally: a % in a path is a character
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(config_path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as e:
            raise ConfigError(f"config file {config_path}: {e}") from None
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        # configparser would read a [DEFAULT] key into every other section
        if parser.defaults():
            raise ConfigError(f"[{parser.default_section}]: unknown section")
        for section in parser.sections():
            if section not in {s for s, _ in rows}:
                raise ConfigError(f"[{section}]: unknown section")
            for key, raw in parser[section].items():
                # a retired key that perfbench/grade.ini still sets; ROADMAP
                # item 2 deletes this skip together with that line
                if (section, key) == ("constants", "mc_samples"):
                    continue
                if (section, key) not in rows:
                    raise ConfigError(f"[{section}] {key}: unknown key")
                field = rows[section, key]
                try:
                    setattr(st, field.name, field.metadata["parse"](raw))
                except (ValueError, TypeError) as e:
                    raise ConfigError(f"[{section}] {key}: bad value {raw!r} "
                                      f"({e})") from None
    # each flag stores its value under the name of the field it sets
    for field in dataclasses.fields(Settings):
        val = getattr(args, field.name, None)
        if val is not None:
            setattr(st, field.name, val)
    # a ball, barrier or weight of no width has nothing to grade against,
    # and a constant at or below zero flips or voids the bound it scales
    for attr in ("ball_radius", "enclosing_radius", "barrier_radius",
                 "barrier_exponent", "weight_width",
                 "certificate_step_constant"):
        if not getattr(st, attr) > 0.0:
            raise ConfigError(f"{attr} must be positive")
    # an infinite radius or centre, or a NaN one, gives a verdict a measured
    # value no comparison can grade
    for field in dataclasses.fields(Settings):
        value, parse = getattr(st, field.name), field.metadata["parse"]
        if parse in (float, _parse_vector) and value is not None and not all(
                map(math.isfinite, value if parse is _parse_vector else [value])):
            raise ConfigError(f"{field.name} must be finite")
    # the random sweeps key their streams by the seed, which must be >= 0
    if st.seed < 0:
        raise ConfigError("seed must be nonnegative")
    return st


# ---------------------------------------------------------------------------
# frame IO: every recorded file is one table, a header line of column names
# and then one comma-separated row per item


def _save_table(path: Path, header: list[str], array, fmt: str = "%.17g") -> None:
    import numpy as np
    np.savetxt(path, array, fmt=fmt, delimiter=",", header=",".join(header),
               comments="")


def _load_table(path: Path, header, dtype=float):
    """The rows of a table, refusing any header but the expected one.

    `header` is the list of column names, or a function from the column
    count found in the file to that list.
    """
    import numpy as np

    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no file at {path}")
    try:    # a row numpy cannot parse, or bytes that are not UTF-8
        with path.open(encoding="utf-8") as fh:
            found = fh.readline().rstrip("\n").split(",")
            want = header(len(found)) if callable(header) else header
            if found != want:
                raise ConfigError(f"{path}: header {','.join(found)}, "
                                  f"want {','.join(want)}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a header, no rows
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",",
                                  comments=None, ndmin=2)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None
    if rows.size and rows.shape[1] != len(want):
        raise ConfigError(f"{path}: {rows.shape[1]} columns, want {len(want)}")
    return rows.reshape(-1, len(want))


def _frame_header(n: int) -> list[str]:
    """A frame's columns: each atom's position, plane and mass."""
    return ([f"x{i + 1}" for i in range(n)]
            + [f"p{i + 1}{j + 1}" for i in range(n) for j in range(n)]
            + ["m"])


def _measure_header(columns: int) -> list[str]:
    """A measure file's columns: the point coordinates, then the weight."""
    return [f"x{i + 1}" for i in range(columns - 1)] + ["w"]


def _write_trace(outdir: Path, name: str, trace) -> dict:
    import numpy as np

    n = trace.snapshots[0].varifold.n
    d = trace.snapshots[0].varifold.d
    frames, mesh_frames = [], []
    for i, snap in enumerate(trace.snapshots):
        V = snap.varifold
        fname = f"frame_{name}_{i:04d}.csv"
        _save_table(outdir / fname, _frame_header(n),
                    np.hstack([V.positions, V.planes.reshape(len(V), n * n),
                               V.masses[:, None]]))
        frames.append(fname)
        if snap.mesh is not None:
            mname = f"mesh_{name}_{i:04d}.csv"
            _save_table(outdir / mname, [f"v{i + 1}" for i in range(n)],
                        snap.mesh.vertices)
            mesh_frames.append(mname)
    record = {
        "name": name,
        "ambient_dimension": n,
        "surface_dimension": d,
        "frames": frames,
        "mesh_frames": mesh_frames or None,
        "simplices": None,
        "times": [float(t) for t in trace.times],
        "curvature_max": [s.curvature_max for s in trace.snapshots],
        "dissipation": [s.dissipation for s in trace.snapshots],
        "step_delta": [s.step_delta for s in trace.snapshots],
    }
    if mesh_frames:     # every snapshot's mesh has frame 0's simplices
        sname = f"simplices_{name}.csv"
        _save_table(outdir / sname, [f"s{i + 1}" for i in range(n)],
                    trace.snapshots[0].mesh.simplices, fmt="%d")
        record["simplices"] = sname
    return record


def _is_kind(value, kind) -> bool:
    """JSON type check: a float field also takes an int, and no field takes
    a bool."""
    return ((isinstance(value, kind) or kind is float and isinstance(value, int))
            and not isinstance(value, bool))


def _flow_config(manifest: dict):
    """The manifest's 'config' as a FlowConfig, whose fields are all
    numbers; ConfigError names the key that is unknown, missing or not a
    number."""
    from .flow import FlowConfig

    raw = manifest.get("config")
    if not isinstance(raw, dict):
        raise ConfigError("manifest: 'config' must be an object")
    fields = {f.name for f in dataclasses.fields(FlowConfig)}
    for key, value in raw.items():
        if key not in fields or not _is_kind(value, float):
            raise ConfigError(f"manifest config: '{key}' = {value!r} is not "
                              "a FlowConfig field of that type")
    try:
        return FlowConfig(**raw)
    except TypeError as e:      # a required key is missing
        raise ConfigError(f"manifest config: {e}") from None


def load_trace(manifest: dict, base: Path, record: dict):
    """Rebuild a FlowTrace from one manifest trace record.

    A trace must hold at least one frame, recorded at the times of its
    config's subdivision, every frame at least one atom, every atom a
    positive mass, every step a finite number >= 0 for each recorded
    quantity and the last frame `null`, and each mesh frame with the
    simplices, which come with mesh frames or not at all, a `SurfaceMesh`.
    A frame holds no curvature field: `flow.sample` and `flow.brakke_residual`
    compute h and Dh from the loaded varifolds, as from the run's own.
    """
    import numpy as np

    from .flow import FlowTrace, Snapshot
    from .geometry import SurfaceMesh
    from .varifold import DiscreteVarifold

    cfg = _flow_config(manifest)
    if not isinstance(record, dict):
        raise ConfigError("manifest: each entry of 'traces' must be an object")
    for key, kind in (("name", str), ("ambient_dimension", int),
                      ("surface_dimension", int)):
        if not _is_kind(record.get(key), kind):
            raise ConfigError(f"trace {record.get('name')!r}: '{key}' must "
                              f"be of type {kind.__name__}")
    n = record["ambient_dimension"]
    d = record["surface_dimension"]
    if n not in (2, 3) or not 1 <= d < n:
        raise ConfigError(f"trace {record['name']!r}: surface_dimension {d} "
                          f"in ambient_dimension {n} is not graded; the "
                          "package grades n = 2 or 3 and d in 1..n-1")
    frames = record.get("frames")
    if not isinstance(frames, list) or not frames:
        raise ConfigError(f"trace {record['name']!r}: 'frames' must be a "
                          "non-empty list")
    simplices = record.get("simplices")
    meshed = record.get("mesh_frames") is not None
    if meshed != (simplices is not None):
        raise ConfigError(f"trace {record['name']!r}: 'mesh_frames' and "
                          "'simplices' must both be null or both be given")
    per_frame = ["times", "curvature_max", "dissipation", "step_delta"]
    if meshed:
        per_frame.append("mesh_frames")
    for key in per_frame:
        values = record.get(key)
        if not isinstance(values, list) or len(values) != len(frames):
            raise ConfigError(f"trace {record.get('name')!r}: '{key}' must "
                              f"list one value per frame ({len(frames)})")
    # each step records its numbers: norms and a sum of squares, so finite
    # (JSON reads 1e400 as inf) and >= 0; the last frame starts no step
    for key in ("curvature_max", "dissipation", "step_delta"):
        *steps, last = record[key]
        for i, value in enumerate(steps):
            if not (_is_kind(value, float)
                    and 0.0 <= value <= sys.float_info.max):
                raise ConfigError(f"trace {record['name']!r}: the {key} of "
                                  f"step {i} is not a finite number >= 0")
        if last is not None:
            raise ConfigError(f"trace {record['name']!r}: the {key} of the "
                              "last frame, which starts no step, must be null")
    # the step count first, so a tiny dt is refused before its subdivision is
    # built; simulate records float(t) of the nodes, which JSON returns exactly
    if len(frames) != cfg.steps + 1 or record["times"] != cfg.times().tolist():
        raise ConfigError(f"trace {record['name']!r}: 'times' is not the "
                          "subdivision of the manifest's config")
    entries = {"frames": frames, "mesh_frames": record.get("mesh_frames") or [],
               "simplices": [simplices] if meshed else []}
    for key, names in entries.items():
        if not all(isinstance(name, str) and name for name in names):
            raise ConfigError(f"trace {record['name']!r}: each '{key}' entry "
                              "must be a file name")
    if meshed:
        simp = _load_table(base / simplices,
                           [f"s{i + 1}" for i in range(n)], dtype=np.int64)
    snaps = []
    for i, fname in enumerate(frames):
        arr = _load_table(base / fname, _frame_header(n))
        if not len(arr):
            raise ConfigError(f"{base / fname}: holds no atoms")
        # a step moves atoms but never adds or drops one
        if snaps and len(arr) != len(snaps[0].varifold):
            raise ConfigError(f"{base / fname}: holds {len(arr)} atoms, "
                              f"the first frame {len(snaps[0].varifold)}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"{base / fname}: holds a non-finite value")
        try:
            V = DiscreteVarifold.from_arrays(arr[:, :n],
                                             arr[:, n:n + n * n].reshape(-1, n, n),
                                             arr[:, n + n * n], d=d)
        except VarimcfError as e:
            raise ConfigError(f"{base / fname}: {e}") from None
        mesh = None
        if meshed:
            mpath = base / record["mesh_frames"][i]
            verts = _load_table(mpath, [f"v{i + 1}" for i in range(n)])
            if not np.all(np.isfinite(verts)):
                raise ConfigError(f"{mpath}: holds a non-finite value")
            # the mesh moves its vertices; its simplices index the first frame's
            if snaps and len(verts) != len(snaps[0].mesh.vertices):
                raise ConfigError(
                    f"{mpath}: holds {len(verts)} vertices, "
                    f"the first mesh frame {len(snaps[0].mesh.vertices)}")
            try:
                mesh = SurfaceMesh(verts, simp)
            except VarimcfError as e:
                raise ConfigError(f"{base / simplices}: {e}") from None
        snaps.append(Snapshot(
            time=float(record["times"][i]),
            varifold=V,
            curvature_max=record["curvature_max"][i],
            dissipation=record["dissipation"][i],
            mesh=mesh,
            step_delta=record["step_delta"][i],
        ))
    return FlowTrace(cfg, tuple(snaps))


def _refuse_constant(name: str):
    raise ConfigError(f"manifest: {name} is not a number a run records")


def load_manifest(path: str):
    p = Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    if not p.exists():
        raise ConfigError(f"no manifest at {p}")
    try:        # bytes that are not UTF-8 are no JSON either
        manifest = json.loads(p.read_text(encoding="utf-8"),
                              parse_constant=_refuse_constant)
    except ValueError as e:
        raise ConfigError(f"{p}: not valid JSON ({e})") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{p}: the manifest must be a JSON object")
    if not isinstance(manifest.get("traces"), list) or not manifest["traces"]:
        raise ConfigError(f"{p}: 'traces' must be a non-empty list")
    seed = manifest.get("seed", 0)
    if not _is_kind(seed, int) or seed < 0:
        raise ConfigError(f"{p}: 'seed' must be a nonnegative integer")
    traces = {}
    for record in manifest["traces"]:
        trace = load_trace(manifest, p.parent, record)
        if record["name"] in traces:
            raise ConfigError(f"{p}: trace name {record['name']!r} is repeated")
        traces[record["name"]] = trace
    return p, manifest, traces


# ---------------------------------------------------------------------------
# verdicts


@dataclasses.dataclass
class Verdict:
    """Outcome of one certificate on one run (or pair of runs)."""

    name: str
    trace: str
    statement: str
    measured: float | None  # None when a precondition error stopped grading
    bound: float | None
    relation: str           # "<=" or ">=" : how measured compares when passing
    passed: bool
    details: dict


def _verdict(name: str, trace: str, statement: str, relation: str, grade,
             *args) -> Verdict:
    """The verdict of grade(*args) -> (measured, bound, details).

    It passes when `measured relation bound` holds.  A precondition error,
    an overflow, or a measured value or bound that is not finite fails this
    verdict alone, with no measured value or bound.
    """
    try:
        measured, bound, details = grade(*args)
    except (PreconditionViolated, OverflowError) as e:
        error = f"{type(e).__name__}: {e}"
    else:
        if math.isfinite(measured) and math.isfinite(bound):
            passed = (measured <= bound if relation == "<="
                      else measured >= bound)
            return Verdict(name, trace, statement, measured, bound, relation,
                           bool(passed), details)
        error = f"measured {measured} or bound {bound} is not finite"
    return Verdict(name, trace, statement, None, None, relation, False,
                   {"error": error})


def _subjects(over: str, traces: dict) -> list:
    """(label, subject) of each verdict a certificate graded `over` gives;
    none when the run has no such subject."""
    if over == "run":       # the random sweeps need only its dimensions
        return [("-", next(iter(traces.values())))]
    if over == "pair":
        if len(traces) != 2:
            return []
        (na, ta), (nb, tb) = traces.items()
        return [(f"{na}+{nb}", (ta, tb))]
    return [(k, tr) for k, tr in traces.items()
            if over == "trace" or tr.snapshots[0].mesh is not None]


# name -> certificate(traces, st, manifest) -> list[Verdict], in the order
# of definition below, which is the order `all` grades them in
CERTIFICATES = {}
_OVER = {}      # name -> the `over` it was registered with


def _certificate(name: str, relation: str, statement: str, over: str):
    """Register grade(subject, st, manifest) -> (measured, bound, details) as
    the certificate `name`, passing when `measured relation bound` holds.

    `over` says what one verdict grades: each trace (`trace`), each trace
    that tracked a boundary mesh (`mesh`), the run's two flows as a pair
    (`pair`), or the run once, through its first trace (`run`).  Named on a
    run without a mesh or a pair, the certificate is a ConfigError.
    """
    def register(grade):
        def certificate(traces, st, manifest):
            subjects = _subjects(over, traces)
            if not subjects:    # only a pair or a mesh can be missing
                need = ("exactly two flows" if over == "pair"
                        else "a tracked mesh")
                raise ConfigError(f"{name} needs a run with {need}")
            return [_verdict(name, label, statement, relation, grade,
                             subject, st, manifest)
                    for label, subject in subjects]
        CERTIFICATES[name] = certificate
        _OVER[name] = over
        return grade
    return register


def _center(st, tr):
    """The setting ball_center, which must lie in the run's R^n; unset, the
    origin of that R^n."""
    import numpy as np
    n = tr.snapshots[0].varifold.n
    if st.ball_center is None:
        return np.zeros(n)
    c = np.asarray(st.ball_center, dtype=float)
    if c.shape != (n,):
        raise ConfigError(f"ball_center has dimension {len(c)}, run is in R^{n}")
    return c


def _barrier(st, tr):
    """The comparison weight the settings describe, for the run."""
    from .barriers import BarrierFunction
    return BarrierFunction(center=_center(st, tr),
                           radius=st.barrier_radius, beta=st.barrier_exponent,
                           d=tr.snapshots[0].varifold.d)


def _stream(manifest, name: str):
    """The generator of one random sweep, keyed by the run's seed and the
    certificate's name, so that its samples do not depend on what else is
    graded."""
    import numpy as np
    return np.random.default_rng([int(manifest.get("seed", 0)), *name.encode()])


def _random_planes(rng, k: int, n: int, top: int):
    """Projections (k, n, n) onto random planes in R^n of random dimension
    1..top: the dimensions first, then one stack of bases per dimension."""
    import numpy as np

    from .varifold import projections_from_bases
    dims = rng.integers(1, top + 1, size=k)
    planes = np.empty((k, n, n))
    for d in range(1, top + 1):
        rows = dims == d
        planes[rows] = projections_from_bases(
            rng.normal(size=(np.count_nonzero(rows), d, n)))
    return planes


@_certificate("mass-decay", "<=", "every recorded step raises total mass by "
              "at most the step length, up to roundoff", over="trace")
def _mass_decay(tr, st, manifest):
    t, m = tr.times, tr.masses
    if len(t) < 2:
        return 0.0, 0.0, {"steps": 0}
    excess = [float(m[i + 1] - m[i] - (t[i + 1] - t[i]))
              for i in range(len(t) - 1)]
    worst = max(range(len(excess)), key=lambda i: excess[i])
    return (excess[worst], 1e-9 * (1.0 + float(m[0])),
            {"worst_step": worst, "steps": len(excess)})


@_certificate("dissipation-budget", "<=", "the time-integrated dissipation "
              "accounts for the recorded drop in total mass", over="trace")
def _dissipation_budget(tr, st, manifest):
    from .flow import dissipation_budget
    if len(tr.times) < 2:
        return 0.0, 0.0, {"steps": 0}
    budget = dissipation_budget(tr)
    drop = float(tr.masses[0] - tr.masses[-1])
    return (abs(budget - drop), BUDGET_RTOL * max(drop, 1e-9),
            {"budget": budget, "mass_drop": drop})


@_certificate("technical-lemma", ">=", "the completed-square inequality "
              "linking curvature, a positive weight and its gradient holds "
              "on random samples", over="run")
def _technical_lemma(tr, st, manifest):
    import numpy as np

    from .barriers import technical_gaps

    n = tr.snapshots[0].varifold.n
    m = TECHNICAL_SAMPLES
    rng = _stream(manifest, "technical-lemma")
    h, grad = rng.normal(size=(2, m, n))
    phi = rng.uniform(0.05, 3.0, size=m)
    worst = float(np.min(technical_gaps(h, phi, grad,
                                        _random_planes(rng, m, n, n - 1))))
    return worst, -1e-12, {"samples": m}


@_certificate("barrier-defect", "<=", "the radial comparison weight has "
              "nonpositive flow defect throughout its support window",
              over="run")
def _barrier_defect(tr, st, manifest):
    import numpy as np

    from .barriers import barrier_defects

    psi = _barrier(st, tr)
    n, d = psi.n, psi.d
    R2 = st.barrier_radius**2
    window = np.linspace(0.0, 0.8 * R2 / (2.0 * d), 5)
    times = np.repeat(window, DEFECT_SAMPLES // len(window))
    k = len(times)
    rng = _stream(manifest, "barrier-defect")
    direction = rng.normal(size=(k, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    live = (R2 - 2.0 * d * times) * 0.95      # the window keeps it positive
    x = psi.center + np.sqrt(rng.uniform(0.0, live))[:, None] * direction
    # the weight shrinks at the rate of a d-dimensional flow, so it is a
    # barrier for planes of dimension at most d
    worst = float(np.max(barrier_defects(psi, x, _random_planes(rng, k, n, d),
                                         times)))
    return (worst, 1e-10, {"samples": DEFECT_SAMPLES,
                           "exponent": st.barrier_exponent})


@_certificate("eps-sphere-barrier", "<=", "mass weighted by the guarded-ball "
              "barrier increases by at most the smoothing-scale allowance",
              over="trace")
def _eps_sphere_barrier(tr, st, manifest):
    from .barriers import epsilon_barrier_certificate
    return epsilon_barrier_certificate(tr, _barrier(st, tr),
                                       c5_cfg=st.certificate_step_constant)


@_certificate("external-sphere", "<=", "no mass enters the shrinking "
              "comparison ball", over="trace")
def _external_sphere(tr, st, manifest):
    from .barriers import external_sphere_monitor
    return external_sphere_monitor(tr, _center(st, tr), st.ball_radius)


@_certificate("internal-sphere", "<=", "the support stays inside the "
              "shrinking comparison ball, up to a smoothing-scale slack",
              over="trace")
def _internal_sphere(tr, st, manifest):
    from .barriers import internal_sphere_monitor
    return internal_sphere_monitor(tr, _center(st, tr), st.enclosing_radius)


@_certificate("convex-hull", "<=", "the support never leaves the convex hull "
              "of the initial support", over="trace")
def _convex_hull(tr, st, manifest):
    from .barriers import convex_hull_monitor
    return convex_hull_monitor(tr)


@_certificate("avoidance", "<=", "the gap between the two flows never drops "
              "below its running peak by more than the smoothing slack",
              over="pair")
def _avoidance(pair, st, manifest):
    import numpy as np

    from .barriers import avoidance_distance
    ta, tb = pair
    gaps = avoidance_distance(ta, tb)
    running = np.maximum.accumulate(gaps)
    return (float(np.max(running - gaps)), SUPPORT_SLACK * ta.config.eps,
            {"initial_gap": float(gaps[0]), "final_gap": float(gaps[-1])})


@_certificate("lsc", "<=", "weighted mass, after subtracting the "
              "hessian-rate ramp, is nonincreasing up to per-step slack",
              over="trace")
def _lsc(tr, st, manifest):
    from .barriers import BarrierFunction, lsc_monitor
    # the static weight (w^2 - |x - c|^2)^3 on the ball B(c, w)
    return lsc_monitor(tr, BarrierFunction(_center(st, tr), st.weight_width,
                                           3.0, 0))


@_certificate("volume-change", "<=", "per-step change of enclosed volume "
              "inside the window stays within the perturbation bound",
              over="mesh")
def _volume_change(tr, st, manifest):
    from .geometry import volume_change_series
    return volume_change_series(tr, _center(st, tr), st.ball_radius)


@_certificate("nontriviality", ">=", "total mass stays above the "
              "isoperimetric floor of the enclosed ball throughout the "
              "guaranteed horizon", over="mesh")
def _nontriviality(tr, st, manifest):
    from .geometry import nontriviality_certificate
    return nontriviality_certificate(tr, _center(st, tr), st.ball_radius)


def _grade(names, traces, st, manifest) -> dict:
    """The verdicts of the named certificates and whether all of them
    passed; `all` names each certificate whose subject the run has."""
    if tuple(names) == ("all",):
        names = [nm for nm in CERTIFICATES if _subjects(_OVER[nm], traces)]
    # looked up here, at the call, so that a wrapped entry is the one called
    verdicts = [v for name in names
                for v in CERTIFICATES[name](traces, st, manifest)]
    return {"all_passed": all(v.passed for v in verdicts),
            "verdicts": [dataclasses.asdict(v) for v in verdicts]}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    st = load_settings(args.config, args)
    from .flow import run
    from .presets import make_preset

    scenario = make_preset(st.preset, eps=st.eps, dt=st.dt,
                           end_time=st.end_time)
    t0 = time.perf_counter()
    if scenario.pair is not None:
        flows = zip(("first", "second"), scenario.pair,
                    scenario.pair_meshes or (None, None))
    else:
        flows = [("main", scenario.varifold, scenario.mesh)]
    traces = [(nm, run(V, scenario.config, mesh)) for nm, V, mesh in flows]
    # made only once every flow has run, so that a refused or aborted run
    # leaves no directory behind
    outdir = Path(st.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"--out {outdir}: {e.strerror}") from None
    records = [_write_trace(outdir, nm, tr) for nm, tr in traces]
    wall = time.perf_counter() - t0
    from . import __version__
    manifest = {
        "tool": "varimcf",
        "version": __version__,
        "seed": st.seed,
        "preset": scenario.name,
        "description": scenario.description,
        "wall_clock_seconds": wall,
        "config": dataclasses.asdict(scenario.config),
        "traces": records,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    for nm, tr in traces:
        print(f"{nm}: {len(tr.snapshots)} frames, "
              f"mass {tr.masses[0]:.6f} -> {tr.masses[-1]:.6f}")
    print(f"manifest: {outdir / 'manifest.json'}")
    return 0


def _cmd_check(args) -> int:
    st = load_settings(args.config, args)
    mpath, manifest, traces = load_manifest(args.manifest)
    payload = {"manifest": str(mpath),
               **_grade(st.certificates, traces, st, manifest)}
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if args.json is not None:
        try:
            Path(args.json).write_text(text + "\n")
        except OSError as e:
            raise ConfigError(f"--json {args.json}: {e.strerror}") from None
    print(text)
    return 0 if payload["all_passed"] else 1


def _cmd_distance(args) -> int:
    from .metrics import DiscreteMeasure, bounded_lipschitz
    tables = [_load_table(path, _measure_header)
              for path in (args.first, args.second)]
    mu, nu = (DiscreteMeasure(t[:, :-1], t[:, -1]) for t in tables)
    res = bounded_lipschitz(mu, nu)
    print(json.dumps({
        "distance": res.distance,
        "rounds": res.rounds,
        "rows": res.rows,
        "status": res.status,
        "support_first": len(mu),
        "support_second": len(nu),
    }, indent=2, sort_keys=True, allow_nan=False))
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="varimcf",
        description="discrete-varifold curvature flow: runs and certificates")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a preset and record frames")
    sim.add_argument("--config", help="INI settings file")
    chk = sub.add_parser("check", help="evaluate certificates on a run")
    chk.add_argument("manifest", help="manifest.json or its directory")
    chk.add_argument("--config", help="INI settings file")
    # a [run] setting with a flag is a flag of simulate, a [certificates]
    # one a flag of check
    for field in dataclasses.fields(Settings):
        if field.metadata["flag"] is not None:
            {"run": sim, "certificates": chk}[field.metadata["section"]] \
                .add_argument("--" + field.name.replace("_", "-"),
                              dest=field.name, type=field.metadata["parse"],
                              help=field.metadata["flag"])
    sim.set_defaults(func=_cmd_simulate)
    chk.add_argument("--json", help="also write the verdicts to this file")
    chk.set_defaults(func=_cmd_check)

    dist = sub.add_parser("distance",
                          help="bounded-Lipschitz distance of two measures")
    dist.add_argument("first", help="measure CSV")
    dist.add_argument("second", help="measure CSV")
    dist.set_defaults(func=_cmd_distance)
    return p


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        _apply_thread_env()
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except VarimcfError as e:
        print(f"run error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
