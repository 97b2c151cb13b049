"""Batch driver: validated experiment configs in, tables and manifests out.

Every subcommand reads one JSON config (schema below), runs a pipeline, and
writes its results as CSV tables and JSON documents plus a ``manifest.json``
recording the config hash, effective seed, package versions, the produced
files and the run's status.  Numeric outputs are deterministic for a fixed
config and seed; only the manifest carries timestamps and runtimes.  A
non-finite number is never written: the run fails instead.

``main`` owns the run.  It validates the config for the subcommand and
builds the model objects before anything runs, calls the subcommand's
handler, which returns the contents of its files, and writes those and the
manifest through one writer.

Exit codes: 0 success, 1 task failure, 2 configuration error.  Once the
output directory is known, a failed task still writes the manifest, with
status "failed", the error kind and message, and, for a quadrature that did
not converge, its residual and the [p, real, imag] rows of the refinement
rounds it ran.  A task that raised also gets ``where``: its innermost
traceback frames, at most five, as "file.py:line in function".
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from .errors import QuadratureError

# the Monte Carlo sampling plan that sample and schwinger share, and its
# n_batches where the config gives none
_N_BATCHES = 20
_SMEARING: dict = {
    "n_samples": {"type": "integer", "minimum": 20},
    "n_batches": {"type": "integer", "minimum": 2},
    "smear_centers": {
        "type": "array",
        "minItems": 1,
        "maxItems": 6,
        "items": {"type": "array", "items": {"type": "number"}},
    },
    "smear_width": {"type": "number", "exclusiveMinimum": 0.0},
}

CONFIG_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["model"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["kind", "dim", "alpha", "mass", "levy"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["scalar"]},
                "dim": {"type": "integer", "minimum": 1, "maximum": 4},
                "alpha": {"type": "number", "exclusiveMinimum": 0.0, "maximum": 0.5},
                "mass": {"type": "number", "exclusiveMinimum": 0.0},
                "levy": {
                    "type": "object",
                    "required": ["drift", "variance", "atoms"],
                    "additionalProperties": False,
                    "properties": {
                        "drift": {"type": "number"},
                        "variance": {"type": "number", "minimum": 0.0},
                        "atoms": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"type": "number"},
                            },
                        },
                    },
                },
            },
        },
        "lattice": {
            "type": "object",
            "required": ["sites", "spacing"],
            "additionalProperties": False,
            "properties": {
                "sites": {"type": "integer", "minimum": 2},
                "spacing": {"type": "number", "exclusiveMinimum": 0.0},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tolerance": {"type": "number", "exclusiveMinimum": 0.0}
            },
        },
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "tasks": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sample": {
                    "type": "object",
                    "required": ["n_samples", "smear_centers", "smear_width"],
                    "additionalProperties": False,
                    "properties": _SMEARING,
                },
                "schwinger": {
                    "type": "object",
                    "required": ["orders", "n_samples", "smear_centers", "smear_width"],
                    "additionalProperties": False,
                    "properties": {
                        "orders": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "integer", "minimum": 2, "maximum": 6},
                        },
                        **_SMEARING,
                    },
                },
                "wightman": {
                    "type": "object",
                    "required": ["tests"],
                    "additionalProperties": False,
                    "properties": {
                        "tests": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/tensor"},
                        }
                    },
                },
                "laplace_check": {
                    "type": "object",
                    "required": ["configs"],
                    "additionalProperties": False,
                    "properties": {
                        "configs": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "items": {"type": "array", "items": {"type": "number"}},
                            },
                        },
                        "tolerance": {"type": "number", "exclusiveMinimum": 0.0},
                    },
                },
                "bounds": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "orders": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 3, "maximum": 12},
                        },
                        "vector_slots": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "minItems": 2,
                                "maxItems": 2,
                                "items": {"type": "integer", "minimum": 0},
                            },
                        },
                    },
                },
                "certify": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "n_max": {"type": "integer", "minimum": 2, "maximum": 6},
                        "tests": {
                            "type": "array",
                            "items": {"$ref": "#/definitions/tensor"},
                        },
                        "random_family": {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "singles": {"type": "integer", "minimum": 0},
                                "doubles": {"type": "integer", "minimum": 0},
                                "triples": {"type": "integer", "minimum": 0},
                                "quads": {"type": "integer", "minimum": 0},
                            },
                        },
                    },
                },
                "krein": {
                    "type": "object",
                    "required": ["n_functions", "monomials"],
                    "additionalProperties": False,
                    "properties": {
                        "n_functions": {"type": "integer", "minimum": 1, "maximum": 8},
                        "monomials": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "maxItems": 3,
                                "items": {"type": "integer", "minimum": 0},
                            },
                        },
                        "seminorm_scale": {
                            "type": "number",
                            "exclusiveMinimum": 0.0,
                        },
                        "search_candidates": {"type": "integer", "minimum": 0},
                    },
                },
                "cluster": {
                    "type": "object",
                    "required": ["direction", "lambdas", "left", "right"],
                    "additionalProperties": False,
                    "properties": {
                        "direction": {
                            "type": "array",
                            "minItems": 2,
                            "items": {"type": "number"},
                        },
                        "lambdas": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "number", "minimum": 0.0},
                        },
                        "left": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/slot"},
                        },
                        "right": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/slot"},
                        },
                    },
                },
                "spectral": {
                    "type": "object",
                    "required": ["off_support", "control"],
                    "additionalProperties": False,
                    "properties": {
                        "off_support": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"$ref": "#/definitions/tensor"},
                        },
                        "control": {"$ref": "#/definitions/tensor"},
                        "tolerance": {"type": "number", "exclusiveMinimum": 0.0},
                    },
                },
            },
        },
    },
    "definitions": {
        "slot": {
            "type": "object",
            "required": ["center", "width"],
            "additionalProperties": False,
            "properties": {
                "center": {"type": "array", "items": {"type": "number"}},
                "width": {"type": "number", "exclusiveMinimum": 0.0},
                "freq": {"type": "array", "items": {"type": "number"}},
                "amplitude": {"type": "number"},
            },
        },
        "tensor": {
            "type": "object",
            "required": ["slots"],
            "additionalProperties": False,
            "properties": {
                "slots": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"$ref": "#/definitions/slot"},
                },
                "prefactor": {"type": "number"},
            },
        },
    },
}

_LATTICE_COMMANDS = ("sample", "schwinger", "laplace-check")


class _ConfigError(Exception):
    """A config the library cannot honour: exit 2, naming the field if known."""

    def __init__(self, field: Optional[str], message: str):
        super().__init__(message)
        self.field = field


def _fail(
    kind: str,
    message: str,
    field: Optional[str] = None,
    residual: Optional[float] = None,
    history: Optional[list] = None,
    where: Optional[List[str]] = None,
) -> dict:
    doc: Dict[str, object] = {"error": kind, "message": message}
    if field is not None:
        doc["field"] = field
    if residual is not None:
        doc["residual"] = residual if math.isfinite(residual) else None
    if history is not None:
        doc["history"] = [[p] + [v if math.isfinite(v) else None for v in vals]
                          for p, *vals in history]
    if where is not None:
        doc["where"] = where
    print(json.dumps(doc), file=sys.stderr)
    return doc


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def _finite(convert: Callable[[str], float]) -> Callable[[str], float]:
    """A JSON number parser that rejects literals overflowing a float (1e999)."""
    def parse(text: str) -> float:
        if not math.isfinite(float(text)):
            raise ValueError(f"non-finite number {text[:24]}")
        return convert(text)
    return parse


@functools.lru_cache(maxsize=None)
def _config_validator():
    """The validator of CONFIG_SCHEMA, built once per process.

    ``jsonschema.validate`` would check the schema against its metaschema
    and build a validator on every call; the schema's own check is a test.
    """
    from jsonschema.validators import validator_for

    return validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _load_config(path: str, command: str):
    """(config, SHA-256 of its bytes, the inputs of ``command``'s handler).

    Raises _ConfigError for an unreadable file, invalid JSON, a schema
    violation outside the task sections of other subcommands, or a
    constraint of :func:`_semantic_check`.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _ConfigError(None, f"cannot read config: {exc}") from None
    try:
        cfg = json.loads(raw.decode("utf-8"), parse_constant=_reject_constant,
                         parse_float=_finite(float), parse_int=_finite(int))
    except ValueError as exc:  # bad encoding, bad syntax or a non-finite number
        raise _ConfigError(None, f"config is not valid JSON: {exc}") from None
    from jsonschema.exceptions import best_match

    name = command.replace("-", "_")

    def checked(err) -> bool:
        # a schema error inside a task section another subcommand reads
        # cannot stop this run; one in tasks itself (an unknown section) can
        head = list(err.absolute_path)[:2]
        return head[:1] != ["tasks"] or head in (["tasks"], ["tasks", name])

    exc = best_match(filter(checked, _config_validator().iter_errors(cfg)))
    if exc is not None:  # the error jsonschema.validate would raise
        field = ".".join(str(p) for p in exc.absolute_path) or "(root)"
        raise _ConfigError(field, exc.message)
    return cfg, hashlib.sha256(raw).hexdigest(), _semantic_check(cfg, command)


def _semantic_check(cfg: dict, command: str):
    """Constraints the schema cannot express, and the model objects they build.

    Only the model, the lattice and ``command``'s own task section are
    checked: a section another subcommand reads cannot stop this run.
    Returns (spec, triple, lattice, task section) for ``command``'s handler,
    the lattice None for a subcommand that takes none.  Raises _ConfigError
    naming the field.
    """
    from .green import MIN_MASS_EXTENT, GreenSpec
    from .lattice import Lattice
    from .levy import LevyTriple

    model, lat = cfg["model"], None
    field = "model"
    try:  # the model objects' own checks, e.g. a zero jump size
        for i, atom in enumerate(model["levy"]["atoms"]):
            field = f"model.levy.atoms.{i}"
            LevyTriple(atoms=(atom,))
        field = "model"
        spec = GreenSpec(model["dim"], model["alpha"], model["mass"])
        lv = model["levy"]
        triple = LevyTriple(
            drift=lv["drift"],
            variance=lv["variance"],
            atoms=tuple((float(s), float(r)) for s, r in lv["atoms"]),
        )
        if command in _LATTICE_COMMANDS:
            field = "lattice"
            if "lattice" not in cfg:
                raise ValueError(f"{command} needs a lattice section in the config")
            lat = Lattice(spec.dim, cfg["lattice"]["sites"], cfg["lattice"]["spacing"])
            if spec.mass * lat.extent < MIN_MASS_EXTENT:  # green_alpha_lattice's guard
                raise ValueError(
                    f"box under-resolves the mass: mass*extent = "
                    f"{spec.mass * lat.extent:.3g} < {MIN_MASS_EXTENT}")
    except ValueError as exc:  # DomainError is a ValueError
        raise _ConfigError(field, str(exc)) from None
    dim = spec.dim
    tasks = cfg.get("tasks") or {}
    name = command.replace("-", "_")
    if name not in tasks:
        raise _ConfigError(f"tasks.{name}", f"config has no tasks.{name} section")
    sect, where = tasks[name], f"tasks.{name}"
    # the momentum-space routes, the scalar chain and the bridge cover d = 1, 2;
    # bounds reads the scalar model only for its scalar orders
    if dim > 2 and command not in ("sample", "schwinger") and (
            command != "bounds" or sect.get("orders")):
        raise _ConfigError("model.dim", f"{command} covers dim 1 and 2, got {dim}")

    def point(field, p):
        if len(p) != dim:
            raise _ConfigError(field, f"expected {dim} coordinates, got {len(p)}")

    def slots(field, docs):
        for j, s in enumerate(docs):
            point(f"{field}.{j}.center", s["center"])
            if s.get("freq") is not None and len(s["freq"]) != dim:
                raise _ConfigError(f"{field}.{j}.freq", f"expected {dim} components")

    if command in ("sample", "schwinger"):
        for i, c in enumerate(sect["smear_centers"]):
            point(f"{where}.smear_centers.{i}", c)
        # the jackknife needs equal batches; a remainder also catches
        # n_batches > n_samples
        n_batches, n_samples = sect.get("n_batches", _N_BATCHES), sect["n_samples"]
        if n_samples % n_batches:
            raise _ConfigError(f"{where}.n_batches",
                               f"n_batches {n_batches} must divide n_samples {n_samples}")
    if command == "schwinger" and max(sect["orders"]) > len(sect["smear_centers"]):
        raise _ConfigError(f"{where}.orders",
                           "an order exceeds the number of smear centers")
    # wightman's and certify's tests, spectral's off-support functions
    for docs in ("tests", "off_support"):
        for i, doc in enumerate(sect.get(docs, [])):
            slots(f"{where}.{docs}.{i}.slots", doc["slots"])
    if command == "spectral":
        slots(f"{where}.control.slots", sect["control"]["slots"])
    if command == "certify":
        block = sect.get("random_family", {})
        orders = [len(doc["slots"]) for doc in sect.get("tests", [])]
        orders += [n for key, n in _FAMILY_ORDERS if block.get(key, 0)]
        if not orders:
            raise _ConfigError(where, "certify needs tests and/or a random_family block")
        n_max = sect.get("n_max", _CERTIFY_N_MAX)
        if max(orders) > n_max:  # hssc_certify's DomainError
            raise _ConfigError(f"{where}.n_max",
                               f"a family member of order {max(orders)} is above "
                               f"n_max = {n_max}")
        # pair_bound's DomainError: below alpha = 1/2 it covers the line only
        if dim == 2 and spec.alpha < 0.5:
            raise _ConfigError("model.alpha",
                               f"certify's pair bound covers alpha = 1/2 in dim 2, "
                               f"got {spec.alpha}")
    if command == "bounds":
        if not (sect.get("orders") or sect.get("vector_slots")):
            raise _ConfigError(where, "bounds needs orders and/or vector_slots")
        for i, (n, j) in enumerate(sect.get("vector_slots", [])):
            if n < 3 or j > n:  # bound_integral_vector's DomainError
                raise _ConfigError(f"{where}.vector_slots.{i}",
                                   f"slot [{n}, {j}] needs order n >= 3 and slot j <= n")
    if command == "laplace-check":
        from .wightman import bridge_points

        for i, pts in enumerate(sect["configs"]):
            try:
                bridge_points(pts, spec, lat)
            except ValueError as exc:  # PreconditionError, or ragged points
                raise _ConfigError(f"{where}.configs.{i}", str(exc)) from None
    if command == "krein":
        for i, idxs in enumerate(sect["monomials"]):
            if any(j >= sect["n_functions"] for j in idxs):
                raise _ConfigError(
                    f"{where}.monomials.{i}",
                    f"monomial index outside the pool of {sect['n_functions']} functions")
    if command == "cluster":
        a = sect["direction"]
        point(f"{where}.direction", a)
        if a[0] ** 2 >= sum(x * x for x in a[1:]):  # cluster_decay's DomainError
            raise _ConfigError(f"{where}.direction",
                               "translation vector must be spacelike")
        for side in ("left", "right"):
            slots(f"{where}.{side}", sect[side])
    return spec, triple, lat, sect


def _slot_function(doc: dict):
    from .testfunctions import TestFunction

    center = tuple(float(x) for x in doc["center"])
    freq = doc.get("freq")
    if freq is not None:
        freq = tuple(float(x) for x in freq)
    return TestFunction.gaussian(
        center, float(doc["width"]), amplitude=doc.get("amplitude", 1.0), freq=freq
    )


def _tensor_function(doc: dict):
    from .testfunctions import TensorTestFunction

    factors = tuple(_slot_function(s) for s in doc["slots"])
    return TensorTestFunction(factors, prefactor=doc.get("prefactor", 1.0))


def _json_text(name: str, doc, **kwargs) -> str:
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:  # NaN or infinity somewhere in doc
        raise ValueError(f"{name}: {exc}") from None


def _write(path: str, payload) -> None:
    """Write one output file in the format its extension names.

    A ``.csv`` payload is (header, rows), a ``.jsonl`` payload a list of
    records and a ``.json`` payload one document.  A non-finite number
    raises ValueError naming the file before any byte of it is written.
    """
    name = os.path.basename(path)
    if name.endswith(".csv"):
        header, rows = payload
        for i, row in enumerate(rows):
            for cell in row:
                if isinstance(cell, float) and not math.isfinite(cell):
                    raise ValueError(f"{name}: non-finite value {cell} in row {i}")
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        text = buf.getvalue()
    elif name.endswith(".jsonl"):
        text = "".join(_json_text(name, rec) + "\n" for rec in payload)
    else:
        text = _json_text(name, payload, indent=2) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)


# -- subcommand handlers ----------------------------------------------------------
#
# A handler takes the model objects and task section _semantic_check built,
# the effective seed and the quadrature tolerance (None: the library's
# defaults).  It returns (outputs, fields): outputs maps each file name to
# its payload (see _write), in the order main writes them; fields go into
# the manifest, all but "failed", the message of a check that ran to the
# end and did not pass.


def _run_sample(spec, triple, lat, task, seed, tol):
    from .euclidean import estimate_moment_table
    from .green import green_alpha_lattice
    from .lattice import sample_function
    from .testfunctions import TestFunction

    kernel = green_alpha_lattice(lat, spec)
    weights = [
        sample_function(
            lat, TestFunction.gaussian(tuple(c), task["smear_width"])
        ).values.real
        for c in task["smear_centers"]
    ]
    table = estimate_moment_table(
        lat,
        kernel,
        weights,
        triple,
        task["n_samples"],
        seed,
        n_batches=task.get("n_batches", _N_BATCHES),
    )
    rows = [
        ["-".join(map(str, key)), est.value, est.std_error, est.n_samples]
        for key, est in sorted(table.items())
    ]
    return {"sample.csv": (["subset", "moment", "std_error", "n_samples"], rows)}, {}


def _run_schwinger(spec, triple, lat, task, seed, tol):
    from .euclidean import estimate_schwinger_mc
    from .green import green_alpha_lattice
    from .lattice import sample_function
    from .schwinger import smeared_truncated_correlator
    from .testfunctions import TestFunction

    tests = [
        TestFunction.gaussian(tuple(c), task["smear_width"])
        for c in task["smear_centers"]
    ]
    weights = [sample_function(lat, t).values.real for t in tests]
    kernel = green_alpha_lattice(lat, spec)
    rows = []
    for n in task["orders"]:
        analytic = smeared_truncated_correlator(lat, spec, triple, tests[:n])
        mc = estimate_schwinger_mc(
            lat,
            kernel,
            weights[:n],
            triple,
            task["n_samples"],
            seed,
            n_batches=task.get("n_batches", _N_BATCHES),
        )
        diff = abs(mc.value - analytic)
        sigmas = diff / mc.std_error if mc.std_error > 0 else float("inf")
        rows.append([n, analytic, mc.value, mc.std_error, diff, sigmas])
    header = ["order", "analytic", "mc", "std_error", "abs_diff", "sigmas"]
    return {"schwinger.csv": (header, rows)}, {}


def _run_wightman(spec, triple, lat, task, seed, tol):
    from .quadrature import collect
    from .wightman import truncated_momentum_eval

    rows = []
    records = []
    for idx, doc in enumerate(task["tests"]):
        tensor = _tensor_function(doc)
        with collect() as rec:
            val = truncated_momentum_eval(tensor, spec, triple, tol)
        rows.append([idx, tensor.n_points, val.real, val.imag])
        records.extend(dict(entry, test_index=idx) for entry in rec)
    return {"wightman.csv": (["test_index", "order", "real", "imag"], rows),
            "wightman_records.jsonl": records}, {}


def _run_laplace_check(spec, triple, lat, task, seed, tol):
    from .wightman import laplace_bridge_check

    gap_tol = task.get("tolerance", 5e-3)  # a bound on the gap, not a quadrature tolerance
    rows = []
    for pts in task["configs"]:
        rep = laplace_bridge_check(pts, spec, triple, lat)
        rows.append([len(pts), rep.lhs, rep.rhs, rep.gap, gap_tol, rep.gap <= gap_tol])
    header = ["order", "lattice", "momentum", "gap", "tolerance", "passed"]
    fields = {} if all(r[-1] for r in rows) else {
        "failed": "a bridge gap exceeded its tolerance"}
    return {"laplace_check.csv": (header, rows)}, fields


def _run_bounds(spec, triple, lat, task, seed, tol):
    from dataclasses import asdict

    from .hssc import (
        bound_integral_scalar,
        bound_integral_vector,
        compute_scalar_factors,
    )

    orders = task.get("orders", [])
    vector_slots = task.get("vector_slots", [])
    rows = []
    doc: Dict[str, object] = {"scalar": [], "vector": []}
    if orders:
        factors = compute_scalar_factors(spec)
        doc["scalar_factors"] = asdict(factors)
        for n in orders:
            rep = bound_integral_scalar(n, spec, triple, factors)
            rows.append(["scalar", n, "", rep.constant])
            doc["scalar"].append(asdict(rep))
    for n, j in vector_slots:
        rep = bound_integral_vector(n, j)
        rows.append(["vector", n, j, rep.constant])
        doc["vector"].append(asdict(rep))
    return {"bounds.csv": (["family", "order", "slot", "constant"], rows),
            "bounds.json": doc}, {}


def _packet(rng, dim: int, widths, freq_scale: float):
    """A modulated Gaussian drawn from ``rng``: center in [-1.2, 1.2]^d, width, freq."""
    from .testfunctions import TestFunction

    center = tuple(rng.uniform(-1.2, 1.2, size=dim))
    width = float(rng.uniform(*widths))
    freq = tuple(rng.uniform(-freq_scale, freq_scale, size=dim))
    return TestFunction.gaussian(center, width, freq=freq)


# random_family's counts and the order of their members, in drawing order
_FAMILY_ORDERS = (("singles", 1), ("doubles", 2), ("triples", 3), ("quads", 4))
# certify's n_max where the config gives none
_CERTIFY_N_MAX = 4


def _random_family(spec, block: dict, seed: int):
    import numpy as np

    from .testfunctions import TensorTestFunction

    rng = np.random.default_rng(seed)

    def one(n):
        return TensorTestFunction(tuple(
            _packet(rng, spec.dim, (0.8, 1.2), 0.6) for _ in range(n)))

    fam = []
    for key, n in _FAMILY_ORDERS:
        fam.extend(one(n) for _ in range(block.get(key, 0)))
    return fam


def _run_certify(spec, triple, lat, task, seed, tol):
    from .hssc import hssc_certify

    family = [_tensor_function(doc) for doc in task.get("tests", [])]
    if "random_family" in task:
        family.extend(_random_family(spec, task["random_family"], seed))
    cert = hssc_certify(spec, triple, family,
                        n_max=task.get("n_max", _CERTIFY_N_MAX), tol=tol)
    # timestamps live in the manifest only
    fields = {"certify_runtime_seconds": cert.pop("runtime_seconds")}
    if not cert["passed"]:
        fields["failed"] = "certificate did not pass"
    # one row per order, then the pair row with the pairs it did not check
    header = ["order", "count", "worst_ratio", "min_margin", "skipped"]
    rows = [[row[k] for k in header[:-1]] + [0] for row in cert["per_order"]]
    rows.append(["pairs", *(cert["pairwise"][k] for k in header[1:])])
    return {"certificate.json": cert, "certify.csv": (header, rows)}, fields


def _run_krein(spec, triple, lat, task, seed, tol):
    import numpy as np

    from .hssc import (
        build_gram_pair,
        krein_reduce,
        majorization_check,
        search_indefinite_gram,
        tensor_schwartz_norm,
    )
    from .testfunctions import TensorTestFunction

    rng = np.random.default_rng(seed)
    pool = [_packet(rng, spec.dim, (0.7, 1.2), 0.8)
            for _ in range(task["n_functions"])]
    monos = [tuple(pool[i] for i in idxs) for idxs in task["monomials"]]
    scale = task.get("seminorm_scale", 1.0)

    def seminorm(mono):
        return scale * (tensor_schwartz_norm(TensorTestFunction(mono), 2 * spec.dim)
                        if mono else 1.0)

    pair = build_gram_pair(spec, triple, monos, seminorm, tol=tol)
    eigs = np.linalg.eigvalsh(pair.form)
    report: Dict[str, object] = {
        "basis_size": len(monos),
        "form_eigenvalues": [float(x) for x in eigs],
        "majorant_diagonal": [float(x) for x in np.diag(pair.majorant).real],
    }
    check = majorization_check(pair)
    report["majorization"] = {"ratio": check.ratio, "passed": check.passed}
    if check.passed:
        res = krein_reduce(pair)
        eye = np.eye(len(res.metric))
        report["krein"] = {
            "degenerate_dim": res.degenerate_dim,
            "metric_self_inverse_defect": float(
                np.linalg.norm(res.metric @ res.metric - eye, 2)
            ),
            "reconstruction_error": res.reconstruction_error,
            "remajorization_ratio": res.remajorization_ratio,
        }
    n_cand = task.get("search_candidates", 0)
    if n_cand:
        report["indefinite_search"] = search_indefinite_gram(
            spec, triple, n_candidates=n_cand, seed=seed, tol=tol,
        )
    rows = [[i, float(x)] for i, x in enumerate(eigs)]
    return {"krein.json": report,
            "krein_eigenvalues.csv": (["index", "eigenvalue"], rows)}, {}


def _run_cluster(spec, triple, lat, task, seed, tol):
    from .wightman import cluster_decay

    rows = cluster_decay(
        [_slot_function(doc) for doc in task["left"]],
        [_slot_function(doc) for doc in task["right"]],
        task["direction"],
        task["lambdas"],
        spec,
        triple,
        **({} if tol is None else {"tol": tol}),
    )
    return {"cluster.csv": (["lambda", "abs_value"], [[l, v] for l, v in rows])}, {}


def _run_spectral(spec, triple, lat, task, seed, tol):
    from .wightman import spectral_support_check

    off = [_tensor_function(doc) for doc in task["off_support"]]
    control = _tensor_function(task["control"])
    # the off-support values are held to the quadrature tolerance itself
    if tol is None:
        tol = task.get("tolerance")
    result = spectral_support_check(
        spec, triple, off, control, **({} if tol is None else {"tol": tol}))
    header = ["max_off_support", "control", "tolerance", "passed"]
    fields = {} if result["passed"] else {"failed": "spectral support check failed"}
    return {"spectral.json": result,
            "spectral.csv": (header, [[result[k] for k in header]])}, fields


_HANDLERS: Dict[str, Callable] = {
    "sample": _run_sample,
    "schwinger": _run_schwinger,
    "wightman": _run_wightman,
    "laplace-check": _run_laplace_check,
    "bounds": _run_bounds,
    "certify": _run_certify,
    "krein": _run_krein,
    "cluster": _run_cluster,
    "spectral": _run_spectral,
}


SUBCOMMANDS = tuple(_HANDLERS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinfield", description="Random-field laboratory batch driver")
    parser.add_argument("command", choices=SUBCOMMANDS, metavar="subcommand",
                        help="the pipeline to run: " + ", ".join(SUBCOMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS/OpenMP worker pools (results are unaffected)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override quadrature tolerance")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            if args.threads < 1:
                raise _ConfigError("threads", "--threads must be at least one")
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            ):
                os.environ[var] = str(args.threads)
        cfg, digest, inputs = _load_config(args.config, args.command)
        if args.tolerance is not None and args.tolerance <= 0:
            raise _ConfigError("tolerance", "--tolerance must be positive")
        out = args.out or cfg.get("output_dir")
        if out is None:
            raise _ConfigError("output_dir", "no output directory (--out or output_dir)")
    except _ConfigError as exc:
        _fail("config", str(exc), field=exc.field)
        return 2
    tol = args.tolerance
    if tol is None:
        tol = (cfg.get("quadrature") or {}).get("tolerance")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    os.makedirs(out, exist_ok=True)

    written: List[str] = []
    fields: dict = {}
    t0 = time.time()
    error: Optional[dict] = None
    try:
        outputs, fields = _HANDLERS[args.command](*inputs, seed, tol)
        failed = fields.pop("failed", None)
        for name, payload in outputs.items():
            _write(os.path.join(out, name), payload)
            written.append(name)
        if failed is not None:
            error = _fail("task", failed)
    except Exception as exc:  # noqa: BLE001 - boundary: map to exit code 1
        import traceback

        message = f"{type(exc).__name__}: {exc}"
        # the innermost frames, innermost last
        where = [f"{os.path.basename(fr.filename)}:{fr.lineno} in {fr.name}"
                 for fr in traceback.extract_tb(exc.__traceback__)[-5:]]
        if isinstance(exc, QuadratureError):
            error = _fail("task", message, residual=exc.residual,
                          history=exc.history, where=where)
        else:
            error = _fail("task", message, where=where)

    from . import __version__

    import numpy

    manifest = {
        "subcommand": args.command,
        "config_path": os.path.abspath(args.config),
        "config_sha256": digest,
        "status": "ok" if error is None else "failed",
        "seed": seed,
        "tolerance": tol,
        "outputs": written,
        "versions": {
            "kreinfield": __version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t0)),
        "wall_seconds": time.time() - t0,
    }
    manifest.update(fields)
    manifest.update(error or {})
    _write(os.path.join(out, "manifest.json"), manifest)
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
