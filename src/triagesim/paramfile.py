"""The parameter document passed from `estimate` to the simulation commands.

A versioned JSON file holding every workflow parameter plus fit diagnostics.
Fields that could not be estimated (for example when the closure log is
missing) are null and listed under "missing" so downstream consumers fail
loudly rather than silently.
"""
from __future__ import annotations

import json

from .core import DeviceOperatingPoint, WorkflowParams
from .errors import FormatError, ParameterError, ParameterTypeError, positive, reading, share

SCHEMA_VERSION = 1
# The dotted names of the fields estimate fills, each listed under "missing"
# when it could not be estimated.
ESTIMATED_FIELDS = (
    "prevalence",
    "counts",
    "interarrival.work",
    "interarrival.off",
    "read_time.pe_positive",
    "read_time.non_pe_positive",
    "read_time.non_chest_ct",
    "read_time_diseased",
    "effective_nondiseased_read_time",
    "device.tpf",
    "device.specificity",
    "device.fpf_adjusted",
)


def empty_document() -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "prevalence": None,
        "counts": {
            "n_diseased": None,
            "n_queue_total": None,
            "n_non_pe_positive": None,
            "n_non_chest_ct": None,
        },
        "interarrival": {"work": None, "off": None},
        "read_time": {
            "pe_positive": None,
            "non_pe_positive": None,
            "non_chest_ct": None,
        },
        "read_time_diseased": None,
        "effective_nondiseased_read_time": None,
        "device": {"tpf": None, "specificity": None, "fpf_adjusted": None},
        "missing": [],
        "diagnostics": {},
    }


def save_parameters(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_parameters(path) -> dict:
    try:
        with reading(path), open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(
            f"{path}: expected a parameter document with schema_version "
            f"{SCHEMA_VERSION}"
        )
    return doc


def _lookup(doc: dict, dotted: str):
    """The value at a dotted key; None if it or a node on its path is null
    or absent, a FormatError if such a node is not a JSON object."""
    path, _, key = dotted.rpartition(".")
    node = _lookup(doc, path) if path else doc
    if node is not None and not isinstance(node, dict):
        raise FormatError(f"parameter file: {path} must be a JSON object, got {node!r}")
    return None if node is None else node.get(key)


def missing_fields(doc: dict) -> list[str]:
    """The ESTIMATED_FIELDS that are null or whose entries are all null, sorted."""
    missing = []
    for dotted in ESTIMATED_FIELDS:
        node = _lookup(doc, dotted)
        if node is None or isinstance(node, dict) and all(v is None for v in node.values()):
            missing.append(dotted)
    return sorted(missing)


def read_value(doc: dict, dotted: str, rule, required: bool = True):
    """The value at a dotted key passed through a scalar rule of
    triagesim.errors under that name. A value of the wrong type, or a node
    on its path that is not a JSON object, is a FormatError, one out of
    range a ParameterError; a null or absent one is a ParameterError if
    required, else None."""
    value = _lookup(doc, dotted)
    if value is None and required:
        raise ParameterError(
            f"parameter file is missing {dotted!r}; re-run estimate with the "
            "inputs that produce it"
        )
    try:
        return None if value is None else rule(dotted, value)
    except ParameterTypeError as exc:
        raise FormatError(f"parameter file: {exc}") from exc


def workflow_params_from_doc(
    doc: dict, mean_interarrival: float, n_radiologists: int
) -> WorkflowParams:
    """Build simulation parameters from a parameter document plus the two
    swept quantities (inter-arrival mean and radiologist count)."""
    device = DeviceOperatingPoint(
        tpf=read_value(doc, "device.tpf", share),
        fpf_adjusted=read_value(doc, "device.fpf_adjusted", share),
    )
    return WorkflowParams(
        prevalence=read_value(doc, "prevalence", share),
        mean_interarrival=mean_interarrival,
        n_radiologists=n_radiologists,
        read_time_diseased=read_value(doc, "read_time_diseased", positive),
        read_time_nondiseased_effective=read_value(doc, "effective_nondiseased_read_time", positive),
        device=device,
    )
