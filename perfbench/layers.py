"""What the traced run wraps, per layer, and what each workload must touch.

Layer names are the ``repro`` sub-packages: ``core``, ``compress``,
``io`` (spans recorded around their public functions and methods) and
``service`` (counters from the server's ``stats`` op plus client-side
timings).  ``parallel``, ``cluster`` and ``kernels`` are not on the
default production path and are not traced.
"""

from __future__ import annotations

from pathlib import Path

from .tracer import Target

__all__ = ["TARGETS", "DECLARED", "SPAN_NAMES"]


def _entropy_bytes(args, kwargs, result):
    payload, _header = result
    return {"compress.entropy_bytes_out": len(payload)}


def _published(args, kwargs, result):
    dst, payload = args[0], args[1]
    out = {"io.bytes_published": len(payload)}
    if Path(dst).name == "manifest.json":
        out["io.manifest_bytes"] = len(payload)
    return out


def _class_bytes(args, kwargs, result):
    return {"io.class_bytes_read": sum(int(a.nbytes) for a in result)}


_ENGINE = "repro.core.engine:NumpyEngine."

TARGETS: list[Target] = [
    # core: decompose/recompose and every NumpyEngine method
    Target("repro.core.decompose:decompose", "core.decompose"),
    Target("repro.core.decompose:recompose", "core.recompose"),
    Target(_ENGINE + "compute_coefficients", "core.compute_coefficients"),
    Target(_ENGINE + "restore_from_coefficients", "core.restore_from_coefficients"),
    Target(_ENGINE + "mass_apply", "core.mass_apply"),
    Target(_ENGINE + "transfer_apply", "core.transfer_apply"),
    Target(_ENGINE + "solve_correction", "core.solve_correction"),
    Target(_ENGINE + "copy", "core.data_movement"),
    Target(_ENGINE + "pack", "core.data_movement"),
    Target(_ENGINE + "unpack", "core.data_movement"),
    Target(_ENGINE + "add_correction", "core.correction_update"),
    Target(_ENGINE + "subtract_correction", "core.correction_update"),
    Target("repro.core.classes:extract_classes", "core.class_gather"),
    Target("repro.core.classes:assemble_from_classes", "core.class_gather"),
    Target("repro.core.snorm:truncation_estimate", "core.truncation_estimate"),
    # compress
    Target("repro.compress.quantizer:Quantizer.quantize_flat", "compress.quantize"),
    Target("repro.compress.quantizer:Quantizer.dequantize_flat", "compress.dequantize"),
    Target("repro.compress.lossless:encode_classes", "compress.entropy_encode",
           _entropy_bytes),
    Target("repro.compress.lossless:decode_classes", "compress.entropy_decode"),
    Target("repro.compress.timeseries:TimeSeriesCompressor.predict_residual",
           "compress.predict"),
    Target("repro.compress.fileio:save_compressed", "compress.save"),
    Target("repro.compress.fileio:load_compressed", "compress.load"),
    # io
    Target("repro.io.stream:StepStreamWriter.commit_step", "io.commit"),
    Target("repro.io.publish:atomic_publish", "io.publish", _published),
    Target("repro.io.container:write_refactored_stream", "io.container_write"),
    Target("repro.io.container:RefactoredFileReader.read_classes", "io.read_classes",
           _class_bytes),
]

SPAN_NAMES = sorted({t.span for t in TARGETS})

_REFACTOR = [
    "core.decompose", "core.recompose", "core.compute_coefficients",
    "core.restore_from_coefficients", "core.mass_apply", "core.transfer_apply",
    "core.solve_correction", "core.data_movement", "core.correction_update",
    "core.class_gather",
]
_CODEC = [
    "compress.quantize", "compress.dequantize", "compress.entropy_encode",
    "compress.entropy_decode", "compress.save", "compress.load",
]

#: spans each workload must record at least once in its measured phase;
#: a zero means a rename or a dead path silently dropped a layer
DECLARED: dict[str, list[str]] = {
    "field-zlib": _REFACTOR + _CODEC,
    "series-huffman": _REFACTOR + _CODEC + ["compress.predict", "io.commit", "io.publish"],
    "service-progressive": [
        "core.decompose", "core.recompose", "core.truncation_estimate",
        "core.class_gather", "io.commit", "io.publish", "io.container_write",
        "io.read_classes",
    ],
}
