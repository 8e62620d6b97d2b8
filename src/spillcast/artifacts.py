"""Persistence of fitted models as diffable flat files.

A model artifact is a directory holding an INI header (metadata: version,
bandwidths, levels, thresholds, transform) plus CSV files for samples and
grids.  Classification and prediction evaluate the kernel formulas from
the stored samples, so a round-trip through the artifact reproduces the
in-memory model behavior.
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import MissingFile, ParseError
from .ingest import parse_float, parse_int, read_table, write_table
from .onset import OnsetPdf, OnsetSample, fit_onset_pdf

# the severity functions import severity when called, so that the onset
# commands load no severity code
if TYPE_CHECKING:
    from .severity import RateSurface

ARTIFACT_VERSION = 1

ONSET_HEADER = "onset_model.ini"
ONSET_SAMPLES = "onset_samples.csv"
ONSET_GRID = "onset_grid.csv"
SEVERITY_HEADER = "severity_model.ini"
SEVERITY_SAMPLES = "severity_samples.csv"
SEVERITY_GRID = "rate_surface.csv"
ONSET_SAMPLE_HEADER = ["m", "r0", "weight"]
SEVERITY_SAMPLE_HEADER = ["m", "w", "x"]


def _write_grid(path, header, rows, cols, values) -> None:
    """Write ``values[i, j]`` as the table rows ``rows[i], cols[j], value``,
    row-major.  csv writes a float as its repr, so each axis value is
    repr'd once and repeated; only the values are formatted per cell."""
    row_text = [repr(v) for v in np.asarray(rows, dtype=float).tolist()]
    col_text = [repr(v) for v in np.asarray(cols, dtype=float).tolist()]
    write_table(path, header,
                [[r for r in row_text for _ in col_text],
                 col_text * len(row_text), np.asarray(values).ravel()])


def save_onset_model(pdf: OnsetPdf, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    header = configparser.ConfigParser()
    header["onset_pdf"] = {
        "version": str(ARTIFACT_VERSION),
        "bandwidth_m": repr(float(pdf.bandwidth[0])),
        "bandwidth_r0": repr(float(pdf.bandwidth[1])),
        "levels": ",".join(repr(float(v)) for v in pdf.levels),
        "thresholds": ",".join(repr(float(v)) for v in pdf.thresholds),
        "transform": pdf.transform,
        "grid_size": str(len(pdf.m_grid)),
    }
    with open(directory / ONSET_HEADER, "w") as fh:
        header.write(fh)

    write_table(directory / ONSET_SAMPLES, ONSET_SAMPLE_HEADER,
                [pdf.sample_m, pdf.sample_r0, pdf.weights])
    _write_grid(directory / ONSET_GRID, ["m", "r0", "density"],
                pdf.m_grid, pdf.r0_grid, pdf.density)


def load_onset_model(directory) -> OnsetPdf:
    directory = Path(directory)
    header_path = directory / ONSET_HEADER
    if not header_path.exists():
        raise MissingFile(str(header_path))
    header = configparser.ConfigParser()
    header.read(header_path)
    try:
        section = header["onset_pdf"]
        bandwidth = (float(section["bandwidth_m"]), float(section["bandwidth_r0"]))
        levels = tuple(float(v) for v in section["levels"].split(","))
        transform = section["transform"]
        grid_size = int(section["grid_size"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad onset model header: {exc}") from None

    rows = []
    for lineno, fields in read_table(directory / ONSET_SAMPLES,
                                     ONSET_SAMPLE_HEADER):
        m, r0, w = (parse_float(text, name, lineno)
                    for text, name in zip(fields, ONSET_SAMPLE_HEADER))
        if w <= 0:
            raise ParseError(f"weight {w!r} must be > 0", lineno)
        rows.append((m, r0, w))
    if not rows:
        raise ParseError("onset model has no samples")
    # weights were stored normalized; rescale so the smallest is >= 1
    floor = min(w for _, _, w in rows)
    samples = [OnsetSample(m, r, w / floor) for m, r, w in rows]
    return fit_onset_pdf(samples, bandwidth=bandwidth, grid_size=grid_size,
                         levels=levels, transform=transform)


def save_severity_model(surface: RateSurface, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    header = configparser.ConfigParser()
    header["rate_surface"] = {
        "version": str(ARTIFACT_VERSION),
        "bandwidth_m": repr(float(surface.bandwidth[0])),
        "bandwidth_w": repr(float(surface.bandwidth[1])),
        "grid_size": str(len(surface.grid.m_centers)),
    }
    with open(directory / SEVERITY_HEADER, "w") as fh:
        header.write(fh)

    write_table(directory / SEVERITY_SAMPLES, SEVERITY_SAMPLE_HEADER,
                [surface.sample_m, surface.sample_w,
                 surface.sample_x.astype(int)])
    _write_grid(directory / SEVERITY_GRID, ["m", "w", "lambda"],
                surface.grid.m_centers, surface.grid.w_centers, surface.lam)


def load_severity_model(directory) -> RateSurface:
    from .severity import SeveritySample, fit_rate_surface

    directory = Path(directory)
    header_path = directory / SEVERITY_HEADER
    if not header_path.exists():
        raise MissingFile(str(header_path))
    header = configparser.ConfigParser()
    header.read(header_path)
    try:
        section = header["rate_surface"]
        bandwidths = (float(section["bandwidth_m"]), float(section["bandwidth_w"]))
        grid_size = int(section["grid_size"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad severity model header: {exc}") from None

    samples = [SeveritySample(m=parse_float(fields[0], "m", lineno),
                              w=parse_float(fields[1], "w", lineno),
                              x=parse_int(fields[2], "x", lineno))
               for lineno, fields in read_table(directory / SEVERITY_SAMPLES,
                                                SEVERITY_SAMPLE_HEADER)]
    return fit_rate_surface(samples, bandwidths=bandwidths,
                            grid_size=grid_size)
