import numpy as np
import pytest

from spillcast import errors
from spillcast.artifacts import (
    load_onset_model,
    load_severity_model,
    save_onset_model,
    save_severity_model,
)
from spillcast.onset import OnsetSample, classify, fit_onset_pdf
from spillcast.severity import SeveritySample, fit_rate_surface


@pytest.fixture()
def onset_pdf():
    samples = [OnsetSample(5700.0, 4800.0, 1.0),
               OnsetSample(5900.0, 4850.0, 3.0),
               OnsetSample(5800.0, 4900.0, 2.0)]
    return fit_onset_pdf(samples, bandwidth=(150.0, 80.0), grid_size=64)


def test_onset_round_trip(tmp_path, onset_pdf):
    save_onset_model(onset_pdf, tmp_path)
    again = load_onset_model(tmp_path)
    assert again.bandwidth == onset_pdf.bandwidth
    assert again.levels == onset_pdf.levels
    assert again.transform == onset_pdf.transform
    assert np.array_equal(again.m_grid, onset_pdf.m_grid)
    assert np.array_equal(again.density, onset_pdf.density)
    assert again.thresholds == onset_pdf.thresholds
    rng = np.random.default_rng(3)
    for _ in range(50):
        point = (float(rng.uniform(5000, 6500)), float(rng.uniform(4500, 5200)))
        assert classify(again, point) is classify(onset_pdf, point)


def test_onset_weights_survive_normalization(tmp_path, onset_pdf):
    save_onset_model(onset_pdf, tmp_path)
    again = load_onset_model(tmp_path)
    # stored weights are normalized; the reload must preserve their ratios
    assert np.allclose(again.weights, onset_pdf.weights, rtol=1e-12)



@pytest.mark.parametrize("weight", ["0.0", "-0.25"])
def test_onset_weight_not_positive_raises_with_line(tmp_path, onset_pdf,
                                                    weight):
    # a 0.0 weight used to end in a ZeroDivisionError from the rescaling
    save_onset_model(onset_pdf, tmp_path)
    path = tmp_path / "onset_samples.csv"
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:2] + [weight])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(errors.ParseError, match="line 3"):
        load_onset_model(tmp_path)

def test_severity_round_trip(tmp_path):
    samples = [SeveritySample(5500.0, 24.0, 2), SeveritySample(5900.0, 26.0, 7),
               SeveritySample(5700.0, 25.0, 4)]
    surface = fit_rate_surface(samples, bandwidths=(150.0, 1.0), grid_size=32)
    save_severity_model(surface, tmp_path)
    again = load_severity_model(tmp_path)
    assert again.bandwidth == surface.bandwidth
    assert np.array_equal(again.lam, surface.lam)
    assert np.array_equal(again.grid.m_centers, surface.grid.m_centers)
    assert np.array_equal(again.sample_x, surface.sample_x)


def test_missing_model_raises(tmp_path):
    with pytest.raises(errors.MissingFile):
        load_onset_model(tmp_path / "nope")
    with pytest.raises(errors.MissingFile):
        load_severity_model(tmp_path / "nope")


def test_corrupt_header_raises(tmp_path, onset_pdf):
    save_onset_model(onset_pdf, tmp_path)
    (tmp_path / "onset_model.ini").write_text("[onset_pdf]\nversion = 1\n")
    with pytest.raises(errors.ParseError):
        load_onset_model(tmp_path)
