import numpy as np
import pytest

from osnids.errors import ValueOutOfRange, WrongLength
from osnids.features import IMAGE_SHAPE, from_rgb_image, normalize, to_rgb_image
from osnids.persistence import write_ppm


class TestToRgbImage:
    def test_zero_vector_black_image(self):
        img = to_rgb_image(np.zeros(1500, dtype=np.uint8))
        assert img.shape == IMAGE_SHAPE
        assert not img.any()

    def test_repeating_rgb_triple_uniform_red(self):
        vec = np.tile([255, 0, 0], 500)
        img = to_rgb_image(vec)
        assert (img[:, :, 0] == 255).all()
        assert not img[:, :, 1].any() and not img[:, :, 2].any()

    def test_index_arithmetic(self):
        vec = np.arange(1500) % 256
        img = to_rgb_image(vec)
        # pixel (row 1, col 0) starts at flat index 3 * (25 * 1 + 0) = 75
        assert tuple(img[1, 0]) == (75, 76, 77)

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            to_rgb_image(np.zeros(1499, dtype=np.uint8))

    def test_out_of_range(self):
        vec = np.zeros(1500, dtype=np.int64)
        vec[3] = 256
        with pytest.raises(ValueOutOfRange):
            to_rgb_image(vec)
        vec[3] = -1
        with pytest.raises(ValueOutOfRange):
            to_rgb_image(vec)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueOutOfRange):
            to_rgb_image(np.full(1500, 0.5))


class TestRoundTrip:
    def test_black_image_to_zero_vector(self):
        assert not from_rgb_image(np.zeros(IMAGE_SHAPE, dtype=np.uint8)).any()

    def test_round_trip_identity_random(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            vec = rng.integers(0, 256, 1500).astype(np.uint8)
            assert np.array_equal(from_rgb_image(to_rgb_image(vec)), vec)

    def test_image_round_trip(self):
        rng = np.random.default_rng(5)
        img = rng.integers(0, 256, IMAGE_SHAPE).astype(np.uint8)
        assert np.array_equal(to_rgb_image(from_rgb_image(img)), img)

    def test_wrong_shape(self):
        with pytest.raises(WrongLength):
            from_rgb_image(np.zeros((25, 20, 3), dtype=np.uint8))


class TestNormalize:
    def test_bounds(self):
        img = np.zeros(IMAGE_SHAPE, dtype=np.uint8)
        img[0, 0, 0] = 255
        img[0, 0, 1] = 128
        out = normalize(img)
        assert out[0, 0, 0] == 1.0
        assert out[0, 0, 2] == 0.0
        assert out[0, 0, 1] == pytest.approx(128 / 255)

    def test_all_entries_in_unit_interval(self):
        rng = np.random.default_rng(7)
        out = normalize(rng.integers(0, 256, IMAGE_SHAPE).astype(np.uint8))
        assert out.min() >= 0.0 and out.max() <= 1.0


class TestPpmExport:
    def test_header_and_payload(self, tmp_path):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, IMAGE_SHAPE).astype(np.uint8)
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n25 20\n255\n")
        assert blob[len(b"P6\n25 20\n255\n"):] == img.tobytes()
