"""Tests for the encoder's building blocks (frames, motion, subpel, transform...)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoder.frames import SceneCut, SyntheticVideoSource
from repro.encoder.motion import (
    diamond_search,
    full_search,
    full_search_multi,
    hexagon_search,
    sad,
    search,
)
from repro.encoder.partition import analyse_partitions
from repro.encoder.quality import mse, psnr, psnr_series_difference
from repro.encoder.settings import PRESET_LADDER, EncoderSettings, MotionAlgorithm, preset
from repro.encoder.subpel import interpolate_block, refine
from repro.encoder.transform import quantisation_step, transform_and_reconstruct


class TestSyntheticVideoSource:
    def test_frame_shape_and_range(self):
        source = SyntheticVideoSource(48, 32, seed=0)
        frame = source.frame(5)
        assert frame.shape == (32, 48)
        assert frame.min() >= 0.0 and frame.max() <= 255.0

    def test_deterministic_given_seed(self):
        a = SyntheticVideoSource(32, 32, seed=3).frame(7)
        b = SyntheticVideoSource(32, 32, seed=3).frame(7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SyntheticVideoSource(32, 32, seed=1).frame(0)
        b = SyntheticVideoSource(32, 32, seed=2).frame(0)
        assert not np.array_equal(a, b)

    def test_consecutive_frames_are_correlated_but_not_identical(self):
        source = SyntheticVideoSource(48, 48, seed=0, noise=1.0)
        f0, f1 = source.frame(10), source.frame(11)
        assert not np.array_equal(f0, f1)
        assert np.mean(np.abs(f0 - f1)) < np.mean(np.abs(f0 - source.frame(60)))

    def test_scene_cut_lookup(self):
        cuts = (SceneCut(0, 2.0, 1.0), SceneCut(50, 0.5, 0.4))
        source = SyntheticVideoSource(32, 32, scene_cuts=cuts, seed=0)
        assert source.scene_cut_at(10).motion == 2.0
        assert source.scene_cut_at(50).motion == 0.5
        assert source.scene_cut_at(500).motion == 0.5

    def test_scene_cuts_must_start_at_zero(self):
        with pytest.raises(ValueError):
            SyntheticVideoSource(32, 32, scene_cuts=(SceneCut(5, 1.0, 1.0),))

    def test_negative_frame_rejected(self):
        with pytest.raises(ValueError):
            SyntheticVideoSource(32, 32).frame(-1)


class TestMotionSearch:
    @staticmethod
    def make_pair(shift=(2, 3), size=32, block=8, seed=0, smooth=False):
        rng = np.random.default_rng(seed)
        if smooth:
            # Spatially correlated content: the SAD landscape decreases
            # monotonically towards the true offset, which the greedy
            # pattern searches (diamond/hexagon) rely on.
            y, x = np.mgrid[0:size, 0:size].astype(float)
            reference = (
                128.0
                + 60.0 * np.sin(y / 5.0 + seed)
                + 50.0 * np.cos(x / 4.0)
                + 20.0 * np.sin((x + y) / 7.0)
            )
        else:
            reference = rng.uniform(0, 255, (size, size))
        current = np.roll(reference, shift, axis=(0, 1))
        return current, reference

    def test_sad_identical_blocks_is_zero(self):
        block = np.full((8, 8), 7.0)
        assert sad(block, block) == 0.0
        with pytest.raises(ValueError):
            sad(block, np.zeros((4, 4)))

    def test_full_search_finds_exact_shift(self):
        # np.roll by (2, 3) means current[i, j] == reference[i-2, j-3], so the
        # best match for a block at (8, 8) sits at (6, 5): motion vector (-2, -3).
        current, reference = self.make_pair(shift=(2, 3))
        block = current[8:16, 8:16]
        result = full_search(block, reference, 8, 8, search_range=4)
        assert result.motion_vector == (-2, -3)
        assert result.sad == pytest.approx(0.0)
        assert result.candidates_evaluated == 81

    def test_hexagon_finds_small_diagonal_shift(self):
        current, reference = self.make_pair(shift=(1, -2), smooth=True)
        block = current[16:24, 16:24]
        result = search("hexagon", block, reference, 16, 16, search_range=8)
        assert result.sad == pytest.approx(0.0, abs=1e-9)
        assert result.motion_vector == (-1, 2)

    @pytest.mark.parametrize(("shift", "expected_mv"), [((2, 0), (-2, 0)), ((0, 3), (0, -3))])
    def test_diamond_finds_axial_shifts_on_unimodal_content(self, shift, expected_mv):
        # The greedy small-diamond pattern needs a SAD landscape that falls
        # monotonically towards the optimum; a quadratic bowl provides one.
        size = 32
        y, x = np.mgrid[0:size, 0:size].astype(float)
        reference = 128.0 + ((y - 16.0) ** 2 + (x - 16.0) ** 2) * 0.4
        current = np.roll(reference, shift, axis=(0, 1))
        block = current[16:24, 16:24]
        result = search("diamond", block, reference, 16, 16, search_range=8)
        assert result.sad == pytest.approx(0.0, abs=1e-9)
        assert result.motion_vector == expected_mv

    @pytest.mark.parametrize("algorithm", ["diamond", "hexagon"])
    def test_pattern_searches_never_worse_than_no_motion(self, algorithm):
        current, reference = self.make_pair(shift=(3, 2))
        block = current[16:24, 16:24]
        stationary = sad(block, reference[16:24, 16:24])
        result = search(algorithm, block, reference, 16, 16, search_range=8)
        assert result.sad <= stationary

    def test_pattern_search_cheaper_than_full(self):
        current, reference = self.make_pair(shift=(3, 1))
        block = current[8:16, 8:16]
        full = full_search(block, reference, 8, 8, 8)
        dia = diamond_search(block, reference, 8, 8, 8)
        hexa = hexagon_search(block, reference, 8, 8, 8)
        assert dia.candidates_evaluated < hexa.candidates_evaluated < full.candidates_evaluated

    def test_full_search_multi_picks_best_reference(self):
        current, good_ref = self.make_pair(shift=(0, 0), seed=1)
        rng = np.random.default_rng(9)
        bad_ref = rng.uniform(0, 255, good_ref.shape)
        block = current[8:16, 8:16]
        result, ref_idx = full_search_multi(block, [bad_ref, good_ref], 8, 8, 4)
        assert ref_idx == 1
        assert result.sad == pytest.approx(0.0)
        assert result.candidates_evaluated == 2 * 81

    def test_full_search_multi_matches_single_reference_search(self):
        current, reference = self.make_pair(shift=(1, 1), seed=2)
        block = current[8:16, 8:16]
        single = full_search(block, reference, 8, 8, 4)
        multi, _ = full_search_multi(block, [reference], 8, 8, 4)
        assert multi.motion_vector == single.motion_vector
        assert multi.sad == pytest.approx(single.sad)

    def test_equal_sads_resolve_to_the_smallest_displacement(self):
        """A flat block on a flat frame ties everywhere: the zero vector wins
        in the interior and at the corner alike, and so does the first reference."""
        flat = np.full((64, 64), 7.0)
        block = flat[:16, :16]
        for top, left in ((24, 24), (0, 0), (48, 0)):
            assert full_search(block, flat, top, left, 4).motion_vector == (0, 0)
            result, ref_idx = full_search_multi(block, [flat, flat], top, left, 4)
            assert (result.motion_vector, ref_idx) == ((0, 0), 0)

    @pytest.mark.parametrize(
        ("matches", "expected"),
        [
            (((-2, 0), (0, 1)), (0, 1)),  # smaller |di| + |dj| first
            (((1, -1), (-1, 1)), (-1, 1)),  # then the smaller di
            (((0, 1), (0, -1)), (0, -1)),  # then the smaller dj
        ],
    )
    def test_the_tie_ladder(self, matches, expected):
        reference = np.zeros((9, 9))
        for di, dj in matches:
            reference[4 + di, 4 + dj] = 1.0
        assert full_search(np.ones((1, 1)), reference, 4, 4, 2).motion_vector == expected

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        levels=st.integers(1, 3),
        top=st.integers(0, 8),
        left=st.integers(0, 8),
        search_range=st.integers(0, 4),
        pad=st.integers(1, 6),
        padding=st.sampled_from(["edge", "wrap", "reflect", "zeros", "far"]),
        own_patch=st.booleans(),
    )
    def test_padding_the_reference_does_not_move_the_vector(
        self, seed, levels, top, left, search_range, pad, padding, own_patch
    ):
        """Pad the reference, shift the block by the padding: same vector.

        A few grey levels make equal SADs common.  A block cut from the
        reference at its own position keeps its zero vector whatever the
        padding holds; any other block keeps its vector when the padding
        is far from every value, so no candidate reaching into it ties.
        """
        rng = np.random.default_rng(seed)
        reference = rng.integers(0, levels, (12, 12)).astype(float)
        if own_patch:
            block = reference[top : top + 4, left : left + 4].copy()
        else:
            block = rng.integers(0, levels, (4, 4)).astype(float)
            padding = "far"
        if padding in ("zeros", "far"):
            padded = np.pad(reference, pad, constant_values=0.0 if padding == "zeros" else 1e6)
        else:
            padded = np.pad(reference, pad, mode=padding)
        plain = full_search(block, reference, top, left, search_range)
        shifted = full_search(block, padded, top + pad, left + pad, search_range)
        assert shifted.motion_vector == plain.motion_vector
        assert shifted.sad == plain.sad
        if own_patch:
            assert plain.motion_vector == (0, 0)
        multi, ref_idx = full_search_multi(block, [padded, padded], top + pad, left + pad, search_range)
        assert (multi.motion_vector, ref_idx) == (plain.motion_vector, 0)

    def test_unknown_algorithm_rejected(self):
        current, reference = self.make_pair()
        with pytest.raises(ValueError):
            search("umh", current[:8, :8], reference, 0, 0, 4)

    def test_invalid_search_range(self):
        current, reference = self.make_pair()
        with pytest.raises(ValueError):
            full_search(current[:8, :8], reference, 0, 0, -1)


class TestSubpel:
    def test_integer_position_returns_reference_block(self):
        rng = np.random.default_rng(0)
        reference = rng.uniform(0, 255, (32, 32))
        block = interpolate_block(reference, 4.0, 5.0, 8, 8)
        assert np.allclose(block, reference[4:12, 5:13])

    def test_half_pel_is_average_of_neighbours(self):
        reference = np.zeros((16, 16))
        reference[:, 8:] = 100.0
        block = interpolate_block(reference, 0.0, 7.5, 4, 4)
        assert block[0, 0] == pytest.approx(50.0)

    def test_refine_zero_levels_is_identity(self):
        rng = np.random.default_rng(1)
        reference = rng.uniform(0, 255, (32, 32))
        block = reference[8:16, 8:16].copy()
        result = refine(block, reference, 8, 8, (0, 0), 0.0, levels=0)
        assert result.motion_vector == (0.0, 0.0)
        assert result.candidates_evaluated == 0

    def test_refine_never_increases_sad(self):
        rng = np.random.default_rng(2)
        reference = rng.uniform(0, 255, (32, 32))
        block = 0.5 * (reference[8:16, 8:16] + reference[8:16, 9:17])  # true half-pel shift
        from repro.encoder.motion import full_search

        integer = full_search(block, reference, 8, 8, 4)
        refined = refine(block, reference, 8, 8, integer.motion_vector, integer.sad, levels=2)
        assert refined.sad <= integer.sad
        assert refined.candidates_evaluated > 0

    def test_refine_rejects_negative_levels(self):
        with pytest.raises(ValueError):
            refine(np.zeros((4, 4)), np.zeros((8, 8)), 0, 0, (0, 0), 0.0, levels=-1)


class TestPartition:
    def test_split_helps_when_halves_move_differently(self):
        rng = np.random.default_rng(3)
        reference = rng.uniform(0, 255, (32, 32))
        # Build a block whose top half comes from one place and bottom half
        # from another: a single motion vector cannot predict it well.
        block = np.empty((8, 8))
        block[:4] = reference[4:8, 10:18]
        block[4:] = reference[20:24, 2:10]
        whole = full_search(block, reference, 12, 12, 4)
        result = analyse_partitions(block, reference, 12, 12, whole, search_range=8)
        assert result.sad <= whole.sad
        assert result.candidates_evaluated > 0

    def test_split_skipped_for_tiny_blocks(self):
        whole = full_search(np.zeros((2, 2)), np.zeros((16, 16)), 0, 0, 2)
        result = analyse_partitions(np.zeros((2, 2)), np.zeros((16, 16)), 0, 0, whole, 2)
        assert not result.split
        assert result.candidates_evaluated == 0


class TestTransform:
    def test_quantisation_step_doubles_every_six_qp(self):
        assert quantisation_step(26) == pytest.approx(2 * quantisation_step(20))
        with pytest.raises(ValueError):
            quantisation_step(60)

    def test_reconstruction_error_bounded_by_step(self):
        rng = np.random.default_rng(4)
        source = rng.uniform(0, 255, (8, 8))
        prediction = np.full((8, 8), 128.0)
        result = transform_and_reconstruct(source, prediction, qp=20)
        assert np.max(np.abs(result.reconstruction - source)) < 8 * quantisation_step(20)

    def test_lower_qp_means_more_bits_and_better_quality(self):
        rng = np.random.default_rng(5)
        source = rng.uniform(0, 255, (8, 8))
        prediction = np.full((8, 8), 128.0)
        fine = transform_and_reconstruct(source, prediction, qp=10)
        coarse = transform_and_reconstruct(source, prediction, qp=40)
        assert fine.bits > coarse.bits
        assert mse(source, fine.reconstruction) < mse(source, coarse.reconstruction)

    def test_perfect_prediction_costs_no_bits(self):
        source = np.full((8, 8), 99.0)
        result = transform_and_reconstruct(source, source.copy(), qp=26)
        assert result.nonzero_coefficients == 0
        assert result.bits == 0.0
        assert np.allclose(result.reconstruction, source)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transform_and_reconstruct(np.zeros((8, 8)), np.zeros((4, 4)), qp=26)


class TestQualityMetrics:
    def test_psnr_infinite_for_identical(self):
        frame = np.full((16, 16), 42.0)
        assert psnr(frame, frame) == np.inf

    def test_psnr_known_value(self):
        original = np.zeros((8, 8))
        noisy = original + 16.0  # MSE = 256 -> PSNR = 10*log10(255^2/256) ~ 24.05
        assert psnr(original, noisy) == pytest.approx(24.05, abs=0.01)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((8, 8)))

    def test_series_difference(self):
        diff = psnr_series_difference(np.array([30.0, 31.0]), np.array([32.0, 31.5]))
        assert list(diff) == pytest.approx([-2.0, -0.5])
        with pytest.raises(ValueError):
            psnr_series_difference(np.zeros(3), np.zeros(4))


class TestSettings:
    def test_ladder_is_ordered_most_to_least_demanding(self):
        assert PRESET_LADDER[0].motion_algorithm is MotionAlgorithm.EXHAUSTIVE
        assert PRESET_LADDER[0].reference_frames == 5
        assert PRESET_LADDER[-1].motion_algorithm is MotionAlgorithm.DIAMOND
        assert PRESET_LADDER[-1].reference_frames == 1

    def test_preset_clamps_out_of_range_levels(self):
        assert preset(-5) == PRESET_LADDER[0]
        assert preset(999) == PRESET_LADDER[-1]

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            EncoderSettings(search_range=0)
        with pytest.raises(ValueError):
            EncoderSettings(subpel_levels=3)
        with pytest.raises(ValueError):
            EncoderSettings(reference_frames=6)
        with pytest.raises(ValueError):
            EncoderSettings(qp=52)

    def test_with_qp_and_describe(self):
        settings = preset(0).with_qp(30)
        assert settings.qp == 30
        assert "exhaustive" in settings.describe()
