"""Alias-table sampler correctness: Vose invariant, GOF, degenerate input.

The BGHKPU engine's pair sampling rides entirely on :class:`AliasTable`
(O(1) draws from frozen weights) and :class:`ActivePairSampler` (the
epoch manager over the active ordered-pair cells).  These tests pin the
build invariant, the sampling distribution (chi-square goodness of fit
against the exact cell probabilities, and against direct multinomial
draws over the same weights), and the degenerate inputs that must fail
loudly instead of sampling garbage.
"""

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.engine import ActivePairSampler, AliasTable, alias_pick
from repro.engine.jump import pair_weights

SKEWED = np.array([5.0, 1.0, 0.1, 10.0, 3.0, 0.5, 2.0, 8.0])
GOF_ALPHA = 0.001


class TestAliasTableBuild:
    def test_vose_invariant_matches_weights(self):
        table = AliasTable(SKEWED)
        expected = SKEWED / SKEWED.sum()
        np.testing.assert_allclose(table.pvals(), expected, atol=1e-12)

    def test_vose_invariant_on_extreme_skew(self):
        w = np.array([1e-9, 1.0, 1e9, 1e-3, 42.0])
        table = AliasTable(w)
        np.testing.assert_allclose(table.pvals(), w / w.sum(), rtol=1e-9)

    def test_total_and_k_recorded(self):
        table = AliasTable(SKEWED)
        assert table.k == len(SKEWED)
        assert table.total == pytest.approx(float(SKEWED.sum()))

    def test_single_column(self):
        table = AliasTable([3.5])
        rng = np.random.default_rng(0)
        assert (table.sample(rng, 100) == 0).all()

    def test_zero_weight_never_sampled(self):
        w = np.array([1.0, 0.0, 2.0, 0.0, 4.0])
        table = AliasTable(w)
        draws = table.sample(np.random.default_rng(7), 20_000)
        assert not np.isin(draws, [1, 3]).any()


class TestAliasTableGOF:
    def test_chisquare_vs_exact_distribution(self):
        table = AliasTable(SKEWED)
        rng = np.random.default_rng(42)
        draws = table.sample(rng, 40_000)
        observed = np.bincount(draws, minlength=len(SKEWED))
        expected = 40_000 * SKEWED / SKEWED.sum()
        assert chisquare(observed, expected).pvalue > GOF_ALPHA

    def test_chisquare_vs_direct_multinomial(self):
        """Alias draws and one multinomial over the same weights agree.

        The sampler switches between the two representations per batch
        (alias path for sparse batches, multinomial for dense ones), so
        their histograms must be draws from the same law.
        """
        pvals = SKEWED / SKEWED.sum()
        table = AliasTable(SKEWED)
        m = 40_000
        alias_hist = np.bincount(
            table.sample(np.random.default_rng(1), m), minlength=len(SKEWED)
        )
        multi_hist = np.random.default_rng(2).multinomial(m, pvals)
        # two-sample chi-square on the pooled expectation
        pooled = (alias_hist + multi_hist) / 2.0
        stat_a = chisquare(alias_hist, pooled).pvalue
        stat_m = chisquare(multi_hist, pooled).pvalue
        assert stat_a > GOF_ALPHA and stat_m > GOF_ALPHA

    def test_alias_pick_function_matches_table(self):
        table = AliasTable(SKEWED)
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        direct = alias_pick(rng_a, table.prob, table.alias, 500)
        via_table = table.sample(rng_b, 500)
        np.testing.assert_array_equal(direct, via_table)


class TestAliasTableDegenerate:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            AliasTable([])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            AliasTable(np.ones((2, 2)))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AliasTable([1.0, -0.5])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN/Inf"):
            AliasTable([1.0, np.nan])

    def test_inf_rejected(self):
        with pytest.raises(ValueError, match="NaN/Inf"):
            AliasTable([np.inf, 1.0])

    def test_zero_sum_rejected_with_clear_message(self):
        with pytest.raises(ValueError, match="sum to zero"):
            AliasTable([0.0, 0.0, 0.0])


class TestActivePairSampler:
    """Epoch manager over a hand-built 3-state p_change matrix."""

    #: ordered-pair effectiveness: only (0,0), (0,1) and (2,2) can fire
    MATRIX = np.array(
        [
            [0.5, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.25],
        ]
    )

    def make(self, tol=0.05):
        return ActivePairSampler(self.MATRIX, tol)

    def test_tol_validated(self):
        with pytest.raises(ValueError, match="alias_rebuild_tol"):
            self.make(tol=-0.1)
        with pytest.raises(ValueError, match="alias_rebuild_tol"):
            self.make(tol=1.5)

    def test_rebuild_weights(self):
        s = self.make()
        full_c = np.array([10.0, 5.0, 0.0])
        s.rebuild(full_c)
        # active set omits the empty state; w = c_i (c_j - δ) p(i, j)
        np.testing.assert_array_equal(s.act, [0, 1])
        assert s.total == pytest.approx(10 * 9 * 0.5 + 10 * 5 * 1.0)
        assert s.active_cells == 2
        assert s.rebuilds == 1

    def test_sample_cells_distribution(self):
        s = self.make()
        s.rebuild(np.array([10.0, 5.0, 0.0]))
        rng = np.random.default_rng(3)
        totals = np.zeros(4)
        for _ in range(200):
            cells, counts = s.sample_cells(rng, 50)
            totals[cells] += counts
        expected = 200 * 50 * s.pvals
        assert chisquare(totals[expected > 0], expected[expected > 0]).pvalue > GOF_ALPHA

    def test_lone_cell_needs_no_rng(self):
        s = self.make()
        s.rebuild(np.array([0.0, 0.0, 7.0]))  # only (2,2) is live
        assert s.cells_nz is not None
        cells, counts = s.sample_cells(None, 13)  # rng unused on this path
        assert cells.tolist() == [0] and counts.tolist() == [13]

    def test_stale_tracks_drift_and_drain(self):
        s = self.make(tol=0.2)
        full_c = np.array([10.0, 5.0, 0.0])
        s.rebuild(full_c)
        assert not s.stale(full_c)
        assert not s.stale(np.array([9.0, 5.0, 0.0]))  # 10% < tol
        assert s.stale(np.array([7.0, 5.0, 0.0]))  # 30% > tol
        assert s.stale(np.array([0.0, 5.0, 0.0]))  # drained state
        s.refresh(np.array([7.0, 5.0, 0.0]))
        assert not s.stale(np.array([7.0, 5.0, 0.0]))
        assert s.refreshes == 1

    def test_refresh_matches_full_rebuild(self):
        s = self.make()
        s.rebuild(np.array([10.0, 5.0, 0.0]))
        drifted = np.array([6.0, 9.0, 0.0])
        s.refresh(drifted)
        fresh = self.make()
        fresh.rebuild(drifted)
        np.testing.assert_allclose(s.w, fresh.w)
        assert s.total == pytest.approx(fresh.total)
        assert s.gamma == pytest.approx(fresh.gamma)

    def test_zero_sum_weights_go_silent_not_crash(self):
        s = self.make()
        s.rebuild(np.array([0.0, 8.0, 0.0]))  # state 1 alone fires nothing
        assert s.total == 0.0
        assert s.pvals is None and s.active_cells == 0

    def test_collision_quantities(self):
        s = self.make()
        s.rebuild(np.array([0.0, 0.0, 8.0]))  # lone diagonal cell, μ = 2
        assert s.mu[0] == pytest.approx(2.0)
        assert s.gamma == pytest.approx(4.0 / (2.0 * 8.0))
        assert s.cap_events == pytest.approx(8.0 / 2.0)

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="top_k"):
            ActivePairSampler(self.MATRIX, 0.05, top_k=-1)
        with pytest.raises(ValueError, match="patch_frac"):
            ActivePairSampler(self.MATRIX, 0.05, patch_frac=1.5)

    def test_sticky_union_active_set(self):
        """Rebuilds union the support with the lineage's past states.

        A state that drains to zero keeps its (zero-weight) row, so
        boundary states oscillating around zero stop forcing the active
        set to churn; the zero-weight rows are never sampled.
        """
        s = self.make()
        s.rebuild(np.array([10.0, 5.0, 0.0]))
        np.testing.assert_array_equal(s.act, [0, 1])
        s.rebuild(np.array([10.0, 0.0, 4.0]))  # 1 drained, 2 appeared
        np.testing.assert_array_equal(s.act, [0, 1, 2])
        a = len(s.act)
        # every cell touching the drained state carries zero weight
        assert s.w[1, :].sum() == 0.0 and s.w[:, 1].sum() == 0.0
        cells, _ = s.sample_cells(np.random.default_rng(0), 5_000)
        assert not ((cells // a == 1) | (cells % a == 1)).any()


def _dense_matrix(q=12, seed=0):
    """A strictly positive random p_change matrix (every cell live)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.05, 1.0, size=(q, q))


def _lumped_chisquare(observed, expected, floor=5.0):
    """Chi-square GOF with the small-expectation cells pooled into one bin.

    The asymptotic chi-square law needs each bin's expectation above ~5;
    the light tail of a dense pair grid has many cells far below that, so
    they are lumped into a single rest bin (standard Cochran pooling).
    """
    big = expected >= floor
    obs, exp = observed[big], expected[big]
    rest = expected[~big].sum()
    if rest > 0.0:
        obs = np.append(obs, observed[~big].sum())
        exp = np.append(exp, rest)
    else:
        # zero-weight cells must never be drawn at all
        assert observed[~big].sum() == 0
    return chisquare(obs, exp)


def _dense_counts(q=12, seed=1, scale=1000.0):
    rng = np.random.default_rng(seed)
    return np.floor(rng.uniform(10.0, scale, size=q))


class TestHybridSampler:
    """The top-K heavy-cell split against the whole-grid distribution."""

    def make(self, top_k, tol=0.05, patch_frac=0.0):
        return ActivePairSampler(
            _dense_matrix(), tol,
            top_k=top_k, patch_frac=patch_frac,
        )

    def test_heavy_partition_selected(self):
        s = self.make(top_k=8)
        s.rebuild(_dense_counts())
        assert s.heavy_cells is not None and len(s.heavy_cells) == 8
        # the top-K cells really are the heaviest of the frozen grid
        flat = s.w.ravel()
        cutoff = np.sort(flat)[-8]
        assert (flat[s.heavy_cells] >= cutoff).all()
        assert s.heavy_mass == pytest.approx(flat[s.heavy_cells].sum())

    def test_hybrid_disengages_on_small_grids(self):
        s = self.make(top_k=512)  # 144 cells <= 2K: whole-grid path
        s.rebuild(_dense_counts())
        assert s.heavy_cells is None

    def test_hybrid_chisquare_vs_exact_distribution(self):
        """The split draw matches the frozen cell law (GOF, alpha 0.001).

        Multinomial aggregation makes the heavy/tail split exact for any
        fixed partition; this pins the implementation (grouped K+1-bin
        draw + searchsorted tail placement) to the whole-grid pvals.
        """
        s = self.make(top_k=8)
        full_c = _dense_counts()
        s.rebuild(full_c)
        rng = np.random.default_rng(11)
        totals = np.zeros(s.w.size)
        for _ in range(300):
            cells, counts = s.sample_cells(rng, 200)
            np.add.at(totals, cells, counts)
        assert (
            _lumped_chisquare(totals, 300 * 200 * s.pvals).pvalue > GOF_ALPHA
        )

    def test_tail_sees_weight_created_after_selection(self):
        """A cell silent at epoch start is sampleable after a refresh.

        The tail CDF is rebuilt from the *fresh* weight matrix at every
        refresh, so weight drifting into a formerly-zero cell reaches
        the draw immediately — no staleness window.
        """
        matrix = _dense_matrix()
        s = ActivePairSampler(matrix, 0.0, top_k=8)
        full_c = _dense_counts()
        dead = 3
        full_c[dead] = 0.0
        s.rebuild(full_c.copy())
        # union-grow the set so the dead state is tracked with zero count
        grown = full_c.copy()
        grown[dead] = 400.0
        s.rebuild(grown)
        s.rebuild(full_c)  # back to zero: still in the union, weight 0
        a = len(s.act)
        row = int(np.searchsorted(s.act, dead))
        assert s.w[row, :].sum() == 0.0  # silent at selection time
        s.refresh(grown)  # drifts the dead state to 400 within the epoch
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(50):
            cells, counts = s.sample_cells(rng, 500)
            hits += counts[(cells // a == row) | (cells % a == row)].sum()
        expected_frac = (
            s.w[row, :].sum() + s.w[:, row].sum() - s.w[row, row]
        ) / s.total
        assert hits > 0
        assert hits / (50 * 500) == pytest.approx(expected_frac, rel=0.25)


class TestPartialRefreshExactness:
    """refresh()/patch must be indistinguishable from a fresh rebuild."""

    def drifted_pairs(self, tol=0.05, patch_frac=1.0, top_k=8):
        """(incrementally refreshed, freshly rebuilt) sampler pair."""
        matrix = _dense_matrix()
        s = ActivePairSampler(
            matrix, tol,
            top_k=top_k, patch_frac=patch_frac,
        )
        full_c = _dense_counts()
        s.rebuild(full_c)
        rng = np.random.default_rng(42)
        # adversarial drift: interleave tiny single-state nudges (patch
        # path), wide multi-state kicks (scan path), drains to zero and
        # rebuild-tolerance boundary hits (count moved by exactly tol)
        for step in range(60):
            which = step % 4
            if which == 0:
                full_c[rng.integers(len(full_c))] += 1.0
            elif which == 1:
                kick = rng.integers(0, 3, size=len(full_c)).astype(float)
                full_c = np.maximum(full_c - kick, 1.0)
            elif which == 2:
                full_c[step % len(full_c)] = np.floor(
                    full_c[step % len(full_c)] * (1.0 + tol)
                )
            else:
                idx = rng.integers(len(full_c))
                full_c[idx] = 0.0 if full_c[idx] < 50.0 else full_c[idx]
            s.refresh(full_c)
        fresh = ActivePairSampler(
            matrix, tol,
            top_k=top_k, patch_frac=patch_frac,
        )
        fresh.act = s.act  # same (sticky) active set, fresh derivation
        fresh.psub = matrix[np.ix_(s.act, s.act)]
        fresh.ca = full_c[s.act].copy()
        fresh.w = pair_weights(fresh.ca, fresh.psub)
        fresh._select_heavy()
        fresh._finalize()
        return s, fresh

    def test_epoch_quantities_match_fresh_rebuild(self):
        s, fresh = self.drifted_pairs()
        assert s.patches > 0  # the patch path actually ran
        np.testing.assert_allclose(s.w, fresh.w, rtol=1e-12, atol=1e-9)
        assert s.total == pytest.approx(fresh.total, rel=1e-9)
        np.testing.assert_allclose(
            s.row_sums, fresh.row_sums, rtol=1e-9, atol=1e-6
        )
        np.testing.assert_allclose(
            s.col_sums, fresh.col_sums, rtol=1e-9, atol=1e-6
        )
        np.testing.assert_allclose(s.mu, fresh.mu, rtol=1e-8, atol=1e-12)
        assert s.gamma == pytest.approx(fresh.gamma, rel=1e-8)
        assert s.cap_events == pytest.approx(fresh.cap_events, rel=1e-8)

    def test_chisquare_vs_fresh_rebuild(self):
        """Draws from the patched epoch fit the fresh-rebuild law."""
        s, fresh = self.drifted_pairs()
        rng = np.random.default_rng(7)
        totals = np.zeros(s.w.size)
        for _ in range(300):
            cells, counts = s.sample_cells(rng, 200)
            np.add.at(totals, cells, counts)
        assert (
            _lumped_chisquare(totals, 300 * 200 * fresh.pvals).pvalue
            > GOF_ALPHA
        )

    def test_patch_vs_scan_arbitration_counts(self):
        s, _ = self.drifted_pairs(patch_frac=1.0)
        assert s.refreshes == 60
        assert 0 < s.patches <= s.refreshes


class TestScratchReuse:
    def test_no_buffer_regrowth_in_steady_state(self):
        """Steady-state epochs allocate nothing (perf satellite pin).

        After the first rebuild sizes the per-epoch buffers, any number
        of refreshes, rebuilds and draws at the same active-set size
        must leave ``scratch_allocs`` flat.
        """
        s = ActivePairSampler(
            _dense_matrix(), 0.0,
            top_k=8, patch_frac=0.5,
        )
        full_c = _dense_counts()
        rng = np.random.default_rng(3)
        s.rebuild(full_c)
        for _ in range(3):  # warm every lazy buffer (pvals, tail CDF)
            s.sample_cells(rng, 50)
            s.sample_cells(rng, 5_000)
        s.pvals
        warm = s.scratch_allocs
        for step in range(40):
            full_c[step % len(full_c)] += 1.0
            if step % 10 == 0:
                s.rebuild(full_c)
            else:
                s.refresh(full_c)
            s.sample_cells(rng, 50)
            s.sample_cells(rng, 5_000)
            s.pvals
        assert s.scratch_allocs == warm
