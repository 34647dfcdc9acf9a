"""Epoch sampler correctness: weights, refreshes, GOF, degenerate input.

The BGHKPU engine's pair sampling rides entirely on
:class:`ActivePairSampler`, the epoch manager over the active
ordered-pair cells.  These tests pin the frozen weights and their
refreshes (bit-identical to a fresh rebuild), the sampling distribution
of each draw shape (chi-square goodness of fit against the exact cell
probabilities), and the degenerate inputs that must go silent instead of
sampling garbage.
"""

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.engine import ActivePairSampler
from repro.engine.jump import pair_weights

GOF_ALPHA = 0.001


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
        """A refresh is bit-identical to a fresh rebuild, for narrow drift
        (one of 12 states moved, under a quarter) and wide drift (all)."""
        matrix = _dense_matrix()
        for moved in (1, 12):
            s = ActivePairSampler(matrix, 0.05)
            full_c = _dense_counts()
            s.rebuild(full_c)
            drifted = full_c.copy()
            drifted[:moved] += 7.0
            s.refresh(drifted)
            fresh = ActivePairSampler(matrix, 0.05)
            fresh.rebuild(drifted)
            np.testing.assert_array_equal(s.act, fresh.act)
            np.testing.assert_array_equal(s.w, fresh.w)
            assert s.total == fresh.total
            assert s.gamma == fresh.gamma

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


class TestWholeGridSampler:
    def test_sparse_batch_chisquare_vs_exact_distribution(self):
        """Batches far sparser than a non-hybrid grid fit the cell law.

        144 cells and 20 events per batch: most cells get no event in a
        batch, and such batches take the same whole-grid multinomial as
        dense ones.
        """
        s = ActivePairSampler(_dense_matrix(), 0.05)
        s.rebuild(_dense_counts())
        assert s.heavy_cells is None and s.cells_nz is None
        assert 20 * 4 < s.w.size
        rng = np.random.default_rng(13)
        totals = np.zeros(s.w.size)
        for _ in range(3000):
            cells, counts = s.sample_cells(rng, 20)
            np.add.at(totals, cells, counts)
        assert (
            _lumped_chisquare(totals, 3000 * 20 * s.pvals).pvalue > GOF_ALPHA
        )


class TestHybridSampler:
    """The top-K heavy-cell split against the whole-grid distribution."""

    def make(self, top_k, tol=0.05):
        return ActivePairSampler(_dense_matrix(), tol, top_k=top_k)

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
    """refresh() must be indistinguishable from a fresh rebuild."""

    def drifted_pairs(self, tol=0.05, top_k=8):
        """(repeatedly refreshed, freshly rebuilt) sampler pair."""
        matrix = _dense_matrix()
        s = ActivePairSampler(matrix, tol, top_k=top_k)
        full_c = _dense_counts()
        s.rebuild(full_c)
        rng = np.random.default_rng(42)
        # adversarial drift: interleave tiny single-state nudges, wide
        # multi-state kicks, drains to zero and rebuild-tolerance
        # boundary hits (count moved by exactly tol)
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
        fresh = ActivePairSampler(matrix, tol, top_k=top_k)
        fresh.act = s.act  # same (sticky) active set, fresh derivation
        fresh.psub = matrix[np.ix_(s.act, s.act)]
        fresh.ca = full_c[s.act].copy()
        fresh.w = pair_weights(fresh.ca, fresh.psub)
        fresh._select_heavy()
        fresh._finalize()
        return s, fresh

    def test_epoch_quantities_match_fresh_rebuild(self):
        s, fresh = self.drifted_pairs()
        assert s.refreshes == 60
        np.testing.assert_array_equal(s.w, fresh.w)
        assert s.total == fresh.total
        np.testing.assert_array_equal(s.row_sums, fresh.row_sums)
        np.testing.assert_array_equal(s.col_sums, fresh.col_sums)
        np.testing.assert_array_equal(s.mu, fresh.mu)
        assert s.gamma == fresh.gamma
        assert s.cap_events == fresh.cap_events

    def test_chisquare_vs_fresh_rebuild(self):
        """Draws from the refreshed epoch fit the fresh-rebuild law."""
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


class TestScratchReuse:
    def test_no_buffer_regrowth_in_steady_state(self):
        """Steady-state epochs allocate nothing (perf satellite pin).

        After the first rebuild sizes the per-epoch buffers, any number
        of refreshes, rebuilds and draws at the same active-set size
        must leave ``scratch_allocs`` flat.
        """
        s = ActivePairSampler(_dense_matrix(), 0.0, top_k=8)
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
