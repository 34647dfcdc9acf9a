"""Epoch sampler correctness: weights, refreshes, GOF, degenerate input.

The BGHKPU engine's event sampling rides entirely on
:class:`ActivePairSampler`, the epoch manager over the active
ordered-pair cells, which serves each batch as (pair, outcome) table
entries.  These tests pin the frozen weights and their refreshes
(bit-identical to a fresh rebuild), the per-entry sampling law of the
one draw shape — every live cell heavy, heavy cells plus a light tail,
and the empty-tail fold-back corner — by chi-square goodness of fit
against ``c_i (c_j - δ_ij) p_e / total``, and the degenerate inputs
that must go silent instead of sampling garbage.
"""

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.engine import ActivePairSampler, BGHKPUEngine
from repro.engine.jump import pair_weights
from repro.engine.table import TransitionTable

GOF_ALPHA = 0.001


def _closed_table(q, outcomes):
    """A closed table over states ``0..q-1`` from ``{(i, j): [(a, b, p)]}``.

    Pair ``(i, j)`` owns row ``i * q + j``; pairs not listed have no
    changing outcome.  ``p_row`` is each row's sequential ``out_p`` sum,
    as a compiled table stores it.
    """
    off, out_a, out_b, out_p, p_row = [0], [], [], [], []
    for i in range(q):
        for j in range(q):
            total = 0.0
            for a, b, p in outcomes.get((i, j), ()):
                out_a.append(a)
                out_b.append(b)
                out_p.append(p)
                total += p
            off.append(len(out_p))
            p_row.append(total)
    return TransitionTable(
        None,
        codes=np.arange(q, dtype=np.int64),
        p_change=np.array(p_row),
        off=np.array(off, dtype=np.int64),
        out_a=np.array(out_a, dtype=np.int64),
        out_b=np.array(out_b, dtype=np.int64),
        out_p=np.array(out_p),
    )


def _dense_table(q=12, seed=0):
    """Every pair live, with 1-, 2- and 3-outcome rows (p_row in [0.05, 1))."""
    rng = np.random.default_rng(seed)
    outcomes = {}
    for i in range(q):
        for j in range(q):
            width = 1 + (i + 2 * j) % 3
            split = rng.dirichlet(np.ones(width)) * rng.uniform(0.05, 1.0)
            outcomes[i, j] = [
                ((i + k + 1) % q, (j + 2 * k) % q, float(p))
                for k, p in enumerate(split)
            ]
    return _closed_table(q, outcomes)


def _dense_counts(q=12, seed=1, scale=1000.0):
    rng = np.random.default_rng(seed)
    return np.floor(rng.uniform(10.0, scale, size=q))


def _entry_law(table, full_c):
    """Exact per-entry event probabilities ``c_i (c_j - δ_ij) p_e / total``."""
    q = table.num_states
    law = np.zeros(len(table.out_p))
    for i in range(q):
        for j in range(q):
            pairs = full_c[i] * (full_c[j] - (i == j))
            row = i * q + j
            for e in range(table.off[row], table.off[row + 1]):
                law[e] = pairs * table.out_p[e]
    return law / law.sum()


def _lumped_chisquare(observed, expected, floor=5.0):
    """Chi-square GOF with the small-expectation bins pooled into one bin.

    The asymptotic chi-square law needs each bin's expectation above ~5;
    the light tail of a dense pair grid has many entries far below that,
    so they are lumped into a single rest bin (standard Cochran pooling).
    """
    big = expected >= floor
    obs, exp = observed[big], expected[big]
    rest = expected[~big].sum()
    if rest > 0.0:
        obs = np.append(obs, observed[~big].sum())
        exp = np.append(exp, rest)
    else:
        # zero-weight entries must never be drawn at all
        assert observed[~big].sum() == 0
    return chisquare(obs, exp)


def _entry_totals(s, rng, batches, fired):
    """Per-entry event totals over ``batches`` draws of ``fired`` events.

    Also checks that each drawn entry belongs to its reported cell.
    """
    ct, act = s.table, s.act
    a, q = len(act), ct.num_states
    totals = np.zeros(len(ct.out_p))
    for _ in range(batches):
        cells, entries, counts = s.sample_entries(rng, fired)
        assert counts.sum() == fired and (counts > 0).all()
        assert len(np.unique(entries)) == len(entries)
        rows = act[cells // a] * q + act[cells % a]
        assert ((ct.off[rows] <= entries) & (entries < ct.off[rows + 1])).all()
        np.add.at(totals, entries, counts)
    return totals


class TestActivePairSampler:
    """Epoch manager over a hand-built 3-state table."""

    #: only (0,0), (0,1) and (2,2) can fire; (2,2) has one outcome
    OUTCOMES = {
        (0, 0): [(0, 1, 0.2), (1, 1, 0.3)],
        (0, 1): [(1, 1, 1.0)],
        (2, 2): [(2, 0, 0.25)],
    }

    def make(self, tol=0.05):
        return ActivePairSampler(_closed_table(3, self.OUTCOMES), tol, 512)

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

    def test_sample_entries_distribution(self):
        s = self.make()
        full_c = np.array([10.0, 5.0, 0.0])
        s.rebuild(full_c)
        totals = _entry_totals(s, np.random.default_rng(3), 200, 50)
        expected = 200 * 50 * _entry_law(s.table, full_c)
        live = expected > 0
        assert totals[~live].sum() == 0
        assert chisquare(totals[live], expected[live]).pvalue > GOF_ALPHA

    def test_lone_cell_needs_no_rng(self):
        s = self.make()
        s.rebuild(np.array([0.0, 0.0, 7.0]))  # only (2,2) is live
        assert s.cells_nz is not None
        cells, entries, counts = s.sample_entries(None, 13)  # rng unused
        assert cells.tolist() == [0]
        assert entries.tolist() == [s.table.off[8]]
        assert counts.tolist() == [13]

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
        table = _dense_table()
        for moved in (1, 12):
            s = ActivePairSampler(table, 0.05, 512)
            full_c = _dense_counts()
            s.rebuild(full_c)
            drifted = full_c.copy()
            drifted[:moved] += 7.0
            s.refresh(drifted)
            fresh = ActivePairSampler(table, 0.05, 512)
            fresh.rebuild(drifted)
            np.testing.assert_array_equal(s.act, fresh.act)
            np.testing.assert_array_equal(s.w, fresh.w)
            assert s.total == fresh.total
            assert s.gamma == fresh.gamma

    def test_zero_sum_weights_go_silent_not_crash(self):
        s = self.make()
        s.rebuild(np.array([0.0, 8.0, 0.0]))  # state 1 alone fires nothing
        assert s.total == 0.0
        assert s.heavy_cells is None and s.active_cells == 0

    def test_collision_quantities(self):
        s = self.make()
        s.rebuild(np.array([0.0, 0.0, 8.0]))  # lone diagonal cell, μ = 2
        assert s.mu[0] == pytest.approx(2.0)
        assert s.gamma == pytest.approx(4.0 / (2.0 * 8.0))
        assert s.cap_events == pytest.approx(8.0 / 2.0)

    def test_knob_validation(self):
        table = _closed_table(3, self.OUTCOMES)
        for bad in (-1, 0):
            with pytest.raises(ValueError, match="top_k"):
                ActivePairSampler(table, 0.05, bad)

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
        cells, _, _ = s.sample_entries(np.random.default_rng(0), 5_000)
        assert not ((cells // a == 1) | (cells % a == 1)).any()


class TestWholeGridSampler:
    def test_sparse_batch_chisquare_vs_exact_distribution(self):
        """Batches far sparser than the grid fit the entry law.

        144 cells and 20 events per batch: with ``top_k`` above the live
        cell count every cell is heavy, so the whole grid's entries ride
        one grouped draw and most entries get no event in a batch.
        """
        s = ActivePairSampler(_dense_table(), 0.05, 512)
        full_c = _dense_counts()
        s.rebuild(full_c)
        assert len(s.heavy_cells) == s.active_cells == s.w.size
        rng = np.random.default_rng(13)
        totals = _entry_totals(s, rng, 3000, 20)
        expected = 3000 * 20 * _entry_law(s.table, full_c)
        assert _lumped_chisquare(totals, expected).pvalue > GOF_ALPHA


class TestHybridSampler:
    """The top-K heavy entries plus the light tail against the exact law."""

    def make(self, top_k, tol=0.05):
        return ActivePairSampler(_dense_table(), tol, top_k)

    def test_heavy_partition_selected(self):
        s = self.make(top_k=8)
        s.rebuild(_dense_counts())
        assert s.heavy_cells is not None and len(s.heavy_cells) == 8
        # the top-K cells really are the heaviest of the frozen grid
        flat = s.w.ravel()
        cutoff = np.sort(flat)[-8]
        assert (flat[s.heavy_cells] >= cutoff).all()
        assert s.heavy_mass == pytest.approx(flat[s.heavy_cells].sum())

    def test_small_grids_make_every_live_cell_heavy(self):
        s = self.make(top_k=512)  # 144 cells < K: one heavy set, no tail
        full_c = _dense_counts()
        full_c[0] = 0.0  # 23 cells go silent
        s.rebuild(full_c)
        flat = s.w.ravel()
        np.testing.assert_array_equal(
            np.sort(s.heavy_cells), np.flatnonzero(flat)
        )
        assert s.heavy_mass == pytest.approx(s.total)

    def test_hybrid_chisquare_vs_exact_distribution(self):
        """The split draw matches the per-entry law (GOF, alpha 0.001).

        Multinomial aggregation makes the heavy/tail split exact for any
        fixed partition; this pins the implementation (grouped draw over
        the heavy entries + searchsorted tail cell + in-row outcome
        uniform) to ``c_i (c_j - δ_ij) p_e / total``.
        """
        s = self.make(top_k=8)
        full_c = _dense_counts()
        s.rebuild(full_c)
        totals = _entry_totals(s, np.random.default_rng(11), 300, 200)
        expected = 300 * 200 * _entry_law(s.table, full_c)
        assert _lumped_chisquare(totals, expected).pvalue > GOF_ALPHA

    def test_tail_sees_weight_created_after_selection(self):
        """A cell silent at epoch start is sampleable after a refresh.

        The tail CDF is rebuilt from the *fresh* weight matrix at every
        refresh, so weight drifting into a formerly-zero cell reaches
        the draw immediately — no staleness window.
        """
        table = _dense_table()
        s = ActivePairSampler(table, 0.0, 8)
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
            cells, _, counts = s.sample_entries(rng, 500)
            hits += counts[(cells // a == row) | (cells % a == row)].sum()
        expected_frac = (
            s.w[row, :].sum() + s.w[:, row].sum() - s.w[row, row]
        ) / s.total
        assert hits > 0
        assert hits / (50 * 500) == pytest.approx(expected_frac, rel=0.25)


class TestEntryLaw:
    """Per-entry chi-square of the one draw shape in its three regimes.

    The table mixes 1-, 2- and 3-outcome rows; the sampler takes its
    heavy bound from ``BGHKPUEngine.DENSE_TOP_K`` as the engine does.
    """

    def sampler(self, full_c):
        top_k = BGHKPUEngine.DENSE_TOP_K
        s = ActivePairSampler(_dense_table(q=6), 0.05, top_k)
        s.rebuild(full_c)
        return s

    def check(self, s, full_c, seed, batches=400, fired=300):
        totals = _entry_totals(s, np.random.default_rng(seed), batches, fired)
        expected = batches * fired * _entry_law(s.table, full_c)
        assert _lumped_chisquare(totals, expected).pvalue > GOF_ALPHA

    def test_every_cell_heavy(self):
        full_c = _dense_counts(q=6)
        s = self.sampler(full_c)
        assert len(s.heavy_cells) == 36
        assert s.heavy_mass == pytest.approx(s.total)
        self.check(s, full_c, seed=21)

    def test_heavy_cells_plus_tail(self, monkeypatch):
        monkeypatch.setattr(BGHKPUEngine, "DENSE_TOP_K", 4)
        full_c = _dense_counts(q=6)
        s = self.sampler(full_c)
        assert len(s.heavy_cells) == 4
        assert s.total - s.heavy_mass > 0.1 * s.total  # a real tail
        self.check(s, full_c, seed=22)

    def test_empty_tail_folds_back(self):
        """Positive pooled tail mass over an empty tail CDF (a float
        corner) folds the tail events back onto the heavy entries."""
        full_c = _dense_counts(q=6)
        s = self.sampler(full_c)
        s.heavy_mass = 0.5 * s.total  # half the events hit the tail bin
        assert s._tail_cdf()[1] == 0.0  # every live cell is heavy
        self.check(s, full_c, seed=23)


class TestPartialRefreshExactness:
    """refresh() must be indistinguishable from a fresh rebuild."""

    def drifted_pairs(self, tol=0.05, top_k=8):
        """(repeatedly refreshed, freshly rebuilt) sampler pair."""
        table = _dense_table()
        s = ActivePairSampler(table, tol, top_k)
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
        fresh = ActivePairSampler(table, tol, top_k)
        fresh.act = s.act  # same (sticky) active set, fresh derivation
        fresh.psub = table.p_change_matrix[np.ix_(s.act, s.act)]
        fresh.ca = full_c[s.act].copy()
        fresh.w = pair_weights(fresh.ca, fresh.psub)
        fresh._finalize()
        return s, fresh, full_c

    def test_epoch_quantities_match_fresh_rebuild(self):
        s, fresh, _ = self.drifted_pairs()
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
        s, fresh, full_c = self.drifted_pairs()
        totals = _entry_totals(s, np.random.default_rng(7), 300, 200)
        expected = 300 * 200 * _entry_law(fresh.table, full_c)
        assert _lumped_chisquare(totals, expected).pvalue > GOF_ALPHA


class TestScratchReuse:
    def test_no_buffer_regrowth_in_steady_state(self):
        """Steady-state epochs allocate nothing (perf satellite pin).

        After the first rebuild sizes the per-epoch buffers, any number
        of refreshes, rebuilds and draws at the same active-set size
        must leave ``scratch_allocs`` flat.
        """
        s = ActivePairSampler(_dense_table(), 0.0, 8)
        full_c = _dense_counts()
        rng = np.random.default_rng(3)
        s.rebuild(full_c)
        for _ in range(3):  # warm every lazy buffer (entry bins, tail CDF)
            s.sample_entries(rng, 50)
            s.sample_entries(rng, 5_000)
        warm = s.scratch_allocs
        for step in range(40):
            full_c[step % len(full_c)] += 1.0
            if step % 10 == 0:
                s.rebuild(full_c)
            else:
                s.refresh(full_c)
            s.sample_entries(rng, 50)
            s.sample_entries(rng, 5_000)
        assert s.scratch_allocs == warm
