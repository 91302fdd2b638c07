//! The C2UCB algorithm (Qin, Chen & Zhu, SDM 2014; Algorithm 1 in the
//! paper, with the regret analysis corrected by Oetomo et al. 2019).
//!
//! Arms' expected scores are modelled as linear in their contexts:
//! `r_t(i) = θ'x_t(i) + ε`. All learned knowledge lives in the shared
//! estimate of `θ` (ridge regression over played arms), which is what lets
//! the bandit score *never-played* arms — the property §V-B3 credits for
//! MAB's efficient exploration.

use serde::{Deserialize, Serialize};

use crate::linalg::{dot, ShermanMorrisonInverse};

/// C2UCB hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct C2UcbConfig {
    /// Ridge regularisation λ (V₀ = λI). Becomes irrelevant as rounds
    /// accumulate (§V-C).
    pub lambda: f64,
    /// Exploration boost α: Algorithm 1 takes `α_1..α_T` as input, and
    /// the paper's practical choice is one fixed α "which controls
    /// exploration".
    pub alpha: f64,
}

impl Default for C2UcbConfig {
    fn default() -> Self {
        C2UcbConfig {
            lambda: 1.0,
            // With rewards normalised to ~1 per useful query, a boost of a
            // few units lets structurally different configurations (which
            // compete for the same memory budget) get sampled; the tuner's
            // creation-amortisation penalty provides the churn damping, so
            // exploration pressure can stay constant (the width term itself
            // decays as observations accumulate, which is what "reduces
            // exploration with time", §V-B1).
            alpha: 2.5,
        }
    }
}

/// The bandit state: `V_t`, `b_t`, round counter.
#[derive(Debug, Clone)]
pub struct C2Ucb {
    config: C2UcbConfig,
    dim: usize,
    scatter: ShermanMorrisonInverse,
    b: Vec<f64>,
    round: usize,
}

impl C2Ucb {
    pub fn new(dim: usize, config: C2UcbConfig) -> Self {
        C2Ucb {
            config,
            dim,
            scatter: ShermanMorrisonInverse::new(dim, config.lambda),
            b: vec![0.0; dim],
            round: 0,
        }
    }

    /// `(exact re-inversions, decay events)` of the scatter inverse —
    /// surfaced per round in session records.
    #[inline]
    pub fn maintenance_counters(&self) -> (u64, u64) {
        self.scatter.counters()
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Current ridge estimate `θ̂ = V⁻¹ b` (Algorithm 1 line 5).
    pub fn theta(&self) -> Vec<f64> {
        self.scatter.inv().mat_vec(&self.b)
    }

    /// Expected score of one context under the current model (no boost).
    pub fn mean_score(&self, x: &[f64]) -> f64 {
        dot(&self.theta(), x)
    }

    /// Exploration width (the boost term without α) for one context.
    pub fn width(&self, x: &[f64]) -> f64 {
        self.scatter.width_sq(x).sqrt()
    }

    /// UCB scores for a batch of sparse contexts (Eq. 1):
    /// `r̂_t(i) = θ̂'x_t(i) + α_t √(x_t(i)' V⁻¹ x_t(i))`, O(nnz²) per arm
    /// instead of O(d²).
    pub fn ucb_scores_sparse(&self, contexts: &[crate::linalg::SparseVec]) -> Vec<f64> {
        let theta = self.theta();
        let alpha = self.config.alpha;
        contexts
            .iter()
            .map(|x| {
                let mean = crate::linalg::dot_sparse(&theta, x);
                let width_sq = self.scatter.inv().quad_form_sparse(x).max(0.0);
                mean + alpha * width_sq.sqrt()
            })
            .collect()
    }

    /// Sparse update: densifies each context for the Sherman–Morrison
    /// update (plays per round are few, so this is cheap).
    pub fn update_sparse(&mut self, plays: &[(crate::linalg::SparseVec, f64)]) {
        let dense: Vec<(Vec<f64>, f64)> = plays
            .iter()
            .map(|(x, r)| (crate::linalg::to_dense(x, self.dim), *r))
            .collect();
        self.update(&dense);
    }

    /// Batched sparse update: the window's observations are staged into
    /// `V` as O(nnz²) sparse scatter additions and the inverse is rebuilt
    /// *once*, instead of one dense densify + mat-vec + rank-one per play.
    /// The rebuild is one Cholesky factorisation of `V` plus d column
    /// solves against it, O(d³); the `micro` bench
    /// `c2ucb_update_batched_10_arms_d40` times a window at TPC-H's width.
    /// `b` accumulates over non-zero entries only. Same model as
    /// [`Self::update_sparse`] up to floating-point accumulation order
    /// (the batch path's inverse is the *exact* one); the round advances
    /// identically.
    pub fn update_sparse_batched(&mut self, plays: &[(crate::linalg::SparseVec, f64)]) {
        if !plays.is_empty() {
            for (x, r) in plays {
                self.scatter.stage_sparse_observation(x);
                for &(i, v) in x {
                    debug_assert!(i < self.dim);
                    self.b[i] += r * v;
                }
            }
            self.scatter.refresh();
        }
        self.round += 1;
    }

    /// Register the played arms' observed rewards (Algorithm 1 lines
    /// 11-13): `V += Σ x x'`, `b += Σ r·x`, and advance the round.
    pub fn update(&mut self, plays: &[(Vec<f64>, f64)]) {
        for (x, r) in plays {
            debug_assert_eq!(x.len(), self.dim);
            self.scatter.add_observation(x);
            for (bi, xi) in self.b.iter_mut().zip(x) {
                *bi += r * xi;
            }
        }
        self.round += 1;
    }

    /// Forget a fraction of accumulated knowledge: `V ← γV + (1−γ)λI`,
    /// `b ← γb`. Used on workload shifts; `gamma = 1` is a no-op,
    /// `gamma = 0` resets to the prior.
    pub fn forget(&mut self, gamma: f64) {
        assert!((0.0..=1.0).contains(&gamma));
        if gamma >= 1.0 {
            return;
        }
        self.scatter.decay(gamma, self.config.lambda);
        for bi in &mut self.b {
            *bi *= gamma;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config(alpha: f64) -> C2UcbConfig {
        C2UcbConfig { lambda: 1.0, alpha }
    }

    #[test]
    fn learns_a_linear_reward_model() {
        // True θ = (2, -1, 0.5); rewards are exactly linear.
        let theta_true = [2.0, -1.0, 0.5];
        let mut bandit = C2Ucb::new(3, config(0.5));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1500 {
            let x: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            let r = dot(&theta_true, &x);
            bandit.update(&[(x, r)]);
        }
        let theta = bandit.theta();
        for (est, truth) in theta.iter().zip(&theta_true) {
            assert!(
                (est - truth).abs() < 0.05,
                "θ̂ {theta:?} should approach {theta_true:?}"
            );
        }
    }

    #[test]
    fn ucb_prefers_unexplored_direction_at_equal_means() {
        let mut bandit = C2Ucb::new(2, config(1.0));
        // Observe only dimension 0.
        for _ in 0..50 {
            bandit.update(&[(vec![1.0, 0.0], 1.0)]);
        }
        let scores = bandit.ucb_scores_sparse(&[vec![(0, 1.0)], vec![(1, 1.0)]]);
        // Mean of dim0 arm is ~1.0, dim1 arm is 0. But the boost for dim1
        // is maximal (1.0) while dim0's has collapsed.
        let width0 = bandit.width(&[1.0, 0.0]);
        let width1 = bandit.width(&[0.0, 1.0]);
        assert!(width1 > width0 * 5.0);
        assert!(
            scores[0] > scores[1],
            "exploitation should still dominate here"
        );
    }

    #[test]
    fn exploration_boost_decreases_with_observations() {
        let mut bandit = C2Ucb::new(2, config(1.0));
        let x = vec![0.7, 0.3];
        let w_before = bandit.width(&x);
        for _ in 0..20 {
            bandit.update(&[(x.clone(), 0.5)]);
        }
        let w_after = bandit.width(&x);
        assert!(w_after < w_before / 3.0);
    }

    #[test]
    fn generalises_to_unseen_arms() {
        // Train on two contexts, score a third never-played one: the shared
        // θ makes its mean sensible (weight sharing, §V-B3).
        let mut bandit = C2Ucb::new(2, config(0.0));
        for _ in 0..100 {
            bandit.update(&[(vec![1.0, 0.0], 2.0), (vec![0.0, 1.0], -1.0)]);
        }
        let unseen = vec![0.5, 0.5];
        let mean = bandit.mean_score(&unseen);
        assert!(
            (mean - 0.5).abs() < 0.1,
            "0.5·2 + 0.5·(-1) = 0.5, got {mean}"
        );
    }

    #[test]
    fn forget_resets_towards_prior() {
        let mut bandit = C2Ucb::new(2, config(1.0));
        for _ in 0..50 {
            bandit.update(&[(vec![1.0, 0.0], 3.0)]);
        }
        assert!(bandit.mean_score(&[1.0, 0.0]) > 2.0);
        bandit.forget(0.0);
        assert!(bandit.mean_score(&[1.0, 0.0]).abs() < 1e-9);
        // Width restored to the prior level.
        assert!((bandit.width(&[1.0, 0.0]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn partial_forget_retains_some_signal() {
        let mut bandit = C2Ucb::new(2, config(1.0));
        for _ in 0..50 {
            bandit.update(&[(vec![1.0, 0.0], 3.0)]);
        }
        let before = bandit.mean_score(&[1.0, 0.0]);
        bandit.forget(0.5);
        let after = bandit.mean_score(&[1.0, 0.0]);
        assert!(after > 0.5 * before && after < before);
    }

    #[test]
    fn round_counter_advances_per_update_batch() {
        let mut bandit = C2Ucb::new(2, config(1.0));
        assert_eq!(bandit.round(), 0);
        bandit.update(&[(vec![1.0, 0.0], 1.0), (vec![0.0, 1.0], 1.0)]);
        assert_eq!(bandit.round(), 1, "one round per super-arm update");
    }

    #[test]
    fn batched_update_tracks_sequential_model() {
        let plays: Vec<(crate::linalg::SparseVec, f64)> = vec![
            (vec![(0, 1.0), (2, 0.5)], 2.0),
            (vec![(1, 0.8), (3, -0.3)], -0.5),
            (vec![(0, 0.4)], 1.0),
        ];
        let mut seq = C2Ucb::new(4, config(1.0));
        let mut batched = C2Ucb::new(4, config(1.0));
        for _ in 0..5 {
            seq.update_sparse(&plays);
            batched.update_sparse_batched(&plays);
        }
        assert_eq!(seq.round(), batched.round());
        let contexts: Vec<crate::linalg::SparseVec> =
            vec![vec![(0, 1.0)], vec![(1, 1.0), (3, 0.5)], vec![(2, 1.0)]];
        let a = seq.ucb_scores_sparse(&contexts);
        let b = batched.ucb_scores_sparse(&contexts);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "batched diverged: {a:?} vs {b:?}");
        }
        let (refreshes, _) = batched.maintenance_counters();
        assert_eq!(refreshes, 5, "one exact re-inversion per batched window");
    }

    #[test]
    fn deterministic_scoring() {
        let mk = || {
            let mut b = C2Ucb::new(3, config(1.0));
            b.update(&[(vec![1.0, 0.5, 0.2], 2.0)]);
            b.ucb_scores_sparse(&[vec![(0, 0.3), (1, 0.3), (2, 0.3)], vec![(0, 1.0)]])
        };
        assert_eq!(mk(), mk(), "C2UCB is deterministic (§V-C volatility)");
    }
}
