//! Minimal dense linear algebra for ridge-regression bandits.
//!
//! C2UCB needs exactly three operations (Algorithm 1): rank-one updates of
//! the scatter matrix `V`, solving `θ = V⁻¹ b`, and quadratic forms
//! `x' V⁻¹ x` for the confidence widths. We maintain `V⁻¹` directly via
//! Sherman–Morrison (O(d²) per update) and keep a Cholesky-based solver for
//! verification and for rebuilding the inverse after forgetting decays and
//! batched window updates. A rebuild is one factorisation plus d column
//! solves against that one factor, O(d³) in all.
//! Dimensions are modest (d = schema columns + derived features, a few
//! hundred at most), so dense storage is appropriate — no external linear
//! algebra crate is needed.

// Index-based loops mirror the matrix equations they implement.
#![allow(clippy::needless_range_loop)]

/// Dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    d: usize,
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(d: usize) -> Matrix {
        Matrix {
            d,
            data: vec![0.0; d * d],
        }
    }

    /// `λ·I`.
    pub fn scaled_identity(d: usize, lambda: f64) -> Matrix {
        let mut m = Matrix::zeros(d);
        for i in 0..d {
            m.data[i * d + i] = lambda;
        }
        m
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.d + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.d + j] = v;
    }

    /// `self += scale · x xᵀ`.
    pub fn rank_one_update(&mut self, x: &[f64], scale: f64) {
        assert_eq!(x.len(), self.d);
        for i in 0..self.d {
            let xi = x[i] * scale;
            if xi == 0.0 {
                continue;
            }
            let row = &mut self.data[i * self.d..(i + 1) * self.d];
            for (j, &xj) in x.iter().enumerate() {
                row[j] += xi * xj;
            }
        }
    }

    /// Matrix-vector product `self · x`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.mat_vec_into(x, &mut out);
        out
    }

    /// [`mat_vec`](Self::mat_vec) into a caller-owned buffer, so hot loops
    /// (Sherman–Morrison updates, per-arm scoring) reuse one allocation.
    /// Identical floating-point operation order to a fresh computation.
    pub fn mat_vec_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.d);
        out.clear();
        out.resize(self.d, 0.0);
        for i in 0..self.d {
            let row = &self.data[i * self.d..(i + 1) * self.d];
            out[i] = dot(row, x);
        }
    }

    /// Quadratic form `xᵀ · self · x`.
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        dot(&self.mat_vec(x), x)
    }

    /// Cholesky factorisation (`self = L Lᵀ`) for a symmetric positive
    /// definite matrix. Returns `None` if not positive definite.
    pub fn cholesky(&self) -> Option<Matrix> {
        let d = self.d;
        let mut l = Matrix::zeros(d);
        for i in 0..d {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Some(l)
    }

    /// Solve `self · y = b` via Cholesky (SPD matrices only).
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        let l = self.cholesky()?;
        let mut y = b[..self.d].to_vec();
        l.cholesky_solve_in_place(&mut y);
        Some(y)
    }

    /// Full inverse via Cholesky column solves (SPD matrices only): one
    /// factorisation, then a forward and a backward substitution per unit
    /// column `e_j`, O(d³) in all. Each column is exactly
    /// [`solve_spd`](Self::solve_spd)`(e_j)`, bit for bit.
    pub fn inverse_spd(&self) -> Option<Matrix> {
        let l = self.cholesky()?;
        let d = self.d;
        let mut inv = Matrix::zeros(d);
        let mut col = vec![0.0; d];
        for j in 0..d {
            col.fill(0.0);
            col[j] = 1.0;
            l.cholesky_solve_in_place(&mut col);
            for i in 0..d {
                inv.set(i, j, col[i]);
            }
        }
        Some(inv)
    }

    /// With `self` the Cholesky factor `L` of some `A = L Lᵀ`, overwrite
    /// `x` (holding `b`) with the solution of `A y = b`: forward `L z = b`,
    /// then backward `Lᵀ y = z`. Entry `i` of `x` is read as `bᵢ` (then
    /// `zᵢ`) just before it is overwritten, so solving in place performs
    /// the same float operations, in the same order, as separate `z` and
    /// `y` buffers would.
    fn cholesky_solve_in_place(&self, x: &mut [f64]) {
        let d = self.d;
        debug_assert_eq!(x.len(), d);
        // Forward: L z = b.
        for i in 0..d {
            let mut sum = x[i];
            for k in 0..i {
                sum -= self.get(i, k) * x[k];
            }
            x[i] = sum / self.get(i, i);
        }
        // Backward: Lᵀ y = z.
        for i in (0..d).rev() {
            let mut sum = x[i];
            for k in (i + 1)..d {
                sum -= self.get(k, i) * x[k];
            }
            x[i] = sum / self.get(i, i);
        }
    }

    /// `self · M`.
    pub fn mat_mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.d, other.d);
        let d = self.d;
        let mut out = Matrix::zeros(d);
        for i in 0..d {
            for k in 0..d {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..d {
                    out.data[i * d + j] += a * other.get(k, j);
                }
            }
        }
        out
    }

    /// Largest absolute entry difference to another matrix.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Exact re-inversion period of [`ShermanMorrisonInverse::new`]: `V⁻¹` is
/// rebuilt from `V` after this many incremental updates, which bounds the
/// numerical drift of the Sherman–Morrison updates.
const REFRESH_EVERY: usize = 512;

/// Maintains `V` and `V⁻¹` simultaneously under rank-one updates
/// (Sherman–Morrison) and uniform decay (forgetting), with periodic exact
/// re-inversion to bound numerical drift.
#[derive(Debug, Clone)]
pub struct ShermanMorrisonInverse {
    v: Matrix,
    v_inv: Matrix,
    updates_since_refresh: usize,
    /// Exactly re-invert after this many incremental updates.
    refresh_every: usize,
    /// Exact re-inversions performed (periodic, staged-batch and
    /// decay-triggered alike).
    refreshes: u64,
    /// Decay (forgetting) events applied.
    decays: u64,
    /// Reusable `V⁻¹x` buffer for [`add_observation`](Self::add_observation).
    scratch: Vec<f64>,
}

impl ShermanMorrisonInverse {
    pub fn new(d: usize, lambda: f64) -> Self {
        Self::with_refresh_every(d, lambda, REFRESH_EVERY)
    }

    /// Like [`new`](Self::new) with an explicit re-inversion period, for
    /// tests that need one short enough to observe.
    fn with_refresh_every(d: usize, lambda: f64, refresh_every: usize) -> Self {
        assert!(lambda > 0.0, "ridge parameter must be positive");
        assert!(refresh_every > 0, "refresh period must be positive");
        ShermanMorrisonInverse {
            v: Matrix::scaled_identity(d, lambda),
            v_inv: Matrix::scaled_identity(d, 1.0 / lambda),
            updates_since_refresh: 0,
            refresh_every,
            refreshes: 0,
            decays: 0,
            scratch: Vec::new(),
        }
    }

    /// `(exact re-inversions, decay events)` since construction.
    #[inline]
    pub fn counters(&self) -> (u64, u64) {
        (self.refreshes, self.decays)
    }

    #[inline]
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    #[inline]
    pub fn inv(&self) -> &Matrix {
        &self.v_inv
    }

    /// `V += x xᵀ`; `V⁻¹` updated by Sherman–Morrison:
    /// `V⁻¹ ← V⁻¹ − (V⁻¹ x)(V⁻¹ x)ᵀ / (1 + xᵀ V⁻¹ x)`.
    pub fn add_observation(&mut self, x: &[f64]) {
        self.v.rank_one_update(x, 1.0);
        // `V⁻¹x` lands in the reusable scratch buffer — same FP operation
        // order as an owned `mat_vec`, zero per-call allocation once warm.
        let mut vx = std::mem::take(&mut self.scratch);
        self.v_inv.mat_vec_into(x, &mut vx);
        let denom = 1.0 + dot(&vx, x);
        debug_assert!(denom > 0.0, "V must stay positive definite");
        self.v_inv.rank_one_update(&vx, -1.0 / denom);
        self.scratch = vx;
        self.updates_since_refresh += 1;
        if self.updates_since_refresh >= self.refresh_every {
            self.refresh();
        }
    }

    /// Stage `V += x xᵀ` (sparse, O(nnz²)) *without* touching `V⁻¹`. Used
    /// to batch a window's observations into one scatter update; callers
    /// must [`refresh`](Self::refresh) once the batch is complete, before
    /// the inverse is read again.
    pub fn stage_sparse_observation(&mut self, x: &SparseVec) {
        self.v.rank_one_update_sparse(x, 1.0);
        self.updates_since_refresh += 1;
    }

    /// Decay towards the prior: `V ← γ·V + (1−γ)·λ·I` (used by the tuner's
    /// forgetting on workload shifts). Requires exact re-inversion.
    pub fn decay(&mut self, gamma: f64, lambda: f64) {
        assert!((0.0..=1.0).contains(&gamma));
        let d = self.v.dim();
        for i in 0..d {
            for j in 0..d {
                let mut v = self.v.get(i, j) * gamma;
                if i == j {
                    v += (1.0 - gamma) * lambda;
                }
                self.v.set(i, j, v);
            }
        }
        self.decays += 1;
        self.refresh();
    }

    /// Exact re-inversion of the tracked `V`.
    pub fn refresh(&mut self) {
        self.v_inv = self
            .v
            .inverse_spd()
            .expect("V is positive definite by construction");
        self.updates_since_refresh = 0;
        self.refreshes += 1;
    }

    /// Confidence width squared: `xᵀ V⁻¹ x`.
    #[inline]
    pub fn width_sq(&self, x: &[f64]) -> f64 {
        self.v_inv.quad_form(x).max(0.0)
    }
}

/// Sparse vector: sorted `(dimension, value)` pairs. Arm contexts have only
/// a handful of non-zero entries (prefix-encoded key columns + 3 derived
/// features) while `d` spans every schema column, so sparse scoring turns
/// the per-arm UCB from O(d²) into O(nnz²).
pub type SparseVec = Vec<(usize, f64)>;

/// Densify a sparse vector.
pub fn to_dense(x: &SparseVec, d: usize) -> Vec<f64> {
    let mut out = vec![0.0; d];
    for &(i, v) in x {
        out[i] = v;
    }
    out
}

/// Sparse dot with a dense vector.
#[inline]
pub fn dot_sparse(dense: &[f64], x: &SparseVec) -> f64 {
    x.iter().map(|&(i, v)| dense[i] * v).sum()
}

impl Matrix {
    /// `self += scale · x xᵀ` touching only the O(nnz²) cells a sparse
    /// vector can reach.
    pub fn rank_one_update_sparse(&mut self, x: &SparseVec, scale: f64) {
        for &(i, vi) in x {
            debug_assert!(i < self.d);
            let si = vi * scale;
            for &(j, vj) in x {
                self.data[i * self.d + j] += si * vj;
            }
        }
    }

    /// Quadratic form with a sparse vector: `Σᵢⱼ xᵢ xⱼ M[i,j]`.
    pub fn quad_form_sparse(&self, x: &SparseVec) -> f64 {
        let mut acc = 0.0;
        for &(i, vi) in x {
            for &(j, vj) in x {
                acc += vi * vj * self.get(i, j);
            }
        }
        acc
    }
}

#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vec(rng: &mut StdRng, d: usize) -> Vec<f64> {
        (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn identity_solve_roundtrip() {
        let m = Matrix::scaled_identity(4, 2.0);
        let b = vec![2.0, 4.0, 6.0, 8.0];
        let y = m.solve_spd(&b).unwrap();
        for (got, want) in y.iter().zip([1.0, 2.0, 3.0, 4.0]) {
            assert!((got - want).abs() < 1e-12, "{y:?}");
        }
    }

    #[test]
    fn cholesky_detects_non_spd() {
        let mut m = Matrix::scaled_identity(2, 1.0);
        m.set(0, 0, -1.0);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = 8;
        let mut m = Matrix::scaled_identity(d, 0.5);
        for _ in 0..20 {
            let x = random_vec(&mut rng, d);
            m.rank_one_update(&x, 1.0);
        }
        let inv = m.inverse_spd().unwrap();
        let prod = m.mat_mul(&inv);
        let id = Matrix::scaled_identity(d, 1.0);
        assert!(prod.max_abs_diff(&id) < 1e-8, "M·M⁻¹ ≉ I");
    }

    /// `λI` plus `updates` seeded sparse rank-one updates of 2–6 distinct
    /// non-zeros each: the shape of the bandit's scatter matrix `V`.
    fn sparse_scatter(d: usize, lambda: f64, updates: usize, seed: u64) -> ShermanMorrisonInverse {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sm = ShermanMorrisonInverse::new(d, lambda);
        for _ in 0..updates {
            let nnz = rng.gen_range(2..=6);
            let mut x: SparseVec = (0..nnz)
                .map(|_| (rng.gen_range(0..d), rng.gen_range(0.01..1.0)))
                .collect();
            x.sort_unstable_by_key(|&(i, _)| i);
            x.dedup_by_key(|&mut (i, _)| i);
            sm.stage_sparse_observation(&x);
        }
        sm
    }

    /// The inverse is one factorisation plus a column solve per unit
    /// vector, and each column equals `solve_spd(e_j)` (a fresh
    /// factorisation per column) bit for bit.
    #[test]
    fn inverse_equals_per_column_solves_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pair = Matrix::scaled_identity(2, 3.0);
        pair.set(0, 1, 1.25);
        pair.set(1, 0, 1.25);
        let mut scatter = sparse_scatter(40, 1.0, 200, 6);
        let bandit_v = scatter.v().clone();
        scatter.decay(0.5, 1.0);
        let decayed_v = scatter.v().clone();
        // AᵀA + I as a sum of the rows' outer products: dense, d = 64.
        let mut dense = Matrix::scaled_identity(64, 1.0);
        for _ in 0..64 {
            let row = random_vec(&mut rng, 64);
            dense.rank_one_update(&row, 1.0);
        }
        let cases = [
            ("d = 1", Matrix::scaled_identity(1, 2.5)),
            ("d = 2", pair),
            ("bandit V, d = 40", bandit_v),
            ("bandit V after decay(0.5, 1.0)", decayed_v),
            ("dense AᵀA + I, d = 64", dense),
        ];
        for (name, m) in &cases {
            let d = m.dim();
            let inv = m.inverse_spd().expect("SPD by construction");
            let mut e = vec![0.0; d];
            for j in 0..d {
                e[j] = 1.0;
                let col = m.solve_spd(&e).unwrap();
                e[j] = 0.0;
                for i in 0..d {
                    assert_eq!(
                        inv.get(i, j).to_bits(),
                        col[i].to_bits(),
                        "{name}: entry ({i}, {j}) is {} against the column solve's {}",
                        inv.get(i, j),
                        col[i]
                    );
                }
            }
        }

        let mut indefinite = Matrix::scaled_identity(2, 1.0);
        indefinite.set(0, 1, 2.0);
        indefinite.set(1, 0, 2.0);
        assert!(indefinite.inverse_spd().is_none());
        assert!(indefinite.solve_spd(&[1.0, 0.0]).is_none());
    }

    #[test]
    fn sherman_morrison_tracks_exact_inverse() {
        let mut rng = StdRng::seed_from_u64(2);
        let d = 6;
        let mut sm = ShermanMorrisonInverse::new(d, 1.5);
        for _ in 0..50 {
            let x = random_vec(&mut rng, d);
            sm.add_observation(&x);
        }
        let exact = sm.v().inverse_spd().unwrap();
        assert!(sm.inv().max_abs_diff(&exact) < 1e-8);
    }

    #[test]
    fn width_shrinks_along_observed_direction() {
        let d = 4;
        let mut sm = ShermanMorrisonInverse::new(d, 1.0);
        let x = vec![1.0, 0.0, 0.0, 0.0];
        let before = sm.width_sq(&x);
        for _ in 0..10 {
            sm.add_observation(&x);
        }
        let after = sm.width_sq(&x);
        assert!(
            after < before / 5.0,
            "width should shrink: {before} → {after}"
        );
        // An orthogonal direction keeps its width.
        let y = vec![0.0, 1.0, 0.0, 0.0];
        assert!((sm.width_sq(&y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn decay_moves_v_towards_prior() {
        let d = 3;
        let mut sm = ShermanMorrisonInverse::new(d, 1.0);
        sm.add_observation(&[1.0, 2.0, 3.0]);
        sm.decay(0.0, 1.0); // full forgetting
        let prior = Matrix::scaled_identity(d, 1.0);
        assert!(sm.v().max_abs_diff(&prior) < 1e-12);
        assert!(sm.inv().max_abs_diff(&prior) < 1e-12);
    }

    #[test]
    fn partial_decay_keeps_positive_definiteness() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = 5;
        let mut sm = ShermanMorrisonInverse::new(d, 2.0);
        for _ in 0..30 {
            let x = random_vec(&mut rng, d);
            sm.add_observation(&x);
        }
        sm.decay(0.5, 2.0);
        assert!(sm.v().cholesky().is_some());
        // Inverse still consistent.
        let exact = sm.v().inverse_spd().unwrap();
        assert!(sm.inv().max_abs_diff(&exact) < 1e-8);
    }

    #[test]
    fn quad_form_matches_manual() {
        let mut m = Matrix::scaled_identity(2, 1.0);
        m.rank_one_update(&[1.0, 1.0], 1.0);
        // M = [[2,1],[1,2]]; x=[1,2] → xᵀMx = 2+2+2+8 = 14? compute:
        // Mx = [2·1+1·2, 1·1+2·2] = [4,5]; xᵀ(Mx)=4+10=14.
        assert!((m.quad_form(&[1.0, 2.0]) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn mat_vec_into_matches_owned_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = 7;
        let mut m = Matrix::scaled_identity(d, 0.3);
        for _ in 0..10 {
            let x = random_vec(&mut rng, d);
            m.rank_one_update(&x, 1.0);
        }
        let x = random_vec(&mut rng, d);
        let owned = m.mat_vec(&x);
        let mut buf = vec![99.0; 2]; // wrong size and stale contents
        m.mat_vec_into(&x, &mut buf);
        assert_eq!(owned, buf, "buffer reuse must not change a single bit");
    }

    #[test]
    fn sparse_rank_one_matches_dense() {
        let d = 6;
        let sparse: SparseVec = vec![(1, 0.5), (4, -2.0)];
        let dense = to_dense(&sparse, d);
        let mut a = Matrix::scaled_identity(d, 1.0);
        let mut b = a.clone();
        a.rank_one_update(&dense, 0.7);
        b.rank_one_update_sparse(&sparse, 0.7);
        assert_eq!(a, b);
    }

    #[test]
    fn staged_batch_plus_refresh_matches_sequential_v() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = 5;
        let mut seq = ShermanMorrisonInverse::new(d, 1.0);
        let mut batched = ShermanMorrisonInverse::new(d, 1.0);
        let xs: Vec<SparseVec> = (0..8)
            .map(|_| {
                // Distinct, sorted dimensions (SparseVec's invariant).
                vec![
                    (rng.gen_range(0..2), rng.gen_range(-1.0..1.0)),
                    (rng.gen_range(2..d), 1.0),
                ]
            })
            .collect();
        for x in &xs {
            seq.add_observation(&to_dense(x, d));
            batched.stage_sparse_observation(x);
        }
        batched.refresh();
        assert!(seq.v().max_abs_diff(batched.v()) < 1e-9);
        assert!(seq.inv().max_abs_diff(batched.inv()) < 1e-8);
    }

    #[test]
    fn refresh_and_decay_counters_tick() {
        let d = 3;
        let mut sm = ShermanMorrisonInverse::with_refresh_every(d, 1.0, 2);
        assert_eq!(sm.counters(), (0, 0));
        sm.add_observation(&[1.0, 0.0, 0.0]);
        assert_eq!(sm.counters(), (0, 0));
        sm.add_observation(&[0.0, 1.0, 0.0]);
        assert_eq!(sm.counters(), (1, 0), "periodic refresh at period 2");
        sm.decay(0.5, 1.0);
        assert_eq!(sm.counters(), (2, 1), "decay re-inverts and counts");
    }

    #[test]
    fn periodic_refresh_bounds_drift() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = 4;
        let mut sm = ShermanMorrisonInverse::with_refresh_every(d, 1.0, 16);
        for _ in 0..100 {
            let x = random_vec(&mut rng, d);
            sm.add_observation(&x);
        }
        let exact = sm.v().inverse_spd().unwrap();
        assert!(sm.inv().max_abs_diff(&exact) < 1e-9);
    }
}
