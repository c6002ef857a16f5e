//! Covariance: triangular `(i, j)` with `j ≥ i`, plus a tiled variant.

use crate::data::Matrix;
use crate::mode::{execute_mode, Mode};
use crate::reductions::{outer_sum, reduce_sum, seq_sum};
use crate::registry::{Kernel, KernelInfo};
use crate::shared::SyncSlice;
use nrl_core::{Collapsed, Recovery, Schedule, ThreadPool};
use nrl_polyhedra::{BoundNest, NestSpec, Space};
use std::time::Duration;

/// Polybench-style covariance: column means are precomputed in `new`
/// (they are a cheap rectangular pass), and the non-rectangular hot nest
/// is `for i in 0..M { for j in i..M }` computing
/// `cov[i][j] = Σ_k (d[k][i]−µ_i)(d[k][j]−µ_j)/(M−1)` and mirroring.
pub struct Covariance {
    m: usize,
    cov: Matrix,
    data: Matrix,
    mean: Vec<f64>,
    bound: BoundNest,
    collapsed: Collapsed,
}

fn covariance_nest() -> NestSpec {
    let s = Space::new(&["i", "j"], &["M"]);
    NestSpec::new(
        s.clone(),
        vec![(s.cst(0), s.var("M") - 1), (s.var("i"), s.var("M") - 1)],
    )
    .expect("covariance nest is well-formed")
}

impl Covariance {
    /// Builds the kernel with an `M × M` sample matrix.
    pub fn new(m: usize) -> Self {
        let data = Matrix::random(m, m, 0xDA7A);
        let mean: Vec<f64> = (0..m)
            .map(|j| (0..m).map(|k| data.at(k, j)).sum::<f64>() / m as f64)
            .collect();
        let nest = covariance_nest();
        let (bound, collapsed) = super::build_collapse(&nest, &[m as i64]);
        Covariance {
            m,
            cov: Matrix::zeros(m, m),
            data,
            mean,
            bound,
            collapsed,
        }
    }
}

impl Covariance {
    /// Per-point contribution to `Σ cov`: pair `(i, j)` with `i ≤ j`
    /// writes the covariance into `(i, j)` and `(j, i)` — one cell on
    /// the diagonal, two off it.
    pub(crate) fn point_value(&self) -> impl Fn(&[i64]) -> f64 + Sync + '_ {
        let (data, mean, m) = (&self.data, self.mean.as_slice(), self.m);
        let denom = (m as f64 - 1.0).max(1.0);
        move |p: &[i64]| {
            let (i, j) = (p[0] as usize, p[1] as usize);
            let mut acc = 0.0f64;
            for k in 0..m {
                acc += (data.at(k, i) - mean[i]) * (data.at(k, j) - mean[j]);
            }
            acc /= denom;
            if i == j {
                acc
            } else {
                2.0 * acc
            }
        }
    }

    /// `Σ cov` computed directly as a deterministic parallel
    /// reduction (see [`crate::reductions`]).
    pub fn update_aggregate(
        &self,
        pool: &ThreadPool,
        schedule: Schedule,
        recovery: Recovery,
    ) -> f64 {
        reduce_sum(
            &self.collapsed,
            pool,
            schedule,
            recovery,
            self.point_value(),
        )
    }

    /// The hand-rolled outer-parallel baseline for the same aggregate.
    pub fn update_aggregate_outer(&self, pool: &ThreadPool, schedule: Schedule) -> f64 {
        outer_sum(pool, &self.bound, schedule, self.point_value())
    }

    /// The sequential rank-order reference fold.
    pub fn update_aggregate_seq(&self) -> f64 {
        seq_sum(&self.bound, self.point_value())
    }
}

impl Kernel for Covariance {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "covariance",
            shape: "triangular".into(),
            size: format!("M={}", self.m),
            total_iterations: self.collapsed.total() as u128,
            collapsed_loops: 2,
        }
    }

    fn reset(&mut self) {
        self.cov.clear();
    }

    fn execute(&mut self, mode: &Mode) -> Duration {
        let m = self.m;
        let cols = self.cov.cols();
        let out = SyncSlice::new(self.cov.as_mut_slice());
        let (data, mean) = (&self.data, self.mean.as_slice());
        let denom = (m as f64 - 1.0).max(1.0);
        execute_mode(&self.bound, &self.collapsed, mode, |_t, p| {
            let (i, j) = (p[0] as usize, p[1] as usize);
            let mut acc = 0.0f64;
            for k in 0..m {
                acc += (data.at(k, i) - mean[i]) * (data.at(k, j) - mean[j]);
            }
            acc /= denom;
            // SAFETY: pair (i, j) with i ≤ j owns cells (i, j) and (j, i)
            // — when i == j they coincide and the second write is a
            // benign same-thread overwrite of the first.
            unsafe {
                out.write(i * cols + j, acc);
                out.write(j * cols + i, acc);
            }
        })
    }

    fn checksum(&self) -> f64 {
        self.cov.checksum()
    }

    fn collapsed(&self) -> &Collapsed {
        &self.collapsed
    }

    fn bound_nest(&self) -> &BoundNest {
        &self.bound
    }
}

/// Covariance with a tiled triangular tile space (Pluto-style), like
/// [`CorrelationTiled`](crate::kernels::CorrelationTiled).
pub struct CovarianceTiled {
    m: usize,
    ts: usize,
    nt: usize,
    cov: Matrix,
    data: Matrix,
    mean: Vec<f64>,
    bound: BoundNest,
    collapsed: Collapsed,
}

impl CovarianceTiled {
    /// Builds the kernel with tile size `ts`.
    pub fn new(m: usize, ts: usize) -> Self {
        assert!(ts >= 1, "tile size must be positive");
        let nt = m.div_ceil(ts).max(1);
        let s = Space::new(&["it", "jt"], &["NT"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![(s.cst(0), s.var("NT") - 1), (s.var("it"), s.var("NT") - 1)],
        )
        .expect("tile nest is well-formed");
        let data = Matrix::random(m, m, 0xDA7A);
        let mean: Vec<f64> = (0..m)
            .map(|j| (0..m).map(|k| data.at(k, j)).sum::<f64>() / m as f64)
            .collect();
        let (bound, collapsed) = super::build_collapse(&nest, &[nt as i64]);
        CovarianceTiled {
            m,
            ts,
            nt,
            cov: Matrix::zeros(m, m),
            data,
            mean,
            bound,
            collapsed,
        }
    }
}

impl Kernel for CovarianceTiled {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "covariance_tiled",
            shape: "triangular tile space".into(),
            size: format!(
                "M={} ts={} ({}×{} tiles)",
                self.m, self.ts, self.nt, self.nt
            ),
            total_iterations: self.collapsed.total() as u128,
            collapsed_loops: 2,
        }
    }

    fn reset(&mut self) {
        self.cov.clear();
    }

    fn execute(&mut self, mode: &Mode) -> Duration {
        let (m, ts) = (self.m, self.ts);
        let cols = self.cov.cols();
        let out = SyncSlice::new(self.cov.as_mut_slice());
        let (data, mean) = (&self.data, self.mean.as_slice());
        let denom = (m as f64 - 1.0).max(1.0);
        execute_mode(&self.bound, &self.collapsed, mode, |_t, p| {
            let (it, jt) = (p[0] as usize, p[1] as usize);
            let i_end = ((it + 1) * ts).min(m);
            for i in it * ts..i_end {
                let j_start = (jt * ts).max(i);
                let j_end = ((jt + 1) * ts).min(m);
                for j in j_start..j_end {
                    let mut acc = 0.0f64;
                    for k in 0..m {
                        acc += (data.at(k, i) - mean[i]) * (data.at(k, j) - mean[j]);
                    }
                    acc /= denom;
                    // SAFETY: tiles partition the triangle; see `Covariance`.
                    unsafe {
                        out.write(i * cols + j, acc);
                        out.write(j * cols + i, acc);
                    }
                }
            }
        })
    }

    fn checksum(&self) -> f64 {
        self.cov.checksum()
    }

    fn collapsed(&self) -> &Collapsed {
        &self.collapsed
    }

    fn bound_nest(&self) -> &BoundNest {
        &self.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrl_core::{Recovery, Schedule, ThreadPool};

    #[test]
    fn collapsed_matches_sequential() {
        let pool = ThreadPool::new(4);
        let mut k = Covariance::new(30);
        k.execute(&Mode::Seq);
        let reference = k.checksum();
        k.reset();
        k.execute(&Mode::Collapsed {
            pool: &pool,
            schedule: Schedule::StaticChunk(4),
            recovery: Recovery::OncePerChunk,
        });
        assert_eq!(k.checksum(), reference);
    }

    #[test]
    fn mid_row_chunks_match_sequential_at_every_grain() {
        // Grains misaligned with the row lengths so chunks straddle row
        // carries on the upper-triangular nest.
        let pool = ThreadPool::new(3);
        let mut k = Covariance::new(27);
        k.execute(&Mode::Seq);
        let reference = k.checksum();
        for grain in [1u64, 3, 4, 8, 17] {
            k.reset();
            k.execute(&Mode::Collapsed {
                pool: &pool,
                schedule: Schedule::StaticChunk(grain),
                recovery: Recovery::OncePerChunk,
            });
            assert_eq!(k.checksum(), reference, "grain={grain}");
        }
    }

    #[test]
    fn tiled_matches_untiled() {
        let pool = ThreadPool::new(2);
        let mut plain = Covariance::new(33);
        plain.execute(&Mode::Seq);
        let expect = plain.checksum();
        let mut tiled = CovarianceTiled::new(33, 8);
        tiled.execute(&Mode::Collapsed {
            pool: &pool,
            schedule: Schedule::Static,
            recovery: Recovery::OncePerChunk,
        });
        assert_eq!(tiled.checksum(), expect);
    }

    #[test]
    fn diagonal_is_variance() {
        let k = {
            let mut k = Covariance::new(25);
            k.execute(&Mode::Seq);
            k
        };
        // Diagonal entries are variances: non-negative.
        for i in 0..25 {
            assert!(k.cov.at(i, i) >= 0.0, "variance at {i}");
        }
    }
}
