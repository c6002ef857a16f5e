//! `syr2k`: symmetric rank-2k update, lower triangle — triangular with a
//! doubled constant-length reduction.

use crate::data::Matrix;
use crate::mode::{execute_mode, Mode};
use crate::registry::{Kernel, KernelInfo};
use crate::shared::SyncSlice;
use nrl_core::Collapsed;
use nrl_polyhedra::{BoundNest, NestSpec, Space};
use std::time::Duration;

const ALPHA: f64 = 0.9;
const BETA: f64 = 1.05;

/// `C[i][j] = β·C₀[i][j] + α·Σ_k (A[i][k]·B[j][k] + B[i][k]·A[j][k])`
/// for `j ≤ i`.
pub struct Syr2k {
    n: usize,
    c: Matrix,
    c0: Matrix,
    a: Matrix,
    b: Matrix,
    bound: BoundNest,
    collapsed: Collapsed,
}

impl Syr2k {
    /// Builds the kernel with `N = n`.
    pub fn new(n: usize) -> Self {
        let s = Space::new(&["i", "j"], &["N"]);
        let nest = NestSpec::new(
            s.clone(),
            vec![(s.cst(0), s.var("N") - 1), (s.cst(0), s.var("i"))],
        )
        .expect("syr2k nest is well-formed");
        let (bound, collapsed) = super::build_collapse(&nest, &[n as i64]);
        Syr2k {
            n,
            c: Matrix::zeros(n, n),
            c0: Matrix::random(n, n, 0x2B),
            a: Matrix::random(n, n, 0x2C),
            b: Matrix::random(n, n, 0x2D),
            bound,
            collapsed,
        }
    }
}

impl Kernel for Syr2k {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "syr2k",
            shape: "triangular".into(),
            size: format!("N={}", self.n),
            total_iterations: self.collapsed.total() as u128,
            collapsed_loops: 2,
        }
    }

    fn reset(&mut self) {
        self.c.clear();
    }

    fn execute(&mut self, mode: &Mode) -> Duration {
        let n = self.n;
        let cols = self.c.cols();
        let out = SyncSlice::new(self.c.as_mut_slice());
        let (a, b, c0) = (&self.a, &self.b, &self.c0);
        execute_mode(&self.bound, &self.collapsed, mode, |_t, p| {
            let (i, j) = (p[0] as usize, p[1] as usize);
            let (ai, aj) = (a.row(i), a.row(j));
            let (bi, bj) = (b.row(i), b.row(j));
            let mut acc = 0.0f64;
            for k in 0..n {
                acc += ai[k] * bj[k] + bi[k] * aj[k];
            }
            // SAFETY: (i, j) with j ≤ i owns exactly cell (i, j).
            unsafe { out.write(i * cols + j, BETA * c0.at(i, j) + ALPHA * acc) };
        })
    }

    fn checksum(&self) -> f64 {
        self.c.checksum()
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
        let mut k = Syr2k::new(30);
        k.execute(&Mode::Seq);
        let reference = k.checksum();
        k.reset();
        k.execute(&Mode::Collapsed {
            pool: &pool,
            schedule: Schedule::StaticChunk(16),
            recovery: Recovery::OncePerChunk,
        });
        assert_eq!(k.checksum(), reference);
    }

    #[test]
    fn mid_row_chunks_match_sequential_at_every_grain() {
        // Chunk anchors mid-row on a shipped kernel: every grain
        // (including non-power-of-two and wider-than-row), plus the
        // warp executor whose lanes anchor at interleaved ranks.
        let pool = ThreadPool::new(3);
        let mut k = Syr2k::new(25);
        k.execute(&Mode::Seq);
        let reference = k.checksum();
        for grain in [1u64, 3, 4, 8, 17] {
            k.reset();
            k.execute(&Mode::Collapsed {
                pool: &pool,
                schedule: Schedule::Dynamic(grain),
                recovery: Recovery::OncePerChunk,
            });
            assert_eq!(k.checksum(), reference, "grain={grain}");
        }
        k.reset();
        k.execute(&Mode::Warp {
            pool: &pool,
            warp: 64,
        });
        assert_eq!(k.checksum(), reference, "warp");
    }

    #[test]
    fn rank2_update_is_symmetric_in_a_and_b() {
        // Swapping A and B leaves the result unchanged (the formula is
        // symmetric) — a semantic sanity check of the implementation.
        let mut k1 = Syr2k::new(12);
        k1.execute(&Mode::Seq);
        let mut k2 = Syr2k::new(12);
        std::mem::swap(&mut k2.a, &mut k2.b);
        k2.execute(&Mode::Seq);
        for i in 0..12 {
            for j in 0..=i {
                assert!((k1.c.at(i, j) - k2.c.at(i, j)).abs() < 1e-12);
            }
        }
    }
}
