//! The cost-model-driven strategy autotuner: predict, search, and
//! persist the cheapest execution strategy per (shape, params, machine).
//!
//! Every chunked executor recovers one anchor per schedule chunk and
//! then walks rows (§V); what remains to choose is the engine that
//! recovers the anchor. This module picks it from a cost model in the
//! `Impl`-style spirit of modular cost-model synthesis systems:
//!
//! 1. [`ShapeProfile::measure`] samples a bound [`Collapsed`] loop —
//!    per-level widths, degrees, engines, row statistics — in a few
//!    dozen unranks;
//! 2. every [`StrategyNode`] predicts its recovery overhead via
//!    [`compute_main_cost`](StrategyNode::compute_main_cost) from the
//!    profile and the machine's measured [`EngineCalibration`]
//!    constants (the bind-time microprobe, extended to absolute
//!    picosecond costs);
//! 3. [`search`] walks the two candidates and returns the cheaper one
//!    as a [`TunedStrategy`] — which [`ParamPlan`](crate::ParamPlan)
//!    persists per `(context, params)` slot so plan-cache hits skip the
//!    whole procedure, and [`Runner::auto`](crate::Runner::auto)
//!    applies.
//!
//! Cost formulas model **recovery overhead only** (anchor solves,
//! probe sweeps, chunk handshakes, row steps) — the loop body is the
//! same work under every strategy, so it cancels out of the comparison.
//! Both nodes pay the same row walk, so they differ only in the anchor
//! engine; where the two tie, the fixed candidate order makes
//! [`Strategy::DEFAULT`] win. See `docs/AUTOTUNER.md` for the formula
//! derivations and the model's stated limits.

use crate::collapsed::Collapsed;
use crate::exec::Recovery;
use crate::unrank::{EngineCalibration, LevelEngine};
use nrl_parfor::Schedule;

/// Ranks sampled when profiling a shape: enough to see the row-length
/// spread of a triangular nest, few enough that profiling stays a
/// sub-microsecond affair.
const PROFILE_SAMPLES: usize = 9;

/// Measured execution-relevant statistics of one bound collapsed loop:
/// everything the [`StrategyNode`] cost formulas consume. Obtained by
/// [`ShapeProfile::measure`] from a handful of evenly-spread unranks
/// (the per-level widths are *not* stored in [`Collapsed`], so the
/// profile reconstructs them by sampling).
#[derive(Clone, Debug, PartialEq)]
pub struct ShapeProfile {
    /// Nest depth.
    pub depth: usize,
    /// Total flattened iterations.
    pub total: i128,
    /// Mean observed search width per level (≥ 1 entries are clamped).
    pub level_width: Vec<f64>,
    /// Univariate degree of each level's compiled ladder.
    pub level_degree: Vec<usize>,
    /// Bind-time engine of each level.
    pub level_engine: Vec<LevelEngine>,
    /// Bind-time i64-overflow proof of each level.
    pub level_i64_safe: Vec<bool>,
    /// Estimated number of innermost rows (`total / avg_row_len`).
    pub rows: f64,
    /// Mean innermost-row length over the samples.
    pub avg_row_len: f64,
    /// Shortest sampled innermost row.
    pub min_row_len: f64,
    /// Longest sampled innermost row.
    pub max_row_len: f64,
}

impl ShapeProfile {
    /// Samples `collapsed` at `PROFILE_SAMPLES` (9) evenly-spread ranks:
    /// each sample is one `unrank_into` plus a bounds evaluation per
    /// level. Deterministic (the sample ranks depend only on `total`),
    /// so equal shapes at equal parameters always profile equally —
    /// the property the `autotune_stress` winner-stability bin pins.
    pub fn measure(collapsed: &Collapsed) -> ShapeProfile {
        let depth = collapsed.depth();
        let total = collapsed.total();
        let mut profile = ShapeProfile {
            depth,
            total,
            level_width: vec![1.0; depth],
            level_degree: (0..depth).map(|k| collapsed.level_degree(k)).collect(),
            level_engine: (0..depth).map(|k| collapsed.level_engine(k)).collect(),
            level_i64_safe: (0..depth).map(|k| collapsed.level_i64_proven(k)).collect(),
            rows: 1.0,
            avg_row_len: 1.0,
            min_row_len: 1.0,
            max_row_len: 1.0,
        };
        if depth == 0 || total < 1 {
            return profile;
        }
        let samples = PROFILE_SAMPLES.min(total as usize).max(1);
        let mut point = vec![0i64; depth];
        let mut width_sum = vec![0.0f64; depth];
        let (mut min_row, mut max_row) = (f64::INFINITY, 0.0f64);
        for s in 0..samples {
            let pc = if samples == 1 {
                1
            } else {
                1 + (total - 1) * s as i128 / (samples as i128 - 1)
            };
            collapsed.unrank_into(pc, &mut point);
            for (k, sum) in width_sum.iter_mut().enumerate() {
                let lb = collapsed.nest().lower(k, &point);
                let ub = collapsed.nest().upper(k, &point);
                let w = ((ub - lb + 1).max(1)) as f64;
                *sum += w;
                if k == depth - 1 {
                    min_row = min_row.min(w);
                    max_row = max_row.max(w);
                }
            }
        }
        for (width, sum) in profile.level_width.iter_mut().zip(&width_sum) {
            *width = (sum / samples as f64).max(1.0);
        }
        profile.avg_row_len = profile.level_width[depth - 1];
        profile.min_row_len = min_row;
        profile.max_row_len = max_row;
        profile.rows = (total as f64 / profile.avg_row_len).max(1.0);
        profile
    }

    /// `⌈log₂(width + 1)⌉` — probes a binary search pays to pin one
    /// value in a `width`-wide range (matches the engine crossover).
    fn probes(width: f64) -> f64 {
        let w = width.max(1.0) as u64;
        (64 - w.leading_zeros() as u64) as f64
    }

    /// Predicted picoseconds of one **full anchor recovery** (all
    /// levels), including the per-level prefix specialization fold.
    /// Each level runs its bind-time engine unless `forced` pins every
    /// closed-form-capable level to one engine (the
    /// `Recovery::BinarySearch` / `::ClosedForm` ablation axes).
    fn anchor_ps(&self, cal: &EngineCalibration, forced: Option<LevelEngine>) -> f64 {
        let mut ps = 0.0;
        for k in 0..self.depth {
            let deg = self.level_degree[k];
            // Prefix specialization: one fold pass over the ladder.
            ps += cal.probe_ps(deg) as f64;
            if deg <= 1 {
                ps += cal.probe_ps(1) as f64;
                continue;
            }
            let engine = forced.unwrap_or(self.level_engine[k]);
            match engine {
                LevelEngine::ClosedForm if cal.solve_ps(deg) > 0 => {
                    ps += cal.solve_ps(deg) as f64;
                }
                _ => {
                    let probe_cost = if self.level_i64_safe[k] { 1.0 } else { 3.0 };
                    ps += Self::probes(self.level_width[k]) * cal.probe_ps(deg) as f64 * probe_cost;
                }
            }
        }
        ps
    }

    /// Per-row walking cost of the segmented executors: one row-end
    /// rank evaluation plus the odometer carry.
    fn row_step_ps(&self, cal: &EngineCalibration) -> f64 {
        let deg_inner = self.level_degree.last().copied().unwrap_or(1);
        2.0 * cal.probe_ps(deg_inner) as f64
    }
}

/// One node of the strategy IR: an execution scheme whose recovery
/// overhead [`compute_main_cost`](Self::compute_main_cost) predicts
/// from a [`ShapeProfile`] and the machine's [`EngineCalibration`].
/// Every node is executable through [`Runner`](crate::Runner) with
/// nothing but a [`Strategy`] (`schedule` + `recovery`); together they
/// form the [`search`] space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StrategyNode {
    /// §V: one anchor recovery per chunk, odometer row walking after.
    OncePerChunk,
    /// Once-per-chunk anchors with every level forced onto the
    /// monotone binary search (the pure-integer ablation engine).
    BinarySearch,
}

impl StrategyNode {
    /// Predicts this node's end-to-end **overhead** in picoseconds for
    /// one full run of the profiled loop on `threads` workers under
    /// static chunking: anchor recovery, chunk handshakes and row
    /// steps. Deterministic in its inputs; the [`search`] winner is the
    /// argmin over the nodes.
    pub fn compute_main_cost(
        &self,
        profile: &ShapeProfile,
        cal: &EngineCalibration,
        threads: usize,
    ) -> u128 {
        let chunks = threads.max(1) as f64; // Schedule::Static: one block per thread
        let forced = match self {
            StrategyNode::OncePerChunk => None,
            StrategyNode::BinarySearch => Some(LevelEngine::BinarySearch),
        };
        let anchor = profile.anchor_ps(cal, forced);
        let ps =
            chunks * (anchor + cal.chunk_ps() as f64) + profile.rows * profile.row_step_ps(cal);
        ps.max(0.0) as u128
    }

    /// The `Runner` configuration equivalent of this node.
    pub fn as_strategy(&self) -> Strategy {
        let recovery = match self {
            StrategyNode::OncePerChunk => Recovery::OncePerChunk,
            StrategyNode::BinarySearch => Recovery::BinarySearch,
        };
        Strategy {
            schedule: Schedule::Static,
            recovery,
        }
    }
}

/// An executable strategy: exactly the two [`Runner`](crate::Runner)
/// axes a request can leave unpinned. The autotuner's unit of
/// persistence and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Strategy {
    /// Chunk schedule.
    pub schedule: Schedule,
    /// Index-recovery scheme.
    pub recovery: Recovery,
}

impl Strategy {
    /// The untuned default ([`Schedule::Static`] +
    /// [`Recovery::OncePerChunk`] — the same pair `Runner` starts
    /// from).
    pub const DEFAULT: Strategy = Strategy {
        schedule: Schedule::Static,
        recovery: Recovery::OncePerChunk,
    };

    /// A compact human-readable tag (`static/once_per_chunk` style) for
    /// metrics reports and bench labels.
    pub fn label(&self) -> String {
        let schedule = match self.schedule {
            Schedule::Static => "static".to_string(),
            Schedule::StaticChunk(c) => format!("static{c}"),
            Schedule::Dynamic(c) => format!("dynamic{c}"),
            Schedule::Guided(m) => format!("guided{m}"),
        };
        let recovery = match self.recovery {
            Recovery::Naive => "naive".to_string(),
            Recovery::OncePerChunk => "once_per_chunk".to_string(),
            Recovery::BinarySearch => "binary_search".to_string(),
            Recovery::ClosedForm => "closed_form".to_string(),
            Recovery::Reference => "reference".to_string(),
        };
        format!("{schedule}/{recovery}")
    }
}

/// A search winner: the strategy plus the cost the model predicted for
/// it (nanoseconds of recovery overhead per full run) — persisted in
/// the plan's per-context slot and surfaced in `RunReply`/metrics so
/// predictions can be checked against measured time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TunedStrategy {
    /// The winning executable strategy.
    pub strategy: Strategy,
    /// The model's predicted overhead for one full run, nanoseconds.
    pub predicted_ns: u64,
}

/// The candidate set the search walks, in the fixed deterministic
/// order ties resolve by ([`Strategy::DEFAULT`]'s node first).
pub fn candidates() -> [StrategyNode; 2] {
    [StrategyNode::OncePerChunk, StrategyNode::BinarySearch]
}

/// Picks the cheapest strategy for the profiled shape on this
/// calibration and thread count: an exhaustive argmin over
/// [`candidates`] (deterministic by fixed iteration order with
/// strict-less replacement).
pub fn search(profile: &ShapeProfile, cal: &EngineCalibration, threads: usize) -> TunedStrategy {
    if profile.depth == 0 || profile.total <= 1 {
        return TunedStrategy {
            strategy: Strategy::DEFAULT,
            predicted_ns: 0,
        };
    }
    let mut best: Option<(u128, Strategy)> = None;
    for node in candidates() {
        let cost = node.compute_main_cost(profile, cal, threads);
        let strategy = node.as_strategy();
        if best.map(|(c, _)| cost < c).unwrap_or(true) {
            best = Some((cost, strategy));
        }
    }
    let (cost_ps, strategy) = best.expect("candidate set is never empty");
    TunedStrategy {
        strategy,
        predicted_ns: (cost_ps / 1000).min(u64::MAX as u128) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapsed::CollapseSpec;
    use nrl_polyhedra::NestSpec;

    fn correlation_profile(n: i64) -> ShapeProfile {
        let collapsed = CollapseSpec::new(&NestSpec::correlation())
            .unwrap()
            .bind(&[n])
            .unwrap();
        ShapeProfile::measure(&collapsed)
    }

    #[test]
    fn profile_measures_triangular_shape() {
        let p = correlation_profile(800);
        assert_eq!(p.depth, 2);
        assert_eq!(p.total, 799 * 800 / 2);
        assert_eq!(p.level_degree, vec![2, 1]);
        // Rows of the triangle run from 799 down to 1; the evenly
        // spread samples must see both ends and average near N/2.
        assert!(p.max_row_len > 700.0, "{p:?}");
        assert!(p.min_row_len < 100.0, "{p:?}");
        assert!(
            p.avg_row_len > 200.0 && p.avg_row_len < 600.0,
            "{}",
            p.avg_row_len
        );
        // rows × avg_row_len ≈ total by construction.
        assert!((p.rows * p.avg_row_len - p.total as f64).abs() < 1.0);
    }

    #[test]
    fn profile_is_deterministic() {
        assert_eq!(correlation_profile(500), correlation_profile(500));
    }

    #[test]
    fn cost_model_orders_the_known_extremes() {
        // Per-point recovery is orders of magnitude above either
        // once-per-chunk engine, which pay the same row walk and differ
        // only in the handful of anchors.
        let p = correlation_profile(800);
        let cal = EngineCalibration::STATIC;
        let naive_like = p.total as u128 * p.anchor_ps(&cal, None) as u128;
        let opc = StrategyNode::OncePerChunk.compute_main_cost(&p, &cal, 4);
        let bs = StrategyNode::BinarySearch.compute_main_cost(&p, &cal, 4);
        assert!(
            naive_like > 100 * opc.max(bs),
            "per-point recovery {naive_like} must dwarf once-per-chunk {opc} / {bs}"
        );
        assert!(
            opc.abs_diff(bs) < opc / 10,
            "anchor engines differ by a few anchors: {opc} vs {bs}"
        );
    }

    #[test]
    fn search_is_deterministic_and_executable() {
        let p = correlation_profile(800);
        let cal = EngineCalibration::STATIC;
        let a = search(&p, &cal, 4);
        let b = search(&p, &cal, 4);
        assert_eq!(a, b);
        // The winner must be one of the candidates.
        assert!(candidates().iter().any(|n| n.as_strategy() == a.strategy));
    }

    #[test]
    fn short_row_shapes_pick_the_default() {
        // A nest with tiny rows (inner extent 2): the row-walking term
        // dominates, both candidates pay it equally, and every level is
        // linear so the anchors tie too — the tie-break must land on
        // the default.
        let collapsed = CollapseSpec::new(&NestSpec::rectangular(&[100_000, 2]))
            .unwrap()
            .bind(&[])
            .unwrap();
        let p = ShapeProfile::measure(&collapsed);
        let cal = EngineCalibration::STATIC;
        let opc = StrategyNode::OncePerChunk.compute_main_cost(&p, &cal, 4);
        let bs = StrategyNode::BinarySearch.compute_main_cost(&p, &cal, 4);
        assert_eq!(opc, bs);
        assert_eq!(search(&p, &cal, 4).strategy, Strategy::DEFAULT);
    }

    #[test]
    fn degenerate_domains_fall_back_to_the_default() {
        let collapsed = CollapseSpec::new(&NestSpec::rectangular(&[1]))
            .unwrap()
            .bind(&[])
            .unwrap();
        let p = ShapeProfile::measure(&collapsed);
        let tuned = search(&p, &EngineCalibration::STATIC, 4);
        assert_eq!(tuned.strategy, Strategy::DEFAULT);
        assert_eq!(tuned.predicted_ns, 0);
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(Strategy::DEFAULT.label(), "static/once_per_chunk");
        let s = Strategy {
            schedule: Schedule::Dynamic(32),
            recovery: Recovery::BinarySearch,
        };
        assert_eq!(s.label(), "dynamic32/binary_search");
    }
}
