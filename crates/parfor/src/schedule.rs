//! OpenMP-style loop schedules and their chunk generators.

use std::fmt;
use std::str::FromStr;

/// An OpenMP-style schedule for distributing the iterations `0..n` of a
/// (collapsed or outer) parallel loop across `t` threads.
///
/// The chunking only matters when there is more than one thread: on a
/// one-thread pool [`ThreadPool::parallel_for`](crate::ThreadPool::parallel_for)
/// runs every schedule as the single `Static` block (see
/// [`effective`](Schedule::effective)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// `schedule(static)`: split into `t` near-equal contiguous blocks,
    /// one per thread. Remainder iterations go to the lowest-id threads
    /// (libgomp behaviour).
    Static,
    /// `schedule(static, chunk)`: fixed-size chunks assigned round-robin
    /// (thread `k` gets chunks `k, k+t, k+2t, …`).
    StaticChunk(u64),
    /// `schedule(dynamic, chunk)`: chunks handed to whichever thread asks
    /// first (an atomic fetch-add at run time).
    Dynamic(u64),
    /// `schedule(guided, min)`: the next idle thread takes
    /// `max(remaining / t, min)` iterations.
    Guided(u64),
}

impl Schedule {
    /// The contiguous block `[start, end)` of thread `tid` under
    /// `Static` with `n` iterations and `nthreads` threads.
    pub fn static_block(n: u64, nthreads: usize, tid: usize) -> (u64, u64) {
        let t = nthreads as u64;
        let base = n / t;
        let rem = n % t;
        let tid = tid as u64;
        let start = tid * base + tid.min(rem);
        let len = base + u64::from(tid < rem);
        (start, start + len)
    }

    /// The sequence of round-robin chunks of thread `tid` under
    /// `StaticChunk(chunk)`: returns an iterator of `[start, end)` pairs.
    pub fn static_chunks(
        n: u64,
        nthreads: usize,
        tid: usize,
        chunk: u64,
    ) -> impl Iterator<Item = (u64, u64)> {
        let chunk = chunk.max(1);
        let stride = chunk * nthreads as u64;
        let first = tid as u64 * chunk;
        (0..)
            .map(move |k| first + k * stride)
            .take_while(move |&s| s < n)
            .map(move |s| (s, (s + chunk).min(n)))
    }

    /// The schedule [`ThreadPool::parallel_for`](crate::ThreadPool::parallel_for)
    /// runs for this one on a pool of `nthreads` threads: itself, except
    /// that a one-thread pool has nothing to balance and runs every
    /// schedule as the single `Static` block.
    pub fn effective(self, nthreads: usize) -> Schedule {
        if nthreads == 1 {
            Schedule::Static
        } else {
            self
        }
    }

    /// Human-readable label matching OpenMP clause syntax.
    pub fn label(&self) -> String {
        match self {
            Schedule::Static => "static".into(),
            Schedule::StaticChunk(c) => format!("static,{c}"),
            Schedule::Dynamic(c) => format!("dynamic,{c}"),
            Schedule::Guided(m) => format!("guided,{m}"),
        }
    }
}

/// Error from parsing an OpenMP-style schedule string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError(String);

impl fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid schedule {:?}: expected KIND[,CHUNK] with kind static|dynamic|guided",
            self.0
        )
    }
}

impl std::error::Error for ParseScheduleError {}

impl FromStr for Schedule {
    type Err = ParseScheduleError;

    /// Parses OpenMP `OMP_SCHEDULE` syntax: `kind[,chunk]` with kind
    /// `static`, `dynamic` or `guided` (case-insensitive, spaces
    /// tolerated). `static` without a chunk is block scheduling;
    /// `dynamic`/`guided` default their chunk/min to 1, as OpenMP does.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseScheduleError(s.to_string());
        let mut parts = s.split(',');
        let kind = parts.next().ok_or_else(err)?.trim().to_ascii_lowercase();
        let chunk = match parts.next() {
            Some(c) => Some(c.trim().parse::<u64>().map_err(|_| err())?),
            None => None,
        };
        if parts.next().is_some() {
            return Err(err());
        }
        if chunk == Some(0) {
            return Err(err());
        }
        match (kind.as_str(), chunk) {
            ("static", None) => Ok(Schedule::Static),
            ("static", Some(c)) => Ok(Schedule::StaticChunk(c)),
            ("dynamic", c) => Ok(Schedule::Dynamic(c.unwrap_or(1))),
            ("guided", c) => Ok(Schedule::Guided(c.unwrap_or(1))),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_blocks_partition_exactly() {
        for n in [0u64, 1, 7, 100, 101, 12345] {
            for t in [1usize, 2, 3, 5, 12] {
                let mut covered = 0u64;
                let mut prev_end = 0u64;
                for tid in 0..t {
                    let (s, e) = Schedule::static_block(n, t, tid);
                    assert!(s <= e);
                    assert_eq!(s, prev_end, "blocks must be contiguous");
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, n, "n={n} t={t}");
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn static_blocks_are_balanced() {
        let (s0, e0) = Schedule::static_block(10, 3, 0);
        let (s1, e1) = Schedule::static_block(10, 3, 1);
        let (s2, e2) = Schedule::static_block(10, 3, 2);
        assert_eq!((e0 - s0, e1 - s1, e2 - s2), (4, 3, 3));
    }

    #[test]
    fn static_chunks_cover_without_overlap() {
        for n in [0u64, 1, 10, 97] {
            for t in [1usize, 2, 4] {
                for chunk in [1u64, 3, 8] {
                    let mut seen = vec![false; n as usize];
                    for tid in 0..t {
                        for (s, e) in Schedule::static_chunks(n, t, tid, chunk) {
                            for i in s..e {
                                assert!(!seen[i as usize], "overlap at {i}");
                                seen[i as usize] = true;
                            }
                        }
                    }
                    assert!(seen.iter().all(|&b| b), "n={n} t={t} chunk={chunk}");
                }
            }
        }
    }

    #[test]
    fn round_robin_order() {
        // 2 threads, chunk 2, n = 10: t0 gets [0,2) [4,6) [8,10); t1 [2,4) [6,8).
        let t0: Vec<_> = Schedule::static_chunks(10, 2, 0, 2).collect();
        let t1: Vec<_> = Schedule::static_chunks(10, 2, 1, 2).collect();
        assert_eq!(t0, vec![(0, 2), (4, 6), (8, 10)]);
        assert_eq!(t1, vec![(2, 4), (6, 8)]);
    }

    #[test]
    fn one_thread_runs_every_schedule_as_static() {
        for schedule in [
            Schedule::Static,
            Schedule::StaticChunk(5),
            Schedule::Dynamic(3),
            Schedule::Guided(2),
        ] {
            assert_eq!(schedule.effective(1), Schedule::Static);
            assert_eq!(schedule.effective(2), schedule);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Schedule::Static.label(), "static");
        assert_eq!(Schedule::StaticChunk(16).label(), "static,16");
        assert_eq!(Schedule::Dynamic(4).label(), "dynamic,4");
        assert_eq!(Schedule::Guided(1).label(), "guided,1");
    }

    #[test]
    fn zero_chunk_is_clamped() {
        let chunks: Vec<_> = Schedule::static_chunks(3, 1, 0, 0).collect();
        assert_eq!(chunks, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn parse_openmp_syntax() {
        assert_eq!("static".parse(), Ok(Schedule::Static));
        assert_eq!("static,256".parse(), Ok(Schedule::StaticChunk(256)));
        assert_eq!("dynamic".parse(), Ok(Schedule::Dynamic(1)));
        assert_eq!("dynamic, 8".parse(), Ok(Schedule::Dynamic(8)));
        assert_eq!("GUIDED,4".parse(), Ok(Schedule::Guided(4)));
        assert_eq!(" guided ".parse(), Ok(Schedule::Guided(1)));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("auto".parse::<Schedule>().is_err());
        assert!("static,".parse::<Schedule>().is_err());
        assert!("static,0".parse::<Schedule>().is_err());
        assert!("static,8,9".parse::<Schedule>().is_err());
        assert!("static,-3".parse::<Schedule>().is_err());
        assert!("".parse::<Schedule>().is_err());
    }

    #[test]
    fn parse_roundtrips_labels() {
        for s in [
            Schedule::Static,
            Schedule::StaticChunk(16),
            Schedule::Dynamic(4),
            Schedule::Guided(2),
        ] {
            assert_eq!(s.label().parse(), Ok(s));
        }
    }
}
