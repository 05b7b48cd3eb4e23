//! Minimal data-parallel helpers built on `crossbeam::scope`.
//!
//! The paper runs TQP-CPU "over all cores" (§2.3); these helpers give the hot
//! kernels the same property without pulling in rayon. Work is split into
//! contiguous chunks, one scoped thread per chunk; small inputs run inline to
//! avoid spawn overhead.

/// Inputs below this many elements are processed on the calling thread.
/// Scoped threads are spawned per kernel call (no persistent pool), so the
/// threshold is high enough that spawn cost amortizes against a full pass.
pub const PAR_THRESHOLD: usize = 1 << 20;

/// Number of worker threads used for parallel kernels. Asked of the OS
/// once: `available_parallelism` reads the affinity mask and cgroup files
/// on every call, which costs more than a whole small kernel.
pub fn num_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Split `out` into near-equal chunks and invoke `f(start_index, chunk)` for
/// each, in parallel when the input is large enough.
///
/// `f` must be pure with respect to everything but its own chunk.
pub fn par_chunks_mut<T: Send, F>(out: &mut [T], f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = out.len();
    let threads = num_threads();
    if n < PAR_THRESHOLD || threads <= 1 {
        f(0, out);
        return;
    }
    let chunk = n.div_ceil(threads);
    crossbeam::scope(|s| {
        for (i, part) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move |_| f(i * chunk, part));
        }
    })
    .expect("worker thread panicked");
}

/// Parallel map-reduce over index ranges: `map` produces a partial result per
/// chunk, `reduce` folds partials (in chunk order) into the final value.
pub fn par_reduce<R, M, Rd>(n: usize, map: M, reduce: Rd, identity: R) -> R
where
    R: Send,
    M: Fn(std::ops::Range<usize>) -> R + Sync,
    Rd: Fn(R, R) -> R,
{
    if n == 0 {
        return identity;
    }
    let threads = num_threads();
    if n < PAR_THRESHOLD || threads <= 1 {
        return reduce(identity, map(0..n));
    }
    let chunk = n.div_ceil(threads);
    let mut partials: Vec<Option<R>> = (0..threads).map(|_| None).collect();
    crossbeam::scope(|s| {
        for (i, slot) in partials.iter_mut().enumerate() {
            let lo = i * chunk;
            let hi = ((i + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let map = &map;
            s.spawn(move |_| {
                *slot = Some(map(lo..hi));
            });
        }
    })
    .expect("worker thread panicked");
    partials.into_iter().flatten().fold(identity, reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_mut_small_inline() {
        let mut v = vec![0usize; 100];
        par_chunks_mut(&mut v, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn chunks_mut_large_parallel() {
        let n = PAR_THRESHOLD * 4 + 17;
        let mut v = vec![0usize; n];
        par_chunks_mut(&mut v, |start, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = start + i;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn reduce_matches_serial() {
        let n = PAR_THRESHOLD * 3 + 5;
        let total = par_reduce(n, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| a + b, 0u64);
        let expect = (n as u64 - 1) * n as u64 / 2;
        assert_eq!(total, expect);
    }

    #[test]
    fn reduce_empty() {
        let total = par_reduce(0, |_| 1u64, |a, b| a + b, 0u64);
        assert_eq!(total, 0);
    }
}
