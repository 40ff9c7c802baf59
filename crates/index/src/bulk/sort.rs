//! The bulk loaders' one sort: a stable sort by key, spread over cores.
//!
//! Every loader orders items by a key and cuts the order into runs, so
//! the tree a loader builds is a function of that order. The order must
//! therefore be exactly that of a stable sort — ties (duplicate
//! coordinates are common in real data) kept in incoming order — or the
//! trees, and every join over them, would change.
//!
//! [`Sorter`] decorates each item with its key and its position in
//! its run and sorts the `(key, position)` pairs with an unstable sort.
//! The pairs are distinct, so the sorted pair order is unique and equals
//! the stable order. Independent runs are spread over scoped threads; a
//! lone large run is sorted in parts whose sorted pairs are merged (a
//! merge of distinct pairs is again the unique sorted order). Workers
//! allocate nothing: they write disjoint `&mut` sub-slices of the items
//! and of scratch the calling thread allocated, so no memory a worker
//! touched outlives the sort in a worker's allocator arena.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// Sorts of fewer items stay on the calling thread: below this, thread
/// start-up costs about as much as the sort it would share.
pub const PARALLEL_MIN_ITEMS: usize = 1 << 16;

/// The number of threads a sort of `n` items is spread over.
pub(crate) fn threads_for(n: usize) -> usize {
    if n < PARALLEL_MIN_ITEMS {
        1
    } else {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }
}

/// The `u64` whose unsigned order is `f64::total_cmp`'s order of `x`.
#[inline]
pub(crate) fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The bulk loaders' stable sort, with its scratch kept from call to
/// call (the runs of one tiling level after another reuse the pages the
/// first level faulted in).
pub(crate) struct Sorter<T, K> {
    threads: usize,
    /// A copy of the runs being sorted, which the sorted positions index.
    src: Vec<T>,
    /// The decorated keys.
    dec: Vec<(K, usize)>,
}

impl<T, K> Sorter<T, K>
where
    T: Copy + Send + Sync,
    K: Ord + Copy + Default + Send + Sync,
{
    /// A sorter working on `threads` threads.
    pub(crate) fn new(threads: usize) -> Self {
        Sorter { threads, src: Vec::new(), dec: Vec::new() }
    }

    /// Sorts each of `runs` (disjoint, ascending ranges of `items`) by
    /// `key`, equal keys in incoming order: exactly the order a stable
    /// sort by `key` gives each run, on any number of threads.
    pub(crate) fn sort_runs(
        &mut self,
        items: &mut [T],
        runs: &[Range<usize>],
        key: impl Fn(&T) -> K + Sync,
    ) {
        let total: usize = runs.iter().map(Range::len).sum();
        // Scratch is allocated here, on the calling thread; the keys
        // are zeroed lazily, so each worker faults in the part it
        // writes.
        if self.dec.len() < total {
            self.dec = vec![(K::default(), 0usize); total];
        }
        if self.src.len() < total {
            self.src = items.to_vec();
        }
        let jobs = split_jobs(items, runs, &mut self.src, &mut self.dec);
        if self.threads <= 1 {
            jobs.into_iter().for_each(|job| job.sort(&key));
        } else if jobs.len() >= self.threads {
            spread(jobs, self.threads, &key);
        } else {
            jobs.into_iter().for_each(|job| job.sort_in_parts(&key, self.threads));
        }
    }
}

/// Sorts all of `items` as one run (see [`Sorter::sort_runs`]), on as
/// many threads as [`threads_for`] gives its length.
pub(crate) fn sort_all<T, K>(items: &mut [T], key: impl Fn(&T) -> K + Sync)
where
    T: Copy + Send + Sync,
    K: Ord + Copy + Default + Send + Sync,
{
    let n = items.len();
    Sorter::new(threads_for(n)).sort_runs(items, std::slice::from_ref(&(0..n)), key);
}

/// One run: the items to overwrite, and room for a copy of them and for
/// their decorated keys.
struct Job<'a, T, K> {
    dst: &'a mut [T],
    src: &'a mut [T],
    dec: &'a mut [(K, usize)],
}

/// Cuts `items`, and the front of `src` and `dec`, into one job per run.
fn split_jobs<'a, T, K>(
    mut items: &'a mut [T],
    runs: &[Range<usize>],
    mut src: &'a mut [T],
    mut dec: &'a mut [(K, usize)],
) -> Vec<Job<'a, T, K>> {
    let mut jobs = Vec::with_capacity(runs.len());
    let mut at = 0;
    for r in runs {
        let (_, tail) = std::mem::take(&mut items).split_at_mut(r.start - at);
        let (dst, tail) = tail.split_at_mut(r.len());
        let (run_src, src_tail) = std::mem::take(&mut src).split_at_mut(r.len());
        let (run_dec, dec_tail) = std::mem::take(&mut dec).split_at_mut(r.len());
        jobs.push(Job { dst, src: run_src, dec: run_dec });
        (items, src, dec, at) = (tail, src_tail, dec_tail, r.end);
    }
    jobs
}

impl<T, K> Job<'_, T, K>
where
    T: Copy + Send + Sync,
    K: Ord + Copy + Send + Sync,
{
    fn sort(self, key: &impl Fn(&T) -> K) {
        self.src.copy_from_slice(self.dst);
        decorate(self.dec, self.src, 0, key);
        self.dec.sort_unstable();
        gather(self.dst, self.dec, self.src);
    }

    /// Sorts the run on `threads` threads: each sorts the decorated keys
    /// of one part, the sorted parts are merged pairwise down to two
    /// halves, and the last merge writes the items in `threads` output
    /// ranges at once.
    fn sort_in_parts(self, key: &(impl Fn(&T) -> K + Sync), threads: usize)
    where
        K: Default,
    {
        let Job { dst, src, dec } = self;
        let n = dec.len();
        let part = n.div_ceil(threads).max(1);
        thread::scope(|s| {
            let parts = dec.chunks_mut(part).zip(src.chunks_mut(part)).zip(dst.chunks(part));
            for (p, ((dec, src), items)) in parts.enumerate() {
                s.spawn(move || {
                    src.copy_from_slice(items);
                    decorate(dec, src, p * part, key);
                    dec.sort_unstable();
                });
            }
        });
        let mut spare = if 2 * part < n { vec![(K::default(), 0usize); n] } else { Vec::new() };
        let (mut sorted, mut other) = (dec, spare.as_mut_slice());
        let mut width = part;
        while 2 * width < n {
            thread::scope(|s| {
                for (pair, out) in sorted.chunks(2 * width).zip(other.chunks_mut(2 * width)) {
                    let (a, b) = pair.split_at(width.min(pair.len()));
                    s.spawn(move || merge(a, b, out, |&x| x));
                }
            });
            (sorted, other) = (other, sorted);
            width *= 2;
        }
        let (a, b) = sorted.split_at(width.min(n));
        let src: &[T] = src;
        let cuts: Vec<(usize, usize)> = (0..=threads)
            .map(|j| {
                let k = j * n / threads;
                (k, corank(a, b, k))
            })
            .collect();
        thread::scope(|s| {
            let mut rest = dst;
            for w in cuts.windows(2) {
                let ((k0, i0), (k1, i1)) = (w[0], w[1]);
                let (out, tail) = std::mem::take(&mut rest).split_at_mut(k1 - k0);
                rest = tail;
                let (a, b) = (&a[i0..i1], &b[k0 - i0..k1 - i1]);
                s.spawn(move || merge(a, b, out, |&(_, i)| src[i]));
            }
        });
    }
}

/// Runs `jobs` on `threads` threads (the calling one included), each
/// taking a consecutive share of about an equal number of items.
fn spread<T, K>(jobs: Vec<Job<'_, T, K>>, threads: usize, key: &(impl Fn(&T) -> K + Sync))
where
    T: Copy + Send + Sync,
    K: Ord + Copy + Send + Sync,
{
    let total: usize = jobs.iter().map(|job| job.dec.len()).sum();
    let share = total.div_ceil(threads);
    let mut bundles: Vec<Vec<Job<'_, T, K>>> = Vec::with_capacity(threads);
    let mut size = share;
    for job in jobs {
        if size >= share {
            bundles.push(Vec::new());
            size = 0;
        }
        size += job.dec.len();
        if let Some(b) = bundles.last_mut() {
            b.push(job);
        }
    }
    let sort_bundle = |bundle: Vec<Job<'_, T, K>>| bundle.into_iter().for_each(|job| job.sort(key));
    thread::scope(|s| {
        let mut bundles = bundles.into_iter();
        let own = bundles.next();
        for bundle in bundles {
            s.spawn(move || sort_bundle(bundle));
        }
        own.into_iter().for_each(sort_bundle);
    });
}

/// Fills `dec` with `(key, offset + position)` for the items of `src`.
fn decorate<T, K>(dec: &mut [(K, usize)], src: &[T], offset: usize, key: &impl Fn(&T) -> K) {
    for (i, (d, t)) in dec.iter_mut().zip(src).enumerate() {
        *d = (key(t), offset + i);
    }
}

/// `dst[j] = src[dec[j].1]`: applies a sorted decoration to the items.
fn gather<T: Copy, K>(dst: &mut [T], dec: &[(K, usize)], src: &[T]) {
    for (d, &(_, i)) in dst.iter_mut().zip(dec) {
        *d = src[i];
    }
}

/// The number of elements of `a` among the `k` smallest of `a ∪ b`
/// (`a`, `b` sorted, all elements distinct).
fn corank<X: Ord>(a: &[X], b: &[X], k: usize) -> usize {
    let (mut lo, mut hi) = (k.saturating_sub(b.len()), k.min(a.len()));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if a[mid] < b[k - mid - 1] {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merges sorted `a` and `b` into `out` (their total length), mapping
/// each element through `f`; on equal elements `a` goes first (the
/// decorated keys merged here are distinct, so that never happens).
fn merge<X: Ord + Copy, Y>(a: &[X], b: &[X], out: &mut [Y], f: impl Fn(&X) -> Y) {
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        if j == b.len() || (i < a.len() && a[i] <= b[j]) {
            *slot = f(&a[i]);
            i += 1;
        } else {
            *slot = f(&b[j]);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` items `(key, id)` with only `distinct` keys, so nearly every
    /// item has equal-keyed peers whose incoming order must survive.
    fn tied(n: usize, distinct: u64) -> Vec<(u64, usize)> {
        (0..n).map(|i| ((i as u64).wrapping_mul(2654435761) % distinct.max(1), i)).collect()
    }

    /// Disjoint ascending runs over `0..n`, with gaps between some.
    fn runs_over(n: usize, len: usize) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut at = 0;
        while at < n {
            let end = (at + len).min(n);
            runs.push(at..end);
            at = end + (runs.len() % 3 == 0) as usize;
        }
        runs
    }

    /// `Sorter::sort_runs` on every thread count against a stable sort
    /// per run.
    fn check(n: usize, distinct: u64, runs: &[Range<usize>], threads: &[usize]) {
        let mut want = tied(n, distinct);
        for r in runs {
            want[r.clone()].sort_by_key(|&(k, _)| k);
        }
        for &t in threads {
            let mut got = tied(n, distinct);
            Sorter::new(t).sort_runs(&mut got, runs, |&(k, _)| k);
            assert_eq!(got, want, "n={n} distinct={distinct} runs={} threads={t}", runs.len());
        }
    }

    #[test]
    fn order_key_is_total_cmp_order() {
        let xs = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(order_key(a).cmp(&order_key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn threaded_lone_runs_match_a_stable_sort() {
        for n in [0usize, 1, 2, 7, 100, 1001] {
            for distinct in [1, 3, u64::MAX] {
                check(n, distinct, std::slice::from_ref(&(0..n)), &[1, 2, 3, 4, 7]);
            }
        }
    }

    #[test]
    fn threaded_many_runs_match_a_stable_sort() {
        for (n, len) in [(10usize, 1usize), (1000, 7), (1200, 400), (1200, 700)] {
            for distinct in [2, u64::MAX] {
                check(n, distinct, &runs_over(n, len), &[1, 2, 3, 8]);
            }
        }
    }

    #[test]
    fn inputs_below_the_size_constant_stay_on_one_thread() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(PARALLEL_MIN_ITEMS - 1), 1);
    }

    /// Interpreter-sized run of both threaded paths (the Miri CI job
    /// filters on `miri_`).
    #[test]
    fn miri_threaded_sort_matches_stable_sort() {
        check(40, 5, std::slice::from_ref(&(0..40)), &[3]);
        check(40, 5, &runs_over(40, 6), &[2]);
    }
}
