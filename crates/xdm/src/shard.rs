//! A minimal scoped-thread shard pool for the fixpoint driver.
//!
//! The driver's batched loop ([`crate::fixpoint`]) is built from
//! embarrassingly parallel phases — the folds and the final
//! materialisations, per seed or, in a shared-frontier run, per lane of 64
//! seeds — separated by an iteration barrier.  This module provides the
//! two splitting primitives they need, on plain [`std::thread::scope`] —
//! no vendored thread-pool crate, no global state, no work stealing.
//! Threads are spawned per call; the driver only shards phases whose work
//! comfortably dwarfs thread spawn cost, and callers pass `threads <= 1` to run the
//! exact sequential code path (the parallelism gate the engine's
//! `Parallelism::Sequential` default relies on).
//!
//! Results are returned **in shard order**, so a sharded phase composes
//! deterministically: splitting, processing and re-concatenating preserves
//! the sequential output exactly when the per-item work is itself
//! deterministic.

/// Split `items` into at most `threads` contiguous shards and run `f` on
/// each shard (`f(shard_index, shard)`) — concurrently when `threads > 1`,
/// inline otherwise.  Returns the per-shard results in shard order.
///
/// With `threads <= 1` (or a single item) this is exactly
/// `vec![f(0, items)]` on the calling thread: no threads are spawned and
/// the sequential code path is reproduced verbatim.
pub fn for_each_shard<T: Send, R: Send>(
    threads: usize,
    items: &mut [T],
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let shards = threads.min(items.len()).max(1);
    if shards <= 1 {
        return vec![f(0, items)];
    }
    let chunk = items.len().div_ceil(shards);
    let budget = crate::budget::current();
    std::thread::scope(|scope| {
        let f = &f;
        let budget = &budget;
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(idx, shard)| {
                scope.spawn(move || {
                    let _budget = budget.clone().map(crate::budget::install);
                    crate::fail::point_panic("shard.worker");
                    f(idx, shard)
                })
            })
            .collect();
        handles.into_iter().map(join_shard).collect()
    })
}

/// Map `f` over `items` in at most `threads` contiguous shards, returning
/// the per-item results **in input order** (a parallel `iter().map()`).
///
/// With `threads <= 1` no threads are spawned and this is a plain
/// sequential map.
pub fn map_sharded<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let shards = threads.min(items.len()).max(1);
    if shards <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(shards);
    let budget = crate::budget::current();
    std::thread::scope(|scope| {
        let f = &f;
        let budget = &budget;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|shard| {
                scope.spawn(move || {
                    let _budget = budget.clone().map(crate::budget::install);
                    crate::fail::point_panic("shard.worker");
                    shard.iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| join_shard(h)).collect()
    })
}

/// Join a shard, re-raising a shard panic on the calling thread so a
/// failed parallel phase aborts the whole fixpoint run instead of
/// silently dropping a shard's contribution.  The re-raised panic then
/// unwinds to the nearest containment boundary — in the service, the
/// `catch_unwind` wrapping per-query execution, which converts it into a
/// typed `ServiceError::Internal` instead of letting it cross the API.
fn join_shard<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(result) => result,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_shard_preserves_order_and_covers_all_items() {
        for threads in [0, 1, 2, 3, 8, 100] {
            let mut items: Vec<u32> = (0..23).collect();
            let sums = for_each_shard(threads, &mut items, |_, shard| {
                for item in shard.iter_mut() {
                    *item *= 2;
                }
                shard.iter().sum::<u32>()
            });
            assert_eq!(items, (0..23).map(|i| i * 2).collect::<Vec<_>>());
            assert_eq!(sums.iter().sum::<u32>(), (0..23).sum::<u32>() * 2);
            if threads <= 1 {
                assert_eq!(sums.len(), 1);
            }
        }
    }

    #[test]
    fn map_sharded_matches_sequential_map() {
        let items: Vec<u32> = (0..57).collect();
        let expected: Vec<u32> = items.iter().map(|i| i * i).collect();
        for threads in [0, 1, 2, 5, 64] {
            assert_eq!(map_sharded(threads, &items, |&i| i * i), expected);
        }
    }

    #[test]
    fn empty_and_singleton_inputs_stay_inline() {
        let mut empty: Vec<u8> = Vec::new();
        assert_eq!(for_each_shard(8, &mut empty, |_, s| s.len()), vec![0]);
        assert_eq!(map_sharded(8, &[42u8], |&b| b), vec![42]);
    }

    #[test]
    fn shard_indexes_are_contiguous() {
        let mut items: Vec<u8> = vec![0; 10];
        let mut idxs = for_each_shard(4, &mut items, |idx, _| idx);
        idxs.sort_unstable();
        assert_eq!(idxs, (0..idxs.len()).collect::<Vec<_>>());
    }
}
