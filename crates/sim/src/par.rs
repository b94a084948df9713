//! Deterministic intra-run parallelism helpers.
//!
//! The engine shards independent per-vehicle work (frame sealing, dynamics
//! substeps) across scoped threads. Determinism is
//! preserved structurally: items are split into **contiguous index chunks**,
//! each item's result is written to **its own slot**, and callers consume
//! results in **item order** — never completion order. The thread count can
//! therefore change the wall time but never the bytes produced.
//!
//! Helpers fall back to a plain sequential loop for one thread (or one
//! item), so the default configuration never pays thread-spawn overhead.

/// Applies `f` to every element, sharded across up to `threads` scoped
/// threads in contiguous chunks. `f` receives the element's index.
pub fn for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, chunk_items) in items.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (k, item) in chunk_items.iter_mut().enumerate() {
                    f(ci * chunk + k, item);
                }
            });
        }
    });
}

/// Maps every element through `f`, sharded across up to `threads` scoped
/// threads in contiguous chunks. The returned `Vec` is in item order.
pub fn map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        for (ci, (in_chunk, out_chunk)) in
            items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                for (k, (item, slot)) in in_chunk.iter().zip(out_chunk.iter_mut()).enumerate() {
                    *slot = Some(f(ci * chunk + k, item));
                }
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("every chunk fills its slots"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mut_visits_every_index_once() {
        for threads in [1, 2, 3, 8, 64] {
            let mut items: Vec<usize> = vec![0; 37];
            for_each_mut(&mut items, threads, |i, slot| *slot = i + 1);
            assert!(
                items.iter().enumerate().all(|(i, &v)| v == i + 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn map_indexed_is_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..101).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 5, 16, 200] {
            let got = map_indexed(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_indexed(&empty, 4, |_, &x| x).is_empty());
        let mut one = [7u32];
        for_each_mut(&mut one, 9, |_, x| *x += 1);
        assert_eq!(one, [8]);
    }
}
