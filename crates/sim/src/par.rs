//! Deterministic intra-run parallelism helpers.
//!
//! The engine shards independent per-vehicle work (frame sealing) across
//! scoped threads. Determinism is preserved structurally: items are split
//! into **contiguous index chunks**, each item's result is written to **its
//! own slot**, and callers consume results in **item order** — never
//! completion order. The thread count can therefore change the wall time
//! but never the bytes produced.
//!
//! It falls back to a plain sequential loop for one thread (or one item),
//! so the default configuration never pays thread-spawn overhead.

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
        assert_eq!(map_indexed(&[7u32], 9, |_, &x| x + 1), [8]);
    }
}
