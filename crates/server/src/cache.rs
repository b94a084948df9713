//! The content-addressed result cache: a size-bounded LRU map from
//! [`cache_key`](crate::job::cache_key) to canonical result documents,
//! optionally persisted one-file-per-entry so results survive restarts.
//!
//! Two invariants carry the whole design:
//!
//! * **byte identity** — a cached document is returned exactly as it was
//!   inserted (`Arc<str>`, never re-encoded), so a cache hit is
//!   indistinguishable from a fresh deterministic run;
//! * **bounded footprint** — inserts evict least-recently-used entries
//!   (and their files) until the byte budget holds again. The freshest
//!   entry is never evicted, even when it alone exceeds the budget —
//!   a cache that refuses the result it just computed helps no one.
//!
//! Only *successful* results are cached; failures stay ephemeral (a panic
//! or timeout says nothing deterministic about the spec).

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Cache sizing and persistence knobs.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Total document bytes to hold before evicting (the bound is on
    /// document text, not on map overhead).
    pub max_bytes: usize,
    /// On-disk store directory; `None` = memory only.
    pub dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_bytes: 64 << 20,
            dir: None,
        }
    }
}

/// Hit/miss/churn counters, reported by `stats` requests and `submit`'s
/// stats document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a document.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Documents inserted.
    pub insertions: u64,
    /// Documents evicted by the byte bound.
    pub evictions: u64,
    /// Documents loaded from the on-disk store at startup.
    pub loaded: u64,
    /// Inserts whose disk write failed; the document was served uncached.
    pub write_failures: u64,
}

/// The LRU result cache. Not internally synchronised — the service wraps
/// it in its state mutex.
pub struct ResultCache {
    config: CacheConfig,
    entries: HashMap<u64, Arc<str>>,
    /// Recency order, least-recent first. Small enough (hundreds of grid
    /// cells) that linear touch updates beat an intrusive list.
    order: VecDeque<u64>,
    bytes: usize,
    stats: CacheStats,
}

/// The on-disk file name of a cache entry.
fn entry_file(key: u64) -> String {
    format!("{key:016x}.json")
}

/// The name an entry is written under before it is renamed into place. It
/// does not end in `.json`, so [`parse_entry_file`] never loads it; the
/// process id keeps two servers sharing one directory off each other's
/// half-written files.
fn temp_file(key: u64) -> String {
    format!("{key:016x}.json.{}.tmp", std::process::id())
}

/// Parses a `{key:016x}.json` file name back to its key.
fn parse_entry_file(name: &str) -> Option<u64> {
    let hex = name.strip_suffix(".json")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

impl ResultCache {
    /// Opens the cache; with a store directory set, creates it if missing
    /// and loads every persisted entry (sorted by file name, so the
    /// initial recency order is deterministic). Unparseable file names are
    /// ignored; unreadable files are errors.
    pub fn open(config: CacheConfig) -> std::io::Result<ResultCache> {
        let mut cache = ResultCache {
            config,
            entries: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            stats: CacheStats::default(),
        };
        if let Some(dir) = cache.config.dir.clone() {
            std::fs::create_dir_all(&dir)?;
            let mut names: Vec<(u64, PathBuf)> = Vec::new();
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                let name = entry.file_name();
                if let Some(key) = name.to_str().and_then(parse_entry_file) {
                    names.push((key, entry.path()));
                }
            }
            names.sort_by_key(|(key, _)| *key);
            for (key, path) in names {
                let text = std::fs::read_to_string(&path)?;
                cache.attach(key, Arc::from(text.as_str()));
                cache.stats.loaded += 1;
            }
            // The store may have been written under a larger budget.
            cache.evict_over_budget();
        }
        Ok(cache)
    }

    /// Looks a key up, counting the hit or miss and refreshing recency.
    pub fn get(&mut self, key: u64) -> Option<Arc<str>> {
        match self.entries.get(&key).cloned() {
            Some(doc) => {
                self.stats.hits += 1;
                self.touch(key);
                Some(doc)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a document, persisting it when a store directory is set and
    /// evicting LRU entries past the byte budget. The file is written under
    /// a temporary name and renamed into place, so a process killed
    /// mid-write never leaves a truncated `<key>.json` behind for
    /// [`open`](Self::open) to serve. Nothing is synced to disk, so this
    /// does not cover a power loss. Returns the shared
    /// document (the existing one if the key was already present — the
    /// determinism invariant makes any two documents for one key
    /// byte-identical, so first-write wins is safe).
    ///
    /// # Errors
    ///
    /// A failed disk write is counted in [`CacheStats::write_failures`] and
    /// returned; the document is then not cached.
    pub fn insert(&mut self, key: u64, document: &str) -> std::io::Result<Arc<str>> {
        if let Some(existing) = self.entries.get(&key).cloned() {
            self.touch(key);
            return Ok(existing);
        }
        if let Some(dir) = &self.config.dir {
            let temp = dir.join(temp_file(key));
            let written = std::fs::write(&temp, document)
                .and_then(|()| std::fs::rename(&temp, dir.join(entry_file(key))));
            if let Err(e) = written {
                self.stats.write_failures += 1;
                return Err(e);
            }
        }
        let doc: Arc<str> = Arc::from(document);
        self.attach(key, doc.clone());
        self.stats.insertions += 1;
        self.evict_over_budget();
        Ok(doc)
    }

    /// Adds an entry to the maps without stats or persistence.
    fn attach(&mut self, key: u64, doc: Arc<str>) {
        self.bytes += doc.len();
        if self.entries.insert(key, doc).is_none() {
            self.order.push_back(key);
        }
    }

    /// Moves a key to the most-recent end.
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
    }

    /// Evicts least-recent entries (and their files) while over budget,
    /// always sparing the most recent one.
    fn evict_over_budget(&mut self) {
        while self.bytes > self.config.max_bytes && self.order.len() > 1 {
            let Some(key) = self.order.pop_front() else {
                break;
            };
            if let Some(doc) = self.entries.remove(&key) {
                self.bytes -= doc.len();
                self.stats.evictions += 1;
            }
            if let Some(dir) = &self.config.dir {
                let _ = std::fs::remove_file(dir.join(entry_file(key)));
            }
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total document bytes held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The hit/miss/churn counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The store directory, if persistence is on.
    pub fn dir(&self) -> Option<&Path> {
        self.config.dir.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(max_bytes: usize) -> ResultCache {
        ResultCache::open(CacheConfig {
            max_bytes,
            dir: None,
        })
        .expect("memory cache opens")
    }

    #[test]
    fn hits_are_byte_identical_and_counted() {
        let mut c = mem(1024);
        assert!(c.get(1).is_none());
        c.insert(1, "{\"x\": 1}").unwrap();
        let doc = c.get(1).expect("hit");
        assert_eq!(&*doc, "{\"x\": 1}");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // Three 4-byte documents in an 8-byte budget: inserting C must
        // evict the least recently *used* entry — B, because A was
        // touched by a get after B landed.
        let mut c = mem(8);
        c.insert(0xA, "aaaa").unwrap();
        c.insert(0xB, "bbbb").unwrap();
        assert!(c.get(0xA).is_some(), "touch A so B becomes LRU");
        c.insert(0xC, "cccc").unwrap();
        assert!(c.get(0xB).is_none(), "B was least recently used");
        assert!(c.get(0xA).is_some(), "A was refreshed and survives");
        assert!(c.get(0xC).is_some(), "the newest entry always survives");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
        assert!(c.bytes() <= 8);
    }

    #[test]
    fn oversized_newest_entry_is_spared() {
        let mut c = mem(4);
        c.insert(1, "way past the whole budget").unwrap();
        assert!(c.get(1).is_some(), "the only entry is never evicted");
        c.insert(2, "also enormous for this budget").unwrap();
        assert!(c.get(1).is_none(), "the older giant goes");
        assert!(c.get(2).is_some());
    }

    #[test]
    fn entries_land_whole_and_leftover_temp_files_are_ignored() {
        let dir = std::env::temp_dir().join(format!("platoon-cache-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            max_bytes: 1 << 20,
            dir: Some(dir.clone()),
        };
        let mut c = ResultCache::open(config.clone()).unwrap();
        c.insert(0xA, "{\"a\": 1}").unwrap();
        c.insert(0xB, "{\"b\": 2}").unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, [entry_file(0xA), entry_file(0xB)]);

        // A server killed mid-write leaves a truncated temp file behind.
        std::fs::write(dir.join(temp_file(0xC)), "{\"c\": ").unwrap();
        let mut reopened = ResultCache::open(config).unwrap();
        assert_eq!(reopened.stats().loaded, 2, "the temp file is not an entry");
        assert_eq!(reopened.len(), 2);
        assert!(reopened.get(0xC).is_none());
        assert_eq!(reopened.get(0xA).as_deref(), Some("{\"a\": 1}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_insert_returns_the_first_document() {
        let mut c = mem(1024);
        let a = c.insert(9, "{\"v\": 1}").unwrap();
        let b = c.insert(9, "{\"v\": 1}").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second insert reuses the first doc");
        assert_eq!(c.stats().insertions, 1);
        assert_eq!(c.len(), 1);
    }
}
