//! Object-store probe: an [`ObjectStore`] decorator counting and timing
//! puts, gets and deletes. Handed to both the CDW (COPY's gets) and the
//! node (the uploader's puts), it sees every staged byte both ways.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use etlv_cloudstore::{ObjectStore, StoreError};

/// Counters shared between a [`CountingStore`] and its reader.
#[derive(Debug, Default)]
pub struct StoreStats {
    puts: AtomicU64,
    put_bytes: AtomicU64,
    put_us: AtomicU64,
    gets: AtomicU64,
    get_bytes: AtomicU64,
    get_us: AtomicU64,
    deletes: AtomicU64,
}

/// Everything a [`StoreStats`] counted since the last [`StoreStats::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreDelta {
    /// Successful puts.
    pub puts: u64,
    /// Bytes put.
    pub put_bytes: u64,
    /// Time inside put calls.
    pub put_time: Duration,
    /// Successful gets.
    pub gets: u64,
    /// Bytes got.
    pub get_bytes: u64,
    /// Time inside get calls.
    pub get_time: Duration,
    /// Delete calls.
    pub deletes: u64,
}

impl StoreStats {
    /// Read and reset every counter.
    pub fn take(&self) -> StoreDelta {
        let take = |a: &AtomicU64| a.swap(0, Ordering::Relaxed);
        StoreDelta {
            puts: take(&self.puts),
            put_bytes: take(&self.put_bytes),
            put_time: Duration::from_micros(take(&self.put_us)),
            gets: take(&self.gets),
            get_bytes: take(&self.get_bytes),
            get_time: Duration::from_micros(take(&self.get_us)),
            deletes: take(&self.deletes),
        }
    }
}

/// Counts and times calls into an inner store.
pub struct CountingStore {
    inner: Arc<dyn ObjectStore>,
    stats: Arc<StoreStats>,
}

impl CountingStore {
    /// Decorate `inner`.
    pub fn new(inner: Arc<dyn ObjectStore>, stats: Arc<StoreStats>) -> CountingStore {
        CountingStore { inner, stats }
    }
}

fn add_elapsed(counter: &AtomicU64, started: Instant) {
    counter.fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
}

impl ObjectStore for CountingStore {
    fn put(&self, bucket: &str, key: &str, data: Vec<u8>) -> Result<(), StoreError> {
        let len = data.len() as u64;
        let started = Instant::now();
        let result = self.inner.put(bucket, key, data);
        add_elapsed(&self.stats.put_us, started);
        if result.is_ok() {
            self.stats.puts.fetch_add(1, Ordering::Relaxed);
            self.stats.put_bytes.fetch_add(len, Ordering::Relaxed);
        }
        result
    }

    fn get(&self, bucket: &str, key: &str) -> Result<Vec<u8>, StoreError> {
        let started = Instant::now();
        let result = self.inner.get(bucket, key);
        add_elapsed(&self.stats.get_us, started);
        if let Ok(data) = &result {
            self.stats.gets.fetch_add(1, Ordering::Relaxed);
            self.stats
                .get_bytes
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        result
    }

    fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.inner.list(bucket, prefix)
    }

    fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.inner.delete(bucket, key)
    }

    fn size_of_prefix(&self, bucket: &str, prefix: &str) -> Result<u64, StoreError> {
        self.inner.size_of_prefix(bucket, prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etlv_cloudstore::MemStore;

    #[test]
    fn counts_puts_gets_and_deletes_exactly() {
        let stats = Arc::new(StoreStats::default());
        let store = CountingStore::new(Arc::new(MemStore::new()), Arc::clone(&stats));
        store.put("b", "a", vec![0; 100]).unwrap();
        store.put("b", "c", vec![0; 28]).unwrap();
        assert_eq!(store.get("b", "a").unwrap().len(), 100);
        assert!(store.get("b", "missing").is_err());
        assert_eq!(store.list("b", "").unwrap().len(), 2);
        store.delete("b", "a").unwrap();
        let d = stats.take();
        assert_eq!((d.puts, d.put_bytes), (2, 128));
        assert_eq!((d.gets, d.get_bytes), (1, 100));
        assert_eq!(d.deletes, 1);
        assert_eq!(stats.take(), StoreDelta::default());
    }
}
