//! The multi-tenant session table.
//!
//! Each session is one tenant's [`CqaSession`] — a loaded instance plus its
//! warm CQA artifacts — behind its own `RwLock`, so requests against
//! *different* sessions run fully in parallel. On one session, queries,
//! repairs and causes share the read lock (reads never touch the warm
//! state), and a mutation takes the write lock, maintaining the state
//! before it releases it.
//!
//! The table itself is a `RwLock<BTreeMap>` — ordered, so `GET /sessions`
//! listings are deterministic — with a hard capacity: when full, creation
//! is refused (the handler answers 503) instead of growing unboundedly.

use cqa_core::CqaSession;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One registered session.
pub type SessionSlot = Arc<RwLock<CqaSession>>;

/// Read a lock, absorbing poisoning: a handler that panicked while holding
/// the lock must not take the whole server down with it — the data is a
/// session cache, and the worst case is serving that tenant a state another
/// handler failed to finish mutating (mutations go through `&mut` methods
/// that keep the session coherent step-by-step).
pub fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write counterpart of [`read_lock`].
pub fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A bounded table of live sessions, keyed by a monotone id.
#[derive(Debug)]
pub struct SessionStore {
    table: RwLock<BTreeMap<u64, SessionSlot>>,
    next_id: AtomicU64,
    capacity: usize,
}

impl SessionStore {
    /// An empty store admitting at most `capacity` concurrent sessions.
    pub fn new(capacity: usize) -> SessionStore {
        SessionStore {
            table: RwLock::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            capacity,
        }
    }

    /// Register a session; `None` when the table is full (the id counter is
    /// only consumed on success, so refused creations leave no gaps).
    pub fn create(&self, session: CqaSession) -> Option<u64> {
        let mut table = write_lock(&self.table);
        if table.len() >= self.capacity {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        table.insert(id, Arc::new(RwLock::new(session)));
        Some(id)
    }

    /// Look up a live session.
    pub fn get(&self, id: u64) -> Option<SessionSlot> {
        read_lock(&self.table).get(&id).map(Arc::clone)
    }

    /// Drop a session; `true` if it existed. In-flight requests holding the
    /// `Arc` finish against the detached session.
    pub fn remove(&self, id: u64) -> bool {
        write_lock(&self.table).remove(&id).is_some()
    }

    /// Live session ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        read_lock(&self.table).keys().copied().collect()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        read_lock(&self.table).len()
    }

    /// True when no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every session (shutdown path); returns how many were dropped.
    pub fn clear(&self) -> usize {
        let mut table = write_lock(&self.table);
        let n = table.len();
        table.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> CqaSession {
        CqaSession::from_text("@relation T(K, V)\n1, 1\n", "key T(K)\n").unwrap()
    }

    #[test]
    fn ids_are_monotone_and_capacity_is_enforced() {
        let store = SessionStore::new(2);
        let a = store.create(session()).unwrap();
        let b = store.create(session()).unwrap();
        assert!(a < b);
        assert!(store.create(session()).is_none(), "over capacity");
        assert_eq!(store.ids(), vec![a, b]);
        assert!(store.remove(a));
        assert!(!store.remove(a), "double remove");
        let c = store.create(session()).unwrap();
        assert!(c > b, "ids never reused");
        assert_eq!(store.clear(), 2);
        assert!(store.is_empty());
    }

    #[test]
    fn detached_sessions_stay_usable_by_holders() {
        let store = SessionStore::new(8);
        let id = store.create(session()).unwrap();
        let slot = store.get(id).unwrap();
        assert!(store.remove(id));
        assert!(store.get(id).is_none());
        // The Arc we took before removal still works.
        assert_eq!(read_lock(&slot).epoch(), 2);
    }
}
