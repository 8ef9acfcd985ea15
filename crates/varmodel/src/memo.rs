//! A bounded, build-once memo for values that are pure functions of
//! their key: every process memo of the stack (grids, chip blanks,
//! topologies, nominal clock anchors, traces) is a `static` [`Memo`],
//! and each serve daemon keeps one of experiment tables.
//! Past its cap the least recently used key is dropped, and asking for
//! it again rebuilds it bit-identically.

use std::convert::Infallible;
use std::sync::{Arc, Mutex, PoisonError};

/// A key's cell, empty until a build succeeds: callers of one key
/// serialize on its lock.
type Cell<V> = Arc<Mutex<Option<V>>>;

/// A list of build-once cells in least-recently-used order, capped at a
/// fixed number of keys.
#[derive(Debug)]
pub struct Memo<K, V> {
    cap: usize,
    /// Cells ordered least to most recently used.
    cells: Mutex<Vec<(K, Cell<V>)>>,
}

impl<K: PartialEq + Clone, V: Clone> Memo<K, V> {
    /// An empty memo holding at most `cap` keys; a zero `cap` fails to
    /// compile in a `static`, and panics elsewhere.
    pub const fn new(cap: usize) -> Self {
        assert!(cap > 0, "a memo needs room for at least one key");
        Memo {
            cap,
            cells: Mutex::new(Vec::new()),
        }
    }

    /// The value of `key`, built by `build` unless the memo holds it.
    /// Callers of a key being built wait for that build; other keys
    /// build concurrently.
    ///
    /// # Errors
    ///
    /// Returns `build`'s error. A failed or panicking build stores
    /// nothing, and the next caller of `key` (a waiting one too) builds.
    pub fn get_or_try_init<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let cell = self.cell(key, true).expect("a created cell");
        // The slot is written only with a built value, so a build that
        // panicked left it valid (empty) behind the poison.
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = &*slot {
            return Ok(value.clone());
        }
        let value = build()?;
        *slot = Some(value.clone());
        Ok(value)
    }

    /// [`get_or_try_init`](Self::get_or_try_init) for a build that
    /// cannot fail.
    pub fn get_or_init(&self, key: &K, build: impl FnOnce() -> V) -> V {
        self.get_or_try_init(key, || Ok::<V, Infallible>(build()))
            .unwrap_or_else(|never| match never {})
    }

    /// The value of `key` once its build returns, marking the key most
    /// recently used: a caller arriving during a build waits for it.
    /// Never creates a cell and never starts a build, so a key absent,
    /// or left empty by a failed or panicked build, reads `None`.
    pub fn wait_built(&self, key: &K) -> Option<V> {
        let cell = self.cell(key, false)?;
        let slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        slot.clone()
    }

    /// Keys held now (built, being built, or left empty by a failed
    /// build), and the cap.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.cells.lock().expect("memo poisoned").len(), self.cap)
    }

    /// `key`'s cell, marked most recently used. A key without one gets a
    /// new cell if `create` is set, evicting the least recently used one
    /// when the memo is full.
    fn cell(&self, key: &K, create: bool) -> Option<Cell<V>> {
        let mut cells = self.cells.lock().expect("memo poisoned");
        let entry = match cells.iter().position(|(k, _)| k == key) {
            Some(i) => cells.remove(i),
            None if create => {
                if cells.len() == self.cap {
                    cells.remove(0);
                }
                (key.clone(), Cell::default())
            }
            None => return None,
        };
        let cell = Arc::clone(&entry.1);
        cells.push(entry);
        Some(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn the_least_recently_used_key_is_evicted_and_rebuilt() {
        let memo: Memo<u32, u32> = Memo::new(2);
        let builds = AtomicUsize::new(0);
        let get = |k: u32| {
            memo.get_or_init(&k, || {
                builds.fetch_add(1, Ordering::SeqCst);
                k * 10
            })
        };
        assert_eq!((get(1), get(2)), (10, 20));
        // Touch 1, so 2 is the least recently used when 3 arrives.
        assert_eq!(get(1), 10);
        assert_eq!(builds.load(Ordering::SeqCst), 2, "a hit builds nothing");
        assert_eq!(get(3), 30);
        assert_eq!(memo.occupancy(), (2, 2));
        assert_eq!(get(1), 10);
        assert_eq!(builds.load(Ordering::SeqCst), 3, "1 survived the eviction");
        assert_eq!(get(2), 20);
        assert_eq!(
            builds.load(Ordering::SeqCst),
            4,
            "2 was evicted and rebuilt"
        );
    }

    #[test]
    fn concurrent_callers_of_one_key_share_a_single_build() {
        let memo: Memo<u32, Arc<u32>> = Memo::new(4);
        let builds = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        let values: Vec<Arc<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        memo.get_or_init(&7, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_millis(50));
                            Arc::new(49)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller"))
                .collect()
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "one build for eight callers"
        );
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
    }

    #[test]
    fn different_keys_build_concurrently() {
        // Each build waits to hear that the other one started: were the
        // builds serialized, the first would time out.
        let memo: Memo<u32, bool> = Memo::new(4);
        let (to_a, from_b) = mpsc::channel();
        let (to_b, from_a) = mpsc::channel();
        let meet = |tx: mpsc::Sender<()>, rx: mpsc::Receiver<()>| {
            tx.send(()).expect("peer alive");
            rx.recv_timeout(Duration::from_secs(5)).is_ok()
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| memo.get_or_init(&1, || meet(to_b, from_b)));
            let b = s.spawn(|| memo.get_or_init(&2, || meet(to_a, from_a)));
            (a.join().expect("a"), b.join().expect("b"))
        });
        assert!(a && b, "both builds ran at once");
    }

    #[test]
    fn failed_and_panicking_builds_store_nothing() {
        let memo: Memo<u32, u32> = Memo::new(4);
        assert_eq!(memo.get_or_try_init(&1, || Err("no")), Err("no"));
        assert_eq!(memo.get_or_try_init(&1, || Ok::<_, &str>(5)), Ok(5));
        assert_eq!(memo.get_or_init(&1, || 0), 5, "the success was kept");
        let panicked =
            std::panic::catch_unwind(|| memo.get_or_init(&2, || panic!("injected build failure")));
        assert!(panicked.is_err(), "the panic reaches the caller");
        assert_eq!(memo.get_or_init(&2, || 6), 6, "the next caller builds");
        assert_eq!(memo.get_or_init(&2, || 0), 6);
    }

    #[test]
    fn a_caller_waiting_on_a_failed_build_builds_itself() {
        let memo: Memo<u32, u32> = Memo::new(4);
        let (started, wait_started) = mpsc::channel();
        let value = std::thread::scope(|s| {
            let failing = s.spawn(|| {
                memo.get_or_try_init(&3, || {
                    started.send(()).expect("waiter alive");
                    std::thread::sleep(Duration::from_millis(100));
                    Err(())
                })
            });
            wait_started.recv().expect("the failing build started");
            let waiter = memo.get_or_try_init(&3, || Ok::<_, ()>(9));
            assert_eq!(failing.join().expect("failing caller"), Err(()));
            waiter
        });
        assert_eq!(value, Ok(9));
        assert_eq!(memo.get_or_init(&3, || 0), 9, "the retry's value is held");
    }

    #[test]
    fn wait_built_waits_on_a_build_and_never_starts_one() {
        let memo: Memo<u32, u32> = Memo::new(4);
        assert_eq!(memo.wait_built(&1), None);
        assert_eq!(memo.occupancy(), (0, 4), "a miss creates no cell");
        // A caller arriving during a build blocks until the build returns.
        let (started, wait_started) = mpsc::channel();
        let (finish, wait_finish) = mpsc::channel::<()>();
        let (read, wait_read) = mpsc::channel();
        std::thread::scope(|s| {
            let memo = &memo;
            s.spawn(move || {
                memo.get_or_init(&3, || {
                    started.send(()).expect("test alive");
                    wait_finish.recv().expect("test alive");
                    30
                })
            });
            wait_started.recv().expect("the build started");
            s.spawn(move || read.send(memo.wait_built(&3)).expect("test alive"));
            let early = wait_read.recv_timeout(Duration::from_millis(200));
            finish.send(()).expect("building thread alive");
            assert!(early.is_err(), "the waiter blocks while the build runs");
            assert_eq!(wait_read.recv().expect("waiter"), Some(30));
        });
        assert_eq!(
            memo.wait_built(&3),
            Some(30),
            "a finished build reads at once"
        );
        let _ = memo.get_or_try_init(&2, || Err(()));
        assert_eq!(memo.wait_built(&2), None, "a failed build left no value");
        let panicked =
            std::panic::catch_unwind(|| memo.get_or_init(&4, || panic!("injected build failure")));
        assert!(panicked.is_err(), "the panic reaches the builder");
        assert_eq!(memo.wait_built(&4), None, "a panicked build left no value");
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn a_zero_cap_is_rejected() {
        let _ = Memo::<u32, u32>::new(0);
    }
}
