//! [`SingleFlight`]: the one exactly-once primitive of the serving tier.
//!
//! A fetch mutates the cache it runs against (residency, recency and
//! statistics), so two kinds of repeat must not execute it twice:
//!
//! * a **retry** of a request whose reply was lost, possibly racing the
//!   original on another connection, keyed by request id; and
//! * **concurrent misses for one group** at a cluster node, keyed by a
//!   fold of (owner, files), which should cost one upstream fetch.
//!
//! Both are the same shape (the groupcache single-flight). The first
//! caller for a key is the *leader*: it executes with no lock held. A
//! caller arriving with the same key *and the same file list* while the
//! leader runs waits for it and receives a clone of its result. Finished
//! results stay in a bounded FIFO window of `capacity` keys, so a retry
//! arriving after the leader finished is answered from the window. Once
//! a result is older than `capacity` newer flights, a retry is assumed
//! impossible (the client's retry policy gives up long before then) and
//! the entry is dropped. A capacity of 0 retires every flight as soon as
//! its leader finishes: only concurrent callers share a result.
//!
//! A caller whose key matches but whose file list differs executes on
//! its own and leaves the flight alone. A request id reused for a
//! different group, or two groups whose keys collide, therefore never
//! receive each other's results: correctness never rests on the key
//! alone.
//!
//! The leader holds its flight's result slot locked while it executes,
//! and a waiter simply locks the slot. If the leader panics the slot is
//! poisoned and every waiter panics too, rather than waiting forever.

use std::collections::VecDeque;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard};

use fgcache_types::hash::FastMap;
use fgcache_types::FileId;

/// Default number of finished results a server remembers for retry
/// deduplication.
pub const DEFAULT_REPLY_CACHE_CAPACITY: usize = 1024;

/// One flight: the files it executes and, once the leader is done, its
/// result.
struct Flight<V> {
    files: Vec<FileId>,
    /// Locked by the leader from creation until the result is in.
    result: Mutex<Option<V>>,
}

struct State<K, V> {
    /// Running flights and finished ones still in the window.
    flights: FastMap<K, Arc<Flight<V>>>,
    /// Finished flights in the window, oldest first.
    finished: VecDeque<K>,
    /// Callers currently joined to another caller's flight.
    waiting: usize,
    /// Callers ever served from another caller's flight.
    hits: u64,
}

/// A set of single flights keyed by `K` with results of type `V`. See
/// the [module docs](self).
pub struct SingleFlight<K, V> {
    capacity: usize,
    state: Mutex<State<K, V>>,
}

impl<K, V> std::fmt::Debug for SingleFlight<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self
            .state
            .lock()
            .expect("a single-flight caller panicked while holding the flight map");
        f.debug_struct("SingleFlight")
            .field("capacity", &self.capacity)
            .field("flights", &state.flights.len())
            .field("waiting", &state.waiting)
            .finish()
    }
}

impl<K: Copy + Eq + Hash, V: Clone> SingleFlight<K, V> {
    /// An empty flight set remembering up to `capacity` finished results.
    pub fn new(capacity: usize) -> Self {
        SingleFlight {
            capacity,
            state: Mutex::new(State {
                flights: FastMap::default(),
                finished: VecDeque::new(),
                waiting: 0,
                hits: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state
            .lock()
            .expect("a single-flight caller panicked while holding the flight map")
    }

    /// Callers currently joined to another caller's flight (a test hook:
    /// lets a harness park callers before releasing a leader).
    pub fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// Callers so far served another caller's result, whether they waited
    /// for it or found it in the window.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Runs `execute` at most once per concurrent (or windowed) `key` and
    /// `files`. Returns the result and whether it came from another
    /// caller's flight.
    pub fn run(&self, key: K, files: &[FileId], execute: impl FnOnce() -> V) -> (V, bool) {
        let mut state = self.lock();
        if let Some(flight) = state.flights.get(&key).map(Arc::clone) {
            if flight.files != files {
                drop(state);
                return (execute(), false);
            }
            state.waiting += 1;
            state.hits += 1;
            drop(state);
            let result = flight
                .result
                .lock()
                .expect("a single-flight leader panicked while executing")
                .clone()
                .expect("a leader fills its result before unlocking it");
            self.lock().waiting -= 1;
            return (result, true);
        }
        let flight = Arc::new(Flight {
            files: files.to_vec(),
            result: Mutex::new(None),
        });
        let mut slot = flight
            .result
            .lock()
            .expect("a fresh flight's result slot is unshared");
        state.flights.insert(key, Arc::clone(&flight));
        drop(state);

        let result = execute();
        *slot = Some(result.clone());
        drop(slot);

        let mut state = self.lock();
        if self.capacity == 0 {
            state.flights.remove(&key);
        } else {
            state.finished.push_back(key);
            if state.finished.len() > self.capacity {
                if let Some(oldest) = state.finished.pop_front() {
                    state.flights.remove(&oldest);
                }
            }
        }
        (result, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Condvar;

    fn files(ids: &[u64]) -> Vec<FileId> {
        ids.iter().map(|&i| FileId(i)).collect()
    }

    /// A gate the test opens once every other caller has joined.
    #[derive(Default)]
    struct Gate {
        open: Mutex<bool>,
        cv: Condvar,
    }

    impl Gate {
        fn wait(&self) {
            let mut open = self.open.lock().expect("gate");
            while !*open {
                open = self.cv.wait(open).expect("gate");
            }
        }

        fn release(&self) {
            *self.open.lock().expect("gate") = true;
            self.cv.notify_all();
        }
    }

    #[test]
    fn zero_capacity_retires_a_flight_when_its_leader_finishes() {
        let sf = SingleFlight::<u64, u64>::new(0);
        let fs = files(&[1, 2]);
        assert_eq!(sf.run(7, &fs, || 70), (70, false));
        assert_eq!(sf.run(7, &fs, || 71), (71, false), "a fresh flight");
        assert_eq!(sf.hits(), 0);
    }

    #[test]
    fn finished_results_are_remembered_within_the_window() {
        let sf = SingleFlight::<u64, u64>::new(2);
        let fs = files(&[1]);
        assert_eq!(sf.run(1, &fs, || 10), (10, false));
        assert_eq!(sf.run(1, &fs, || 11), (10, true), "a retry is re-served");
        assert_eq!(sf.run(2, &fs, || 20), (20, false));
        assert_eq!(sf.run(3, &fs, || 30), (30, false));
        assert_eq!(sf.run(1, &fs, || 12), (12, false), "the oldest fell out");
        assert_eq!(sf.run(3, &fs, || 31), (30, true));
        assert_eq!(sf.hits(), 2);
    }

    #[test]
    fn a_key_reused_for_other_files_executes_on_its_own() {
        let sf = SingleFlight::<u64, u64>::new(4);
        assert_eq!(sf.run(5, &files(&[1]), || 1), (1, false));
        assert_eq!(sf.run(5, &files(&[2]), || 2), (2, false));
        // The colliding caller left the window entry alone.
        assert_eq!(sf.run(5, &files(&[1]), || 3), (1, true));
        assert_eq!(sf.hits(), 1);
    }

    #[test]
    fn concurrent_callers_collapse_into_one_execution() {
        const THREADS: usize = 8;
        let sf = Arc::new(SingleFlight::<u64, u64>::new(0));
        let executed = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Gate::default());
        let fs = files(&[1, 2, 3]);
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (sf, executed, gate, fs) = (
                    Arc::clone(&sf),
                    Arc::clone(&executed),
                    Arc::clone(&gate),
                    fs.clone(),
                );
                std::thread::spawn(move || {
                    sf.run(9, &fs, || {
                        gate.wait();
                        executed.fetch_add(1, Ordering::AcqRel);
                        1
                    })
                })
            })
            .collect();
        while sf.waiting() < THREADS - 1 {
            std::thread::yield_now();
        }
        gate.release();
        let results: Vec<(u64, bool)> = handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect();
        assert_eq!(executed.load(Ordering::Acquire), 1, "one execution");
        assert_eq!(results.iter().filter(|(_, shared)| *shared).count(), 7);
        assert!(results.iter().all(|&(r, _)| r == 1));
        assert_eq!(sf.hits(), 7);
        assert_eq!(sf.waiting(), 0);
    }

    #[test]
    fn a_colliding_caller_does_not_wait_on_a_running_flight() {
        let sf = Arc::new(SingleFlight::<u64, u64>::new(0));
        let gate = Arc::new(Gate::default());
        let leader = {
            let (sf, gate) = (Arc::clone(&sf), Arc::clone(&gate));
            std::thread::spawn(move || {
                sf.run(42, &files(&[1]), || {
                    gate.wait();
                    1
                })
            })
        };
        while sf.lock().flights.is_empty() {
            std::thread::yield_now();
        }
        // Same key, other files: runs now, while the leader is parked. A
        // caller that wrongly waited is released after the deadline, so
        // the test fails instead of hanging.
        let colliding = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.run(42, &files(&[2]), || 2))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !colliding.is_finished() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let finished_while_parked = colliding.is_finished();
        gate.release();
        assert!(finished_while_parked, "the colliding caller waited");
        assert_eq!(colliding.join().expect("join"), (2, false));
        assert_eq!(leader.join().expect("join"), (1, false));
    }

    #[test]
    fn a_panicking_leader_fails_its_waiters_instead_of_hanging_them() {
        let sf = Arc::new(SingleFlight::<u64, u64>::new(0));
        let gate = Arc::new(Gate::default());
        let leader = {
            let (sf, gate) = (Arc::clone(&sf), Arc::clone(&gate));
            std::thread::spawn(move || {
                sf.run(1, &files(&[1]), || {
                    gate.wait();
                    panic!("backend failure");
                })
            })
        };
        while sf.lock().flights.is_empty() {
            std::thread::yield_now();
        }
        let waiter = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.run(1, &files(&[1]), || 2))
        };
        while sf.waiting() < 1 {
            std::thread::yield_now();
        }
        gate.release();
        assert!(leader.join().is_err());
        assert!(waiter.join().is_err(), "the waiter must not hang");
    }
}
