//! The workspace's lock poison policy: every lock ignores poisoning, so a
//! caught task or pipeline panic leaves the shared DFS, engine and job
//! service usable. A critical section keeps its data valid wherever it can panic.

use std::sync::{LockResult, PoisonError};

/// The guard (or value) of a `lock`, `read`, `write`, `into_inner`,
/// `Condvar::wait` or `wait_timeout` result, poisoned or not.
pub trait Unpoisoned<G> {
    fn unpoisoned(self) -> G;
}

impl<G> Unpoisoned<G> for LockResult<G> {
    fn unpoisoned(self) -> G {
        self.unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::Unpoisoned;
    use std::sync::{Arc, Condvar, Mutex, RwLock};
    use std::time::Duration;

    #[test]
    fn a_mutex_whose_holder_panicked_stays_usable() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let caught = std::panic::catch_unwind(move || {
            let _g = m2.lock().unpoisoned();
            panic!("boom");
        });
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        *m.lock().unpoisoned() += 1;
        assert_eq!(*m.lock().unpoisoned(), 1);
    }

    #[test]
    fn condvar_notify_and_timeout() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            *m.lock().unpoisoned() = true;
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock().unpoisoned();
        while !*done {
            done = cv.wait(done).unpoisoned();
        }
        drop(done);
        t.join().unwrap();
        // A timed wait with nobody notifying reports a timeout, and the
        // guard it hands back is still valid.
        let g = m.lock().unpoisoned();
        let (g, res) = cv.wait_timeout(g, Duration::from_millis(5)).unpoisoned();
        assert!(res.timed_out());
        assert!(*g, "guard still valid after the timed wait");
    }

    #[test]
    fn rwlock_read_write_into_inner() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().unpoisoned().len(), 2);
        l.write().unpoisoned().push(3);
        assert_eq!(l.into_inner().unpoisoned(), vec![1, 2, 3]);
    }
}
