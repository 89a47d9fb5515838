//! Offline shim for the subset of `parking_lot` this workspace uses.
//!
//! The build environment has no registry access, so the workspace vendors a
//! tiny API-compatible layer over `std::sync`. Differences from real
//! parking_lot that matter here:
//!
//! * no poisoning — a panicked holder's data stays accessible (matches
//!   parking_lot semantics, implemented via `into_inner` on the poison
//!   error);
//! * `lock()` / `read()` / `write()` are infallible and return guards
//!   directly;
//! * like parking_lot's, and unlike `std`'s, the [`RwLock`] does not let
//!   new readers overtake a writer that is already waiting.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual exclusion primitive (no poisoning).
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized>(std::sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A reader-writer lock (no poisoning) that a steady stream of readers
/// cannot starve a writer on.
///
/// `std`'s lock wakes a waiting writer by clearing its waiting mark, so a
/// reader that releases and at once re-acquires gets in ahead of the
/// writer it just woke — a thread scanning in a loop can hold a writer
/// off for many scans. Here a writer waits for the readers to drain while
/// holding `gate`, and every reader passes through `gate` first: readers
/// that arrive after the writer queue behind it.
pub struct RwLock<T: ?Sized> {
    gate: std::sync::Mutex<()>,
    inner: std::sync::RwLock<T>,
}

/// RAII guard for [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// RAII guard for [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            gate: std::sync::Mutex::new(()),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        drop(self.gate.lock().unwrap_or_else(|e| e.into_inner()));
        RwLockReadGuard(self.inner.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        RwLockWriteGuard(self.inner.write().unwrap_or_else(|e| e.into_inner()))
    }

    /// Attempts shared read access without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockReadGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Attempts exclusive write access without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.inner.try_write() {
            Ok(g) => Some(RwLockWriteGuard(g)),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(RwLockWriteGuard(e.into_inner())),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn no_poisoning_after_panic() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }
}
