//! # Sync facade — the one gate between workspace code and the OS
//!
//! Every crate in this workspace synchronizes through these wrappers
//! instead of `std::sync` / `std::thread` (enforced by `hc-check`'s
//! `lint-sync` pass). In a normal build each wrapper compiles down to the
//! corresponding `std` primitive with poison swallowed (parking_lot
//! semantics: a poisoned lock hands back the inner guard). Under
//! `--cfg hc_check` the same wrappers additionally report every
//! acquisition, release, atomic access and thread event to the
//! `model` scheduler, which serializes the program onto one running
//! thread at a time and exhaustively explores interleavings — a
//! hand-rolled analogue of `loom`.
//!
//! ## Naming locks
//!
//! Locks carry a `&'static str` class name ([`Mutex::named`]) used by the
//! model's lock-order analysis: acquisition edges are recorded between
//! *names*, so every "plan-shard" mutex is one node regardless of how
//! many shard instances exist. Unnamed locks share the `"mutex"` class.
//!
//! ## Hazard-flagged locks
//!
//! [`Mutex::hazard`] marks a lock whose guard must never be held across a
//! device-execution boundary (the `Workspace` arena invariant).
//! Guard acquisition/release maintains a thread-local count and
//! [`assert_no_hazard_guards`] — called at the top of
//! `DeviceSpec::execute` — turns a violation into a debug-build panic
//! instead of a convention.

pub mod channel;

#[cfg(hc_check)]
pub mod model;

#[cfg(hc_check)]
pub use model::RaceCell;

pub use channel::{Bounded, TrySendError};

pub use std::sync::atomic::Ordering;

use std::cell::Cell;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

thread_local! {
    /// Count of live hazard-flagged guards on this thread.
    static HAZARD_GUARDS: Cell<u32> = const { Cell::new(0) };
}

/// Debug-assert that no hazard-flagged lock guard (see [`Mutex::hazard`])
/// is live on the calling thread. Call sites name themselves so the
/// panic message points at the boundary that was crossed, e.g.
/// `DeviceSpec::execute`.
pub fn assert_no_hazard_guards(site: &str) {
    #[cfg(debug_assertions)]
    {
        let held = HAZARD_GUARDS.with(Cell::get);
        debug_assert_eq!(
            held, 0,
            "hazard-flagged lock guard held across {site}: workspace-class \
             locks must be released before entering a device execution \
             boundary (checkout/check_in around the call, never across it)"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = site;
}

/// Number of hazard-flagged guards currently live on this thread
/// (diagnostic hook for tests).
pub fn hazard_guards_held() -> u32 {
    HAZARD_GUARDS.with(Cell::get)
}

#[cfg(hc_check)]
fn obj_id<T: ?Sized>(p: *const T) -> u64 {
    p.cast::<()>() as u64
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Mutual exclusion lock: `std::sync::Mutex` with poison swallowed, a
/// lock-class name, and (under `hc_check`) full model instrumentation.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    name: &'static str,
    hazard: bool,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap a value under the anonymous `"mutex"` lock class.
    pub const fn new(value: T) -> Self {
        Self::named("mutex", value)
    }

    /// Wrap a value under lock class `name` (usable in `static`s).
    pub const fn named(name: &'static str, value: T) -> Self {
        Mutex {
            name,
            hazard: false,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Wrap a value under lock class `name`, flagging its guards as
    /// *hazardous*: they must not be held across a device-execution
    /// boundary (see [`assert_no_hazard_guards`]).
    pub const fn hazard(name: &'static str, value: T) -> Self {
        Mutex {
            name,
            hazard: true,
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// The lock-class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(hc_check)]
        model::op(model::OpKind::MutexLock, obj_id(self), 0, self.name);
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if self.hazard {
            HAZARD_GUARDS.with(|c| c.set(c.get() + 1));
        }
        MutexGuard {
            inner: ManuallyDrop::new(g),
            lock: self,
        }
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(hc_check)]
        if let Some(granted) = model::op(model::OpKind::MutexTryLock, obj_id(self), 0, self.name) {
            if granted == 0 {
                return None;
            }
            // The model granted the lock, so the real acquisition below
            // cannot contend (only one model thread runs at a time).
        }
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        if self.hazard {
            HAZARD_GUARDS.with(|c| c.set(c.get() + 1));
        }
        Some(MutexGuard {
            inner: ManuallyDrop::new(g),
            lock: self,
        })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard for [`Mutex`]; releases (and reports the release to the
/// model) on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: ManuallyDrop<std::sync::MutexGuard<'a, T>>,
    lock: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.lock.hazard {
            HAZARD_GUARDS.with(|c| c.set(c.get().saturating_sub(1)));
        }
        // SAFETY: the guard is dropped exactly once, here; `inner` is
        // never touched again.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        #[cfg(hc_check)]
        model::op(
            model::OpKind::MutexUnlock,
            obj_id(self.lock),
            0,
            self.lock.name,
        );
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Reader-writer lock: `std::sync::RwLock` with poison swallowed, a lock
/// class name and model instrumentation.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized> {
    name: &'static str,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Wrap a value under the anonymous `"rwlock"` class.
    pub const fn new(value: T) -> Self {
        Self::named("rwlock", value)
    }

    /// Wrap a value under lock class `name`.
    pub const fn named(name: &'static str, value: T) -> Self {
        RwLock {
            name,
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// The lock-class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire a shared read guard, ignoring poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(hc_check)]
        model::op(model::OpKind::RwRead, obj_id(self), 0, self.name);
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard {
            inner: ManuallyDrop::new(g),
            lock: self,
        }
    }

    /// Acquire an exclusive write guard, ignoring poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(hc_check)]
        model::op(model::OpKind::RwWrite, obj_id(self), 0, self.name);
        let g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard {
            inner: ManuallyDrop::new(g),
            lock: self,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: ManuallyDrop<std::sync::RwLockReadGuard<'a, T>>,
    #[cfg_attr(not(hc_check), allow(dead_code))]
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: dropped exactly once, never touched again.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        #[cfg(hc_check)]
        model::op(
            model::OpKind::RwUnlockRead,
            obj_id(self.lock),
            0,
            self.lock.name,
        );
    }
}

/// Exclusive write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: ManuallyDrop<std::sync::RwLockWriteGuard<'a, T>>,
    #[cfg_attr(not(hc_check), allow(dead_code))]
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: dropped exactly once, never touched again.
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        #[cfg(hc_check)]
        model::op(
            model::OpKind::RwUnlockWrite,
            obj_id(self.lock),
            0,
            self.lock.name,
        );
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Condition variable over the facade [`Mutex`].
///
/// Under the model the wait is approximated as release → park-until
/// notified → reacquire (no spurious wakeups are explored).
#[derive(Debug, Default)]
pub struct Condvar {
    name: &'static str,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// The condvar-class name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// New condition variable under the anonymous `"condvar"` class.
    pub const fn new() -> Self {
        Self::named("condvar")
    }

    /// New condition variable under class `name`.
    pub const fn named(name: &'static str) -> Self {
        Condvar {
            name,
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release `guard`'s mutex and wait for a notification,
    /// reacquiring before returning.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let mut guard = ManuallyDrop::new(guard);
        // SAFETY: `guard` is wrapped in ManuallyDrop and forgotten below,
        // so the inner std guard is moved out exactly once.
        let std_guard = unsafe { ManuallyDrop::take(&mut guard.inner) };
        let lock = guard.lock;
        // `guard` (ManuallyDrop) is dropped without running Drop.
        if lock.hazard {
            HAZARD_GUARDS.with(|c| c.set(c.get().saturating_sub(1)));
        }
        #[cfg(hc_check)]
        let modeled = model::op(
            model::OpKind::CvRelease,
            obj_id(self),
            obj_id(lock),
            self.name,
        )
        .is_some();
        #[cfg(not(hc_check))]
        let modeled = false;
        let g = if modeled {
            #[cfg(hc_check)]
            {
                drop(std_guard);
                // Parks until notified and the mutex is free, then owns
                // the mutex in the model; the real lock cannot contend.
                model::op(
                    model::OpKind::CvReacquire,
                    obj_id(self),
                    obj_id(lock),
                    self.name,
                );
                lock.inner.lock().unwrap_or_else(PoisonError::into_inner)
            }
            #[cfg(not(hc_check))]
            unreachable!()
        } else {
            self.inner
                .wait(std_guard)
                .unwrap_or_else(PoisonError::into_inner)
        };
        if lock.hazard {
            HAZARD_GUARDS.with(|c| c.set(c.get() + 1));
        }
        MutexGuard {
            inner: ManuallyDrop::new(g),
            lock,
        }
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        #[cfg(hc_check)]
        if model::op(model::OpKind::CvNotifyOne, obj_id(self), 0, self.name).is_some() {
            return;
        }
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        #[cfg(hc_check)]
        if model::op(model::OpKind::CvNotifyAll, obj_id(self), 0, self.name).is_some() {
            return;
        }
        self.inner.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

macro_rules! atomic_facade {
    ($(#[$doc:meta])* $name:ident, $std:ty, $ty:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            #[cfg_attr(not(hc_check), allow(dead_code))]
            tracked: bool,
            inner: $std,
        }

        impl $name {
            /// New *tracked* atomic: under the model every access is an
            /// interleaving point explored by the checker.
            pub const fn new(value: $ty) -> Self {
                $name { tracked: true, inner: <$std>::new(value) }
            }

            /// New *untracked* atomic: exempt from model exploration.
            /// For quiescent configuration cells and monotonic stats
            /// counters whose interleavings are not worth state space.
            pub const fn new_untracked(value: $ty) -> Self {
                $name { tracked: false, inner: <$std>::new(value) }
            }

            #[cfg(hc_check)]
            fn trace(&self, kind: model::OpKind) {
                if self.tracked {
                    model::op(kind, obj_id(self), 0, stringify!($name));
                }
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> $ty {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicLoad);
                self.inner.load(order)
            }

            /// Atomic store.
            pub fn store(&self, value: $ty, order: Ordering) {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicStore);
                self.inner.store(value, order)
            }

            /// Atomic swap, returning the previous value.
            pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicRmw);
                self.inner.swap(value, order)
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicRmw);
                self.inner.fetch_add(value, order)
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicRmw);
                self.inner.fetch_sub(value, order)
            }

            /// Atomic max, returning the previous value.
            pub fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicRmw);
                self.inner.fetch_max(value, order)
            }

            /// Atomic min, returning the previous value.
            pub fn fetch_min(&self, value: $ty, order: Ordering) -> $ty {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicRmw);
                self.inner.fetch_min(value, order)
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                #[cfg(hc_check)]
                self.trace(model::OpKind::AtomicRmw);
                self.inner.compare_exchange(current, new, success, failure)
            }
        }
    };
}

atomic_facade!(
    /// Facade over `std::sync::atomic::AtomicU64`.
    AtomicU64,
    std::sync::atomic::AtomicU64,
    u64
);
atomic_facade!(
    /// Facade over `std::sync::atomic::AtomicU32`.
    AtomicU32,
    std::sync::atomic::AtomicU32,
    u32
);
atomic_facade!(
    /// Facade over `std::sync::atomic::AtomicU8`.
    AtomicU8,
    std::sync::atomic::AtomicU8,
    u8
);
atomic_facade!(
    /// Facade over `std::sync::atomic::AtomicUsize`.
    AtomicUsize,
    std::sync::atomic::AtomicUsize,
    usize
);

/// Facade over `std::sync::atomic::AtomicBool`.
#[derive(Debug, Default)]
pub struct AtomicBool {
    #[cfg_attr(not(hc_check), allow(dead_code))]
    tracked: bool,
    inner: std::sync::atomic::AtomicBool,
}

impl AtomicBool {
    /// New tracked atomic flag (model-explored).
    pub const fn new(value: bool) -> Self {
        AtomicBool {
            tracked: true,
            inner: std::sync::atomic::AtomicBool::new(value),
        }
    }

    /// New untracked atomic flag (exempt from model exploration).
    pub const fn new_untracked(value: bool) -> Self {
        AtomicBool {
            tracked: false,
            inner: std::sync::atomic::AtomicBool::new(value),
        }
    }

    /// Atomic load.
    pub fn load(&self, order: Ordering) -> bool {
        #[cfg(hc_check)]
        if self.tracked {
            model::op(model::OpKind::AtomicLoad, obj_id(self), 0, "AtomicBool");
        }
        self.inner.load(order)
    }

    /// Atomic store.
    pub fn store(&self, value: bool, order: Ordering) {
        #[cfg(hc_check)]
        if self.tracked {
            model::op(model::OpKind::AtomicStore, obj_id(self), 0, "AtomicBool");
        }
        self.inner.store(value, order)
    }

    /// Atomic swap, returning the previous value.
    pub fn swap(&self, value: bool, order: Ordering) -> bool {
        #[cfg(hc_check)]
        if self.tracked {
            model::op(model::OpKind::AtomicRmw, obj_id(self), 0, "AtomicBool");
        }
        self.inner.swap(value, order)
    }
}

// ---------------------------------------------------------------------------
// Threads
// ---------------------------------------------------------------------------

/// Thread spawning routed through the model under `hc_check`.
pub mod thread {
    use std::any::Any;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex as StdMutex};

    #[cfg(hc_check)]
    use super::model;

    /// Panic payload type carried by joins and scope results.
    pub type PanicPayload = Box<dyn Any + Send + 'static>;

    type PanicSlot = Arc<StdMutex<Option<PanicPayload>>>;

    fn stash_first(slot: &PanicSlot, payload: PanicPayload) -> Option<PanicPayload> {
        let mut s = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.is_none() {
            *s = Some(payload);
            None
        } else {
            Some(payload)
        }
    }

    /// Handle to a spawned (non-scoped) thread.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<Result<T, PanicPayload>>,
        #[cfg(hc_check)]
        tid: Option<usize>,
    }

    impl<T> JoinHandle<T> {
        /// Wait for the thread to finish, returning its value or the
        /// panic payload it raised.
        pub fn join(self) -> Result<T, PanicPayload> {
            #[cfg(hc_check)]
            if let Some(tid) = self.tid {
                model::op(model::OpKind::Join, tid as u64, 0, "join");
            }
            match self.inner.join() {
                Ok(r) => r,
                Err(payload) => Err(payload),
            }
        }
    }

    /// Spawn a thread. Under the model the spawn, the thread body and the
    /// join are all scheduling points explored by the checker.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        #[cfg(hc_check)]
        {
            let token = model::spawn_prepare("thread");
            let tid = token.as_ref().map(|t| t.tid());
            let inner = std::thread::spawn(move || match token {
                Some(tok) => model::child_run(tok, f),
                None => catch_unwind(AssertUnwindSafe(f)),
            });
            JoinHandle { inner, tid }
        }
        #[cfg(not(hc_check))]
        {
            let inner = std::thread::spawn(move || catch_unwind(AssertUnwindSafe(f)));
            JoinHandle { inner }
        }
    }

    /// Handle through which scoped threads are spawned (crossbeam-style:
    /// the closure receives the scope back so workers can nest).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        first_panic: PanicSlot,
        #[cfg(hc_check)]
        children: Arc<StdMutex<Vec<usize>>>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread bound to the scope. The returned handle yields
        /// `Some(value)`, or `None` if the child panicked (the payload
        /// travels to [`scope`]'s `Err`).
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, Option<T>>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            let first_panic = Arc::clone(&self.first_panic);
            #[cfg(hc_check)]
            let children = Arc::clone(&self.children);
            #[cfg(hc_check)]
            let token = {
                let tok = model::spawn_prepare("scoped");
                if let Some(t) = &tok {
                    children
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(t.tid());
                }
                tok
            };
            inner.spawn(move || {
                let scope = Scope {
                    inner,
                    first_panic: Arc::clone(&first_panic),
                    #[cfg(hc_check)]
                    children: Arc::clone(&children),
                };
                #[cfg(hc_check)]
                if let Some(tok) = token {
                    return match model::child_run(tok, move || f(&scope)) {
                        Ok(v) => Some(v),
                        Err(payload) => {
                            // Run is aborting (the model recorded the
                            // violation); stash the original payload so a
                            // caller inspecting Err still sees it.
                            if !payload.is::<model::ModelAbort>() {
                                stash_first(&first_panic, payload);
                            }
                            None
                        }
                    };
                }
                match catch_unwind(AssertUnwindSafe(|| f(&scope))) {
                    Ok(v) => Some(v),
                    Err(payload) => {
                        let payload = match stash_first(&first_panic, payload) {
                            None => Box::new("scoped thread panicked (payload captured by scope)")
                                as PanicPayload,
                            Some(p) => p,
                        };
                        resume_unwind(payload)
                    }
                }
            })
        }
    }

    /// Run `f` with a scope in which borrowing, scoped threads can be
    /// spawned; all are joined before `scope` returns. A panicking child
    /// surfaces as `Err(first_child_payload)` (crossbeam semantics)
    /// rather than unwinding the caller.
    pub fn scope<'env, F, R>(f: F) -> Result<R, PanicPayload>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        let first_panic: PanicSlot = Arc::new(StdMutex::new(None));
        #[cfg(hc_check)]
        let children: Arc<StdMutex<Vec<usize>>> = Arc::new(StdMutex::new(Vec::new()));
        let result = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                let scope = Scope {
                    inner: s,
                    first_panic: Arc::clone(&first_panic),
                    #[cfg(hc_check)]
                    children: Arc::clone(&children),
                };
                let r = catch_unwind(AssertUnwindSafe(|| f(&scope)));
                #[cfg(hc_check)]
                {
                    match &r {
                        // Model-join every child before std's auto-join so
                        // the scheduler runs them to completion.
                        Ok(_) => model::join_children(&children),
                        // The scope body panicked: release parked children
                        // (they exit via ModelAbort) so auto-join returns.
                        Err(_) => model::abort_if_active(),
                    }
                }
                match r {
                    Ok(v) => v,
                    Err(payload) => resume_unwind(payload),
                }
            })
        }));
        match result {
            Ok(v) => Ok(v),
            Err(outer) => {
                #[cfg(hc_check)]
                if outer.is::<model::ModelAbort>() || model::active_here() {
                    // Keep aborting the model run; the checker records the
                    // real payload at the run boundary.
                    resume_unwind(outer);
                }
                let stashed = first_panic
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take();
                Err(stashed.unwrap_or(outer))
            }
        }
    }

    /// Host parallelism (`std::thread::available_parallelism`), with a
    /// floor of 1. Read once per process: the standard call reads cgroup
    /// files on Linux (tens of microseconds), and the pool asks on every
    /// parallel region that has no thread override.
    pub fn available_parallelism() -> usize {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *CORES.get_or_init(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Cooperative yield: a scheduling point under the model, an OS yield
    /// otherwise.
    pub fn yield_now() {
        #[cfg(hc_check)]
        if model::op(model::OpKind::Yield, 0, 0, "yield").is_some() {
            return;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        static M: Mutex<i32> = Mutex::named("test-static", 0);
        *M.lock() += 41;
        *M.lock() += 1;
        assert_eq!(*M.lock(), 42);
        assert_eq!(M.name(), "test-static");
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn try_lock_contends() {
        let m = Mutex::new(7);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().expect("free"), 7);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::named("rw-test", vec![1, 2]);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[test]
    fn hazard_guard_counting() {
        let safe = Mutex::named("plain", 0u8);
        let hot = Mutex::hazard("arena", 0u8);
        assert_eq!(hazard_guards_held(), 0);
        let g1 = safe.lock();
        assert_eq!(hazard_guards_held(), 0);
        let g2 = hot.lock();
        assert_eq!(hazard_guards_held(), 1);
        assert_no_hazard_guards_would_fail();
        drop(g2);
        assert_eq!(hazard_guards_held(), 0);
        assert_no_hazard_guards("test-site");
        drop(g1);
    }

    #[cfg(debug_assertions)]
    fn assert_no_hazard_guards_would_fail() {
        let r = std::panic::catch_unwind(|| assert_no_hazard_guards("test-site"));
        assert!(r.is_err(), "hazard assert must fire with a live guard");
    }

    #[cfg(not(debug_assertions))]
    fn assert_no_hazard_guards_would_fail() {}

    #[test]
    fn condvar_wakes_waiter() {
        let pair = std::sync::Arc::new((Mutex::named("cv-mutex", false), Condvar::new()));
        let pair2 = std::sync::Arc::clone(&pair);
        let h = thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut done = m.lock();
            *done = true;
            drop(done);
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut done = m.lock();
        while !*done {
            done = cv.wait(done);
        }
        drop(done);
        h.join().expect("notifier joins");
    }

    #[test]
    fn atomics_roundtrip() {
        let a = AtomicU64::new_untracked(5);
        assert_eq!(a.fetch_add(3, Ordering::Relaxed), 5);
        assert_eq!(a.load(Ordering::Relaxed), 8);
        a.store(1, Ordering::Relaxed);
        assert_eq!(a.swap(2, Ordering::Relaxed), 1);
        assert_eq!(
            a.compare_exchange(2, 9, Ordering::Relaxed, Ordering::Relaxed),
            Ok(2)
        );
        assert_eq!(a.fetch_max(4, Ordering::Relaxed), 9);
        assert_eq!(a.fetch_min(3, Ordering::Relaxed), 9);
        assert_eq!(a.load(Ordering::Relaxed), 3);
        let b = AtomicBool::new_untracked(false);
        assert!(!b.swap(true, Ordering::Relaxed));
        assert!(b.load(Ordering::Relaxed));
    }

    #[test]
    fn scope_joins_and_captures_panics() {
        let mut data = vec![0u32; 64];
        thread::scope(|scope| {
            for (t, chunk) in data.chunks_mut(16).enumerate() {
                scope.spawn(move |_| {
                    for (i, cell) in chunk.iter_mut().enumerate() {
                        *cell = (t * 16 + i) as u32;
                    }
                });
            }
        })
        .expect("workers joined");
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));

        let r = thread::scope(|scope| {
            scope.spawn(|_| panic!("child panic"));
        });
        let payload = r.expect_err("child panic surfaces as Err");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"child panic"));
    }

    #[test]
    fn spawn_join_roundtrip() {
        let h = thread::spawn(|| 6 * 7);
        assert_eq!(h.join().expect("clean exit"), 42);
        let h = thread::spawn(|| panic!("boom"));
        let payload = h.join().expect_err("panic propagates via join");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }
}
