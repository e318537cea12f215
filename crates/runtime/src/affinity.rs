//! Worker placement: each scheduler worker runs pinned to one CPU.
//!
//! A fan-out is only as parallel as the CPUs its workers land on.  The
//! kernel places a waking thread near its waker or on the CPU it last ran
//! on, and on small virtual machines that heuristic can herd every worker
//! of a pool onto one CPU and keep them there while the other CPU idles —
//! after which every Monte-Carlo batch wave takes twice as long until some
//! other load happens to disturb the placement.  Pinning the workers to
//! distinct CPUs takes that decision away from the wake-up path.
//!
//! Placement is round-robin over the CPUs the process may run on, read once
//! on first use.  Each scheduler takes a contiguous block of slots, so the
//! workers of one pool sit on distinct CPUs whenever the pool is no larger
//! than the CPU set, and consecutive pools (a server's label scheduler and
//! a second server's in the same process) each cover the set.  The sequence starts at an offset taken
//! from the process id, so several small-pooled processes on one large host
//! do not all crowd its first CPUs.  Under `taskset -c 0` the set is one CPU
//! and every worker runs there, exactly as unpinned.
//!
//! Linux only, like the reactor.  Elsewhere, and whenever the kernel refuses
//! the mask, a worker keeps the affinity it inherited.  The module declares
//! the two libc functions it needs, in the style of `rf-net`'s syscall
//! bindings, because the workspace takes no external dependencies.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The CPUs the process may run on, ascending, read once.  Empty when the
/// platform gives no answer, which turns pinning off.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(sys::current)
}

/// Reserves one CPU for each of `workers` new workers, consecutive in the
/// round-robin order; `None` for each when pinning is off.
pub(crate) fn reserve(workers: usize) -> Vec<Option<usize>> {
    static NEXT: OnceLock<AtomicUsize> = OnceLock::new();
    let cpus = allowed();
    if cpus.is_empty() {
        return vec![None; workers];
    }
    let next = NEXT.get_or_init(|| AtomicUsize::new(std::process::id() as usize));
    let first = next.fetch_add(workers, Ordering::Relaxed);
    (0..workers)
        .map(|slot| Some(cpus[first.wrapping_add(slot) % cpus.len()]))
        .collect()
}

/// Pins the calling thread to `cpu`.  Best effort: a refused mask leaves
/// the thread where it was.
pub(crate) fn pin_current(cpu: usize) {
    sys::pin(cpu);
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::c_int;

    /// `cpu_set_t`: 1024 bits, as glibc defines it.
    const WORDS: usize = 16;
    type CpuSet = [u64; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The calling thread's allowed CPUs, ascending.
    pub(super) fn current() -> Vec<usize> {
        let mut mask: CpuSet = [0; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if status != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    pub(super) fn pin(cpu: usize) {
        if cpu >= WORDS * 64 {
            return;
        }
        let mut mask: CpuSet = [0; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
        // names the calling thread.  Failure leaves the affinity unchanged.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(super) fn current() -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn pin(_cpu: usize) {}
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::Scheduler;
    use std::sync::{mpsc, Arc, Barrier};

    #[test]
    fn allowed_cpus_are_ascending_and_distinct() {
        let cpus = allowed();
        assert!(!cpus.is_empty(), "Linux always reports the affinity mask");
        assert!(cpus.windows(2).all(|pair| pair[0] < pair[1]), "{cpus:?}");
    }

    #[test]
    fn one_pool_spreads_its_workers_over_distinct_cpus() {
        let cpus = allowed();
        let workers = cpus.len().min(4);
        let scheduler = Scheduler::new(workers);
        // Every job holds its worker at the barrier until all have started,
        // so the `workers` jobs run on `workers` different threads.
        let gate = Arc::new(Barrier::new(workers));
        let (sender, receiver) = mpsc::channel();
        for _ in 0..workers {
            let gate = Arc::clone(&gate);
            let sender = sender.clone();
            scheduler.spawn_detached(move || {
                gate.wait();
                sender.send(sys::current()).unwrap();
            });
        }
        drop(sender);
        let mut seen: Vec<usize> = receiver
            .iter()
            .map(|mask| {
                assert_eq!(mask.len(), 1, "a worker runs pinned to one CPU: {mask:?}");
                assert!(cpus.contains(&mask[0]), "{mask:?} outside {cpus:?}");
                mask[0]
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), workers, "workers of one pool share no CPU");
    }
}
