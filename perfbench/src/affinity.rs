//! Pinning the socket path to one CPU.
//!
//! With both cores of the reference host available, the scheduler places
//! the client, the connection thread and the tenant worker on one CPU for
//! a few seconds and then spreads them, and in this virtual machine waking
//! a halted CPU costs ~16 µs against ~2 µs for a hand-off on the same CPU:
//! the same frame takes 18 µs or 81 µs depending on the second it is sent
//! in. One frame is in flight, so the three threads never run at the same
//! time anyway (the same-CPU placement is as fast unpinned as pinned);
//! pinning them to one CPU keeps the cheap hand-off for the whole run and
//! takes nothing away. Threads inherit the mask of the thread that spawns
//! them, so pinning the caller before `Server::start` pins the server.

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at most
        // `cpusetsize` bytes and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed; the
        // call only reads it and keeps no pointer.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn get() -> Option<Mask> {
        None
    }

    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// While alive, the calling thread — and every thread spawned from it —
/// runs on the highest CPU the process is allowed to use (interrupts and
/// whatever else the host runs gather on the lowest). Dropping it gives
/// the calling thread its previous mask back.
pub struct Pinned {
    previous: Option<Mask>,
    /// The CPU pinned to, when pinning worked.
    pub cpu: Option<usize>,
}

impl Pinned {
    pub fn to_one_cpu() -> Pinned {
        let previous = sys::get();
        let cpu = previous.and_then(|allowed| {
            let word = allowed.iter().rposition(|w| *w != 0)?;
            let bit = 63 - allowed[word].leading_zeros() as usize;
            let mut one: Mask = [0; 16];
            one[word] = 1 << bit;
            sys::set(&one).then_some(word * 64 + bit)
        });
        if cpu.is_none() {
            eprintln!("perf: could not pin to one CPU; round trips may be bimodal");
        }
        Pinned { previous: cpu.and(previous), cpu }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(previous) = &self.previous {
            sys::set(previous);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn pins_to_one_cpu_and_restores() {
        let before = sys::get().expect("affinity is readable");
        {
            let pin = Pinned::to_one_cpu();
            assert!(pin.cpu.is_some());
            let during = sys::get().expect("affinity is readable");
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            let inherited = std::thread::spawn(sys::get).join().expect("thread joins");
            assert_eq!(inherited, Some(during));
        }
        assert_eq!(sys::get(), Some(before));
    }
}
