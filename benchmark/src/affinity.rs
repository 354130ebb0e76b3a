//! Which processors a thread may run on. The benchmark gives the server
//! and its own load generator separate processors: with both floating over
//! all of them, where the scheduler happens to put a connection thread next
//! to a client decides the latency, and two runs of one commit differ by a
//! factor of four.
//!
//! A new thread inherits the mask of the thread that creates it, so the
//! server's threads are placed by setting the mask around
//! `socialscope_server::spawn`: the accept thread and the workers inherit
//! it, and so does every connection thread the accept thread creates.

/// Processor numbers, as the kernel counts them.
pub type Cpus = Vec<usize>;

#[cfg(target_os = "linux")]
mod sys {
    /// Enough for 1024 processors, the size of glibc's `cpu_set_t`.
    pub const MASK_BYTES: usize = 128;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    }
}

/// The processors the calling thread may run on; empty where the platform
/// gives no answer, which turns every later [`pin`] into a no-op.
pub fn allowed() -> Cpus {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u8; sys::MASK_BYTES];
        // SAFETY: pid 0 names the calling thread; the kernel writes at most
        // `MASK_BYTES` bytes into `mask`, which is that long and lives
        // across the call.
        let status = unsafe { sys::sched_getaffinity(0, sys::MASK_BYTES, mask.as_mut_ptr()) };
        if status == 0 {
            return (0..sys::MASK_BYTES * 8)
                .filter(|cpu| mask[cpu / 8] >> (cpu % 8) & 1 == 1)
                .collect();
        }
    }
    Cpus::new()
}

/// Restrict the calling thread to `cpus`. Best effort: an empty set, a
/// processor beyond the mask or a refusal by the kernel leaves the thread
/// where it was, and the numbers are then noisier, not wrong.
pub fn pin(cpus: &[usize]) {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u8; sys::MASK_BYTES];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < sys::MASK_BYTES * 8) {
            mask[cpu / 8] |= 1 << (cpu % 8);
        }
        if mask.iter().any(|&byte| byte != 0) {
            // SAFETY: pid 0 names the calling thread; the kernel reads
            // `MASK_BYTES` bytes from `mask`, which is that long and lives
            // across the call.
            unsafe { sys::sched_setaffinity(0, sys::MASK_BYTES, mask.as_ptr()) };
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpus;
}

/// How the allowed processors are shared out: the load generator gets the
/// lower half (rounded down, at least one), the server the rest. With one
/// processor both share it.
pub fn split(allowed: &[usize]) -> (Cpus, Cpus) {
    if allowed.len() < 2 {
        return (allowed.to_vec(), allowed.to_vec());
    }
    let (clients, server) = allowed.split_at(allowed.len() / 2);
    (clients.to_vec(), server.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_split_gives_each_side_its_own_processors() {
        assert_eq!(split(&[0, 1]), (vec![0], vec![1]));
        assert_eq!(split(&[2, 5, 7]), (vec![2], vec![5, 7]));
        assert_eq!(split(&[0, 1, 2, 3]), (vec![0, 1], vec![2, 3]));
        assert_eq!(split(&[3]), (vec![3], vec![3]));
        assert_eq!(split(&[]), (vec![], vec![]));
    }

    #[test]
    fn a_pinned_thread_reports_its_mask_and_children_inherit_it() {
        let all = allowed();
        if all.len() < 2 {
            return;
        }
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pin(&all[..1]);
                assert_eq!(allowed(), all[..1]);
                let child = std::thread::spawn(allowed).join().unwrap();
                assert_eq!(child, all[..1]);
            });
        });
        assert_eq!(allowed(), all, "pinning one thread leaves the others alone");
    }
}
