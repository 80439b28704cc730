//! Pins the calling thread to one CPU.
//!
//! Each timed repetition runs on one CPU, and successive repetitions take
//! the allowed CPUs in turn.  On a virtual machine whose CPUs share a busy
//! host, each CPU goes through slow phases of its own; taking turns lets
//! every segment of a pass meet a fast phase on one of them.  A thread the
//! engine spawns inherits the pin, and `available_parallelism`, which
//! `reproduce` uses for its thread count, reads 1 while it holds.

/// `cpu_set_t` of glibc: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty if the set
/// cannot be read.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..set.len() * 64)
        .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread to `cpu`; false if the kernel refused.
pub fn pin(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    if cpu >= set.len() * 64 {
        return false;
    }
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_allowed_set_and_the_parallelism() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        let cpu = *cpus.last().unwrap();
        // Run on a thread of its own: the pin must not leak into other tests.
        std::thread::spawn(move || {
            assert!(pin(cpu));
            assert_eq!(allowed(), vec![cpu]);
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
        })
        .join()
        .unwrap();
    }
}
