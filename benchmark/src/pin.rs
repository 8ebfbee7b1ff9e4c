//! CPU pinning (rule 2). Two libc calls declared by hand — the build is
//! offline and the `libc` crate is not among the repo's dependencies.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte buffer and the size
    // passed is exactly its size; pid 0 addresses the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread to one CPU; threads and processes it starts
/// afterwards inherit the mask.
#[cfg(target_os = "linux")]
pub fn pin_to(cpu: usize) -> Result<(), String> {
    if cpu >= 1024 {
        return Err(format!("cpu {cpu} does not fit a cpu_set_t"));
    }
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live 128-byte buffer read by the call, the size
    // passed is exactly its size; pid 0 addresses the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpu}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    Err("CPU affinity is only implemented for Linux".to_string())
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to(_cpu: usize) -> Result<(), String> {
    Err("CPU affinity is only implemented for Linux".to_string())
}

/// Where a run's threads go: everything on `main`, except the second
/// caller of `lib-sharded-mixed` and the traced run's open-loop
/// generator on `other` (equal to `main` when only one CPU is allowed).
#[derive(Clone, Debug)]
pub struct Pinning {
    pub allowed: Vec<usize>,
    pub main: usize,
    pub other: usize,
    /// Why pinning failed, if it did — the run is then invalid.
    pub error: Option<String>,
}

impl Pinning {
    /// Pins the calling thread to the last allowed CPU.
    pub fn establish() -> Pinning {
        match allowed_cpus() {
            Ok(allowed) if !allowed.is_empty() => {
                let main = allowed[allowed.len() - 1];
                let other = allowed[allowed.len().saturating_sub(2)];
                let error = pin_to(main).err();
                Pinning {
                    allowed,
                    main,
                    other,
                    error,
                }
            }
            Ok(_) => Pinning::failed("empty affinity mask".to_string()),
            Err(e) => Pinning::failed(e),
        }
    }

    fn failed(error: String) -> Pinning {
        Pinning {
            allowed: Vec::new(),
            main: 0,
            other: 0,
            error: Some(error),
        }
    }

    /// Callers a two-caller workload can really run side by side.
    pub fn callers(&self, wanted: usize) -> usize {
        wanted.min(self.allowed.len().max(1))
    }
}
