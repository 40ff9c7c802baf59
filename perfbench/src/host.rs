//! The run's configuration, the process's peak memory, and the
//! in-memory page file.

use std::fs::File;
use std::path::PathBuf;

use crate::run::Options;

/// Configuration recorded with every run: the inputs, the build and
/// the host, so two runs can be told apart.
pub fn describe(opts: &Options) -> Vec<(&'static str, String)> {
    let p = &opts.params;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload", p.kind.name().to_string()),
        ("seed", p.seed.to_string()),
        ("n", p.n.to_string()),
        ("eps", p.eps.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", opts.trace.to_string()),
        ("setup_reps", p.setup_reps.to_string()),
        ("kernel_path", csj_geom::KernelPath::detect().name().to_string()),
        ("nproc", nproc.to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
    ]
}

/// Returns freed heap pages to the OS, so memory set-up no longer uses
/// does not count as resident in the passes that follow.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim takes no pointers and only releases free
        // heap pages; it is safe to call at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restarts the kernel's peak-RSS mark at the current RSS, so
/// [`peak_rss_mb`] covers only what follows. Returns `false` where the
/// kernel refuses (the peak then covers the whole process).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident memory in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Creates an anonymous in-memory file (`memfd_create`) and returns it
/// with the path, `/proc/self/fd/<n>`, by which this process can open
/// it again by name, as `FileDisk` and the join's prefetcher do. The
/// file lives as long as the returned handle.
///
/// # Errors
/// Returns a message when the kernel refuses to create the file.
pub fn memory_file(name: &std::ffi::CStr) -> Result<(File, PathBuf), String> {
    use std::os::fd::FromRawFd;
    extern "C" {
        fn memfd_create(name: *const std::ffi::c_char, flags: std::ffi::c_uint) -> i32;
    }
    // SAFETY: `name` is NUL-terminated and outlives the call; no flags
    // are passed.
    let fd = unsafe { memfd_create(name.as_ptr(), 0) };
    if fd < 0 {
        return Err(format!("memfd_create: {}", std::io::Error::last_os_error()));
    }
    // SAFETY: `fd` is a new descriptor that nothing else owns.
    let file = unsafe { File::from_raw_fd(fd) };
    Ok((file, PathBuf::from(format!("/proc/self/fd/{fd}"))))
}
