//! Build-time execution options (how to build, not what to build).
//!
//! [`crate::PmLshParams`] fixes the *algorithmic* configuration — `m`, `c`,
//! `α₁`, the seed — while [`BuildOptions`] fixes only how the build is
//! executed. The two are deliberately separate: changing `BuildOptions`
//! never changes what the index computes, only how fast it gets there.

/// Execution options for [`crate::PmLsh::build_with_opts`].
///
/// `threads` drives the parallel phase of the build: the Gaussian
/// projection of all `n` points (`GaussianProjector::project_all_threaded`).
/// The served index keeps the projections as a column and bulk-loads no
/// PM-tree, so that is the whole of it; the projection is **thread-count
/// invariant**: the index built with 8 threads is identical to the one
/// built with 1 — and to [`crate::PmLsh::build`]'s, which is the 1-thread
/// build — so parallel builds stay reproducible and a snapshot can be
/// rebuilt bit-for-bit.
///
/// ```
/// use pm_lsh_core::BuildOptions;
/// assert_eq!(BuildOptions::default().threads, 1);
/// assert!(BuildOptions::all_cores().effective_threads() >= 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Worker threads for the build. `0` means available parallelism.
    pub threads: usize,
}

impl Default for BuildOptions {
    /// Single-threaded: the conservative choice for library callers that
    /// did not ask for background threads.
    fn default() -> Self {
        Self { threads: 1 }
    }
}

impl BuildOptions {
    /// Builds on every available core (`threads = 0`).
    pub fn all_cores() -> Self {
        Self { threads: 0 }
    }

    /// Builds on exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The effective worker count (`threads`, or available parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}
