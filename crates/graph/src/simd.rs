//! The vector codegen paths of the crate's batch kernels — the `G(n,p)`
//! skip kernel (`generate::gnp`) and the grid range scan's distance
//! masks (`topology::grid`). Each kernel compiles one portable body
//! under each path's target features and dispatches on a
//! [`VectorPath`]; every path performs the same IEEE operations, so
//! the path changes only speed, never a bit of the output.

/// A vector codegen path: AVX-512 (f, dq, vl), AVX2, or portable code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum VectorPath {
    Avx512,
    Avx2,
    Portable,
}

impl VectorPath {
    /// Whether this host runs the path. A kernel checks it before it
    /// enters a feature-gated body, and runs a path the host lacks as
    /// portable code.
    #[inline]
    pub(crate) fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            VectorPath::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            VectorPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            VectorPath::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest path this host runs.
    #[inline]
    pub(crate) fn detect() -> Self {
        [VectorPath::Avx512, VectorPath::Avx2]
            .into_iter()
            .find(|path| path.available())
            .unwrap_or(VectorPath::Portable)
    }

    /// Every path this host runs, the portable one first: the kernels'
    /// tests force each of them.
    #[cfg(test)]
    pub(crate) fn host_paths() -> Vec<Self> {
        [VectorPath::Portable, VectorPath::Avx2, VectorPath::Avx512]
            .into_iter()
            .filter(|path| path.available())
            .collect()
    }
}
