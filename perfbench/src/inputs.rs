//! The generated inputs: package mixes, file contents and upgrade
//! patches, all a pure function of the run's `--seed`. The nodes see
//! only these bytes; the checks compare against them.

use std::sync::Arc;

use globe_sim::Rng;

/// One file and every version of it the benchmark has written, oldest
/// first (version 0 is the published content).
#[derive(Clone)]
pub struct FileGen {
    /// File name inside its package.
    pub name: String,
    /// Contents per version.
    pub versions: Vec<Arc<Vec<u8>>>,
}

/// One package of the mix.
#[derive(Clone)]
pub struct PackageGen {
    /// Globe object name, e.g. `/bench/s3`.
    pub name: String,
    /// Its files.
    pub files: Vec<FileGen>,
}

impl PackageGen {
    /// `(file name, size)` of the newest version of every file, as a
    /// listing must show them.
    pub fn listing(&self) -> Vec<(String, usize)> {
        self.files
            .iter()
            .map(|f| (f.name.clone(), f.versions.last().map_or(0, |v| v.len())))
            .collect()
    }
}

/// What one read fetches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A package's listing page.
    Listing(usize),
    /// One file of a package.
    File(usize, usize),
}

/// How a mix is shaped.
pub struct MixSpec {
    /// Name prefix, e.g. `/bench/s`.
    pub prefix: &'static str,
    /// Packages in the mix.
    pub packages: usize,
    /// Files per package.
    pub files: usize,
    /// File size in bytes, inclusive range. File `j` of every package
    /// draws its size from the middle quarter of the `j`th of `files`
    /// equal strata of the range, so every package holds the same spread
    /// of sizes and a seed cannot make the popular packages all large or
    /// all small.
    pub size: (usize, usize),
    /// Round sizes to this multiple (4 KiB for chunk-aligned files).
    pub align: usize,
}

/// Deterministic pseudo-random bytes for one `(seed, stream)` pair.
pub fn bytes(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Generates a package mix.
pub fn mix(spec: &MixSpec, seed: u64) -> Vec<PackageGen> {
    let mut rng = Rng::new(seed);
    (0..spec.packages)
        .map(|p| {
            let stratum = (spec.size.1 - spec.size.0) / spec.files;
            let files = (0..spec.files)
                .map(|f| {
                    let raw = spec.size.0
                        + f * stratum
                        + stratum * 3 / 8
                        + rng.gen_index(stratum / 4 + 1);
                    let size = (raw / spec.align).max(1) * spec.align;
                    let stream = ((p as u64) << 20) | ((f as u64) << 8);
                    FileGen {
                        name: format!("f{f}.bin"),
                        versions: vec![Arc::new(bytes(seed, stream, size))],
                    }
                })
                .collect();
            PackageGen {
                name: format!("{}{p}", spec.prefix),
                files,
            }
        })
        .collect()
}

/// Every `(package, file)` pair of a mix, in a fixed order.
pub fn all_files(mix: &[PackageGen]) -> Vec<(usize, usize)> {
    mix.iter()
        .enumerate()
        .flat_map(|(p, pkg)| (0..pkg.files.len()).map(move |f| (p, f)))
        .collect()
}

/// One upgrade: which file, and its complete new contents.
pub struct Upgrade {
    /// Package index.
    pub pkg: usize,
    /// File index within the package.
    pub file: usize,
    /// The new contents.
    pub data: Arc<Vec<u8>>,
}

/// The `k`th upgrade of a run: rewrites one `part`-byte, `part`-aligned
/// region of the `current` contents of one of `files` (the whole file
/// when it is no larger than `part`). Upgrades cycle through the files
/// in a seed-shuffled order, so every run upgrades every file equally
/// often and a seed cannot load the stream with only large or only
/// small files. A pure function of `(seed, k)` and those contents.
pub fn upgrade(
    files: &[(usize, usize)],
    current: impl Fn(usize, usize) -> Arc<Vec<u8>>,
    seed: u64,
    k: u64,
    part: usize,
) -> Upgrade {
    let mut order: Vec<usize> = (0..files.len()).collect();
    Rng::new(seed ^ 0x0DE5).shuffle(&mut order);
    let (pkg, file) = files[order[(k % files.len() as u64) as usize]];
    let mut rng = Rng::new(seed ^ 0x005E_ED0F_u64.wrapping_mul(k + 1));
    let mut data = current(pkg, file).as_ref().clone();
    let parts = data.len().div_ceil(part).max(1);
    let at = rng.gen_index(parts) * part;
    let end = (at + part).min(data.len());
    let fresh = bytes(seed, 0xC0DE_0000 + k, end - at);
    data[at..end].copy_from_slice(&fresh);
    Upgrade {
        pkg,
        file,
        data: Arc::new(data),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let spec = MixSpec {
            prefix: "/t/p",
            packages: 4,
            files: 3,
            size: (512, 8192),
            align: 1,
        };
        let a = mix(&spec, 7);
        let b = mix(&spec, 7);
        let c = mix(&spec, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.listing(), y.listing());
            for (f, g) in x.files.iter().zip(&y.files) {
                assert_eq!(f.versions, g.versions);
            }
        }
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.files[0].versions != y.files[0].versions));
    }

    #[test]
    fn upgrade_rewrites_one_aligned_part() {
        let spec = MixSpec {
            prefix: "/t/l",
            packages: 2,
            files: 1,
            size: (64 * 1024, 64 * 1024),
            align: 4096,
        };
        let m = mix(&spec, 3);
        let u = upgrade(
            &all_files(&m),
            |p, f| Arc::clone(&m[p].files[f].versions[0]),
            3,
            0,
            4096,
        );
        let old = &m[u.pkg].files[u.file].versions[0];
        let diff: Vec<usize> = (0..old.len()).filter(|&i| old[i] != u.data[i]).collect();
        assert!(!diff.is_empty());
        assert_eq!(diff[0] / 4096, diff[diff.len() - 1] / 4096);
    }
}
