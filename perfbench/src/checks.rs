//! The benchmark's correctness checks. Every expected value here is
//! computed from the benchmark's own generated inputs, never read back
//! from the program under test.
//!
//! [`self_test`] runs at the start of every run: a checker that stops
//! rejecting what it exists to reject would let a broken program
//! through, so the run refuses to measure with it.

use std::collections::HashMap;

/// Checks a fetched body against the bytes the benchmark generated.
pub fn body_matches(expected: &[u8], got: &[u8]) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "body is {} bytes, expected {}",
            got.len(),
            expected.len()
        ));
    }
    match expected.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(at) => Err(format!(
            "body differs from the generated bytes at offset {at} of {}",
            expected.len()
        )),
    }
}

/// Checks a package listing page: it must name exactly the generated
/// files, each with its generated size.
pub fn listing_matches(html: &str, expected: &[(String, usize)]) -> Result<(), String> {
    let mut seen: Vec<(String, usize)> = Vec::new();
    for item in html.split("<li>").skip(1) {
        let name = item
            .split_once("\">")
            .and_then(|(_, rest)| rest.split_once("</a>"))
            .map(|(n, _)| n.to_owned())
            .ok_or_else(|| format!("unparseable listing entry {item:?}"))?;
        let size = item
            .split_once("</a> (")
            .and_then(|(_, rest)| rest.split_once(" bytes)"))
            .and_then(|(n, _)| n.parse::<usize>().ok())
            .ok_or_else(|| format!("listing entry {name:?} has no size"))?;
        seen.push((name, size));
    }
    let mut want = expected.to_vec();
    want.sort();
    seen.sort();
    if seen != want {
        return Err(format!("listing names {seen:?}, expected {want:?}"));
    }
    Ok(())
}

/// Which of the versions the benchmark wrote (oldest first) `got` is,
/// searching newest first. `None` when it is none of them.
pub fn version_of<T: AsRef<Vec<u8>>>(versions: &[T], got: &[u8]) -> Option<usize> {
    versions.iter().rposition(|v| v.as_ref().as_slice() == got)
}

/// Per-reader memory of the newest version seen of each file, so a
/// version going backwards at one reader is caught.
#[derive(Default)]
pub struct Monotonic {
    last: HashMap<usize, usize>,
}

impl Monotonic {
    /// Records that this reader saw `version` of `file`; rejects a
    /// version older than one it already saw.
    pub fn observe(&mut self, file: usize, version: usize) -> Result<(), String> {
        let last = self.last.entry(file).or_insert(version);
        if version < *last {
            return Err(format!(
                "file {file} went back from version {} to {version} at one reader",
                *last
            ));
        }
        *last = version;
        Ok(())
    }
}

/// Checks that the measured cross-site bytes reach the floor the
/// generated inputs imply: every unique chunk byte written after the
/// publish has to reach every remote replica at least once.
pub fn wan_at_least(measured: u64, floor: u64) -> Result<(), String> {
    if measured < floor {
        return Err(format!(
            "{measured} bytes crossed sites, below the floor of {floor} bytes \
             (unique written chunk bytes times remote replicas)"
        ));
    }
    Ok(())
}

/// Checks a simulated latency against the topology's propagation floor
/// for its path.
pub fn latency_at_least(latency_us: u64, floor_us: u64) -> Result<(), String> {
    if latency_us < floor_us {
        return Err(format!(
            "simulated latency {latency_us} us is below the propagation floor {floor_us} us"
        ));
    }
    Ok(())
}

/// Proves the checkers still reject what they exist to reject.
pub fn self_test() -> Result<(), String> {
    let body: Vec<u8> = (0..4096u32).map(|i| (i * 7 + 3) as u8).collect();
    body_matches(&body, &body).map_err(|e| format!("body check rejects a match: {e}"))?;
    let mut flipped = body.clone();
    flipped[1234] ^= 0x01;
    if body_matches(&body, &flipped).is_ok() {
        return Err("body check accepts a one-byte flip".into());
    }
    if body_matches(&body, &body[..4095]).is_ok() {
        return Err("body check accepts a truncated body".into());
    }

    let files = vec![("a.bin".to_owned(), 10), ("b.bin".to_owned(), 20)];
    let page = "<ul><li><a href=\"/pkg/p?file=a.bin\">a.bin</a> (10 bytes)</li>\
                <li><a href=\"/pkg/p?file=b.bin\">b.bin</a> (20 bytes)</li></ul>";
    listing_matches(page, &files).map_err(|e| format!("listing check rejects a match: {e}"))?;
    if listing_matches(&page.replace("(20 bytes)", "(21 bytes)"), &files).is_ok() {
        return Err("listing check accepts a wrong size".into());
    }

    let versions = [body.clone(), flipped.clone()];
    if version_of(&versions, &flipped) != Some(1) || version_of(&versions, &body[1..]).is_some() {
        return Err("version lookup misidentifies a body".into());
    }
    let mut reader = Monotonic::default();
    reader
        .observe(0, 1)
        .map_err(|e| format!("upgrade check: {e}"))?;
    reader
        .observe(0, 2)
        .map_err(|e| format!("upgrade check: {e}"))?;
    if reader.observe(0, 1).is_ok() {
        return Err("upgrade check accepts a version going backwards".into());
    }

    wan_at_least(1000, 1000).map_err(|e| format!("WAN check rejects its floor: {e}"))?;
    if wan_at_least(999, 1000).is_ok() {
        return Err("WAN check accepts a count below its floor".into());
    }
    if latency_at_least(99, 100).is_ok() {
        return Err("latency floor check accepts a latency below the floor".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkers_pass_their_self_test() {
        self_test().expect("self test");
    }

    #[test]
    fn body_check_rejects_every_single_byte_flip_position() {
        let body = vec![0xA5u8; 257];
        for at in 0..body.len() {
            let mut b = body.clone();
            b[at] ^= 0x80;
            assert!(body_matches(&body, &b).is_err(), "flip at {at} accepted");
        }
    }

    #[test]
    fn listing_check_rejects_missing_and_extra_files() {
        let files = vec![("a".to_owned(), 1)];
        let page = "<li><a href=\"x\">a</a> (1 bytes)</li>";
        assert!(listing_matches(page, &files).is_ok());
        assert!(listing_matches("", &files).is_err());
        let extra = format!("{page}<li><a href=\"y\">b</a> (2 bytes)</li>");
        assert!(listing_matches(&extra, &files).is_err());
    }
}
