//! Totality of the columnar decoder: `ColumnarTrace::from_bytes` followed
//! by `to_dataset` returns a dataset or a typed [`TraceError`] on any
//! input. It never panics, and no single allocation it makes is larger
//! than a fixed multiple of the input's length, whatever counts the
//! header claims.
//!
//! Three input families: byte soup (with and without a well-formed magic,
//! version and checksum), valid files whose body bytes are mutated before
//! the checksum is recomputed, and valid files whose header claims huge
//! sections.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_numerics::fnv_words;
use dcc_trace::{ColumnarTrace, SyntheticConfig, TraceError, COLUMNAR_MAGIC, COLUMNAR_VERSION};
use proptest::collection;
use proptest::prelude::*;

mod common;

const HEADER_LEN: usize = 72;
/// Byte offset of the header's first count (`n_products`); the six
/// counts follow as consecutive little-endian `u64`s.
const COUNTS_AT: usize = 16;
const CHECKSUM_AT: usize = 64;

/// Decodes `bytes`, checks the outcome is typed and the decode's largest
/// allocation is bounded by the input's length, and returns whether the
/// bytes decoded.
fn decode_is_total(bytes: Vec<u8>) -> Result<bool, TestCaseError> {
    let len = bytes.len();
    let (outcome, largest) = common::largest_allocation(|| {
        ColumnarTrace::from_bytes(bytes).and_then(|col| col.to_dataset())
    });
    // A decoded row takes at most ~3.2x its encoded width (a `Reviewer`
    // against its 10 encoded bytes is the widest); error messages are
    // short.
    prop_assert!(
        largest <= 4 * len + 1024,
        "a {len}-byte input made a {largest}-byte allocation"
    );
    if let Err(err) = &outcome {
        prop_assert!(
            matches!(
                err,
                TraceError::Corrupt(_)
                    | TraceError::InvalidDataset(_)
                    | TraceError::UnknownEntity(_)
            ),
            "unexpected error kind: {err}"
        );
    }
    Ok(outcome.is_ok())
}

fn seal(bytes: &mut [u8]) {
    let checksum = fnv_words(&bytes[HEADER_LEN..]);
    bytes[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&checksum.to_le_bytes());
}

fn count(bytes: &[u8], field: usize) -> u64 {
    let at = COUNTS_AT + 8 * field;
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// A valid file with every section non-empty, campaigns included.
fn valid_file(seed: u64) -> Vec<u8> {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.n_honest = 20;
    cfg.n_ncm = 4;
    cfg.n_cm_target = 6;
    cfg.n_rounds = 2;
    cfg.n_products = 120;
    let bytes = ColumnarTrace::from_dataset(&cfg.generate())
        .as_bytes()
        .to_vec();
    assert!(count(&bytes, 3) > 0, "the file has campaigns");
    bytes
}

/// The body's 14 sections as `(start, len)`, from the header's counts
/// (layout in `crates/trace/src/columnar.rs`).
fn sections(bytes: &[u8]) -> Vec<(usize, usize)> {
    let c = |field| usize::try_from(count(bytes, field)).unwrap();
    let (products, reviewers, reviews) = (c(0), c(1), c(2));
    let (campaigns, members, targets) = (c(3), c(4), c(5));
    let lens = [
        products * 8,
        reviewers,
        reviewers * 8,
        reviewers,
        reviews * 8,
        reviews * 8,
        reviews * 8,
        reviews * 8,
        reviews * 8,
        reviews * 8,
        (campaigns + 1) * 8,
        members * 8,
        (campaigns + 1) * 8,
        targets * 8,
    ];
    let mut start = HEADER_LEN;
    lens.iter()
        .map(|&len| {
            let section = (start, len);
            start += len;
            section
        })
        .collect()
}

/// Words a mutation writes: boundary values of ids, offsets and floats.
fn special_word(kind: usize, random: u64, bytes: &[u8]) -> u64 {
    match kind {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => 1 << 62,
        4 => count(bytes, 1),     // first reviewer id past the end
        5 => count(bytes, 0),     // first product id past the end
        6 => count(bytes, 4) + 1, // an offset past the member section
        7 => f64::NAN.to_bits(),
        8 => 0.5f64.to_bits(),
        9 => 6.0f64.to_bits(),
        10 => random % 16,
        _ => random,
    }
}

proptest! {
    #[test]
    fn byte_soup_decodes_or_fails_typed(
        soup in collection::vec(any::<u8>(), 0..400),
        framing in 0u8..3,
        counts in collection::vec(0u64..64, 6),
    ) {
        let mut bytes = soup.clone();
        // framing 0: raw soup; 1: magic and version in front, soup in the
        // reserved field (refused unless it happens to be 0); 2: also a
        // zero reserved field, small counts, a body of soup as long as
        // they imply, and a matching checksum, so the bytes reach
        // `to_dataset`.
        if framing >= 1 {
            bytes.resize(bytes.len().max(HEADER_LEN), 0);
            bytes[..8].copy_from_slice(&COLUMNAR_MAGIC);
            bytes[8..12].copy_from_slice(&COLUMNAR_VERSION.to_le_bytes());
        }
        if framing == 2 {
            bytes[12..16].fill(0);
            for (field, &n) in counts.iter().enumerate() {
                let at = COUNTS_AT + 8 * field;
                bytes[at..at + 8].copy_from_slice(&n.to_le_bytes());
            }
            let (start, len) = sections(&bytes)[13];
            bytes.truncate(HEADER_LEN);
            bytes.extend(soup.iter().cycle().take(start + len - HEADER_LEN));
            bytes.resize(start + len, 0);
            seal(&mut bytes);
        }
        decode_is_total(bytes)?;
    }

    #[test]
    fn mutated_bodies_decode_or_fail_typed(
        seed in 0u64..6,
        mutations in collection::vec(
            (0usize..14, any::<u64>(), 0usize..13, any::<u64>(), any::<bool>()),
            1..6,
        ),
    ) {
        let mut bytes = valid_file(seed);
        let layout = sections(&bytes);
        for (section, at, kind, random, whole_word) in mutations {
            let (start, len) = layout[section];
            let len = len.max(1);
            let pos = (start + (at as usize % len)).min(bytes.len() - 8);
            if whole_word {
                let word = special_word(kind, random, &bytes);
                bytes[pos..pos + 8].copy_from_slice(&word.to_le_bytes());
            } else {
                bytes[pos] = random as u8;
            }
        }
        seal(&mut bytes);
        decode_is_total(bytes)?;
    }

    #[test]
    fn huge_claimed_sections_fail_typed(
        seed in 0u64..6,
        claims in collection::vec((0usize..6, 0usize..6), 1..4),
    ) {
        // The checksum covers the body only, so the file still checks out.
        let mut bytes = valid_file(seed);
        for (field, size) in claims {
            let huge = [u64::MAX, u64::MAX / 8, 1 << 40, 1 << 32, u64::from(u32::MAX), 1 << 26][size];
            let at = COUNTS_AT + 8 * field;
            bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
        }
        let decoded = decode_is_total(bytes)?;
        prop_assert!(!decoded, "a file whose header claims more than it holds decoded");
    }
}

#[test]
fn unmutated_file_decodes() {
    assert!(decode_is_total(valid_file(0)).unwrap());
}
