//! Totality of the CSV reader: `read_trace_csv` over any three files
//! returns a dataset or a typed [`TraceError`]: a parse error naming the
//! line, or the dataset's own validation error. It never panics, never
//! reports a readable file's content as an I/O failure, and no single
//! allocation it makes is larger than a fixed multiple of the files'
//! total length, whatever ids they hold. A dataset it returns is
//! consistent: campaigns are numbered densely and every member's
//! `campaign` field names the campaign that lists it.
//!
//! Two input families: byte soup in one file next to two valid ones, and
//! valid files mutated row by row (fields dropped or added; ids made
//! huge, sparse or out of range; bytes that are not UTF-8; stars that are
//! NaN or infinite; rows repeated or deleted; campaign ids spread apart).
//! Fixed cases pin the sparse-id renumbering, the line a non-UTF-8
//! error names and the rows the writer never writes (a wrong product
//! field count, an `is_expert` other than 0/1, a non-finite float), and
//! a timed case keeps the campaign rebuild linear in the reviews.

#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_trace::{
    read_trace_csv, write_trace_csv, ProductId, ReviewerId, SyntheticConfig, TraceDataset,
    TraceError,
};
use proptest::collection;
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

mod common;

const FILES: [&str; 3] = ["products.csv", "reviewers.csv", "reviews.csv"];

/// A directory of its own for each read.
fn scratch_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dcc_csv_totality_{}_{n}", std::process::id()))
}

/// A fresh directory holding `products.csv`, `reviewers.csv` and
/// `reviews.csv`.
fn write_files(files: [&[u8]; 3]) -> PathBuf {
    let dir = scratch_dir();
    fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in FILES.iter().zip(files) {
        fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

/// The three files of a small trace with campaigns.
fn valid_files(seed: u64) -> [Vec<u8>; 3] {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.n_honest = 20;
    cfg.n_ncm = 4;
    cfg.n_cm_target = 6;
    cfg.n_rounds = 2;
    cfg.n_products = 120;
    let trace = cfg.generate();
    assert!(!trace.campaigns().is_empty(), "the trace has campaigns");
    let dir = scratch_dir();
    write_trace_csv(&trace, &dir).unwrap();
    let files = FILES.map(|name| fs::read(dir.join(name)).unwrap());
    fs::remove_dir_all(&dir).ok();
    files
}

/// Every campaign sits at its own index, and its members, and only they,
/// name it.
fn consistent(trace: &TraceDataset) -> Result<(), TestCaseError> {
    for (index, campaign) in trace.campaigns().iter().enumerate() {
        prop_assert_eq!(campaign.id, index);
        for member in &campaign.members {
            prop_assert_eq!(trace.reviewers()[member.index()].campaign, Some(index));
        }
    }
    for reviewer in trace.reviewers() {
        if let Some(c) = reviewer.campaign {
            let listed = trace
                .campaigns()
                .get(c)
                .map(|c| c.members.contains(&reviewer.id));
            prop_assert_eq!(listed, Some(true), "{} names campaign {}", reviewer.id, c);
        }
    }
    Ok(())
}

/// Reads `files`, checks the outcome is typed, the read's largest
/// allocation is bounded by the files' length and a dataset is
/// consistent, and returns whether the files read.
fn read_is_total(files: &[Vec<u8>; 3]) -> Result<bool, TestCaseError> {
    let dir = write_files([&files[0], &files[1], &files[2]]);
    let (outcome, largest) = common::largest_allocation(|| read_trace_csv(&dir));
    fs::remove_dir_all(&dir).ok();
    let len: usize = files.iter().map(Vec::len).sum();
    // A row decodes into at most ~10x its shortest encoding (a 32-byte
    // `Reviewer` from a 7-byte row, in a vector that grows by doubling);
    // the line buffer and messages are a few KiB.
    prop_assert!(
        largest <= 16 * len + 64 * 1024,
        "{len} bytes of files made a {largest}-byte allocation"
    );
    match outcome {
        Ok(trace) => {
            consistent(&trace)?;
            Ok(true)
        }
        Err(err) => {
            prop_assert!(
                matches!(
                    err,
                    TraceError::Parse { .. }
                        | TraceError::InvalidDataset(_)
                        | TraceError::UnknownEntity(_)
                ),
                "unexpected error kind: {err}"
            );
            Ok(false)
        }
    }
}

/// Values a mutation writes into a field.
fn special_field(kind: usize, random: u64, rows: usize) -> Vec<u8> {
    match kind {
        0 => Vec::new(),
        1 => u64::MAX.to_string().into_bytes(),
        2 => b"18446744073709551616".to_vec(),
        3 => b"-1".to_vec(),
        4 => rows.to_string().into_bytes(),
        5 => (rows + 7).to_string().into_bytes(),
        6 => b"NaN".to_vec(),
        7 => b"inf".to_vec(),
        8 => b"-inf".to_vec(),
        9 => b"1e308".to_vec(),
        10 => vec![0xff, 0xfe, b'1'],
        11 => b"C".to_vec(),
        _ => (random % 16).to_string().into_bytes(),
    }
}

/// `(file, row, op, field, kind, random)`.
type Mutation = (usize, usize, usize, usize, usize, u64);

fn mutate(files: &mut [Vec<u8>; 3], (file, row, op, field, kind, random): Mutation) {
    let mut rows: Vec<Vec<u8>> = files[file]
        .split(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let n = rows.len();
    let at = row % n;
    let mut fields: Vec<Vec<u8>> = rows[at].split(|&b| b == b',').map(<[u8]>::to_vec).collect();
    let pick = field % fields.len();
    match op {
        0 => {
            fields.remove(pick);
        }
        1 => fields.insert(pick, special_field(kind, random, n)),
        2 => fields[pick] = special_field(kind, random, n),
        3 => {
            let len = fields[pick].len().max(1);
            if let Some(byte) = fields[pick].get_mut(random as usize % len) {
                *byte = (random >> 8) as u8;
            }
        }
        4 => rows.insert(at, rows[at].clone()),
        5 => {
            rows.remove(at);
        }
        _ => {
            // Spread the reviewers' campaign ids apart: sparse, and huge.
            let factor = [3, 1 << 40][random as usize % 2];
            for r in rows.iter_mut().skip(1) {
                let mut f: Vec<Vec<u8>> = r.split(|&b| b == b',').map(<[u8]>::to_vec).collect();
                if let Some(c) = f.get_mut(2) {
                    if let Some(id) = std::str::from_utf8(c)
                        .ok()
                        .and_then(|c| c.parse::<u64>().ok())
                    {
                        *c = id
                            .saturating_mul(factor)
                            .saturating_add(1)
                            .to_string()
                            .into_bytes();
                    }
                }
                *r = f.join(&b","[..]);
            }
        }
    }
    if op < 4 {
        rows[at] = fields.join(&b","[..]);
    }
    files[file] = rows.join(&b"\n"[..]);
}

proptest! {
    #[test]
    fn byte_soup_reads_or_fails_typed(
        seed in 0u64..4,
        file in 0usize..3,
        soup in collection::vec(any::<u8>(), 0..600),
        keep_header in any::<bool>(),
    ) {
        let mut files = valid_files(seed);
        let header_end = files[file].iter().position(|&b| b == b'\n').unwrap() + 1;
        files[file] = if keep_header {
            files[file][..header_end].iter().chain(&soup).copied().collect()
        } else {
            soup
        };
        read_is_total(&files)?;
    }

    #[test]
    fn mutated_files_read_or_fail_typed(
        seed in 0u64..4,
        mutations in collection::vec(
            (0usize..3, any::<usize>(), 0usize..7, any::<usize>(), 0usize..13, any::<u64>()),
            1..6,
        ),
    ) {
        let mut files = valid_files(seed);
        for mutation in mutations {
            mutate(&mut files, mutation);
        }
        read_is_total(&files)?;
    }
}

#[test]
fn unmutated_files_read() {
    assert!(read_is_total(&valid_files(0)).unwrap());
}

#[test]
fn sparse_campaign_ids_are_renumbered_on_members_too() {
    let dir = write_files([
        b"id,true_quality\n0,3.0\n1,4.0\n",
        b"id,class,campaign,is_expert\n0,H,,0\n1,C,3,0\n2,C,3,0\n",
        b"reviewer,product,round,stars,length_chars,upvotes\n\
          1,0,0,5,100,1\n2,0,0,5,100,1\n2,1,0,4,100,1\n0,1,0,3,100,1\n",
    ]);
    let trace = read_trace_csv(&dir).unwrap();
    fs::remove_dir_all(&dir).ok();
    assert_eq!(trace.campaigns().len(), 1);
    let campaign = &trace.campaigns()[0];
    assert_eq!(campaign.id, 0);
    assert_eq!(campaign.members, vec![ReviewerId(1), ReviewerId(2)]);
    assert_eq!(campaign.targets, vec![ProductId(0), ProductId(1)]);
    let fields: Vec<_> = trace.reviewers().iter().map(|r| r.campaign).collect();
    assert_eq!(fields, vec![None, Some(0), Some(0)]);
}

#[test]
fn non_utf8_row_is_a_parse_error_naming_its_line() {
    let dir = write_files([
        b"id,true_quality\n0,3.0\n1,\xff\xfe\n",
        b"id,class,campaign,is_expert\n",
        b"reviewer,product,round,stars,length_chars,upvotes\n",
    ]);
    let err = read_trace_csv(&dir).unwrap_err();
    fs::remove_dir_all(&dir).ok();
    assert!(matches!(err, TraceError::Parse { line: 3, .. }), "{err}");
}

/// Rows `write_trace_csv` never writes: a product row with other than
/// two fields, an `is_expert` other than `0`/`1`, a non-finite
/// `true_quality` or `upvotes`.
#[test]
fn rows_the_writer_never_writes_are_parse_errors_naming_their_line() {
    const PRODUCTS: &[u8] = b"id,true_quality\n0,3.0\n1,4.0\n";
    const REVIEWERS: &[u8] = b"id,class,campaign,is_expert\n0,H,,0\n1,H,,1\n";
    const REVIEWS: &[u8] = b"reviewer,product,round,stars,length_chars,upvotes\n\
                             0,0,0,4,100,1\n1,1,0,3,100,2\n";
    let cases: [(&str, [&[u8]; 3], usize); 6] = [
        (
            "extra product fields",
            [b"id,q\n0,3.0,junk,more\n1,4.0\n", REVIEWERS, REVIEWS],
            2,
        ),
        (
            "missing product field",
            [b"id,q\n0,3.0\n1\n", REVIEWERS, REVIEWS],
            3,
        ),
        (
            "is_expert yes",
            [
                PRODUCTS,
                b"id,class,campaign,is_expert\n0,H,,0\n1,H,,yes\n",
                REVIEWS,
            ],
            3,
        ),
        (
            "NaN true_quality",
            [b"id,q\n0,NaN\n1,4.0\n", REVIEWERS, REVIEWS],
            2,
        ),
        (
            "inf upvotes",
            [PRODUCTS, REVIEWERS, b"header\n0,0,0,4,100,inf\n"],
            2,
        ),
        (
            "NaN upvotes",
            [
                PRODUCTS,
                REVIEWERS,
                b"header\n0,0,0,4,100,1\n1,1,0,3,100,NaN\n",
            ],
            3,
        ),
    ];
    let read = |files: [&[u8]; 3]| {
        let dir = write_files(files);
        let outcome = read_trace_csv(&dir);
        fs::remove_dir_all(&dir).ok();
        outcome
    };
    assert!(read([PRODUCTS, REVIEWERS, REVIEWS]).is_ok());
    let wrong: Vec<String> = cases
        .into_iter()
        .filter_map(|(name, files, line)| match read(files) {
            Err(TraceError::Parse { line: at, .. }) if at == line => None,
            other => Some(format!(
                "{name}: want a parse error at line {line}, got {other:?}"
            )),
        })
        .collect();
    assert!(wrong.is_empty(), "{wrong:#?}");
}

#[test]
#[allow(
    clippy::disallowed_types,
    reason = "the test bounds the read's wall time"
)]
fn campaign_rebuild_is_linear_in_the_reviews() {
    // 5,000 two-member campaigns and 50,000 reviews: a rebuild that scans
    // every review once per campaign takes 2.5e8 steps, many times the
    // cost of parsing the files.
    let (pairs, n_reviews, n_products) = (5_000, 50_000, 1_000);
    let products: String = std::iter::once("id,true_quality\n".to_string())
        .chain((0..n_products).map(|p| format!("{p},3.5\n")))
        .collect();
    let reviewers = |campaigns: bool| -> String {
        std::iter::once("id,class,campaign,is_expert\n".to_string())
            .chain((0..2 * pairs).map(|r| {
                let campaign = if campaigns {
                    (r / 2).to_string()
                } else {
                    String::new()
                };
                format!("{r},C,{campaign},0\n")
            }))
            .collect()
    };
    let reviews: String =
        std::iter::once("reviewer,product,round,stars,length_chars,upvotes\n".to_string())
            .chain(
                (0..n_reviews)
                    .map(|i| format!("{},{},0,4.5,100,1\n", i % (2 * pairs), i % n_products)),
            )
            .collect();
    let plain = write_files([
        products.as_bytes(),
        reviewers(false).as_bytes(),
        reviews.as_bytes(),
    ]);
    let grouped = write_files([
        products.as_bytes(),
        reviewers(true).as_bytes(),
        reviews.as_bytes(),
    ]);
    let best = |dir: &Path| {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let trace = read_trace_csv(dir).unwrap();
                (start.elapsed(), trace.campaigns().len())
            })
            .min()
            .unwrap()
    };
    let (plain_time, none) = best(&plain);
    let (grouped_time, campaigns) = best(&grouped);
    fs::remove_dir_all(&plain).ok();
    fs::remove_dir_all(&grouped).ok();
    assert_eq!((none, campaigns), (0, pairs));
    let bound = 3 * plain_time + Duration::from_millis(50);
    assert!(
        grouped_time <= bound,
        "reading {pairs} campaigns took {grouped_time:?}, over {bound:?} \
         (the same files without campaigns: {plain_time:?})"
    );
}
